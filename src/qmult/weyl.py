"""The Weyl group of A_rank, realized as permutations of rank+1 coordinates.

An element is stored in one-line notation: ``perm[k-1]`` is the image of k.
The simple reflection s_i swaps coordinates i and i+1, length is the
inversion count of the one-line word, and sign is (-1)**length.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

# The pruned sweep visits up to (rank+1)! leaves, how many depending on lam
# and mu, so brute-force entry points refuse ranks above this unless the
# caller raises the cap.
DEFAULT_BRUTE_CAP = 9


class CapExceededError(ValueError):
    """A brute-force or enumeration request exceeded its configured cap."""


@dataclass(frozen=True, init=False)
class WeylElement:
    """A permutation of {1, ..., rank+1} in one-line notation."""

    perm: tuple[int, ...]

    def __init__(self, perm: Iterable[int]):
        p = tuple(int(x) for x in perm)
        if sorted(p) != list(range(1, len(p) + 1)):
            raise ValueError(f"not a permutation of 1..{len(p)}: {p}")
        if len(p) < 2:
            raise ValueError("need at least 2 points (rank >= 1)")
        object.__setattr__(self, "perm", p)

    @property
    def rank(self) -> int:
        return len(self.perm) - 1

    def is_identity(self) -> bool:
        return all(self.perm[k] == k + 1 for k in range(len(self.perm)))

    def length(self) -> int:
        """Coxeter length: the number of inversions of the one-line word."""
        p = self.perm
        n = len(p)
        return sum(1 for a in range(n) for b in range(a + 1, n) if p[a] > p[b])

    def sign(self) -> int:
        return -1 if self.length() & 1 else 1

    def word(self) -> str:
        """Short word form like ``s2*s4`` when the element is a product of
        commuting simple reflections, else the one-line form like ``[2,1,3]``."""
        indices = commuting_indices(self)
        if indices is None:
            return str(self)
        if not indices:
            return "1"
        return "*".join(f"s{i}" for i in indices)

    def __str__(self) -> str:
        return "[" + ",".join(str(x) for x in self.perm) + "]"


def identity(rank: int) -> WeylElement:
    return WeylElement(range(1, rank + 2))


def simple_reflection(i: int, rank: int) -> WeylElement:
    """The transposition s_i = (i, i+1) in S_{rank+1}."""
    if not 1 <= i <= rank:
        raise ValueError(f"reflection index {i} outside [1, {rank}]")
    p = list(range(1, rank + 2))
    p[i - 1], p[i] = p[i], p[i - 1]
    return WeylElement(p)


def product_of_commuting(indices: Iterable[int], rank: int) -> WeylElement:
    """The product of s_i over a set of pairwise nonconsecutive indices.

    The factors commute, so the product is well defined without an ordering.
    Consecutive or repeated indices are rejected.
    """
    ms = sorted(indices)
    if len(set(ms)) != len(ms):
        raise ValueError(f"repeated reflection index in {ms}")
    if ms and (ms[0] < 1 or ms[-1] > rank):
        raise ValueError(f"reflection indices {ms} outside [1, {rank}]")
    for a, b in zip(ms, ms[1:]):
        if b - a < 2:
            raise ValueError(f"indices {a} and {b} are consecutive; factors do not commute")
    p = list(range(1, rank + 2))
    for i in ms:
        p[i - 1], p[i] = p[i], p[i - 1]
    return WeylElement(p)


def commuting_indices(w: WeylElement) -> Optional[tuple[int, ...]]:
    """Recover the index set when w is a product of nonconsecutive simple
    reflections; None if w has no such factorization."""
    found = []
    k = 1
    n = len(w.perm)
    while k <= n:
        if w.perm[k - 1] == k:
            k += 1
        elif k < n and w.perm[k - 1] == k + 1 and w.perm[k] == k:
            found.append(k)
            k += 2
        else:
            return None
    return tuple(found)
