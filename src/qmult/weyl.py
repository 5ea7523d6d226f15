"""The Weyl group of A_rank, realized as permutations of rank+1 coordinates.

An element is stored in one-line notation: ``perm[k-1]`` is the image of k.
The simple reflection s_i swaps coordinates i and i+1, and length is the
inversion count of the one-line word.
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
        p = tuple(map(int, perm))
        if sorted(p) != list(range(1, len(p) + 1)):
            raise ValueError(f"not a permutation of 1..{len(p)}: {p}")
        if len(p) < 2:
            raise ValueError("need at least 2 points (rank >= 1)")
        object.__setattr__(self, "perm", p)

    def length(self) -> int:
        """Coxeter length: the number of inversions of the one-line word."""
        p = self.perm
        n = len(p)
        return sum(1 for a in range(n) for b in range(a + 1, n) if p[a] > p[b])

    def __str__(self) -> str:
        return "[" + ",".join(str(x) for x in self.perm) + "]"


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
