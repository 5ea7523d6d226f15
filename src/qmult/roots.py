"""Root geometry for the type A_r root system.

Vectors live in two coordinate systems.  A ``RootVector`` holds coefficients
over the simple-root basis alpha_1, ..., alpha_r; this is where the partition
function is evaluated.  :func:`embed` gives the r+1 ambient coordinates (over
the standard basis e_1, ..., e_{r+1} that the Weyl group permutes) as a plain
tuple, with alpha_i = e_i - e_{i+1}.

The Weyl sweep uses the integer vector (r, r-1, ..., 1, 0) as the Weyl
vector rho.  It differs from the true half-sum of positive
roots by a constant vector, which permutations fix, so sigma(v + rho) - rho
is unchanged by the substitution; tests confirm this against the honest
half-sum for small ranks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


@dataclass(frozen=True, init=False)
class RootVector:
    """An integer vector over the simple-root basis of A_rank."""

    rank: int
    coeffs: tuple[int, ...]

    def __init__(self, rank: int, coeffs: Iterable[int]):
        if rank < 1:
            raise ValueError("rank must be at least 1")
        cs = tuple(int(c) for c in coeffs)
        if len(cs) != rank:
            raise ValueError(f"expected {rank} coefficients, got {len(cs)}")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "coeffs", cs)

    def _check(self, other: "RootVector") -> None:
        if self.rank != other.rank:
            raise ValueError("rank mismatch")

    def __add__(self, other: "RootVector") -> "RootVector":
        self._check(other)
        return RootVector(self.rank, (a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "RootVector") -> "RootVector":
        self._check(other)
        return RootVector(self.rank, (a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "RootVector":
        return RootVector(self.rank, (-a for a in self.coeffs))

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_nonnegative(self) -> bool:
        return all(c >= 0 for c in self.coeffs)


def zero_root(rank: int) -> RootVector:
    """The zero vector of the root lattice, usable as the weight mu = 0."""
    return RootVector(rank, (0,) * rank)


def simple_root(i: int, rank: int) -> RootVector:
    """alpha_i as a RootVector.  Errors if i is outside [1, rank]."""
    if not 1 <= i <= rank:
        raise ValueError(f"simple-root index {i} outside [1, {rank}]")
    return RootVector(rank, tuple(1 if k == i else 0 for k in range(1, rank + 1)))


def positive_root(i: int, j: int, rank: int) -> RootVector:
    """The positive root alpha_i + alpha_{i+1} + ... + alpha_j."""
    if not 1 <= i <= j <= rank:
        raise ValueError(f"positive root needs 1 <= i <= j <= rank, got ({i}, {j}, {rank})")
    return RootVector(rank, tuple(1 if i <= k <= j else 0 for k in range(1, rank + 1)))


def highest_root(rank: int) -> RootVector:
    """The highest root alpha_1 + ... + alpha_rank."""
    return positive_root(1, rank, rank)


def all_positive_roots(rank: int) -> list[RootVector]:
    """All rank(rank+1)/2 positive roots, ordered by (i, j) lexicographically."""
    if rank < 1:
        raise ValueError("rank must be at least 1")
    return [positive_root(i, j, rank) for i in range(1, rank + 1) for j in range(i, rank + 1)]


def alpha_of_index_set(members: Iterable[int], rank: int) -> RootVector:
    """The weight alpha_I = sum of alpha_i over i in the index set.

    ``members`` may be any iterable of distinct indices in [1, rank]; it must
    be nonempty.
    """
    ms = sorted(set(members))
    if not ms:
        raise ValueError("index set must be nonempty")
    if ms[0] < 1 or ms[-1] > rank:
        raise ValueError(f"index set {ms} outside [1, {rank}]")
    picked = set(ms)
    return RootVector(rank, tuple(1 if k in picked else 0 for k in range(1, rank + 1)))


def embed(v: RootVector) -> tuple[int, ...]:
    """Expand a root-basis vector into ambient coordinates via alpha_i = e_i - e_{i+1}."""
    padded = (0,) + v.coeffs + (0,)
    return tuple(b - a for a, b in zip(padded, padded[1:]))
