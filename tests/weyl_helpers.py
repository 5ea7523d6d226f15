"""Ambient-coordinate helpers for the tests: the Weyl group acting on
weights by permuting coordinates, written out plainly so that the library's
sweep and closed forms can be checked against them.  Small ranks only.
A Weyl element is its one-line tuple, as in the library; ``permutation``
checks that a tuple is one, which the library's producers skip because they
build permutations by construction.  ``product_of_commuting`` is the oracle
for ``alt_set_closed``.  Arithmetic on root-basis vectors, which the library
never needs, is here too.
"""

import itertools
from dataclasses import dataclass
from typing import Iterable

from qmult.roots import RootVector
from qmult.weyl import DEFAULT_BRUTE_CAP, CapExceededError, length


@dataclass(frozen=True, init=False)
class WeightVector:
    """An integer vector over the ambient coordinates e_1, ..., e_{rank+1}."""

    rank: int
    coords: tuple[int, ...]

    def __init__(self, rank: int, coords: Iterable[int]):
        if rank < 1:
            raise ValueError("rank must be at least 1")
        cs = tuple(int(c) for c in coords)
        if len(cs) != rank + 1:
            raise ValueError(f"expected {rank + 1} coordinates, got {len(cs)}")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "coords", cs)


def permutation(values: Iterable[int]) -> tuple[int, ...]:
    """values as a one-line tuple, checked to be a permutation of 1..n, n >= 2."""
    p = tuple(map(int, values))
    if sorted(p) != list(range(1, len(p) + 1)):
        raise ValueError(f"not a permutation of 1..{len(p)}: {p}")
    if len(p) < 2:
        raise ValueError("need at least 2 points (rank >= 1)")
    return p


def identity(rank: int) -> tuple[int, ...]:
    return permutation(range(1, rank + 2))


def is_identity(w: tuple[int, ...]) -> bool:
    return all(w[k] == k + 1 for k in range(len(w)))


def sign(w: tuple[int, ...]) -> int:
    return -1 if length(w) & 1 else 1


def simple_reflection(i: int, rank: int) -> tuple[int, ...]:
    """The transposition s_i = (i, i+1) in S_{rank+1}."""
    if not 1 <= i <= rank:
        raise ValueError(f"reflection index {i} outside [1, {rank}]")
    p = list(range(1, rank + 2))
    p[i - 1], p[i] = p[i], p[i - 1]
    return permutation(p)


def product_of_commuting(indices: Iterable[int], rank: int) -> tuple[int, ...]:
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
    return permutation(p)


def all_elements(rank: int, cap: int = DEFAULT_BRUTE_CAP):
    """All of S_{rank+1} in lexicographic one-line order; refuses ranks above cap."""
    if rank < 1:
        raise ValueError("rank must be at least 1")
    if rank > cap:
        raise CapExceededError(f"rank {rank} exceeds brute-force cap {cap}")
    return itertools.permutations(range(1, rank + 2))


def compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The product a∘b, i.e. apply b first: (a∘b)(k) = a(b(k))."""
    if len(a) != len(b):
        raise ValueError("rank mismatch")
    return permutation(a[b[k] - 1] for k in range(len(a)))


def apply(w: tuple[int, ...], v: WeightVector) -> WeightVector:
    """Permute ambient coordinates: coordinate k of v moves to position w[k]."""
    if len(v.coords) != len(w):
        raise ValueError("rank mismatch")
    out = [0] * len(w)
    for k, image in enumerate(w):
        out[image - 1] = v.coords[k]
    return WeightVector(v.rank, out)


def add(v: WeightVector, w: WeightVector) -> WeightVector:
    if v.rank != w.rank:
        raise ValueError("rank mismatch")
    return WeightVector(v.rank, (a + b for a, b in zip(v.coords, w.coords)))


def sub(v: WeightVector, w: WeightVector) -> WeightVector:
    if v.rank != w.rank:
        raise ValueError("rank mismatch")
    return WeightVector(v.rank, (a - b for a, b in zip(v.coords, w.coords)))


def rho_coords(rank: int) -> WeightVector:
    """The staircase representative (rank, rank-1, ..., 1, 0) of the Weyl vector."""
    return WeightVector(rank, range(rank, -1, -1))


def to_root_basis(w: WeightVector):
    """The simple-root coefficients of w, or None off the span of the roots.

    w lies in that span exactly when its ambient coordinates sum to zero;
    then the coefficient of alpha_k is the sum of the first k coordinates.
    """
    if sum(w.coords) != 0:
        return None
    return RootVector(w.rank, itertools.accumulate(w.coords[:-1]))


def zero_root(rank: int) -> RootVector:
    """The zero vector of the root lattice, usable as the weight mu = 0."""
    return RootVector(rank, (0,) * rank)


def _check_ranks(v: RootVector, w: RootVector) -> None:
    if v.rank != w.rank:
        raise ValueError("rank mismatch")


def root_add(v: RootVector, w: RootVector) -> RootVector:
    _check_ranks(v, w)
    return RootVector(v.rank, (a + b for a, b in zip(v.coeffs, w.coeffs)))


def root_sub(v: RootVector, w: RootVector) -> RootVector:
    _check_ranks(v, w)
    return RootVector(v.rank, (a - b for a, b in zip(v.coeffs, w.coeffs)))


def root_neg(v: RootVector) -> RootVector:
    return RootVector(v.rank, (-a for a in v.coeffs))


def is_nonnegative(v: RootVector) -> bool:
    return all(c >= 0 for c in v.coeffs)
