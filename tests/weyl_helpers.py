"""Ambient-coordinate helpers for the tests: the Weyl group acting on
weights by permuting coordinates, written out plainly so that the library's
sweep and closed forms can be checked against them.  Small ranks only.
``product_of_commuting`` is the oracle for ``alt_set_closed``.  Arithmetic
on root-basis vectors, which the library never needs, is here too.
"""

import itertools
from dataclasses import dataclass
from typing import Iterable

from qmult.roots import RootVector
from qmult.weyl import DEFAULT_BRUTE_CAP, CapExceededError, WeylElement


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


def identity(rank: int) -> WeylElement:
    return WeylElement(range(1, rank + 2))


def is_identity(w: WeylElement) -> bool:
    return all(w.perm[k] == k + 1 for k in range(len(w.perm)))


def sign(w: WeylElement) -> int:
    return -1 if w.length() & 1 else 1


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


def all_elements(rank: int, cap: int = DEFAULT_BRUTE_CAP):
    """All of S_{rank+1} in lexicographic one-line order; refuses ranks above cap."""
    if rank < 1:
        raise ValueError("rank must be at least 1")
    if rank > cap:
        raise CapExceededError(f"rank {rank} exceeds brute-force cap {cap}")
    return (WeylElement(p) for p in itertools.permutations(range(1, rank + 2)))


def compose(a: WeylElement, b: WeylElement) -> WeylElement:
    """The product a∘b, i.e. apply b first: (a∘b)(k) = a(b(k))."""
    if len(a.perm) != len(b.perm):
        raise ValueError("rank mismatch")
    return WeylElement(a.perm[b.perm[k] - 1] for k in range(len(a.perm)))


def apply(w: WeylElement, v: WeightVector) -> WeightVector:
    """Permute ambient coordinates: coordinate k of v moves to position perm[k]."""
    if len(v.coords) != len(w.perm):
        raise ValueError("rank mismatch")
    out = [0] * len(w.perm)
    for k, image in enumerate(w.perm):
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
