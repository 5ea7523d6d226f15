"""Ambient-coordinate helpers for the tests: the Weyl group acting on
weights by permuting coordinates, written out plainly so that the library's
sweep and closed forms can be checked against them.  Small ranks only.
"""

import itertools

from qmult.roots import RootVector, WeightVector
from qmult.weyl import DEFAULT_BRUTE_CAP, CapExceededError, WeylElement


def all_elements(rank: int, cap: int = DEFAULT_BRUTE_CAP):
    """All of S_{rank+1} in lexicographic one-line order; refuses ranks above cap."""
    if rank < 1:
        raise ValueError("rank must be at least 1")
    if rank > cap:
        raise CapExceededError(f"rank {rank} exceeds brute-force cap {cap}")
    return (WeylElement(p) for p in itertools.permutations(range(1, rank + 2)))


def compose(a: WeylElement, b: WeylElement) -> WeylElement:
    """The product a∘b, i.e. apply b first: (a∘b)(k) = a(b(k))."""
    if a.rank != b.rank:
        raise ValueError("rank mismatch")
    return WeylElement(a.perm[b.perm[k] - 1] for k in range(len(a.perm)))


def apply(w: WeylElement, v: WeightVector) -> WeightVector:
    """Permute ambient coordinates: coordinate k of v moves to position perm[k]."""
    if v.rank != w.rank:
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
