"""Index sets I inside [1, rank] and their maximal-run decompositions.

A nonempty index set splits uniquely into maximal runs of consecutive
integers [i_1, j_1], ..., [i_n, j_n] with i_{x+1} >= j_x + 2.  These runs,
a plain tuple of (lo, hi) pairs, drive both the closed-form multiplicities
and the Fibonacci counts of alternation sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .roots import RootVector


@dataclass(frozen=True, init=False)
class IndexSet:
    """A subset of {1, ..., rank}, kept sorted and duplicate-free.

    The empty set is allowed; operations that need a nonempty set say so.
    """

    rank: int
    members: tuple[int, ...]

    def __init__(self, rank: int, members: Iterable[int] = ()):
        if rank < 1:
            raise ValueError("rank must be at least 1")
        ms = tuple(sorted(set(int(m) for m in members)))
        if ms and (ms[0] < 1 or ms[-1] > rank):
            raise ValueError(f"members {ms} outside [1, {rank}]")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "members", ms)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, k: int) -> bool:
        return k in self.members

    def is_empty(self) -> bool:
        return not self.members

    def to_root_vector(self) -> RootVector:
        """The weight alpha_I = sum of alpha_i over the members (nonempty only)."""
        if not self.members:
            raise ValueError("index set must be nonempty")
        cs = [0] * self.rank
        for m in self.members:
            cs[m - 1] = 1
        return RootVector(self.rank, cs)

    def __str__(self) -> str:
        return "{" + ",".join(str(m) for m in self.members) + "}"


def maximal_runs(members: Iterable[int]) -> tuple[tuple[int, int], ...]:
    """Decompose a set of integers into maximal runs of consecutive values.

    Returns (lo, hi) pairs in increasing order; empty input gives ().

    >>> maximal_runs([1, 2, 4, 7, 8])
    ((1, 2), (4, 4), (7, 8))
    """
    ms = sorted(set(members))
    runs: list[tuple[int, int]] = []
    for m in ms:
        if runs and m == runs[-1][1] + 1:
            runs[-1] = (runs[-1][0], m)
        else:
            runs.append((m, m))
    return tuple(runs)


def interval_partition(index_set: IndexSet) -> tuple[tuple[int, int], ...]:
    """The maximal runs of a nonempty index set, as inclusive (lo, hi) pairs.

    >>> interval_partition(IndexSet(8, [1, 2, 4, 7]))
    ((1, 2), (4, 4), (7, 7))
    """
    if index_set.is_empty():
        raise ValueError("interval partition of the empty set is undefined")
    return maximal_runs(index_set.members)


def n_of_complement(index_set: IndexSet) -> int:
    """Number of maximal runs of the complement of a nonempty index set.

    In terms of n = n(I): the value is n - 1 when both endpoints 1 and rank
    lie in I, n + 1 when neither does, and n when exactly one does.  The
    complement may be empty, in which case the count is 0.
    """
    if index_set.is_empty():
        raise ValueError("index set must be nonempty")
    return len(maximal_runs(set(range(1, index_set.rank + 1)).difference(index_set)))
