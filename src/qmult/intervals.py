"""Index sets I inside [1, rank] and their maximal-run decompositions.

A nonempty index set splits uniquely into maximal runs of consecutive
integers [i_1, j_1], ..., [i_n, j_n] with i_{x+1} >= j_x + 2.  These runs,
a plain tuple of (lo, hi) pairs, drive the closed-form multiplicities; the
Fibonacci counts of alternation sets read the neighbours of I in
``qmult.altset`` instead.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from operator import index

from .roots import RootVector, _Frozen


class IndexSet(_Frozen):
    """A subset of {1, ..., rank}, kept sorted and duplicate-free.

    The empty set is allowed; operations that need a nonempty set say so.
    """

    _fields = ("rank", "members")

    def __init__(self, rank: int, members: Iterable[int] = ()):
        rank = index(rank)
        if rank < 1:
            raise ValueError("rank must be at least 1")
        ms = tuple(sorted(set(map(index, members))))
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


def interval_partition(index_set: IndexSet) -> tuple[tuple[int, int], ...]:
    """The maximal runs of a nonempty index set, as inclusive (lo, hi) pairs.

    >>> interval_partition(IndexSet(8, [1, 2, 4, 7]))
    ((1, 2), (4, 4), (7, 7))
    """
    if index_set.is_empty():
        raise ValueError("interval partition of the empty set is undefined")
    runs: list[tuple[int, int]] = []
    for m in index_set.members:  # sorted and unique
        if runs and m == runs[-1][1] + 1:
            runs[-1] = (runs[-1][0], m)
        else:
            runs.append((m, m))
    return tuple(runs)


def n_of_complement(index_set: IndexSet) -> int:
    """Number of maximal runs of the complement of a nonempty index set.

    In terms of n = n(I): the value is n - 1 when both endpoints 1 and rank
    lie in I, n + 1 when neither does, and n when exactly one does.  The
    complement may be empty, in which case the count is 0.  It is counted
    directly, as the k of the complement with k = 1 or k - 1 in I, so that
    ``verify`` checks the relation above against an independent count.
    """
    if index_set.is_empty():
        raise ValueError("index set must be nonempty")
    members = set(index_set.members)
    return sum(k not in members and (k == 1 or k - 1 in members)
               for k in range(1, index_set.rank + 1))
