"""The run-by-run alternation-set enumerator, kept as an oracle for the walk.

This is how ``qmult.altset`` listed the index sets J before it had one
walk over the free indices: the nonconsecutive subsets of each maximal run
of the free region are enumerated recursively and then combined with
``itertools.product``.  It yields J only; the walk's run counts are checked
against ``maximal_runs`` directly.
"""

import itertools
from typing import Iterator

from qmult.intervals import IndexSet, maximal_runs


def nonconsecutive_subsets(lo: int, hi: int) -> Iterator[tuple[int, ...]]:
    """All subsets of {lo, ..., hi} with no two consecutive members.

    The interval may be empty (lo == hi + 1), giving just the empty subset;
    an interval of n integers yields fibonacci(n + 2) subsets.  Subsets come
    out as sorted tuples in a fixed deterministic order.
    """
    if lo > hi + 1:
        raise ValueError(f"invalid interval [{lo}, {hi}]")
    return _ncs(lo, hi)


def _ncs(lo: int, hi: int) -> Iterator[tuple[int, ...]]:
    if lo > hi:
        yield ()
        return
    yield from _ncs(lo + 1, hi)
    for rest in _ncs(lo + 2, hi):
        yield (lo,) + rest


def reflection_index_sets(index_set: IndexSet) -> Iterator[tuple[int, ...]]:
    """The index set J of each alternation-set element, sorted ascending.

    J is a nonconsecutive subset of the complement of I minus {1, rank},
    chosen independently within each maximal run of that free region, and
    the element is the product of s_j over J.  There are
    alt_set_cardinality(I) of them, the identity (J empty) first.
    """
    if index_set.is_empty():
        raise ValueError("index set must be nonempty")
    picked = set(index_set.members)
    free = maximal_runs(k for k in range(2, index_set.rank) if k not in picked)
    per_run = [tuple(nonconsecutive_subsets(lo, hi)) for lo, hi in free]
    for combo in itertools.product(*per_run):
        yield tuple(itertools.chain.from_iterable(combo))
