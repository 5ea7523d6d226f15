"""Kostant's partition function for A_rank and its q-analog.

The q-analog of the partition function sends a vector xi (over the
simple-root basis) to the polynomial sum_i c_i q^i where c_i counts the
multisets of exactly i positive roots with sum xi.  Setting q = 1 gives the
plain partition count.  By convention the value is 1 at xi = 0 and 0
whenever any coefficient of xi is negative.

Two independent evaluators are provided.  ``kostant_q`` runs a memoized
recursion over the positive roots in lexicographic (i, j) order, branching
on how many copies of the current root are used.  ``kostant_q_oracle``
enumerates the contributing multisets one root at a time with no shared
state, and exists purely to cross-check the recursion on small inputs.

The recursion has one memo for every rank.  No positive root covers a slot
where xi is zero at an end of xi, so the value depends only on xi with its
leading and trailing zeros stripped: (1, 1, 0) at rank 3 and (0, 1, 1, 0, 0)
at rank 5 share one entry.  ``PartitionTable`` and ``table_for``, a
rank-checking view of that memo with no values of their own, remain only
for the benchmark's checks in ``perfbench/``, until the benchmark moves off
them and they are deleted.

The recursion makes only the calls that can contribute.  Once the
full-width root is the only one left at slot 0, it is forced: it must be
used exactly xi[0] times, so that entry recurses once, on xi - xi[0], when
xi[0] = min(xi), and is zero otherwise.  A child whose slot 0 stays nonzero
is already stripped, so the parent looks its key up in the memo and calls
``_solve`` only on a miss.

An entry that branches on the copies of the root r covering slots
0 .. s-1 has a sibling, (xi - r, s): its copies are the entry's copies
from the second on, so entry = child with no copy + q * sibling.  When
xi is nonzero on all of r and xi[0] > 1, the sibling is stripped already,
and if its key is in the memo, that sum replaces the loop over every
copy.  The sibling is only looked up, never computed: every child it
stands for went into the memo with it, so the memo holds the same keys
and values as without the reuse.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import repeat
from operator import add, sub
from typing import Sequence

from .intervals import IndexSet, interval_partition
from .poly import ONE, ZERO, QPolynomial
from .roots import RootVector, positive_root
from .weyl import CapExceededError

# The oracle enumerates every multiset explicitly, so it refuses a
# nonnegative xi whose coefficients sum beyond this.
DEFAULT_ORACLE_CAP = 20

# (xi, shortest) -> _solve(xi, shortest), with xi stripped of its leading
# and trailing zeros.
_MEMO: dict[tuple[tuple[int, ...], int], QPolynomial] = {}


def _root_supports(rank: int) -> tuple[tuple[int, int], ...]:
    """Inclusive 0-based support (start, end) of each positive root, in
    lexicographic order: alpha_{i,j} covers positions i-1 .. j-1."""
    return tuple((i, j) for i in range(rank) for j in range(i, rank))


def _solve(xi: tuple[int, ...], shortest: int) -> QPolynomial:
    """The q-analog at a nonnegative xi, counting only the multisets whose
    roots starting at slot 0 are at least ``shortest`` slots long.

    Roots are taken in lexicographic order: every copy of the root of
    length ``shortest`` at slot 0 is placed before the longer ones, and a
    root at a later slot only once slot 0 is cleared, when the bound starts
    over at 1.  So the recursion is at most one level deep per root.

    Only calls that can contribute are made: the last root at slot 0 is
    forced, and a child that needs no stripping is looked up in the memo
    before it is called.  A sibling (xi - r, shortest) found in the memo
    stands for every copy but the first: the value is then the child with
    no copy plus q times the sibling, and no new key is made.
    """
    lo, hi = 0, len(xi)
    while lo < hi and not xi[lo]:
        lo += 1
    if lo == hi:
        return ONE
    if lo:
        shortest = 1  # no root starts at slot 0, so none is spent at the first nonzero one
    while not xi[hi - 1]:
        hi -= 1
    xi = xi[lo:hi]
    width = hi - lo
    if shortest > width:
        return ZERO  # slot 0 can never be cleared
    key = (xi, shortest)
    got = _MEMO.get(key)
    if got is not None:
        return got
    first = xi[0]
    if shortest == width:
        # Only the full-width root is left to clear slot 0, so it is used
        # exactly xi[0] times, which needs xi[0] = min(xi).
        if first == min(xi):
            total = _solve(tuple(map(sub, xi, repeat(first))), 1).shift(first)
        else:
            total = ZERO
    else:
        head, tail = xi[:shortest], xi[shortest:]
        longer = shortest + 1
        most = min(head)
        # The sibling, xi less one copy of the current root, sums copies 1..
        # of this loop, shifted down by one; xi[0] > 1 keeps it stripped.
        sibling = (_MEMO.get((tuple(map(sub, head, repeat(1))) + tail, shortest))
                   if most and first > 1 else None)
        if sibling is not None:
            got = _MEMO.get((xi, longer))
            total = (got if got is not None else _solve(xi, longer)) + sibling.shift(1)
        else:
            # Each root adds at least 1 to sum(xi), so no term exceeds q^sum(xi).
            acc = [0] * (sum(xi) + 1)
            for copies in range(most + 1):
                rest = tuple(map(sub, head, repeat(copies))) + tail if copies else xi
                # While rest[0] > 0, rest is stripped already: its last slot is xi's.
                got = _MEMO.get((rest, longer)) if copies < first else None
                child = (got if got is not None else _solve(rest, longer)).coeffs
                end = copies + len(child)
                acc[copies:end] = map(add, acc[copies:end], child)
            total = QPolynomial(acc)
    _MEMO[key] = total
    return total


def kostant_q_coeffs(coeffs: Sequence[int]) -> QPolynomial:
    """The q-analog at xi given by its coefficient tuple, of any rank."""
    cs = tuple(coeffs)
    return ZERO if min(cs, default=0) < 0 else _solve(cs, 1)


def kostant_q(xi: RootVector) -> QPolynomial:
    """The q-analog partition function, via the shared memo."""
    return kostant_q_coeffs(xi.coeffs)


class PartitionTable:
    """A rank-checking view of the shared memo; it stores nothing itself."""

    def __init__(self, rank: int):
        if rank < 1:
            raise ValueError("rank must be at least 1")
        self.rank = rank

    def kostant_q(self, xi: RootVector) -> QPolynomial:
        """The q-analog partition function of xi, which must have this rank."""
        if xi.rank != self.rank:
            raise ValueError(f"expected {self.rank} coefficients, got {xi.rank}")
        return kostant_q_coeffs(xi.coeffs)


table_for = lru_cache(maxsize=None)(PartitionTable)


def kostant_q_oracle(xi: RootVector, cap: int = DEFAULT_ORACLE_CAP) -> QPolynomial:
    """Exhaustive cross-check: enumerate the multisets one root at a time.

    Each multiset is generated exactly once, as its sorted-by-(i, j) word;
    at every step the chosen root must start at the first nonzero slot of
    the remainder, which is forced for the sorted word.  No memoization and
    no polynomial arithmetic: counts are accumulated by multiset size.
    A negative coefficient gives zero at once; otherwise raises
    CapExceededError when sum(coeffs) exceeds the cap.
    """
    cs = xi.coeffs
    if any(c < 0 for c in cs):
        return ZERO
    weight = sum(cs)
    if weight > cap:
        raise CapExceededError(f"coefficient sum {weight} exceeds oracle cap {cap}")
    rank = xi.rank
    supports = _root_supports(rank)
    n = len(supports)
    counts = [0] * (weight + 1)

    def rec(rem: list[int], min_idx: int, used: int) -> None:
        p = 0
        while p < rank and rem[p] == 0:
            p += 1
        if p == rank:
            counts[used] += 1
            return
        t = min_idx
        while t < n and supports[t][0] < p:
            t += 1
        while t < n and supports[t][0] == p:
            a, b = supports[t]
            if all(rem[s] > 0 for s in range(a, b + 1)):
                for s in range(a, b + 1):
                    rem[s] -= 1
                rec(rem, t, used + 1)
                for s in range(a, b + 1):
                    rem[s] += 1
            t += 1

    rec(list(cs), 0, 0)
    return QPolynomial(counts)


def factorize_over_intervals(index_set: IndexSet) -> QPolynomial:
    """The q-analog at alpha_I computed run by run.

    The value at an indicator vector factors over the maximal runs of I,
    each factor being the q-analog of one run's interval root.  Matching
    this product against the single direct evaluation is one of the core
    cross-checks.
    """
    out = ONE
    for lo, hi in interval_partition(index_set):
        out = out * kostant_q(positive_root(lo, hi, index_set.rank))
    return out
