"""Kostant's partition function for A_rank and its q-analog.

The q-analog of the partition function sends a vector xi (over the
simple-root basis) to the polynomial sum_i c_i q^i where c_i counts the
multisets of exactly i positive roots with sum xi.  Setting q = 1 gives the
plain partition count.  By convention the value is 1 at xi = 0 and 0
whenever any coefficient of xi is negative.

``kostant_q`` runs a division pass; ``kostant_q_oracle`` enumerates the
multisets one root at a time, to cross-check the pass on small inputs.  The
generating function is the product over the positive roots alpha of
1 / (1 - q e^alpha), so ``kostant_q_sum`` evaluates sum_xi w(xi) P_q(xi) by
dividing by those factors, clearing one slot of every state per round.  One
root of each length 1 .. L starts at slot 0, and every multiset with sum xi
holds xi[0] of them, so each weight is first multiplied by q^xi[0].  The
root r of each length l < L in turn maps the weights w to
w'(y) = w(y) + w'(y + r), summed down each line xi, xi - r, ... from its top.
Later roots cover slots 0 and l alike, so a point with y[0] > y[l] is
dropped at once: the full-width root, which takes what is left at slot 0,
needs y[0] <= min(y).

A round holds its states by their tail t = xi[1:], in one list W[t] of
weights indexed by c = xi[0], so each root costs a few list operations per
tail rather than per state:
- the root on slot 0 alone sums each list from its end (suffix sums) and
  cuts it at the room, c <= t[0];
- the root on slots 0 .. k, k >= 1, is (1, r') with r' = 1 on tail slots
  0 .. k-1, so W'[t] = W[t] + W'[t + r'][1:], one element-wise list add
  shifted by one in c.  It takes the tails level by level from the top,
  the level of t being min(t[:k]), and carries W'[t][1:] to t - r' one
  level down; the list stored at t is cut at c <= t[k], the one carried
  down stays whole;
- a list that holds only c = 0 has no root of the round left to take and
  leaves at once, as does a state with xi[0] = 0 on entry;
- the full-width root sends each entry (c, t) to the state t - c; one zip
  of the per-coordinate ranges t_i, t_i - 1, ... builds a tail's states,
  and at width 1 the whole list goes to the empty xi.
Trailing zeros are trimmed and all-zero lists dropped, which the brute
route's signed weights need: they cancel, and would leave most entries 0.
Weights are packed at q = 2^K (``poly.pack``), so two add as ints and a
factor q^c is ``<< c * K``; K comes from the bound sum |w| * C(m + N, N) on
every coefficient the pass holds, which ``_divide`` proves.

``kostant_q`` keeps one answer cache for every rank, one entry per query,
keyed by xi less the zeros at its ends, which no root covers: (1, 1, 0) at
rank 3 and (0, 1, 1, 0, 0) at rank 5 share one.  ``PartitionTable`` and
``table_for``, a rank-checking view of it, serve only ``perfbench/``'s checks.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import lru_cache
from itertools import accumulate, count, islice, repeat
from math import comb
from operator import add, lshift, sub

from .intervals import IndexSet, interval_partition
from .poly import ONE, ZERO, QPolynomial, pack, unpack
from .roots import RootVector, positive_root
from .weyl import CapExceededError

# The oracle enumerates every multiset explicitly, so it refuses a
# nonnegative xi whose coefficients sum beyond this.
DEFAULT_ORACLE_CAP = 20

# stripped xi -> its q-analog; the empty xi, whose value is 1, seeds it.
_CACHE: dict[tuple[int, ...], QPolynomial] = {(): ONE}


def _root_supports(rank: int) -> tuple[tuple[int, int], ...]:
    """Inclusive 0-based support (start, end) of each positive root, in
    lexicographic order: alpha_{i,j} covers positions i-1 .. j-1."""
    return tuple((i, j) for i in range(rank) for j in range(i, rank))


def _strip(xi: tuple[int, ...]) -> tuple[int, ...]:
    """xi without its leading and trailing zeros."""
    lo, hi = 0, len(xi)
    while lo < hi and not xi[lo]:
        lo += 1
    while hi > lo and not xi[hi - 1]:
        hi -= 1
    return xi[lo:hi]


def _keep(tails: dict, after: dict, t: tuple[int, ...], lst: list[int], room: int) -> None:
    """File the list of tail t under t, cut at the room, c < room, and
    trimmed; a list that holds only xi[0] = 0, where no root of the round is
    left to take, joins ``after`` at once.  Lists are shared, never changed:
    one that is not cut must come trimmed."""
    if len(lst) > room:
        lst = lst[:room]
    while lst and not lst[-1]:
        lst.pop()
    if len(lst) > 1:
        tails[t] = lst
    elif lst:
        after[t] = after.get(t, 0) + lst[0]


def kostant_q_sum(weights: Mapping[tuple[int, ...], int]) -> QPolynomial:
    """sum w * P_q(xi) over {xi: w} by ``_divide``: every xi must have one
    length, else ValueError, and one with a negative coordinate adds 0.  The
    package's callers build valid states and call ``_divide`` directly."""
    if len(set(map(len, weights))) > 1:
        raise ValueError("every xi must have the same length")
    return _divide({xi: w for xi, w in weights.items() if min(xi, default=0) >= 0})


def _divide(weights: Mapping[tuple[int, ...], int]) -> QPolynomial:
    """sum w * P_q(xi) over {xi: w}, all xi >= 0 and of one length, by the
    division pass of the module docstring; it only reads the answer cache.

    A round keeps the states it divides in one list per tail xi[1:],
    indexed by xi[0]: the root on slot 0 turns each list into its suffix
    sums, each longer root adds the list of the tail above on its line,
    shifted by one place, and every list stored is cut at the room and
    trimmed of trailing zeros; the full-width root zips per-coordinate
    ranges into the states t, t - 1, ... of tail t's list.

    Weights are packed at q = 2^K (``poly.pack``); a state that leaves adds
    weight times its packed value to one packed total, unpacked at the end.
    K must keep every coefficient strictly inside +-2^(K-1):
    - With one input xi of weight 1, each coefficient of a state's weight
      counts distinct multisets of the roots taken so far: each root's
      copies are chosen once, in a fixed order, and the q^xi[0] a round's
      weights gain only sets their degree.  Every entry of a tail's list is
      one state's weight, and so is every entry of a line sum, cut or not;
      a weight times a cached value, a round's hits and the total count
      multisets of all the roots with sum xi.
    - Each root adds at least 1 to the coordinate sum, so such a multiset
      has at most m roots, m the largest coordinate sum of an input xi, out
      of the N = r(r+1)/2 positive roots at r = len(xi): C(m + N, N) of them.
    - The pass is linear in the weights, so no coefficient exceeds
      sum |w| * C(m + N, N) in absolute value.  K is that bound's bit length
      plus a sign bit, so a packed weight is 0 exactly when the polynomial
      is, and the total unpacks exactly.
    """
    states = {xi: w for xi, w in weights.items() if w}
    if not states:
        return ZERO
    width = len(next(iter(states)))
    roots = width * (width + 1) // 2
    bound = sum(map(abs, states.values())) * comb(max(map(sum, states)) + roots, roots)
    K = bound.bit_length() + 1
    packed = {(): 1}  # stripped xi -> its cached value packed at K
    total = 0  # packed; each round's hits join it times q^shift
    shift = 0
    while states:
        width = len(next(iter(states)))
        # a cached state (the empty xi always is) leaves with its value, one
        # with xi[0] = 0 joins after at once, and the rest join the list of
        # their tail xi[1:], at xi[0]
        tails: dict[tuple[int, ...], list[int]] = {}
        after: dict[tuple[int, ...], int] = {}
        hits = 0
        base = None  # the least xi[0] of a state held
        for xi, w in states.items():
            if not w:
                continue
            key = xi if xi and xi[0] and xi[-1] else _strip(xi)  # no call if no zero ends
            got = _CACHE.get(key)
            if got is not None:
                value = packed.get(key)
                if value is None:
                    value = packed[key] = pack(got.coeffs, K)
                hits += w * value
                continue
            c, t = xi[0], xi[1:]
            if not c:
                after[t] = after.get(t, 0) + w
                base = 0
                continue
            lst = tails.get(t)
            if lst is None:
                lst = tails[t] = []
            if len(lst) <= c:
                lst.extend(repeat(0, c + 1 - len(lst)))
            lst[c] = w
            if base is None or c < base:
                base = c
        if hits:
            total += hits << (shift * K)
        if not tails:
            states = after
            continue
        states.clear()  # the round's weights now live in tails and after
        # each weight gains q^xi[0]; the power all of them gain joins the shift
        shift += base
        for lst in tails.values():
            lst[base:] = map(lshift, lst[base:], count(0, K))
        if width > 1:
            # the root on slot 0 alone: suffix sums, cut at c <= t[0]
            held, tails = tails, {}
            while held:  # popped, so that each list is freed once summed
                t, lst = held.popitem()
                suffix = map(sub, repeat(sum(lst)), accumulate(lst, initial=0))
                _keep(tails, after, t, list(islice(suffix, t[0] + 1)), t[0] + 1)
        for k in range(1, width - 1):
            if not tails:
                break
            # the root on slots 0 .. k: along r' = 1 on tail slots 0 .. k-1,
            # W'[t] = W[t] + W'[t + r'][1:], taken level by level from the
            # top, the level of t being h = min(t[:k]); t - r' is one level down
            step = (1,) * k + (0,) * (width - 1 - k)  # r'
            levels: dict[int, dict] = {}
            for t, lst in tails.items():
                h = min(t[:k])
                level = levels.get(h)
                if level is None:
                    levels[h] = {t: lst}
                else:
                    level[t] = lst
            tails = {}
            down: dict[tuple[int, ...], list[int]] = {}  # W'[t + r'][1:] by t
            for h in range(max(levels), -1, -1):
                level = levels.pop(h, None)
                if level is None:
                    level = down
                else:
                    for t, carried in down.items():
                        lst = level.get(t)
                        if lst is not None:
                            a, b = (lst, carried) if len(lst) >= len(carried) else (carried, lst)
                            carried = list(map(add, a, b)) + a[len(b):]
                            while carried and not carried[-1]:  # signed weights cancel
                                carried.pop()
                        level[t] = carried
                down = {}
                for t, lst in level.items():
                    if h and len(lst) > 1:
                        down[tuple(map(sub, t, step))] = lst[1:]
                    _keep(tails, after, t, lst, t[k] + 1)
        # the full-width root takes what is left at slot 0: (c, t) goes to
        # t - c, c <= min(t).  Tails are read top level first, as filed, so
        # a tail of the next round mostly meets its largest xi[0] first.
        if width == 1:
            after[()] = after.get((), 0) + sum(tails.pop(()))
        for t, lst in tails.items():
            n = len(lst)
            for rest, w in zip(zip(*[range(x, x - n, -1) for x in t]), lst):
                after[rest] = after.get(rest, 0) + w
        states = after
    return QPolynomial(unpack(total, K))


def kostant_q(xi: RootVector) -> QPolynomial:
    """The q-analog partition function, via the answer cache."""
    if min(xi.coeffs) < 0:
        return ZERO
    key = _strip(xi.coeffs)
    if key not in _CACHE:
        _CACHE[key] = _divide({key: 1})
    return _CACHE[key]


class PartitionTable:
    """A rank-checking view of the answer cache; it stores nothing itself."""

    def __init__(self, rank: int):
        if rank < 1:
            raise ValueError("rank must be at least 1")
        self.rank = rank

    def kostant_q(self, xi: RootVector) -> QPolynomial:
        """The q-analog partition function of xi, which must have this rank."""
        if xi.rank != self.rank:
            raise ValueError(f"expected {self.rank} coefficients, got {xi.rank}")
        return kostant_q(xi)


table_for = lru_cache(maxsize=None)(PartitionTable)


def kostant_q_oracle(xi: RootVector) -> QPolynomial:
    """Exhaustive cross-check: enumerate the multisets one root at a time.

    Each multiset is generated exactly once, as its sorted-by-(i, j) word;
    at every step the chosen root must start at the first nonzero slot of
    the remainder, which is forced for the sorted word.  No memoization and
    no polynomial arithmetic: counts are accumulated by multiset size.
    A negative coefficient gives zero at once; otherwise raises
    CapExceededError when sum(coeffs) exceeds ``DEFAULT_ORACLE_CAP``.
    """
    cs = xi.coeffs
    if any(c < 0 for c in cs):
        return ZERO
    weight = sum(cs)
    if weight > DEFAULT_ORACLE_CAP:
        raise CapExceededError(
            f"coefficient sum {weight} exceeds oracle cap {DEFAULT_ORACLE_CAP}")
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
