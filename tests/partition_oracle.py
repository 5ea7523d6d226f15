"""Earlier partition DPs, kept as oracles for ``qmult.partition``.

``kostant_q_by_rank`` is how ``qmult.partition`` worked before it had one
memo for every rank: each rank has its own table, memoized on (remaining
vector, index of the next positive root in lexicographic order), and zeros
at either end of the vector are part of the key.  It branches on the number
of copies of a root the way the shared memo does, but over other keys, so
it is an independent check at weights beyond ``kostant_q_oracle``'s cap.

``kostant_q_shared`` is the shared-memo DP as it was before it forced the
last root at slot 0, looked children up in the memo before calling them and
read all copies but the first from a sibling already in the memo: the same
keys and values, reached by calling ``_solve`` for every copy.  Its
``_solve`` is kept unchanged, with its own ``_MEMO``.

``kostant_q_sibling`` is the memo DP as ``qmult.partition`` ran it before the
division pass: ``kostant_q_shared`` with the last root at slot 0 forced, the
memo probed before a child is called, and every copy but the first read
from a sibling already in the memo.  Its ``_sibling_solve`` and
``_SIBLING_MEMO`` are the library's ``_solve`` and ``_MEMO`` unchanged but
for their names.

``kostant_q_sum_tuples`` is the division pass as ``qmult.partition`` ran it
before its weights were packed at q = 2^K: each weight is a bare coefficient
tuple, summed by ``add_coeffs``, and a state that leaves adds weight times
value to the total by ``add_product``.  It is the library's
``kostant_q_sum`` of that time (the pass is ``_divide`` now) unchanged but
for its name and for reading the answer cache and ``_strip`` through the
``qmult.partition`` module, so that a cache a test patches there is the one
both passes read.  ``add_coeffs`` and
``add_product`` are the two ``qmult.poly`` kernels it called, unchanged;
the library has since folded them into ``QPolynomial.__add__`` and
``__mul__``.

``kostant_q_sum_states`` is the packed division pass as ``qmult.partition``
ran it before a round grouped its states by their tail xi[1:]: each state
is its own dict entry, and every root of a round costs every state a
``min``, a rebuilt tuple and a dict entry on its line.  It is the library's
``kostant_q_sum`` of that time unchanged but for its name and for reading
the answer cache and ``_strip`` through the ``qmult.partition`` module, as
``kostant_q_sum_tuples`` does.

``kostant_q_sum_lists`` is the division pass as ``qmult.partition`` ran it
before its full-width root built a tail's states by one zip of
per-coordinate ranges and its middle roots went level by level: each entry
(c, t) of a tail's list becomes its state t - c by its own
``tuple(map(sub, t, repeat(c)))``, and each middle root walks the lines of
tails from their tops.  It is the library's ``kostant_q_sum`` of that time,
with its helper ``_keep``, unchanged but for its name and for reading the
answer cache and ``_strip`` through the ``qmult.partition`` module, as the
two passes above do.
"""

from functools import lru_cache
from itertools import accumulate, count, islice, repeat
from math import comb
from operator import add, lshift, sub
from typing import Mapping, Sequence

from poly_helpers import Poly
from qmult import partition
from qmult.poly import ONE, ZERO, QPolynomial, pack, unpack


def shift(p: QPolynomial, power: int) -> QPolynomial:
    """Multiply by q**power without a full convolution."""
    if power < 0:
        raise ValueError("power must be nonnegative")
    if not p.coeffs:
        return ZERO
    return QPolynomial((0,) * power + p.coeffs)


class RankTable:
    """The q-analog partition function at one rank, with its own memo."""

    def __init__(self, rank: int):
        self.rank = rank
        # inclusive 0-based (start, end) of each positive root, lexicographic
        self._supports = tuple((i, j) for i in range(rank) for j in range(i, rank))
        self._memo: dict[tuple[tuple[int, ...], int], QPolynomial] = {}

    def kostant_q_coeffs(self, coeffs) -> QPolynomial:
        cs = tuple(coeffs)
        if len(cs) != self.rank:
            raise ValueError(f"expected {self.rank} coefficients, got {len(cs)}")
        if any(c < 0 for c in cs):
            return ZERO
        return self._solve(cs, 0)

    def _solve(self, rem: tuple[int, ...], idx: int) -> QPolynomial:
        # rem is componentwise nonnegative here.
        rank = self.rank
        p = 0
        while p < rank and rem[p] == 0:
            p += 1
        if p == rank:
            return ONE
        supports = self._supports
        n = len(supports)
        # Roots starting before p are unusable (their first slot is already
        # zero); if none starts exactly at p, slot p can never be cleared.
        while idx < n and supports[idx][0] < p:
            idx += 1
        if idx == n or supports[idx][0] > p:
            return ZERO
        key = (rem, idx)
        got = self._memo.get(key)
        if got is not None:
            return got
        a, b = supports[idx]
        total = self._solve(rem, idx + 1)
        cur = list(rem)
        copies = 0
        while all(cur[t] > 0 for t in range(a, b + 1)):
            for t in range(a, b + 1):
                cur[t] -= 1
            copies += 1
            sub = self._solve(tuple(cur), idx + 1)
            if sub.coeffs:
                total = total + shift(sub, copies)
        self._memo[key] = total
        return total


rank_table = lru_cache(maxsize=None)(RankTable)


def kostant_q_by_rank(coeffs) -> Poly:
    """The q-analog at coeffs, from the table of rank len(coeffs), as a
    ``Poly`` that the tests can scale and subtract."""
    return Poly(rank_table(len(coeffs)).kostant_q_coeffs(coeffs).coeffs)


# (xi, shortest) -> _solve(xi, shortest), with xi stripped of its leading
# and trailing zeros.
_MEMO: dict[tuple[tuple[int, ...], int], QPolynomial] = {}


def _solve(xi: tuple[int, ...], shortest: int) -> QPolynomial:
    """The q-analog at a nonnegative xi, counting only the multisets whose
    roots starting at slot 0 are at least ``shortest`` slots long.

    Roots are taken in lexicographic order: every copy of the root of
    length ``shortest`` at slot 0 is placed before the longer ones, and a
    root at a later slot only once slot 0 is cleared, when the bound starts
    over at 1.  So the recursion is at most one level deep per root.
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
    if shortest > hi - lo:
        return ZERO  # slot 0 can never be cleared
    key = (xi, shortest)
    got = _MEMO.get(key)
    if got is not None:
        return got
    # Each root adds at least 1 to sum(xi), so no term exceeds q^sum(xi).
    acc = [0] * (sum(xi) + 1)
    head, tail = xi[:shortest], xi[shortest:]
    for copies in range(min(head) + 1):
        rest = tuple(c - copies for c in head) + tail if copies else xi
        sub = _solve(rest, shortest + 1)
        for k, c in enumerate(sub.coeffs, copies):
            acc[k] += c
    total = _MEMO[key] = QPolynomial(acc)
    return total


def kostant_q_shared(coeffs) -> QPolynomial:
    """The q-analog at coeffs, from the predecessor of the shared-memo DP."""
    cs = tuple(coeffs)
    return ZERO if min(cs, default=0) < 0 else _solve(cs, 1)


# (xi, shortest) -> _sibling_solve(xi, shortest), with xi stripped of its leading
# and trailing zeros.
_SIBLING_MEMO: dict[tuple[tuple[int, ...], int], QPolynomial] = {}


def _sibling_solve(xi: tuple[int, ...], shortest: int) -> QPolynomial:
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
    got = _SIBLING_MEMO.get(key)
    if got is not None:
        return got
    first = xi[0]
    if shortest == width:
        # Only the full-width root is left to clear slot 0, so it is used
        # exactly xi[0] times, which needs xi[0] = min(xi).
        if first == min(xi):
            total = shift(_sibling_solve(tuple(map(sub, xi, repeat(first))), 1), first)
        else:
            total = ZERO
    else:
        head, tail = xi[:shortest], xi[shortest:]
        longer = shortest + 1
        most = min(head)
        # The sibling, xi less one copy of the current root, sums copies 1..
        # of this loop, shifted down by one; xi[0] > 1 keeps it stripped.
        sibling = (_SIBLING_MEMO.get((tuple(map(sub, head, repeat(1))) + tail, shortest))
                   if most and first > 1 else None)
        if sibling is not None:
            got = _SIBLING_MEMO.get((xi, longer))
            total = (got if got is not None else _sibling_solve(xi, longer)) + shift(sibling, 1)
        else:
            # Each root adds at least 1 to sum(xi), so no term exceeds q^sum(xi).
            acc = [0] * (sum(xi) + 1)
            for copies in range(most + 1):
                rest = tuple(map(sub, head, repeat(copies))) + tail if copies else xi
                # While rest[0] > 0, rest is stripped already: its last slot is xi's.
                got = _SIBLING_MEMO.get((rest, longer)) if copies < first else None
                child = (got if got is not None else _sibling_solve(rest, longer)).coeffs
                end = copies + len(child)
                acc[copies:end] = map(add, acc[copies:end], child)
            total = QPolynomial(acc)
    _SIBLING_MEMO[key] = total
    return total


def kostant_q_sibling(coeffs) -> QPolynomial:
    """The q-analog at coeffs, from the sibling-reuse memo DP the division
    pass replaced."""
    cs = tuple(coeffs)
    return ZERO if min(cs, default=0) < 0 else _sibling_solve(cs, 1)


def add_coeffs(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The sum of two coefficient tuples, untrimmed."""
    if len(a) < len(b):
        a, b = b, a
    return (*map(add, a, b), *a[len(b):])


def add_product(acc: list[int], a: Sequence[int], b: Sequence[int], shift: int) -> None:
    """acc += q^shift * a * b, for coefficient sequences; acc grows as needed."""
    if len(acc) < shift + len(a) + len(b) - 1:
        acc.extend(repeat(0, shift + len(a) + len(b) - 1 - len(acc)))
    for i, x in enumerate(a, shift):
        if x:
            for j, y in enumerate(b, i):
                acc[j] += x * y


def kostant_q_sum_tuples(weights: Mapping[tuple[int, ...], int]) -> QPolynomial:
    """sum w * P_q(xi) over {xi: w}, all xi >= 0 and of one length, by the
    division pass of the module docstring; it only reads the answer cache."""
    total: list[int] = []
    # xi -> coefficient tuple of its weight, a polynomial in q, times q^shift
    states = {xi: (w,) for xi, w in weights.items() if w}
    shift = 0
    while states:
        width = len(next(iter(states)))
        # a cached state (the empty xi always is) leaves with its value
        held = {}
        for xi, w in states.items():
            got = partition._CACHE.get(partition._strip(xi))
            if got is None:
                held[xi] = w
            else:
                add_product(total, w, got.coeffs, shift)
        if not held:
            break
        # each weight gains q^xi[0]; the power all of them gain joins the shift
        base = min(xi[0] for xi in held)
        shift += base
        states = {xi: (0,) * (xi[0] - base) + w for xi, w in held.items()}
        after: dict[tuple[int, ...], tuple[int, ...]] = {}
        for length in range(1, width):
            # each line along the root on slots 0 .. length-1: lowest point -> {height: weight}
            lines: dict[tuple[int, ...], dict[int, tuple[int, ...]]] = {}
            for xi, w in states.items():
                if not xi[0]:  # no root is left to take at slot 0
                    after[xi[1:]] = add_coeffs(after.get(xi[1:], ()), w)
                    continue
                h = min(xi[:length])
                low = tuple(map(sub, xi[:length], repeat(h))) + xi[length:] if h else xi
                lines.setdefault(low, {})[h] = w
            states = {}
            for low, points in lines.items():
                room = low[length] - low[0]  # the highest point with y[0] <= y[length]
                acc = ()
                for c in range(max(points), -1, -1):
                    w = points.get(c)
                    if w is not None:
                        acc = add_coeffs(acc, w)
                        live = any(acc)
                    if live and c <= room:
                        states[tuple(map(add, low[:length], repeat(c))) + low[length:]
                               if c else low] = acc
        # the full-width root takes what is left at slot 0, xi[0] <= min(xi)
        for xi, w in states.items():
            rest = tuple(map(sub, xi[1:], repeat(xi[0]))) if xi[0] else xi[1:]
            after[rest] = add_coeffs(after.get(rest, ()), w)
        states = {xi: w for xi, w in after.items() if any(w)}
    return QPolynomial(total)


def kostant_q_sum_states(weights: Mapping[tuple[int, ...], int]) -> QPolynomial:
    """sum w * P_q(xi) over {xi: w}, all xi >= 0 and of one length, by the
    division pass of the module docstring; it only reads the answer cache.

    Weights are packed at q = 2^K (``poly.pack``); a state that leaves adds
    weight times its packed value to one packed total, unpacked at the end.
    K must keep every coefficient strictly inside +-2^(K-1):
    - With one input xi of weight 1, each coefficient of a state's weight
      counts distinct multisets of the roots taken so far: each root's
      copies are chosen once, in a fixed order, and the q^xi[0] a round's
      weights gain only sets their degree.  A line sum is a state's weight;
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
        # a cached state (the empty xi always is) leaves with its value
        held = {}
        hits = 0
        for xi, w in states.items():
            key = partition._strip(xi)
            got = partition._CACHE.get(key)
            if got is None:
                held[xi] = w
                continue
            value = packed.get(key)
            if value is None:
                value = packed[key] = pack(got.coeffs, K)
            hits += w * value
        if hits:
            total += hits << (shift * K)
        if not held:
            break
        # each weight gains q^xi[0]; the power all of them gain joins the shift
        base = min(xi[0] for xi in held)
        shift += base
        states = {xi: w << ((xi[0] - base) * K) for xi, w in held.items()}
        after: dict[tuple[int, ...], int] = {}
        for length in range(1, width):
            # each line along the root on slots 0 .. length-1: lowest point -> {height: weight}
            lines: dict[tuple[int, ...], dict[int, int]] = {}
            for xi, w in states.items():
                if not xi[0]:  # no root is left to take at slot 0
                    after[xi[1:]] = after.get(xi[1:], 0) + w
                    continue
                h = min(xi[:length])
                low = tuple(map(sub, xi[:length], repeat(h))) + xi[length:] if h else xi
                lines.setdefault(low, {})[h] = w
            states = {}
            for low, points in lines.items():
                room = low[length] - low[0]  # the highest point with y[0] <= y[length]
                acc = 0
                for c in range(max(points), -1, -1):
                    w = points.get(c)
                    if w is not None:
                        acc += w
                    if acc and c <= room:
                        states[tuple(map(add, low[:length], repeat(c))) + low[length:]
                               if c else low] = acc
        # the full-width root takes what is left at slot 0, xi[0] <= min(xi)
        for xi, w in states.items():
            rest = tuple(map(sub, xi[1:], repeat(xi[0]))) if xi[0] else xi[1:]
            after[rest] = after.get(rest, 0) + w
        states = {xi: w for xi, w in after.items() if w}
    return QPolynomial(unpack(total, K))


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


def kostant_q_sum_lists(weights: Mapping[tuple[int, ...], int]) -> QPolynomial:
    """sum w * P_q(xi) over {xi: w}, all xi >= 0 and of one length, by the
    division pass of the module docstring; it only reads the answer cache.

    A round keeps the states it divides in one list per tail xi[1:],
    indexed by xi[0]: the root on slot 0 turns each list into its suffix
    sums, each longer root adds the list of the tail above on its line,
    shifted by one place, and every list stored is cut at the room and
    trimmed of trailing zeros.

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
            key = xi if xi and xi[0] and xi[-1] else partition._strip(xi)  # no call if no zero ends
            got = partition._CACHE.get(key)
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
            # the root on slots 0 .. k: along r' = 1 on tail slots 0 .. k-1,
            # W'[t] = W[t] + W'[t + r'][1:], walked down each line from its top
            lines: dict[tuple[int, ...], list[tuple]] = {}
            for t, lst in tails.items():
                h = min(t[:k])
                low = tuple(map(sub, t[:k], repeat(h))) + t[k:] if h else t
                points = lines.get(low)
                if points is None:
                    lines[low] = [(h, t, lst)]
                else:
                    points.append((h, t, lst))
            tails = {}
            while lines:
                low, points = lines.popitem()
                room = low[k] + 1  # c <= t[k], the same all along the line
                if len(points) > 1:
                    points.sort(reverse=True)
                points.append((-1, None, None))
                carried: list[int] = []
                for (h, t, lst), (below, _, _) in zip(points, points[1:]):
                    if carried:
                        a, b = (lst, carried) if len(lst) >= len(carried) else (carried, lst)
                        carried = list(map(add, a, b)) + a[len(b):]
                        while carried and not carried[-1]:  # signed weights cancel
                            carried.pop()
                    else:
                        carried = lst
                    _keep(tails, after, t, carried, room)
                    carried = carried[1:]
                    # the points down to the next one hold what is carried
                    g = h - 1
                    while carried and g > below:
                        point = tuple(map(add, low[:k], repeat(g))) + low[k:] if g else low
                        _keep(tails, after, point, carried, room)
                        carried = carried[1:]
                        g -= 1
        # the full-width root takes what is left at slot 0: (c, t) goes to
        # t - c, c <= min(t)
        while tails:
            t, lst = tails.popitem()
            for c, w in enumerate(lst):
                if w:
                    rest = tuple(map(sub, t, repeat(c))) if c else t
                    after[rest] = after.get(rest, 0) + w
        states = after
    return QPolynomial(unpack(total, K))
