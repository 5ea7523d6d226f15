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
"""

from functools import lru_cache

from qmult.poly import ONE, ZERO, QPolynomial


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
                total = total + sub.shift(copies)
        self._memo[key] = total
        return total


rank_table = lru_cache(maxsize=None)(RankTable)


def kostant_q_by_rank(coeffs) -> QPolynomial:
    """The q-analog at coeffs, from the table of rank len(coeffs)."""
    return rank_table(len(coeffs)).kostant_q_coeffs(coeffs)


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
