"""Weight q-multiplicities of the highest root in type A.

The q-multiplicity m_q(lam, mu) is the signed Weyl sum of q-analog
partition values at sigma(lam + rho) - rho - mu.  For lam the highest root
and mu = alpha_I (a sum of distinct simple roots) four independent routes
are implemented:

* ``m_q_brute``        -- the full signed sum over all (rank+1)! elements,
                          skipping prefixes whose terms are all zero;
* ``m_q_altset``       -- the same sum restricted to the alternation set,
                          which has Fibonacci-product many terms;
* ``m_q_rank_reduction`` -- a product of lower-rank multiplicities, one
                          factor per stretch of the complement of I;
* ``m_q_closed_general`` -- the closed form (q-1)^(n-1) q^(rank-|I|-n+1)
                          with n the number of runs of I.

Their agreement is the package's central cross-check.
"""

from __future__ import annotations

from collections.abc import Iterable
from math import comb

from .altset import WeylSweep
from .intervals import IndexSet, interval_partition, n_of_complement
from .partition import _divide
from .poly import QPolynomial
from .roots import RootVector, _Frozen
from .weyl import DEFAULT_BRUTE_CAP

# The route names, in the order ``qmult multiplicity`` and ``qmult bench`` run them.
METHODS = ("brute", "altset", "rank_reduction", "closed")


class MultiplicityResult(_Frozen):
    """A computed multiplicity together with how much work it took.

    ``terms_evaluated`` counts the Weyl elements whose partition value the
    method accounts for: all (rank+1)! of them for brute force, exactly the
    alternation-set cardinality for the restricted sum.
    """

    _fields = ("value", "method", "terms_evaluated")

    def __init__(self, value: QPolynomial, method: str, terms_evaluated: int):
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "method", method)
        object.__setattr__(self, "terms_evaluated", terms_evaluated)


def signed_sum(rows: Iterable[tuple]) -> QPolynomial:
    """The sum of sign * P_q(xi) over the (perm, sign, xi) rows of a
    :class:`~qmult.altset.WeylSweep`, the signs of equal xi added first.
    ``qmult.partition._divide`` takes them unchecked: a sweep's xi are
    nonnegative and of one length."""
    weights: dict[tuple[int, ...], int] = {}
    for _, sign, xi in rows:
        weights[xi] = weights.get(xi, 0) + sign
    return _divide(weights)


def m_q_brute(
    lam: RootVector, mu: RootVector, cap: int = DEFAULT_BRUTE_CAP
) -> MultiplicityResult:
    """The signed sum over the whole Weyl group, for arbitrary lam and mu.

    Sums the rows of a pruned :class:`~qmult.altset.WeylSweep`; the terms it
    prunes are zero, so this is the defining sum over all (rank+1)! elements.
    Each row's xi >= 0 is sum xi_i alpha_i, with partition count at least 1,
    so the rows' elements are exactly :func:`~qmult.altset.alt_set_brute`.
    """
    sweep = WeylSweep(lam, mu, cap)
    return MultiplicityResult(signed_sum(sweep), "brute", sweep.accounted)


def _term_tally(index_set: IndexSet) -> dict[tuple[int, int], int]:
    """How many alternation-set elements have each (|J|, n), n the number of
    maximal runs of I^c minus J.

    Removing j from I^c splits, shortens or deletes its run as
    g_j = #({j-1, j+1} & I^c) is 2, 1 or 0, and no two members of J are
    adjacent, so n = runs(I^c) + sum over j in J of (g_j - 1).  Let T_j
    tally the J within [2, j], T_1 = T_0 = {(0, runs(I^c)): 1}.  A J either
    skips j, or takes a free j and nothing of j - 1, so going along the strip
    T_j = T_{j-1} + [j free] T_{j-2} moved by (1, g_j - 1), the Fibonacci
    recurrence of the alternation set's size, and T_{rank-1} is the tally.
    Each step touches O(rank^2) keys, however many elements they count.
    """
    picked = set(index_set.members)
    older = tally = {(0, n_of_complement(index_set)): 1}
    for j in range(2, index_set.rank):
        if j in picked:
            older = tally
            continue
        split = 1 - (j - 1 in picked) - (j + 1 in picked)
        grown = tally.copy()
        for (size, n), count in older.items():
            key = (size + 1, n + split)
            grown[key] = grown.get(key, 0) + count
        older, tally = tally, grown
    return tally


def m_q_altset(index_set: IndexSet) -> MultiplicityResult:
    """The signed sum over the alternation set only.

    Each element is the product of s_j over a nonconsecutive subset J of the
    free region, [2, rank - 1] minus I; its term has sign (-1)^|J| and
    shifted image alpha_{I^c} - alpha_J, an indicator vector whose partition
    value factors over its maximal runs as q(q+1)^(len-1).  With n runs of
    total length N = |I^c| - |J| the term is q^n (q+1)^(N-n).  Terms are
    tallied by (|J|, n) in one scan of the strip (:func:`_term_tally`) and
    expanded once per pair by the binomial theorem, so the terms accounted
    for, exactly the alternation-set cardinality, cost O(rank^3) and ranks
    far beyond brute force stay cheap.
    """
    r = index_set.rank
    free = r - len(index_set)
    tally = _term_tally(index_set)
    acc = [0] * (r + 1)
    for (size, n), count in tally.items():
        if size & 1:
            count = -count
        m = free - size - n
        for k in range(m + 1):
            acc[n + k] += count * comb(m, k)
    return MultiplicityResult(QPolynomial(acc), "altset", sum(tally.values()))


def m_q_closed_zero(rank: int) -> QPolynomial:
    """m_q at mu = 0: the sum q + q^2 + ... + q^rank."""
    if rank < 1:
        raise ValueError("rank must be at least 1")
    return QPolynomial([0] + [1] * rank)


def m_q_closed_general(index_set: IndexSet) -> QPolynomial:
    """m_q at mu = alpha_I: (q - 1)^(n-1) q^(rank - |I| - n + 1), n = runs of I,
    written out by the binomial theorem: (-1)^(n-1-k) C(n-1, k) at q^(rank - |I| - n + 1 + k)."""
    n = len(interval_partition(index_set))
    exponent = index_set.rank - len(index_set) - n + 1
    return QPolynomial([0] * exponent + [(-1) ** (n - 1 - k) * comb(n - 1, k) for k in range(n)])


def m_q_rank_reduction(index_set: IndexSet) -> QPolynomial:
    """m_q at mu = alpha_I as a product of lower-rank multiplicities.

    Each stretch of the complement of I contributes one factor: a leading
    q^(i_1 - 1) when 1 is missing from I, a factor q^g - q^(g-1) per
    interior gap of width g, and a trailing q^(rank - j_n) when rank is
    missing.  The powers of q add up, and each gap's q - 1 is one difference
    pass over one coefficient list.
    """
    runs = interval_partition(index_set)
    power, coeffs = runs[0][0] - 1 + index_set.rank - runs[-1][1], [1]
    for (_, j_x), (i_next, _) in zip(runs, runs[1:]):
        power += i_next - j_x - 2  # q^(g-1), g the gap's width
        coeffs = [below - c for c, below in zip(coeffs + [0], [0] + coeffs)]
    return QPolynomial([0] * power + coeffs)

