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

from collections import Counter
from dataclasses import dataclass
from math import comb
from typing import Iterable

from .altset import WeylSweep, free_runs, run_sums
from .intervals import IndexSet, interval_partition, n_of_complement
from .partition import kostant_q_sum
from .poly import Q, QPolynomial
from .roots import RootVector
from .weyl import DEFAULT_BRUTE_CAP

# The route names, in the order ``qmult multiplicity`` and ``qmult bench`` run them.
METHODS = ("brute", "altset", "rank_reduction", "closed")


@dataclass(frozen=True)
class MultiplicityResult:
    """A computed multiplicity together with how much work it took.

    ``terms_evaluated`` counts the Weyl elements whose partition value the
    method accounts for: all (rank+1)! of them for brute force, exactly the
    alternation-set cardinality for the restricted sum.
    """

    value: QPolynomial
    method: str
    terms_evaluated: int


def signed_sum(rows: Iterable[tuple]) -> QPolynomial:
    """The sum of sign * P_q(xi) over the (perm, sign, xi) rows of a
    :class:`~qmult.altset.WeylSweep`, the signs of equal xi added first
    (:func:`~qmult.partition.kostant_q_sum`)."""
    weights: dict[tuple[int, ...], int] = {}
    for _, sign, xi in rows:
        weights[xi] = weights.get(xi, 0) + sign
    return kostant_q_sum(weights)


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
    adjacent, so n = runs(I^c) + sum over j in J of (g_j - 1).  Each free
    index j weighs B + g_j with B = 2 rank + 2, larger than any sum of the
    g_j, so the code of J, the sum of its weights, holds |J| = code // B and
    sum g_j = code % B.  J is chosen independently in each free run and
    codes add over the runs, so the tally is the product of the runs'
    tallies (codes add, counts multiply): :func:`~qmult.altset.run_sums`
    walks each run's codes once and ``Counter`` counts them at C speed.
    """
    r = index_set.rank
    base = 2 * r + 2
    # g_j = 2 - #({j-1, j+1} & I) for j in [2, r - 1]
    weight = [base + 2] * (r + 2)
    for m in index_set.members:
        weight[m - 1] -= 1
        weight[m + 1] -= 1
    runs = n_of_complement(index_set)
    *narrower, (lo, hi) = free_runs(index_set)
    tally = Counter(run_sums(weight[lo:hi + 1], 0))
    for a, b in narrower:
        product = Counter()
        for code, count in Counter(run_sums(weight[a:b + 1], 0)).items():
            for other, times in tally.items():
                product[code + other] += count * times
        tally = product
    return {(code // base, runs + code % base - code // base): count
            for code, count in tally.items()}


def m_q_altset(index_set: IndexSet) -> MultiplicityResult:
    """The signed sum over the alternation set only.

    Each element is the product of s_j over a nonconsecutive subset J of the
    free region, chosen run by run (:func:`~qmult.altset.free_runs`); its
    term has sign (-1)^|J| and shifted image alpha_{I^c} - alpha_J, an
    indicator vector whose partition value factors over its maximal runs as
    q(q+1)^(len-1).  With n runs of total length N = |I^c| - |J| the term is
    q^n (q+1)^(N-n).  Terms are tallied by (|J|, n) and expanded once per
    pair by the binomial theorem.  The tally keys each J by the sum of its
    weights B + g_j, B = 2 rank + 2 and g_j = #({j-1, j+1} & I^c); it walks
    each run's J once and multiplies the runs' tallies (:func:`_term_tally`),
    so the terms accounted for, exactly the alternation-set cardinality,
    cost a sum of Fibonacci numbers and ranks far beyond brute force stay cheap.
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
    """m_q at mu = alpha_I: (q - 1)^(n-1) q^(rank - |I| - n + 1), n = runs of I."""
    n = len(interval_partition(index_set))
    exponent = index_set.rank - len(index_set) - n + 1
    return (Q - 1) ** (n - 1) * QPolynomial.monomial(exponent)


def m_q_rank_reduction(index_set: IndexSet) -> QPolynomial:
    """m_q at mu = alpha_I as a product of lower-rank multiplicities.

    Each stretch of the complement of I contributes one factor: a leading
    q^(i_1 - 1) when 1 is missing from I, a factor q^g - q^(g-1) per
    interior gap of width g, and a trailing q^(rank - j_n) when rank is
    missing.
    """
    runs = interval_partition(index_set)
    out = QPolynomial.monomial(runs[0][0] - 1 + index_set.rank - runs[-1][1])
    for (_, j_x), (i_next, _) in zip(runs, runs[1:]):
        gap = i_next - j_x - 1
        out = out * (QPolynomial.monomial(gap) - QPolynomial.monomial(gap - 1))
    return out

