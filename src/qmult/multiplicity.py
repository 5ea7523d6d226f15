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

from dataclasses import dataclass
from math import comb

from .altset import WeylSweep, alternation_walk
from .intervals import IndexSet, interval_partition
from .partition import kostant_q_coeffs
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


def m_q_brute(
    lam: RootVector, mu: RootVector, cap: int = DEFAULT_BRUTE_CAP
) -> MultiplicityResult:
    """The signed sum over the whole Weyl group, for arbitrary lam and mu.

    Sums the rows of a pruned :class:`~qmult.altset.WeylSweep`; the terms it
    prunes are zero, so this is the defining sum over all (rank+1)! elements.
    """
    sweep = WeylSweep(lam, mu, cap)
    acc = [0]
    for _, sign, xi in sweep:
        cs = kostant_q_coeffs(xi).coeffs
        if len(cs) > len(acc):
            acc.extend([0] * (len(cs) - len(acc)))
        if sign > 0:
            for k, c in enumerate(cs):
                acc[k] += c
        else:
            for k, c in enumerate(cs):
                acc[k] -= c
    return MultiplicityResult(QPolynomial(acc), "brute", sweep.accounted)


def m_q_altset(index_set: IndexSet) -> MultiplicityResult:
    """The signed sum over the alternation set only.

    Each element is the product of s_j over a nonconsecutive subset J of the
    free region (:func:`~qmult.altset.alternation_walk`); its term has
    sign (-1)^|J| and shifted image alpha_{I^c} - alpha_J, an indicator
    vector whose partition value factors over its maximal runs as
    q(q+1)^(len-1).  With n runs of total length N = |I^c| - |J|, which the
    walk yields with J, the term is q^n (q+1)^(N-n).  Every J is still
    enumerated and counted, but terms are tallied by (|J|, n) and expanded
    once per pair by the binomial theorem.  The number of terms is exactly
    the alternation-set cardinality, so ranks far beyond brute-force reach
    stay cheap.
    """
    r = index_set.rank
    tally: dict[tuple[int, int], int] = {}
    for chosen, n in alternation_walk(index_set):
        key = len(chosen), n
        tally[key] = tally.get(key, 0) + 1
    acc = [0] * (r + 1)
    for (size, n), count in tally.items():
        if size & 1:
            count = -count
        m = r - len(index_set) - size - n
        for k in range(m + 1):
            acc[n + k] += count * comb(m, k)
    return MultiplicityResult(QPolynomial(acc), "altset", sum(tally.values()))


def m_q_closed_zero(rank: int) -> QPolynomial:
    """m_q at mu = 0: the sum q + q^2 + ... + q^rank."""
    if rank < 1:
        raise ValueError("rank must be at least 1")
    return QPolynomial([0] + [1] * rank)


def m_q_closed_positive_root(rank: int, i: int, j: int) -> QPolynomial:
    """m_q at mu = alpha_i + ... + alpha_j: the monomial q^(rank - j + i - 1)."""
    if not 1 <= i <= j <= rank:
        raise ValueError(f"need 1 <= i <= j <= rank, got ({i}, {j}, {rank})")
    return QPolynomial.monomial(rank - j + i - 1)


def m_q_closed_two_intervals(rank: int, i: int, j: int) -> QPolynomial:
    """m_q at mu = alpha_{1..i} + alpha_{i+j+1..rank}: equals q^j - q^(j-1).

    Valid for i in [rank - 2] and j in [rank - i - 1], i.e. two runs hugging
    both endpoints with a gap of j >= 1 in between.
    """
    if rank < 3 or not 1 <= i <= rank - 2 or not 1 <= j <= rank - i - 1:
        raise ValueError(f"need i in [rank-2], j in [rank-i-1], got ({i}, {j}, {rank})")
    return QPolynomial.monomial(j) - QPolynomial.monomial(j - 1)


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


def m_classical(index_set: IndexSet) -> int:
    """The ordinary multiplicity m(theta, alpha_I): the q-multiplicity at q = 1.

    Nonzero (equal to 1) exactly when I is a single run.
    """
    return m_q_closed_general(index_set).eval_at_one()
