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

import itertools
from dataclasses import dataclass

from .altset import WeylSweep, _free_runs, nonconsecutive_subsets
from .intervals import IndexSet, interval_partition
from .partition import kostant_q_interval_closed_form, table_for
from .poly import ONE, Q, QPolynomial
from .roots import RootVector, highest_root, simple_root
from .weyl import DEFAULT_BRUTE_CAP

METHODS = ("brute", "altset", "rank_reduction", "closed")


@dataclass(frozen=True)
class MultiplicityResult:
    """A computed multiplicity together with how much work it took.

    ``terms_evaluated`` counts the Weyl elements whose partition value the
    method accounts for: all (rank+1)! of them for brute force, exactly the
    alternation-set cardinality for the restricted sum.
    """

    rank: int
    lam: RootVector
    mu: RootVector
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
    rank = lam.rank
    table = table_for(rank)
    acc = [0]
    for _, sign, xi in sweep:
        cs = table.kostant_q_coeffs(xi).coeffs
        if len(cs) > len(acc):
            acc.extend([0] * (len(cs) - len(acc)))
        if sign > 0:
            for k, c in enumerate(cs):
                acc[k] += c
        else:
            for k, c in enumerate(cs):
                acc[k] -= c
    return MultiplicityResult(
        rank=rank,
        lam=lam,
        mu=mu,
        value=QPolynomial(acc),
        method="brute",
        terms_evaluated=sweep.accounted,
    )


def m_q_altset(index_set: IndexSet) -> MultiplicityResult:
    """The signed sum over the alternation set only.

    Each element is a product of nonconsecutive reflections with indices in
    a subset J of the free region; its term has sign (-1)^|J| and shifted
    image alpha_{I^c} minus the chosen alphas, an indicator vector whose
    partition value factors over maximal runs as q(q+1)^(len-1).  The number
    of terms is exactly the alternation-set cardinality, so ranks far beyond
    brute-force reach stay cheap.
    """
    r = index_set.rank
    if index_set.is_empty():
        raise ValueError("index set must be nonempty")
    comp = index_set.complement().members
    per_run = [list(nonconsecutive_subsets(lo, hi)) for lo, hi in _free_runs(index_set)]
    acc = [0] * (r + 1)
    terms = 0
    for combo in itertools.product(*per_run):
        terms += 1
        chosen = set()
        for part in combo:
            chosen.update(part)
        sign = -1 if len(chosen) & 1 else 1
        cs = _poly_of_run_lengths(_support_run_lengths(comp, chosen)).coeffs
        if sign > 0:
            for k, c in enumerate(cs):
                acc[k] += c
        else:
            for k, c in enumerate(cs):
                acc[k] -= c
    return MultiplicityResult(
        rank=r,
        lam=highest_root(r),
        mu=index_set.to_root_vector(),
        value=QPolynomial(acc),
        method="altset",
        terms_evaluated=terms,
    )


def _support_run_lengths(comp: tuple[int, ...], chosen: set) -> tuple[int, ...]:
    """Sorted lengths of the maximal runs of comp with the chosen members removed."""
    lengths = []
    cur = 0
    prev = None
    for m in comp:
        if m in chosen:
            if cur:
                lengths.append(cur)
                cur = 0
            prev = None
            continue
        if prev is not None and m == prev + 1:
            cur += 1
        else:
            if cur:
                lengths.append(cur)
            cur = 1
        prev = m
    if cur:
        lengths.append(cur)
    return tuple(sorted(lengths))


_RUN_POLY_CACHE: dict[tuple[int, ...], QPolynomial] = {}


def _poly_of_run_lengths(lengths: tuple[int, ...]) -> QPolynomial:
    got = _RUN_POLY_CACHE.get(lengths)
    if got is None:
        got = ONE
        for length in lengths:
            got = got * kostant_q_interval_closed_form(1, length, length)
        _RUN_POLY_CACHE[lengths] = got
    return got


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
    parts = interval_partition(index_set)
    n = parts.n
    exponent = index_set.rank - len(index_set) - n + 1
    return (Q - 1) ** (n - 1) * QPolynomial.monomial(exponent)


def m_q_rank_reduction(
    index_set: IndexSet,
    factors_by_brute: bool = False,
    cap: int = DEFAULT_BRUTE_CAP,
) -> QPolynomial:
    """m_q at mu = alpha_I as a product of lower-rank multiplicities.

    Each stretch of the complement of I contributes one factor: a leading
    q^(i_1 - 1) when 1 is missing from I, a factor q^g - q^(g-1) per
    interior gap of width g, and a trailing q^(rank - j_n) when rank is
    missing.  With ``factors_by_brute`` every factor is recomputed by a
    brute-force sum at its own lower rank instead of its closed form.
    """
    runs = interval_partition(index_set).intervals
    r = index_set.rank
    factors: list[QPolynomial] = []
    first_lo = runs[0][0]
    last_hi = runs[-1][1]
    if first_lo > 1:
        if factors_by_brute:
            sub = first_lo
            factors.append(m_q_brute(highest_root(sub), simple_root(sub, sub), cap).value)
        else:
            factors.append(QPolynomial.monomial(first_lo - 1))
    for (_, j_x), (i_next, _) in zip(runs, runs[1:]):
        gap = i_next - j_x - 1
        if factors_by_brute:
            sub = gap + 2
            mu = simple_root(1, sub) + simple_root(sub, sub)
            factors.append(m_q_brute(highest_root(sub), mu, cap).value)
        else:
            factors.append(QPolynomial.monomial(gap) - QPolynomial.monomial(gap - 1))
    if last_hi < r:
        if factors_by_brute:
            sub = r - last_hi + 1
            factors.append(m_q_brute(highest_root(sub), simple_root(1, sub), cap).value)
        else:
            factors.append(QPolynomial.monomial(r - last_hi))
    out = ONE
    for f in factors:
        out = out * f
    return out


def m_classical(index_set: IndexSet) -> int:
    """The ordinary multiplicity m(theta, alpha_I): the q-multiplicity at q = 1.

    Nonzero (equal to 1) exactly when I is a single run.
    """
    return m_q_closed_general(index_set).eval_at_one()
