"""Weight q-multiplicities of the highest root in type A.

The q-multiplicity m_q(lam, mu) is the signed Weyl sum of q-analog
partition values at sigma(lam + rho) - rho - mu.  For lam the highest root
and mu = alpha_I (a sum of distinct simple roots) four independent routes
are implemented:

* ``m_q_brute``        -- the full signed sum over all (rank+1)! elements,
                          skipping prefixes whose terms are all zero;
* ``m_q_altset``       -- the same sum restricted to the alternation set,
                          which has Fibonacci-product many terms, summed
                          in one scan of the strip 1..rank with three
                          packed states;
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
from .intervals import IndexSet, interval_partition
from .partition import _divide
from .poly import QPolynomial, unpack
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


def m_q_altset(index_set: IndexSet) -> MultiplicityResult:
    """The signed sum over the alternation set only.

    Each element is the product of s_j over a nonconsecutive subset J of the
    free region, [2, rank - 1] minus I; its term has sign (-1)^|J| and
    shifted image alpha_{I^c} - alpha_J, an indicator vector whose partition
    value factors over its maximal runs as q (q+1)^(len-1).  So a term is a
    product along the strip of coordinates 1..rank, by the role of each
    coordinate k: 1 in I, -1 in J, and in I^c minus J a q where a run
    starts and q + 1 where it goes on.

    One scan of the strip sums those products (Stanley's transfer-matrix
    method), carrying three sums of the partial products over 1..k, split by
    what k is: in a run, in J, or in I (before the strip, the empty product
    1).  At k in I the I sum becomes the sum of all three and the others 0.
    Otherwise the run sum becomes q (I + J) + (q + 1) run, the J sum becomes
    -(run + I) when k is free and 0 when not, and the I sum 0.  This is the
    Fibonacci recurrence of the alternation set's size, so the numbers of
    partial J, carried beside the sums by the same steps without signs or
    powers of q, account for exactly the alternation-set cardinality, in
    rank steps however many elements they count.

    The sums are held packed at q = 2^K, as :func:`~qmult.poly.pack` does.
    Packing is a ring homomorphism from Z[q] to Z, and the scan only adds,
    negates and multiplies by q, so the final int is the result packed, and
    only the result's coefficients must lie strictly inside +-2^(K-1) for
    :func:`~qmult.poly.unpack` to read it back.  The result sums |A| <
    2^rank terms, and the coefficients of q^n (q+1)^m, m < rank, add up to
    2^m < 2^rank in size, so every coefficient is below 4^rank = 2^(K-2)
    in size with K = 2 rank + 2.
    """
    if index_set.is_empty():
        raise ValueError("index set must be nonempty")
    r = index_set.rank
    K = 2 * r + 2
    members = set(index_set.members)
    run = held = 0  # packed sums over partial terms ending in a run, in J
    before = 1  # ... and in I or before the strip
    n_run = n_held = 0
    n_before = 1  # how many partial J each sum holds, by the same steps unsigned
    for k in range(1, r + 1):
        if k in members:
            before += run + held
            n_before += n_run + n_held
            run = held = n_run = n_held = 0
            continue
        free = 1 < k < r
        run, held, before = ((before + held + run) << K) + run, -(run + before) if free else 0, 0
        n_run, n_held, n_before = n_before + n_held + n_run, n_run + n_before if free else 0, 0
    value = QPolynomial(unpack(run + held + before, K))
    return MultiplicityResult(value, "altset", n_run + n_held + n_before)


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

