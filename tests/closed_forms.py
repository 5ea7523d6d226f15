"""The paper's special-case formulas, kept as references for the tests.

Each is a specialisation of ``m_q_closed_general`` or of the q-analog
partition function at one family of weights; the tests compare them
against the library's routes, which derive the same values independently.
The rank-2 and rank-3 sums count the multisets of positive roots with sum
xi directly, by the copies of the roots that cover more than one slot, so
they share nothing with the division pass and reach widths that
``kostant_q_oracle``'s cap refuses.

``m_q_closed_general_chain`` and ``m_q_rank_reduction_chain`` are the
library's two formula routes as they were before they wrote their
coefficient lists directly: each builds its value from ``QPolynomial``
operators (``Q - 1``, ``**``, ``monomial``, ``-`` and ``*``), kept unchanged
as oracles for the list-building routes.
"""

from qmult.intervals import IndexSet, interval_partition
from qmult.poly import ONE, Q, ZERO, QPolynomial


def m_q_closed_general_chain(index_set: IndexSet) -> QPolynomial:
    """m_q at mu = alpha_I: (q - 1)^(n-1) q^(rank - |I| - n + 1), n = runs of I."""
    n = len(interval_partition(index_set))
    exponent = index_set.rank - len(index_set) - n + 1
    return (Q - 1) ** (n - 1) * QPolynomial.monomial(exponent)


def m_q_rank_reduction_chain(index_set: IndexSet) -> QPolynomial:
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


def kostant_q_interval_closed_form(i: int, j: int, rank: int) -> QPolynomial:
    """The closed form q(q+1)^{j-i} for the q-analog at alpha_i + ... + alpha_j."""
    if not 1 <= i <= j <= rank:
        raise ValueError(f"need 1 <= i <= j <= rank, got ({i}, {j}, {rank})")
    return Q * (ONE + Q) ** (j - i)


def kostant_q_rank2(a: int, b: int) -> QPolynomial:
    """P_q(a, b) at rank 2: k copies of alpha_12 leave a - k of alpha_1 and
    b - k of alpha_2, a + b - k roots in all, so the sum over k <= min(a, b)
    of q^(a + b - k).  Zero at a negative coordinate."""
    if min(a, b) < 0:
        return ZERO
    return QPolynomial([0] * max(a, b) + [1] * (min(a, b) + 1))


def kostant_q_rank3(x1: int, x2: int, x3: int) -> QPolynomial:
    """P_q(x1, x2, x3) at rank 3, in O(xi^2) terms.  c copies of alpha_123,
    a of alpha_12 and b of alpha_23 leave x1 - a - c of alpha_1,
    x2 - a - b - c of alpha_2 and x3 - b - c of alpha_3, |xi| - 2c - a - b
    roots in all.  The sum runs over c and s = a + b <= x2 - c; the splits
    of s with a <= x1 - c and b <= x3 - c number
    min(s, x1 - c) - max(0, s - (x3 - c)) + 1, which is positive exactly
    when s <= x1 + x3 - 2c.  Zero at a negative coordinate."""
    if min(x1, x2, x3) < 0:
        return ZERO
    n = x1 + x2 + x3
    coeffs = [0] * (n + 1)
    for c in range(min(x1, x2, x3) + 1):
        room_a, room_b = x1 - c, x3 - c
        for s in range(min(x2 - c, room_a + room_b) + 1):
            coeffs[n - 2 * c - s] += min(s, room_a) - max(0, s - room_b) + 1
    return QPolynomial(coeffs)
