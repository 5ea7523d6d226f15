"""The paper's special-case formulas, kept as references for the tests.

Each is a specialisation of ``m_q_closed_general`` or of the q-analog
partition function at one family of weights; the tests compare them
against the library's routes, which derive the same values independently.
"""

from qmult.poly import ONE, Q, QPolynomial


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
