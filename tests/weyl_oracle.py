"""The unpruned Weyl sweep, kept as a slow oracle for the pruned one.

Walks all (rank+1)! permutations with ``itertools.permutations`` and filters
afterwards, the way the brute-force routes worked before the sweep learned
to drop prefixes.  Small ranks only: rank 7 already means 40,320 rows.
"""

import itertools

from qmult.partition import kostant_q_coeffs
from qmult.poly import QPolynomial
from qmult.roots import RootVector, embed
from qmult.weyl import WeylElement


def all_rows(lam: RootVector, mu: RootVector):
    """(perm, sign, xi) for every Weyl element, in lexicographic order.

    ``xi`` is sigma(lam + rho) - rho - mu over the simple-root basis; rows
    whose xi has a negative coordinate are included.
    """
    rank = lam.rank
    n = rank + 1
    rho = tuple(range(rank, -1, -1))
    shifted = tuple(a + b for a, b in zip(embed(lam).coords, rho))
    for perm in itertools.permutations(range(1, n + 1)):
        img = [0] * n
        for k in range(n):
            img[perm[k] - 1] = shifted[k]
        inv = sum(1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b])
        total = 0
        xi = []
        for k in range(rank):
            total += img[k] - rho[k]
            xi.append(total - mu.coeffs[k])
        yield perm, (-1 if inv & 1 else 1), tuple(xi)


def nonnegative_rows(lam: RootVector, mu: RootVector):
    """The rows of :func:`all_rows` whose xi has no negative coordinate."""
    return [row for row in all_rows(lam, mu) if min(row[2]) >= 0]


def m_q_unpruned(lam: RootVector, mu: RootVector) -> QPolynomial:
    """The signed sum of q-analog partition values over every Weyl element."""
    total = QPolynomial()
    for _, sign, xi in nonnegative_rows(lam, mu):
        total = total + sign * kostant_q_coeffs(xi)
    return total


def alt_set_unpruned(lam: RootVector, mu: RootVector) -> frozenset:
    """The Weyl elements with a positive partition count at xi."""
    return frozenset(
        WeylElement(perm) for perm, _, xi in nonnegative_rows(lam, mu)
        if kostant_q_coeffs(xi).coeffs
    )
