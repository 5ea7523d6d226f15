"""The unpruned Weyl sweep, kept as a slow oracle for the pruned one.

Walks all (rank+1)! permutations with ``itertools.permutations`` and filters
afterwards, the way the brute-force routes worked before the sweep learned
to drop prefixes.  Small ranks only: rank 7 already means 40,320 rows.
``signed_sum_per_row`` is the brute route's sum before the rows were
divided together in one pass.  ``RecursiveWeylSweep`` is the pruned sweep
as it was before it moved onto an explicit stack: one nested generator per
coordinate, which reaches the interpreter's recursion limit near rank 1000
and leaves a reference cycle through its own closure cell.
"""

import itertools
from math import factorial

from poly_helpers import ZERO, Poly
from qmult.altset import WeylSweep
from qmult.partition import kostant_q
from qmult.poly import QPolynomial
from qmult.roots import RootVector, embed


def all_rows(lam: RootVector, mu: RootVector):
    """(perm, sign, xi) for every Weyl element, in lexicographic order.

    ``xi`` is sigma(lam + rho) - rho - mu over the simple-root basis; rows
    whose xi has a negative coordinate are included.
    """
    rank = lam.rank
    n = rank + 1
    rho = tuple(range(rank, -1, -1))
    shifted = tuple(a + b for a, b in zip(embed(lam), rho))
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


def m_q_unpruned(lam: RootVector, mu: RootVector) -> Poly:
    """The signed sum of q-analog partition values over every Weyl element."""
    total = ZERO
    for _, sign, xi in nonnegative_rows(lam, mu):
        total = total + sign * Poly(kostant_q(RootVector(len(xi), xi)).coeffs)
    return total


def alt_set_unpruned(lam: RootVector, mu: RootVector) -> frozenset:
    """The Weyl elements, as one-line tuples, with a positive partition
    count at xi."""
    return frozenset(
        perm for perm, _, xi in nonnegative_rows(lam, mu)
        if kostant_q(RootVector(len(xi), xi)).coeffs
    )


def signed_sum_per_row(rows) -> QPolynomial:
    """``qmult.multiplicity.signed_sum`` as it was before the division pass:
    one partition query per (perm, sign, xi) row, added in row order."""
    acc = [0]
    for _, sign, xi in rows:
        cs = kostant_q(RootVector(len(xi), xi)).coeffs
        if len(cs) > len(acc):
            acc.extend([0] * (len(cs) - len(acc)))
        if sign > 0:
            for k, c in enumerate(cs):
                acc[k] += c
        else:
            for k, c in enumerate(cs):
                acc[k] -= c
    return QPolynomial(acc)


class RecursiveWeylSweep(WeylSweep):
    """``qmult.altset.WeylSweep`` with its predecessor's ``__iter__``: the same
    rows in the same order, and the same ``leaves``, ``pruned`` and
    ``accounted``, which it updates as it goes."""

    def __iter__(self):
        self.leaves = self.pruned = self.accounted = 0
        rank = self.lam.rank
        n = rank + 1
        rho = tuple(range(rank, -1, -1))
        shifted = tuple(a + b for a, b in zip(embed(self.lam), rho))
        # The last prefix sum is the coordinate sum of lam, always 0.
        mu = self.mu.coeffs + (0,)
        subtree = [factorial(n - p - 1) for p in range(n)]
        free = list(range(n))  # coordinates not yet placed, ascending
        perm = [0] * n
        xi = [0] * n

        def extend(p: int, total: int, inversions: int):
            if p == n:
                self.leaves += 1
                self.accounted += 1
                yield tuple(perm), -1 if inversions & 1 else 1, tuple(xi[:rank])
                return
            for j in range(n - p):
                k = free[j]
                t = total + shifted[k] - rho[p]
                if t < mu[p]:
                    self.pruned += 1
                    self.accounted += subtree[p]
                    continue
                # j free coordinates below k are placed later: j inversions
                del free[j]
                perm[k] = p + 1
                xi[p] = t - mu[p]
                yield from extend(p + 1, t, inversions + j)
                free.insert(j, k)

        yield from extend(0, 0, 0)
        if self.accounted != factorial(n):
            raise RuntimeError(f"sweep accounted for {self.accounted} of {n}! elements")
