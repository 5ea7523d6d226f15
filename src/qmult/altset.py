"""Weyl alternation sets and their Fibonacci enumeration.

The alternation set A(lam, mu) collects the Weyl elements sigma whose term
in the multiplicity sum is nonzero, i.e. those with a positive partition
value at sigma(lam + rho) - rho - mu.  For lam the highest root and
mu = alpha_I, the set consists exactly of the products of simple
reflections over nonconsecutive indices drawn from the complement of I with
the endpoints 1 and rank removed.  One walk over those free indices,
:func:`alternation_walk`, lists the elements; counting nonconsecutive
subsets stretch by stretch makes the cardinality a product of Fibonacci
numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, prod
from typing import Iterator

from .intervals import IndexSet, interval_partition
from .partition import kostant_q_coeffs
from .roots import RootVector, embed
from .weyl import (
    DEFAULT_BRUTE_CAP,
    CapExceededError,
    WeylElement,
    product_of_commuting,
)

def fibonacci(n: int) -> int:
    """The n-th Fibonacci number with F_1 = F_2 = 1.

    >>> [fibonacci(n) for n in range(1, 9)]
    [1, 1, 2, 3, 5, 8, 13, 21]
    """
    if n < 1:
        raise ValueError("Fibonacci index must be at least 1")
    a, b = 1, 1
    for _ in range(n - 1):
        a, b = b, a + b
    return a


@dataclass(frozen=True)
class AltSet:
    """An alternation set for the highest root against mu = alpha_I.

    ``fib_profile`` holds the Fibonacci indices certifying the cardinality:
    one for the stretch left of the first run of I, one per gap between
    runs, one for the stretch right of the last run.  The product of those
    Fibonacci numbers must equal the number of elements.
    """

    rank: int
    mu: IndexSet
    elements: frozenset[WeylElement]
    fib_profile: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.mu.rank != self.rank:
            raise ValueError("rank mismatch between alternation set and mu")
        expected = prod(fibonacci(k) for k in self.fib_profile)
        if len(self.elements) != expected:
            raise ValueError(
                f"{len(self.elements)} elements but Fibonacci profile gives {expected}"
            )

    @property
    def cardinality(self) -> int:
        return len(self.elements)


def fib_profile(index_set: IndexSet) -> tuple[int, ...]:
    """Fibonacci indices for the runs of I: (i_1, i_{x+1} - j_x + 1, rank - j_n + 1).

    With runs [i_1, j_1], ..., [i_n, j_n], the free indices left of i_1 form
    the interval [2, i_1 - 1], each gap contributes [j_x + 1, i_{x+1} - 1],
    and the right stretch is [j_n + 1, rank - 1]; an interval of n integers
    has fibonacci(n + 2) nonconsecutive subsets, giving these indices.  So
    an interior entry is the gap's width plus 2: I = {1, 6} at rank 6 has a
    gap of width 4 and the profile (1, 6, 1).
    """
    runs = interval_partition(index_set)
    r = index_set.rank
    profile = [runs[0][0]]
    for (_, j_x), (i_next, _) in zip(runs, runs[1:]):
        profile.append(i_next - j_x + 1)
    profile.append(r - runs[-1][1] + 1)
    return tuple(profile)


def alt_set_cardinality(index_set: IndexSet) -> int:
    """Size of the alternation set, as the product of Fibonacci numbers."""
    return prod(fibonacci(k) for k in fib_profile(index_set))


def alternation_walk(index_set: IndexSet) -> Iterator[tuple[tuple[int, ...], int]]:
    """(J, n) for each alternation-set element, the identity (J empty) first.

    J is a nonconsecutive subset of the free indices, [2, rank - 1] minus I,
    sorted ascending; the element is the product of s_j over J.  The walk
    passes the free indices in order and at each one either skips it or
    takes it, and taking an index also skips its right free neighbour, so
    every J is one leaf and there are alt_set_cardinality(I) of them.

    n counts the maximal runs of I^c minus J.  Removing j from I^c splits,
    shortens or deletes its run as #{j-1, j+1} & I^c is 2, 1 or 0, and no
    two members of J are adjacent, so n = runs(I^c) + sum over j in J of
    split[j] with split[j] = #{j-1, j+1} & I^c - 1.  The walk carries n
    down with J.
    """
    if index_set.is_empty():
        raise ValueError("index set must be nonempty")
    comp = set(range(1, index_set.rank + 1)).difference(index_set)
    free = [k for k in range(2, index_set.rank) if k in comp]
    size = len(free)
    split = [(k - 1 in comp) + (k + 1 in comp) - 1 for k in free]
    # the position the walk resumes at after taking free[i]
    after = [i + 1 + (i + 1 < size and free[i + 1] == k + 1) for i, k in enumerate(free)]
    runs = sum(k - 1 not in comp for k in comp)  # members starting a run
    # Each entry is a node (position, J, n); popping it follows the skip
    # branch to the end, pushing the take branch at every position passed.
    stack = [(0, (), runs)]
    while stack:
        i, chosen, n = stack.pop()
        while i < size:
            stack.append((after[i], chosen + (free[i],), n + split[i]))
            i += 1
        yield chosen, n


def alt_set_closed(index_set: IndexSet) -> AltSet:
    """The alternation set built from the closed-form description: the
    products of simple reflections over the J of :func:`alternation_walk`."""
    r = index_set.rank
    return AltSet(
        rank=r,
        mu=index_set,
        elements=frozenset(
            product_of_commuting(j, r) for j, _ in alternation_walk(index_set)
        ),
        fib_profile=fib_profile(index_set),
    )


class WeylSweep:
    """The Weyl elements whose term may be nonzero, by a pruned depth-first sweep.

    Iterating yields (perm, sign, xi) for each sigma in S_{rank+1} whose
    xi = sigma(lam + rho) - rho - mu has no negative coordinate over the
    simple-root basis; ``perm`` is one-line and ``sign`` is (-1)**length.
    sigma^-1 is built one position p at a time, so xi_p is a running sum and
    a prefix with xi_p < 0 is dropped with its subtree: Kostant's convention
    P(xi) = 0 makes all those terms zero, for any lam and mu.  ``leaves`` and
    ``pruned`` count rows and dropped subtrees; ``accounted``, the elements
    both cover, ends at (rank+1)!.  The cap is checked before any work.
    """

    def __init__(self, lam: RootVector, mu: RootVector, cap: int = DEFAULT_BRUTE_CAP):
        if lam.rank != mu.rank:
            raise ValueError("rank mismatch between lam and mu")
        if lam.rank > cap:
            raise CapExceededError(f"rank {lam.rank} exceeds brute-force cap {cap}")
        self.lam, self.mu = lam, mu
        self.leaves = self.pruned = self.accounted = 0

    def __iter__(self) -> Iterator[tuple[tuple[int, ...], int, tuple[int, ...]]]:
        self.leaves = self.pruned = self.accounted = 0
        rank = self.lam.rank
        n = rank + 1
        rho = tuple(range(rank, -1, -1))
        shifted = tuple(a + b for a, b in zip(embed(self.lam).coords, rho))
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
        assert self.accounted == factorial(n), (self.accounted, n)


def alt_set_brute(
    lam: RootVector, mu: RootVector, cap: int = DEFAULT_BRUTE_CAP
) -> frozenset[WeylElement]:
    """The alternation set for arbitrary lam and mu, by a pruned Weyl sweep.

    Keeps the rows of :class:`WeylSweep` with a positive partition count at
    xi; the pruned elements have count zero.  This is the ground-truth
    oracle the closed-form construction is checked against.
    """
    return frozenset(
        WeylElement(perm) for perm, _, xi in WeylSweep(lam, mu, cap)
        if kostant_q_coeffs(xi).coeffs
    )
