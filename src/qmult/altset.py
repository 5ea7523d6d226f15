"""Weyl alternation sets and their Fibonacci enumeration.

The alternation set A(lam, mu) collects the Weyl elements sigma whose term
in the multiplicity sum is nonzero, i.e. those with a positive partition
value at sigma(lam + rho) - rho - mu.  For lam the highest root and
mu = alpha_I, the set consists exactly of the products of simple
reflections over nonconsecutive indices drawn from the complement of I with
the endpoints 1 and rank removed.  The free indices between two neighbours
a < b of 1, i_1, ..., i_k, rank form one run, maybe empty, and J is chosen
independently in each, so the set's cardinality is the product of the
fibonacci(b - a + 1) (:func:`fib_profile`).

:func:`alt_set_closed` joins the one-line words of two halves of the strip of
coordinates (:func:`_halves`); ``m_q_altset`` tallies the J sets in one scan
of the strip, by the same Fibonacci recurrence.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import pairwise
from math import factorial, prod

from .intervals import IndexSet
from .roots import RootVector, _Frozen, embed
from .weyl import DEFAULT_BRUTE_CAP, CapExceededError


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


class AltSet(_Frozen):
    """An alternation set for the highest root against mu = alpha_I.

    Each element is a Weyl element as its one-line tuple.  The number of
    elements must equal the Fibonacci product :func:`alt_set_cardinality`
    gives for mu, the certificate of the closed-form description.
    """

    _fields = ("mu", "elements")

    def __init__(self, mu: IndexSet, elements: frozenset[tuple[int, ...]]):
        expected = alt_set_cardinality(mu)
        if len(elements) != expected:
            raise ValueError(f"{len(elements)} elements but Fibonacci profile gives {expected}")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "elements", elements)


def fib_profile(index_set: IndexSet) -> tuple[int, ...]:
    """Fibonacci indices for the runs of I: (i_1, i_{x+1} - j_x + 1, rank - j_n + 1).

    These are the b - a + 1 over the neighbours a < b of 1, i_1, ..., i_k,
    rank without the interior 2s, which come from two members inside one run
    and have the factor fibonacci(2) = 1.  The free indices between a and b
    are an interval of b - a - 1 integers, with fibonacci(b - a + 1)
    nonconsecutive subsets.  I = {1, 6} at rank 6 has the profile (1, 6, 1).
    """
    if index_set.is_empty():
        raise ValueError("index set must be nonempty")
    bounds = (1, *index_set.members, index_set.rank)
    first, *interior, last = (b - a + 1 for a, b in pairwise(bounds))
    return (first, *(k for k in interior if k != 2), last)


def alt_set_cardinality(index_set: IndexSet) -> int:
    """Size of the alternation set, as the product of Fibonacci numbers."""
    return prod(fibonacci(k) for k in fib_profile(index_set))


def _halves(index_set: IndexSet) -> list[tuple[list[tuple[int, ...]], list[tuple[int, ...]]]]:
    """The alternation set's one-line words as (heads, tails) pairs: each is
    head + tail for exactly one pair, head and tail.  A word tiles 1..rank+1
    by fixed points (m,) and swaps (m, m-1), a swap allowed where s_{m-1} is
    free, so the words over 1..m number N(m) = N(m-1) + [s_{m-1} free] N(m-2)
    and N(rank+1) = |A|.  The cut after the first mid with N(mid)^2 >= |A|
    leaves O(sqrt |A|) words a side, from the recurrence and its mirror; the
    second pair puts the swap (mid+1, mid) across the cut if s_mid is free."""
    if index_set.is_empty():
        raise ValueError("index set must be nonempty")
    rank, members = index_set.rank, index_set.members
    free = [False] * (rank + 2)
    older = size = 1  # N(j - 1) and N(j) as j is reached; N(rank) = N(rank + 1) = |A|
    for j in range(2, rank):
        free[j] = j not in members
        older, size = size, size + older * free[j]
    p_short, p_words, mid = [()], [(1,)], 1  # s_1 is never free: 1 is fixed
    while len(p_words) ** 2 < size:
        mid += 1
        grown = [w + (mid,) for w in p_words]
        if free[mid - 1]:
            grown += [w + (mid, mid - 1) for w in p_short]
        p_short, p_words = p_words, grown
    s_short, s_words = [()], [(rank + 1,)]  # nor is s_rank: rank + 1 is fixed
    for k in range(rank, mid, -1):
        grown = [(k,) + w for w in s_words]
        if free[k]:
            grown += [(k + 1, k) + w for w in s_short]
        s_short, s_words = s_words, grown
    across = [w + (mid + 1, mid) for w in p_short] if free[mid] else []
    return [(p_words, s_words), (across, s_short)]


def alt_set_closed(index_set: IndexSet) -> AltSet:
    """The alternation set from the closed-form description (see :func:`_halves`)."""
    return AltSet(mu=index_set, elements=frozenset(
        [x + y for heads, tails in _halves(index_set) for x in heads for y in tails]))


class WeylSweep:
    """The Weyl elements whose term may be nonzero, by a pruned depth-first sweep.

    Iterating yields (perm, sign, xi) for each sigma in S_{rank+1} whose
    xi = sigma(lam + rho) - rho - mu has no negative coordinate over the
    simple-root basis; ``perm`` is one-line and ``sign`` is (-1)**length.
    sigma^-1 is built one position p at a time, so xi_p is a running sum and
    a prefix with xi_p < 0 is dropped with its subtree: Kostant's convention
    P(xi) = 0 makes all those terms zero, for any lam and mu.  ``leaves`` and
    ``pruned`` count rows and dropped subtrees; ``accounted``, the elements
    both cover, must end at (rank+1)!, and a sweep that ends short or over
    raises RuntimeError.  The cap is checked before any work.
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


def alt_set_brute(
    lam: RootVector, mu: RootVector, cap: int = DEFAULT_BRUTE_CAP
) -> frozenset[tuple[int, ...]]:
    """The alternation set for arbitrary lam and mu, by a pruned Weyl sweep.

    The set is the one-line perms of the rows of :class:`WeylSweep`.  In
    type A every xi >= 0 is sum xi_i alpha_i, a sum of positive roots, so
    its partition count is at least 1: the sweep keeps exactly the terms
    with a positive count.  This is the ground-truth oracle the closed-form
    construction is checked against.
    """
    return frozenset(perm for perm, _, _ in WeylSweep(lam, mu, cap))
