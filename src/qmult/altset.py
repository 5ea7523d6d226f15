"""Weyl alternation sets and their Fibonacci enumeration.

The alternation set A(lam, mu) collects the Weyl elements sigma whose term
in the multiplicity sum is nonzero, i.e. those with a positive partition
value at sigma(lam + rho) - rho - mu.  For lam the highest root and
mu = alpha_I, the set consists exactly of the products of simple
reflections over nonconsecutive indices drawn from the complement of I with
the endpoints 1 and rank removed.  The free indices between two neighbours
a < b of 1, i_1, ..., i_k, rank form one run, maybe empty, and J is chosen
independently in each (:func:`free_runs`), so the set is a product over the
runs of their nonconsecutive subsets (:func:`run_sums`) and its cardinality
the product of the fibonacci(b - a + 1) (:func:`fib_profile`).

:func:`alt_set_closed` walks that product for its J sets; its docstring
says how the widest run is streamed.  ``m_q_altset`` walks each run's
:func:`run_sums` alone, with integer weights, and multiplies the runs'
tallies of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, cycle, pairwise, repeat
from math import factorial, prod
from operator import add
from typing import Iterator, Sequence, TypeVar

from .intervals import IndexSet
from .roots import RootVector, embed
from .weyl import DEFAULT_BRUTE_CAP, CapExceededError

_T = TypeVar("_T")


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

    Each element is a Weyl element as its one-line tuple.  The number of
    elements must equal the Fibonacci product :func:`alt_set_cardinality`
    gives for mu, the certificate of the closed-form description.
    """

    mu: IndexSet
    elements: frozenset[tuple[int, ...]]

    def __post_init__(self) -> None:
        expected = alt_set_cardinality(self.mu)
        if len(self.elements) != expected:
            raise ValueError(
                f"{len(self.elements)} elements but Fibonacci profile gives {expected}"
            )


def _neighbours(index_set: IndexSet) -> Iterator[tuple[int, int]]:
    """The pairs (a, b) of neighbours in the sequence 1, i_1, ..., i_k, rank
    of a nonempty index set: the free indices are the a < j < b of each pair,
    and a pair contributes the factor fibonacci(b - a + 1) to the size of
    the alternation set."""
    if index_set.is_empty():
        raise ValueError("index set must be nonempty")
    return pairwise((1, *index_set.members, index_set.rank))


def fib_profile(index_set: IndexSet) -> tuple[int, ...]:
    """Fibonacci indices for the runs of I: (i_1, i_{x+1} - j_x + 1, rank - j_n + 1).

    These are the b - a + 1 over the neighbours a < b of 1, i_1, ..., i_k,
    rank without the interior 2s, which come from two members inside one run
    and have the factor fibonacci(2) = 1.  The free indices between a and b
    are an interval of b - a - 1 integers, with fibonacci(b - a + 1)
    nonconsecutive subsets.  I = {1, 6} at rank 6 has the profile (1, 6, 1).
    """
    first, *interior, last = (b - a + 1 for a, b in _neighbours(index_set))
    return (first, *(k for k in interior if k != 2), last)


def alt_set_cardinality(index_set: IndexSet) -> int:
    """Size of the alternation set, as the product of Fibonacci numbers."""
    return prod(fibonacci(k) for k in fib_profile(index_set))


def free_runs(index_set: IndexSet) -> list[tuple[int, int]]:
    """The maximal runs [lo, hi] of the free region, [2, rank - 1] minus I,
    narrowest first, so the widest is last; one empty run (2, 1) when the
    free region is empty.

    Each run lies strictly between two neighbours of the sorted bounds
    1, i_1, ..., i_n, rank.  A run [lo, hi] has fibonacci(hi - lo + 3)
    nonconsecutive subsets, one factor of :func:`alt_set_cardinality`.

    >>> free_runs(IndexSet(9, [3]))
    [(2, 2), (4, 8)]
    """
    gaps = [(b - a, a + 1, b - 1) for a, b in _neighbours(index_set) if b - a > 1]
    gaps.sort()
    return [(lo, hi) for _, lo, hi in gaps] or [(2, 1)]


def run_sums(items: Sequence[_T], empty: _T) -> Iterator[_T]:
    """empty + items[i_1] + items[i_2] + ... for each set of pairwise
    nonconsecutive positions i_1 < i_2 < ... of items, the empty set first.

    With the items (lo,), (lo + 1,), ..., (hi,) and empty = () these are the
    nonconsecutive subsets of [lo, hi] as ascending tuples; with numbers
    and 0 they are the subsets' weights.  n items give fibonacci(n + 2)
    sums.  Each stack entry is a node (next position, partial sum); popping
    it follows the skip branch to the end, pushing the take branch at every
    position passed, and taking i resumes at i + 2.  Every set is one leaf.
    """
    stack = [(0, empty)]
    size = len(items)
    while stack:
        i, acc = stack.pop()
        while i < size:
            stack.append((i + 2, acc + items[i]))
            i += 1
        yield acc


def _spread(heads: Iterator[_T], tails: list[_T]) -> Iterator[_T]:
    """head + tail for each head in turn and each tail of the list, at C
    speed: each head is repeated once per tail and added to them in turn."""
    return map(add, chain.from_iterable(map(repeat, heads, repeat(len(tails)))), cycle(tails))


def alt_set_closed(index_set: IndexSet) -> AltSet:
    """The alternation set built from the closed-form description.

    Each element is the product of s_j over J, J a nonconsecutive subset of
    the free region chosen independently in each of its runs: the product
    over :func:`free_runs` of each run's :func:`run_sums` of the items (j,).
    The widest run is walked lazily and only the product of the others is
    listed, once: a single run of 29 free indices has 1.3 million subsets,
    which a list would hold at once, while a product of narrower runs is
    small.  Each element is built from J directly, as the one-line tuple of
    the identity with j and j+1 swapped for every j in J (J is
    nonconsecutive, so the swaps commute).
    """
    items = tuple(zip(range(index_set.rank)))
    *narrower, (lo, hi) = free_runs(index_set)
    sets = run_sums(items[lo:hi + 1], ())
    if narrower:
        rest = [()]
        for a, b in narrower:
            rest = list(_spread(run_sums(items[a:b + 1], ()), rest))
        sets = _spread(sets, rest)
    identity = list(range(1, index_set.rank + 2))
    elements = []
    for js in sets:
        p = identity.copy()
        for j in js:
            p[j - 1], p[j] = j + 1, j
        elements.append(tuple(p))
    return AltSet(mu=index_set, elements=frozenset(elements))


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
