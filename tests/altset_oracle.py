"""Earlier alternation-set enumerators and run derivations, kept as oracles.

``reflection_index_sets`` is the first: the nonconsecutive subsets of each
maximal run of the free region are enumerated recursively and then combined
with ``itertools.product``.  It yields J only.  ``alternation_walk`` is the
one walk over all free indices that followed it, carrying the run count n
of I^c minus J down with J; its run counts are checked against
``maximal_runs`` directly, and it is the oracle for the per-run walks and
the (|J|, n) tally of ``qmult.altset`` and ``qmult.multiplicity``.
``term_tally_streamed`` is the tally that followed the walk: it counts the
code of every J of the whole product, each run's ``run_sums`` joined by
``itertools.product``, where ``qmult.multiplicity`` now multiplies the
tallies of the runs.

``maximal_runs`` is the general run splitter that ``interval_partition``,
``fib_profile``, ``free_runs`` and ``n_of_complement`` were once derived
from; those derivations are the oracle for the walk over the neighbours of
I that replaced them.
"""

import itertools
from collections import Counter
from typing import Iterable, Iterator

from qmult.altset import free_runs, run_sums
from qmult.intervals import IndexSet, n_of_complement


def maximal_runs(members: Iterable[int]) -> tuple[tuple[int, int], ...]:
    """Decompose a set of integers into maximal runs of consecutive values.

    Returns (lo, hi) pairs in increasing order; empty input gives ().

    >>> maximal_runs([1, 2, 4, 7, 8])
    ((1, 2), (4, 4), (7, 8))
    """
    ms = sorted(set(members))
    runs: list[tuple[int, int]] = []
    for m in ms:
        if runs and m == runs[-1][1] + 1:
            runs[-1] = (runs[-1][0], m)
        else:
            runs.append((m, m))
    return tuple(runs)


def nonconsecutive_subsets(lo: int, hi: int) -> Iterator[tuple[int, ...]]:
    """All subsets of {lo, ..., hi} with no two consecutive members.

    The interval may be empty (lo == hi + 1), giving just the empty subset;
    an interval of n integers yields fibonacci(n + 2) subsets.  Subsets come
    out as sorted tuples in a fixed deterministic order.
    """
    if lo > hi + 1:
        raise ValueError(f"invalid interval [{lo}, {hi}]")
    return _ncs(lo, hi)


def _ncs(lo: int, hi: int) -> Iterator[tuple[int, ...]]:
    if lo > hi:
        yield ()
        return
    yield from _ncs(lo + 1, hi)
    for rest in _ncs(lo + 2, hi):
        yield (lo,) + rest


def reflection_index_sets(index_set: IndexSet) -> Iterator[tuple[int, ...]]:
    """The index set J of each alternation-set element, sorted ascending.

    J is a nonconsecutive subset of the complement of I minus {1, rank},
    chosen independently within each maximal run of that free region, and
    the element is the product of s_j over J.  There are
    alt_set_cardinality(I) of them, the identity (J empty) first.
    """
    if index_set.is_empty():
        raise ValueError("index set must be nonempty")
    picked = set(index_set.members)
    free = maximal_runs(k for k in range(2, index_set.rank) if k not in picked)
    per_run = [tuple(nonconsecutive_subsets(lo, hi)) for lo, hi in free]
    for combo in itertools.product(*per_run):
        yield tuple(itertools.chain.from_iterable(combo))


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


def term_tally_streamed(index_set: IndexSet) -> dict[tuple[int, int], int]:
    """The (|J|, n) tally of ``multiplicity._term_tally``, counted over every
    code of the alternation set's product.

    Each free index j weighs B + g_j with B = 2 rank + 2 and
    g_j = #({j-1, j+1} & I^c); the code of J, the sum of its weights, holds
    |J| = code // B and n = runs(I^c) + code % B - |J|.
    """
    r = index_set.rank
    base = 2 * r + 2
    weight = [base + 2] * (r + 2)
    for m in index_set.members:
        weight[m - 1] -= 1
        weight[m + 1] -= 1
    runs = n_of_complement(index_set)
    per_run = [run_sums(weight[lo:hi + 1], 0) for lo, hi in free_runs(index_set)]
    tally = Counter(map(sum, itertools.product(*per_run)))
    return {(code // base, runs + code % base - code // base): count
            for code, count in tally.items()}
