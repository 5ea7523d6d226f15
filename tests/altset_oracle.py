"""Earlier alternation-set enumerators and run derivations, kept as oracles.

``reflection_index_sets`` is the first: the nonconsecutive subsets of each
maximal run of the free region are enumerated recursively and then combined
with ``itertools.product``.  It yields J only.  ``alternation_walk`` is the
one walk over all free indices that followed it, carrying the run count n
of I^c minus J down with J; its run counts are checked against
``maximal_runs`` directly, and it is the oracle for the per-run walks and
the (|J|, n) tally of ``qmult.altset`` and ``qmult.multiplicity``.
``free_runs`` splits the free region into its maximal runs and
``run_sums`` walks the nonconsecutive subsets of one run.
``term_tally_streamed`` is the tally that followed the walk: it counts the
code of every J of the whole product, each run's ``run_sums`` joined by
``itertools.product``.  ``term_tally_runs`` followed it: it walks each
run's codes once and multiplies the runs' tallies, work a sum of Fibonacci
numbers, one per run.  ``term_tally`` followed it: it tallies the J sets
by (|J|, n) in one scan of the strip, with no runs and no codes, and
``m_q_altset_tally`` expands that tally by the binomial theorem, work
O(rank^3).  ``qmult.multiplicity.m_q_altset`` now carries the terms' sum
itself along the strip, packed, with no tally.

``alt_set_closed_runs`` is the builder ``alt_set_closed`` replaced: it
walks the J sets of the product over the free runs, the widest run
streamed and the narrower ones listed, and swaps j and j + 1 in the
identity for each j of J.  ``alt_set_closed`` now builds the one-line words
from one cut of the coordinate strip instead, with no J and no runs.

``maximal_runs`` is the general run splitter that ``interval_partition``,
``fib_profile``, ``free_runs`` and ``n_of_complement`` were once derived
from; those derivations are the oracle for the walks over the neighbours of
I that replaced them.
"""

import itertools
from collections import Counter
from itertools import chain, cycle, pairwise, repeat
from math import comb
from operator import add
from typing import Iterable, Iterator, Sequence, TypeVar

from qmult.intervals import IndexSet, n_of_complement
from qmult.multiplicity import MultiplicityResult
from qmult.poly import QPolynomial

_T = TypeVar("_T")


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


def free_runs(index_set: IndexSet) -> list[tuple[int, int]]:
    """The maximal runs [lo, hi] of the free region, [2, rank - 1] minus I,
    narrowest first, so the widest is last; one empty run (2, 1) when the
    free region is empty.

    Each run lies strictly between two neighbours of the sorted bounds
    1, i_1, ..., i_n, rank.  A run [lo, hi] has fibonacci(hi - lo + 3)
    nonconsecutive subsets, one factor of ``alt_set_cardinality``.

    >>> free_runs(IndexSet(9, [3]))
    [(2, 2), (4, 8)]
    """
    if index_set.is_empty():
        raise ValueError("index set must be nonempty")
    bounds = (1, *index_set.members, index_set.rank)
    gaps = [(b - a, a + 1, b - 1) for a, b in pairwise(bounds) if b - a > 1]
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


def _weights(index_set: IndexSet) -> tuple[int, list[int]]:
    """B = 2 rank + 2 and the weight B + g_j of each free index j, with
    g_j = #({j-1, j+1} & I^c); B is larger than any sum of the g_j, so the
    code of J, the sum of its weights, holds |J| = code // B and
    sum g_j = code % B."""
    base = 2 * index_set.rank + 2
    # g_j = 2 - #({j-1, j+1} & I) for j in [2, r - 1]
    weight = [base + 2] * (index_set.rank + 2)
    for m in index_set.members:
        weight[m - 1] -= 1
        weight[m + 1] -= 1
    return base, weight


def _decoded(index_set: IndexSet, base: int, tally: Counter) -> dict[tuple[int, int], int]:
    """The tally of codes as a tally of (|J|, n), n = runs(I^c) + sum of
    (g_j - 1) over J."""
    runs = n_of_complement(index_set)
    return {(code // base, runs + code % base - code // base): count
            for code, count in tally.items()}


def term_tally_runs(index_set: IndexSet) -> dict[tuple[int, int], int]:
    """The (|J|, n) tally of :func:`term_tally`, as the product of
    the free runs' tallies of codes.

    J is chosen independently in each free run and codes add over the runs,
    so the tally is the product of the runs' tallies (codes add, counts
    multiply): :func:`run_sums` walks each run's codes once and ``Counter``
    counts them.
    """
    base, weight = _weights(index_set)
    *narrower, (lo, hi) = free_runs(index_set)
    tally = Counter(run_sums(weight[lo:hi + 1], 0))
    for a, b in narrower:
        product = Counter()
        for code, count in Counter(run_sums(weight[a:b + 1], 0)).items():
            for other, times in tally.items():
                product[code + other] += count * times
        tally = product
    return _decoded(index_set, base, tally)


def term_tally_streamed(index_set: IndexSet) -> dict[tuple[int, int], int]:
    """The (|J|, n) tally of :func:`term_tally`, counted over every
    code of the alternation set's product (see :func:`_weights`)."""
    base, weight = _weights(index_set)
    per_run = [run_sums(weight[lo:hi + 1], 0) for lo, hi in free_runs(index_set)]
    return _decoded(index_set, base, Counter(map(sum, itertools.product(*per_run))))


def term_tally(index_set: IndexSet) -> dict[tuple[int, int], int]:
    """How many alternation-set elements have each (|J|, n), n the number of
    maximal runs of I^c minus J.

    Removing j from I^c splits, shortens or deletes its run as
    g_j = #({j-1, j+1} & I^c) is 2, 1 or 0, and no two members of J are
    adjacent, so n = runs(I^c) + sum over j in J of (g_j - 1).  Let T_j
    tally the J within [2, j], T_1 = T_0 = {(0, runs(I^c)): 1}.  A J either
    skips j, or takes a free j and nothing of j - 1, so going along the strip
    T_j = T_{j-1} + [j free] T_{j-2} moved by (1, g_j - 1), the Fibonacci
    recurrence of the alternation set's size, and T_{rank-1} is the tally.
    Each step touches O(rank^2) keys, however many elements they count.
    """
    picked = set(index_set.members)
    older = tally = {(0, n_of_complement(index_set)): 1}
    for j in range(2, index_set.rank):
        if j in picked:
            older = tally
            continue
        split = 1 - (j - 1 in picked) - (j + 1 in picked)
        grown = tally.copy()
        for (size, n), count in older.items():
            key = (size + 1, n + split)
            grown[key] = grown.get(key, 0) + count
        older, tally = tally, grown
    return tally


def m_q_altset_tally(index_set: IndexSet) -> MultiplicityResult:
    """``m_q_altset`` by the (|J|, n) tally: the term of an element with n
    runs of total length N = |I^c| - |J| in I^c minus J is
    (-1)^|J| q^n (q+1)^(N-n), expanded once per key of :func:`term_tally`
    by the binomial theorem."""
    r = index_set.rank
    free = r - len(index_set)
    tally = term_tally(index_set)
    acc = [0] * (r + 1)
    for (size, n), count in tally.items():
        if size & 1:
            count = -count
        m = free - size - n
        for k in range(m + 1):
            acc[n + k] += count * comb(m, k)
    return MultiplicityResult(QPolynomial(acc), "altset", sum(tally.values()))


def _spread(heads: Iterator[_T], tails: list[_T]) -> Iterator[_T]:
    """head + tail for each head in turn and each tail of the list, at C
    speed: each head is repeated once per tail and added to them in turn."""
    return map(add, chain.from_iterable(map(repeat, heads, repeat(len(tails)))), cycle(tails))


def alt_set_closed_runs(index_set: IndexSet) -> frozenset[tuple[int, ...]]:
    """The alternation set built from the closed-form description.

    Each element is the product of s_j over J, J a nonconsecutive subset of
    the free region chosen independently in each of its runs: the product
    over :func:`free_runs` of each run's :func:`run_sums` of the items (j,).
    The widest run is walked lazily and only the product of the others is
    listed, once; the elements are all listed and then frozen.  Each element
    is built from J directly, as the one-line tuple of the identity with j
    and j+1 swapped for every j in J (J is nonconsecutive, so the swaps
    commute).
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
    return frozenset(elements)
