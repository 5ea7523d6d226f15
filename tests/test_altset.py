"""Tests for index sets, interval partitions, and alternation sets."""

from itertools import chain, product
from math import isqrt

import pytest

from altset_oracle import (
    alt_set_closed_runs,
    alternation_walk,
    free_runs,
    maximal_runs,
    nonconsecutive_subsets,
    reflection_index_sets,
    run_sums,
)
from qmult.altset import (
    AltSet,
    _halves,
    alt_set_brute,
    alt_set_cardinality,
    alt_set_closed,
    fib_profile,
    fibonacci,
)
from qmult.cli import element_words
from qmult.intervals import IndexSet, interval_partition, n_of_complement
from qmult.roots import highest_root, positive_root
from qmult.weyl import CapExceededError, commuting_indices, length
from weyl_helpers import identity, product_of_commuting, simple_reflection, zero_root


def _all_index_sets(rank):
    for mask in range(1, 1 << rank):
        yield IndexSet(rank, (k + 1 for k in range(rank) if mask >> k & 1))


class TestIndexSet:
    def test_normalization(self):
        assert IndexSet(5, [3, 1, 3]).members == (1, 3)
        assert IndexSet(5).members == ()
        assert IndexSet(5).is_empty()

    def test_validation(self):
        with pytest.raises(ValueError):
            IndexSet(4, [0])
        with pytest.raises(ValueError):
            IndexSet(4, [5])
        with pytest.raises(ValueError):
            IndexSet(0, [])

    def test_non_integer_members_are_rejected(self):
        with pytest.raises(TypeError):
            IndexSet(5, [1.5, 5])
        with pytest.raises(TypeError):
            IndexSet(5, ["2"])
        with pytest.raises(TypeError):
            IndexSet(5.0, [1])
        s = IndexSet(5, [True, 5])
        assert s == IndexSet(5, [1, 5])
        assert [type(m) for m in s] == [int, int]

    def test_membership_and_iteration(self):
        s = IndexSet(6, [2, 5])
        assert list(s) == [2, 5]
        assert len(s) == 2
        assert 2 in s and 3 not in s
        assert str(s) == "{2,5}"

    def test_to_root_vector(self):
        assert IndexSet(5, [2, 3]).to_root_vector() == positive_root(2, 3, 5)
        with pytest.raises(ValueError):
            IndexSet(5).to_root_vector()


class TestIntervalPartition:
    def test_maximal_runs(self):
        assert interval_partition(IndexSet(8, [1, 2, 4, 7, 8])) == ((1, 2), (4, 4), (7, 8))
        with pytest.raises(ValueError):
            interval_partition(IndexSet(8, []))
        assert interval_partition(IndexSet(3, [3])) == ((3, 3),)

    def test_neighbour_walk_matches_the_run_derivations(self):
        # fib_profile and the oracle free_runs read the neighbours of 1, I,
        # rank, and interval_partition and n_of_complement split I
        # themselves; each must equal its earlier derivation from maximal_runs
        for r in range(1, 13):
            for index_set in _all_index_sets(r):
                members = set(index_set)
                runs = maximal_runs(members)
                assert interval_partition(index_set) == runs
                gaps = [i_next - j_x + 1 for (_, j_x), (i_next, _) in zip(runs, runs[1:])]
                profile = (runs[0][0], *gaps, r - runs[-1][1] + 1)
                assert fib_profile(index_set) == profile, index_set
                free = maximal_runs(k for k in range(2, r) if k not in members)
                by_width = sorted(free, key=lambda run: (run[1] - run[0], run[0]))
                assert free_runs(index_set) == (by_width or [(2, 1)]), index_set
                comp = set(range(1, r + 1)) - members
                assert n_of_complement(index_set) == len(maximal_runs(comp)), index_set

    def test_interval_partition(self):
        runs = interval_partition(IndexSet(8, [1, 2, 4, 7]))
        assert runs == ((1, 2), (4, 4), (7, 7))
        assert len(runs) == 3
        assert len(interval_partition(IndexSet(5, range(1, 6)))) == 1
        with pytest.raises(ValueError):
            interval_partition(IndexSet(4, []))

    def test_partition_validation(self):
        # the invariants the runs must hold: nonempty, ordered, separated
        assert len(interval_partition(IndexSet(4, [1, 2, 4]))) == 2
        for index_set in _all_index_sets(7):
            runs = interval_partition(index_set)
            assert runs and all(lo <= hi for lo, hi in runs)
            assert all(hi + 2 <= lo for (_, hi), (lo, _) in zip(runs, runs[1:]))

    def test_runs_cover_the_set_exactly(self):
        for index_set in _all_index_sets(7):
            covered = []
            for lo, hi in interval_partition(index_set):
                covered.extend(range(lo, hi + 1))
            assert tuple(covered) == index_set.members


class TestNOfComplement:
    def test_examples(self):
        assert n_of_complement(IndexSet(6, [2, 3])) == 2
        assert n_of_complement(IndexSet(6, [1, 6])) == 1
        assert n_of_complement(IndexSet(5, [1, 2])) == 1
        assert n_of_complement(IndexSet(4, [1, 2, 3, 4])) == 0
        with pytest.raises(ValueError):
            n_of_complement(IndexSet(4, []))

    def test_case_table(self):
        # n(complement) is n-1, n, or n+1 according to which endpoints I holds
        for r in range(1, 11):
            for index_set in _all_index_sets(r):
                n = len(interval_partition(index_set))
                has_1 = 1 in index_set
                has_r = r in index_set
                if has_1 and has_r:
                    expected = n - 1
                elif has_1 or has_r:
                    expected = n
                else:
                    expected = n + 1
                assert n_of_complement(index_set) == expected


class TestFibonacci:
    def test_values(self):
        assert [fibonacci(n) for n in range(1, 11)] == [1, 1, 2, 3, 5, 8, 13, 21, 34, 55]
        with pytest.raises(ValueError):
            fibonacci(0)

    def test_nonconsecutive_subsets_explicit(self):
        assert list(nonconsecutive_subsets(1, 3)) == [(), (3,), (2,), (1,), (1, 3)]
        assert list(nonconsecutive_subsets(4, 3)) == [()]
        with pytest.raises(ValueError):
            nonconsecutive_subsets(5, 3)

    def test_counts_are_fibonacci(self):
        for width in range(21):
            count = sum(1 for _ in nonconsecutive_subsets(1, width))
            assert count == fibonacci(width + 2)

    def test_no_two_consecutive(self):
        for subset in nonconsecutive_subsets(1, 9):
            assert all(b - a >= 2 for a, b in zip(subset, subset[1:]))


class TestFibProfile:
    def test_examples(self):
        assert fib_profile(IndexSet(4, [2])) == (2, 3)
        assert fib_profile(IndexSet(7, [4])) == (4, 4)
        assert fib_profile(IndexSet(6, [1, 6])) == (1, 6, 1)
        assert fib_profile(IndexSet(5, range(1, 6))) == (1, 1)

    def test_profile_length_is_runs_plus_one(self):
        for index_set in _all_index_sets(6):
            assert len(fib_profile(index_set)) == len(interval_partition(index_set)) + 1

    def test_cardinality_examples(self):
        assert alt_set_cardinality(IndexSet(7, [4])) == 9
        assert alt_set_cardinality(IndexSet(6, [1, 6])) == 8
        assert alt_set_cardinality(IndexSet(5, range(1, 6))) == 1

    def test_cardinality_matches_brute_count(self):
        for r in range(1, 6):
            theta = highest_root(r)
            for index_set in _all_index_sets(r):
                brute = alt_set_brute(theta, index_set.to_root_vector())
                assert len(brute) == alt_set_cardinality(index_set)


def _walks_up_to_rank(max_rank):
    for r in range(1, max_rank + 1):
        for index_set in _all_index_sets(r):
            yield index_set, list(alternation_walk(index_set))


class TestAlternationWalk:
    def test_examples(self):
        assert list(alternation_walk(IndexSet(7, [4]))) == [
            ((), 2), ((6,), 3), ((5,), 2), ((3,), 2), ((3, 6), 3), ((3, 5), 2),
            ((2,), 3), ((2, 6), 4), ((2, 5), 3),
        ]
        assert list(alternation_walk(IndexSet(1, [1]))) == [((), 0)]
        assert list(alternation_walk(IndexSet(2, [2]))) == [((), 1)]
        with pytest.raises(ValueError):
            list(alternation_walk(IndexSet(4, [])))

    def test_index_sets_match_the_oracle(self):
        for index_set, walk in _walks_up_to_rank(12):
            got = sorted(chosen for chosen, _ in walk)
            assert got == sorted(reflection_index_sets(index_set)), index_set

    def test_each_element_once_identity_first(self):
        for index_set, walk in _walks_up_to_rank(12):
            chosen = [j for j, _ in walk]
            assert chosen[0] == ()
            assert len(set(chosen)) == len(chosen) == alt_set_cardinality(index_set)

    def test_run_counts_match_maximal_runs(self):
        for index_set, walk in _walks_up_to_rank(12):
            comp = set(range(1, index_set.rank + 1)) - set(index_set)
            for chosen, n in walk:
                assert n == len(maximal_runs(comp - set(chosen))), (index_set, chosen)


class TestRunProduct:
    def test_free_runs_examples(self):
        assert free_runs(IndexSet(7, [4])) == [(2, 3), (5, 6)]
        assert free_runs(IndexSet(9, [3])) == [(2, 2), (4, 8)]
        assert free_runs(IndexSet(9, [6])) == [(7, 8), (2, 5)]
        assert free_runs(IndexSet(6, [1, 6])) == [(2, 5)]
        assert free_runs(IndexSet(5, range(1, 6))) == [(2, 1)]
        assert free_runs(IndexSet(1, [1])) == [(2, 1)]
        assert free_runs(IndexSet(2, [2])) == [(2, 1)]
        with pytest.raises(ValueError):
            free_runs(IndexSet(4, []))

    def test_free_runs_widest_last(self):
        for r in range(1, 10):
            for index_set in _all_index_sets(r):
                runs = free_runs(index_set)
                free = [k for k in range(2, r) if k not in index_set]
                assert sorted(runs) == sorted(maximal_runs(free) or [(2, 1)])
                widths = [hi - lo for lo, hi in runs]
                assert widths[-1] == max(widths), index_set

    def test_run_sums_are_the_oracle_subsets(self):
        for lo in (1, 2, 5):
            for width in range(16):
                hi = lo + width - 1
                got = list(run_sums([(j,) for j in range(lo, hi + 1)], ()))
                assert got[0] == ()
                assert len(set(got)) == len(got) == fibonacci(hi - lo + 3)
                assert got == list(nonconsecutive_subsets(lo, hi)), (lo, hi)

    def test_product_matches_the_walk_oracle(self):
        # the product over the runs of their subsets, taken by hand and by
        # alt_set_closed (its elements decoded to J), is the walk's J set,
        # each J once
        for index_set, walk in _walks_up_to_rank(12):
            per_run = [run_sums([(j,) for j in range(lo, hi + 1)], ())
                       for lo, hi in free_runs(index_set)]
            by_hand = [tuple(sorted(chain.from_iterable(js))) for js in product(*per_run)]
            closed = [commuting_indices(w) for w in alt_set_closed(index_set).elements]
            expected = {chosen for chosen, _ in walk}
            for got in (by_hand, closed):
                assert len(set(got)) == len(got) == alt_set_cardinality(index_set)
                assert set(got) == expected, index_set


class TestAltSetClosed:
    def test_full_interval_leaves_only_identity(self):
        aset = alt_set_closed(IndexSet(3, [1, 2, 3]))
        assert aset.elements == frozenset([identity(3)])

    def test_single_index_rank4(self):
        aset = alt_set_closed(IndexSet(4, [2]))
        assert aset.elements == frozenset([identity(4), simple_reflection(3, 4)])
        assert len(aset.elements) == 2

    def test_rank7_center(self):
        aset = alt_set_closed(IndexSet(7, [4]))
        assert len(aset.elements) == 9
        assert element_words(aset.elements) == [
            "1", "s2", "s3", "s5", "s6", "s2*s5", "s2*s6", "s3*s5", "s3*s6"
        ]

    def test_matches_the_product_construction(self):
        # the construction before permutations were built from J directly
        for index_set, walk in _walks_up_to_rank(12):
            r = index_set.rank
            expected = frozenset(product_of_commuting(j, r) for j, _ in walk)
            assert alt_set_closed(index_set).elements == expected, index_set

    def test_length_is_the_number_of_reflections(self):
        # element_words sorts a commuting product by len(J), not by length
        for index_set, walk in _walks_up_to_rank(10):
            by_indices = {commuting_indices(w): w
                          for w in alt_set_closed(index_set).elements}
            assert sorted(by_indices) == sorted(j for j, _ in walk), index_set
            for j, w in by_indices.items():
                assert length(w) == len(j), (index_set, j)

    def test_elements_draw_only_on_free_indices(self):
        for r, members in ((6, [2, 5]), (7, [4]), (8, [3, 6]), (5, [1, 5])):
            index_set = IndexSet(r, members)
            free = set(range(2, r)) - set(members)
            for w in alt_set_closed(index_set).elements:
                indices = commuting_indices(w)
                assert indices is not None
                assert set(indices) <= free

    def test_removing_a_factor_stays_inside(self):
        for r, members in ((6, [2, 5]), (7, [4]), (5, [1, 5]), (8, [3, 6])):
            aset = alt_set_closed(IndexSet(r, members))
            for w in aset.elements:
                indices = commuting_indices(w)
                for k in indices:
                    rest = tuple(x for x in indices if x != k)
                    assert product_of_commuting(rest, r) in aset.elements

    def test_certificate_mismatch_rejected(self):
        # a miscounted set is the builder's fault, not the index set's
        with pytest.raises(RuntimeError, match="0 elements but Fibonacci profile gives 2"):
            AltSet(mu=IndexSet(3, [3]), elements=frozenset())

    def test_empty_index_set_rejected(self):
        with pytest.raises(ValueError):
            alt_set_closed(IndexSet(4, []))


class TestClosedVersusRunsOracle:
    """alt_set_closed, which joins the words of one cut of the coordinate
    strip, against the builder it replaced, which walks J run by run."""

    def test_every_index_set_up_to_rank12(self):
        for index_set in chain.from_iterable(_all_index_sets(r) for r in range(1, 13)):
            assert alt_set_closed(index_set).elements == alt_set_closed_runs(index_set), index_set

    def test_wide_skewed_and_empty_free_regions(self):
        cases = [
            (13, [13]), (16, [1, 16]), (20, [7, 20]),  # widest free runs of 11, 14, 12
            (40, range(2, 25)), (40, range(16, 40)),  # the free region at one end
            (22, [21]),
            (1, [1]), (2, [1]), (2, [2]), (2, [1, 2]),
            (5, range(1, 6)),  # no free index
        ]
        for r, members in cases:
            index_set = IndexSet(r, members)
            assert alt_set_closed(index_set).elements == alt_set_closed_runs(index_set), index_set

    def test_the_cut_is_balanced(self):
        # the words joined across the cut number O(sqrt |A|), and their
        # products account for every element once
        sets = [*chain.from_iterable(_all_index_sets(r) for r in range(1, 11)),
                IndexSet(40, range(2, 25)), IndexSet(40, range(16, 40)), IndexSet(30, [1])]
        for index_set in sets:
            size = alt_set_cardinality(index_set)
            pairs = _halves(index_set)
            assert sum(len(heads) * len(tails) for heads, tails in pairs) == size
            joined = sum(len(heads) + len(tails) for heads, tails in pairs)
            assert joined <= 4 * (isqrt(size - 1) + 1) + 2 * (index_set.rank + 1), index_set


class TestAltSetBrute:
    def test_mu_zero_small_ranks(self):
        assert alt_set_brute(highest_root(2), zero_root(2)) == frozenset([identity(2)])
        assert alt_set_brute(highest_root(3), zero_root(3)) == frozenset(
            [identity(3), simple_reflection(2, 3)]
        )

    def test_single_simple_root_rank4(self):
        got = alt_set_brute(highest_root(4), positive_root(2, 2, 4))
        assert got == frozenset([identity(4), simple_reflection(3, 4)])

    def test_prior_zero_weight_description(self):
        # mu = 0: nonconsecutive subsets of [2, r-1]
        for r in range(2, 6):
            expected = frozenset(
                product_of_commuting(s, r) for s in nonconsecutive_subsets(2, r - 1)
            )
            assert alt_set_brute(highest_root(r), zero_root(r)) == expected

    def test_prior_interval_weight_description(self):
        # mu = alpha_{i..j}: independent nonconsecutive picks left and right;
        # clamps make the pick region canonically empty at the boundary
        for r, i, j in ((4, 2, 3), (5, 2, 3), (5, 1, 4), (5, 3, 5), (6, 2, 5)):
            expected = set()
            for left in nonconsecutive_subsets(2, max(i - 1, 1)):
                for right in nonconsecutive_subsets(min(j + 1, r), r - 1):
                    expected.add(product_of_commuting(left + right, r))
            got = alt_set_brute(highest_root(r), positive_root(i, j, r))
            assert got == frozenset(expected)

    def test_rank_mismatch_and_cap(self):
        with pytest.raises(ValueError):
            alt_set_brute(highest_root(3), zero_root(4))
        with pytest.raises(CapExceededError):
            alt_set_brute(highest_root(12), zero_root(12))
        with pytest.raises(CapExceededError):
            alt_set_brute(highest_root(4), zero_root(4), cap=3)


class TestClosedVersusBrute:
    def test_all_index_sets_up_to_rank5(self):
        for r in range(1, 6):
            theta = highest_root(r)
            for index_set in _all_index_sets(r):
                closed = alt_set_closed(index_set)
                brute = alt_set_brute(theta, index_set.to_root_vector())
                assert closed.elements == brute
