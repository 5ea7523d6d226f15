"""Tests for the q-analog partition function and its cross-checks."""

import itertools
import json
import random
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from closed_forms import kostant_q_interval_closed_form, kostant_q_rank2, kostant_q_rank3
from qmult import partition
from qmult.altset import WeylSweep
from qmult.cli import main
from qmult.intervals import IndexSet, interval_partition
from qmult.partition import (
    DEFAULT_ORACLE_CAP,
    PartitionTable,
    factorize_over_intervals,
    kostant_q,
    kostant_q_oracle,
    table_for,
)
from qmult.poly import ONE, Q, ZERO, QPolynomial
from qmult.roots import RootVector, highest_root, positive_root
from qmult.weyl import CapExceededError
import partition_oracle
from partition_oracle import (
    kostant_q_by_rank,
    kostant_q_shared,
    kostant_q_sibling,
    kostant_q_sum_lists,
    kostant_q_sum_states,
    kostant_q_sum_tuples,
)
from weyl_helpers import zero_root

# the benchmark's seeded inputs, whose weights pass the oracle's cap
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

capped_vectors = st.integers(min_value=1, max_value=5).flatmap(
    lambda r: st.lists(st.integers(min_value=-2, max_value=4), min_size=r, max_size=r)
).filter(lambda cs: sum(abs(c) for c in cs) <= 14).map(
    lambda cs: RootVector(len(cs), cs)
)


class TestKostantQ:
    def test_zero_vector(self):
        assert kostant_q(zero_root(4)) == ONE
        assert kostant_q(zero_root(4)).eval_at_one() == 1

    def test_single_simple_root(self):
        assert kostant_q(positive_root(2, 2, 3)) == Q
        assert kostant_q(positive_root(1, 1, 1)).eval_at_one() == 1

    def test_negative_coefficient_gives_zero(self):
        assert kostant_q(RootVector(3, (-1, 0, 0))) == ZERO
        assert kostant_q(RootVector(3, (1, -1, 1))) == ZERO
        assert kostant_q(RootVector(2, (-2, 3))).eval_at_one() == 0

    def test_highest_root_rank3(self):
        # four multisets: one, two, two and three roots respectively
        assert kostant_q(highest_root(3)) == QPolynomial([0, 1, 2, 1])
        assert kostant_q(highest_root(3)).eval_at_one() == 4

    def test_hand_counted_non_indicator_values_rank2(self):
        assert kostant_q(RootVector(2, (1, 2))) == Q ** 3 + Q ** 2
        assert kostant_q(RootVector(2, (2, 1))) == Q ** 3 + Q ** 2
        assert kostant_q(RootVector(2, (2, 2))) == Q ** 4 + Q ** 3 + Q ** 2

    def test_two_runs_factor_rank7(self):
        xi = IndexSet(7, [2, 3, 5, 6]).to_root_vector()
        assert kostant_q(xi) == (Q * (Q + 1)) ** 2

    def test_table_reuse_and_fresh_tables_agree(self):
        xi = RootVector(3, (2, 1, 2))
        fresh_a = PartitionTable(3)
        fresh_b = PartitionTable(3)
        assert fresh_a.kostant_q(xi) == fresh_b.kostant_q(xi) == table_for(3).kostant_q(xi)
        assert fresh_a.kostant_q(xi) == fresh_a.kostant_q(xi)

    def test_tables_are_views_of_the_shared_memo(self):
        assert vars(PartitionTable(3)) == {"rank": 3}
        assert table_for(3) is table_for(3)

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            table_for(3).kostant_q(zero_root(2))
        with pytest.raises(ValueError):
            PartitionTable(0)


class TestSharedMemo:
    """The answer cache and division pass against the DPs they replaced; the
    sibling-reuse memo DP's own internals, now an oracle in
    ``partition_oracle``, against its predecessor."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_agrees_with_rank_dp_on_partition_workload(self, seed):
        # weights up to 183, far beyond the backtracking oracle's cap
        for xi in workloads.generate("partition", seed)["xis"]:
            assert kostant_q(RootVector(len(xi), xi)) == kostant_q_by_rank(xi)

    @given(st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=6),
           st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=2))
    def test_agrees_with_rank_dp_and_ignores_zero_padding(self, xi, left, right):
        value = kostant_q(RootVector(len(xi), xi))
        assert value == kostant_q_by_rank(xi)
        padded = [0] * left + xi + [0] * right
        assert kostant_q(RootVector(len(padded), padded)) == kostant_q_by_rank(padded) == value

    def test_zero_padding_adds_no_memo_entries(self):
        kostant_q(RootVector(3, (3, 1, 2)))
        size = len(partition._CACHE)
        assert kostant_q(RootVector(6, (0, 0, 3, 1, 2, 0))) == kostant_q(RootVector(3, (3, 1, 2)))
        assert len(partition._CACHE) == size

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_agrees_with_predecessor_on_partition_workload(self, seed):
        for xi in workloads.generate("partition", seed)["xis"]:
            assert kostant_q(RootVector(len(xi), xi)) == kostant_q_shared(xi) == kostant_q_sibling(xi)

    @given(st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=6))
    @example([5, 1, 5])  # reaches (5, 1, 5) with only the full-width root left: zero
    def test_agrees_with_predecessor(self, xi):
        assert kostant_q(RootVector(len(xi), xi)) == kostant_q_shared(xi) == kostant_q_sibling(xi)

    def test_last_root_is_forced(self):
        # only alpha_{1,3} is left at slot 0: it must be used xi[0] times
        partition_oracle._SIBLING_MEMO.clear()
        assert partition_oracle._sibling_solve((5, 1, 5), 3) == ZERO
        assert partition_oracle._sibling_solve((1, 1, 2), 3) == Q * kostant_q(RootVector(3, (0, 0, 1)))
        assert set(partition_oracle._SIBLING_MEMO) == {((5, 1, 5), 3), ((1, 1, 2), 3), ((1,), 1)}

    def test_sibling_is_reused(self, monkeypatch):
        # (4, 5, 5) is (5, 6, 5) less one alpha_{1,2}: its copies are the
        # parent's copies from the second on, so only the parent's child
        # with no copy, (5, 6, 5) at length 3, is computed
        memo = partition_oracle._SIBLING_MEMO
        memo.clear()
        partition_oracle._sibling_solve((4, 5, 5), 2)
        before = set(memo)
        solve, calls = partition_oracle._sibling_solve, []
        monkeypatch.setattr(partition_oracle, "_sibling_solve",
                            lambda *args: calls.append(args) or solve(*args))
        value = solve((5, 6, 5), 2)
        monkeypatch.undo()
        assert value == partition_oracle._solve((5, 6, 5), 2)
        assert set(memo) - before == {((5, 6, 5), 2), ((5, 6, 5), 3)}
        assert calls == [((5, 6, 5), 3), ((0, 1, 0), 1)]

    def test_stripped_sibling_is_not_probed(self):
        # at xi[0] == 1 the sibling (0, 2, 3) strips to another key, so the
        # unstripped key is never read: a wrong value planted there is unseen
        memo = partition_oracle._SIBLING_MEMO
        memo.clear()
        memo[((0, 2, 3), 2)] = ZERO
        assert (partition_oracle._sibling_solve((1, 3, 3), 2)
                == partition_oracle._solve((1, 3, 3), 2))
        memo.clear()

    def test_memo_keys_equal_predecessors_on_partition_workload(self):
        partition_oracle._SIBLING_MEMO.clear()
        partition_oracle._MEMO.clear()
        for xi in workloads.generate("partition", 1)["xis"]:
            kostant_q_sibling(xi)
            kostant_q_shared(xi)
        assert len(partition_oracle._SIBLING_MEMO) == 22142
        assert partition_oracle._SIBLING_MEMO == partition_oracle._MEMO

    @pytest.mark.parametrize("xi", [(60, 59, 61), (20, 19, 21, 20)])
    def test_memo_keys_equal_predecessors_beyond_the_workload(self, xi):
        partition_oracle._SIBLING_MEMO.clear()
        partition_oracle._MEMO.clear()
        assert kostant_q_sibling(xi) == kostant_q_shared(xi) == kostant_q(RootVector(len(xi), xi))
        assert partition_oracle._SIBLING_MEMO == partition_oracle._MEMO


class TestDivisionPass:
    """The pass on single xi, unstripped, and the answer cache's size."""

    @given(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=6),
           st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=2))
    @example([5, 1, 5], 0, 0)
    @example([2, 0, 3], 1, 1)
    def test_agrees_with_every_other_dp(self, xi, left, right):
        # padded and interior-zero xi go through the pass as they are, with
        # only the empty xi cached
        padded = tuple([0] * left + xi + [0] * right)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(partition, "_CACHE", {(): ONE})
            value = partition._divide({padded: 1})
        assert value == kostant_q_by_rank(padded) == kostant_q_sibling(padded)
        if sum(xi) <= partition.DEFAULT_ORACLE_CAP:
            assert value == kostant_q_oracle(RootVector(len(padded), padded))

    def test_weights_are_signed_and_cancel(self, monkeypatch):
        monkeypatch.setattr(partition, "_CACHE", {(): ONE})
        assert partition._divide({(2, 1): 3, (1, 2): -1}) == \
            3 * kostant_q_by_rank((2, 1)) - kostant_q_by_rank((1, 2))
        assert partition._divide({(2, 1): 1, (1, 2): -1}) == ZERO
        # (1, 1, 1) less alpha_1 lands on (0, 1, 1), whose slot 0 is clear
        assert partition._divide({(1, 1, 1): 2, (0, 1, 1): -1}) == \
            2 * kostant_q_by_rank((1, 1, 1)) - kostant_q_by_rank((0, 1, 1))
        assert partition._divide({}) == ZERO
        assert partition._divide({(): -2}) == QPolynomial([-2])
        assert partition._CACHE.keys() == {()}

    def test_cached_states_are_read_not_divided(self, monkeypatch):
        # a wrong value planted in the cache is read for a state that
        # reaches it, at the start or after a slot is cleared
        monkeypatch.setattr(partition, "_CACHE", {(): ONE, (1,): 5 * Q})
        assert partition._divide({(0, 1): 1}) == 5 * Q
        # alpha_{1,2} once, or alpha_1 and then alpha_2 read as 5q
        assert partition._divide({(1, 1): 1}) == Q + 5 * Q ** 2

    def test_a_call_the_cache_answers_whole_is_summed_unpacked(self, monkeypatch):
        # every state of nonzero weight is cached once its end zeros are
        # stripped: the planted values are summed with no K, pack or unpack
        monkeypatch.setattr(partition, "_CACHE", {(): ONE, (1,): 5 * Q, (2, 1): Q + 7})

        def refuse(*args):
            raise AssertionError("packed")

        monkeypatch.setattr(partition, "pack", refuse)
        monkeypatch.setattr(partition, "unpack", refuse)
        weights = {(0, 1, 0): 3, (2, 1, 0): -2, (0, 0, 0): 4, (3, 3, 3): 0}
        assert partition._divide(weights) == 3 * 5 * Q - 2 * (Q + 7) + 4
        assert partition._divide({(1, 0): 1, (0, 1): -1}) == ZERO
        # one state the cache lacks sends the call through the pass
        with pytest.raises(AssertionError, match="packed"):
            partition._divide({(0, 1, 0): 1, (1, 1, 0): 1})
        assert partition._CACHE.keys() == {(), (1,), (2, 1)}

    def test_cache_holds_one_entry_per_query(self, monkeypatch):
        monkeypatch.setattr(partition, "_CACHE", {(): ONE})
        assert kostant_q(RootVector(3, (60, 59, 61))) == kostant_q_sibling((60, 59, 61))
        assert partition._CACHE.keys() == {(), (60, 59, 61)}
        assert kostant_q(zero_root(3)) == ONE
        assert len(partition._CACHE) == 2


@st.composite
def weighted_xis(draw):
    """{xi: w} at rank <= 5: one to eight xi in [0, 4]^rank with signed
    weights, small or far beyond 2^64."""
    r = draw(st.integers(min_value=1, max_value=5))
    xi = st.lists(st.integers(min_value=0, max_value=4), min_size=r, max_size=r).map(tuple)
    weight = st.one_of(st.integers(min_value=-3, max_value=3),
                       st.integers(min_value=-10 ** 30, max_value=10 ** 30),
                       st.sampled_from([10 ** 20 + 1, -(10 ** 25), 2 ** 64, -(2 ** 64) + 1]))
    return draw(st.dictionaries(xi, weight, min_size=1, max_size=8))


def _sweep_weights(mu):
    """The {xi: signed weight} that ``signed_sum`` divides for the pruned
    sweep of the highest root at mu."""
    r = len(mu)
    weights: dict = {}
    for _, sign, xi in WeylSweep(highest_root(r), RootVector(r, mu)):
        weights[xi] = weights.get(xi, 0) + sign
    return weights


class TestPackedPass:
    """The pass on packed weights held in one list per tail xi[1:] against
    the three passes it replaced, which read the same answer cache: the list
    pass that built each full-width state by its own tuple and walked lines
    from their tops, the per-state packed pass and the coefficient-tuple
    pass before it."""

    @staticmethod
    def check(weights, cache):
        keys = set(cache)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(partition, "_CACHE", cache)
            assert (partition._divide(weights) == kostant_q_sum_lists(weights)
                    == kostant_q_sum_states(weights) == kostant_q_sum_tuples(weights))
        assert cache.keys() == keys  # the passes only read the cache

    @given(weighted_xis())
    @example({(4, 4, 4, 4, 4): 10 ** 30, (4, 3, 4, 4, 4): -(10 ** 30) + 1})
    @example({(1, 0, 2): 2 ** 64, (0, 0, 0): -1, (2, 2, 2): -(2 ** 64)})
    # width 1: every list goes whole to the empty xi
    @example({(3,): 2, (0,): -1, (1,): 5})
    # xi[0] = 0 on entry, on tails that also hold a state with xi[0] > 0
    @example({(0, 2, 1): 3, (0, 0, 4): -1, (2, 2, 1): 1, (1, 0, 4): 2})
    # the total cancels to zero
    @example({(2, 1): 1, (1, 2): -1})
    # a line sum that cancels to all zeros, and one whose last entry cancels
    @example({(3, 1, 3): -2, (3, 2, 3): 2})
    @example({(3, 3, 3): -1, (1, 2, 3): -2, (3, 1, 3): 1})
    # padded, with interior zeros
    @example({(0, 2, 0, 3, 0): 1, (0, 1, 0, 2, 0): -4})
    # long lists at the full-width root, at rank 3 and 4
    @example({(30, 31, 30): 1})
    @example({(12, 13, 12, 12): 1, (11, 13, 12, 10): -2})
    # a width-1 round whose list, q, q^2 - q and -q^2 once shifted, sums to 0
    @example({(1, 3): -1, (2, 2): 1})
    # signed entries that cancel on one state of the full-width root
    @example({(3, 3): 2, (3, 1): -2})
    @example({(1, 2, 3): -2, (2, 0, 2): 2})
    def test_agrees_with_tuple_pass_on_signed_weights(self, weights):
        # cold, with the cache holding the values of every other xi, and
        # with it holding every xi, which no round divides
        self.check(weights, {(): ONE})
        cache = {partition._strip(xi): kostant_q_by_rank(xi) for xi in list(weights)[::2]}
        self.check(weights, {(): ONE, **cache})
        full = {partition._strip(xi): kostant_q_by_rank(xi) for xi in weights}
        self.check(weights, {(): ONE, **full})

    @settings(max_examples=40)
    @given(st.integers(min_value=5, max_value=7).flatmap(
        lambda r: st.lists(st.integers(min_value=-2, max_value=1), min_size=r, max_size=r)))
    @example([-3] * 7)  # the brute route's weights at rank 7, mu = -3 everywhere
    @example([-2] * 7)
    @example([-2, 1, -2, 0, -1, 1, -2])
    @example([0, -1, 0, 0, -1])
    def test_agrees_with_tuple_pass_on_sweep_inputs(self, mu):
        # mu in [-2, 2]^r, less the mu with a coordinate 2: theta - mu, the
        # identity's xi, tops every row's xi, so their sweeps are empty
        weights = _sweep_weights(mu)
        assert weights
        self.check(weights, {(): ONE})
        # warm: the first rows' values cached, as the rank <= 8 kostant_q
        # check in verify leaves them before its brute sum
        warm = {partition._strip(xi): kostant_q_by_rank(xi) for xi in list(weights)[:6]}
        self.check(weights, {(): ONE, **warm})
        # every row's value cached, as verify's brute sums mostly find them
        full = {partition._strip(xi): kostant_q_by_rank(xi) for xi in weights}
        self.check(weights, {(): ONE, **full})

    def test_peak_memory_is_at_most_the_predecessors(self):
        # tracemalloc counts the objects each pass allocates, so both peaks
        # are deterministic; the per-state pass holds a round's line sums
        # in dicts of dicts, one entry per state
        values, peaks = [], []
        for divide in (partition._divide, kostant_q_sum_states):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(partition, "_CACHE", {(): ONE})
                tracemalloc.start()
                try:
                    values.append(divide({(100, 100, 100): 1}))
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
        assert values[0] == values[1]
        assert peaks[0] <= peaks[1], peaks

    def test_width_grows_with_the_weights(self):
        # sum |w| * C(m + N, N) = (10^40 + 1) * C(3 + 3, 3), so K = 139
        weights = {(1, 2): 10 ** 40, (2, 1): 1}
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(partition, "_CACHE", {(): ONE})
            assert partition._divide(weights) == (
                10 ** 40 * kostant_q_by_rank((1, 2)) + kostant_q_by_rank((2, 1)))


class TestOracle:
    def test_small_values(self):
        assert kostant_q_oracle(positive_root(1, 2, 2)) == Q ** 2 + Q
        assert kostant_q_oracle(zero_root(3)) == ONE
        assert kostant_q_oracle(RootVector(2, (-1, 1))) == ZERO
        assert kostant_q_oracle(highest_root(3)) == QPolynomial([0, 1, 2, 1])

    def test_cap(self):
        assert DEFAULT_ORACLE_CAP == 20
        with pytest.raises(CapExceededError):
            kostant_q_oracle(RootVector(3, (7, 7, 7)))
        with pytest.raises(CapExceededError):
            kostant_q_oracle(RootVector(3, (0, 21, 0)))
        with pytest.raises(CapExceededError):
            kostant_q_oracle(RootVector(2, (10, 11)))
        assert kostant_q_oracle(RootVector(2, (10, 10))) == kostant_q(RootVector(2, (10, 10)))

    def test_negative_coefficient_is_zero_before_the_cap(self):
        # the cap bounds the enumeration, which a negative xi never starts
        assert kostant_q_oracle(RootVector(3, (-30, 1, 1))) == ZERO
        assert kostant_q_oracle(RootVector(2, (-1, 30))) == ZERO

    def test_agrees_with_recursion_exhaustively_rank3(self):
        for cs in itertools.product(range(4), repeat=3):
            xi = RootVector(3, cs)
            assert kostant_q_oracle(xi) == kostant_q(xi)

    @given(capped_vectors)
    def test_agrees_with_recursion_on_random_vectors(self, xi):
        assert kostant_q_oracle(xi) == kostant_q(xi)


class TestValueInvariants:
    @given(capped_vectors)
    def test_nonnegative_coefficients_and_zero_constant_term(self, xi):
        p = kostant_q(xi)
        assert all(c >= 0 for c in p.coeffs)
        if xi.is_zero():
            assert p == ONE
        elif p.coeffs:
            assert p.coeffs[0] == 0
            assert p.degree <= sum(xi.coeffs)

    def test_shift_invariance(self):
        # The value at an interval indicator with inner simple roots removed
        # only depends on the 0/1 pattern, not on where the interval sits.
        rng = random.Random(7)
        for _ in range(50):
            r = rng.randint(2, 7)
            i = rng.randint(1, r)
            j = rng.randint(i, r)
            pattern = [rng.randint(0, 1) for _ in range(j - i + 1)]
            wide = RootVector(
                r, [pattern[k - i] if i <= k <= j else 0 for k in range(1, r + 1)]
            )
            assert kostant_q(wide) == kostant_q(RootVector(j - i + 1, pattern))


class TestClosedFormAndFactorization:
    def test_interval_closed_form_examples(self):
        assert kostant_q_interval_closed_form(2, 2, 3) == Q
        assert kostant_q_interval_closed_form(3, 5, 6) == Q * (Q + 1) ** 2
        assert kostant_q_interval_closed_form(1, 4, 4) == QPolynomial([0, 1, 3, 3, 1])
        with pytest.raises(ValueError):
            kostant_q_interval_closed_form(3, 2, 5)
        with pytest.raises(ValueError):
            kostant_q_interval_closed_form(1, 6, 5)

    def test_rank4_interval_matches_oracle(self):
        assert kostant_q_oracle(positive_root(1, 4, 4)) == QPolynomial([0, 1, 3, 3, 1])

    def test_closed_form_matches_recursion(self):
        for r in range(1, 9):
            for i in range(1, r + 1):
                for j in range(i, r + 1):
                    expected = kostant_q_interval_closed_form(i, j, r)
                    assert kostant_q(positive_root(i, j, r)) == expected
                    assert kostant_q_oracle(positive_root(i, j, r)) == expected

    def test_factorize_examples(self):
        assert factorize_over_intervals(IndexSet(7, [2, 3, 5, 6])) == (Q * (Q + 1)) ** 2
        assert factorize_over_intervals(IndexSet(3, [1])) == Q
        assert factorize_over_intervals(IndexSet(4, range(1, 5))) == \
            kostant_q(highest_root(4))
        with pytest.raises(ValueError):
            factorize_over_intervals(IndexSet(4, []))

    def test_factorization_agrees_with_direct_evaluation(self, monkeypatch):
        # with a cold cache, then a warm one, against the pass on alpha_I and
        # against the product of kostant_q over each run's positive_root
        monkeypatch.setattr(partition, "_CACHE", {(): ONE})
        for r in range(1, 9):
            for mask in range(1, 1 << r):
                index_set = IndexSet(r, (k + 1 for k in range(r) if mask >> k & 1))
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(partition, "_CACHE", {(): ONE})
                    cold = factorize_over_intervals(index_set)
                direct = kostant_q(index_set.to_root_vector())
                old = ONE
                for lo, hi in interval_partition(index_set):
                    old = old * kostant_q(positive_root(lo, hi, r))
                assert cold == factorize_over_intervals(index_set) == direct == old


class TestClosedSums:
    """The pass, cold, against the rank-2 and rank-3 closed sums of
    ``closed_forms``, which count multisets of roots without dividing, at
    widths far beyond ``kostant_q_oracle``'s cap, where the packing width K
    matters most."""

    def test_closed_sums_match_the_oracle(self):
        for a, b, c in itertools.product(range(5), repeat=3):
            assert kostant_q_rank2(a, b) == kostant_q_oracle(RootVector(2, (a, b)))
            assert kostant_q_rank3(a, b, c) == kostant_q_oracle(RootVector(3, (a, b, c)))
        assert kostant_q_rank2(-1, 3) == kostant_q_rank3(2, -1, 2) == ZERO

    @given(st.integers(min_value=0, max_value=300), st.integers(min_value=0, max_value=300))
    @example(300, 300)
    @example(0, 7)
    def test_rank2(self, a, b):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(partition, "_CACHE", {(): ONE})
            assert kostant_q(RootVector(2, (a, b))) == kostant_q_rank2(a, b)

    @settings(max_examples=25)
    @given(st.tuples(st.integers(min_value=0, max_value=250),
                     st.integers(min_value=0, max_value=250),
                     st.integers(min_value=0, max_value=250)))
    @example((59, 61, 59))  # the benchmark's seed-1 rank-3 xi
    @example((250, 3, 250))
    @example((0, 40, 0))
    def test_rank3(self, xi):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(partition, "_CACHE", {(): ONE})
            assert kostant_q(RootVector(3, xi)) == kostant_q_rank3(*xi)

    def test_rank3_cli_at_400(self, capsys, monkeypatch):
        # K = 53 here; a pass with K forced down to 16 at rank 3 fails here
        # first, while its largest coefficient still fits at every xi <= 250
        monkeypatch.setattr(partition, "_CACHE", {(): ONE})
        code = main(["partition", "--rank", "3", "--xi", "400,400,400", "--format", "json"])
        assert code == 0
        coeffs = json.loads(capsys.readouterr().out)["coeffs"]
        assert tuple(coeffs) == kostant_q_rank3(400, 400, 400).coeffs
