"""Tests for the four q-multiplicity routes and their agreement."""

import itertools
import math
import random
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altset_oracle import (
    alternation_walk,
    m_q_altset_tally,
    term_tally,
    term_tally_runs,
    term_tally_streamed,
)
from poly_helpers import Poly, Q
from qmult import partition
from qmult.altset import WeylSweep, alt_set_cardinality, alt_set_closed, fibonacci
from qmult.intervals import IndexSet, interval_partition
from closed_forms import (
    m_q_closed_general_chain,
    m_q_closed_positive_root,
    m_q_closed_two_intervals,
    m_q_rank_reduction_chain,
)
from qmult.multiplicity import (
    m_q_altset,
    m_q_brute,
    m_q_closed_general,
    m_q_closed_zero,
    m_q_rank_reduction,
    signed_sum,
)
from qmult.partition import kostant_q
from qmult.poly import ONE, ZERO, QPolynomial
from qmult.roots import RootVector, embed, highest_root, positive_root
from qmult.weyl import CapExceededError
from weyl_helpers import (
    WeightVector,
    add,
    apply,
    rho_coords,
    root_add,
    root_sub,
    sign,
    sub,
    to_root_basis,
    zero_root,
)
from weyl_oracle import signed_sum_per_row

# the benchmark's seeded rank-28 index sets
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402


def _all_index_sets(rank):
    for mask in range(1, 1 << rank):
        yield IndexSet(rank, (k + 1 for k in range(rank) if mask >> k & 1))


class TestBrute:
    def test_mu_zero_rank3(self):
        res = m_q_brute(highest_root(3), zero_root(3))
        assert res.value == Q + Q ** 2 + Q ** 3
        assert res.method == "brute"
        assert res.terms_evaluated == math.factorial(4)

    def test_interval_mu_rank4(self):
        res = m_q_brute(highest_root(4), positive_root(2, 3, 4))
        assert res.value == Q ** 2
        assert res.terms_evaluated == 120

    def test_mu_equals_lam(self):
        assert m_q_brute(highest_root(3), highest_root(3)).value == ONE

    def test_arbitrary_mu_can_vanish(self):
        # mu outside the weight grid of interest still computes exactly
        res = m_q_brute(highest_root(3), RootVector(3, (2, 0, 0)))
        assert res.value.eval_at_one() >= 0

    def test_rank_mismatch_and_cap(self):
        with pytest.raises(ValueError):
            m_q_brute(highest_root(3), zero_root(4))
        with pytest.raises(CapExceededError):
            m_q_brute(highest_root(12), zero_root(12))


@st.composite
def lam_and_mu(draw):
    """(lam, mu) at rank <= 6: lam the highest root or a random lam >= 0,
    mu in [-4, 2]^rank."""
    r = draw(st.integers(min_value=1, max_value=6))
    lam = draw(st.one_of(
        st.just(highest_root(r)),
        st.lists(st.integers(min_value=0, max_value=2), min_size=r, max_size=r)
        .map(lambda cs: RootVector(r, cs))))
    mu = draw(st.lists(st.integers(min_value=-4, max_value=2), min_size=r, max_size=r))
    return lam, RootVector(r, mu)


class TestSignedSum:
    """The rows of a sweep divided together against one query per row."""

    @staticmethod
    def check_cold_and_warm(lam, mu):
        rows = list(WeylSweep(lam, mu))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(partition, "_CACHE", {(): ONE})
            cold = signed_sum(rows)
            assert partition._CACHE.keys() == {()}
            per_row = signed_sum_per_row(rows)  # caches every row's xi
            warm = signed_sum(rows)
        assert cold == per_row == warm
        return rows

    @settings(max_examples=100)
    @given(lam_and_mu())
    def test_agrees_with_per_row_sum_cold_and_warm(self, pair):
        self.check_cold_and_warm(*pair)

    def test_agrees_with_per_row_sum_on_seeded_draws(self):
        # Hypothesis favours small draws, whose sweeps are often empty;
        # these are drawn at ranks 4-6 and kept only with a row
        rng = random.Random(12)
        kept = 0
        while kept < 40:
            r = rng.randint(4, 6)
            lam = (highest_root(r) if rng.random() < 0.5
                   else RootVector(r, [rng.randint(0, 2) for _ in range(r)]))
            mu = RootVector(r, [rng.randint(-4, 2) for _ in range(r)])
            kept += bool(self.check_cold_and_warm(lam, mu))

    @pytest.mark.parametrize("mu", [(0, 0), (-1, -1), (-2, 0), (1, -2), (-3, -3)])
    def test_equal_xi_of_opposite_sign_cancel(self, mu):
        # lam + rho = (3, 0, 0) repeats a coordinate, so sigma and sigma
        # followed by swapping the two zeros give one xi with both signs
        lam = RootVector(2, (1, 0))
        assert tuple(a + b for a, b in zip(embed(lam), (2, 1, 0))) == (3, 0, 0)
        rows = list(WeylSweep(lam, RootVector(2, mu)))
        signs: dict = {}
        for _, sign, xi in rows:
            signs.setdefault(xi, []).append(sign)
        assert rows and all(sorted(s) == [-1, 1] for s in signs.values())
        assert signed_sum(rows) == signed_sum_per_row(rows) == ZERO

    def test_brute_caches_nothing(self, monkeypatch):
        monkeypatch.setattr(partition, "_CACHE", {(): ONE})
        sweep = WeylSweep(highest_root(8), RootVector(8, (-2,) * 8))
        value = signed_sum(sweep)
        assert sweep.leaves == 1228
        assert value == m_q_brute(highest_root(8), RootVector(8, (-2,) * 8)).value
        assert partition._CACHE.keys() == {()}
        kostant_q(RootVector(3, (60, 59, 61)))
        assert len(partition._CACHE) == 2


class TestAltsetSum:
    # free runs of 22, 13, 19 and 18 indices, each the widest of its set
    WIDE_RUNS = [IndexSet(24, [1]), IndexSet(28, [5, 19, 26]), IndexSet(22, [21]),
                 IndexSet(20, [1, 20])]

    @staticmethod
    def _benchmark_sets():
        # the rank-28 index sets of the altset benchmark, seeds 1-8
        sets = []
        for seed in range(1, 9):
            inputs = workloads.generate("altset", seed)
            sets += [IndexSet(inputs["rank"], members) for members in inputs["index_sets"]]
        assert len(sets) == 24
        return sets

    def test_full_interval(self):
        res = m_q_altset(IndexSet(5, range(1, 6)))
        assert res.value == ONE
        assert res.method == "altset"
        assert res.terms_evaluated == 1

    def test_two_endpoints_rank5(self):
        res = m_q_altset(IndexSet(5, [1, 5]))
        assert res.value == Q ** 3 - Q ** 2
        assert res.terms_evaluated == 5 == alt_set_cardinality(IndexSet(5, [1, 5]))

    def test_center_rank5(self):
        res = m_q_altset(IndexSet(5, [3]))
        assert res.value == Q ** 4
        assert res.terms_evaluated == 4

    def test_large_rank_stays_cheap(self):
        res = m_q_altset(IndexSet(20, [1, 20]))
        assert res.value == Q ** 18 - Q ** 17
        assert res.terms_evaluated == fibonacci(20) == 6765

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            m_q_altset(IndexSet(4, []))

    def test_tally_matches_the_walk_oracle(self):
        # the tally oracle counts each element once, under the (|J|, n) that
        # the walk carries, on every set of rank <= 12, the benchmark's sets
        # and single wide runs
        sets = [index_set for r in range(1, 13) for index_set in _all_index_sets(r)]
        for index_set in sets + self._benchmark_sets() + self.WIDE_RUNS:
            walk = Counter((len(chosen), n) for chosen, n in alternation_walk(index_set))
            assert term_tally(index_set) == walk, index_set

    def test_scan_matches_the_tally_oracle(self):
        # value and term count against the (|J|, n) tally expanded by the
        # binomial theorem, on every set of rank <= 12, the benchmark's sets,
        # single wide runs and sets drawn from masks up to rank 400
        rng = random.Random(31)
        sets = [index_set for r in range(1, 13) for index_set in _all_index_sets(r)]
        sets += self._benchmark_sets() + self.WIDE_RUNS + [IndexSet(400, [1])]
        for r in [400] + [rng.randrange(13, 401) for _ in range(15)]:
            sets.append(IndexSet(r, [k + 1 for k in range(r) if rng.getrandbits(1)] or [r]))
        for index_set in sets:
            assert m_q_altset(index_set) == m_q_altset_tally(index_set), index_set

    def test_widest_run_is_streamed(self):
        # one free run of 22 indices, 46,368 elements; listing its subsets
        # would take several MB, and the scan holds three packed sums
        tracemalloc.start()
        try:
            res = m_q_altset(IndexSet(24, [1]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.terms_evaluated == fibonacci(24) == 46368
        assert peak < 1_000_000, peak

    def test_tally_matches_the_streamed_product(self):
        # the tally oracle against the tally of every code of the product
        # set, on small ranks and the benchmark's rank-28 sets
        sets = [index_set for r in range(1, 13) for index_set in _all_index_sets(r)]
        for index_set in sets + self._benchmark_sets():
            assert term_tally(index_set) == term_tally_streamed(index_set), index_set

    def test_tally_matches_the_run_product(self):
        # the tally oracle against its predecessor, the product of the free
        # runs' tallies, on every set of rank <= 12, the benchmark's sets,
        # single wide runs and 24 narrow runs at rank 120
        sets = [index_set for r in range(1, 13) for index_set in _all_index_sets(r)]
        sets += self._benchmark_sets() + self.WIDE_RUNS + [IndexSet(120, range(5, 120, 5))]
        for index_set in sets:
            assert term_tally(index_set) == term_tally_runs(index_set), index_set

    @pytest.mark.parametrize("index_set, keys, terms", [
        # runs of width 1, 3, 6 and 13
        (IndexSet(28, [5, 19, 26]), 66, 128_100),
        # runs of width 3, then 23 of width 4; a walk of the product set
        # could never finish
        (IndexSet(120, range(5, 120, 5)), 946, 2_951_479_051_793_528_258_560),
        # one run of 43 free indices, 1.1e9 elements: a walk of its subsets,
        # even run by run, would not finish in minutes
        (IndexSet(45, [1]), 44, fibonacci(45)),
    ], ids=["rank28", "rank120", "rank45"])
    def test_wide_sets_are_tallied_in_one_scan(self, index_set, keys, terms):
        tally = term_tally(index_set)
        assert len(tally) == keys
        res = m_q_altset(index_set)
        assert res.terms_evaluated == alt_set_cardinality(index_set) == terms
        assert res.value == m_q_closed_general(index_set)

    def test_terms_match_the_weyl_sum_over_the_alternation_set(self):
        # the tallied sum equals the honest sigma-by-sigma sum
        for r in range(1, 7):
            rho = rho_coords(r)
            shifted = add(WeightVector(r, embed(highest_root(r))), rho)
            for index_set in _all_index_sets(r):
                mu = index_set.to_root_vector()
                total = Poly()
                for w in alt_set_closed(index_set).elements:
                    xi = root_sub(to_root_basis(sub(apply(w, shifted), rho)), mu)
                    total = total + sign(w) * Poly(kostant_q(xi).coeffs)
                assert total == m_q_altset(index_set).value


class TestClosedForms:
    def test_zero_weight(self):
        assert m_q_closed_zero(1) == Q
        assert m_q_closed_zero(4) == Q + Q ** 2 + Q ** 3 + Q ** 4
        with pytest.raises(ValueError):
            m_q_closed_zero(0)

    def test_zero_weight_matches_brute(self):
        for r in range(1, 6):
            assert m_q_brute(highest_root(r), zero_root(r)).value == m_q_closed_zero(r)

    def test_interval_weight(self):
        assert m_q_closed_positive_root(5, 1, 5) == ONE
        assert m_q_closed_positive_root(4, 2, 3) == Q ** 2
        assert m_q_closed_positive_root(6, 2, 2) == Q ** 5
        with pytest.raises(ValueError):
            m_q_closed_positive_root(4, 3, 2)

    def test_interval_weight_matches_brute(self):
        for r in range(1, 6):
            theta = highest_root(r)
            for i in range(1, r + 1):
                for j in range(i, r + 1):
                    expected = m_q_closed_positive_root(r, i, j)
                    assert m_q_brute(theta, positive_root(i, j, r)).value == expected
                    assert m_q_closed_general(IndexSet(r, range(i, j + 1))) == expected

    def test_two_interval_weight(self):
        assert m_q_closed_two_intervals(3, 1, 1) == Q - 1
        assert m_q_closed_two_intervals(5, 2, 2) == Q ** 2 - Q
        assert m_q_closed_two_intervals(7, 2, 4) == Q ** 4 - Q ** 3
        with pytest.raises(ValueError):
            m_q_closed_two_intervals(3, 2, 1)  # i beyond rank - 2
        with pytest.raises(ValueError):
            m_q_closed_two_intervals(4, 1, 3)  # j beyond rank - i - 1

    def test_two_interval_weight_matches_brute_rank7(self):
        index_set = IndexSet(7, [1, 2, 7])  # i = 2, j = 4
        res = m_q_brute(highest_root(7), index_set.to_root_vector())
        assert res.value == m_q_closed_two_intervals(7, 2, 4) == Q ** 4 - Q ** 3

    def test_two_interval_weight_matches_the_scalable_routes(self):
        for r in range(3, 13):
            for i in range(1, r - 1):
                for j in range(1, r - i):
                    index_set = IndexSet(r, [*range(1, i + 1), *range(i + j + 1, r + 1)])
                    expected = m_q_closed_two_intervals(r, i, j)
                    assert m_q_closed_general(index_set) == expected
                    assert m_q_altset(index_set).value == expected
                    assert m_q_rank_reduction(index_set) == expected

    def test_general_closed_form(self):
        assert m_q_closed_general(IndexSet(5, [2, 4])) == Q ** 3 - Q ** 2
        assert m_q_closed_general(IndexSet(6, [2, 3, 4])) == Q ** 3
        assert m_q_closed_general(IndexSet(6, [2, 4, 6])) == (Q - 1) ** 2 * Q
        assert m_q_closed_general(IndexSet(4, range(1, 5))) == ONE

    def test_general_closed_form_matches_brute(self):
        assert m_q_brute(highest_root(5), root_add(positive_root(2, 2, 5),
                         positive_root(4, 4, 5))).value == Q ** 3 - Q ** 2
        got = m_q_brute(highest_root(6), IndexSet(6, [2, 4, 6]).to_root_vector())
        assert got.value == (Q - 1) ** 2 * Q


class TestRankReduction:
    def test_center_rank5(self):
        assert m_q_rank_reduction(IndexSet(5, [3])) == Q ** 4

    def test_three_runs_rank7(self):
        value = m_q_rank_reduction(IndexSet(7, [1, 4, 7]))
        assert value == (Q ** 2 - Q) ** 2 == QPolynomial([0, 0, 1, -2, 1])
        assert m_q_brute(highest_root(7), IndexSet(7, [1, 4, 7]).to_root_vector()).value \
            == value

    def test_full_interval_is_empty_product(self):
        assert m_q_rank_reduction(IndexSet(4, range(1, 5))) == ONE
        assert m_q_rank_reduction(IndexSet(1, [1])) == ONE

    def test_factors_recomputed_by_lower_rank_brute(self):
        # each stretch of the complement is a lower-rank multiplicity: mu =
        # alpha_{i_1} at rank i_1 for the leading one, alpha_1 + alpha_{g+2}
        # at rank g + 2 for a gap of width g, and alpha_1 at rank r - j_n + 1
        # for the trailing one
        for r, members in ((5, [3]), (6, [1, 4]), (6, [2, 6]), (7, [1, 4, 7]),
                           (6, [2, 4, 6]), (4, [1, 2, 3, 4])):
            index_set = IndexSet(r, members)
            runs = interval_partition(index_set)
            problems = []
            if runs[0][0] > 1:
                k = runs[0][0]
                problems.append((k, positive_root(k, k, k)))
            for (_, j_x), (i_next, _) in zip(runs, runs[1:]):
                k = i_next - j_x + 1
                problems.append((k, root_add(positive_root(1, 1, k), positive_root(k, k, k))))
            if runs[-1][1] < r:
                k = r - runs[-1][1] + 1
                problems.append((k, positive_root(1, 1, k)))
            product = ONE
            for k, mu in problems:
                product = product * m_q_brute(highest_root(k), mu).value
            assert product == m_q_rank_reduction(index_set)


class TestPredecessorOracles:
    """The formula routes build their coefficient lists directly; the
    operator chains they replaced (``closed_forms``) must give the same
    polynomials."""

    def test_every_index_set_up_to_rank_12(self):
        count = 0
        for r in range(1, 13):
            for index_set in _all_index_sets(r):
                assert m_q_closed_general(index_set) == m_q_closed_general_chain(index_set)
                assert m_q_rank_reduction(index_set) == m_q_rank_reduction_chain(index_set)
                count += 1
        assert count == 8178

    def test_seeded_index_sets_at_ranks_13_to_200(self):
        # each member is drawn with one density, from sparse (a few runs,
        # wide gaps) to dense (many short runs and gaps)
        rng = random.Random(30)
        runs_seen, gaps_seen = [], []
        for _ in range(400):
            r = rng.randint(13, 200)
            density = rng.choice((0.03, 0.1, 0.3, 0.5, 0.7, 0.9))
            members = [k for k in range(1, r + 1) if rng.random() < density]
            index_set = IndexSet(r, members or [rng.randint(1, r)])
            runs = interval_partition(index_set)
            runs_seen.append(len(runs))
            gaps_seen += [b[0] - a[1] - 1 for a, b in zip(runs, runs[1:])]
            assert m_q_closed_general(index_set) == m_q_closed_general_chain(index_set)
            assert m_q_rank_reduction(index_set) == m_q_rank_reduction_chain(index_set)
        # the draws reach many runs, wide gaps and a single run
        assert max(runs_seen) >= 40 and max(gaps_seen) >= 50 and min(runs_seen) == 1


class TestClassical:
    """The ordinary multiplicity m(theta, alpha_I) is the q-multiplicity at q = 1."""

    def test_examples(self):
        assert m_q_closed_general(IndexSet(4, range(1, 5))).eval_at_one() == 1
        assert m_q_closed_general(IndexSet(6, [2, 3, 4])).eval_at_one() == 1
        assert m_q_closed_general(IndexSet(5, [2, 4])).eval_at_one() == 0

    def test_nonzero_exactly_for_single_runs(self):
        for r in range(1, 13):
            for index_set in _all_index_sets(r):
                expected = 1 if len(interval_partition(index_set)) == 1 else 0
                assert m_q_closed_general(index_set).eval_at_one() == expected

    def test_matches_brute_at_q_one(self):
        for r in range(1, 6):
            theta = highest_root(r)
            for index_set in _all_index_sets(r):
                brute = m_q_brute(theta, index_set.to_root_vector())
                classical = m_q_closed_general(index_set).eval_at_one()
                assert brute.value.eval_at_one() == classical

    def test_brute_off_alpha_i_at_q_one(self):
        # At q = 1, m_q(theta, mu) is the multiplicity of the weight mu in the
        # adjoint representation: r at mu = 0, 1 at each of the r(r+1) roots
        # and 0 elsewhere.  Every mu in the box [-2, 2]^r is checked, most of
        # them with negative or non-0/1 coefficients, where brute is the only
        # route.  A q = 1 value cannot see a lost power of q.
        mismatches = []
        for r in range(1, 5):
            theta = highest_root(r)
            positive = [positive_root(i, j, r).coeffs
                        for i in range(1, r + 1) for j in range(i, r + 1)]
            roots = set(positive) | {tuple(-c for c in root) for root in positive}
            assert len(roots) == r * (r + 1)
            for coeffs in itertools.product(range(-2, 3), repeat=r):
                expected = r if not any(coeffs) else int(coeffs in roots)
                got = m_q_brute(theta, RootVector(r, coeffs)).value.eval_at_one()
                if got != expected:
                    mismatches.append((coeffs, got, expected))
        assert mismatches == []


class TestFourWayAgreement:
    def test_all_index_sets_up_to_rank5(self):
        for r in range(1, 6):
            theta = highest_root(r)
            for index_set in _all_index_sets(r):
                closed = m_q_closed_general(index_set)
                assert m_q_brute(theta, index_set.to_root_vector()).value == closed
                assert m_q_altset(index_set).value == closed
                assert m_q_rank_reduction(index_set) == closed

    def test_random_index_sets_up_to_rank30(self):
        rng = random.Random(2024)
        for r in range(8, 31):
            for _ in range(3):
                while True:
                    members = [k for k in range(1, r + 1) if rng.random() < 0.4]
                    if members and alt_set_cardinality(IndexSet(r, members)) <= 30000:
                        break
                index_set = IndexSet(r, members)
                closed = m_q_closed_general(index_set)
                res = m_q_altset(index_set)
                assert res.value == closed
                assert res.terms_evaluated == alt_set_cardinality(index_set)
                assert m_q_rank_reduction(index_set) == closed
