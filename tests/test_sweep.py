"""The pruned Weyl sweep against the unpruned permutation scan."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmult.altset import WeylSweep, alt_set_brute
from qmult.multiplicity import m_q_brute
from qmult.partition import kostant_q_coeffs, kostant_q_oracle
from qmult.poly import ZERO
from qmult.roots import RootVector, highest_root
from qmult.weyl import CapExceededError
from weyl_helpers import zero_root
from weyl_oracle import alt_set_unpruned, m_q_unpruned, nonnegative_rows


def _indicator_weights(rank):
    for bits in itertools.product((0, 1), repeat=rank):
        yield RootVector(rank, bits)


class TestAgainstUnprunedScan:
    def test_every_indicator_mu_up_to_rank5(self):
        for r in range(1, 6):
            theta = highest_root(r)
            for mu in _indicator_weights(r):
                want_rows = nonnegative_rows(theta, mu)
                assert sorted(WeylSweep(theta, mu)) == want_rows
                assert m_q_brute(theta, mu).value == m_q_unpruned(theta, mu)
                assert alt_set_brute(theta, mu) == alt_set_unpruned(theta, mu)

    @settings(max_examples=60)
    @given(st.integers(1, 6).flatmap(lambda r: st.tuples(
        st.lists(st.integers(-2, 2), min_size=r, max_size=r),
        st.lists(st.integers(-2, 2), min_size=r, max_size=r),
    )))
    def test_arbitrary_lam_and_mu(self, pair):
        lam_c, mu_c = pair
        lam, mu = RootVector(len(lam_c), lam_c), RootVector(len(mu_c), mu_c)
        assert m_q_brute(lam, mu).value == m_q_unpruned(lam, mu)
        assert alt_set_brute(lam, mu) == alt_set_unpruned(lam, mu)


def _assert_every_leaf_has_a_partition(lam, mu):
    """Every row the sweep keeps has a nonzero partition value, by the DP and,
    where the coefficient sum is at most 20, equally by the oracle: xi >= 0
    is sum xi_i alpha_i, so P(xi) >= 1.  This is why ``alt_set_brute`` needs
    no partition-count filter."""
    for _, _, xi in WeylSweep(lam, mu):
        value = kostant_q_coeffs(xi)
        assert value != ZERO, xi
        if sum(xi) <= 20:
            assert kostant_q_oracle(RootVector(len(xi), xi)) == value, xi


class TestEveryLeafCounts:
    def test_every_index_set_up_to_rank7(self):
        for r in range(1, 8):
            theta = highest_root(r)
            for mu in _indicator_weights(r):
                if any(mu.coeffs):
                    _assert_every_leaf_has_a_partition(theta, mu)

    @settings(max_examples=60)
    @given(st.integers(1, 5).flatmap(lambda r: st.tuples(
        st.lists(st.integers(0, 3), min_size=r, max_size=r),
        st.lists(st.integers(-3, 2), min_size=r, max_size=r),
    )))
    def test_nonnegative_lam_and_arbitrary_mu(self, pair):
        lam_c, mu_c = pair
        _assert_every_leaf_has_a_partition(RootVector(len(lam_c), lam_c),
                                           RootVector(len(mu_c), mu_c))


class TestAccounting:
    @pytest.mark.parametrize("rank", [3, 7, 10])
    def test_leaves_and_pruned_subtrees_cover_the_group(self, rank):
        theta = highest_root(rank)
        alternating = [1, 0] * (rank // 2) + [1] * (rank % 2)
        mus = [zero_root(rank), theta, RootVector(rank, alternating),
               RootVector(rank, [-1] * rank), RootVector(rank, [2] + [0] * (rank - 1))]
        for mu in mus:
            sweep = WeylSweep(theta, mu, cap=rank)
            rows = list(sweep)
            assert sweep.accounted == math.factorial(rank + 1)
            assert sweep.leaves == len(rows)
            if rank == 3:
                assert sweep.leaves == len(nonnegative_rows(theta, mu))

    def test_pruning_is_what_makes_rank_10_cheap(self):
        sweep = WeylSweep(highest_root(10), zero_root(10), cap=10)
        # the leaves are exactly the alternation set: F_10 nonconsecutive
        # subsets of {2, ..., 9}
        assert len(list(sweep)) == sweep.leaves == 55
        assert sweep.pruned < 1000

    def test_iterating_again_gives_the_same_rows_and_counts(self):
        sweep = WeylSweep(highest_root(5), zero_root(5))
        first = list(sweep)
        counts = (sweep.leaves, sweep.pruned, sweep.accounted)
        assert list(sweep) == first
        assert (sweep.leaves, sweep.pruned, sweep.accounted) == counts

    def test_brute_still_reports_the_whole_group(self):
        res = m_q_brute(highest_root(8), RootVector(8, (1, 0, 1, 1, 0, 0, 1, 0)))
        assert res.terms_evaluated == math.factorial(9)


class TestRefusals:
    def test_cap_and_rank_mismatch_raise_on_construction(self):
        with pytest.raises(CapExceededError, match="exceeds brute-force cap 9"):
            WeylSweep(highest_root(12), zero_root(12))
        with pytest.raises(CapExceededError):
            WeylSweep(highest_root(4), zero_root(4), cap=3)
        with pytest.raises(ValueError):
            WeylSweep(highest_root(3), zero_root(4))
