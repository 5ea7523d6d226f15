"""The pruned Weyl sweep against the unpruned permutation scan and against
its recursive predecessor."""

import gc
import itertools
import math
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmult import altset
from qmult.altset import WeylSweep, alt_set_brute, alt_set_closed
from qmult.intervals import IndexSet
from qmult.multiplicity import m_q_brute
from qmult.partition import kostant_q, kostant_q_oracle
from qmult.poly import ZERO
from qmult.roots import RootVector, highest_root
from qmult.weyl import CapExceededError
from weyl_helpers import permutation, zero_root
from weyl_oracle import RecursiveWeylSweep, alt_set_unpruned, m_q_unpruned, nonnegative_rows


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
        value = kostant_q(RootVector(len(xi), xi))
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


def _assert_same_as_recursive(lam, mu):
    sweep, oracle = WeylSweep(lam, mu), RecursiveWeylSweep(lam, mu)
    assert list(sweep) == list(oracle)
    assert ((sweep.leaves, sweep.pruned, sweep.accounted)
            == (oracle.leaves, oracle.pruned, oracle.accounted))


class TestAgainstRecursiveSweep:
    """The explicit-stack sweep against its predecessor, one nested generator
    per coordinate: the same rows in the same order, and the same counts."""

    def test_every_index_set_up_to_rank7(self):
        for r in range(1, 8):
            theta = highest_root(r)
            for mu in _indicator_weights(r):
                if any(mu.coeffs):
                    _assert_same_as_recursive(theta, mu)

    @settings(max_examples=60)
    @given(st.integers(1, 6).flatmap(lambda r: st.tuples(
        st.lists(st.integers(-2, 2), min_size=r, max_size=r),
        st.lists(st.integers(-2, 2), min_size=r, max_size=r),
    )))
    def test_arbitrary_lam_and_mu(self, pair):
        lam_c, mu_c = pair
        _assert_same_as_recursive(RootVector(len(lam_c), lam_c), RootVector(len(mu_c), mu_c))

    @pytest.mark.parametrize("rank, c", [(8, -2), (9, -4)])
    def test_constant_negative_mu(self, rank, c):
        _assert_same_as_recursive(highest_root(rank), RootVector(rank, (c,) * rank))

    def test_a_sweep_closed_after_its_first_row_reports_it(self):
        theta, mu = highest_root(6), IndexSet(6, [1, 3, 6]).to_root_vector()
        sweep, oracle = WeylSweep(theta, mu), RecursiveWeylSweep(theta, mu)
        rows, oracle_rows = iter(sweep), iter(oracle)
        assert next(rows) == next(oracle_rows)
        rows.close()
        assert sweep.leaves == 1
        assert ((sweep.leaves, sweep.pruned, sweep.accounted)
                == (oracle.leaves, oracle.pruned, oracle.accounted))


def _cyclic_garbage_after(action):
    """The objects ``gc.collect()`` finds unreachable after ``action()``, run
    with the collector disabled so that none is freed on the way."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        action()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


class TestNoGarbage:
    def test_a_sweep_and_a_brute_call_leave_no_reference_cycle(self):
        # reference counting alone frees everything a sweep allocates; the
        # recursive sweep's generator function reached itself through its own
        # closure cell, which kept 25 objects per pass alive until a
        # collection: the function, its cells, lists and tuples, the sweep
        # and its two vectors
        def vectors():
            return highest_root(6), IndexSet(6, [1, 3, 6]).to_root_vector()

        assert _cyclic_garbage_after(lambda: list(WeylSweep(*vectors()))) == 0
        assert _cyclic_garbage_after(lambda: m_q_brute(*vectors())) == 0


class TestRefusals:
    def test_cap_and_rank_mismatch_raise_on_construction(self):
        with pytest.raises(CapExceededError, match="exceeds brute-force cap 9"):
            WeylSweep(highest_root(12), zero_root(12))
        with pytest.raises(CapExceededError):
            WeylSweep(highest_root(4), zero_root(4), cap=3)
        with pytest.raises(ValueError):
            WeylSweep(highest_root(3), zero_root(4))


class TestPermutations:
    """A Weyl element is a bare one-line tuple that nothing validates on the
    way out, so each producer is checked to build permutations of 1..r+1;
    ``permutation`` raises on anything else and returns a tuple unchanged."""

    def test_every_index_set_up_to_rank7(self):
        for r in range(1, 8):
            theta = highest_root(r)
            for mu in _indicator_weights(r):
                if not any(mu.coeffs):
                    continue
                index_set = IndexSet(r, (k + 1 for k, c in enumerate(mu.coeffs) if c))
                rows = list(WeylSweep(theta, mu))
                assert rows, index_set
                for perm, _, _ in rows:
                    assert permutation(perm) == perm and len(perm) == r + 1, index_set
                for w in alt_set_closed(index_set).elements:
                    assert permutation(w) == w and len(w) == r + 1, index_set

    @settings(max_examples=60)
    @given(st.integers(1, 5).flatmap(lambda r: st.tuples(
        st.lists(st.integers(-2, 3), min_size=r, max_size=r),
        st.lists(st.integers(-3, 2), min_size=r, max_size=r),
    )))
    def test_sweep_at_arbitrary_lam_and_mu(self, pair):
        lam_c, mu_c = pair
        r = len(lam_c)
        for perm, _, _ in WeylSweep(RootVector(r, lam_c), RootVector(r, mu_c)):
            assert permutation(perm) == perm and len(perm) == r + 1


class TestCoverageCheck:
    def test_a_miscount_raises_under_python_O(self):
        # Only the total (r+1)! is off by one, not the subtree sizes the sweep
        # adds up, so the sweep must notice that its count falls short, and
        # with asserts stripped too: it is what backs brute's term count.
        script = (
            "import math\n"
            "from qmult import altset\n"
            "from qmult.roots import highest_root\n"
            "altset.factorial = lambda k: math.factorial(k) + (k == 5)\n"
            "list(altset.WeylSweep(highest_root(4), highest_root(4)))\n"
        )
        src = str(Path(altset.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              capture_output=True, text=True, timeout=120,
                              env={"PYTHONPATH": src})
        assert proc.returncode == 1
        assert "RuntimeError: sweep accounted for 120 of 5! elements" in proc.stderr
