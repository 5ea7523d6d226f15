"""Acceptance gate: one test per shipped claim, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete; without ``-s`` pytest still fails loudly on any
violation.  Expected values are constructed inline from first principles
(explicit polynomial arithmetic, factorials, Fibonacci numbers), never by
calling the code path under test.
"""

import contextlib
import csv
import io
import itertools
import math
import random
import time
from contextlib import contextmanager

from qmult.altset import (
    alt_set_brute,
    alt_set_cardinality,
    alt_set_closed,
    fib_profile,
    fibonacci,
)
from qmult.cli import main
from qmult.intervals import IndexSet, interval_partition, n_of_complement
from qmult.multiplicity import (
    m_q_altset,
    m_q_brute,
    m_q_closed_general,
    m_q_closed_two_intervals,
    m_q_rank_reduction,
)
from qmult.partition import factorize_over_intervals, kostant_q, kostant_q_oracle
from qmult.poly import ONE, Q, QPolynomial
from qmult.roots import RootVector, highest_root, positive_root, zero_root


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"criterion {num} ({name}): FAIL")
        raise
    print(f"criterion {num} ({name}): PASS")


def _nonempty_subsets(rank):
    for mask in range(1, 1 << rank):
        yield IndexSet(rank, (k + 1 for k in range(rank) if mask >> k & 1))


# (rank, i, j): mu is the first i simple roots plus the last r - i - j
_TWO_INTERVAL_SAMPLES = (
    (8, 2, 3),
    (12, 4, 5),
    (16, 1, 9),
    (20, 6, 9),
    (24, 3, 14),
    (27, 2, 19),
    (30, 5, 20),
    (30, 1, 24),
    (30, 28, 1),
)


class TestAcceptance:
    def test_criterion_1_interval_qanalog_closed_form(self):
        with criterion(1, "interval q-analog closed form"):
            start = time.perf_counter()
            for r in range(1, 11):
                for i in range(1, r + 1):
                    for j in range(i, r + 1):
                        expected = Q * (ONE + Q) ** (j - i)
                        assert kostant_q(positive_root(i, j, r)) == expected
            assert time.perf_counter() - start < 1.0

    def test_criterion_2_factorization_over_runs(self):
        with criterion(2, "partition factorization over runs"):
            start = time.perf_counter()
            for r in range(1, 9):
                for index_set in _nonempty_subsets(r):
                    direct = kostant_q(index_set.to_root_vector())
                    assert factorize_over_intervals(index_set) == direct
            assert time.perf_counter() - start < 10.0

    def test_criterion_3_alternation_sets(self):
        with criterion(3, "alternation set closed form"):
            for r in range(1, 8):
                theta = highest_root(r)
                for index_set in _nonempty_subsets(r):
                    closed = alt_set_closed(index_set)
                    brute = alt_set_brute(theta, index_set.to_root_vector())
                    assert set(closed.elements) == set(brute)
                    assert len(closed.elements) == len(brute)
                    product = math.prod(fibonacci(k) for k in fib_profile(index_set))
                    assert len(closed.elements) == product
                    assert alt_set_cardinality(index_set) == product

    def test_criterion_4_multiplicity_route_agreement(self):
        with criterion(4, "q-multiplicity route agreement"):
            for r in range(1, 8):
                theta = highest_root(r)
                for index_set in _nonempty_subsets(r):
                    n = len(interval_partition(index_set))
                    expected = ((Q - ONE) ** (n - 1)
                                * QPolynomial.monomial(r - len(index_set) - n + 1))
                    assert m_q_brute(theta, index_set.to_root_vector()).value == expected
                    assert m_q_altset(index_set).value == expected
                    assert m_q_rank_reduction(index_set) == expected
                    assert m_q_closed_general(index_set) == expected

    def test_criterion_5_zero_and_single_root_weights(self):
        with criterion(5, "zero and single-root weights"):
            for r in range(1, 8):
                expected = sum(QPolynomial.monomial(t) for t in range(1, r + 1))
                assert m_q_brute(highest_root(r), zero_root(r)).value == expected
            for r in range(1, 7):
                theta = highest_root(r)
                for i in range(1, r + 1):
                    for j in range(i, r + 1):
                        got = m_q_brute(theta, positive_root(i, j, r)).value
                        assert got == QPolynomial.monomial(r - j + i - 1)

    def test_criterion_6_high_rank_two_interval_family(self):
        with criterion(6, "rank-30 two-interval family"):
            start = time.perf_counter()
            for r, i, j in _TWO_INTERVAL_SAMPLES:
                members = list(range(1, i + 1)) + list(range(i + j + 1, r + 1))
                index_set = IndexSet(r, members)
                expected = QPolynomial.monomial(j) - QPolynomial.monomial(j - 1)
                res = m_q_altset(index_set)
                assert res.value == expected
                assert m_q_closed_two_intervals(r, i, j) == expected
                assert res.terms_evaluated == alt_set_cardinality(index_set)
                assert res.terms_evaluated == fibonacci(j + 2)
            assert time.perf_counter() - start < 60.0

    def test_criterion_7_complement_run_count_cases(self):
        with criterion(7, "complement run-count cases"):
            start = time.perf_counter()
            for r in range(1, 13):
                for index_set in _nonempty_subsets(r):
                    n = len(interval_partition(index_set))
                    has_1, has_r = 1 in index_set, r in index_set
                    if has_1 and has_r:
                        expected = n - 1
                    elif not has_1 and not has_r:
                        expected = n + 1
                    else:
                        expected = n
                    assert n_of_complement(index_set) == expected
            assert time.perf_counter() - start < 5.0

    def test_criterion_8_partition_dp_vs_oracle(self):
        with criterion(8, "partition dp vs oracle"):
            for r in range(1, 6):
                for coeffs in itertools.product(range(4), repeat=r):
                    xi = RootVector(r, coeffs)
                    assert kostant_q(xi) == kostant_q_oracle(xi)
            rng = random.Random(20260823)
            cases = 0
            while cases < 1000:
                r = rng.randint(1, 6)
                coeffs = tuple(rng.randint(0, 4) for _ in range(r))
                if sum(coeffs) > 20:
                    continue
                xi = RootVector(r, coeffs)
                assert kostant_q(xi) == kostant_q_oracle(xi)
                cases += 1

    def test_criterion_9_bench_term_counts(self):
        with criterion(9, "bench term counts"):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(["bench", "--max-rank", "7", "--mu", "4"])
            assert code == 0
            rows = list(csv.DictReader(io.StringIO(buf.getvalue())))
            at7 = {row["method"]: row for row in rows if row["rank"] == "7"}
            assert int(at7["brute"]["terms"]) == math.factorial(8)
            expected_terms = alt_set_cardinality(IndexSet(7, [4]))
            assert int(at7["altset"]["terms"]) == expected_terms == 9
            assert int(at7["rank_reduction"]["terms"]) == 0
            assert int(at7["closed"]["terms"]) == 0
