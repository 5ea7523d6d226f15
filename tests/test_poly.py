"""Tests for the exact q-polynomial arithmetic.

The library's ``QPolynomial`` has ``+`` and ``*`` of two QPolynomials; the
rest of the algebra (int operands, ``-``, ``**``, ``monomial``, ``Q``) is the
test-side ``poly_helpers.Poly``, whose laws are checked here too because the
chain oracles in ``closed_forms`` are built on them.
"""

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from partition_oracle import add_coeffs, add_product, shift
from poly_helpers import Poly, Q
from qmult.poly import ONE, ZERO, QPolynomial, pack, unpack

coeff_lists = st.lists(st.integers(min_value=-100, max_value=100), max_size=9)
polys = coeff_lists.map(QPolynomial)
helper_polys = coeff_lists.map(Poly)


class TestCanonicalForm:
    def test_trailing_zeros_trimmed(self):
        assert QPolynomial([1, 2, 0, 0]).coeffs == (1, 2)

    def test_zero_is_empty_tuple(self):
        assert QPolynomial([0, 0, 0]).coeffs == ()
        assert QPolynomial([0, 0, 0]) == ZERO
        assert not ZERO

    def test_degree(self):
        assert ZERO.degree == -1
        assert ONE.degree == 0
        assert Q.degree == 1
        assert (Q ** 5).degree == 5

    @given(coeff_lists)
    def test_normalization_idempotent(self, cs):
        p = QPolynomial(cs)
        assert QPolynomial(p.coeffs).coeffs == p.coeffs
        assert p.coeffs == () or p.coeffs[-1] != 0


class TestArithmetic:
    def test_add(self):
        assert Q + Q == QPolynomial([0, 2])
        assert (Q ** 2 - Q) + Q == Q ** 2
        assert ZERO + (Q + 1) == Q + 1

    def test_sub_cancels_leading_terms(self):
        assert Q ** 3 - Q ** 3 == ZERO
        assert (Q ** 3 + Q) - Q ** 3 == Q

    def test_mul(self):
        assert Q * (Q + 1) ** 2 == QPolynomial([0, 1, 2, 1])
        assert ZERO * (Q + 1) == ZERO
        assert 2 * Q ** 2 == QPolynomial([0, 0, 2])

    def test_pow(self):
        assert (Q - 1) ** 0 == ONE
        assert (Q - 1) ** 2 == QPolynomial([1, -2, 1])
        with pytest.raises(ValueError):
            Q ** -1

    def test_int_coercion(self):
        # the helper type's; the library type takes no int (next test)
        assert 1 + Q == Q + 1
        assert 1 - Q == QPolynomial([1, -1])
        with pytest.raises(TypeError):
            Q + 1.5

    @pytest.mark.parametrize("combine", [
        lambda p: p + 1,
        lambda p: 1 + p,
        lambda p: 2 * p,
        lambda p: p * "x",
    ], ids=["plus-int", "int-plus", "int-times", "times-str"])
    def test_only_two_qpolynomials_combine(self, combine):
        with pytest.raises(TypeError):
            combine(QPolynomial([1]))

    def test_shift(self):
        assert shift(Q + 1, 2) == Q ** 3 + Q ** 2
        assert shift(ZERO, 3) == ZERO
        with pytest.raises(ValueError):
            shift(Q, -1)

    def test_eval_at_one(self):
        assert ZERO.eval_at_one() == 0
        assert (Q * (Q + 1) ** 2).eval_at_one() == 4
        assert ((Q - 1) ** 3).eval_at_one() == 0

    @given(polys, polys, polys)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(polys, polys)
    def test_eval_at_one_is_a_homomorphism(self, a, b):
        assert (a + b).eval_at_one() == a.eval_at_one() + b.eval_at_one()
        assert (a * b).eval_at_one() == a.eval_at_one() * b.eval_at_one()

    @given(helper_polys)
    def test_additive_inverse(self, a):
        assert a - a == ZERO
        assert -(-a) == a

    @given(helper_polys, st.integers(min_value=0, max_value=6))
    def test_pow_is_repeated_mul(self, a, e):
        expected = ONE
        for _ in range(e):
            expected = expected * a
        assert a ** e == expected


def _naive_add_coeffs(a, b):
    width = max(len(a), len(b))
    return tuple((a[k] if k < len(a) else 0) + (b[k] if k < len(b) else 0)
                 for k in range(width))


def _naive_add_product(acc, a, b, shift):
    out = list(acc) + [0] * max(0, shift + len(a) + len(b) - 1 - len(acc))
    for i in range(len(a)):
        for j in range(len(b)):
            out[shift + i + j] += a[i] * b[j]
    return out


class TestKernels:
    """QPolynomial's + and * against naive loops, and the coefficient kernels
    add_coeffs and add_product that the tuple-weight division pass in
    partition_oracle runs on, the loops of + and * before they were folded
    into the operators."""

    def test_add_coeffs_is_untrimmed(self):
        assert add_coeffs((1, 2), (-1, -2)) == (0, 0)
        assert add_coeffs((), (0, 3, 0)) == (0, 3, 0)
        assert add_coeffs((5,), (1, -1, 2)) == (6, -1, 2)

    def test_add_product_examples(self):
        acc = [1]  # shorter than needed: grows
        add_product(acc, (1, 1), (0, 2), 1)
        assert acc == [1, 0, 2, 2]
        acc = [7, 0, 0, 0, 0, 0, 4]  # longer than needed: keeps its length
        add_product(acc, (-1, 0, 2), (3, -1), 2)
        assert acc == [7, 0, -3, 1, 6, -2, 4]
        acc = []
        add_product(acc, (0, 0, 5), (0, -2), 0)  # zero entries are skipped
        assert acc == [0, 0, 0, -10]

    @given(st.lists(st.integers(-9, 9), max_size=7), st.lists(st.integers(-9, 9), max_size=7))
    def test_add_coeffs_matches_a_naive_loop(self, a, b):
        expected = _naive_add_coeffs(a, b)
        assert QPolynomial(a) + QPolynomial(b) == QPolynomial(expected)
        assert add_coeffs(tuple(a), tuple(b)) == expected

    @given(st.lists(st.integers(-9, 9), max_size=12),
           st.lists(st.integers(-9, 9), max_size=6),
           st.lists(st.integers(-9, 9), max_size=6),
           st.integers(min_value=0, max_value=5))
    def test_add_product_matches_a_naive_double_loop(self, acc, a, b, shift):
        assert QPolynomial(a) * QPolynomial(b) == QPolynomial(_naive_add_product([], a, b, 0))
        expected = _naive_add_product(acc, a, b, shift)
        add_product(acc, tuple(a), tuple(b), shift)
        assert acc == expected


@st.composite
def packable(draw):
    """(coeffs, K): K in [2, 200] and every coefficient strictly inside
    +-2^(K-1), drawn often at the two ends of that range and at 0."""
    K = draw(st.integers(min_value=2, max_value=200))
    top = (1 << (K - 1)) - 1
    coeff = st.one_of(st.integers(-top, top), st.sampled_from([0, top, -top]))
    return draw(st.lists(coeff, max_size=12)), K


def _trimmed(coeffs):
    return QPolynomial(coeffs).coeffs


class TestPack:
    """q = 2^K: balanced base-2^K digits give back every coefficient
    strictly inside +-2^(K-1), negative ones too."""

    @pytest.mark.parametrize("coeffs", [
        (1,), (-1,), (0, 1), (3, -1, 0, 2), (-5, 0, 0, -7),  # negative and interior zeros
        (0, 0, 4), (-1, 1, -1, 1), (2, 0, 0), (-3, 5, 0, 0, 0),  # trailing zeros are trimmed
    ])
    @pytest.mark.parametrize("K", [4, 8, 63, 64, 65, 130])
    def test_round_trip(self, coeffs, K):
        assert unpack(pack(coeffs, K), K) == _trimmed(coeffs)

    @pytest.mark.parametrize("K", [2, 3, 8, 31, 32, 64, 100])
    def test_round_trip_one_bit_inside_the_range(self, K):
        top = (1 << (K - 1)) - 1
        for coeffs in [(top,), (-top,), (top, -top), (-top, top), (-top, 0, -top),
                       (top, top, top), (-top, -top, -top), (0, -top, 0, top, 0)]:
            assert unpack(pack(coeffs, K), K) == _trimmed(coeffs), (K, coeffs)

    def test_zero_and_empty(self):
        for K in (2, 8, 64):
            assert unpack(0, K) == ()
            assert pack((), K) == 0
            assert pack((0, 0, 0), K) == 0
            assert pack((1,), K) == 1  # the constant 1 packs to 1 at any K

    @pytest.mark.parametrize("K", [1, 0, -1])
    def test_width_below_two_is_rejected(self, K):
        # at K = 1 the digits [-1, 1) cannot hold +1, and reading 1 back
        # would borrow forever
        for value in (1, 0, -1):
            with pytest.raises(ValueError, match="at least 2"):
                unpack(value, K)

    def test_pack_is_the_value_at_two_to_the_k(self):
        assert pack((3, -1, 0, 2), 5) == 3 - 2 ** 5 + 2 * 2 ** 15
        assert pack((0, -1), 10) == -(2 ** 10)

    def test_sum_and_shift_of_packed_values(self):
        # what the partition pass relies on: + adds and << c * K multiplies by q^c
        a, b, K = (4, -2, 0, 1), (-4, 7), 9
        assert unpack(pack(a, K) + pack(b, K), K) == (QPolynomial(a) + QPolynomial(b)).coeffs
        assert unpack(pack(a, K) << (3 * K), K) == (0, 0, 0) + a
        assert unpack(pack(a, K) * pack(b, K), K) == (QPolynomial(a) * QPolynomial(b)).coeffs

    @given(packable())
    def test_round_trip_at_random(self, case):
        coeffs, K = case
        assert unpack(pack(coeffs, K), K) == _trimmed(coeffs)
        assert QPolynomial(unpack(pack(coeffs, K), K)) == QPolynomial(coeffs)


class TestFormats:
    def test_text_descending(self):
        assert str(Q ** 3 - Q ** 2) == "q^3 - q^2"
        assert str(Q * (Q + 1) ** 2) == "q^3 + 2q^2 + q"
        assert str(ZERO) == "0"
        assert str(ONE) == "1"
        assert str(Q) == "q"
        assert str(QPolynomial([1, -1])) == "-q + 1"

    def test_latex_descending(self):
        assert (Q ** 3 - Q ** 2).latex() == "q^{3}-q^{2}"
        assert (Q + 1).latex() == "q+1"
        assert ZERO.latex() == "0"
        assert Poly.monomial(2, -1).latex() == "-q^{2}"
        assert (Q ** 4 + 3 * Q ** 3 + 3 * Q ** 2 + Q).latex() == "q^{4}+3q^{3}+3q^{2}+q"

    def test_monomial(self):
        assert Poly.monomial(0) == ONE
        assert Poly.monomial(3) == Q ** 3
        assert Poly.monomial(2, -4) == QPolynomial([0, 0, -4])
        with pytest.raises(ValueError):
            Poly.monomial(-1)


class TestHelperType:
    """A ``Poly`` and a library ``QPolynomial`` compare by coefficients from
    either side.  Without that, ``library_value == expected`` would always be
    False and every ``!=`` assertion would pass without checking anything."""

    @given(coeff_lists)
    def test_same_coefficients_are_equal_and_hash_alike(self, cs):
        library, helper = QPolynomial(cs), Poly(cs)
        assert library == helper and helper == library
        assert not (library != helper) and not (helper != library)
        assert hash(library) == hash(helper)
        assert len({library, helper}) == 1

    @given(coeff_lists, coeff_lists)
    def test_different_coefficients_are_unequal(self, a, b):
        library, helper = QPolynomial(a), Poly(b)
        assume(library.coeffs != helper.coeffs)
        assert library != helper and helper != library
        assert not (library == helper) and not (helper == library)
