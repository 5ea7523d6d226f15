"""Tests for the root-basis and ambient-coordinate geometry."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qmult import partition
from qmult.intervals import IndexSet
from qmult.roots import RootVector, embed, highest_root, positive_root
from weyl_helpers import (
    WeightVector,
    add,
    all_elements,
    apply,
    is_nonnegative,
    rho_coords,
    root_add,
    root_neg,
    root_sub,
    sub,
    to_root_basis,
    zero_root,
)

rank_and_coeffs = st.integers(min_value=1, max_value=8).flatmap(
    lambda r: st.tuples(
        st.just(r),
        st.lists(st.integers(min_value=-5, max_value=5), min_size=r, max_size=r),
    )
)


class TestRootConstruction:
    def test_simple_root(self):
        assert positive_root(2, 2, 4).coeffs == (0, 1, 0, 0)
        with pytest.raises(ValueError):
            positive_root(0, 0, 4)
        with pytest.raises(ValueError):
            positive_root(5, 5, 4)

    def test_positive_root(self):
        assert positive_root(2, 3, 4).coeffs == (0, 1, 1, 0)
        assert positive_root(1, 4, 4) == highest_root(4)
        assert positive_root(2, 2, 3).coeffs == (0, 1, 0)
        with pytest.raises(ValueError):
            positive_root(3, 2, 4)
        with pytest.raises(ValueError):
            positive_root(1, 5, 4)

    def test_positive_root_is_sum_of_simples(self):
        total = positive_root(2, 2, 6)
        for k in range(3, 6):
            total = root_add(total, positive_root(k, k, 6))
        assert positive_root(2, 5, 6) == total

    def test_all_positive_roots(self):
        # the partition oracle walks the roots in this (i, j) order
        assert partition._root_supports(2) == ((0, 0), (0, 1), (1, 1))
        assert len(partition._root_supports(4)) == 10
        supports = partition._root_supports(6)
        assert len(set(supports)) == 21
        assert list(supports) == sorted(supports)

    def test_alpha_of_index_set(self):
        assert IndexSet(5, [1, 3, 4]).to_root_vector().coeffs == (1, 0, 1, 1, 0)
        assert IndexSet(4, (3, 1, 3)).to_root_vector().coeffs == (1, 0, 1, 0)
        with pytest.raises(ValueError):
            IndexSet(4, []).to_root_vector()
        with pytest.raises(ValueError):
            IndexSet(4, [5])
        with pytest.raises(ValueError):
            IndexSet(4, [0])

    def test_validation(self):
        with pytest.raises(ValueError):
            RootVector(3, (1, 2))
        with pytest.raises(ValueError):
            WeightVector(2, (1, 2))
        with pytest.raises(ValueError):
            RootVector(0, ())
        with pytest.raises(ValueError):
            root_add(positive_root(1, 1, 2), positive_root(1, 1, 3))

    def test_non_integer_coordinates_are_rejected(self):
        with pytest.raises(TypeError):
            RootVector(3, (1.9, 1.9, 1.9))
        with pytest.raises(TypeError):
            RootVector(3, ("1", 0, 0))
        with pytest.raises(TypeError):
            RootVector(3.0, (1, 0, 0))
        v = RootVector(True, (True,))
        assert v == RootVector(1, (1,))
        assert type(v.rank) is int and type(v.coeffs[0]) is int

    def test_vector_arithmetic(self):
        a = positive_root(1, 1, 3)
        b = positive_root(3, 3, 3)
        assert root_add(a, b).coeffs == (1, 0, 1)
        assert root_sub(a, b).coeffs == (1, 0, -1)
        assert root_neg(a).coeffs == (-1, 0, 0)
        assert zero_root(3).is_zero()
        assert not a.is_zero()
        assert is_nonnegative(a)
        assert not is_nonnegative(root_sub(a, b))


class TestCoordinates:
    def test_rho_staircase(self):
        assert rho_coords(3).coords == (3, 2, 1, 0)
        assert rho_coords(1).coords == (1, 0)

    def test_rho_matches_half_sum_up_to_constant(self):
        # The true half-sum of positive roots, doubled, has ambient
        # coordinates (r, r-2, ..., -r); the staircase differs from it by a
        # constant vector only.
        for r in range(1, 8):
            doubled = [0] * (r + 1)
            for i, j in partition._root_supports(r):
                for k, c in enumerate(embed(positive_root(i + 1, j + 1, r))):
                    doubled[k] += c
            assert doubled == [r - 2 * k for k in range(r + 1)]
            assert [2 * c - r for c in rho_coords(r).coords] == doubled

    def test_staircase_shift_agrees_with_half_sum(self):
        # sigma(v + rho) - rho does not depend on which representative of
        # rho is used; checked against the doubled true half-sum.
        for r in range(1, 6):
            rho = rho_coords(r)
            two_true = WeightVector(r, (r - 2 * k for k in range(r + 1)))
            for v in (highest_root(r), positive_root(1, 1, r), zero_root(r)):
                amb = WeightVector(r, embed(v))
                doubled = WeightVector(r, (2 * c for c in amb.coords))
                for sigma in all_elements(r):
                    a = sub(apply(sigma, add(amb, rho)), rho)
                    b = sub(apply(sigma, add(doubled, two_true)), two_true)
                    assert tuple(2 * c for c in a.coords) == b.coords

    def test_embed(self):
        assert embed(positive_root(1, 1, 2)) == (1, -1, 0)
        assert embed(highest_root(3)) == (1, 0, 0, -1)
        assert embed(positive_root(2, 3, 4)) == (0, 1, 0, -1, 0)

    def test_to_root_basis(self):
        assert to_root_basis(WeightVector(3, (1, 0, 0, -1))) == highest_root(3)
        assert to_root_basis(WeightVector(3, (0, 0, 0, 0))) == zero_root(3)

    def test_to_root_basis_fails_off_the_root_lattice_span(self):
        assert to_root_basis(WeightVector(2, (1, 1, 0))) is None
        assert to_root_basis(rho_coords(3)) is None

    @given(rank_and_coeffs)
    def test_round_trip(self, rank_cs):
        rank, cs = rank_cs
        v = RootVector(rank, cs)
        w = WeightVector(rank, embed(v))
        assert sum(w.coords) == 0
        assert to_root_basis(w) == v
