"""Tests for the permutation realization of the Weyl group."""

import itertools
import math

import pytest

from qmult.cli import element_words
from qmult.roots import embed, highest_root
from qmult.weyl import CapExceededError, commuting_indices, length
from weyl_helpers import (
    WeightVector,
    add,
    all_elements,
    apply,
    compose,
    identity,
    is_identity,
    permutation,
    product_of_commuting,
    rho_coords,
    sign,
    simple_reflection,
    sub,
    to_root_basis,
)


def _bfs_min_word_lengths(rank):
    """Minimal word length in the simple generators, by breadth-first search."""
    gens = [simple_reflection(i, rank) for i in range(1, rank + 1)]
    dist = {identity(rank): 0}
    frontier = [identity(rank)]
    while frontier:
        new = []
        for w in frontier:
            for g in gens:
                u = compose(w, g)
                if u not in dist:
                    dist[u] = dist[w] + 1
                    new.append(u)
        frontier = new
    return dist


class TestBasics:
    def test_simple_reflection(self):
        assert simple_reflection(1, 2) == (2, 1, 3)
        assert simple_reflection(2, 2) == (1, 3, 2)
        with pytest.raises(ValueError):
            simple_reflection(3, 2)
        with pytest.raises(ValueError):
            simple_reflection(0, 2)

    def test_not_a_permutation(self):
        with pytest.raises(ValueError):
            permutation((1, 1, 2))
        with pytest.raises(ValueError):
            permutation((2,))

    def test_identity(self):
        e = identity(3)
        assert is_identity(e)
        assert e == (1, 2, 3, 4)
        assert length(e) == 0
        assert sign(e) == 1

    def test_apply_moves_coordinates(self):
        s1 = simple_reflection(1, 2)
        v = WeightVector(2, (5, 7, 9))
        assert apply(s1, v).coords == (7, 5, 9)
        with pytest.raises(ValueError):
            apply(s1, WeightVector(3, (1, 2, 3, 4)))

    def test_apply_shifted_highest_root_rank2(self):
        # sigma(theta + rho) - rho over the root basis for both reflections
        rho = rho_coords(2)
        shifted = add(WeightVector(2, embed(highest_root(2))), rho)
        s1 = simple_reflection(1, 2)
        s2 = simple_reflection(2, 2)
        assert to_root_basis(sub(apply(s1, shifted), rho)).coeffs == (-1, 1)
        assert to_root_basis(sub(apply(s2, shifted), rho)).coeffs == (1, -1)
        assert to_root_basis(sub(apply(identity(2), shifted), rho)).coeffs == (1, 1)


class TestLengthAndSign:
    def test_length_examples(self):
        assert length(identity(4)) == 0
        for i in range(1, 5):
            assert length(simple_reflection(i, 4)) == 1
        assert length((4, 3, 2, 1)) == 6  # longest element, rank 3

    def test_length_is_minimal_word_length(self):
        for rank in range(1, 5):
            dist = _bfs_min_word_lengths(rank)
            assert len(dist) == math.factorial(rank + 1)
            for w, d in dist.items():
                assert length(w) == d

    def test_generator_changes_length_by_one(self):
        for rank in range(1, 5):
            for w in itertools.permutations(range(1, rank + 2)):
                for i in range(1, rank + 1):
                    u = compose(w, simple_reflection(i, rank))
                    assert abs(length(u) - length(w)) == 1

    def test_sign_is_a_homomorphism(self):
        for rank in (2, 3):
            elems = list(all_elements(rank))
            for a in elems:
                for b in elems:
                    assert sign(compose(a, b)) == sign(a) * sign(b)


class TestEnumeration:
    def test_counts(self):
        assert len(list(all_elements(1))) == 2
        assert len(list(all_elements(3))) == 24

    def test_lexicographic_order(self):
        perms = list(all_elements(2))
        assert perms[0] == (1, 2, 3)
        assert perms == sorted(perms)
        assert len(perms) == len(set(perms)) == 6

    def test_cap(self):
        with pytest.raises(CapExceededError):
            all_elements(12)
        with pytest.raises(CapExceededError):
            all_elements(3, cap=2)
        assert len(list(all_elements(2, cap=2))) == 6


class TestProducts:
    def test_compose_applies_right_factor_first(self):
        a = simple_reflection(1, 2)
        b = simple_reflection(2, 2)
        v = WeightVector(2, (10, 20, 30))
        assert apply(compose(a, b), v).coords == apply(a, apply(b, v)).coords
        with pytest.raises(ValueError):
            compose(a, simple_reflection(1, 3))

    def test_product_of_commuting(self):
        w = product_of_commuting([2, 4], 5)
        assert w == (1, 3, 2, 5, 4, 6)
        assert length(w) == 2
        assert product_of_commuting([], 5) == identity(5)
        assert compose(w, w) == identity(5)

    def test_factor_order_is_irrelevant(self):
        assert product_of_commuting([4, 1], 5) == product_of_commuting([1, 4], 5)
        s1 = simple_reflection(1, 4)
        s3 = simple_reflection(3, 4)
        assert compose(s1, s3) == compose(s3, s1) == product_of_commuting([1, 3], 4)

    def test_consecutive_or_repeated_rejected(self):
        with pytest.raises(ValueError):
            product_of_commuting([2, 3], 5)
        with pytest.raises(ValueError):
            product_of_commuting([2, 2], 5)
        with pytest.raises(ValueError):
            product_of_commuting([0], 3)
        with pytest.raises(ValueError):
            product_of_commuting([4], 3)

    def test_length_is_number_of_factors(self):
        for indices in ((1,), (1, 3), (2, 4, 6), (1, 3, 5, 7)):
            assert length(product_of_commuting(indices, 8)) == len(indices)

    def test_word_round_trip(self):
        w = product_of_commuting([2, 4], 5)
        assert commuting_indices(w) == (2, 4)
        assert element_words([w]) == ["s2*s4"]
        assert element_words([identity(3)]) == ["1"]
        assert element_words([(2, 3, 1)]) == ["[2,3,1]"]
        assert commuting_indices((2, 3, 1)) is None
        assert commuting_indices((3, 2, 1)) is None

    def test_listing_order(self):
        # by length, then reflection indices; [2,3,1,4,5,6] has two
        # inversions, so it sorts after s1*s3 and before s1*s3*s5
        elements = [
            product_of_commuting([1, 3, 5], 5),
            (2, 3, 1, 4, 5, 6),
            product_of_commuting([1, 3], 5),
            identity(5),
            simple_reflection(2, 5),
        ]
        assert element_words(elements) == ["1", "s2", "s1*s3", "[2,3,1,4,5,6]", "s1*s3*s5"]
