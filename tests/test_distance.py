"""Generator-set recursions, distance polynomials, sorting sequences."""
import math

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from signedgrids.distance import (
    Family,
    ResourceLimitError,
    apply_move,
    distance_polynomial,
    pancake_pi,
    reversal_pi,
    sorting_sequence,
)
from signedgrids.perm import identity, inflate
from signedgrids.poly import format_coeff_array

import oracles
import tables
from strategies import signed_perms


class TestPancakePi:
    def test_base_case(self):
        assert pancake_pi(0) == frozenset({(1,)})

    def test_one_flip(self):
        assert pancake_pi(1) == frozenset({(-1, 2)})

    def test_two_flips(self):
        assert pancake_pi(2) == frozenset({(2, -1, 3), (-2, 1, 3)})

    @pytest.mark.parametrize("k", [*range(0, 7), 9])
    def test_lengths_and_cardinality(self, k):
        members = pancake_pi(k)
        assert all(len(p) == k + 1 for p in members)
        assert len(members) <= math.factorial(k)
        # measured: the k! bound is attained for every k checked so far
        assert len(members) == math.factorial(k)

    def test_negative_k(self):
        with pytest.raises(ValueError):
            pancake_pi(-1)


class TestReversalPi:
    def test_base_case(self):
        assert reversal_pi(0) == frozenset({(1,)})

    def test_one_reversal(self):
        # sole case i=j=1: inflate (1,) by (3,) to 1 2 3, then flip entry 2
        assert reversal_pi(1) == frozenset({(1, -2, 3)})

    @pytest.mark.parametrize("k", range(0, 4))
    def test_lengths(self, k):
        assert all(len(p) == 2 * k + 1 for p in reversal_pi(k))

    def test_measured_cardinalities(self):
        assert [len(reversal_pi(k)) for k in range(7)] == [1, 1, 4, 35, 444, 7534, 155877]


class TestDistancePolynomial:
    def test_pancake_zero_moves(self):
        assert format_coeff_array(distance_polynomial(Family.PANCAKE, 0)) == "[1]"

    def test_pancake_three(self):
        assert format_coeff_array(distance_polynomial(Family.PANCAKE, 3)) == "[1, 1, -1, 1]"

    def test_reversal_three(self):
        assert (
            format_coeff_array(distance_polynomial(Family.REVERSAL, 3))
            == "[1, 1/3, 35/72, 7/48, -5/144, 1/48, 7/144]"
        )

    def test_ceiling_guard(self):
        with pytest.raises(ResourceLimitError, match="ceiling"):
            distance_polynomial(Family.REVERSAL, 6)
        with pytest.raises(ResourceLimitError, match="ceiling"):
            distance_polynomial(Family.PANCAKE, 11)

    def test_ceiling_override(self):
        # same value either way, the guard is purely a resource gate
        p = distance_polynomial(Family.REVERSAL, 2, k_ceiling=2)
        assert p == tables.REVERSAL_AT_MOST[2]

    @pytest.mark.parametrize("family,k_top", [(Family.PANCAKE, 5), (Family.REVERSAL, 3)])
    def test_classes_grow_with_k(self, family, k_top):
        for k in range(k_top):
            p_small = distance_polynomial(family, k)
            p_big = distance_polynomial(family, k + 1)
            for n in range(1, 9):
                assert p_small(n) <= p_big(n)


class TestSortingSequence:
    def test_worked_flip_translation(self):
        # sorting -2 1 3 by flips (2, 1) lifts to flips (3, 2) on its
        # inflation by (1, 2, 3)
        sigma = inflate((-2, 1, 3), (1, 2, 3))
        assert sigma == (-3, 1, 2, 4, 5, 6)
        moves = sorting_sequence(sigma, Family.PANCAKE, (-2, 1, 3), (1, 2, 3), [2, 1])
        assert moves == [3, 2]

    def test_trivial_vector_keeps_sequence(self):
        pi = (2, -1, 3)
        s = oracles.bfs_sorting_moves(pi, oracles.pancake_moves)
        assert sorting_sequence(pi, Family.PANCAKE, pi, (1, 1, 1), s) == s

    def test_block_reversal_identity_case(self):
        moves = sorting_sequence(
            (1, -2, 3), Family.REVERSAL, (1, -2, 3), (1, 1, 1), [(2, 2)]
        )
        assert moves == [(2, 2)]
        assert apply_move((1, -2, 3), Family.REVERSAL, moves[0]) == (1, 2, 3)

    def test_rejects_inconsistent_vector_inputs(self):
        with pytest.raises(ValueError, match="inconsistent"):
            sorting_sequence((1, 2), Family.PANCAKE, (1,), (3,), [1])

    def test_rejects_nonsorting_moves(self):
        with pytest.raises(ValueError, match="do not sort"):
            sorting_sequence((1, 2), Family.PANCAKE, (1, 2), (1, 1), [1])

    @given(signed_perms(min_len=1, max_len=4), st.data())
    @settings(max_examples=30)
    def test_translated_sequence_sorts_pancake(self, core, data):
        vec = tuple(data.draw(st.integers(0, 2)) for _ in core)
        sigma = inflate(core, vec)
        s = oracles.bfs_sorting_moves(core, oracles.pancake_moves)
        translated = sorting_sequence(sigma, Family.PANCAKE, core, vec, s)
        assert len(translated) == len(s)
        current = sigma
        for move in translated:
            current = apply_move(current, Family.PANCAKE, move)
        assert current == identity(len(sigma))

    @given(signed_perms(min_len=1, max_len=3), st.data())
    @settings(max_examples=30)
    def test_translated_sequence_sorts_reversal(self, core, data):
        vec = tuple(data.draw(st.integers(0, 2)) for _ in core)
        sigma = inflate(core, vec)
        s = oracles.bfs_sorting_moves(core, oracles.reversal_moves)
        translated = sorting_sequence(sigma, Family.REVERSAL, core, vec, s)
        assert len(translated) == len(s)
        current = sigma
        for move in translated:
            current = apply_move(current, Family.REVERSAL, move)
        assert current == identity(len(sigma))
