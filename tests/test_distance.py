"""Generator-set recursions, distance polynomials, sorting sequences."""
import math
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from signedgrids import distance, engine, gridclass
from signedgrids.distance import (
    Family,
    ResourceLimitError,
    apply_move,
    check_polynomial,
    distance_histogram,
    distance_polynomial,
    pancake_pi,
    reversal_pi,
    sorting_sequence,
)
from signedgrids.perm import format_perm, identity, inflate, is_compact, parse_canonical
from signedgrids.poly import Polynomial, format_coeff_array

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
        assert all(len(p) == k + 1 and is_compact(p) for p in members)
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
        sets = [reversal_pi(k) for k in range(7)]
        assert [len(members) for members in sets] == [1, 1, 4, 35, 444, 7534, 155877]
        assert all(is_compact(p) for members in sets for p in members)


class TestGeneratorCheck:
    @pytest.mark.parametrize("extra", [(1, 2), (2, -1, 3)], ids=["non-compact", "too-long"])
    def test_extra_member_rejected_before_store(self, tmp_path, monkeypatch, extra):
        grow = distance._grow
        tops = []

        def grow_one_more(level, family):
            grown = engine.to_tuples(grow(level, family))
            # the rows of a level share one length, so a longer member
            # can only come as a level of its own length
            members = grown + [extra] if len(extra) == len(grown[0]) else [extra]
            tops.append(engine.rows(members, len(extra)))
            return tops[-1]

        monkeypatch.setattr(distance, "_grow", grow_one_more)
        with pytest.raises(AssertionError, match="Pi_1"):
            distance_histogram(Family.PANCAKE, 1, tmp_path)
        # the patched step built the top level of the class, Pi_1
        assert len(tops) == 1 and extra in engine.to_tuples(tops[0])
        assert not (tmp_path / "pancake" / "S_1.hist").exists()

    def test_downset_walk_frees_each_level(self, monkeypatch):
        # While D_j(m) is built, the only levels alive, as rows or as keys,
        # are those of D_{j-1} no longer than m and, except on the last
        # step, the longer levels of D_j itself: D_{j-1}(m) is dropped once
        # D_j(m) is built, D_{j-1} once D_j is whole, and the last step
        # keeps no level it has yielded.  The last step decodes Pi_k whole
        # (in `_grow`) but counts each shorter level from its keys in
        # blocks of at most `block` rows.
        k, block = 3, 8
        refs = {}  # (j, m) -> weak references to D_j(m), as keys and as rows
        built = []
        decoded = []  # (length being built, rows decoded) on the last step
        grow, level_of, from_keys = distance._grow, distance._downset_level, engine.from_keys

        def alive():
            return {key for key, held in refs.items() if any(ref() is not None for ref in held)}

        def check(j, m):
            older = {(j - 1, shorter) for shorter in range(1, m + 1)}
            longer = {(j, m2) for m2 in range(m + 1, 2 * j + 2)} if j < k else set()
            assert alive() <= older | longer, f"D_{j}({m})"
            built.append((j, m))

        def record(level):
            refs.setdefault(built[-1], []).append(weakref.ref(level))
            return level

        def recording_grow(level, family):
            j = (level.shape[1] + 1) // 2  # the top of D_{j-1} has length 2j - 1
            check(j, 2 * j + 1)
            return record(grow(level, family))

        def recording_level(below, m, family):
            j = built[-1][0]
            check(j, m)
            return record(level_of(below, m, family))

        def recording_from_keys(keys, m):
            j, length = built[-1]
            if j < k:
                record(keys)
                return record(from_keys(keys, m))
            decoded.append((length, len(keys)))
            return from_keys(keys, m)

        monkeypatch.setattr(distance, "_grow", recording_grow)
        monkeypatch.setattr(distance, "_downset_level", recording_level)
        monkeypatch.setattr(engine, "from_keys", recording_from_keys)
        monkeypatch.setattr(engine, "_COUNT_ROWS", block)
        monkeypatch.setattr(distance, "_HIST_MEMO", {})
        hist = distance_histogram(Family.REVERSAL, k)
        assert hist.counts[2 * k + 1] == 35
        assert built == [(j, m) for j in range(1, k + 1) for m in range(2 * j + 1, 0, -1)]
        assert alive() == set()
        # the last step decodes Pi_k once, whole, and every shorter level,
        # some of them longer than a block, only a block at a time
        assert [n for m, n in decoded if m == 2 * k + 1] == [35]
        shorter = [(m, n) for m, n in decoded if m < 2 * k + 1]
        assert {m for m, _ in shorter} == set(range(1, 2 * k + 1))
        assert max(n for _, n in shorter) == block
        assert max(hist.counts.values()) > block


@pytest.mark.parametrize(
    "family,k",
    [
        *((Family.PANCAKE, k) for k in range(9)),
        *((Family.REVERSAL, k) for k in range(6)),
        pytest.param(Family.PANCAKE, 9, marks=pytest.mark.stretch),
    ],
    ids=str,
)
def test_downset_levels_equal_deletion_closure(family, k):
    # every level of the downset grown move by move is, row for row, the
    # level that deleting single entries from Pi_k reaches; below Pi_k the
    # levels come as keys, which are exact, so equal keys are equal rows
    expected = [distance.generator_set(family, k)]
    while expected[-1].shape[1] > 1:
        expected.append(engine.expand(expected[-1]))
    pi, shorter = distance._downset(family, k)
    assert np.array_equal(pi, expected[0])
    levels = list(shorter)
    assert [m for m, _ in levels] == [level.shape[1] for level in expected[1:]]
    for (m, keys), want in zip(levels, expected[1:]):
        assert np.array_equal(keys, engine.keys(want)), f"{family.value} k={k}, length {m}"


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

    @pytest.mark.parametrize("family,k_top", [(Family.PANCAKE, 9), (Family.REVERSAL, 5)])
    def test_tables_pass_the_gate(self, family, k_top):
        table = tables.PANCAKE_AT_MOST if family is Family.PANCAKE else tables.REVERSAL_AT_MOST
        for k in range(1, k_top + 1):
            check_polynomial(family, k, table[k])
            check_polynomial(family, k, table[k] - table.get(k - 1, Polynomial.from_coeffs([1])))

    @pytest.mark.parametrize(
        "family,coeffs,check",
        [
            (Family.REVERSAL, [0, Fraction(1, 2)], "not an integer"),  # n/2
            (Family.REVERSAL, [3], "outside"),  # P(1) = 3 > 2
            (Family.REVERSAL, [-2, 1], "outside"),  # P(1) = -1
            (Family.PANCAKE, [0, 2], "leading coefficient"),
            (Family.PANCAKE, [], "leading coefficient"),
        ],
    )
    def test_gate_rejects(self, family, coeffs, check):
        p = Polynomial.from_coeffs(coeffs)
        with pytest.raises(ValueError, match=f"{family.value} k=2: .*{check}"):
            check_polynomial(family, 2, p)

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


def _shared_entries(members) -> bool:
    """Whether equal entries of all the given tuples are one int object."""
    objects = {}
    for p in members:
        for x in p:
            objects.setdefault(x, set()).add(id(x))
    return all(len(ids) == 1 for ids in objects.values())


@pytest.mark.parametrize(
    "build",
    [
        lambda: pancake_pi(6),
        lambda: reversal_pi(3),
        lambda: gridclass.complete_and_compact({(-8, 1, -7, 2, -6, 3, -5, 4)}),
        lambda: [parse_canonical(format_perm(p)) for p in [(-7, 1, 2, 3, 4, 5, 6), (1, 2, 3, 4, 5, 6, -7)]],
    ],
    ids=["pancake_pi", "reversal_pi", "complete_and_compact", "parse_canonical"],
)
def test_tuples_share_entry_objects(build):
    # CPython caches only -5..256, so without sharing every entry from -6
    # down would be its own int object
    members = build()
    assert any(x < -5 for p in members for x in p)
    assert _shared_entries(members)
