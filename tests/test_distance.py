"""Generator-set recursions, distance polynomials, sorting sequences."""
import math
import re
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from signedgrids import distance, engine, gridclass
from signedgrids.cli import main
from signedgrids.distance import (
    Family,
    ResourceLimitError,
    apply_move,
    check_counts,
    check_polynomial,
    distance_classes,
    distance_polynomial,
    pancake_pi,
    reversal_pi,
    sorting_sequence,
)
from signedgrids.perm import format_perm, identity, inflate, is_compact, parse_canonical
from signedgrids.poly import Polynomial, format_coeff_array, from_histogram

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
    @pytest.mark.parametrize(
        "extra,error,check",
        [((1, 2), AssertionError, "Pi_1"), ((2, -1, 3), ValueError, "pancake k=1: P has degree 2, not 1")],
        ids=["non-compact", "too-long"],
    )
    def test_extra_member_rejected_before_store(self, tmp_path, monkeypatch, extra, error, check):
        # The mutant step adds `extra` to the level of its length.  The rows
        # of a level share one length, so a longer member needs a longer top
        # level: for it, a pancake step also takes reversal M_2, whose cuts
        # both sit inside split entries (pancake M_2 pins its left cut, so
        # it has no plan).  Only the walk sees that a member of Pi_k is not
        # compact; a top length past the generator length is the polynomial
        # gate's degree.
        level_of, split_moves = distance._downset_level, distance._split_moves
        tops = []

        def one_more(below, m, family):
            keys = level_of(below, m, family)
            if m == len(extra):
                tops.append(sorted({*engine.to_tuples(engine.from_keys(keys, m)), extra}))
                keys = engine.keys(engine.rows(tops[-1], m))
            return keys

        def with_reversal_m2(level, family, inside):
            return split_moves(level, Family.REVERSAL if inside == 2 else family, inside)

        monkeypatch.setattr(distance, "_downset_level", one_more)
        monkeypatch.setattr(distance, "_split_moves", with_reversal_m2)
        monkeypatch.setitem(distance._MAX_INSIDE, Family.PANCAKE, len(extra) - 1)
        with pytest.raises(error, match=check):
            distance_classes(Family.PANCAKE, range(1, 2), cache_dir=tmp_path)
        # the patched step built the top level of the class, Pi_1
        assert len(tops) == 1 and extra in tops[0]
        assert not (tmp_path / "pancake" / "S_1.hist").exists()
        assert not (tmp_path / "pancake" / "pi_1.perms").exists()

    def test_downset_walk_frees_each_level(self, monkeypatch, tmp_path):
        # Every level of the walk is held as its sorted keys alone.  While
        # D_j(m) is built, the only levels alive are those of D_{j-1} no
        # longer than m and, except on the last step, the longer levels of
        # D_j itself: D_{j-1}(m) is dropped once D_j(m) is built, D_{j-1}
        # once D_j is whole, and the last step keeps no level but, when a
        # store will get it, the keys of Pi_k.  No level is decoded whole
        # in the walk: every decode is one block of at most `block` keys,
        # dropped before the next level is built, and each block of a
        # source level is decoded once per level it grows, not once per
        # plan.  Every level of every class is counted once, from its keys,
        # by `compact_count`.  Once the walk is over, a store gets Pi_k
        # decoded whole from the keys the walk kept, with no growth step.
        k, block = 3, 8
        refs = {}  # (j, m) -> a weak reference to the keys of D_j(m)
        sizes = {(0, 1): 1}  # (j, m) -> the rows of D_j(m), from D_0(1), the base
        built = []  # (j, m), from D_0(1), made before any step
        counted = []  # (j, m) of each level counted
        decodes = {}  # ("grow" or "count", j, m) -> blocks decoded while D_j(m) is built or counted
        decoded, blocks = [], []  # keys per decode in the walk; weak references to the blocks
        counting = []  # nonempty while a level is counted, so a decode is one of its blocks
        after = []  # growth steps and decodes once the walk is over
        level_of, from_keys, count = distance._downset_level, engine.from_keys, engine.compact_count
        walk = distance._computed_histograms

        def alive():
            return {key for key, ref in refs.items() if ref() is not None}

        def recording_level(below, m, family):
            if built[-1] is None:
                after.append(("step", m))
                return level_of(below, m, family)
            # m falls within a step and rises at the start of the next
            j = built[-1][0] + (m > built[-1][1])
            older = {(j - 1, shorter) for shorter in range(1, m + 1)}
            longer = {(j, m2) for m2 in range(m + 1, 2 * j + 2)} if j < k else set()
            kept = {(k, 2 * k + 1)} if j == k and store is not None else set()
            assert alive() <= older | longer | kept, f"D_{j}({m})"
            assert [ref for ref in blocks if ref() is not None] == [], f"D_{j}({m})"
            built.append((j, m))
            keys = level_of(below, m, family)
            refs[j, m], sizes[j, m] = weakref.ref(keys), len(keys)
            return keys

        def recording_count(keys, m):
            assert refs[built[-1]]() is keys
            counted.append(built[-1])
            counting.append(m)
            try:
                return count(keys, m)
            finally:
                counting.pop()

        def recording_from_keys(keys, m):
            if built[-1] is None:
                after.append(("decode", m, len(keys)))
                return from_keys(keys, m)
            how = ("count" if counting else "grow", *built[-1])
            decodes[how] = decodes.get(how, 0) + 1
            decoded.append(len(keys))
            level = from_keys(keys, m)
            blocks.append(weakref.ref(level))
            return level

        def recording_walk(*args):
            hists, tops = walk(*args)
            built.append(None)  # the walk is over
            # Pi_k's keys, and nothing else, outlive the walk for a store
            assert list(tops) == ([] if store is None else [k])
            assert alive() == ({(k, 2 * k + 1)} if store is not None else set())
            return hists, tops

        monkeypatch.setattr(distance, "_downset_level", recording_level)
        monkeypatch.setattr(distance, "_computed_histograms", recording_walk)
        monkeypatch.setattr(engine, "from_keys", recording_from_keys)
        monkeypatch.setattr(engine, "compact_count", recording_count)
        monkeypatch.setattr(engine, "_COUNT_ROWS", block)
        steps = [(j, m) for j in range(1, k + 1) for m in range(2 * j + 1, 0, -1)]
        cuts = range(distance._MAX_INSIDE[Family.REVERSAL] + 1)
        for store in (None, tmp_path):
            refs.clear(), counted.clear(), decodes.clear(), decoded.clear(), blocks.clear(), after.clear()
            built[:] = [(0, 1)]
            [(hist, _)] = distance_classes(Family.REVERSAL, range(k, k + 1), cache_dir=store)
            assert hist.counts[2 * k + 1] == 35
            assert built[1:-1] == steps
            assert alive() == set()
            assert counted == steps
            # no decode in the walk is more than a block, though some
            # levels are longer than one
            assert max(decoded) == block < max(sizes.values())
            # a level's blocks are decoded once each to count it, and each
            # block of its sources once to grow it
            assert decodes == {
                **{("count", j, m): -(-sizes[j, m] // block) for j, m in steps},
                **{("grow", j, m): sum(-(-sizes[j - 1, m - c] // block) for c in cuts if (j - 1, m - c) in sizes) for j, m in steps},
            }
            # after the walk, a store's export decodes Pi_k once from the
            # keys the walk kept, and grows nothing
            assert after == ([] if store is None else [("decode", 7, 35)])


_SPLIT_MOVES, _DOWNSET_LEVEL = distance._split_moves, distance._downset_level


def _pancake_without_the_full_flip(shortest):
    """Pancake M_0 without the flip of the whole row, on rows at least
    `shortest` long."""

    def mutant(m, family, inside):
        if inside or m < shortest:
            yield from _SPLIT_MOVES(m, family, inside)
        else:
            yield (), [(0, b) for b in range(m)]

    return mutant


def _reversal_without_the_empty_segment(m, family, inside):
    if inside:
        yield from _SPLIT_MOVES(m, family, inside)
        return
    yield (), [(a, b) for a in range(m) for b in range(a + 1, m + 1)]


def _reversal_m1_without_its_last_right_cut(m, family, inside):
    if inside != 1:
        yield from _SPLIT_MOVES(m, family, inside)
        return
    for j in range(m):
        yield (j,), [(min(b, j + 1), max(b, j + 1)) for b in range(m + 1)]


def _one_less(below, m, family):
    """Drop the first key of each top level of more than one."""
    keys = _DOWNSET_LEVEL(below, m, family)
    top = m == max(below) + distance._MAX_INSIDE[family]
    return keys[1:] if top and len(keys) > 1 else keys


class TestLevelIdentity:
    # Growth mutants, each caught by e_m + e_{m-1} = c_{m-1} in class j at
    # the length m given.  The walk checks every class on its way to k, so
    # most fail in a class below k.  All but the last printed a wrong
    # polynomial with exit 0 before the identity was checked: every value
    # an integer in range, and for pancakes a leading coefficient of 1.
    # The long-rows-only pancake mutant damages no level shorter than 9.
    # `_one_less` was already refused by the leading coefficient, and now
    # fails the identity first.
    @pytest.mark.parametrize(
        "target,mutant,family,k,j,m",
        [
            ("_split_moves", _pancake_without_the_full_flip(1), Family.PANCAKE, 3, 1, 2),
            ("_split_moves", _pancake_without_the_full_flip(9), Family.PANCAKE, 9, 9, 10),
            ("_split_moves", _reversal_without_the_empty_segment, Family.REVERSAL, 2, 1, 1),
            ("_split_moves", _reversal_without_the_empty_segment, Family.REVERSAL, 4, 1, 1),
            ("_split_moves", _reversal_m1_without_its_last_right_cut, Family.REVERSAL, 2, 1, 3),
            ("_split_moves", _reversal_m1_without_its_last_right_cut, Family.REVERSAL, 3, 1, 3),
            ("_split_moves", _reversal_m1_without_its_last_right_cut, Family.REVERSAL, 4, 1, 3),
            ("_downset_level", _one_less, Family.PANCAKE, 3, 2, 3),
        ],
        ids=[
            "pancake-no-full-flip-3",
            "pancake-no-full-flip-on-long-rows-9",
            "reversal-no-empty-segment-2",
            "reversal-no-empty-segment-4",
            "reversal-m1-no-last-right-cut-2",
            "reversal-m1-no-last-right-cut-3",
            "reversal-m1-no-last-right-cut-4",
            "pancake-one-less-3",
        ],
    )
    def test_growth_mutant_refused(self, tmp_path, capsys, monkeypatch, target, mutant, family, k, j, m):
        monkeypatch.setattr(distance, target, mutant)
        found = rf"^{family.value} k={j}: \d+ compact members of length {m} end in \+{m}, not \d+$"
        with pytest.raises(AssertionError, match=found):
            distance_classes(family, range(k, k + 1), cache_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []
        # the CLI lets AssertionError through, so the process exits nonzero
        with pytest.raises(AssertionError, match=found):
            main(["--cache-dir", str(tmp_path), family.value, "--k", str(k)])
        assert capsys.readouterr().out == ""
        assert list(tmp_path.iterdir()) == []


def _unchecked_counts(family, k):
    """The compact rows of each level of D_k, k >= 1, grown with
    `_downset_level` as the walk grows them but counted with no check."""
    below = {1: engine.keys(engine.rows([(1,)], 1))}
    for _ in range(k):
        below = {m: distance._downset_level(below, m, family) for m in range(max(below) + distance._MAX_INSIDE[family], 0, -1)}
    return {m: engine.compact_count(keys, m)[0] for m, keys in below.items()}


class TestCountsGate:
    # The growth mutants above under the BFS counts of B_1..B_7 alone,
    # their histograms counted with no identity check.  The long-rows-only
    # pancake mutant is left out: it damages only levels of length 9 and
    # up, which add nothing to P(1..7).
    @pytest.mark.parametrize(
        "target,mutant,family,k",
        [
            ("_split_moves", _pancake_without_the_full_flip(1), Family.PANCAKE, 3),
            ("_split_moves", _reversal_without_the_empty_segment, Family.REVERSAL, 2),
            ("_split_moves", _reversal_without_the_empty_segment, Family.REVERSAL, 4),
            ("_split_moves", _reversal_m1_without_its_last_right_cut, Family.REVERSAL, 2),
            ("_split_moves", _reversal_m1_without_its_last_right_cut, Family.REVERSAL, 3),
            ("_split_moves", _reversal_m1_without_its_last_right_cut, Family.REVERSAL, 4),
            ("_downset_level", _one_less, Family.PANCAKE, 3),
        ],
        ids=[
            "pancake-no-full-flip-3",
            "reversal-no-empty-segment-2",
            "reversal-no-empty-segment-4",
            "reversal-m1-no-last-right-cut-2",
            "reversal-m1-no-last-right-cut-3",
            "reversal-m1-no-last-right-cut-4",
            "pancake-one-less-3",
        ],
    )
    def test_growth_mutant_fails_the_counts(self, monkeypatch, target, mutant, family, k):
        monkeypatch.setattr(distance, target, mutant)
        counts = _unchecked_counts(family, k)
        p = from_histogram({m: count for m, count in counts.items() if count})
        found = rf"^{family.value} k={k}: P\(\d\) = -?\d+, but B_\d has \d+ at distance at most {k}$"
        with pytest.raises(ValueError, match=found):
            check_counts(family, k, p)


@pytest.mark.parametrize(
    "family,k",
    [
        *((Family.PANCAKE, k) for k in range(9)),
        *((Family.REVERSAL, k) for k in range(6)),
        pytest.param(Family.PANCAKE, 9, marks=pytest.mark.stretch),
    ],
    ids=str,
)
def test_downset_levels_equal_deletion_closure(monkeypatch, family, k):
    # every level of the downset grown move by move, Pi_k first, is, row
    # for row, the level that deleting single entries from Pi_k reaches;
    # the walk hands each level to `compact_count` as keys, which are
    # exact, so equal keys are equal rows.  A class's levels come top
    # down, so the last run that starts at the top length is D_k.
    levels, count = [], engine.compact_count

    def kept(keys, m):
        if levels and m > levels[-1][0]:
            levels.clear()
        levels.append((m, keys))
        return count(keys, m)

    monkeypatch.setattr(engine, "compact_count", kept)
    distance._computed_histograms(family, k)
    monkeypatch.undo()
    expected = [distance.generator_set(family, k)]
    while expected[-1].shape[1] > 1:
        expected.append(engine.expand(expected[-1]))
    if k == 0:  # D_0 = {1} is the walk's base, counted by no step
        levels = [(1, engine.keys(engine.rows([(1,)], 1)))]
    assert [m for m, _ in levels] == [level.shape[1] for level in expected]
    for (m, keys), want in zip(levels, expected):
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
            (Family.REVERSAL, [1, 1], "degree"),  # 1 + n: every value passes, but not degree 4
        ],
    )
    def test_gate_rejects(self, family, coeffs, check):
        p = Polynomial.from_coeffs(coeffs)
        with pytest.raises(ValueError, match=f"{family.value} k=2: .*{check}"):
            check_polynomial(family, 2, p)

    @pytest.mark.parametrize("family,k_top", [(Family.PANCAKE, 10), (Family.REVERSAL, 5)])
    def test_tables_match_the_bfs_counts(self, family, k_top):
        table = {0: Polynomial.from_coeffs([1])}
        table |= tables.PANCAKE_AT_MOST if family is Family.PANCAKE else tables.REVERSAL_AT_MOST
        for k in range(k_top + 1):
            check_counts(family, k, table[k])

    @pytest.mark.parametrize(
        "family,k,last,check",
        [
            (Family.REVERSAL, 2, 1, "P(1) = 3, but B_1 has 2 at distance at most 2"),
            # 6! = 720 more at n = 7 alone: the gate reaches B_7
            (Family.PANCAKE, 3, 7, "P(7) = 1022, but B_7 has 302 at distance at most 3"),
        ],
        ids=["reversal-at-most-2", "pancake-at-most-3"],
    )
    def test_counts_gate_rejects(self, family, k, last, check):
        # p plus (n - 1)...(n - last + 1), which is 0 at n < last and
        # (last - 1)! at n = last
        table = tables.PANCAKE_AT_MOST if family is Family.PANCAKE else tables.REVERSAL_AT_MOST
        one = Polynomial.from_coeffs([1])
        change = math.prod((Polynomial.from_coeffs([-i, 1]) for i in range(1, last)), start=one)
        with pytest.raises(ValueError, match=f"^{family.value} k={k}: {re.escape(check)}$"):
            check_counts(family, k, table[k] + change)

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

    @pytest.mark.parametrize(
        "family,move",
        [(Family.PANCAKE, 0), (Family.PANCAKE, 4), (Family.PANCAKE, (1, 2)), (Family.REVERSAL, (2, 1)), (Family.REVERSAL, (1, 4))],
        ids=["flip-0", "flip-past-the-end", "pancake-pair", "reversal-backwards", "reversal-past-the-end"],
    )
    def test_rejects_moves_that_do_not_apply(self, family, move):
        # a move of pi, of length 3, after one move that applies
        first = 1 if family is Family.PANCAKE else (1, 1)
        with pytest.raises(ValueError, match=r"^move .* does not apply to a permutation of length 3$"):
            sorting_sequence((2, 3, -1, 4), family, (2, -1, 3), (2, 1, 1), [first, move])

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
