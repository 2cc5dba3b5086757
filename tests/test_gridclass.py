"""Closure under containment, compact representatives, enumeration."""
import gc
from collections import Counter

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from signedgrids import distance, engine, gridclass
from signedgrids.gridclass import (
    LengthHistogram,
    class_polynomial,
    closure_histogram,
    complete_and_compact,
    enumerate_gridclass,
    grid_member,
    length_histogram,
    permset_from_lines,
    permset_to_lines,
)
from signedgrids.perm import delete, identity, is_compact
from signedgrids.poly import Polynomial, format_coeff_array

import oracles
from strategies import signed_perms

WORKED_EXAMPLE_S = frozenset(
    {(), (1,), (-1,), (-1, 2), (-2, 1), (-2, 1, 3)}
)


class TestCompleteAndCompact:
    def test_worked_example(self):
        assert complete_and_compact({(-2, 1, 3)}) == WORKED_EXAMPLE_S

    def test_epsilon_alone(self):
        assert complete_and_compact({()}) == frozenset({()})

    def test_increasing_run_collapses(self):
        # every nonempty subsequence of 1 2 3 is an increasing run; the
        # only compact one is the singleton
        down = oracles.downset_bruteforce((1, 2, 3))
        assert {p for p in down if is_compact(p)} == {(), (1,)}
        assert complete_and_compact({(1, 2, 3)}) == frozenset({(), (1,)})

    @pytest.mark.parametrize("m", range(1, 7))
    def test_monotone_collapse(self, m):
        assert complete_and_compact({identity(m)}) == frozenset({(), (1,)})

    @given(st.sets(signed_perms(max_len=5), max_size=3))
    def test_matches_bruteforce_downsets(self, members):
        expected = {()}
        for p in members:
            expected |= {q for q in oracles.downset_bruteforce(p) if is_compact(q)}
        assert complete_and_compact(members) == expected

    @given(st.sets(signed_perms(max_len=5), max_size=3))
    def test_idempotent(self, members):
        once = complete_and_compact(members)
        assert complete_and_compact(once) == once

    @given(st.sets(signed_perms(max_len=5), max_size=3))
    def test_downset_maximal(self, members):
        closed = complete_and_compact(members)
        for p in closed:
            for i in range(1, len(p) + 1):
                q = delete(p, i)
                if is_compact(q):
                    assert q in closed


class TestBlockedClosure:
    # seeds of lengths 6, 4, 3 and 1: 2 -1 3 lies inside the first, and
    # -2 4 -1 3 comes twice
    SEEDS = [(3, -1, 4, -6, 2, 5), (-2, 4, -1, 3), (2, -1, 3), (-2, 4, -1, 3), (-1,)]

    @pytest.mark.parametrize("block", [1, 7])
    def test_deletions_across_block_edges(self, monkeypatch, block):
        monkeypatch.setattr(engine, "_BLOCK_ROWS", block)
        assert (2, -1, 3) in oracles.downset_bruteforce(self.SEEDS[0])
        expected = {q for p in self.SEEDS for q in oracles.downset_bruteforce(p) if is_compact(q)}
        assert complete_and_compact(self.SEEDS) == expected
        assert closure_histogram(self.SEEDS) == length_histogram(expected)

    def test_one_union_per_level_and_no_whole_decode(self, monkeypatch):
        # level m is one union of its seeds and the single deletions of
        # level m + 1, and every decode is at most one block of 7 keys
        monkeypatch.setattr(engine, "_BLOCK_ROWS", 7)
        unions, decoded = [], []
        unique_keys, from_keys = engine.unique_keys, engine.from_keys

        def recording_union(parts, rows):
            keys = unique_keys(parts, rows)
            unions.append((rows, len(keys)))
            return keys

        def recording_from_keys(keys, m):
            decoded.append(len(keys))
            return from_keys(keys, m)

        monkeypatch.setattr(engine, "unique_keys", recording_union)
        monkeypatch.setattr(engine, "from_keys", recording_from_keys)
        complete_and_compact(self.SEEDS)
        closure_histogram(self.SEEDS)
        unions.clear()
        levels = [(m, len(keys)) for keys, m in gridclass._closure(self.SEEDS)]
        assert [m for m, _ in levels] == [6, 5, 4, 3, 2, 1]
        seeds, above = Counter(map(len, self.SEEDS)), [0] + [n for _, n in levels[:-1]]
        assert unions == [(seeds[m] + n * (m + 1), size) for (m, size), n in zip(levels, above)]
        assert max(size for _, size in levels) > 7 and max(decoded) == 7

    def test_listing_runs_no_collection(self, monkeypatch):
        # the 3,684 compact members of pancake Pi_6's closure come in
        # blocks of 7 rows; the collector stays paused across every block,
        # so no collection passes over the list filled so far, and is left
        # as it was found
        seeds = distance.pancake_pi(6)
        expected = complete_and_compact(seeds)
        monkeypatch.setattr(engine, "_BLOCK_ROWS", 7)
        building, starts = [False], []

        def record(phase, info):
            if building[0] and phase == "start":
                starts.append(info["generation"])

        enabled = gc.isenabled()
        gc.enable()
        gc.callbacks.append(record)
        try:
            gc.collect()  # so the few allocations before the pause trigger none
            building[0] = True
            members = complete_and_compact(seeds)
            building[0] = False
            assert gc.isenabled()
        finally:
            gc.callbacks.remove(record)
            (gc.enable if enabled else gc.disable)()
        assert members == expected and len(members) == 3684
        assert starts == []

    def test_refused_seed_leaves_the_collector_as_found(self):
        # the closure runs inside the paused fill, so its ValueError for a
        # seed that is no signed permutation comes from inside it
        paused = []
        levels = engine.levels
        enabled = gc.isenabled()
        try:
            for state in (True, False):
                (gc.enable if state else gc.disable)()
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(engine, "levels", lambda perms: paused.append(not gc.isenabled()) or levels(perms))
                    with pytest.raises(ValueError, match=r"^absolute values are not exactly 1\.\.3: \(2, 2, -5\)$"):
                        complete_and_compact([(2, 1, 3), (2, 2, -5)])
                assert gc.isenabled() is state
        finally:
            (gc.enable if enabled else gc.disable)()
        assert paused == [True, True]


class TestNonPermutationsRefused:
    # each would count or list rows that are no signed permutations
    def test_closure_histogram(self):
        with pytest.raises(ValueError, match=r"^absolute values are not exactly 1\.\.1: \(3,\)$"):
            closure_histogram([(3,)])

    def test_complete_and_compact(self):
        with pytest.raises(ValueError, match=r"^absolute values are not exactly 1\.\.3: \(2, 2, -5\)$"):
            complete_and_compact([(2, 1, 3), (2, 2, -5)])

    def test_enumerate_gridclass(self):
        with pytest.raises(ValueError, match=r"^absolute values are not exactly 1\.\.2: \(0, 2\)$"):
            enumerate_gridclass([(0, 2)])


class TestLengthHistogram:
    def test_worked_example(self):
        hist = length_histogram(WORKED_EXAMPLE_S)
        assert hist.counts == {1: 2, 2: 2, 3: 1}
        assert hist.has_epsilon

    def test_epsilon_only(self):
        hist = length_histogram({()})
        assert hist.counts == {}
        assert hist.has_epsilon
        assert hist.total() == 1

    def test_no_epsilon(self):
        hist = length_histogram({(1,), (-1,)})
        assert hist.counts == {1: 2}
        assert not hist.has_epsilon

    @given(st.sets(signed_perms(max_len=5), max_size=4))
    def test_closure_histogram_matches_materialized_set(self, members):
        closed = complete_and_compact(members)
        assert closure_histogram(members) == length_histogram(closed)


class TestEnumerate:
    def test_worked_example_polynomial(self):
        p = enumerate_gridclass({(-2, 1, 3)})
        assert format_coeff_array(p) == "[1, 1/2, 1/2]"

    def test_epsilon_gives_zero_polynomial(self):
        assert enumerate_gridclass({()}) == Polynomial(())

    def test_single_point_class(self):
        p = enumerate_gridclass({(1,)})
        assert p == Polynomial.from_coeffs([1])
        for n in range(1, 6):
            assert oracles.grid_count_bruteforce({(1,)}, n) == 1

    def test_union_that_keeps_repeats_refused(self, monkeypatch):
        # The library entry point runs the gate that `enumerate` on the CLI
        # runs: a union that skips deduplication gives 2 -1 3 -5 4 the
        # polynomial [90, 293/12, 131/24, 1/12, 1/24], which is refused.
        monkeypatch.setattr(engine, "_distinct", lambda keys: keys)
        with pytest.raises(ValueError, match=r"^grid class: P\(1\) = 120 is outside 0..2\^n n! = 2$"):
            enumerate_gridclass({(2, -1, 3, -5, 4)})

    def test_class_polynomial_is_the_one_gate(self):
        # `enumerate_gridclass` and the CLI's `enumerate` both take their
        # polynomial from this: a histogram no class has is refused
        assert class_polynomial(closure_histogram({(-2, 1, 3)})) == enumerate_gridclass({(-2, 1, 3)})
        with pytest.raises(ValueError, match=r"^grid class: P\(2\) = 9 is outside 0..2\^n n! = 8$"):
            class_polynomial(LengthHistogram({2: 9}, True))

    @given(st.sets(signed_perms(min_len=0, max_len=5), min_size=1, max_size=3))
    @settings(max_examples=40)
    def test_counts_match_bruteforce_inflation(self, members):
        p = enumerate_gridclass(members)
        for n in range(1, 8):
            expected = oracles.grid_count_bruteforce(members, n)
            assert p(n) == expected


class TestGridMember:
    def test_inflation_of_member(self):
        S = complete_and_compact({(-2, 1, 3)})
        assert grid_member((-3, -2, -1, 4, 5, 6), S)

    def test_epsilon(self):
        S = complete_and_compact({(-2, 1, 3)})
        assert grid_member((), S)

    def test_absent_compact_core(self):
        S = complete_and_compact({(-2, 1, 3)})
        assert is_compact((2, 1))
        assert (2, 1) not in S
        assert not grid_member((2, 1), S)

    @given(signed_perms(min_len=1, max_len=4), st.data())
    def test_matches_bruteforce_membership(self, base, data):
        S = complete_and_compact({base})
        n = data.draw(st.integers(1, 5))
        brute = set()
        for vec in oracles.compositions(n, len(base)):
            from signedgrids.perm import inflate

            brute.add(inflate(base, vec))
        from signedgrids.perm import all_perms

        for sigma in all_perms(n):
            assert grid_member(sigma, S) == (sigma in brute)


class TestPermSetFormat:
    def test_sorted_by_length_then_encoding(self):
        lines = permset_to_lines(WORKED_EXAMPLE_S)
        assert lines == ["", "-1", "1", "-1 2", "-2 1", "-2 1 3"]

    def test_round_trip(self):
        lines = permset_to_lines(WORKED_EXAMPLE_S)
        assert permset_from_lines(lines) == WORKED_EXAMPLE_S

    def test_epsilon_only_first(self):
        with pytest.raises(ValueError, match="line 2"):
            permset_from_lines(["1", ""])

    def test_parse_error_names_line(self):
        with pytest.raises(ValueError, match="line 2"):
            permset_from_lines(["1", "2 0 1"])

    @given(st.sets(signed_perms(max_len=4), max_size=6))
    def test_round_trip_arbitrary(self, members):
        assert permset_from_lines(permset_to_lines(members)) == frozenset(members)
