"""Pointwise operators on signed permutations."""
import gc
import itertools
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from signedgrids import engine
from signedgrids.perm import (
    all_perms,
    block_reversal,
    check_perm,
    compactify,
    contains,
    delete,
    format_perm,
    identity,
    inflate,
    is_compact,
    parse_canonical,
    parse_perm,
    prefix_reversal,
    standardize,
)

import oracles
from strategies import signed_perms


class TestIdentity:
    def test_empty(self):
        assert identity(0) == ()

    def test_small(self):
        assert identity(1) == (1,)
        assert identity(3) == (1, 2, 3)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            identity(-1)


class TestStandardize:
    def test_known_word(self):
        assert standardize((9, -7, 4, 3, -5)) == (5, -4, 2, 1, -3)

    def test_empty(self):
        assert standardize(()) == ()

    def test_already_standard(self):
        assert standardize((-2, 1, 3)) == (-2, 1, 3)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            standardize((1, 0, 2))

    def test_rejects_repeated_absolute_value(self):
        with pytest.raises(ValueError):
            standardize((3, -3))

    @given(signed_perms())
    def test_idempotent(self, p):
        assert standardize(p) == p


class TestContains:
    def test_known_pattern(self):
        assert contains((4, -1, 5, 3, -2), (3, -1, 4, -2))

    def test_empty_pattern_in_everything(self):
        assert contains((), ())
        assert contains((2, -1), ())

    def test_sign_mismatch(self):
        # exhaustive over the three nonempty subsequences of 1 2
        sigma = (1, 2)
        subseqs = [(1,), (2,), (1, 2)]
        assert all(standardize(s) != (-1,) for s in subseqs)
        assert not contains(sigma, (-1,))

    def test_too_long_pattern(self):
        assert not contains((1,), (1, 2))

    @given(signed_perms(max_len=5))
    def test_agrees_with_subsequence_enumeration(self, sigma):
        down = oracles.downset_bruteforce(sigma)
        for pi in down:
            assert contains(sigma, pi)
        for n in range(len(sigma) + 1):
            for pi in all_perms(n):
                assert contains(sigma, pi) == (pi in down)


class TestDelete:
    def test_delete_maximum(self):
        assert delete((-2, 1, 3), 3) == (-2, 1)

    def test_delete_with_relabel(self):
        assert delete((-2, 1, 3), 1) == (1, 2)

    def test_delete_to_empty(self):
        assert delete((1,), 1) == ()

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            delete((1, 2), 0)
        with pytest.raises(IndexError):
            delete((1, 2), 3)

    @given(signed_perms(min_len=1), st.data())
    def test_matches_standardize_of_rest(self, p, data):
        i = data.draw(st.integers(1, len(p)))
        assert delete(p, i) == standardize(p[: i - 1] + p[i:])


class TestInflate:
    def test_negative_then_positive_block(self):
        assert inflate((-1, 2), (3, 4)) == (-3, -2, -1, 4, 5, 6, 7)

    def test_zero_block_removes(self):
        assert inflate((2, 1, -3), (2, 3, 0)) == (4, 5, 1, 2, 3)

    def test_three_blocks(self):
        assert inflate((1, -2, 3), (3, 3, 3)) == (1, 2, 3, -6, -5, -4, 7, 8, 9)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            inflate((1, 2), (1,))

    def test_negative_size(self):
        with pytest.raises(ValueError):
            inflate((1,), (-1,))

    @given(signed_perms())
    def test_all_ones_is_identity_map(self, p):
        assert inflate(p, (1,) * len(p)) == p

    @given(signed_perms(max_len=4), st.data())
    def test_length_is_vector_sum(self, p, data):
        vec = tuple(data.draw(st.integers(0, 3)) for _ in p)
        result = inflate(p, vec)
        assert len(result) == sum(vec)
        assert check_perm(result) == result

    @given(signed_perms(max_len=5))
    def test_zero_vector_gives_empty(self, p):
        assert inflate(p, (0,) * len(p)) == ()


class TestContainmentInflationDuality:
    @given(signed_perms(max_len=5))
    def test_downset_equals_01_inflations(self, sigma):
        m = len(sigma)
        inflations = {
            inflate(sigma, vec) for vec in itertools.product((0, 1), repeat=m)
        }
        assert inflations == oracles.downset_bruteforce(sigma)


class TestIsCompact:
    def test_increasing_pair(self):
        assert not is_compact((1, 2))

    def test_known_compact(self):
        assert is_compact((-2, 1, 3))

    def test_negative_adjacent_run(self):
        assert not is_compact((-3, -2, -1, 4, 5, 6))

    def test_empty_and_singletons(self):
        assert is_compact(())
        assert is_compact((1,))
        assert is_compact((-1,))


class TestCompactify:
    def test_two_runs(self):
        assert compactify((-3, -2, -1, 4, 5, 6)) == ((-1, 2), (3, 3))

    def test_already_compact(self):
        assert compactify((-2, 1, 3)) == ((-2, 1, 3), (1, 1, 1))

    def test_single_run(self):
        # no other compact permutation fills to 1 2 3 4 (exhaustive check)
        assert oracles.all_fillings((1, 2, 3, 4)) is not None
        cores = {
            core
            for core, _ in oracles.all_fillings((1, 2, 3, 4))
            if is_compact(core)
        }
        assert cores == {(1,)}
        assert compactify((1, 2, 3, 4)) == ((1,), (4,))

    def test_empty(self):
        assert compactify(()) == ((), ())

    @given(signed_perms())
    def test_round_trip(self, sigma):
        core, vec = compactify(sigma)
        assert is_compact(core)
        assert all(v >= 1 for v in vec)
        assert inflate(core, vec) == sigma

    @given(signed_perms(max_len=6))
    def test_unique_compact_filling(self, sigma):
        compact_fillings = [
            (core, vec)
            for core, vec in oracles.all_fillings(sigma)
            if is_compact(core)
        ]
        assert compact_fillings == [compactify(sigma)]


class TestPrefixReversal:
    def test_flip_one(self):
        assert prefix_reversal((1, 3, -2), 1) == (-1, 3, -2)

    def test_flip_two(self):
        assert prefix_reversal((1, 3, -2), 2) == (-3, -1, -2)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            prefix_reversal((1, 2), 3)
        with pytest.raises(IndexError):
            prefix_reversal((1, 2), 0)

    @given(signed_perms(min_len=1), st.data())
    def test_involution(self, p, data):
        i = data.draw(st.integers(1, len(p)))
        assert prefix_reversal(prefix_reversal(p, i), i) == p

    @given(signed_perms(min_len=1), st.data())
    def test_preserves_validity(self, p, data):
        i = data.draw(st.integers(1, len(p)))
        assert check_perm(prefix_reversal(p, i))


class TestBlockReversal:
    def test_full_reversal(self):
        assert block_reversal((1, 2), 1, 2) == (-2, -1)

    def test_single_entry(self):
        assert block_reversal((1, 2, 3), 2, 2) == (1, -2, 3)

    def test_crossed_indices(self):
        with pytest.raises(IndexError):
            block_reversal((1, 2, 3), 3, 2)

    @given(signed_perms(min_len=1), st.data())
    def test_involution(self, p, data):
        i = data.draw(st.integers(1, len(p)))
        j = data.draw(st.integers(i, len(p)))
        assert block_reversal(block_reversal(p, i, j), i, j) == p


class TestCompactnessEquivalences:
    """Compactness, the no-adjacent-step scan, and filling uniqueness agree."""

    @pytest.mark.parametrize("n", range(0, 5))
    def test_scan_equals_bounded_vector_uniqueness(self, n):
        for pi in all_perms(n):
            assert is_compact(pi) == self._unique_under_bounded_vectors(pi)

    @staticmethod
    def _unique_under_bounded_vectors(pi):
        m = len(pi)
        for total in range(m, m + 4):
            images = {}
            for v1 in oracles.compositions(total, m, minimum=1):
                images.setdefault(inflate(pi, v1), v1)
            for v2 in oracles.compositions(total, m, minimum=0):
                image = inflate(pi, v2)
                if image in images and images[image] != v2:
                    return False
        return True


class TestTextEncoding:
    def test_round_trip(self):
        assert parse_perm("-2 1 3") == (-2, 1, 3)
        assert format_perm((-2, 1, 3)) == "-2 1 3"
        assert parse_perm("") == ()
        assert format_perm(()) == ""

    def test_rejects_zero(self):
        with pytest.raises(ValueError, match="zero"):
            parse_perm("1 0 2")

    def test_rejects_repeat(self):
        with pytest.raises(ValueError, match="repeated"):
            parse_perm("1 -1")

    def test_rejects_nonstandard(self):
        with pytest.raises(ValueError, match="absolute values"):
            parse_perm("1 5")

    def test_rejects_garbage(self):
        with pytest.raises(ValueError, match="integers"):
            parse_perm("1 x")

    @given(signed_perms())
    def test_parse_format_round_trip(self, p):
        assert parse_perm(format_perm(p)) == p


class TestCanonicalParse:
    @given(signed_perms(max_len=8))
    def test_round_trip(self, p):
        assert parse_canonical(format_perm(p)) == p

    def test_injective_on_small_lengths(self):
        seen = set()
        for n in range(4):
            for p in all_perms(n):
                q = parse_canonical(format_perm(p))
                assert q not in seen
                seen.add(q)

    @given(signed_perms(max_len=8))
    def test_trailing_space_rejected(self, p):
        with pytest.raises(ValueError):
            parse_canonical(format_perm(p) + " ")


class TestArrayEngine:
    """The level operators act row by row as the tuple operators do."""

    LEVEL = sorted(all_perms(4))

    @given(signed_perms(min_len=1, max_len=8))
    def test_operators_match_tuple_operators(self, p):
        level = engine.rows([p], len(p))
        assert engine.to_tuples(engine.from_keys(engine.keys(level), len(p))) == [p]
        assert engine.to_tuples(level) == [p]
        assert engine.compact_mask(level).tolist() == [is_compact(p)]
        for i in range(len(p)):
            assert engine.to_tuples(engine.delete_column(level, i)) == [delete(p, i + 1)]
            sizes = [2 if j == i else 1 for j in range(len(p))]
            assert engine.to_tuples(engine.split_column(level, i)) == [inflate(p, sizes)]

    @given(signed_perms(min_len=1, max_len=13))
    def test_keys_exact_and_in_row_order(self, p):
        # p, p with one entry negated and p with two adjacent entries
        # swapped agree on long prefixes; some differ in the last entry's
        # sign alone, the one field that the key stores as a bit
        m = len(p)
        near = {p}
        for i in range(m):
            near.add(p[:i] + (-p[i],) + p[i + 1 :])
            near.add(p[:i] + p[i : i + 2][::-1] + p[i + 2 :])
        rows = sorted(near)
        keys = engine.keys(engine.rows(rows, m))
        assert engine.to_tuples(engine.from_keys(keys, m)) == rows
        assert all(a < b for a, b in zip(keys.tolist(), keys.tolist()[1:]))

    def test_operators_on_a_whole_level(self):
        level = engine.rows(self.LEVEL, 4)
        assert engine.to_tuples(level) == self.LEVEL
        # key order is the lexicographic order of the rows
        keys = engine.keys(level).tolist()
        assert keys == sorted(set(keys))
        assert engine.compact_mask(level).tolist() == [is_compact(p) for p in self.LEVEL]
        for i in range(4):
            assert engine.to_tuples(engine.delete_column(level, i)) == [delete(p, i + 1) for p in self.LEVEL]
            sizes = [2 if j == i else 1 for j in range(4)]
            assert engine.to_tuples(engine.split_column(level, i)) == [inflate(p, sizes) for p in self.LEVEL]

    @given(
        st.lists(st.lists(st.integers(0, 383), max_size=40), min_size=1, max_size=30),
        st.lists(st.integers(0, 383), min_size=1, max_size=10),
        st.integers(0, 30),
        st.integers(0, 60),
        st.integers(1, 9),
    )
    def test_unique_keys_sorted_and_distinct(self, picks, few, at, limit, block):
        level = engine.rows(self.LEVEL, 4)
        union = engine.unique_keys([level[::-1], level[:100]], 484)
        assert engine.to_tuples(engine.from_keys(union, 4)) == self.LEVEL
        # many parts drawn with repeats, empty ones among them, and one part
        # of a few rows repeated, longer than the level and than the limit
        # on a single sort, which is set small so that batches of every
        # size are merged into the result; the distinct keys are moved
        # forward in small blocks, so runs of repeats cross their bounds
        picks.insert(at, few * len(level))
        parts = [level[pick] for pick in picks]
        all_keys = engine.keys(np.concatenate(parts)).tolist()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine, "_SORT_KEYS", limit)
            patch.setattr(engine, "_BLOCK_ROWS", block)
            union = engine.unique_keys(iter(parts), len(all_keys))
        assert union.tolist() == sorted(set(all_keys))
        expected = sorted({self.LEVEL[i] for pick in picks for i in pick})
        assert engine.to_tuples(engine.from_keys(union, 4)) == expected

    def test_union_refuses_a_wrong_row_count(self):
        level = engine.rows(self.LEVEL, 4)
        for rows in (0, 383, 385, 1000):
            for parts in ([level], [level[:100], level[100:]], (level[i::7] for i in range(7))):
                with pytest.raises(ValueError, match=f"^the parts of a union hold 384 rows, not {rows}$"):
                    engine.unique_keys(parts, rows)

    def _stack(self):
        """Three copies of all of B_4 as a (3, 384, 4) stack laid out as a
        gather lies: the level itself, reversed and negated whole, and with
        entries 2..3 reversed and negated."""
        level = engine.rows(self.LEVEL, 4)
        order = np.array([[0, 1, 2, 3], [3, 2, 1, 0], [0, 2, 1, 3]])
        sign = np.array([[1, 1, 1, 1], [-1, -1, -1, -1], [1, -1, -1, 1]], dtype=np.int8)
        return (level[:, order] * sign).transpose(1, 0, 2)

    def test_keys_of_a_stack_are_those_of_its_slabs(self):
        stack = self._stack()
        assert not stack.flags.c_contiguous
        flat = engine.keys(stack)
        assert flat.shape == (3 * len(self.LEVEL),)
        assert np.array_equal(flat, np.concatenate([engine.keys(slab) for slab in stack]))

    def test_union_of_a_stacked_part_is_that_of_its_slabs(self):
        stack = self._stack()
        union = engine.unique_keys([stack], 3 * len(self.LEVEL))
        assert np.array_equal(union, engine.unique_keys(list(stack), 3 * len(self.LEVEL)))
        assert engine.to_tuples(engine.from_keys(union, 4)) == self.LEVEL

    def test_zero_width_rows_are_empty_tuples(self):
        assert engine.to_tuples(np.empty((3, 0), dtype=np.int8)) == [(), (), ()]
        assert engine.to_tuples(engine.delete_column(engine.rows([(1,)], 1), 0)) == [()]

    def _sevens(self, level):
        """The rows of `level` as blocks of 7 rows, made as they are read."""
        return (level[start : start + 7] for start in range(0, len(level), 7))

    def test_tuple_set_runs_no_collection(self):
        # 23,040 new tuples in blocks of 7 rows, far past the young
        # generation's threshold: an enabled collector would pass over them
        # dozens of times, and over the set filled so far after each block
        big = np.tile(engine.rows(self.LEVEL, 4), (60, 1))
        building, starts = [False], []

        def record(phase, info):
            if building[0] and phase == "start":
                starts.append(info["generation"])

        enabled = gc.isenabled()
        gc.enable()
        gc.callbacks.append(record)
        try:
            blocks = self._sevens(big)
            gc.collect()  # so the few allocations before the pause trigger none
            building[0] = True
            members = engine.tuple_set(blocks)
            building[0] = False
            assert gc.isenabled()
        finally:
            gc.callbacks.remove(record)
            (gc.enable if enabled else gc.disable)()
        assert members == frozenset(self.LEVEL)
        assert starts == []

    def test_tuple_set_of_few_blocks(self):
        level = engine.rows(self.LEVEL, 4)
        assert engine.tuple_set([]) == engine.tuple_set(iter(())) == frozenset()
        assert engine.tuple_set([engine.rows([()], 0)]) == {()}
        assert engine.tuple_set([level[:7], level[3:10]]) == frozenset(self.LEVEL[:10])
        assert engine.tuple_set(self._sevens(level)) == frozenset(self.LEVEL)

    def test_tuple_set_restores_the_collector(self):
        # the collector is paused while the set is filled, and left as it
        # was found, also when a block or the block iterator raises
        level = engine.rows(self.LEVEL, 4)
        bad = np.full((2, 4), 100, dtype=np.int8)  # past every shared int
        read = []

        def two_blocks_then_fail():
            for block in self._sevens(level):
                if len(read) == 2:
                    raise RuntimeError("no third block")
                read.append(block)
                yield block

        enabled = gc.isenabled()
        try:
            for state in (True, False):
                (gc.enable if state else gc.disable)()
                assert engine.tuple_set(self._sevens(level)) == frozenset(self.LEVEL)
                assert gc.isenabled() is state
                with pytest.raises(IndexError):
                    engine.tuple_set([level[:7], bad])
                assert gc.isenabled() is state
                read.clear()
                with pytest.raises(RuntimeError, match="^no third block$"):
                    engine.tuple_set(two_blocks_then_fail())
                assert len(read) == 2 and gc.isenabled() is state
        finally:
            (gc.enable if enabled else gc.disable)()

    def test_union_of_no_parts_rejected(self):
        for parts in ([], iter(())):
            for rows in (0, 1):
                with pytest.raises(ValueError, match="at least one part"):
                    engine.unique_keys(parts, rows)

    def test_union_lets_go_of_each_part(self):
        # Each part must be dead by the time the next one is made: counting
        # the parts with `enumerate` would keep the last one alive in its
        # cached result tuple.
        refs = []  # weak references to every part made
        live = []  # how many of them are alive as each part is made

        def made(part):
            live.append(sum(ref() is not None for ref in refs))
            refs.append(weakref.ref(part))
            return part

        level = engine.rows(self.LEVEL, 4)
        union = engine.unique_keys((made(level[i::5]) for i in range(5)), len(level))
        assert engine.to_tuples(engine.from_keys(union, 4)) == self.LEVEL
        assert live == [0] * 5

    def test_merge_lets_go_of_the_old_result(self, monkeypatch):
        # Past the limit on a single sort, the result is the start of the
        # union's buffer, and each batch is merged into it there.  When a
        # merged run is deduplicated, just after its sort, numpy holds the
        # buffer beside what it held before the union, and nothing else:
        # no copy of the old result, nor of a batch or a part's keys.
        # These bytes are sampled after the sort, so they rule out copies
        # that outlive it, not a work buffer the sort frees before it
        # returns; `test_union_peak_is_its_buffer` bounds that one.
        def numpy_bytes():
            traces = tracemalloc.take_snapshot().filter_traces([tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
            return sum(stat.size for stat in traces.statistics("filename"))

        held = []  # numpy's bytes past those held before the union, at each merge
        distinct = engine._distinct

        def recording(sorted_keys):
            held.append(numpy_bytes() - before)
            return distinct(sorted_keys)

        monkeypatch.setattr(engine, "_distinct", recording)
        monkeypatch.setattr(engine, "_SORT_KEYS", 0)
        level = engine.rows(self.LEVEL, 4)
        parts = (level[i::5] for _ in range(2) for i in range(5))  # views: they allocate nothing
        tracemalloc.start()
        try:
            before = numpy_bytes()
            union = engine.unique_keys(parts, 2 * len(level))
        finally:
            tracemalloc.stop()
        assert engine.to_tuples(engine.from_keys(union, 4)) == self.LEVEL
        assert len(held) >= 3
        assert held == [8 * 2 * len(level)] * len(held)

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KiB on Linux")
    def test_union_peak_is_its_buffer(self):
        # All of B_8, 10,321,920 rows, as 2^20-row views of one level: a
        # union past the limit on a single sort, whose every batch is
        # merged.  The process's high-water mark grows by the buffer of
        # one key per row and a few MiB, in a fresh interpreter, where
        # nothing else has raised it.  A sort that allocates its own work
        # buffer (a stable merge holds up to half the union) shows here,
        # though it is freed before the keys are deduplicated.
        code = (
            "import itertools, resource\n"
            "import numpy as np\n"
            "from signedgrids import engine\n"
            "perms = np.array(list(itertools.permutations(range(1, 9))), dtype=np.int8)\n"
            "signs = 1 - 2 * ((np.arange(256)[:, None] >> np.arange(8)) & 1).astype(np.int8)\n"
            "level = (perms[:, None, :] * signs).reshape(-1, 8)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "parts = (level[i : i + 2**20] for i in range(0, len(level), 2**20))\n"
            "union = engine.unique_keys(parts, len(level))\n"
            "grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before\n"
            "print(len(union), bool((union[1:] > union[:-1]).all()), grown)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        rows, ascending, grown_kib = done.stdout.split()
        assert (int(rows), ascending) == (2**8 * 40320, "True")
        buffer_kib = 8 * 2**8 * 40320 // 1024  # 78.75 MiB
        assert int(grown_kib) <= buffer_kib + 4 * 1024

    def test_compact_count_a_block_at_a_time(self, monkeypatch):
        # all of B_4, counted in blocks of 7 keys, the last one partial
        monkeypatch.setattr(engine, "_BLOCK_ROWS", 7)
        keys = engine.keys(engine.rows(self.LEVEL, 4))
        compact = [p for p in self.LEVEL if is_compact(p)]
        assert engine.compact_count(keys, 4) == (len(compact), sum(p[-1] == 4 for p in compact))

    def test_expand_is_every_single_deletion(self, monkeypatch):
        # the union of `deletions`, decoded in blocks of 2 keys, the last
        # one partial
        monkeypatch.setattr(engine, "_BLOCK_ROWS", 2)
        members = [(4, -1, 3, -2), (-2, 1, 4, 3), (1, 2, 3, 4)]
        expected = sorted({delete(p, i) for p in members for i in range(1, 5)})
        union = engine.unique_keys(engine.deletions(engine.keys(engine.rows(members, 4)), 4), 12)
        assert engine.to_tuples(engine.from_keys(union, 3)) == expected

    def test_longest_rows_keep_exact_keys(self):
        # 13 12 ... 1 has the largest key of length 13, close to 27**13
        low, top = tuple(range(-13, 0)), tuple(range(13, 0, -1))
        level = engine.rows([top, low, identity(13), top], 13)
        assert engine.to_tuples(engine.from_keys(engine.unique_keys([level], 4), 13)) == [low, identity(13), top]

    def test_length_limit(self):
        with pytest.raises(ValueError, match="limit of 13"):
            engine.rows([identity(14)], 14)
        with pytest.raises(ValueError, match="limit of 13"):
            engine.split_column(engine.rows([identity(13)], 13), 0)
