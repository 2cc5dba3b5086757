"""BFS ground truth over B_n and the polynomial cross-check report."""
import json
from collections import Counter
from math import factorial

import pytest

from signedgrids import distance, engine, oracle
from signedgrids.distance import BFS_LAYERS, Family, ResourceLimitError
from signedgrids.oracle import (
    VerifyReport,
    VerifyRow,
    ball,
    bfs_histogram,
    count_within,
    verify,
)
from signedgrids.perm import all_perms

import oracles

# Layer sizes of B_7 and B_6 from the set-of-bytes search that the array
# search replaced.
PINNED_LAYERS = {
    (Family.PANCAKE, 7): (1, 7, 42, 252, 1386, 6230, 24024, 71568, 159326, 222995, 136301, 21951, 1021, 15, 1),
    (Family.REVERSAL, 6): (1, 21, 245, 2170, 8820, 19495, 15148, 180),
}


class TestBfsHistogram:
    def test_single_burnt_pancake(self):
        hist = bfs_histogram(1, Family.PANCAKE)
        assert hist.counts == (1, 1)
        assert hist.diameter == 1

    def test_reversal_within_one(self):
        hist = bfs_histogram(2, Family.REVERSAL)
        assert hist.counts[0] == 1
        assert hist.within(1) == 4

    @pytest.mark.parametrize("family", list(Family))
    @pytest.mark.parametrize("n", range(1, 6))
    def test_layers_exhaust_group(self, n, family):
        hist = bfs_histogram(n, family)
        assert sum(hist.counts) == 2**n * factorial(n)
        assert hist.counts[0] == 1

    def test_ceiling(self):
        with pytest.raises(ResourceLimitError, match="ceiling"):
            bfs_histogram(8, Family.PANCAKE)

    @pytest.mark.parametrize(
        "family,n",
        [(Family.PANCAKE, n) for n in range(1, 7)] + [(Family.REVERSAL, n) for n in range(1, 6)],
        ids=str,
    )
    def test_layers_match_tuple_bfs(self, family, n):
        neighbors = oracles.pancake_flips if family is Family.PANCAKE else oracles.block_reversals
        assert bfs_histogram(n, family).counts == oracles.tuple_bfs_layers(n, neighbors)

    @pytest.mark.parametrize("family,n", list(PINNED_LAYERS), ids=str)
    def test_largest_layers_are_pinned(self, family, n):
        assert bfs_histogram(n, family).counts == PINNED_LAYERS[family, n]

    @pytest.mark.stretch
    def test_pancake_b8_with_raised_ceiling(self):
        # ten million states, about 7 s on 2 cores; n = 8 is also a point
        # past the default ceiling where the polynomials must agree
        hist = bfs_histogram(8, Family.PANCAKE, n_ceiling=8)
        assert sum(hist.counts) == 2**8 * factorial(8)
        for k in range(9):
            assert distance.distance_polynomial(Family.PANCAKE, k)(8) == hist.within(k)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_pancake_layers_match_iddfs(self, n):
        hist = bfs_histogram(n, Family.PANCAKE)
        tally = [0] * (hist.diameter + 1)
        for p in all_perms(n):
            tally[oracles.iddfs_distance(p, oracles.pancake_neighbors)] += 1
        assert tuple(tally) == hist.counts

    @pytest.mark.parametrize("n", range(1, 4))
    def test_reversal_layers_match_iddfs(self, n):
        hist = bfs_histogram(n, Family.REVERSAL)
        tally = [0] * (hist.diameter + 1)
        for p in all_perms(n):
            tally[oracles.iddfs_distance(p, oracles.reversal_neighbors)] += 1
        assert tuple(tally) == hist.counts

    @pytest.mark.parametrize("family", list(Family))
    @pytest.mark.parametrize("n", range(1, 8))
    def test_gate_literals_are_the_full_search(self, n, family):
        # the gate reads these without a search; the full search checks
        # that it covered all of B_n, and two of its rows are also pinned
        # to `PINNED_LAYERS` above
        assert BFS_LAYERS[family][n - 1] == bfs_histogram(n, family).counts


@pytest.mark.parametrize(
    "family,n",
    [
        (Family.REVERSAL, 8),
        *(
            pytest.param(family, n, marks=pytest.mark.stretch)
            for family, n in [(Family.REVERSAL, 9), (Family.REVERSAL, 10), (Family.PANCAKE, 8), (Family.PANCAKE, 9)]
        ),
    ],
    ids=str,
)
def test_gate_rows_past_b7_are_the_ball(family, n):
    # the rows the gate reads past B_7 reach the default ceiling on k, no
    # further; pancake B_9 takes about 17 s and 1.4 GB on 2 cores
    row = BFS_LAYERS[family][n - 1]
    assert len(row) == distance.DEFAULT_K_CEILING[family] + 1
    assert ball(n, len(row) - 1, family, n_ceiling=n) == row


def _without_the_last_move(monkeypatch):
    moves = oracle._moves
    monkeypatch.setattr(oracle, "_moves", lambda n, family: moves(n, family)[:-1])


class TestBall:
    @pytest.mark.parametrize("family", list(Family))
    @pytest.mark.parametrize("n", range(1, 8))
    def test_ball_is_the_full_search_cut_at_k(self, n, family):
        counts = bfs_histogram(n, family).counts
        for k in range(len(counts) + 1):  # 0 to the diameter + 1
            assert ball(n, k, family) == counts[: k + 1], k

    def test_ball_checks_k_and_n(self):
        with pytest.raises(ValueError, match="nonnegative"):
            ball(3, -1, Family.PANCAKE)
        with pytest.raises(ResourceLimitError, match="ceiling"):
            ball(8, 1, Family.REVERSAL)
        assert ball(8, 1, Family.REVERSAL, n_ceiling=8) == (1, 36)

    @pytest.mark.parametrize("n", range(3, 7))
    def test_pancake_without_the_full_flip(self, monkeypatch, n):
        # the last move is the flip of all n: without it the last entry
        # never moves, so the searches that run out of states cover B_{n-1}
        diameter = len(BFS_LAYERS[Family.PANCAKE][n - 1]) - 1
        _without_the_last_move(monkeypatch)
        covered = rf"BFS covered {2 ** (n - 1) * factorial(n - 1)} of {2**n * factorial(n)} states"
        with pytest.raises(AssertionError, match=covered):
            bfs_histogram(n, Family.PANCAKE)
        with pytest.raises(AssertionError, match=covered):
            ball(n, diameter + 1, Family.PANCAKE)
        with pytest.raises(AssertionError, match=f"layer 1 of B_{n} holds {n - 1} states, not {n}"):
            ball(n, 2, Family.PANCAKE)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_reversal_without_its_last_move(self, monkeypatch, n):
        # the last move negates the last entry alone; the others still
        # generate B_n, so every search covers it, and only layer 1 shows
        # the loss, in the full search and in one cut short
        diameter = len(BFS_LAYERS[Family.REVERSAL][n - 1]) - 1
        _without_the_last_move(monkeypatch)
        layer_1 = f"layer 1 of B_{n} holds {n * (n + 1) // 2 - 1} states, not {n * (n + 1) // 2}"
        for k in (2, diameter + 1):
            with pytest.raises(AssertionError, match=layer_1):
                ball(n, k, Family.REVERSAL)
        with pytest.raises(AssertionError, match=layer_1):
            bfs_histogram(n, Family.REVERSAL)


class TestCountWithin:
    def test_reversal_one_move(self):
        assert count_within(2, 1, Family.REVERSAL) == 4

    @pytest.mark.parametrize("family", list(Family))
    def test_zero_moves(self, family):
        for n in range(1, 5):
            assert count_within(n, 0, family) == 1

    def test_pancake_two_moves_length_three(self):
        assert count_within(3, 2, Family.PANCAKE) == 10

    def test_saturates_at_diameter(self):
        hist = bfs_histogram(3, Family.PANCAKE)
        assert count_within(3, hist.diameter + 5, Family.PANCAKE) == 2**3 * factorial(3)


class TestVerify:
    def test_pancake_small_all_match(self):
        report = verify(Family.PANCAKE, k_max=4, n_max=4)
        assert report.all_match
        assert len(report.rows) == 4 * 5

    def test_reversal_small_all_match(self):
        report = verify(Family.REVERSAL, k_max=1, n_max=3)
        assert report.all_match

    def test_k_zero_constant_one(self):
        report = verify(Family.PANCAKE, k_max=0, n_max=2)
        assert report.all_match
        assert all(r.polynomial_value == 1 for r in report.rows)

    @pytest.mark.parametrize(
        "family,k_max,n_max",
        [(Family.PANCAKE, 11, 4), (Family.PANCAKE, 3, 8), (Family.REVERSAL, 6, 4), (Family.REVERSAL, 2, 8)],
    )
    def test_ceilings_refused_before_computing(self, monkeypatch, family, k_max, n_max):
        def no_growth(below, m, family):
            raise AssertionError("verify computed before checking its ceilings")

        monkeypatch.setattr(distance, "_downset_level", no_growth)
        with pytest.raises(ResourceLimitError, match="ceiling"):
            verify(family, k_max=k_max, n_max=n_max)

    def test_searches_stop_at_k_max(self, monkeypatch):
        # a search keys the identity and every move's images of each layer
        # it expands: at k_max = 3 that is layers 0 to 2, so no search keys
        # the images of layer 3, which make layer 4; B_1, whose diameter is
        # 1, keys the images of its layer 1 and finds no layer 2
        classes = distance.distance_classes(Family.PANCAKE, range(4))
        monkeypatch.setattr(oracle, "distance_classes", lambda family, ks, *_: [classes[k] for k in ks])
        keyed, keys = Counter(), engine.keys

        def counted(level, out=None):
            keyed[level.shape[-1]] += level.size // level.shape[-1]
            return keys(level, out)

        monkeypatch.setattr(engine, "keys", counted)
        assert verify(Family.PANCAKE, k_max=3, n_max=7).all_match
        expanded = {n: sum(BFS_LAYERS[Family.PANCAKE][n - 1][:3]) for n in range(1, 8)}
        assert keyed == {n: 1 + n * expanded[n] for n in range(1, 8)}

    def test_mismatch_reported_not_raised(self):
        good = VerifyRow(2, 1, 3, 3)
        bad = VerifyRow(2, 2, 9, 7)
        report = VerifyReport(Family.PANCAKE, (good, bad))
        assert not report.all_match
        assert report.mismatches == [bad]
        assert "MISMATCH" in report.to_table()
        assert "RESULT: 1 of 2 pairs mismatch" in report.to_table()

    def test_json_shape(self):
        report = verify(Family.REVERSAL, k_max=1, n_max=2)
        data = json.loads(report.to_json())
        assert data["family"] == "reversal"
        assert data["all_match"] is True
        assert {"n", "k", "polynomial_value", "bfs_count", "match"} == set(data["rows"][0])
