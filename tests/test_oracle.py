"""BFS ground truth over B_n and the polynomial cross-check report."""
import json
from math import factorial

import pytest

from signedgrids import distance
from signedgrids.distance import Family, ResourceLimitError
from signedgrids.oracle import (
    VerifyReport,
    VerifyRow,
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
        # ten million states, about 10 s on 2 cores; n = 8 is also a point
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
