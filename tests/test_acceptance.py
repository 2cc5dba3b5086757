"""
Acceptance suite: one test per exit criterion, each printing a PASS line
with its measured runtime (visible under ``pytest -s`` or in the captured
output).  The two k >= 9 burnt-pancake computations take a few minutes
and are marked ``stretch``; deselect them with ``-m "not stretch"``.

Tests run in definition order, so the stretch polynomials computed for
criterion 2 are already memoized when the full oracle cross-validation of
criterion 5 needs them.
"""
import itertools
import random
import time
from math import factorial

import pytest

from signedgrids import distance as distance_mod
from signedgrids.distance import Family, distance_polynomial
from signedgrids.gridclass import complete_and_compact, enumerate_gridclass, grid_member
from signedgrids.oracle import bfs_histogram, verify
from signedgrids.perm import all_perms, compactify, contains, delete, inflate, is_compact
from signedgrids.poly import format_coeff_array, gregory_newton

import oracles
import tables

def report(criterion: str, elapsed: float, detail: str = "") -> None:
    tail = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {criterion}: PASS ({elapsed:.2f}s){tail}")


def test_criterion_1_worked_example():
    t0 = time.perf_counter()
    members = complete_and_compact({(-2, 1, 3)})
    polynomial = enumerate_gridclass({(-2, 1, 3)})
    elapsed = time.perf_counter() - t0
    assert members == frozenset({(), (1,), (-1,), (-1, 2), (-2, 1), (-2, 1, 3)})
    assert format_coeff_array(polynomial) == "[1, 1/2, 1/2]"
    assert elapsed < 1.0
    report("1 (worked example)", elapsed)


def test_criterion_2_pancake_tables_k1_to_7():
    distance_mod._HIST_MEMO.clear()
    t0 = time.perf_counter()
    for k in range(1, 8):
        assert distance_polynomial(Family.PANCAKE, k) == tables.PANCAKE_AT_MOST[k], f"k={k}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report("2 (pancake tables k=1..7)", elapsed)


def test_criterion_2_pancake_table_k8():
    t0 = time.perf_counter()
    assert distance_polynomial(Family.PANCAKE, 8) == tables.PANCAKE_AT_MOST[8]
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    report("2 (pancake table k=8)", elapsed)


@pytest.mark.stretch
@pytest.mark.parametrize("k", [9, 10])
def test_criterion_2_pancake_tables_stretch(k):
    t0 = time.perf_counter()
    assert distance_polynomial(Family.PANCAKE, k) == tables.PANCAKE_AT_MOST[k]
    elapsed = time.perf_counter() - t0
    report(f"2 (pancake table k={k}, stretch)", elapsed)


def test_criterion_3_reversal_tables():
    t0 = time.perf_counter()
    for k in range(1, 5):
        assert distance_polynomial(Family.REVERSAL, k) == tables.REVERSAL_AT_MOST[k], f"k={k}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report("3 (reversal tables k=1..4)", elapsed)


def test_criterion_3_reversal_table_k5():
    t0 = time.perf_counter()
    assert distance_polynomial(Family.REVERSAL, 5) == tables.REVERSAL_AT_MOST[5]
    elapsed = time.perf_counter() - t0
    report("3 (reversal table k=5)", elapsed)


def test_criterion_4_exact_distance_factorizations():
    t0 = time.perf_counter()
    for k in range(5, 10):
        diff = tables.PANCAKE_AT_MOST[k] - tables.PANCAKE_AT_MOST[k - 1]
        assert diff == tables.expand_factored(k), f"k={k}"
    # the k=4 difference matches (1/2) n (n-1)^2 (2n-3); the published
    # prose drops the factor n, the coefficient arrays force it
    diff4 = tables.PANCAKE_AT_MOST[4] - tables.PANCAKE_AT_MOST[3]
    assert diff4 == tables.expand_factored(4)
    elapsed = time.perf_counter() - t0
    report("4 (exact-distance factorizations k=4..9)", elapsed)


def _assert_saturation(family: Family, k_max: int, n_max: int) -> None:
    for n in range(1, n_max + 1):
        hist = bfs_histogram(n, family)
        total = 2**n * factorial(n)
        for k in range(hist.diameter, k_max + 1):
            assert distance_polynomial(family, k)(n) == total


def test_criterion_5_oracle_cross_validation_default():
    t0 = time.perf_counter()
    pancake = verify(Family.PANCAKE, k_max=8, n_max=6)
    reversal = verify(Family.REVERSAL, k_max=5, n_max=6)
    assert pancake.all_match and not pancake.mismatches
    assert reversal.all_match and not reversal.mismatches
    _assert_saturation(Family.PANCAKE, 8, 6)
    _assert_saturation(Family.REVERSAL, 5, 6)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    report("5 (oracle cross-validation, pancake k<=8 + reversal k<=5, n<=6)", elapsed)


@pytest.mark.stretch
def test_criterion_5_oracle_cross_validation_full():
    t0 = time.perf_counter()
    pancake = verify(Family.PANCAKE, k_max=10, n_max=6)
    assert pancake.all_match and not pancake.mismatches
    _assert_saturation(Family.PANCAKE, 10, 6)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    report("5 (oracle cross-validation, pancake k<=10, n<=6, stretch)", elapsed)


def test_criterion_6_duality_all_sigma_up_to_6():
    t0 = time.perf_counter()
    rng = random.Random(20240817)
    checked = 0
    for m in range(0, 7):
        for sigma in all_perms(m):
            down = oracles.downset_bruteforce(sigma)
            inflations = {
                inflate(sigma, vec) for vec in itertools.product((0, 1), repeat=m)
            }
            assert inflations == down
            if m <= 4:
                candidates = [p for r in range(m + 1) for p in all_perms(r)]
            else:
                candidates = list(rng.sample(sorted(down), min(4, len(down))))
                for _ in range(12):
                    r = rng.randint(0, m)
                    base = list(range(1, r + 1))
                    rng.shuffle(base)
                    candidates.append(tuple(v * rng.choice((1, -1)) for v in base))
            for pi in candidates:
                assert contains(sigma, pi) == (pi in down)
            checked += 1
    elapsed = time.perf_counter() - t0
    report("6 (containment/inflation duality, all len <= 6)", elapsed, f"{checked} permutations")


def test_criterion_6_compactify_uniqueness_up_to_8():
    t0 = time.perf_counter()
    rng = random.Random(65537)
    cases = [p for m in range(0, 6) for p in all_perms(m)]
    for m in (6, 7, 8):
        for _ in range(800):
            base = list(range(1, m + 1))
            rng.shuffle(base)
            cases.append(tuple(v * rng.choice((1, -1)) for v in base))
    for sigma in cases:
        compact_fillings = [
            pair for pair in oracles.all_fillings(sigma) if is_compact(pair[0])
        ]
        assert compact_fillings == [compactify(sigma)], sigma
    elapsed = time.perf_counter() - t0
    report("6 (compactify uniqueness by exhaustion, len <= 8)", elapsed, f"{len(cases)} permutations")


def _compact_by_bounded_vectors(pi) -> bool:
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


def _compact_by_grid_strictness(pi) -> bool:
    for i in range(1, len(pi) + 1):
        smaller = delete(pi, i)
        if grid_member(pi, complete_and_compact({smaller})):
            return False
    return True


def test_criterion_6_compactness_equivalences_up_to_6():
    t0 = time.perf_counter()
    rng = random.Random(9001)
    cases = [p for m in range(1, 5) for p in all_perms(m)]
    for m in (5, 6):
        pool = list(all_perms(m))
        cases.extend(rng.sample(pool, 250))
    for pi in cases:
        scan = is_compact(pi)
        assert scan == _compact_by_bounded_vectors(pi), pi
        assert scan == _compact_by_grid_strictness(pi), pi
    elapsed = time.perf_counter() - t0
    report("6 (compactness equivalences, len <= 6)", elapsed, f"{len(cases)} permutations")


def test_criterion_6_disjoint_union_counts():
    t0 = time.perf_counter()
    rng = random.Random(424242)
    for trial in range(25):
        members = set()
        for _ in range(rng.randint(1, 3)):
            m = rng.randint(1, 5)
            base = list(range(1, m + 1))
            rng.shuffle(base)
            members.add(tuple(v * rng.choice((1, -1)) for v in base))
        polynomial = enumerate_gridclass(members)
        for n in range(1, 8):
            assert polynomial(n) == oracles.grid_count_bruteforce(members, n), (members, n)
    elapsed = time.perf_counter() - t0
    report("6 (disjoint-union counts vs brute-force inflation)", elapsed)


def test_criterion_7_gregory_newton_reconstruction():
    t0 = time.perf_counter()
    for k in range(2, 8):
        exact = distance_polynomial(Family.PANCAKE, k) - distance_polynomial(Family.PANCAKE, k - 1)
        values = [exact(j) for j in range(1, k + 1)]
        assert gregory_newton(values) == exact, f"k={k}"
    elapsed = time.perf_counter() - t0
    report("7 (Gregory-Newton reconstruction k=2..7)", elapsed)
