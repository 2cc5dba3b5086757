"""
The benchmark's output checks reject wrong results.

Run from the repository root:  python3 -m pytest perfbench/test_checks.py
"""
from fractions import Fraction
from pathlib import Path

import pytest

import checks
from workloads import Query, check_output, check_pi_sample

TABLES = Path(__file__).resolve().parent.parent / "tests" / "tables.py"


@pytest.fixture(scope="module")
def ref():
    return checks.Reference(TABLES)


def text(coeffs):
    return "[" + ", ".join(str(c) for c in coeffs) + "]\n"


@pytest.mark.parametrize("family,k", [("pancake", 4), ("pancake", 9), ("reversal", 3), ("reversal", 5)])
def test_published_polynomials_pass(ref, family, k):
    assert checks.check_at_most(ref, family, k, ref.at_most(family, k)) == []
    assert checks.check_exact(ref, family, k, ref.exact(family, k)) == []


@pytest.mark.parametrize("family,k", [("pancake", 4), ("pancake", 9), ("reversal", 3), ("reversal", 5)])
def test_one_changed_coefficient_is_rejected(ref, family, k):
    good = ref.at_most(family, k)
    for i in range(len(good)):
        bad = list(good)
        bad[i] += Fraction(1, 7)
        assert checks.check_at_most(ref, family, k, checks.trim(bad))
        assert check_output(ref, Query(family, k), text(checks.trim(bad)))


def test_changed_coefficient_rejected_without_the_tables(ref):
    """The BFS and property checks catch it on their own."""
    bad = list(ref.at_most("pancake", 6))
    bad[2] += 1
    ref.published["pancake"][6], saved = bad, ref.published["pancake"][6]
    try:
        assert checks.check_at_most(ref, "pancake", 6, bad)
    finally:
        ref.published["pancake"][6] = saved


@pytest.mark.parametrize("family,n", [("pancake", 5), ("pancake", 7), ("reversal", 4), ("reversal", 6)])
def test_bfs_layer_off_by_one_is_rejected(ref, family, n):
    if n in ref.layers[family]:
        good = list(ref.layers[family][n])
    else:  # outside the per-run BFS: only the sum and distance-1 checks apply
        good = [1, 7, 42, 252, 1386, 6230, 24024, 71568, 159326, 222995, 136301, 21951, 1021, 15, 1]
    assert checks.check_bfs_layers(ref, family, n, good) == []
    for d in range(len(good)):
        bad = list(good)
        bad[d] += 1
        assert checks.check_bfs_layers(ref, family, n, bad)


def test_verify_table_with_a_layer_off_by_one_is_rejected(ref):
    rows = []
    for n in range(1, 7):
        for k in range(6):
            v = int(checks.evaluate(ref.at_most("reversal", k), n))
            rows.append(f"n={n} k={k} polynomial={v} bfs={v} ok")
    good = "\n".join(["family=reversal", *rows, f"RESULT: all {len(rows)} pairs match"])
    assert checks.check_verify(ref, "reversal", 5, 6, good) == []
    bad = good.replace("n=6 k=2 polynomial=267 bfs=267 ok", "n=6 k=2 polynomial=268 bfs=268 ok")
    assert bad != good
    assert checks.check_verify(ref, "reversal", 5, 6, bad)


def test_independent_bfs_matches_known_diameters():
    # published diameters: burnt pancakes (Cohen and Blum 1995), and signed
    # reversals, n + 1 except at n = 1 and 3 (Meidanis, Walter and Dias 1997)
    assert [len(checks.bfs_layers(n, "pancake")) - 1 for n in range(1, 7)] == [1, 4, 6, 8, 10, 12]
    assert [len(checks.bfs_layers(n, "reversal")) - 1 for n in range(1, 7)] == [1, 3, 3, 5, 6, 7]


def test_latex_and_json_parsers_round_trip():
    coeffs = [Fraction(1), Fraction(-1, 2), Fraction(3), Fraction(-5, 2), Fraction(1)]
    assert checks.parse_latex(r"1 - \frac{1}{2} n + 3 n^{2} - \frac{5}{2} n^{3} + n^{4}") == coeffs
    assert checks.parse_json_poly('{"basis": "monomial", "coeffs": ["1", "-1/2", "3", "-5/2", "1"], "valid_for": "n>=1"}') == coeffs


def test_distance_search():
    assert checks.within_moves((-2, 1, 3), "pancake", 3)
    assert not checks.within_moves((-2, 1, 3), "pancake", 1)
    assert checks.within_moves((1, -3, -2, 4), "reversal", 1)
    assert not checks.within_moves((2, 1), "reversal", 1)
    assert check_pi_sample("pancake", 2, [[1, 2, 3]]) == []
    assert check_pi_sample("pancake", 2, [[1, 2, 2]])
