"""Command-line behavior: output formats, exit codes, cache, determinism."""
import json
import math

import pytest

from signedgrids import cache, distance, engine
from signedgrids.cli import CACHE_DIR_ENV, main
from signedgrids.gridclass import LengthHistogram
from signedgrids.poly import format_coeff_array

import tables


def _no_growth(below, m, family):
    raise AssertionError("downset growth was not expected here")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEnumerate:
    def test_single_perm(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--perm", "-2 1 3")
        assert code == 0
        assert out == "[1, 1/2, 1/2]\n"

    def test_epsilon(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--perm", "")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "[]"
        assert "empty permutation" in lines[1]

    def test_input_file(self, capsys, tmp_path):
        f = tmp_path / "perms.txt"
        f.write_text("1 2 3\n")
        code, out, _ = run(capsys, "enumerate", "--input", str(f))
        assert code == 0
        assert out == "[1]\n"

    def test_input_file_parse_error_names_line(self, capsys, tmp_path):
        f = tmp_path / "perms.txt"
        f.write_text("1\n2 0 1\n")
        code, out, err = run(capsys, "enumerate", "--input", str(f))
        assert code == 2
        assert "line 2" in err
        assert "zero" in err

    def test_length_limit_reported(self, capsys):
        code, out, err = run(capsys, "enumerate", "--perm", " ".join(str(x) for x in range(1, 15)))
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "limit of 13" in err

    def test_nonstandard_value_reported(self, capsys):
        code, _, err = run(capsys, "enumerate", "--perm", "1 7")
        assert code == 2
        assert "absolute values" in err

    def test_verbose_prints_sizes(self, capsys):
        code, out, _ = run(capsys, "--verbose", "enumerate", "--perm", "-2 1 3")
        assert code == 0
        assert "# |S| by length: epsilon=1, 1:2, 2:2, 3:1" in out

    def test_eval_flag(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--perm", "-2 1 3", "--eval", "3")
        assert code == 0
        assert out == "7\n"

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "enumerate", "--perm", "-2 1 3")
        assert code == 0
        assert json.loads(out) == {
            "basis": "monomial",
            "coeffs": ["1", "1/2", "1/2"],
            "valid_for": "n>=1",
        }

    def test_latex_format(self, capsys):
        code, out, _ = run(capsys, "--format", "latex", "enumerate", "--perm", "-2 1 3")
        assert code == 0
        assert out == r"1 + \frac{1}{2} n + \frac{1}{2} n^{2}" + "\n"

    @pytest.mark.parametrize("flags", [(), ("--verbose",), ("--format", "json"), ("--verbose", "--format", "latex")])
    def test_union_that_keeps_repeats_refused(self, capsys, monkeypatch, flags):
        # A union that skips deduplication counts every deletion of every
        # row: the closure of 2 -1 3 -5 4 then has 120 rows of length 1 and
        # P = [90, 293/12, 131/24, 1/12, 1/24], an integer at every n but
        # past 2^n n! at n = 1.  Refused before anything is printed, the
        # `--verbose` line included.
        monkeypatch.setattr(engine, "_distinct", lambda keys: keys)
        code, out, err = run(capsys, *flags, "enumerate", "--perm", "2 -1 3 -5 4")
        assert (code, out) == (2, "")
        assert err == "error: grid class: P(1) = 120 is outside 0..2^n n! = 2\n"


class TestDistanceCommands:
    def test_pancake_two(self, capsys):
        code, out, _ = run(capsys, "pancake", "--k", "2")
        assert code == 0
        assert out == "[1, 0, 1]\n"

    def test_pancake_exact_five(self, capsys):
        code, out, _ = run(capsys, "pancake", "--k", "5", "--exact")
        assert code == 0
        # expansion of (1/6) n (n-1) (n-2) (6n^2 - 17n + 3)
        assert out == "[0, 1, -43/6, 11, -35/6, 1]\n"

    def test_reversal_four(self, capsys):
        code, out, _ = run(capsys, "reversal", "--k", "4")
        assert code == 0
        assert out == (
            "[1, 131/420, 617/1260, -1/120, 67/1440, 53/240, -17/360, -41/1680, 37/3360]\n"
        )

    def test_ceiling_exceeded(self, capsys):
        code, _, err = run(capsys, "reversal", "--k", "6")
        assert code == 2
        assert "ceiling" in err

    def test_ceiling_override(self, capsys):
        code, out, _ = run(capsys, "pancake", "--k", "3", "--k-ceiling", "3")
        assert code == 0
        assert out == "[1, 1, -1, 1]\n"

    @pytest.mark.parametrize("family,k", [("reversal", "7"), ("pancake", "13")])
    def test_class_past_the_engine_limit_refused_before_growth(self, capsys, monkeypatch, family, k):
        # Pi_7 of reversal has 15 entries and Pi_13 of pancake 14: both are
        # refused before the first growth step, which the patch would fail
        monkeypatch.setattr(distance, "_downset_level", _no_growth)
        code, out, err = run(capsys, family, "--k", k, "--k-ceiling", k)
        assert (code, out) == (2, "")
        assert "limit of 13 entries" in err
        with pytest.raises(ValueError, match="limit of 13 entries"):
            distance.pancake_pi(13)

    def test_eval_integer(self, capsys):
        code, out, _ = run(capsys, "pancake", "--k", "2", "--eval", "4")
        assert code == 0
        assert out == "17\n"

    @pytest.mark.parametrize("n", ["0", "-1"])
    @pytest.mark.parametrize(
        "query",
        [("enumerate", "--perm", "2 1"), ("pancake", "--k", "2"), ("reversal", "--k", "2", "--exact")],
        ids=lambda query: query[0],
    )
    def test_eval_below_one_refused(self, capsys, monkeypatch, query, n):
        # every polynomial is valid for n >= 1 only: at n = 0 the class of
        # "2 1" holds the empty permutation, yet its polynomial gives 0
        monkeypatch.setattr(distance, "_downset_level", _no_growth)
        with pytest.raises(SystemExit) as exit_info:
            main([*query, "--eval", n])
        captured = capsys.readouterr()
        assert (exit_info.value.code, captured.out) == (2, "")
        assert "n >= 1" in captured.err

    def test_verbose_reports_generator_count(self, capsys):
        code, out, _ = run(capsys, "--verbose", "pancake", "--k", "3")
        assert code == 0
        assert "# |Pi_3| = 6" in out

    def test_verbose_without_store_grows_each_level_once(self, capsys, monkeypatch):
        # Step j builds D_j(m), the length-m members of the downset of
        # Pi_j, for m = j + 1 (Pi_j) down to 1, each once.
        built = []
        level_of = distance._downset_level

        def counting_level(below, m, family):
            built.append(m)
            return level_of(below, m, family)

        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        monkeypatch.setattr(distance, "_downset_level", counting_level)
        code, out, _ = run(capsys, "--verbose", "pancake", "--k", "5")
        assert code == 0
        assert out.splitlines()[0] == "# |Pi_5| = 120"
        assert built == [m for j in range(1, 6) for m in range(j + 1, 0, -1)]

    @pytest.mark.parametrize(
        "argv",
        [("pancake", "--k", "5", "--exact"), ("verify", "--family", "pancake", "--k-max", "5", "--n-max", "4")],
        ids=["exact", "verify"],
    )
    def test_one_walk_serves_every_class(self, capsys, monkeypatch, argv):
        # a cold request for classes 0..5 or 4..5 with no store builds each
        # level of D_1..D_5 once, as `pancake --k 5` alone does
        built = []
        level_of = distance._downset_level

        def counting_level(below, m, family):
            built.append(m)
            return level_of(below, m, family)

        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        monkeypatch.setattr(distance, "_downset_level", counting_level)
        for query in (("pancake", "--k", "5"), argv):
            built.clear()
            code, _, _ = run(capsys, *query)
            assert code == 0
            assert built == [m for j in range(1, 6) for m in range(j + 1, 0, -1)]

    @pytest.mark.parametrize("k", ["1", "2"])
    def test_growth_with_no_moves_for_a_level_refused(self, capsys, monkeypatch, k):
        # Reversal M_2 without the adjacent halves (j == i + 1) has no move
        # for a one-entry row, so D_1(3) is a union of no parts.
        split_moves = distance._split_moves

        def without_adjacent_halves(m, family, inside):
            if inside < 2:
                yield from split_moves(m, family, inside)
                return
            for i in range(m):
                for j in range(i + 2, m + 1):
                    yield (i, j), [(i + 1, j + 1)]

        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        monkeypatch.setattr(distance, "_split_moves", without_adjacent_halves)
        code, out, err = run(capsys, "reversal", "--k", k)
        assert (code, out) == (2, "")
        assert "at least one part" in err


class TestCache:
    def test_warm_cache_identical_output(self, capsys, tmp_path):
        argv = ("--cache-dir", str(tmp_path), "pancake", "--k", "4")
        code1, out1, _ = run(capsys, *argv)
        assert (tmp_path / "pancake" / "S_4.hist").exists()
        assert (tmp_path / "pancake" / "pi_4.perms").exists()
        code2, out2, _ = run(capsys, *argv)
        assert (code1, out1) == (code2, out2)
        assert out1 == "[1, -1/2, 3, -5/2, 1]\n"

    def test_damaged_generator_file_is_never_read(self, capsys, tmp_path):
        run(capsys, "--cache-dir", str(tmp_path), "pancake", "--k", "4")
        pi_4 = tmp_path / "pancake" / "pi_4.perms"
        lines = pi_4.read_text().splitlines(keepends=True)
        pi_4.write_text("".join(lines[:5] + lines[8:]))
        code, out, _ = run(capsys, "--cache-dir", str(tmp_path), "--verbose", "pancake", "--k", "5")
        assert code == 0
        assert out.splitlines()[0] == "# |Pi_5| = 120"
        assert out.splitlines()[-1] == "[1, 1/2, -25/6, 17/2, -29/6, 1]"

    def test_cold_run_writes_only_its_own_level(self, capsys, tmp_path):
        run(capsys, "--cache-dir", str(tmp_path), "pancake", "--k", "5")
        assert sorted(f.name for f in (tmp_path / "pancake").iterdir()) == ["S_5.hist", "pi_5.perms"]

    def test_histogram_that_is_not_text_rejected(self, capsys, tmp_path):
        target = tmp_path / "pancake" / "S_3.hist"
        target.parent.mkdir()
        target.write_bytes(b"\xff\xfe\n")
        code, out, err = run(capsys, "--cache-dir", str(tmp_path), "pancake", "--k", "3")
        assert (code, out) == (2, "")
        assert "S_3.hist" in err

    @pytest.mark.parametrize("family,k", [("pancake", 4), ("reversal", 3)])
    def test_histogram_missing_its_last_line_rejected(self, capsys, tmp_path, family, k):
        run(capsys, "--cache-dir", str(tmp_path), family, "--k", str(k))
        target = tmp_path / family / f"S_{k}.hist"
        lines = target.read_text().splitlines(keepends=True)
        target.write_text("".join(lines[:-1]))
        code, out, err = run(capsys, "--cache-dir", str(tmp_path), family, "--k", str(k))
        assert (code, out) == (2, "")
        assert f"S_{k}.hist" in err

    @pytest.mark.parametrize("verbose", [(), ("--verbose",)], ids=["plain", "verbose"])
    def test_histogram_cut_inside_its_last_line_rejected(self, capsys, tmp_path, verbose):
        # "5 24\n" becomes "5 2": the reader refuses a last line with no
        # line end, and with its line end put back the file parses and
        # keeps its top length, so the gate refuses it
        run(capsys, "--cache-dir", str(tmp_path), "pancake", "--k", "4")
        target = tmp_path / "pancake" / "S_4.hist"
        cut = target.read_bytes()[:-2]
        for text, errors in ((cut, ["S_4.hist: line 6 after the header: no line end"]), (cut + b"\n", ["pancake k=4", "leading coefficient"])):
            target.write_bytes(text)
            code, out, err = run(capsys, "--cache-dir", str(tmp_path), *verbose, "pancake", "--k", "4")
            assert (code, out) == (2, "")
            assert all(error in err for error in errors)

    @pytest.mark.parametrize(
        "k,old,new",
        [(4, "epsilon 1", "epsilon 0"), (4, "3 26", "3 27"), (9, "9 1007459", "9 1007460")],
        ids=["no-epsilon", "one-more-at-3", "one-more-at-9"],
    )
    def test_histogram_failing_p0_rejected(self, capsys, tmp_path, k, old, new):
        # each edited file parses, keeps its top length and passes
        # `check_polynomial`; only P(0) = 1 with the empty permutation shows it
        run(capsys, "--cache-dir", str(tmp_path), "pancake", "--k", str(k))
        target = tmp_path / "pancake" / f"S_{k}.hist"
        text = target.read_text()
        target.write_text(text.replace(f"\n{old}\n", f"\n{new}\n"))
        assert target.read_text() != text
        code, out, err = run(capsys, "--cache-dir", str(tmp_path), "--verbose", "pancake", "--k", str(k))
        assert (code, out) == (2, "")
        assert f"S_{k}.hist: pancake k={k}: epsilon=" in err and "P(0)" in err and "clear the store" in err

    def test_compensating_edit_rejected_by_the_bfs_counts(self, capsys, tmp_path):
        # +1 on two adjacent lengths keeps P(0) = 1, the degree and every
        # value an integer in range: P_2 becomes [1, -1/6, 5/6, 1/6, 1/6],
        # with P_2(2) = 8 where B_2 holds 7 within distance 2
        run(capsys, "--cache-dir", str(tmp_path), "reversal", "--k", "2")
        target = tmp_path / "reversal" / "S_2.hist"
        lines = target.read_text().splitlines()
        edits = {"2 5": "2 6", "3 11": "3 12"}
        assert sum(line in edits for line in lines) == len(edits)
        target.write_text("".join(edits.get(line, line) + "\n" for line in lines))
        code, out, err = run(capsys, "--cache-dir", str(tmp_path), "--verbose", "reversal", "--k", "2")
        assert (code, out) == (2, "")
        assert "S_2.hist: reversal k=2: P(2) = 8, but B_2 has 7 at distance at most 2; clear the store" in err

    @pytest.mark.parametrize(
        "family,k,edits,check",
        [
            ("pancake", 3, {"2 3": "2 6"}, "S_2.hist: pancake k=2: epsilon=1 and P(0) = -2"),
            ("reversal", 2, {"2 2": "2 6", "3 1": "3 5"}, "S_1.hist: reversal k=1: P(2) = 8, but B_2 has 4 at"),
            (
                "reversal",
                5,
                {"8 1875": "8 1001875", "9 444": "9 1000444"},
                "S_4.hist: reversal k=4: P(8) = 1128647, but B_8 has 128647 at distance at most 4",
            ),
        ],
        ids=["pancake-3-2 3-2 6", "reversal-2-2 2-2 6", "reversal-5-8 1875-8 1001875"],
    )
    def test_exact_rejects_a_shorter_class_larger_than_its_successor(self, capsys, tmp_path, family, k, edits, check):
        # 10^6 more at lengths 8 and 9 of reversal S_4.hist adds
        # 10^6 C(n, 8) to P_4: P(0) = 1, the degree and P(1..7) stay as
        # they were, and P_4(8) exceeds P_5(8) by 315475, which the
        # difference would show, but the count of B_8 within distance 4
        # refuses S_4.hist itself first.  The edited reversal S_1.hist passes every
        # invariant of P_1 alone and P_2 - P_1 is negative at n = 2, but the
        # BFS counts refuse S_1.hist itself.  No edit of two pancake count
        # lines by up to 6 each passes the gate on P_{k-1} and fails only
        # the difference at k = 3, 4 or 5, so the pancake case is refused on
        # S_2.hist itself.
        for j in range(1, k + 1):
            run(capsys, "--cache-dir", str(tmp_path), family, "--k", str(j))
        target = tmp_path / family / f"S_{k - 1}.hist"
        lines = target.read_text().splitlines()
        assert sum(line in edits for line in lines) == len(edits)
        target.write_text("".join(edits.get(line, line) + "\n" for line in lines))
        code, out, err = run(capsys, "--cache-dir", str(tmp_path), family, "--k", str(k), "--exact")
        assert (code, out) == (2, "")
        assert check in err

    def test_compensating_edit_past_length_7_rejected(self, capsys, tmp_path):
        # +1 at lengths 8 and 9 adds C(n - 1, 7) + C(n - 1, 8) to P_4:
        # P(0) = 1, the degree and P(1..7) stay as they were, and
        # P(8) = 128648 passes every invariant but the count of B_8
        run(capsys, "--cache-dir", str(tmp_path), "reversal", "--k", "4")
        target = tmp_path / "reversal" / "S_4.hist"
        lines = target.read_text().splitlines()
        edits = {"8 1875": "8 1876", "9 444": "9 445"}
        assert sum(line in edits for line in lines) == len(edits)
        target.write_text("".join(edits.get(line, line) + "\n" for line in lines))
        code, out, err = run(capsys, "--cache-dir", str(tmp_path), "--verbose", "reversal", "--k", "4")
        assert (code, out) == (2, "")
        assert "S_4.hist: reversal k=4: P(8) = 128648, but B_8 has 128647 at distance at most 4; clear the store" in err

    def test_stored_pancake_ten_fixed_by_the_count_of_b9(self, capsys, tmp_path):
        # The published P_10 gives c_m, the compact members of length m, as
        # its m-1st forward difference at n = 1.  +1 at lengths 9 and 10
        # adds C(n - 1, 8) + C(n - 1, 9): P(0), P(1..8), the degree and the
        # leading coefficient stay as they were, so only P(9) shows it.
        # No walk runs: the store holds the class.
        p = tables.PANCAKE_AT_MOST[10]
        counts = {m: sum((-1) ** (m - 1 - i) * math.comb(m - 1, i) * p(1 + i) for i in range(m)) for m in range(1, 12)}
        target = tmp_path / "pancake" / "S_10.hist"
        for extra in (0, 1):
            cache.write_histogram(target, LengthHistogram({m: int(c) + extra * (m in (9, 10)) for m, c in counts.items()}, True))
            code, out, err = run(capsys, "--cache-dir", str(tmp_path), "pancake", "--k", "10")
            if not extra:
                assert (code, out) == (0, format_coeff_array(p) + "\n")
        assert (code, out) == (2, "")
        assert "S_10.hist: pancake k=10: P(9) = 51129747, but B_9 has 51129746 at distance at most 10" in err

    def test_histogram_failing_the_gate_is_never_stored(self, capsys, tmp_path, monkeypatch):
        # the true pancake k = 3 histogram less one member of Pi_3: every
        # count positive and the top length right, so only the polynomial's
        # leading coefficient shows the loss
        less_one = LengthHistogram({1: 2, 2: 5, 3: 10, 4: 5}, True)
        monkeypatch.setattr(distance, "_computed_histograms", lambda family, k, keep: ([less_one] * (k + 1), {}))
        for _ in range(2):
            code, out, err = run(capsys, "--cache-dir", str(tmp_path), "pancake", "--k", "3")
            assert (code, out) == (2, "")
            assert "leading coefficient" in err
            assert not (tmp_path / "pancake" / "S_3.hist").exists()
            assert not (tmp_path / "pancake" / "pi_3.perms").exists()

    def test_env_var_sets_cache_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        code, _, _ = run(capsys, "reversal", "--k", "2")
        assert code == 0
        assert (tmp_path / "reversal" / "S_2.hist").exists()

    def test_warm_verbose_grows_nothing(self, capsys, tmp_path, monkeypatch):
        run(capsys, "--cache-dir", str(tmp_path), "pancake", "--k", "4")
        for path in (tmp_path / "pancake").glob("pi_*.perms"):
            path.unlink()
        monkeypatch.setattr(distance, "_downset_level", _no_growth)
        code, out, _ = run(capsys, "--cache-dir", str(tmp_path), "--verbose", "pancake", "--k", "4")
        assert code == 0
        assert out.splitlines()[0] == "# |Pi_4| = 24"

    def test_corrupt_cache_rejected(self, capsys, tmp_path):
        target = tmp_path / "pancake" / "S_2.hist"
        target.parent.mkdir(parents=True)
        target.write_text("not a cache file\n")
        code, _, err = run(capsys, "--cache-dir", str(tmp_path), "pancake", "--k", "2")
        assert code == 2
        assert "header" in err


def test_filesystem_errors_are_usage_errors(capsys, tmp_path):
    code, _, err = run(capsys, "enumerate", "--input", str(tmp_path))
    assert (code, err[:6]) == (2, "error:")
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    code, _, err = run(capsys, "--cache-dir", str(blocker), "pancake", "--k", "2")
    assert (code, err[:6]) == (2, "error:")


class TestVerifyCommand:
    def test_pancake_all_match(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "pancake", "--k-max", "4", "--n-max", "5")
        assert code == 0
        assert "RESULT: all 25 pairs match" in out

    def test_reversal_all_match(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "reversal", "--k-max", "2", "--n-max", "4")
        assert code == 0
        assert "RESULT: all 12 pairs match" in out

    def test_k_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "pancake", "--k-max", "0", "--n-max", "2")
        assert code == 0
        assert "polynomial=1" in out

    def test_refuses_before_computing(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "--cache-dir", str(tmp_path), "verify", "--family", "pancake", "--k-max", "7", "--n-max", "8"
        )
        assert code == 2
        assert out == ""
        assert "ceiling" in err
        assert list(tmp_path.iterdir()) == []

    def test_json(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "verify", "--family", "reversal", "--k-max", "1", "--n-max", "2")
        assert code == 0
        assert json.loads(out)["all_match"] is True

    def test_json_bytes(self, capsys):
        # the exact bytes, so that a change of key order or spacing shows
        counts = {1: (1, 2, 2), 2: (1, 4, 7), 3: (1, 7, 23), 4: (1, 11, 61)}
        rows = ", ".join(
            f'{{"n": {n}, "k": {k}, "polynomial_value": {c}, "bfs_count": {c}, "match": true}}'
            for n, by_k in counts.items()
            for k, c in enumerate(by_k)
        )
        code, out, err = run(capsys, "--format", "json", "verify", "--family", "reversal", "--k-max", "2", "--n-max", "4")
        assert (code, out, err) == (0, f'{{"family": "reversal", "rows": [{rows}], "all_match": true}}\n', "")


class TestDownsetAndCompactify:
    def test_downset_worked_example(self, capsys):
        code, out, _ = run(capsys, "downset", "--perm", "-2 1 3")
        assert code == 0
        assert out == "\n-1\n1\n-1 2\n-2 1\n-2 1 3\n"

    def test_compactify(self, capsys):
        code, out, _ = run(capsys, "compactify", "--perm", "-3 -2 -1 4 5 6")
        assert code == 0
        assert out == "core: -1 2\nvector: 3 3\n"

    def test_compactify_singleton(self, capsys):
        code, out, _ = run(capsys, "compactify", "--perm", "1")
        assert code == 0
        assert out == "core: 1\nvector: 1\n"

    def test_compactify_json(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "compactify", "--perm", "-3 -2 -1 4 5 6")
        assert code == 0
        assert json.loads(out) == {"core": "-1 2", "vector": [3, 3]}


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("enumerate", "--perm", "3 -1 2 -4"),
            ("pancake", "--k", "4"),
            ("downset", "--perm", "3 -1 2 -4"),
            ("verify", "--family", "pancake", "--k-max", "3", "--n-max", "4"),
        ],
    )
    def test_byte_identical_reruns(self, capsys, argv):
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second
