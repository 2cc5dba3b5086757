"""Command-line behavior: output formats, exit codes, cache, determinism."""
import json

import pytest

from signedgrids import distance
from signedgrids.cli import CACHE_DIR_ENV, main


def _no_growth(level, family):
    raise AssertionError("Pi_k growth was not expected here")


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

    def test_eval_integer(self, capsys):
        code, out, _ = run(capsys, "pancake", "--k", "2", "--eval", "4")
        assert code == 0
        assert out == "17\n"

    def test_verbose_reports_generator_count(self, capsys):
        code, out, _ = run(capsys, "--verbose", "pancake", "--k", "3")
        assert code == 0
        assert "# |Pi_3| = 6" in out

    def test_verbose_without_store_grows_each_level_once(self, capsys, monkeypatch):
        # Step j builds D_j(m), the length-m members of the downset of
        # Pi_j, for m = j + 1 (Pi_j, by `_grow`) down to 1, each once.
        steps, built = [], []
        grow, level_of = distance._grow, distance._downset_level

        def counting_grow(level, family):
            steps.append(family)
            grown = grow(level, family)
            built.append((len(steps), grown.shape[1]))
            return grown

        def counting_level(below, m, family):
            built.append((len(steps), m))
            return level_of(below, m, family)

        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        monkeypatch.setattr(distance, "_grow", counting_grow)
        monkeypatch.setattr(distance, "_downset_level", counting_level)
        monkeypatch.setattr(distance, "_HIST_MEMO", {})
        code, out, _ = run(capsys, "--verbose", "pancake", "--k", "5")
        assert code == 0
        assert out.splitlines()[0] == "# |Pi_5| = 120"
        assert built == [(j, m) for j in range(1, 6) for m in range(j + 1, 0, -1)]


class TestCache:
    def test_warm_cache_identical_output(self, capsys, tmp_path):
        argv = ("--cache-dir", str(tmp_path), "pancake", "--k", "4")
        code1, out1, _ = run(capsys, *argv)
        assert (tmp_path / "pancake" / "S_4.hist").exists()
        assert (tmp_path / "pancake" / "pi_4.perms").exists()
        code2, out2, _ = run(capsys, *argv)
        assert (code1, out1) == (code2, out2)
        assert out1 == "[1, -1/2, 3, -5/2, 1]\n"

    def test_damaged_generator_file_is_never_read(self, capsys, tmp_path, monkeypatch):
        run(capsys, "--cache-dir", str(tmp_path), "pancake", "--k", "4")
        pi_4 = tmp_path / "pancake" / "pi_4.perms"
        lines = pi_4.read_text().splitlines(keepends=True)
        pi_4.write_text("".join(lines[:5] + lines[8:]))
        monkeypatch.setattr(distance, "_HIST_MEMO", {})
        code, out, _ = run(capsys, "--cache-dir", str(tmp_path), "--verbose", "pancake", "--k", "5")
        assert code == 0
        assert out.splitlines()[0] == "# |Pi_5| = 120"
        assert out.splitlines()[-1] == "[1, 1/2, -25/6, 17/2, -29/6, 1]"

    def test_cold_run_writes_only_its_own_level(self, capsys, tmp_path):
        run(capsys, "--cache-dir", str(tmp_path), "pancake", "--k", "5")
        assert sorted(f.name for f in (tmp_path / "pancake").iterdir()) == ["S_5.hist", "pi_5.perms"]

    @pytest.mark.parametrize("family,k", [("pancake", 4), ("reversal", 3)])
    def test_histogram_missing_its_last_line_rejected(self, capsys, tmp_path, monkeypatch, family, k):
        run(capsys, "--cache-dir", str(tmp_path), family, "--k", str(k))
        target = tmp_path / family / f"S_{k}.hist"
        lines = target.read_text().splitlines(keepends=True)
        target.write_text("".join(lines[:-1]))
        monkeypatch.setattr(distance, "_HIST_MEMO", {})
        code, out, err = run(capsys, "--cache-dir", str(tmp_path), family, "--k", str(k))
        assert (code, out) == (2, "")
        assert f"S_{k}.hist" in err

    @pytest.mark.parametrize("verbose", [(), ("--verbose",)], ids=["plain", "verbose"])
    def test_histogram_cut_inside_its_last_line_rejected(self, capsys, tmp_path, monkeypatch, verbose):
        # "5 24" becomes "5 2": the file still parses and keeps its top length
        run(capsys, "--cache-dir", str(tmp_path), "pancake", "--k", "4")
        target = tmp_path / "pancake" / "S_4.hist"
        target.write_bytes(target.read_bytes()[:-2])
        monkeypatch.setattr(distance, "_HIST_MEMO", {})
        code, out, err = run(capsys, "--cache-dir", str(tmp_path), *verbose, "pancake", "--k", "4")
        assert (code, out) == (2, "")
        assert "pancake k=4" in err and "leading coefficient" in err

    @pytest.mark.parametrize("family,k,old,new", [("pancake", 3, "2 3", "2 6"), ("reversal", 2, "2 2", "2 6")])
    def test_exact_rejects_a_shorter_class_larger_than_its_successor(
        self, capsys, tmp_path, monkeypatch, family, k, old, new
    ):
        # the edited S_{k-1}.hist still passes every check on P_{k-1} alone;
        # only P_k - P_{k-1} shows it, negative at n = 2
        for j in range(1, k + 1):
            run(capsys, "--cache-dir", str(tmp_path), family, "--k", str(j))
        target = tmp_path / family / f"S_{k - 1}.hist"
        lines = target.read_text().splitlines(keepends=True)
        target.write_text("".join(new + "\n" if line == old + "\n" else line for line in lines))
        assert target.read_text() != "".join(lines)
        monkeypatch.setattr(distance, "_HIST_MEMO", {})
        code, out, err = run(capsys, "--cache-dir", str(tmp_path), family, "--k", str(k), "--exact")
        assert (code, out) == (2, "")
        assert f"{family} k={k}: P(2) = -1 is outside 0..2^n n! = 8" in err

    def test_env_var_sets_cache_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        code, _, _ = run(capsys, "reversal", "--k", "2")
        assert code == 0
        assert (tmp_path / "reversal" / "S_2.hist").exists()

    def test_warm_verbose_grows_nothing(self, capsys, tmp_path, monkeypatch):
        run(capsys, "--cache-dir", str(tmp_path), "pancake", "--k", "4")
        for path in (tmp_path / "pancake").glob("pi_*.perms"):
            path.unlink()
        monkeypatch.setattr(distance, "_grow", _no_growth)
        monkeypatch.setattr(distance, "_HIST_MEMO", {})
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
