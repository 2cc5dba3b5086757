"""Cache file formats round-trip losslessly and reject foreign files."""
import hashlib
import random

import pytest

from signedgrids import cache, distance, engine
from signedgrids.cli import main
from signedgrids.distance import Family, generator_set
from signedgrids.gridclass import LengthHistogram
from signedgrids.perm import all_perms, format_perm


class TestPermsetFiles:
    def test_round_trip(self, tmp_path):
        members = frozenset({(1, -2), (-1,), (2, -1, 3)})
        path = cache.pi_path(tmp_path, Family.PANCAKE, 2)
        cache.write_permset(path, members)
        assert cache.read_permset(path) == members

    def test_round_trip_with_epsilon(self, tmp_path):
        members = frozenset({(), (1,)})
        path = tmp_path / "s.perms"
        cache.write_permset(path, members)
        assert cache.read_permset(path) == members

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bad.perms"
        path.write_text("1 2\n")
        with pytest.raises(ValueError, match="header"):
            cache.read_permset(path)

    def test_bytes_that_are_not_text_rejected(self, tmp_path):
        path = tmp_path / "bad.perms"
        path.write_bytes(b"\xff\xfe\n")
        with pytest.raises(ValueError, match=r"bad\.perms: byte 0 is not ASCII"):
            cache.read_permset(path)


class TestHistogramFiles:
    def test_round_trip(self, tmp_path):
        hist = LengthHistogram({1: 2, 2: 2, 3: 1}, True)
        path = cache.hist_path(tmp_path, Family.REVERSAL, 1)
        cache.write_histogram(path, hist)
        assert cache.read_histogram(path) == hist

    def test_round_trip_no_epsilon(self, tmp_path):
        hist = LengthHistogram({4: 7}, False)
        path = tmp_path / "h.hist"
        cache.write_histogram(path, hist)
        assert cache.read_histogram(path) == hist

    def test_missing_epsilon_line(self, tmp_path):
        path = tmp_path / "h.hist"
        path.write_text(cache.HIST_HEADER + "\n1 2\n")
        with pytest.raises(ValueError, match="epsilon"):
            cache.read_histogram(path)

    @pytest.mark.parametrize("line", ["epsilon x", "epsilon 2", "epsilon", "epsilon 1 1", "epsilon 01"])
    def test_malformed_epsilon_rejected(self, tmp_path, line):
        path = tmp_path / "h.hist"
        path.write_text(f"{cache.HIST_HEADER}\n{line}\n1 2\n")
        with pytest.raises(ValueError, match=r"h\.hist: line 1 after the header: .*epsilon"):
            cache.read_histogram(path)

    @pytest.mark.parametrize("line", ["1", "1 2 3", "1 x", "0 2", "1 0", "-1 2", "1 -2", "+1 2", "01 2", "", "1  2"])
    def test_malformed_count_rejected(self, tmp_path, line):
        path = tmp_path / "h.hist"
        path.write_text(f"{cache.HIST_HEADER}\nepsilon 1\n{line}\n2 1\n")
        with pytest.raises(ValueError, match=r"h\.hist: line 2 after the header: "):
            cache.read_histogram(path)

    def test_repeated_length_rejected(self, tmp_path):
        path = tmp_path / "h.hist"
        path.write_text(f"{cache.HIST_HEADER}\nepsilon 1\n1 2\n2 1\n1 3\n")
        with pytest.raises(ValueError, match=r"h\.hist: line 4 after the header: length 1 comes after 2"):
            cache.read_histogram(path)

    def test_swapped_lengths_rejected(self, tmp_path):
        # `write_histogram` writes the lengths in increasing order
        path = tmp_path / "h.hist"
        path.write_text(f"{cache.HIST_HEADER}\nepsilon 1\n2 2\n1 2\n3 1\n")
        with pytest.raises(ValueError, match=r"h\.hist: line 3 after the header: length 1 comes after 2"):
            cache.read_histogram(path)

    def test_layout_paths(self, tmp_path):
        assert cache.pi_path(tmp_path, Family.PANCAKE, 9).name == "pi_9.perms"
        assert cache.hist_path(tmp_path, Family.REVERSAL, 3).name == "S_3.hist"
        assert cache.pi_path(tmp_path, Family.PANCAKE, 9).parent.name == "pancake"


# Every line a writer writes ends in "\n" alone, so a file with another
# line break, or whose last line has no "\n", is not one it wrote, though
# `str.splitlines` would also split at "\r\n", "\v", "\f" and "\x1c".."\x1e".
@pytest.mark.parametrize(
    "text,error",
    [
        (f"{cache.HIST_HEADER}\r\nepsilon 1\r\n1 2\r\n", "missing or unexpected header"),
        (f"{cache.HIST_HEADER}\nepsilon 1\r\n1 2\r\n", "line 1 after the header: "),
        (f"{cache.HIST_HEADER}\nepsilon 1\n1 2\x0b2 6\x1c3 34\n", "line 2 after the header: "),
        (f"{cache.HIST_HEADER}\nepsilon 1\n1 2", "line 2 after the header: no line end"),
        (cache.HIST_HEADER, "missing or unexpected header"),
    ],
    ids=["crlf", "crlf-after-the-header", "vertical-tab", "no-final-newline", "header-alone"],
)
def test_histogram_line_breaks_other_than_newline_rejected(tmp_path, text, error):
    path = tmp_path / "h.hist"
    path.write_bytes(text.encode())
    with pytest.raises(ValueError, match=rf"h\.hist: {error}"):
        cache.read_histogram(path)


@pytest.mark.parametrize(
    "text,error",
    [
        (f"{cache.PERMS_HEADER}\r\n1\r\n", "missing or unexpected header"),
        (f"{cache.PERMS_HEADER}\n-1 2\r\n2 -1 3\r\n", "line 1 after the header: "),
        (f"{cache.PERMS_HEADER}\n-1 2\x0b2 -1 3\n", "line 1 after the header: "),
        (f"{cache.PERMS_HEADER}\n1\n-1 2", "line 2 after the header: no line end"),
        (cache.PERMS_HEADER, "missing or unexpected header"),
    ],
    ids=["crlf", "crlf-after-the-header", "vertical-tab", "no-final-newline", "header-alone"],
)
def test_permset_line_breaks_other_than_newline_rejected(tmp_path, text, error):
    path = tmp_path / "p.perms"
    path.write_bytes(text.encode())
    with pytest.raises(ValueError, match=rf"p\.perms: {error}"):
        cache.read_permset(path)


def test_stored_histogram_with_crlf_line_ends_refused(tmp_path, capsys):
    assert main(["--cache-dir", str(tmp_path), "pancake", "--k", "3"]) == 0
    path = tmp_path / "pancake" / "S_3.hist"
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    capsys.readouterr()
    assert main(["--cache-dir", str(tmp_path), "pancake", "--k", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "S_3.hist: missing or unexpected header" in captured.err


# sha256 of every file that `pancake --k 0..5` and `reversal --k 0..4`,
# run in turn into one empty store, leave behind.
COLD_DIGESTS = {
    "pancake/S_0.hist": "ac3fbb535d571726c54a39398ca8b125b112ce45031efd40cffbe81bed584474",
    "pancake/S_1.hist": "7f1f566823fe32d1177c65f77ae719a9a1ffccdb1415041bb5f3975fe817a985",
    "pancake/S_2.hist": "a2a8c75d8e4604ead50ccd7e66ddb1b4a9c284ae7534a1737407b7bb3a72ed7b",
    "pancake/S_3.hist": "7e2ec43a2633c717b48b477c837a702898ff6bf1f18ae68377d1a95abc231aa9",
    "pancake/S_4.hist": "ab28d2e43e614c64383342d86ec89ca47504015e239f88617001a562921b67f9",
    "pancake/S_5.hist": "20d45dde6f75bd2abb663b9c7f1b09934fdba6dc845c9daf5048734fc95546a1",
    "pancake/pi_1.perms": "8f249876827b7d8bec8985d3cfa06b444fad3afe42b479a238cdee1ab25d58e4",
    "pancake/pi_2.perms": "8cdd368e5f7689370c2b904ae810794b1ebd1e5dbebfa137d19f3ec7ae1a1c8a",
    "pancake/pi_3.perms": "3fe1a3478a895e5edc3ae6097029043defdaee0713f0f0f29c28e8eda5aaa6d0",
    "pancake/pi_4.perms": "9e9f78f223ca8c0f728c39f2c76ee50a0525b2f096404bf2aea2729435c49942",
    "pancake/pi_5.perms": "05a227e6e8c8147c0ec089b4ab9de1b4261114ce508df29fa714830145ec2c33",
    "reversal/S_0.hist": "ac3fbb535d571726c54a39398ca8b125b112ce45031efd40cffbe81bed584474",
    "reversal/S_1.hist": "22737ad9fa4ae1e6ec7a6532a864945a01c6b06f7349de49d0333a3034ddef1b",
    "reversal/S_2.hist": "3eeb7c40f608a2b2baf823bfe957d809147efc1b58a3cf72a9925e0bbc481832",
    "reversal/S_3.hist": "17d3ccf58bff1ad2c2d8487c71508f67907866dc703ff13084c0969b0633effd",
    "reversal/S_4.hist": "3894be9f125afec2dcdce7a861dc8aec07441e001020ba447c0614b18e10e7b5",
    "reversal/pi_1.perms": "6ac6632700b0041c51ce7af5ba52a2dab508f19cc31b0c885c7d62f6dcb5f1ec",
    "reversal/pi_2.perms": "46321ae4a417eecbde422391a525ddb382bbda1bd997fa9a6b7bb8f6fe2ee59f",
    "reversal/pi_3.perms": "a232dad3a52c2cb83429cec41bc8682c6385892ee4ac6d3bd68bce2a51b3cd60",
    "reversal/pi_4.perms": "e5f07056abc252d8e1746e13092fe944c86d4234e396507275b465cc26e713a3",
}


def _digests(store):
    return {f.relative_to(store).as_posix(): hashlib.sha256(f.read_bytes()).hexdigest() for f in store.rglob("*") if f.is_file()}


def test_cold_written_bytes_are_pinned(tmp_path):
    for family, k_max in (("pancake", 5), ("reversal", 4)):
        for k in range(k_max + 1):
            assert main(["--cache-dir", str(tmp_path), family, "--k", str(k)]) == 0
    assert _digests(tmp_path) == COLD_DIGESTS


def test_cold_export_grows_no_generator_set(tmp_path, monkeypatch):
    # the walk keeps the keys of each Pi_k that the store gets, so a cold
    # write, `--exact` included, never grows Pi_k a second time
    def no_growth(family, k):
        raise AssertionError(f"Pi_{k} grown again")

    monkeypatch.setattr(distance, "generator_set", no_growth)
    test_cold_written_bytes_are_pinned(tmp_path / "cold")
    for family, k in (("pancake", 5), ("reversal", 4)):
        store = tmp_path / f"exact-{family}"
        assert main(["--cache-dir", str(store), family, "--k", str(k), "--exact"]) == 0
        names = [f"{family}/{name}" for name in (f"pi_{k - 1}.perms", f"pi_{k}.perms", f"S_{k - 1}.hist", f"S_{k}.hist")]
        assert _digests(store) == {name: COLD_DIGESTS[name] for name in names}


@pytest.mark.parametrize(
    "writer,old,new",
    [
        (cache.write_histogram, LengthHistogram({1: 2}, True), LengthHistogram({1: 2, 2: 2}, True)),
        (cache.write_levels, [engine.rows([(1, -2)], 2)], [engine.rows([(-2, 1), (1, -2)], 2)]),
    ],
    ids=["histogram", "packed"],
)
def test_failed_write_keeps_the_earlier_file(tmp_path, monkeypatch, writer, old, new):
    path = tmp_path / "pancake" / "f"
    writer(path, old)
    before = path.read_bytes()

    def failing(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(cache.os, "replace", failing)
    with pytest.raises(OSError, match="disk full"):
        writer(path, new)
    assert path.read_bytes() == before
    assert [f.name for f in path.parent.iterdir()] == ["f"]


class TestPackedFiles:
    def test_round_trip_matches_tuple_reader(self, tmp_path):
        members = frozenset({(1, -2), (-1,), (2, -1, 3), (-3, 1, -2)})
        path = tmp_path / "p.perms"
        cache.write_permset(path, members)
        assert cache.read_permset(path) == members

    def test_same_bytes_as_tuple_writer(self, tmp_path):
        # entries up to 12 put "1", "10", "11", "12" and "-1", "-10" side by
        # side, where text order is not numeric order; the file keeps
        # numeric (tuple) order
        rng = random.Random(0)
        members = {(), (1,), *all_perms(3)}
        for m in (11, 12):
            for _ in range(300):
                values = rng.sample(range(1, m + 1), m)
                members.add(tuple(v * rng.choice((1, -1)) for v in values))
        path = tmp_path / "t.perms"
        cache.write_permset(path, frozenset(members))
        expected = [cache.PERMS_HEADER, *map(format_perm, sorted(members, key=lambda p: (len(p), p)))]
        assert path.read_text() == "".join(line + "\n" for line in expected)

    def test_longest_level_same_bytes_as_tuple_writer(self, tmp_path):
        # a length-13 level uses every entry -13..13, so the table index
        # peaks at 53, for 13 in the last column
        rng = random.Random(1)
        members = {tuple(range(1, 14)), tuple(range(-13, 0))}
        while len(members) < 500:
            values = rng.sample(range(1, 14), 13)
            members.add(tuple(v * rng.choice((1, -1)) for v in values))
        level = engine.from_keys(engine.unique_keys([engine.rows(members, 13)], len(members)), 13)
        assert set(level.ravel().tolist()) == set(range(-13, 14)) - {0}
        path = tmp_path / "t.perms"
        cache.write_levels(path, [level])
        expected = [cache.PERMS_HEADER, *map(format_perm, sorted(members, key=lambda p: (len(p), p)))]
        assert path.read_text().split("\n") == [*expected, ""]

    @pytest.mark.parametrize("body", ["1 3\n", "1 1\n", "0\n", "1 -1\n", "x\n", "1\n\n2 1\n", "+1\n", "01\n", "2  1\n"])
    def test_malformed_line_rejected(self, tmp_path, body):
        path = tmp_path / "bad.perms"
        path.write_text(cache.PERMS_HEADER + "\n1\n" + body)
        with pytest.raises(ValueError, match="line [23]"):
            cache.read_permset(path)


# sha256 of `write_levels` output for Pi_k grown without a store: the bytes
# a cold `pancake --k 9` and `reversal --k 6 --k-ceiling 6` write as
# `pi_k.perms`, whose lines, sorted as text, are those of the per-family
# growth loops that one shared step (`distance._downset_level`) replaced.
GROWN_DIGESTS = {
    (Family.REVERSAL, 6): "a45eb94f46138aec2afb0e518d0fb292fe8c45aaade114547ed57360d25bf97d",
    (Family.PANCAKE, 9): "4e7a9d72ee62c5037d6b5b96e5d46dea1ff6ce1ac65f929b8ab56ad2db30e4d0",
}


@pytest.mark.parametrize("family,k", list(GROWN_DIGESTS), ids=lambda v: str(v))
def test_grown_generator_sets_are_pinned(tmp_path, family, k):
    path = tmp_path / "pi.perms"
    cache.write_levels(path, [generator_set(family, k)])
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GROWN_DIGESTS[family, k]
