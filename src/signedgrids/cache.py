"""
On-disk cache for the distance-class pipeline.

Layout under the cache directory:

    {family}/pi_{k}.perms   generator set Pi_k, PermSet text format; an
                            export, never read back by the pipeline
    {family}/S_{k}.hist     length histogram of the compact representatives

Every cache file starts with a header line carrying the format version.
Files are written to a temporary name in the same directory and renamed
into place, so a reader sees the old file or the new one, never a part.
A file with an unexpected header, or with any line the writer would not
have written, is rejected, naming the file and the line, rather than
silently misread.  Warm-cache runs must produce byte-identical command
output, so everything written here is sorted.
"""
from __future__ import annotations

import os
import re
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from .gridclass import LengthHistogram, PermSet
from .perm import format_packed, pack_perm, parse_packed, unpack_perm

if TYPE_CHECKING:  # only `family.value` is used, so no import at run time
    from .distance import Family

PERMS_HEADER = "# signedgrids permset v1"
HIST_HEADER = "# signedgrids hist v1"

_EPSILON_LINES = {"epsilon 0": False, "epsilon 1": True}
_COUNT_LINE = re.compile(r"([1-9][0-9]*) ([1-9][0-9]*)")


def pi_path(cache_dir: Path, family: Family, k: int) -> Path:
    return Path(cache_dir) / family.value / f"pi_{k}.perms"


def hist_path(cache_dir: Path, family: Family, k: int) -> Path:
    return Path(cache_dir) / family.value / f"S_{k}.hist"


def _read_lines(path: Path, header: str) -> list[str]:
    lines = path.read_text().splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"{path}: missing or unexpected header (expected {header!r})")
    return lines[1:]


def _write(path: Path, lines: Iterable[str]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as f:
            f.writelines(line + "\n" for line in lines)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_packed(path: Path, packed: Iterable[bytes]) -> None:
    """Write distinct packed permutations in the PermSet text format, sorted
    by (entry count, text) as `gridclass.permset_to_lines` sorts."""
    by_length: dict[int, list[str]] = {}
    for b in packed:
        by_length.setdefault(len(b), []).append(format_packed(b))
    lines = [PERMS_HEADER]
    for m in sorted(by_length):
        lines += sorted(by_length.pop(m))
    _write(path, lines)


def read_packed(path: Path) -> set[bytes]:
    """Read a PermSet file straight into the packed encoding."""
    packed: set[bytes] = set()
    for lineno, line in enumerate(_read_lines(path, PERMS_HEADER), start=1):
        try:
            b = parse_packed(line)
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno} after the header: {exc}") from None
        if not b and lineno != 1:
            raise ValueError(f"{path}: line {lineno} after the header: the empty permutation may only come first")
        packed.add(b)
    return packed


def write_permset(path: Path, members: PermSet) -> None:
    write_packed(path, {pack_perm(p) for p in members})


def read_permset(path: Path) -> PermSet:
    return frozenset(unpack_perm(b) for b in read_packed(path))


def write_histogram(path: Path, hist: LengthHistogram) -> None:
    lines = [HIST_HEADER, f"epsilon {1 if hist.has_epsilon else 0}"]
    lines.extend(f"{m} {hist.counts[m]}" for m in sorted(hist.counts))
    _write(path, lines)


def read_histogram(path: Path) -> LengthHistogram:
    """Read a histogram file; every line must be exactly as written."""
    body = _read_lines(path, HIST_HEADER)
    if not body or body[0] not in _EPSILON_LINES:
        raise ValueError(f"{path}: line 1 after the header: expected 'epsilon 0' or 'epsilon 1'")
    counts: dict[int, int] = {}
    for lineno, line in enumerate(body[1:], start=2):
        match = _COUNT_LINE.fullmatch(line)
        if match is None:
            raise ValueError(f"{path}: line {lineno} after the header: two positive integers expected: {line!r}")
        m, count = int(match[1]), int(match[2])
        if m in counts:
            raise ValueError(f"{path}: line {lineno} after the header: length {m} appears twice")
        counts[m] = count
    return LengthHistogram(counts, _EPSILON_LINES[body[0]])
