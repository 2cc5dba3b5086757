"""
On-disk cache for the distance-class pipeline.

Layout under the cache directory:

    {family}/pi_{k}.perms   generator set Pi_k, PermSet text format, its
                            members sorted as tuples; an export, never
                            read back by the pipeline
    {family}/S_{k}.hist     length histogram of the compact representatives,
                            lengths ascending

Every cache file is ASCII text and starts with a header line carrying the
format version.  Files are written to a temporary name in the same
directory and renamed into place, so a reader sees the old file or the
new one, never a part.  Every line, the last included, ends in a line
feed alone.  A file that is not ASCII is rejected naming the file and the
byte; one with an unexpected header, or with any line the writer would
not have written, its line end included, naming the file and the line,
rather than silently misread.  The same class always writes the same bytes.
"""
from __future__ import annotations

import itertools
import os
import re
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator

from .gridclass import LengthHistogram, PermSet

if TYPE_CHECKING:  # `family.value` and array levels only, so no import at run time
    import numpy as np

    from .distance import Family

PERMS_HEADER = "# signedgrids permset v1"
HIST_HEADER = "# signedgrids hist v1"

_EPSILON_LINES = {"epsilon 0": False, "epsilon 1": True}
_COUNT_LINE = re.compile(r"([1-9][0-9]*) ([1-9][0-9]*)")

# Rows per block of text when a level is written.
_BLOCK_ROWS = 1 << 14


def pi_path(cache_dir: Path, family: Family, k: int) -> Path:
    return Path(cache_dir) / family.value / f"pi_{k}.perms"


def hist_path(cache_dir: Path, family: Family, k: int) -> Path:
    return Path(cache_dir) / family.value / f"S_{k}.hist"


def _read_lines(path: Path, header: str) -> list[str]:
    """The lines after the header, split at line feeds alone, which end
    every line the writer writes: a carriage return or another break that
    `str.splitlines` would split at stays inside its line, and a last
    line with no line feed is refused."""
    try:
        lines = path.read_bytes().decode("ascii").split("\n")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: byte {exc.start} is not ASCII") from None
    if len(lines) < 2 or lines[0] != header:
        raise ValueError(f"{path}: missing or unexpected header (expected {header!r})")
    if lines[-1]:
        raise ValueError(f"{path}: line {len(lines) - 1} after the header: no line end")
    return lines[1:-1]


def _write(path: Path, chunks: Iterable[bytes]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_levels(path: Path, levels: Iterable[np.ndarray]) -> None:
    """Write `engine` levels, one per length and each of sorted, distinct
    rows, in the PermSet text format: shorter levels first, each in its
    own row order."""
    blocks = map(_level_text, sorted(levels, key=lambda level: level.shape[1]))
    _write(path, itertools.chain([(PERMS_HEADER + "\n").encode()], *blocks))


def _level_text(level: np.ndarray) -> Iterator[bytes]:
    """The lines of one level in row order, as bytes, a block of rows at a
    time: each entry x is written through a table from (last column, x) to
    its text and the space or line end after it, padded with zero bytes to
    one width; the padding is then dropped."""
    import numpy as np

    n, m = level.shape
    if m == 0:
        yield b"\n" * n
        return
    tokens = [f"{x}{end}".encode() for end in " \n" for x in range(-m, m + 1)]
    width = max(map(len, tokens))
    table = np.frombuffer(b"".join(t.ljust(width, b"\0") for t in tokens), np.uint8).reshape(len(tokens), width)
    # entry x is looked up as x + m, in the last column as x + 3m + 1
    offset = np.array([m] * (m - 1) + [3 * m + 1], dtype=np.int8)
    for start in range(0, n, _BLOCK_ROWS):
        yield table.take(level[start : start + _BLOCK_ROWS] + offset, axis=0).tobytes().translate(None, b"\0")


def write_permset(path: Path, members: PermSet) -> None:
    """Write tuples of length up to `engine.MAX_LENGTH` (13) through
    `write_levels`, sorted."""
    from . import engine

    write_levels(path, engine.levels(sorted(members)).values())


def read_permset(path: Path) -> PermSet:
    """Read a PermSet file; every line must be exactly as written."""
    from .perm import parse_canonical

    members = set()
    for lineno, line in enumerate(_read_lines(path, PERMS_HEADER), start=1):
        try:
            p = parse_canonical(line)
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno} after the header: {exc}") from None
        if not p and lineno != 1:
            raise ValueError(f"{path}: line {lineno} after the header: the empty permutation may only come first")
        members.add(p)
    return frozenset(members)


def write_histogram(path: Path, hist: LengthHistogram) -> None:
    lines = [HIST_HEADER, f"epsilon {1 if hist.has_epsilon else 0}"]
    lines.extend(f"{m} {hist.counts[m]}" for m in sorted(hist.counts))
    _write(path, [(line + "\n").encode() for line in lines])


def read_histogram(path: Path) -> LengthHistogram:
    """Read a histogram file; every line must be exactly as written, the
    lengths strictly increasing."""
    body = _read_lines(path, HIST_HEADER)
    if not body or body[0] not in _EPSILON_LINES:
        raise ValueError(f"{path}: line 1 after the header: expected 'epsilon 0' or 'epsilon 1'")
    counts: dict[int, int] = {}
    for lineno, line in enumerate(body[1:], start=2):
        match = _COUNT_LINE.fullmatch(line)
        if match is None:
            raise ValueError(f"{path}: line {lineno} after the header: two positive integers expected: {line!r}")
        m, count = int(match[1]), int(match[2])
        if m <= max(counts, default=0):
            raise ValueError(f"{path}: line {lineno} after the header: length {m} comes after {max(counts)}")
        counts[m] = count
    return LengthHistogram(counts, _EPSILON_LINES[body[0]])
