"""
On-disk cache for the distance-class pipeline.

Layout under the cache directory:

    {family}/pi_{k}.perms   generator set Pi_k, PermSet text format
    {family}/S_{k}.hist     length histogram of the compact representatives

Every cache file starts with a header line carrying the format version;
files with an unexpected header are rejected rather than silently
misread.  Warm-cache runs must produce byte-identical command output, so
everything written here is sorted.
"""
from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING

from .gridclass import LengthHistogram, PermSet, permset_from_lines
from .perm import pack_perm

if TYPE_CHECKING:  # only `family.value` is used, so no import at run time
    from .distance import Family

PERMS_HEADER = "# signedgrids permset v1"
HIST_HEADER = "# signedgrids hist v1"

# The text of the entry each packed byte encodes; sorting lines by
# (entry count, text) is the order of `gridclass.permset_to_lines`.
_ENTRY_TEXT = [str(c - 128) for c in range(256)]
_ENTRY_CODE = {text: c for c, text in enumerate(_ENTRY_TEXT) if c != 128}
# A packed line is a signed permutation iff its bytes mapped through
# _ABS_TABLE (|x| + 128) and sorted run 129, 130, ...
_ABS_TABLE = bytes(128 + abs(c - 128) if c else 0 for c in range(256))
_ABS_RUN = bytes(range(129, 256))


def pi_path(cache_dir: Path, family: Family, k: int) -> Path:
    return Path(cache_dir) / family.value / f"pi_{k}.perms"


def hist_path(cache_dir: Path, family: Family, k: int) -> Path:
    return Path(cache_dir) / family.value / f"S_{k}.hist"


def _read_lines(path: Path, header: str) -> list[str]:
    lines = path.read_text().splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"{path}: missing or unexpected header (expected {header!r})")
    return lines[1:]


def write_packed(path: Path, packed: set[bytes]) -> None:
    """Write packed permutations in the PermSet text format."""
    lines = sorted((len(b), " ".join([_ENTRY_TEXT[c] for c in b])) for b in packed)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join([PERMS_HEADER] + [text for _, text in lines]) + "\n")


def read_packed(path: Path) -> set[bytes]:
    """Read a PermSet file straight into the packed encoding."""
    lines = _read_lines(path, PERMS_HEADER)
    try:
        packed = {bytes([_ENTRY_CODE[f] for f in line.split()]) for line in lines}
    except KeyError:
        packed = None
    if packed is None or b"" in packed or not all(
        bytes(sorted(b.translate(_ABS_TABLE))) == _ABS_RUN[: len(b)] for b in packed
    ):
        # the slow, general parser accepts what it can and names the bad line
        packed = {pack_perm(p) for p in permset_from_lines(lines)}
    return packed


def write_permset(path: Path, members: PermSet) -> None:
    write_packed(path, {pack_perm(p) for p in members})


def read_permset(path: Path) -> PermSet:
    return permset_from_lines(_read_lines(path, PERMS_HEADER))


def write_histogram(path: Path, hist: LengthHistogram) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [HIST_HEADER, f"epsilon {1 if hist.has_epsilon else 0}"]
    lines.extend(f"{m} {hist.counts[m]}" for m in sorted(hist.counts))
    path.write_text("\n".join(lines) + "\n")


def read_histogram(path: Path) -> LengthHistogram:
    body = _read_lines(path, HIST_HEADER)
    if not body or not body[0].startswith("epsilon "):
        raise ValueError(f"{path}: missing epsilon line")
    has_epsilon = body[0].split()[1] == "1"
    counts: dict[int, int] = {}
    for line in body[1:]:
        if not line.strip():
            continue
        m_str, c_str = line.split()
        counts[int(m_str)] = int(c_str)
    return LengthHistogram(counts, has_epsilon)
