"""
Closure of a set of signed permutations under containment, compact
representative extraction, and the enumerating polynomial.

The closure walks the union of downsets by repeated single-entry deletion.
Because deletion drops the length by exactly one, the global visited set
splits into per-length levels and each permutation is expanded exactly
once: the engine holds only two adjacent levels at a time, which is what
makes the large distance classes fit in memory.  Levels store the packed
byte encoding from `perm`; deletion plus restandardization is a slice and
a byte-translate, both C-speed.

Non-compact permutations are still traversed (their sub-permutations may
be compact) but only compact ones are counted or emitted.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .perm import (
    DELETE_TABLE,
    SignedPerm,
    compactify,
    format_perm,
    is_compact_packed,
    pack_perm,
    parse_perm,
    unpack_perm,
)
from .poly import Polynomial, from_histogram

PermSet = frozenset[SignedPerm]


@dataclass(frozen=True)
class LengthHistogram:
    """Counts of compact representatives by length, plus the empty perm."""

    counts: dict[int, int] = field(default_factory=dict)
    has_epsilon: bool = False

    def total(self) -> int:
        """Number of representatives, the empty permutation included."""
        return sum(self.counts.values()) + (1 if self.has_epsilon else 0)


def _expand_level(level: set[bytes], length: int) -> set[bytes]:
    """All single deletions of the given packed permutations."""
    out: set[bytes] = set()
    add = out.add
    for b in level:
        for i in range(length):
            add((b[:i] + b[i + 1 :]).translate(DELETE_TABLE[b[i]]))
    return out


def _seed_levels(packed: Iterable[bytes]) -> dict[int, set[bytes]]:
    seeds: dict[int, set[bytes]] = {}
    for b in packed:
        if b:
            seeds.setdefault(len(b), set()).add(b)
    return seeds


def _closure(seeds: dict[int, set[bytes]], collect: set[bytes] | None) -> dict[int, int]:
    counts: dict[int, int] = {}
    if seeds:
        level: set[bytes] = set()
        for m in range(max(seeds), 0, -1):
            level |= seeds.pop(m, set())
            compact = [b for b in level if is_compact_packed(b)]
            if compact:
                counts[m] = len(compact)
                if collect is not None:
                    collect.update(compact)
            if m > 1:
                level = _expand_level(level, m)
    return counts


def complete_and_compact(perms: Iterable[SignedPerm]) -> PermSet:
    """
    The compact representative set S of Grid(perms): every permutation
    contained in a member of the input, kept only if compact, together
    with the empty permutation.  Grid(S) = Grid(perms) and the grid class
    decomposes as the disjoint union of the fillings of the members of S.
    """
    packed: set[bytes] = set()
    _closure(_seed_levels(pack_perm(p) for p in perms), packed)
    members = {unpack_perm(b) for b in packed}
    members.add(())  # the empty permutation is in every downset
    return frozenset(members)


def closure_histogram(perms: Iterable[SignedPerm]) -> LengthHistogram:
    """
    Length histogram of `complete_and_compact(perms)` without materializing
    the set; this is the memory-friendly path for large distance classes.
    """
    return closure_histogram_packed(pack_perm(p) for p in perms)


def closure_histogram_packed(packed: Iterable[bytes]) -> LengthHistogram:
    """As `closure_histogram`, taking already-packed permutations."""
    seeds = _seed_levels(packed)
    del packed  # the seeds are copies: a set passed by its only reference is freed here
    return LengthHistogram(_closure(seeds, None), True)


def length_histogram(members: Iterable[SignedPerm]) -> LengthHistogram:
    """Tally an explicit permutation set by length."""
    counts: dict[int, int] = {}
    has_epsilon = False
    for p in members:
        if len(p) == 0:
            has_epsilon = True
        else:
            counts[len(p)] = counts.get(len(p), 0) + 1
    return LengthHistogram(counts, has_epsilon)


def enumerate_gridclass(perms: Iterable[SignedPerm]) -> Polynomial:
    """
    The polynomial P with P(n) = |Grid(perms) intersect B_n| for all
    integers n >= 1.
    """
    return from_histogram(closure_histogram(perms).counts)


def grid_member(sigma: SignedPerm, members: PermSet) -> bool:
    """
    Membership of sigma in the grid class whose compact representative set
    is `members` (an output of complete_and_compact): sigma belongs iff
    the unique compact permutation it fills is a representative.
    """
    if len(sigma) == 0:
        return () in members
    return compactify(sigma)[0] in members


# ---------------------------------------------------------------------------
# PermSet text format: one canonical-encoded permutation per line, sorted by
# (length, lexicographic order of the encoded line); the empty permutation
# is an empty line and may appear only first.


def permset_to_lines(members: Iterable[SignedPerm]) -> list[str]:
    encoded = [format_perm(p) for p in set(members)]
    return sorted(encoded, key=lambda s: (len(s.split()), s))


def permset_from_lines(lines: Iterable[str]) -> PermSet:
    members: set[SignedPerm] = set()
    for lineno, raw in enumerate(lines, start=1):
        text = raw.rstrip("\n")
        if not text.strip():
            if lineno != 1:
                raise ValueError(
                    f"line {lineno}: empty line (the empty permutation) is permitted only as the first line"
                )
            members.add(())
            continue
        try:
            members.add(parse_perm(text))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return frozenset(members)
