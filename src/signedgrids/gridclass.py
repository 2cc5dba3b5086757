"""
Closure of a set of signed permutations under containment, compact
representative extraction, and the enumerating polynomial.

The closure walks the union of downsets of arbitrary generators by
repeated single-entry deletion.  Because deletion drops the length by
exactly one, the global visited set splits into per-length levels and each
permutation is expanded exactly once: the closure holds only two adjacent
levels at a time.  The distance classes do not come through here:
`distance` grows their downsets move by move, which makes far fewer
candidates than deleting each entry of each level.  Each level is an `int8`
array of the `engine` module, one row per permutation, so the deletions,
their deduplication and the compactness scan run on whole levels in
numpy; permutations are limited to `engine.MAX_LENGTH` (13) entries.
numpy is loaded on the first closure, not on import.

Non-compact permutations are still traversed (their sub-permutations may
be compact) but only compact ones are counted or emitted.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from .perm import SignedPerm, compactify, format_perm, parse_perm
from .poly import Polynomial, from_histogram

if TYPE_CHECKING:  # numpy is loaded by `engine` on the first closure
    import numpy as np

PermSet = frozenset[SignedPerm]


@dataclass(frozen=True)
class LengthHistogram:
    """Counts of compact representatives by length, plus the empty perm."""

    counts: dict[int, int] = field(default_factory=dict)
    has_epsilon: bool = False

    def total(self) -> int:
        """Number of representatives, the empty permutation included."""
        return sum(self.counts.values()) + (1 if self.has_epsilon else 0)


def _seed_levels(perms: Iterable[SignedPerm]) -> dict[int, np.ndarray]:
    from . import engine

    by_length: dict[int, list[SignedPerm]] = {}
    for p in perms:
        if p:
            by_length.setdefault(len(p), []).append(p)
    return {m: engine.unique_rows([engine.rows(ps, m)]) for m, ps in by_length.items()}


def _closure(seeds: dict[int, np.ndarray], collect: list[SignedPerm] | None) -> dict[int, int]:
    """Walk the levels of `seeds` (length -> level) down to length 1 and
    count the compact rows of each; `seeds` is emptied as it is walked."""
    from . import engine

    counts: dict[int, int] = {}
    level = None
    for m in range(max(seeds, default=0), 0, -1):
        if m in seeds:
            level = seeds.pop(m) if level is None else engine.unique_rows([level, seeds.pop(m)])
        compact = engine.compact_mask(level)
        count = int(compact.sum())
        if count:
            counts[m] = count
            if collect is not None:
                collect.extend(engine.to_tuples(level[compact]))
        if m > 1:
            level = engine.expand(level)
    return counts


def complete_and_compact(perms: Iterable[SignedPerm]) -> PermSet:
    """
    The compact representative set S of Grid(perms): every permutation
    contained in a member of the input, kept only if compact, together
    with the empty permutation.  Grid(S) = Grid(perms) and the grid class
    decomposes as the disjoint union of the fillings of the members of S.
    """
    members: list[SignedPerm] = [()]  # the empty permutation is in every downset
    _closure(_seed_levels(perms), members)
    return frozenset(members)


def closure_histogram(perms: Iterable[SignedPerm]) -> LengthHistogram:
    """
    Length histogram of `complete_and_compact(perms)` without materializing
    the set; this is the memory-friendly path for large distance classes.
    """
    return LengthHistogram(_closure(_seed_levels(perms), None), True)


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
