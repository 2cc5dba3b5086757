"""
Closure of a set of signed permutations under containment, compact
representative extraction, and the enumerating polynomial.

The closure walks the union of downsets of arbitrary generators by
repeated single-entry deletion.  Because deletion drops the length by
exactly one, the global visited set splits into per-length levels and each
permutation is expanded exactly once.  `_closure` is one generator that
yields the levels longest first: level m is the union (`engine.unique_keys`,
sized from the levels it joins) of the generators of length m and the
single deletions of level m + 1 (`engine.expand`, whose union holds every
row's deletions), so it holds only two adjacent levels at a time, and
`complete_and_compact` and `closure_histogram` are each one loop over it.
The distance classes do not come through here: `distance` grows their
downsets move by move, which makes far fewer candidates than deleting
each entry of each level.
Each level is an `int8` array of the `engine` module, one row per
permutation, so the deletions, their deduplication and the compactness
scan run on whole levels in numpy; permutations are limited to
`engine.MAX_LENGTH` (13) entries.  `engine`, with numpy, is loaded on the
first closure and `perm` on the first text conversion, so a query
answered from the store, which needs only `LengthHistogram`, loads
neither.

Non-compact permutations are still traversed (their sub-permutations may
be compact) but only compact ones are counted or emitted.
"""
from __future__ import annotations

from types import MappingProxyType
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, NamedTuple

from .poly import Polynomial, from_histogram

if TYPE_CHECKING:  # numpy is loaded by `engine` on the first closure
    import numpy as np

    from .perm import SignedPerm

PermSet = frozenset[tuple[int, ...]]  # of `perm.SignedPerm`


class LengthHistogram(NamedTuple):
    """Counts of compact representatives by length, plus the empty perm."""

    counts: Mapping[int, int] = MappingProxyType({})  # a default no caller can mutate
    has_epsilon: bool = False

    def total(self) -> int:
        """Number of representatives, the empty permutation included."""
        return sum(self.counts.values()) + (1 if self.has_epsilon else 0)


def _closure(perms: Iterable[SignedPerm]) -> Iterator[np.ndarray]:
    """
    The levels of the downset of `perms`, from the longest down to length
    1, each of distinct rows in lexicographic order.  A seed of length m
    joins level m's union, and a level with no seed of its length is the
    single deletions of the level above.  Besides the seeds still to come,
    only the current level is held here across a yield.
    """
    from . import engine

    seeds = engine.levels(perms)
    level = None
    for m in range(max(seeds, default=0), 0, -1):
        if m in seeds:
            parts = [seeds.pop(m)] if level is None else [level, seeds.pop(m)]
            level = engine.from_keys(engine.unique_keys(parts, sum(map(len, parts))), m)
            del parts
        yield level
        if m > 1:
            level = engine.expand(level)


def complete_and_compact(perms: Iterable[SignedPerm]) -> PermSet:
    """
    The compact representative set S of Grid(perms): every permutation
    contained in a member of the input, kept only if compact, together
    with the empty permutation.  Grid(S) = Grid(perms) and the grid class
    decomposes as the disjoint union of the fillings of the members of S.
    """
    from . import engine

    members: list[SignedPerm] = [()]  # the empty permutation is in every downset
    for level in _closure(perms):
        members.extend(engine.to_tuples(level[engine.compact_mask(level)]))
        del level  # before the next level is built
    return frozenset(members)


def closure_histogram(perms: Iterable[SignedPerm]) -> LengthHistogram:
    """
    Length histogram of `complete_and_compact(perms)` without materializing
    the set; this is the memory-friendly path for large distance classes.
    """
    from . import engine

    counts: dict[int, int] = {}
    for level in _closure(perms):
        count = int(engine.compact_mask(level).sum())
        if count:
            counts[level.shape[1]] = count
        del level  # before the next level is built
    return LengthHistogram(counts, True)


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
    from .perm import compactify

    if len(sigma) == 0:
        return () in members
    return compactify(sigma)[0] in members


# ---------------------------------------------------------------------------
# PermSet text format: one canonical-encoded permutation per line; the empty
# permutation is an empty line and may appear only first.  Readers accept
# the other lines in any order.  `permset_to_lines` sorts them by (length,
# encoded line), so `downset` output stays byte-identical.


def permset_to_lines(members: Iterable[SignedPerm]) -> list[str]:
    from .perm import format_perm

    encoded = [format_perm(p) for p in set(members)]
    return sorted(encoded, key=lambda s: (len(s.split()), s))


def permset_from_lines(lines: Iterable[str]) -> PermSet:
    from .perm import parse_perm

    members: set[SignedPerm] = set()
    for lineno, text in enumerate(lines, start=1):
        try:
            p = parse_perm(text)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        if not p and lineno != 1:
            raise ValueError(f"line {lineno}: empty line (the empty permutation) is permitted only as the first line")
        members.add(p)
    return frozenset(members)
