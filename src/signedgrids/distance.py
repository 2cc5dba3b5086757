"""
Generator sets for the sorting-distance classes and their polynomials.

The set of signed permutations sortable in at most k moves is a grid
class.  Its generator set Pi_k is built recursively, one move at a time,
by the same step for both families: each member of Pi_{k-1} has a block
split at each of two cuts, and the segment between the cuts is reversed
and negated, simulating one more move in every possible position.  A
burnt pancake flip f_i is the block reversal b_{1,i}, so the pancake
family is the case whose left cut is pinned at position 0 and needs no
split.

Prefix reversals (burnt pancake flips) give members of length k+1;
block reversals give members of length 2k+1.  Member counts are measured,
never assumed: `pancake_pi(k)` deduplicates at every level and callers can
take `len()` of the result.  Every member is compact and of the longest
length in its class, so |Pi_k| is the top entry of the class's length
histogram.  A computed Pi_k is checked for both as soon as it is built,
before anything is written, and a stored histogram's top length is
checked when it is read.

The class's histogram counts the compact members of the downset of Pi_k
(its members and everything they contain), and the same recursion grows
that downset one move at a time, with no deletion closure.  Let D_k(m) be
its members of length m (D_0 = {1}), and let M_c split c entries of a
permutation into monotone pairs and reverse and negate the segment between
two cuts, c of which sit between the halves of a split entry while the
rest fall between entries (empty segments included).  Restricting a member
of Pi_k to some of its entries keeps both halves of a split entry, and the
cut between them, or at most one half, which puts that cut between
entries.  So

    D_k(m) = M_0(D_{k-1}(m)) | M_1(D_{k-1}(m-1)) | M_2(D_{k-1}(m-2)),

where pancakes, whose left cut is pinned at 0, have no M_2, and the top
level of D_k is Pi_k itself, the image of Pi_{k-1} under the M_c with the
most split entries.  This one step, `_downset_level`, builds every level:
`generator_set` applies it to top levels alone, and `_downset` builds
D_1, ..., D_k in turn, each top-down from the one before, dropping each
level of D_{j-1} once the level of D_j of its length is built.  A level
leaves the merge as sorted distinct keys (`engine.unique_keys`).  Those
of D_1..D_{k-1} are decoded whole for the next step; those of D_k, Pi_k
first, are yielded one level at a time, and the histogram counts their
compact rows from the keys a block of rows at a time
(`engine.compact_count`), so no level of D_k is decoded whole except Pi_k
for the store's export.

This module holds the whole pipeline, Pi_k and its downset -> histogram ->
polynomial, and `distance_histogram` is the only function that reads or
writes the on-disk store (`cache`).  Pi_k is always grown from Pi_0: the
store's `pi_k.perms` is an export, never read back.  Every step acts on
whole `engine` levels (int8 arrays, one row per permutation), so Pi_k is
limited to `engine.MAX_LENGTH` (13) entries; numpy is loaded on the first
growth step, not on import.  Every polynomial passes `check_polynomial`
before it is returned.
"""
from __future__ import annotations

import enum
from math import factorial
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Sequence

from . import cache, gridclass, poly
from .perm import SignedPerm, block_reversal, identity, inflate, prefix_reversal

if TYPE_CHECKING:  # numpy is loaded by `engine` on the first growth step
    import numpy as np


class Family(enum.Enum):
    """Which generator family drives sorting distance."""

    PANCAKE = "pancake"  # prefix reversals f_i
    REVERSAL = "reversal"  # block reversals b_{i,j}

    def __str__(self) -> str:  # argparse-friendly
        return self.value


DEFAULT_K_CEILING = {Family.PANCAKE: 10, Family.REVERSAL: 5}


class ResourceLimitError(RuntimeError):
    """A requested computation exceeds the configured resource ceiling."""


def check_k(family: Family, k: int, k_ceiling: int | None = None) -> None:
    """Refuse a negative k, or one above the ceiling (defaults: pancake 10,
    reversal 5) before any work starts."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    ceiling = DEFAULT_K_CEILING[family] if k_ceiling is None else k_ceiling
    if k > ceiling:
        raise ResourceLimitError(
            f"k={k} exceeds the {family.value} ceiling of {ceiling}; raise it explicitly "
            f"(--k-ceiling {k}) if you intend to wait for this computation"
        )


# Cuts that a move can place inside a newly split entry: a pancake flip's
# left cut is pinned at position 0, outside every entry.
_MAX_INSIDE = {Family.PANCAKE: 1, Family.REVERSAL: 2}

# Candidate rows per part that `_reverse_segments` yields; `_downset_level`
# hands the parts to `engine.unique_keys`.
_PART_ROWS = 1 << 20


def _reverse_segments(level: np.ndarray, segments: list[tuple[int, int]]) -> Iterator[np.ndarray]:
    """
    Every row of the level with each segment [a, b) of its columns reversed
    and negated, one copy per segment, as one fancy-indexed gather per
    block of rows.
    """
    import numpy as np

    m = level.shape[1]
    order = np.tile(np.arange(m), (len(segments), 1))
    sign = np.ones((len(segments), m), dtype=np.int8)
    for s, (a, b) in enumerate(segments):
        order[s, a:b] = np.arange(b - 1, a - 1, -1)
        sign[s, a:b] = -1
    step = max(1, _PART_ROWS // len(segments))
    for start in range(0, len(level), step):
        yield (level[start : start + step, order] * sign).reshape(-1, m)


def _split_moves(level: np.ndarray, family: Family, inside: int) -> Iterator[np.ndarray]:
    """
    M_inside of an `engine` level, in parts: `inside` entries of every row
    are split into monotone pairs, and the segment between two cuts is
    reversed and negated, where exactly `inside` of the cuts sit between
    the halves of a split entry and the rest fall between entries (empty
    segments included).  For pancakes the left cut is pinned at position 0.
    """
    from . import engine

    pinned = family is Family.PANCAKE
    if inside == 0:
        m = level.shape[1]
        if pinned:
            ends = [(0, b) for b in range(m + 1)]
        else:  # one empty segment, (0, 0), stands for them all
            ends = [(0, 0)] + [(a, b) for a in range(m) for b in range(a + 1, m + 1)]
        yield from _reverse_segments(level, ends)
    elif inside == 1:
        for j in range(level.shape[1]):
            once = engine.split_column(level, j)
            t = j + 1  # the cut between the halves of entry j
            ends = [(0, t)] if pinned else [(min(b, t), max(b, t)) for b in range(once.shape[1] + 1)]
            yield from _reverse_segments(once, ends)
    else:
        # j == i + 1 is the second half of entry i, so splitting it again
        # gives a block of three.
        for i in range(level.shape[1]):
            once = engine.split_column(level, i)
            for j in range(i + 1, once.shape[1]):
                yield from _reverse_segments(engine.split_column(once, j), [(i + 1, j + 1)])


def _downset_level(below: dict[int, np.ndarray], m: int, family: Family) -> np.ndarray:
    """The sorted distinct keys of D_k(m), from the levels of D_{k-1}
    (length -> level): the union of M_c(D_{k-1}(m - c)) over the cuts c
    that can sit inside a split entry."""
    from . import engine

    parts = (_split_moves(below[m - c], family, c) for c in range(_MAX_INSIDE[family] + 1) if m - c in below)
    return engine.unique_keys(part for moved in parts for part in moved)


def _downset(family: Family, k: int) -> Iterator[tuple[int, np.ndarray]]:
    """
    The levels of D_k, the downset of Pi_k: (m, the sorted distinct keys of
    D_k(m)) for m from the length of Pi_k down to 1, so Pi_k comes first.
    D_0 = {1}.  D_k is built top-down from the levels of D_{k-1}, as this
    generator yields them one k lower, each decoded whole, and each level
    of D_{k-1} is dropped as soon as the level of D_k of its length is
    built.  No level is held here once it is yielded.
    """
    from . import engine

    if k == 0:
        yield 1, engine.keys(engine.rows([(1,)], 1))
        return
    below: dict[int, np.ndarray] = {}
    for m, keys in _downset(family, k - 1):
        below[m] = engine.from_keys(keys, m)
        del keys  # before the next level is built
    for m in range(max(below) + _MAX_INSIDE[family], 0, -1):
        # a list emptied by the yield, so this frame holds no reference
        built = [_downset_level(below, m, family)]
        below.pop(m, None)
        yield m, built.pop()


def generator_set(family: Family, k: int) -> np.ndarray:
    """Pi_k as an `engine` level, grown from Pi_0 one top level at a time;
    no file is read or written."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    from . import engine

    level = engine.rows([(1,)], 1)
    for _ in range(k):
        m = level.shape[1] + _MAX_INSIDE[family]
        level = engine.from_keys(_downset_level({level.shape[1]: level}, m, family), m)
    return level


def pancake_pi(k: int) -> gridclass.PermSet:
    """
    Generator set for prefix-reversal distance <= k: Pi_0 = {1} and
    Pi_{k+1} = { f_i(pi inflated by e_i + 1) : pi in Pi_k, 1 <= i <= len(pi) }.
    Every member has length k+1.
    """
    return _tuples(generator_set(Family.PANCAKE, k))


def reversal_pi(k: int) -> gridclass.PermSet:
    """
    Generator set for block-reversal distance <= k: Pi_0 = {1} and
    Pi_{k+1} = { b_{i+1,j+1}(pi inflated by e_i + e_j + 1) :
                 pi in Pi_k, 1 <= i <= j <= len(pi) }.
    Every member has length 2k+1.
    """
    return _tuples(generator_set(Family.REVERSAL, k))


def _tuples(level: np.ndarray) -> gridclass.PermSet:
    from . import engine

    return frozenset(engine.to_tuples(level))


def _generator_length(family: Family, k: int) -> int:
    return k + 1 if family is Family.PANCAKE else 2 * k + 1


def distance_histogram(family: Family, k: int, cache_dir: Path | None = None) -> gridclass.LengthHistogram:
    """
    Length histogram of the compact representatives of the distance-<=k
    class: read from the store, else computed (and stored).  Computing
    grows Pi_k and, with a store, exports it as `pi_k.perms` (k >= 1), a
    file the program never reads back.

    Every member of Pi_k is compact and of the family's generator length,
    the longest in the class, so a stored histogram whose top length is
    not that length raises ValueError naming the file.
    """
    if cache_dir is None:
        return _computed_histogram(family, k, None)
    path = cache.hist_path(cache_dir, family, k)
    if path.exists():
        hist = cache.read_histogram(path)
        top, length = max(hist.counts, default=0), _generator_length(family, k)
        if top != length:
            raise ValueError(f"{path}: {family.value} k={k}: the top length is {top}, not {length}; clear the store")
        return hist
    hist = _computed_histogram(family, k, None if k == 0 else cache.pi_path(cache_dir, family, k))
    cache.write_histogram(path, hist)
    return hist


def _computed_histogram(family: Family, k: int, export: Path | None) -> gridclass.LengthHistogram:
    """
    The compact rows of each level of the downset of Pi_k, counted from its
    keys as the levels are built and then dropped.  Pi_k, the first level,
    must be compact rows of the generator length, or AssertionError is
    raised before anything is written; it is decoded whole only to be
    written to `export`, if that is given.
    """
    from . import engine

    counts: dict[int, int] = {}
    for m, keys in _downset(family, k):
        counts[m] = engine.compact_count(keys, m)
        if len(counts) == 1:  # Pi_k
            length = _generator_length(family, k)
            if (m, counts[m]) != (length, len(keys)):
                found = f"{len(keys)} members of length {m}, {counts[m]} of them compact"
                raise AssertionError(f"{family.value} k={k}: Pi_{k} has {found}, not all compact of length {length}")
            if export is not None:
                cache.write_levels(export, [engine.from_keys(keys, m)])
        del keys  # before the next level is built
    return gridclass.LengthHistogram({m: count for m, count in counts.items() if count}, True)


def distance_polynomial(
    family: Family,
    k: int,
    k_ceiling: int | None = None,
    cache_dir: Path | None = None,
) -> poly.Polynomial:
    """
    The polynomial counting signed permutations of length n whose sorting
    distance under the family is at most k, valid for all n >= 1.

    Raises ResourceLimitError above the ceiling (defaults: pancake 10,
    reversal 5); pass `k_ceiling` to raise or lower the guard.
    """
    check_k(family, k, k_ceiling)
    return checked_polynomial(family, k, distance_histogram(family, k, cache_dir))


def checked_polynomial(family: Family, k: int, hist: gridclass.LengthHistogram) -> poly.Polynomial:
    """The polynomial of the distance-<=k class with histogram `hist`,
    once it passes `check_polynomial`."""
    p = poly.from_histogram(hist.counts)
    check_polynomial(family, k, p)
    return p


def check_polynomial(family: Family, k: int, p: poly.Polynomial) -> None:
    """
    Raise ValueError, naming k and the check, unless p passes the cheap
    invariants of a count of signed permutations by distance (at most k, or
    exactly k): integer values at n = 1..deg+1, each within 0..2^n n!, and
    for pancakes a leading coefficient of 1 (degree k, as in the tables).
    """
    for n in range(1, p.degree + 2):
        value = p(n)
        if value.denominator != 1:
            raise ValueError(f"{family.value} k={k}: P({n}) = {value} is not an integer")
        if not 0 <= value <= 2**n * factorial(n):
            raise ValueError(f"{family.value} k={k}: P({n}) = {value} is outside 0..2^n n! = {2**n * factorial(n)}")
    lead = p.coeffs[-1] if p else 0
    if family is Family.PANCAKE and lead != 1:
        raise ValueError(f"{family.value} k={k}: the leading coefficient of P is {lead}, not 1")


# ---------------------------------------------------------------------------
# Sorting-sequence translation.
#
# A sorting sequence for a generator-set member lifts to one of equal length
# for any inflation of it: each move's positions are translated through the
# running block-size vector, and the move is then applied to the vector
# itself.  Moves are 1-based flip positions for the pancake family and
# 1-based (i, j) pairs for the reversal family; a move whose translated span
# is empty (all relevant block sizes zero) is a no-op, encoded as position 0
# or as a pair (x, x-1).

Move = int | tuple[int, int]


def apply_move(pi: SignedPerm, family: Family, move: Move) -> SignedPerm:
    """Apply one generator (or a degenerate no-op move) to pi."""
    if family is Family.PANCAKE:
        assert isinstance(move, int)
        return pi if move == 0 else prefix_reversal(pi, move)
    i, j = move  # type: ignore[misc]
    return pi if j < i else block_reversal(pi, i, j)


def sorting_sequence(
    sigma: SignedPerm,
    family: Family,
    pi: SignedPerm,
    sizes: Sequence[int],
    moves: Sequence[Move],
) -> list[Move]:
    """
    Translate a sorting sequence of pi into one for sigma = pi inflated by
    `sizes`.  The returned sequence has the same length and sorts sigma.
    """
    if inflate(pi, sizes) != sigma:
        raise ValueError("inconsistent inputs: inflating pi by the vector does not give sigma")
    current = pi
    vec = list(sizes)
    out: list[Move] = []
    for move in moves:
        if family is Family.PANCAKE:
            if not isinstance(move, int) or not 1 <= move <= len(current):
                raise ValueError(f"move {move!r} does not apply to a permutation of length {len(current)}")
            out.append(sum(vec[:move]))
            vec[:move] = vec[:move][::-1]
        else:
            i, j = move  # type: ignore[misc]
            if not 1 <= i <= j <= len(current):
                raise ValueError(f"move {move!r} does not apply to a permutation of length {len(current)}")
            out.append((sum(vec[: i - 1]) + 1, sum(vec[:j])))
            vec[i - 1 : j] = vec[i - 1 : j][::-1]
        current = apply_move(current, family, move)
    if current != identity(len(pi)):
        raise ValueError("the given moves do not sort pi")
    return out
