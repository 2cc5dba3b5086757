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
histogram; `generator_count` reads it there, and every histogram, computed
or read from the store, is checked against that longest length.

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
level of D_k is Pi_k itself.  Every D_j is grown whole up to D_{k-1}; D_k
is built top-down, and each of its levels is counted and dropped, as is
each level of D_{k-1} once the level of D_k of its length is built.

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

# Candidate rows per part that `_reverse_segments` hands to `engine.unique_rows`.
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


def _grow(level: np.ndarray, family: Family) -> np.ndarray:
    """
    One recursion step on an `engine` level: split a block at each of two
    cuts and reverse the segment between them, for every row at once.  For
    reversals both cuts sit inside split entries; for pancakes the left cut
    is pinned at position 0, with no first split.
    """
    from . import engine

    return engine.unique_rows(_split_moves(level, family, _MAX_INSIDE[family]))


def _downset_level(below: dict[int, np.ndarray], m: int, family: Family) -> np.ndarray:
    """D_k(m) from the levels of D_{k-1} (length -> level): the union of
    M_c(D_{k-1}(m - c)) over the cuts c that can sit inside a split entry."""
    from . import engine

    parts = (_split_moves(below[m - c], family, c) for c in range(_MAX_INSIDE[family] + 1) if m - c in below)
    return engine.unique_rows(part for moved in parts for part in moved)


def _step(below: dict[int, np.ndarray], family: Family) -> Iterator[np.ndarray]:
    """
    The levels of D_k, longest first, from those of D_{k-1}: first Pi_k,
    grown from the top level of D_{k-1}, then D_k(m) for every shorter m.
    Each level of `below` is removed as soon as the level of D_k of its
    length is built, and no level is held here once it is yielded.
    """
    top = max(below)
    yield _grow(below[top], family)
    for m in range(top + _MAX_INSIDE[family] - 1, 0, -1):
        # a list emptied by the yield, so this frame holds no reference
        built = [_downset_level(below, m, family)]
        below.pop(m, None)
        yield built.pop()


def _downset(family: Family, k: int) -> Iterator[np.ndarray]:
    """
    The levels of the downset of Pi_k, longest first, Pi_k itself the
    first.  D_0 = {1}, and each D_j is grown whole from D_{j-1} except
    D_k, which is built one level at a time as it is consumed.
    """
    from . import engine

    levels: Iterator[np.ndarray] = iter([engine.rows([(1,)], 1)])
    for _ in range(k):
        levels = _step({level.shape[1]: level for level in levels}, family)
    return levels


def generator_set(family: Family, k: int) -> np.ndarray:
    """Pi_k as an `engine` level, grown from Pi_0; no file is read or written."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    from . import engine

    level = engine.rows([(1,)], 1)
    for _ in range(k):
        level = _grow(level, family)
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


# In-process results, keyed by store as well: a hit must not skip the
# files a caller with a new store expects to be written.
_HIST_MEMO: dict[tuple[Family, int, Path | None], gridclass.LengthHistogram] = {}


def distance_histogram(
    family: Family, k: int, cache_dir: Path | None = None
) -> gridclass.LengthHistogram:
    """
    Length histogram of the compact representatives of the distance-<=k
    class: from memory, else from the store, else computed (and stored).
    Computing grows Pi_k and, with a store, exports it as `pi_k.perms`
    (k >= 1), a file the program never reads back.

    Every member of Pi_k is compact and of the family's generator length,
    the longest in the class, so the top length must be that length and,
    for a computed histogram, its count |Pi_k|.  A stored histogram that
    fails raises ValueError naming the file; a computed one raises
    AssertionError before it is stored.
    """
    key = (family, k, None if cache_dir is None else Path(cache_dir))
    if key in _HIST_MEMO:
        return _HIST_MEMO[key]
    path = None if cache_dir is None else cache.hist_path(cache_dir, family, k)
    if path is not None and path.exists():
        hist, size = cache.read_histogram(path), None
    else:
        export = None if path is None or k == 0 else cache.pi_path(cache_dir, family, k)
        hist, size = _computed_histogram(family, k, export)
    # A stored histogram carries no |Pi_k| of its own, so only its top
    # length is checked.
    top = max(hist.counts.items(), default=(0, 0))  # (longest length, its count)
    expected = (k + 1 if family is Family.PANCAKE else 2 * k + 1, top[1] if size is None else size)
    if top != expected:
        message = f"{family.value} k={k}: the top (length, count) is {top}, but Pi_{k} gives {expected}"
        if size is None:
            raise ValueError(f"{path}: {message}; clear the store")
        raise AssertionError(message)
    if size is not None and path is not None:
        cache.write_histogram(path, hist)
    _HIST_MEMO[key] = hist
    return hist


def _computed_histogram(family: Family, k: int, export: Path | None) -> tuple[gridclass.LengthHistogram, int]:
    """
    The compact rows of each level of the downset of Pi_k, counted as the
    levels are built and then dropped, and |Pi_k|; Pi_k, the first level,
    is written to `export` first if that is given.
    """
    from . import engine

    counts: dict[int, int] = {}
    size = 0
    # not enumerate(), whose reused result tuple would keep each level
    # alive while the next one is built
    for level in _downset(family, k):
        if not size:  # Pi_k, never empty
            size = len(level)
            if export is not None:
                cache.write_levels(export, [level])
        count = int(engine.compact_mask(level).sum())
        if count:
            counts[level.shape[1]] = count
        del level  # before the next level is built
    return gridclass.LengthHistogram(counts, True), size


def generator_count(family: Family, k: int, cache_dir: Path | None = None) -> int:
    """|Pi_k|, read as the top entry of the distance-<=k histogram."""
    counts = distance_histogram(family, k, cache_dir).counts
    return counts[max(counts)]


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
    p = poly.from_histogram(distance_histogram(family, k, cache_dir).counts)
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
