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

This module holds the whole pipeline, Pi_k -> closure -> histogram ->
polynomial, and `distance_histogram` is the only function that reads or
writes the on-disk store (`cache`).  Pi_k is always grown from Pi_0: the
store's `pi_k.perms` is an export, never read back.  Growth works on the
packed byte encoding through the primitives of `perm` and never decodes
it itself.
"""
from __future__ import annotations

import enum
from pathlib import Path
from typing import Sequence

from . import cache, gridclass, poly
from .perm import (
    NEGATE_TABLE,
    SignedPerm,
    block_reversal,
    identity,
    inflate,
    pack_perm,
    prefix_reversal,
    split_packed,
    unpack_perm,
)


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


def _grow(level: set[bytes], family: Family) -> set[bytes]:
    """
    One recursion step: split a block at each of two cuts and reverse the
    segment between them.  For reversals the left cut follows a split of
    entry i; for pancakes it is pinned at position 0, with no first split.
    """
    out: set[bytes] = set()
    add = out.add
    for b in level:
        if family is Family.PANCAKE:
            starts = [(b, 0)]
        else:
            starts = [(split_packed(b, i), i + 1) for i in range(len(b))]
        # For reversals, j == s is the second half of the block split at
        # the left cut, so splitting it again gives a block of three.
        for once, s in starts:
            for j in range(s, len(once)):
                twice = split_packed(once, j)
                add(twice[:s] + twice[s : j + 1].translate(NEGATE_TABLE)[::-1] + twice[j + 1 :])
    return out


def generator_set(family: Family, k: int) -> set[bytes]:
    """Pi_k in the packed encoding, grown from Pi_0; no file is read or written."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    level = {pack_perm((1,))}
    for _ in range(k):
        level = _grow(level, family)
    return level


def pancake_pi(k: int) -> gridclass.PermSet:
    """
    Generator set for prefix-reversal distance <= k: Pi_0 = {1} and
    Pi_{k+1} = { f_i(pi inflated by e_i + 1) : pi in Pi_k, 1 <= i <= len(pi) }.
    Every member has length k+1.
    """
    return frozenset(unpack_perm(b) for b in generator_set(Family.PANCAKE, k))


def reversal_pi(k: int) -> gridclass.PermSet:
    """
    Generator set for block-reversal distance <= k: Pi_0 = {1} and
    Pi_{k+1} = { b_{i+1,j+1}(pi inflated by e_i + e_j + 1) :
                 pi in Pi_k, 1 <= i <= j <= len(pi) }.
    Every member has length 2k+1.
    """
    return frozenset(unpack_perm(b) for b in generator_set(Family.REVERSAL, k))


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
        generators = [generator_set(family, k)]
        size = len(generators[0])
        if path is not None and k >= 1:
            cache.write_packed(cache.pi_path(cache_dir, family, k), generators[0])
        # pop() leaves no name here bound to Pi_k, so the closure can free
        # it once its levels are seeded.
        hist = gridclass.closure_histogram_packed(generators.pop())
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
    return poly.from_histogram(distance_histogram(family, k, cache_dir).counts)


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
