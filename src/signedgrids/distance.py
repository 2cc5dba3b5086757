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
histogram.  Only the first fact needs Pi_k itself: a computed Pi_k is
checked for it as soon as it is built, before anything is written.  The
second is a fact of the histogram, so the polynomial gate checks it on
every class, stored or computed (the degree check below).

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
(`engine.compact_count`), so no level of D_k is ever decoded whole.

Every distance class satisfies two facts that its histogram can show.
Let S be the compact members of the class, the empty permutation
epsilon included, c_m the number of length m (c_0 = 1 for epsilon), e_m
the number of length m that end in +m (e_0 = 0), and L the generator
length.  The class is closed under deleting an entry, and under
appending a new largest entry (sigma -> sigma + 1), since the moves that
sort sigma touch no position past |sigma|.  Every compact member of the
class lies in the downset of Pi_k, because inflating a compact tau by
any entry > 1 makes it non-compact, so S is what the histogram counts.
Let phi delete the last entry of a tau in S that ends in +|tau|, and
append +(|tau| + 1) to any other.  Appending keeps tau compact: the new
pair (x, |tau| + 1) differs by exactly 1 only for x = +|tau|, which is
excluded.  Deleting leaves no last entry +(|tau| - 1), since tau would
then hold the pair (|tau| - 1, |tau|).  So phi is an involution on S
with no fixed point that matches the members of length m not ending in
+m with those of length m + 1 that end in +(m + 1):

    e_m + e_{m-1} = c_{m-1}   for m = 1, ..., L + 1, with e_{L+1} = 0,

so every compact member of length L, Pi_k included, ends in +L.  Summed
with alternating signs, sum_m (-1)^m c_m = 0, and the polynomial, whose
value at n = 0 is sum_{m>=1} (-1)^(m-1) c_m, has P(0) = 1.  The walk
(`_computed_histogram`) checks the per-level identity once it has
counted every level, and `distance_class` checks P(0) = 1 and epsilon on
every histogram, stored or computed, after `check_polynomial`.  Neither
holds for an arbitrary grid class, which need not be closed under
appending a maximum (Grid({21}) has P(n) = n, so P(0) = 0), so
`gridclass` and `enumerate` check neither.

This module holds the whole pipeline, Pi_k and its downset -> histogram ->
polynomial -> store, in one entry point, `distance_class`, the only
function that reads or writes the on-disk store (`cache`).  It reads a
stored histogram, or computes one, and passes both through one gate,
`check_polynomial`, then P(0) = 1, then the BFS counts of B_1..B_7
(`check_counts`, which reads them from literals, not from a search); a
stored histogram that fails is refused naming the file, and only after
its polynomial passes is a computed class written: `pi_k.perms`
(k >= 1), Pi_k grown again by `generator_set` as an export that is never
read back, then `S_k.hist` last, so a stored histogram means both files
are whole.  Every step acts on whole `engine` levels (int8 arrays, one
row per permutation), so Pi_k is limited to `engine.MAX_LENGTH` (13)
entries, and a longer Pi_k is refused before the first growth step.
`engine`, with numpy, is loaded when Pi_k or its downset is first
computed, and `perm` on the first sorting-sequence translation, so a
query answered from the store loads neither.  The ceiling on k lives
here too.
"""
from __future__ import annotations

import enum
from math import factorial
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Sequence

from . import cache, gridclass, poly

if TYPE_CHECKING:  # numpy is loaded by `engine` on the first growth step
    import numpy as np

    from .perm import SignedPerm


class Family(enum.Enum):
    """Which generator family drives sorting distance."""

    PANCAKE = "pancake"  # prefix reversals f_i
    REVERSAL = "reversal"  # block reversals b_{i,j}

    def __str__(self) -> str:  # the value alone, as in test ids (`ids=str`)
        return self.value


DEFAULT_K_CEILING = {Family.PANCAKE: 10, Family.REVERSAL: 5}

# The BFS layer sizes of B_1..B_7 from the identity: BFS_LAYERS[family][n - 1][d]
# signed permutations of length n lie at distance exactly d.  They are
# `oracle.bfs_histogram`'s, pinned against it by a test, and kept here as
# literals so that the gate checks every polynomial against them with no
# search and no numpy.
BFS_LAYERS = {
    Family.PANCAKE: (
        (1, 1),
        (1, 2, 2, 2, 1),
        (1, 3, 6, 12, 18, 6, 2),
        (1, 4, 12, 36, 90, 124, 96, 18, 3),
        (1, 5, 20, 80, 280, 680, 1214, 1127, 389, 40, 4),
        (1, 6, 30, 150, 675, 2340, 6604, 12795, 15519, 6957, 959, 43, 1),
        (1, 7, 42, 252, 1386, 6230, 24024, 71568, 159326, 222995, 136301, 21951, 1021, 15, 1),
    ),
    Family.REVERSAL: (
        (1, 1),
        (1, 3, 3, 1),
        (1, 6, 16, 25),
        (1, 10, 50, 170, 145, 8),
        (1, 15, 120, 700, 1554, 1447, 3),
        (1, 21, 245, 2170, 8820, 19495, 15148, 180),
        (1, 28, 448, 5586, 35612, 138229, 262688, 202464, 64),
    ),
}


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

# Candidate rows per gather in `_reverse_segments`, which yields each gather
# whole; `_downset_level` hands the gathers to `engine.unique_keys`, which
# keys each in one pass per column.  A gather stays alive until the next one
# is yielded, through any merge in between.  At pancake k = 10, 2^19 rows
# took the least wall time and RSS (2-core Xeon, Python 3.11, numpy 2.4):
# 2^20 had a 2% lower tracemalloc peak but 14% more RSS, and 2^18 was
# higher on both.
_PART_ROWS = 1 << 19


def _reverse_segments(level: np.ndarray, segments: list[tuple[int, int]]) -> Iterator[np.ndarray]:
    """
    Every row of the level with each segment [a, b) of its columns reversed
    and negated, one copy per segment, as one fancy-indexed gather per
    block of rows.  Each gather is yielded whole, as its (segments, rows,
    m) stack, for `engine.keys` to key in one pass per column.  numpy lays
    the gather out as one column-major slab per segment, and the stack is
    a view of it as it lies, so every column of every slab is contiguous.
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
        yield (level[start : start + step, order] * sign).transpose(1, 0, 2)


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
    no file is read or written.  A Pi_k longer than the engine's limit
    raises ValueError before the first step."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    from . import engine

    engine.check_length(_generator_length(family, k))
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


def _computed_histogram(family: Family, k: int) -> gridclass.LengthHistogram:
    """
    The compact rows of each level of the downset of Pi_k, counted from its
    keys as the levels are built and then dropped; no level of it is
    decoded whole and no file is touched.  A Pi_k longer than the engine's
    limit raises ValueError before the first growth step.  Two facts that
    the histogram cannot show are checked here, each with an explicit
    raise of AssertionError: every member of Pi_k, the first level, is
    compact, and, once every level is counted, the per-level identity
    e_m + e_{m-1} = c_{m-1} for m = 1..L+1 (see the module docstring),
    with e_m the compact rows of length m that end in +m.  That the top
    length is L is a fact of the histogram, left to the polynomial gate.
    """
    from . import engine

    length = _generator_length(family, k)
    engine.check_length(length)
    counts, ends = {0: 1}, {0: 0}  # the empty permutation, which ends in no +0
    for m, keys in _downset(family, k):
        counts[m], ends[m] = engine.compact_count(keys, m)
        if len(counts) == 2 and counts[m] != len(keys):  # Pi_k
            raise AssertionError(f"{family.value} k={k}: Pi_{k} has {len(keys)} members, {counts[m]} of them compact")
        del keys  # before the next level is built
    ends[length + 1] = 0  # a longer level is the degree check's to refuse
    for m in range(1, length + 2):
        end, want = ends.get(m, 0), counts.get(m - 1, 0) - ends.get(m - 1, 0)
        if end != want:
            raise AssertionError(f"{family.value} k={k}: {end} compact members of length {m} end in +{m}, not {want}")
    return gridclass.LengthHistogram({m: count for m, count in counts.items() if m and count}, True)


def distance_class(
    family: Family,
    k: int,
    k_ceiling: int | None = None,
    cache_dir: Path | None = None,
) -> tuple[gridclass.LengthHistogram, poly.Polynomial]:
    """
    The length histogram of the compact representatives of the
    distance-<=k class and its polynomial, which counts signed permutations
    of length n whose sorting distance under the family is at most k, valid
    for all n >= 1.

    Raises ResourceLimitError above the ceiling (defaults: pancake 10,
    reversal 5) before any work starts; pass `k_ceiling` to raise or lower
    the guard.  The histogram is read from the store, else computed from
    the downset of Pi_k, and either passes the same gate: `check_polynomial`,
    then the empty permutation with P(0) = 1 (see the module docstring),
    then `check_counts`.
    A stored histogram that fails raises ValueError naming the file.  Only
    a computed class that passes is written to the store: Pi_k, grown
    again, as `pi_k.perms` (k >= 1), an export the program never reads
    back, and then `S_k.hist`, last.
    """
    check_k(family, k, k_ceiling)
    path = None if cache_dir is None else cache.hist_path(cache_dir, family, k)
    stored = path is not None and path.exists()
    hist = cache.read_histogram(path) if stored else _computed_histogram(family, k)
    p = poly.from_histogram(hist.counts)
    try:
        check_polynomial(family, k, p)
        if not (hist.has_epsilon and p(0) == 1):
            raise ValueError(f"{family.value} k={k}: epsilon={int(hist.has_epsilon)} and P(0) = {p(0)}, not 1 and 1")
        check_counts(family, k, p)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}; clear the store") if stored else exc
    if path is not None and not stored:
        if k:
            cache.write_levels(cache.pi_path(cache_dir, family, k), [generator_set(family, k)])
        cache.write_histogram(path, hist)
    return hist, p


def distance_polynomial(
    family: Family,
    k: int,
    k_ceiling: int | None = None,
    cache_dir: Path | None = None,
) -> poly.Polynomial:
    """The polynomial of the distance-<=k class (see `distance_class`)."""
    return distance_class(family, k, k_ceiling, cache_dir)[1]


def check_polynomial(family: Family, k: int, p: poly.Polynomial) -> None:
    """
    Raise ValueError, naming k and the check, unless p passes the cheap
    invariants of a count of signed permutations by distance (at most k, or
    exactly k): integer values at n = 1..deg+1, each within 0..2^n n!, for
    pancakes a leading coefficient of 1, and degree L - 1, where L is the
    generator length (k + 1 for pancakes, 2k + 1 for reversals).  For a
    histogram of positive counts that degree says its top length is L, the
    length of Pi_k; the difference of two classes has the larger's degree.
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
    degree = _generator_length(family, k) - 1
    if p.degree != degree:
        raise ValueError(f"{family.value} k={k}: P has degree {p.degree}, not {degree}")


def check_counts(family: Family, k: int, p: poly.Polynomial) -> None:
    """
    Raise ValueError, naming k and the first n that disagrees, unless p(n)
    is the number of signed permutations of length n at distance at most k
    from the identity for every n = 1..7, as `BFS_LAYERS` gives them.
    Compact members of length 8 and up add nothing to p(1..7), so levels
    that long go unchecked here.  The `--exact` difference P_k - P_{k-1}
    needs no check of its own: both terms passed this one, so it equals
    layer k of B_1..B_7.
    """
    for n, layers in enumerate(BFS_LAYERS[family], 1):
        want = sum(layers[: k + 1])
        if p(n) != want:
            raise ValueError(f"{family.value} k={k}: P({n}) = {p(n)}, but B_{n} has {want} at distance at most {k}")


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
    from .perm import block_reversal, prefix_reversal

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
    from .perm import identity, inflate

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
