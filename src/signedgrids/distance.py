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
`generator_set` applies it to top levels alone, and one walk,
`_computed_histograms`, builds D_1, ..., D_k in turn, each top-down from
the one before, dropping each level of D_{j-1} once the level of D_j of
its length is built.  The classes are nested, so that walk yields the
histogram of every class up to k.  `_split_moves` gives each M_c as
plans (columns to split, segments to reverse) for a row length.
`_downset_level` turns each plan's segments into its gather index once
per level, the column order and the sign of every segment
(`_gather_index`), and sizes the union from that index before it
gathers the parts, so the parts and the row count come from the same
index.  Every level is held in one format, the sorted distinct keys that
leave the union (`engine.unique_keys`).  `_gathers` decodes a source
level one block of rows at a time, and each plan of that level splits
its columns of the block in turn and gathers the split rows through its
index, which no block rebuilds.  Every level is counted from its keys a
block of rows at a time (`engine.compact_count`), so the walk decodes no
level whole, and neither does anything else: Pi_k stays sorted keys
(`generator_set`) until it is turned into tuples (`pancake_pi`,
`reversal_pi`) or text (the store's export), one block of
`engine.blocks` at a time.

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
(`_computed_histograms`) checks the per-level identity of each class
once it has counted every level of it, and `distance_classes` checks
P(0) = 1 and epsilon on every histogram, stored or computed, after
`check_polynomial`.  Neither holds for an arbitrary grid class, which
need not be closed under appending a maximum (Grid({21}) has P(n) = n,
so P(0) = 0), so `gridclass` and `enumerate` check neither.

This module holds the whole pipeline, Pi_k and its downset -> histogram ->
polynomial -> store, in one entry point, `distance_classes`, the only
function that reads or writes the on-disk store (`cache`).  A request
names a range of classes; it reads the stored histograms and computes
the rest in one walk to the highest k missing, and passes each through
one gate, `check_polynomial`, then P(0) = 1, then the BFS counts
(`check_counts`, which reads them from literals, not from a search).
Within the default ceilings on k those counts and P(0) = 1 (with, for
pancake k = 10, the leading coefficient) are deg + 1 conditions, so the
gate fixes every class's polynomial, and with it the histogram.  A
stored histogram that fails is refused naming the file, and only after
its polynomial passes is a computed class in the range written:
`pi_k.perms` (k >= 1), an export that is never read back, decoded a
block at a time from the keys of Pi_k that the walk kept for it, then
`S_k.hist` last, so a stored histogram means both files are whole.  The
walk keeps those keys only for the classes a store will get, so a
request with no store holds nothing extra.  Every step acts on blocks
of `engine` rows (int8 arrays, one row per permutation) and on their
keys, so Pi_k is limited to `engine.MAX_LENGTH` (13) entries, and a
longer Pi_k is refused before the first growth step.
`engine`, with numpy, is loaded when Pi_k or its downset is first
computed, and `perm` on the first sorting-sequence translation, so a
query answered from the store loads neither.  The ceiling on k lives
here too.
"""
from __future__ import annotations

import enum
from math import factorial
from pathlib import Path
from typing import TYPE_CHECKING, Collection, Iterator, Sequence

from . import cache, gridclass, poly

if TYPE_CHECKING:  # numpy is loaded by `engine` on the first growth step
    import numpy as np

    from .perm import SignedPerm

    # A part of a growth step (`_split_moves`): the columns split in turn,
    # and the segments reversed and negated.
    Plan = tuple[tuple[int, ...], list[tuple[int, int]]]
    # A plan as `_gathers` runs it: its columns, then the column order and
    # the sign of every segment (`_gather_index`).
    Gather = tuple[tuple[int, ...], np.ndarray, np.ndarray]


class Family(enum.Enum):
    """Which generator family drives sorting distance."""

    PANCAKE = "pancake"  # prefix reversals f_i
    REVERSAL = "reversal"  # block reversals b_{i,j}

    def __str__(self) -> str:  # the value alone, as in test ids (`ids=str`)
        return self.value


DEFAULT_K_CEILING = {Family.PANCAKE: 10, Family.REVERSAL: 5}

# The BFS layer sizes of B_n from the identity: BFS_LAYERS[family][n - 1][d]
# signed permutations of length n lie at distance exactly d.  The rows of
# B_1..B_7 are whole (`oracle.bfs_histogram`); those of pancake B_8, B_9 and
# reversal B_8..B_10 stop at the default ceiling on k (`oracle.ball`, 17-20 s
# and 469 MB for pancake B_9 on a 2-core Xeon).  Each is pinned against its
# search by a test and kept here as literals, so that the gate checks every
# polynomial against them with no search and no numpy.
BFS_LAYERS = {
    Family.PANCAKE: (
        (1, 1),
        (1, 2, 2, 2, 1),
        (1, 3, 6, 12, 18, 6, 2),
        (1, 4, 12, 36, 90, 124, 96, 18, 3),
        (1, 5, 20, 80, 280, 680, 1214, 1127, 389, 40, 4),
        (1, 6, 30, 150, 675, 2340, 6604, 12795, 15519, 6957, 959, 43, 1),
        (1, 7, 42, 252, 1386, 6230, 24024, 71568, 159326, 222995, 136301, 21951, 1021, 15, 1),
        (1, 8, 56, 392, 2548, 14056, 68656, 276136, 901970, 2195663, 3531887),
        (1, 9, 72, 576, 4320, 28224, 166740, 843822, 3636954, 12675375, 33773653),
    ),
    Family.REVERSAL: (
        (1, 1),
        (1, 3, 3, 1),
        (1, 6, 16, 25),
        (1, 10, 50, 170, 145, 8),
        (1, 15, 120, 700, 1554, 1447, 3),
        (1, 21, 245, 2170, 8820, 19495, 15148, 180),
        (1, 28, 448, 5586, 35612, 138229, 262688, 202464, 64),
        (1, 36, 756, 12600, 115254, 684525),
        (1, 45, 1200, 25740, 318600, 2670025),
        (1, 55, 1815, 48675, 781968, 8760653),
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

# Candidate rows per gather in `_gathers`, which yields each gather whole;
# `_downset_level` hands the gathers to `engine.unique_keys`, which keys
# each in one pass per column into its slice of the union's buffer.  A
# gather stays alive until the next one is yielded, through any merge of a
# batch in between.  A gather comes from one block of `engine.blocks`, so
# without this limit it holds that block's rows times its plan's segments,
# up to 67 segments in the reversal k = 6 walk (M_0 at length 11).  2^19
# kept that walk at 90 MB against 98-99 MB with no limit.  It cuts no
# gather of the pancake k <= 10 walks, whose plans have at most 11
# segments, and changes nothing for `reversal_pi(6)` after the reversal
# classes k <= 5 (59.5-59.7 MB either way; 3 runs each, 2-core Xeon,
# Python 3.11, numpy 2.4).
_PART_ROWS = 1 << 19


def _split_moves(m: int, family: Family, inside: int) -> Iterator[Plan]:
    """
    M_inside of rows of length m, as plans (columns, segments): the given
    columns of every row are split into monotone pairs in turn, and then
    each segment of the split rows is reversed and negated, one copy per
    segment.  Across the plans, `inside` entries of every row are split,
    and the segment between two cuts is reversed and negated, where
    exactly `inside` of the cuts sit between the halves of a split entry
    and the rest fall between entries (empty segments included).  The
    plans are those of block reversals; for pancakes they keep only the
    segments whose left cut is pinned at position 0, and a plan left with
    none is dropped.
    """
    if inside == 0:  # one empty segment, (0, 0), stands for them all
        plans = [((), [(0, 0)] + [(a, b) for a in range(m) for b in range(a + 1, m + 1)])]
    elif inside == 1:  # j + 1 is the cut between the halves of entry j
        plans = [((j,), [(min(b, j + 1), max(b, j + 1)) for b in range(m + 2)]) for j in range(m)]
    else:
        # j == i + 1 is the second half of entry i, so splitting it again
        # gives a block of three.
        plans = [((i, j), [(i + 1, j + 1)]) for i in range(m) for j in range(i + 1, m + 1)]
    for columns, segments in plans:
        segments = [(a, b) for a, b in segments if a == 0 or family is Family.REVERSAL]
        if segments:
            yield columns, segments


def _downset_level(below: dict[int, np.ndarray], m: int, family: Family) -> np.ndarray:
    """The sorted distinct keys of D_k(m), from the sorted keys of the
    levels of D_{k-1} (length -> keys): the union of M_c(D_{k-1}(m - c))
    over the cuts c that can sit inside a split entry.  Each plan of M_c
    (`_split_moves`) gets its gather index here, once per level
    (`_gather_index`), and the union is sized from the same index that
    its parts are gathered with."""
    from . import engine

    cuts = [c for c in range(_MAX_INSIDE[family] + 1) if m - c in below]
    plans = {m - c: [(columns, *_gather_index(segments, m)) for columns, segments in _split_moves(m - c, family, c)] for c in cuts}
    rows = sum(len(below[length]) * len(order) for length, moves in plans.items() for _, order, _ in moves)
    return engine.unique_keys(_gathers(below, plans), rows)


def _gather_index(segments: list[tuple[int, int]], m: int) -> tuple[np.ndarray, np.ndarray]:
    """The gather index of a plan's segments on split rows of length m:
    the column order and the sign of every segment, two (segments, m)
    arrays.  The image of a row under segment s = [a, b) takes its entry
    j from column a + b - 1 - j of the row, negated, if a <= j < b, and
    from column j as it is otherwise, so its first entry is
    sign[s, 0] * row[order[s, 0]]."""
    import numpy as np

    order = np.tile(np.arange(m), (len(segments), 1))
    sign = np.ones((len(segments), m), dtype=np.int8)
    for s, (a, b) in enumerate(segments):
        order[s, a:b] = np.arange(b - 1, a - 1, -1)
        sign[s, a:b] = -1
    return order, sign


def _gathers(below: dict[int, np.ndarray], plans: dict[int, list[Gather]]) -> Iterator[np.ndarray]:
    """The parts of the plans of each source length (length -> plans with
    their gather index), one block of source rows at a time
    (`engine.blocks`): the block is decoded once, every plan of its length
    splits its columns in turn and gathers the split rows through its
    index, `_PART_ROWS` candidate rows at a time, and the block is
    dropped.  Each gather is yielded whole, as its (segments, rows, m)
    stack, for `engine.keys` to key in one pass per column.  numpy lays
    the gather out as one column-major slab per segment, and the stack is
    a view of it as it lies, so every column of every slab is
    contiguous."""
    from . import engine

    for length, moves in plans.items():
        for block in engine.blocks(below[length], length):
            for columns, order, sign in moves:
                # The last plan's split is dropped only once this one is
                # built: dropped first, it made growing pancake Pi_10 fault
                # in 34K pages against 1.8K (glibc malloc, 2-core Xeon,
                # Python 3.11, numpy 2.4).
                split = engine.split_column(block, columns[0]) if columns else block
                for j in columns[1:]:
                    split = engine.split_column(split, j)
                step = max(1, _PART_ROWS // len(order))
                for start in range(0, len(split), step):
                    yield (split[start : start + step, order] * sign).transpose(1, 0, 2)


def generator_set(family: Family, k: int) -> np.ndarray:
    """The sorted keys of Pi_k (`engine.keys`), grown from Pi_0 one top
    level at a time; no file is read or written.  A Pi_k longer than the
    engine's limit raises ValueError before the first step."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    from . import engine

    engine.check_length(_generator_length(family, k))
    keys = engine.keys(engine.rows([(1,)], 1))
    # m runs over the lengths of Pi_1, ..., Pi_k
    for m in range(1 + _MAX_INSIDE[family], _generator_length(family, k) + 1, _MAX_INSIDE[family]):
        keys = _downset_level({m - _MAX_INSIDE[family]: keys}, m, family)
    return keys


def pancake_pi(k: int) -> gridclass.PermSet:
    """
    Generator set for prefix-reversal distance <= k: Pi_0 = {1} and
    Pi_{k+1} = { f_i(pi inflated by e_i + 1) : pi in Pi_k, 1 <= i <= len(pi) }.
    Every member has length k+1.
    """
    return _tuples(Family.PANCAKE, k)


def reversal_pi(k: int) -> gridclass.PermSet:
    """
    Generator set for block-reversal distance <= k: Pi_0 = {1} and
    Pi_{k+1} = { b_{i+1,j+1}(pi inflated by e_i + e_j + 1) :
                 pi in Pi_k, 1 <= i <= j <= len(pi) }.
    Every member has length 2k+1.
    """
    return _tuples(Family.REVERSAL, k)


def _tuples(family: Family, k: int) -> gridclass.PermSet:
    """Pi_k as tuples, decoded one block of its keys at a time
    (`engine.blocks`) and added to one set by `engine.tuple_set`, which
    pauses the cyclic collector across the fill."""
    from . import engine

    return engine.tuple_set(engine.blocks(generator_set(family, k), _generator_length(family, k)))


def _generator_length(family: Family, k: int) -> int:
    return k + 1 if family is Family.PANCAKE else 2 * k + 1


def _computed_histograms(
    family: Family, k: int, keep: Collection[int] = ()
) -> tuple[list[gridclass.LengthHistogram], dict[int, np.ndarray]]:
    """
    The histograms of classes 0..k, from one walk, and the sorted keys of
    Pi_j, the top level of D_j, for each j in `keep` (j -> keys): D_1, ...,
    D_k are built in turn as sorted keys, each top-down from the one
    before (D_0 = {1}), and the compact rows of every level are counted
    from its keys as it is built (`engine.compact_count`).  Each level of
    D_{j-1} is dropped once the level of D_j of its length is built, and
    those of D_k, Pi_k first, once counted.  Every level is decoded only a
    block of rows at a time, to be grown from or counted, so no level is
    decoded whole.  No file is touched.  A Pi_k longer than the engine's
    limit raises ValueError before the first growth step.  Two facts that
    a histogram cannot show are checked on every class, each with an
    explicit raise of AssertionError: every member of Pi_j, the first level
    of D_j, is compact, and, once every level of D_j is counted, the
    per-level identity e_m + e_{m-1} = c_{m-1} for m = 1..L+1 (see the
    module docstring), with e_m the compact rows of length m that end in
    +m.  That the top length is L is a fact of the histogram, left to the
    polynomial gate.
    """
    from . import engine

    engine.check_length(_generator_length(family, k))
    hists, below, tops = [gridclass.LengthHistogram({1: 1}, True)], {1: engine.keys(engine.rows([(1,)], 1))}, {}
    for j in range(1, k + 1):
        counts, ends, built = {0: 1}, {0: 0}, {}  # the empty permutation, which ends in no +0
        for m in range(max(below) + _MAX_INSIDE[family], 0, -1):
            keys = _downset_level(below, m, family)
            below.pop(m, None)
            counts[m], ends[m] = engine.compact_count(keys, m)
            if len(counts) == 2:  # Pi_j
                if counts[m] != len(keys):
                    raise AssertionError(f"{family.value} k={j}: Pi_{j} has {len(keys)} members, {counts[m]} of them compact")
                if j in keep:
                    tops[j] = keys
            if j < k:  # the next step grows from it
                built[m] = keys
            del keys  # before the next level is built
        below, length = built, _generator_length(family, j)
        ends[length + 1] = 0  # a longer level is the degree check's to refuse
        for m in range(1, length + 2):
            end, want = ends.get(m, 0), counts.get(m - 1, 0) - ends.get(m - 1, 0)
            if end != want:
                raise AssertionError(f"{family.value} k={j}: {end} compact members of length {m} end in +{m}, not {want}")
        hists.append(gridclass.LengthHistogram({m: count for m, count in counts.items() if m and count}, True))
    return hists, tops


def distance_classes(
    family: Family,
    ks: range,
    k_ceiling: int | None = None,
    cache_dir: Path | None = None,
) -> list[tuple[gridclass.LengthHistogram, poly.Polynomial]]:
    """
    For each k in `ks`, the length histogram of the compact representatives
    of the distance-<=k class and its polynomial, which counts signed
    permutations of length n whose sorting distance under the family is at
    most k, valid for all n >= 1.

    Raises ResourceLimitError for a k above the ceiling (defaults: pancake
    10, reversal 5) before any work starts; pass `k_ceiling` to raise or
    lower the guard.  Each histogram is read from the store, and those not
    stored come from one walk to the highest of them
    (`_computed_histograms`), which also keeps the keys of each Pi_k that
    the store will get.  Either kind passes the same gate, class by class:
    `check_polynomial`, then the empty permutation with P(0) = 1 (see the
    module docstring), then `check_counts`.  A stored histogram that fails
    raises ValueError naming the file.  Only a computed class in `ks` that
    passes is written to the store: Pi_k, decoded a block at a time from
    the keys the walk kept, as `pi_k.perms` (k >= 1), an export the
    program never reads back, and then `S_k.hist`, last.
    """
    for k in ks:
        check_k(family, k, k_ceiling)
    paths = {k: None if cache_dir is None else cache.hist_path(cache_dir, family, k) for k in ks}
    missing = [k for k, path in paths.items() if path is None or not path.exists()]
    exports = {k for k in missing if k and paths[k] is not None}  # the Pi_k a store gets
    computed, tops = _computed_histograms(family, max(missing), exports) if missing else ([], {})
    classes = []
    for k, path in paths.items():
        stored = k not in missing
        hist = cache.read_histogram(path) if stored else computed[k]
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
                from . import engine

                cache.write_levels(cache.pi_path(cache_dir, family, k), engine.blocks(tops.pop(k), _generator_length(family, k)))
            cache.write_histogram(path, hist)
        classes.append((hist, p))
    return classes


def distance_polynomial(
    family: Family,
    k: int,
    k_ceiling: int | None = None,
    cache_dir: Path | None = None,
) -> poly.Polynomial:
    """The polynomial of the distance-<=k class (see `distance_classes`)."""
    return distance_classes(family, range(k, k + 1), k_ceiling, cache_dir)[0][1]


def check_polynomial(family: Family, k: int, p: poly.Polynomial) -> None:
    """
    Raise ValueError, naming k and the check, unless p passes the cheap
    invariants of a count of signed permutations by distance (at most k, or
    exactly k): those of every count of signed permutations
    (`poly.check_counting`), for pancakes a leading coefficient of 1, and
    degree L - 1, where L is the generator length (k + 1 for pancakes,
    2k + 1 for reversals).  For a histogram of positive counts that degree
    says its top length is L, the length of Pi_k; the difference of two
    classes has the larger's degree.
    """
    poly.check_counting(p, f"{family.value} k={k}")
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
    from the identity for every n whose row of `BFS_LAYERS` holds that
    number: every n = 1..7, and n = 8 and up for k within the row, which
    reaches the default ceiling on k.  With P(0) = 1 and, for pancakes, the
    leading coefficient, that is deg + 1 conditions on every class within
    the default ceilings, so it fixes the polynomial.  The `--exact`
    difference P_k - P_{k-1} needs no check of its own: both terms passed
    this one, so it equals layer k of every B_n checked.
    """
    for n, layers in enumerate(BFS_LAYERS[family], 1):
        if k < len(layers) or sum(layers) == 2**n * factorial(n):
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
# 1-based (i, j) pairs for the reversal family; either is read as the span
# (i, j) it reverses, flip i as (1, i), and a pancake move is given back as
# its span's right end.  A move whose translated span is empty (all
# relevant block sizes zero) is a no-op, encoded as position 0 or as a pair
# (x, x-1).

Move = int | tuple[int, int]


def apply_move(pi: SignedPerm, family: Family, move: Move) -> SignedPerm:
    """Apply one generator (or a degenerate no-op move) to pi."""
    from .perm import block_reversal

    i, j = (1, move) if family is Family.PANCAKE else move  # type: ignore[misc]
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
    Each move must apply to the permutation it meets, a flip i with
    1 <= i <= length and a pair (i, j) with 1 <= i <= j <= length, and
    the moves must sort pi; otherwise ValueError is raised.
    """
    from .perm import identity, inflate

    if inflate(pi, sizes) != sigma:
        raise ValueError("inconsistent inputs: inflating pi by the vector does not give sigma")
    current = pi
    vec = list(sizes)
    out: list[Move] = []
    for move in moves:
        i, j = (1, move) if family is Family.PANCAKE else move  # type: ignore[misc]
        if not (isinstance(j, int) and 1 <= i <= j <= len(current)):  # a pair given as a flip leaves j a pair
            raise ValueError(f"move {move!r} does not apply to a permutation of length {len(current)}")
        span = sum(vec[: i - 1]) + 1, sum(vec[:j])
        out.append(span[1] if family is Family.PANCAKE else span)
        vec[i - 1 : j] = vec[i - 1 : j][::-1]
        current = apply_move(current, family, move)
    if current != identity(len(pi)):
        raise ValueError("the given moves do not sort pi")
    return out
