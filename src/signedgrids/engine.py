"""
The array engine behind generator and downset growth and the
containment closure.

A level is a 2-D `int8` numpy array with one row per signed permutation,
its entries the signed values themselves, so every row has the same
length m.  The operators act on all rows at once with int8 arithmetic:

    rows(perms, m)        tuples of length m -> a level
    levels(perms)         tuples of any lengths -> {length: level}
    to_tuples(block)      one block of a level (`blocks`) -> tuples that
                          share one int object per value
    tuple_set(blocks)     the rows of many blocks -> one frozenset of
                          tuples, filled with the cyclic collector paused
    delete_column(l, i)   `perm.delete` of entry i (0-based) from every row
    split_column(l, i)    `perm.inflate` of entry i into a monotone pair
    compact_mask(l)       `perm.is_compact` of every row

Rows are compared through `int64` keys with 5 bits per entry, first entry
most significant.  Every entry but the last is stored as x + 16 (3..29
for |x| <= 13); the last is stored as its sign bit alone (1 for positive),
because its magnitude is the one that the other entries miss.  That is
5(m - 1) + 1 bits, 61 at m = MAX_LENGTH, so one layout serves every length
1..13 and keys are exact.  Key order is the lexicographic order of the
rows: two rows that agree on all but the last entry have last entries of
one magnitude, so they differ in its sign.  Keys are only compared between
rows of one length, and only rows that are signed permutations have keys.
Distinct rows come from an in-place sort of the keys and a neighbour mask,
then decoding the keys by shifts and masks; `np.unique` took over ten
times as long on ten million keys.  `unique_keys` is the engine's only
union, and a caller that needs rows decodes its keys with the length it
already has.  Its caller says how many rows the parts hold, counted from
the same lists the parts come from, so every part's keys are written
straight into one buffer, and each step of the union is one in-place
sort of it (see `unique_keys`).  The codec is public for the BFS oracle,
which keeps its layers as sorted keys, and for `distance`, `gridclass`
and `cache`.  Every level that the downset walk and the containment
closure build, Pi_k included, is sorted keys, and its rows exist only a
block of `_BLOCK_ROWS` rows at a time, decoded by `blocks` alone: each
block is grown from, deleted from or counted, or, for Pi_k and the
compact rows of a closure, turned into tuples (`to_tuples`) or written
as text (`cache.write_levels`):

    keys(level, out)          the key of every row of a level, or of a
                              stack of levels, as one flat array, written
                              into `out` if it is given
    from_keys(keys, m)        keys -> a level of length m
    chunks(array)             views of a level's rows, or of keys, a
                              block of `_BLOCK_ROWS` at a time
    blocks(keys, m)           the level of length m, a chunk of keys at a
                              time, through `from_keys`
    unique_keys(parts, rows)  the sorted distinct keys of the rows of
                              same-length levels or stacks of them, at
                              least one part, `rows` rows in all
    compact_count(keys, m)    the compact rows of the level of length m
                              with these keys, and those of them that end
                              in +m, counted a block at a time
    deletions(keys, m)        every single deletion of every row of that
                              level, a block and a column at a time, as
                              parts for the caller's union

Levels are column-major where they are made in bulk: `from_keys` and
`split_column` write them a column at a time, and `keys` reads them a
column at a time.  A stack is a (segments, rows, m) array, as the downset
walk's gathers come: `keys` takes each column of all its levels in one
pass, so a gather costs one call however many segments it holds.

`to_tuples` makes one tuple per row of a block, up to `_BLOCK_ROWS` a
call, and a set of Pi_k or of a closure's compact members has hundreds
of thousands of them.  They hold only ints and so form no cycle.
`tuple_set` is the one place that fills such a set, and the only code
that touches the cyclic collector: it pauses it across every block, and
restores its earlier state however the fill ends.  Left on, the
collector would pass over the young tuples every few hundred
allocations, and after each block over the set filled so far; those
collections took about a quarter of `reversal_pi(6)`'s time.  The
collection that falls due meanwhile runs once, at the first allocation
the collector tracks after it is switched back on, in the caller, and
finds every new tuple free of cycles.

numpy is imported at the top of this module alone; `distance`,
`gridclass`, `oracle` and `cache` import this module only inside the
functions that grow, close, search or write a set, and reach numpy only
once it is loaded.  A query answered from the store loads `cli`,
`distance`, `gridclass`, `cache` and `poly` alone: not this module, numpy,
`perm` or `oracle`.

Loading numpy loads OpenBLAS, which starts a worker thread per core that
spins for about 0.13 s of CPU although nothing here calls BLAS.  So numpy
is imported with `OPENBLAS_NUM_THREADS=1` unless the caller has set that
variable, and os.environ is put back exactly as it was once the import is
done: the process keeps one thread, and neither the caller nor a child
process sees the setting.  A caller that imports numpy first, or sets the
variable, keeps the pool it asked for.
"""
from __future__ import annotations

import gc
import os
from itertools import chain
from typing import TYPE_CHECKING, Iterable, Iterator

# numpy with no OpenBLAS worker threads, os.environ left as it was (see the
# module docstring).
_BLAS_THREADS = "OPENBLAS_NUM_THREADS"
_caller_set_blas = _BLAS_THREADS in os.environ
os.environ.setdefault(_BLAS_THREADS, "1")
try:
    import numpy as np
finally:
    if not _caller_set_blas:
        del os.environ[_BLAS_THREADS]

if TYPE_CHECKING:  # a tuple of ints; `perm` is loaded where one is parsed or printed
    from .perm import SignedPerm

# Levels come from `rows` or `split_column`, which both check this limit;
# `distance` checks it before a class's first growth step.
MAX_LENGTH = 13

# Rows per block wherever a level's keys are decoded (`blocks`): to be
# counted (`compact_count`), grown from (`distance`'s downset walk),
# deleted from (`deletions`), turned into tuples (`to_tuples`) or written
# as text (`cache.write_levels`), so no level is decoded whole; keys per
# block when `_distinct` moves the distinct keys forward; and rows per
# block when `cache.write_permset` writes a level of tuples.  Each block
# is cut by `chunks`.  The block bounds the temporaries whatever the
# level size: 2^16 rows gave the tuples of reversal Pi_6 a peak RSS of
# 69.9 MB against 59.3 MB for 2^14 (2-core Xeon, Python 3.11, numpy 2.4).
_BLOCK_ROWS = 1 << 14
# The most rows that `unique_keys` sorts at once; a larger union merges
# batches into its result.  Every union of pancake k <= 9 and reversal
# k <= 5 is one sort (the largest, pancake D_9(8), has 1,642,772 rows).
# A single sort holds all its rows' keys, a merge the result and a batch
# not much larger: 2^21 and 2^22 gave the pancake k = 10 walk the same
# peak RSS (158-159 MB) and times inside the host's noise (3.3-4.1 s
# against 3.2-3.8 s), and 2^21 kept the full reversal B_7 search 10 MB
# lower, at 54 MB against 64 (3 runs each, 2-core Xeon, Python 3.11,
# numpy 2.4).
_SORT_KEYS = 1 << 21

# The key layout: 5 bits per entry, each entry x but the last stored as
# x + _OFFSET.
_BITS = 5
_MASK = (1 << _BITS) - 1
_OFFSET = 16

# One int object per entry value: tuples built from these share them, where
# `tolist()` would allocate a new int for every entry below -5.
_SHARED_INTS = np.array(range(-MAX_LENGTH, MAX_LENGTH + 1), dtype=object)


def check_length(m: int) -> None:
    """Refuse rows longer than the engine's exact-key limit."""
    if m > MAX_LENGTH:
        raise ValueError(
            f"permutations of length {m} exceed the array engine's limit of {MAX_LENGTH} entries"
        )


def rows(perms: Iterable[SignedPerm], m: int) -> np.ndarray:
    """The level holding the given permutations, all of length m, in order.
    A row whose absolute values are not exactly 1..m raises ValueError
    naming it: the OR of 1 << |x| over a row, taken a column at a time in
    `int16`, is 2 + 4 + ... + 2^m exactly when its m entries take m
    distinct values in 1..m (numpy shifts by 16 or more, and by the
    negative |-128| of `int8`, to 0, which no mask holds)."""
    check_length(m)
    listed = list(perms)
    level = np.array(listed, dtype=np.int8).reshape(len(listed), m)
    bits = np.zeros(len(level), dtype=np.int16)
    for column in level.T:
        bits |= np.left_shift(np.int16(1), np.abs(column))
    wrong = np.flatnonzero(bits != (1 << (m + 1)) - 2)
    if len(wrong):
        raise ValueError(f"absolute values are not exactly 1..{m}: {listed[wrong[0]]!r}")
    return level


def levels(perms: Iterable[SignedPerm]) -> dict[int, np.ndarray]:
    """The given permutations as one level per length: length -> level."""
    by_length: dict[int, list[SignedPerm]] = {}
    for p in perms:
        by_length.setdefault(len(p), []).append(p)
    return {m: rows(ps, m) for m, ps in by_length.items()}


def to_tuples(block: np.ndarray) -> list[SignedPerm]:
    """
    The rows of one block (`blocks`) as tuples whose entries are shared
    int objects, built by a `zip` over one list of shared ints per column.
    """
    if not block.shape[1]:
        return [()] * len(block)
    shifted = block.astype(np.intp) + MAX_LENGTH
    return list(zip(*(_SHARED_INTS[column].tolist() for column in shifted.T)))


def tuple_set(blocks: Iterable[np.ndarray]) -> frozenset[SignedPerm]:
    """
    The rows of the given blocks as one frozenset of tuples (`to_tuples`
    per block), filled with the cyclic collector paused across every
    block (see the module docstring).  The collector is left as it was
    found, also when the fill raises, and nothing it tracks is allocated
    once it is back on.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return frozenset(chain.from_iterable(map(to_tuples, blocks)))
    finally:
        if enabled:
            gc.enable()


def delete_column(level: np.ndarray, i: int) -> np.ndarray:
    """Remove entry i (0-based) of every row and renumber the rest: entries
    whose absolute value is above that of the removed one move one step
    towards zero."""
    a = np.abs(level[:, i : i + 1])
    rest = np.delete(level, i, axis=1)
    rest -= rest > a
    rest += rest < -a
    return rest


def split_column(level: np.ndarray, i: int) -> np.ndarray:
    """Inflate entry i (0-based) of every row into a monotone pair of its
    sign: entries above it in absolute value move one step away from zero
    to make room, and v becomes v, v+1 (positive) or v-1, v (negative)."""
    n, m = level.shape
    check_length(m + 1)
    v = level[:, i]
    a = np.abs(level[:, i : i + 1])
    widened = level + (level > a)
    widened -= level < -a
    out = np.empty((n, m + 1), dtype=np.int8, order="F")  # written a column at a time
    out[:, :i] = widened[:, :i]
    out[:, i] = v - (v < 0)
    out[:, i + 1] = v + (v > 0)
    out[:, i + 2 :] = widened[:, i + 1 :]
    return out


def compact_mask(level: np.ndarray) -> np.ndarray:
    """For every row, whether no adjacent pair of entries differs by exactly 1."""
    return ~(np.diff(level, axis=1) == 1).any(axis=1)


def keys(level: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The key of every row of a level, or of a stack of same-length
    levels with the entries along its last axis, as one flat array, a
    stack level by level: 5 bits per entry, x + 16, and the last entry's
    sign bit.  The keys are written into `out`, a flat contiguous `int64`
    array of one key per row, when it is given, and that is returned."""
    *lead, m = level.shape
    out = np.empty(lead, dtype=np.int64) if out is None else out.reshape(lead)
    out[...] = level[..., 0] + _OFFSET if m > 1 else 0
    for j in range(1, m - 1):
        out <<= _BITS
        out |= level[..., j] + _OFFSET
    out <<= 1
    out |= level[..., -1] > 0
    return out.reshape(-1)


def from_keys(keys: np.ndarray, m: int) -> np.ndarray:
    """Decode keys into a level of length m, stored column by column."""
    columns = np.empty((m, len(keys)), dtype=np.int8)
    field = np.empty_like(keys)
    for j in range(m - 1):
        np.right_shift(keys, _BITS * (m - 2 - j) + 1, out=field)
        np.bitwise_and(field, _MASK, out=columns[j], casting="unsafe")
    del field
    columns[: m - 1] -= _OFFSET
    # the last entry: its sign bit, times the magnitude the others miss
    last = columns[m - 1]
    np.bitwise_and(keys, 1, out=last, casting="unsafe")
    last *= 2
    last -= 1
    last *= m * (m + 1) // 2 - np.abs(columns[: m - 1]).sum(axis=0, dtype=np.int8)
    return columns.T


def chunks(array: np.ndarray) -> Iterator[np.ndarray]:
    """Views of `array` (a level, or keys) `_BLOCK_ROWS` entries along its
    first axis at a time, the last one partial: the one block loop."""
    for start in range(0, len(array), _BLOCK_ROWS):
        yield array[start : start + _BLOCK_ROWS]


def blocks(keys: np.ndarray, m: int) -> Iterator[np.ndarray]:
    """The level of length m with these keys, decoded one block (`chunks`)
    of keys at a time, in key order: the one way a level's keys become
    rows, so no whole level is ever decoded."""
    return (from_keys(part, m) for part in chunks(keys))


def compact_count(keys: np.ndarray, m: int) -> tuple[int, int]:
    """The number of compact rows of the level of length m with these
    keys, and of those that end in +m, counted a block at a time
    (`blocks`)."""
    compact = ends = 0
    for block in blocks(keys, m):
        mask = compact_mask(block)
        compact += int(np.count_nonzero(mask))
        ends += int(np.count_nonzero(mask & (block[:, -1] == m)))
    return compact, ends


def deletions(keys: np.ndarray, m: int) -> Iterator[np.ndarray]:
    """Every single deletion of every row of the level of length m with
    these keys, one block (`blocks`) and one column at a time: m parts of
    length m - 1 per block, `len(keys) * m` rows in all, with repeats for
    the caller's union to drop."""
    for block in blocks(keys, m):
        for i in range(m):
            yield delete_column(block, i)


def unique_keys(parts: Iterable[np.ndarray], rows: int) -> np.ndarray:
    """
    The sorted distinct keys of the rows of levels of one length, at least
    one part, where a part is a level or a stack of levels (see `keys`)
    and the parts hold `rows` rows in all.  Each part's keys are written
    straight into its slice of one buffer of `rows` keys, and no part is
    held once its keys are written.  A union of at most `_SORT_KEYS` rows
    is sorted once and deduplicated once.  Past that, the buffer holds the
    sorted distinct result at its start and the batch after it, and once
    the batch outgrows the result the two are sorted together and
    deduplicated, so the buffer's pages past the largest batch are never
    touched.  Each step is one in-place sort with numpy's default sort,
    which allocates no work buffer; a stable merge of the two runs would
    allocate one of up to half their keys.  The distinct keys are moved to
    the start of the buffer, which then gives back its tail and is
    returned.  A union of no parts raises ValueError: it has no row
    length, and a caller handed an empty level would go on as if the step
    that made nothing had been right.  Parts that hold more or fewer rows
    than `rows` raise ValueError naming both counts.
    """
    parts, buffer = iter(parts), np.empty(rows, dtype=np.int64)
    count = written = result = filled = 0  # buffer[:result] is the result, buffer[result:filled] the batch
    for part in parts:
        count += 1  # not `enumerate`, whose result tuple holds the last part
        held = part.size // part.shape[-1]
        written += held
        if written > rows:
            written += sum(rest.size // rest.shape[-1] for rest in parts)
            raise ValueError(f"the parts of a union hold {written} rows, not {rows}")
        keys(part, out=buffer[filled : filled + held])
        del part
        filled += held
        if rows > _SORT_KEYS and filled - result > result:
            result = filled = _sorted_distinct(buffer[:filled])
    if not count:
        raise ValueError("a union of levels needs at least one part")
    if written != rows:
        raise ValueError(f"the parts of a union hold {written} rows, not {rows}")
    # no view of the buffer is left, so it can shrink in place
    buffer.resize(_sorted_distinct(buffer[:filled]), refcheck=False)
    return buffer


def _sorted_distinct(keys: np.ndarray) -> int:
    """Sort `keys` in place, move its distinct values to its start, and
    return how many there are."""
    keys.sort()
    return len(_distinct(keys))


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct values of sorted keys, in order, moved to the start of
    `keys` one block at a time, as a view of that start.  A block's kept
    keys land at or before the block itself, so no later block is
    touched."""
    count, last = 0, None  # the keys kept so far, and the last key read
    for block in chunks(keys):
        keep = np.empty(len(block), dtype=bool)
        keep[0] = last is None or block[0] != last
        np.not_equal(block[1:], block[:-1], out=keep[1:])
        last = block[-1]
        kept = block[keep]
        keys[count : count + len(kept)] = kept
        count += len(kept)
    return keys[:count]
