"""
The array engine behind generator and downset growth and the
containment closure.

A level is a 2-D `int8` numpy array with one row per signed permutation,
its entries the signed values themselves, so every row has the same
length m.  The operators act on all rows at once with int8 arithmetic:

    rows(perms, m)        tuples of length m -> a level
    to_tuples(level)      a level -> tuples that share one int object per value
    delete_column(l, i)   `perm.delete` of entry i (0-based) from every row
    split_column(l, i)    `perm.inflate` of entry i into a monotone pair
    compact_mask(l)       `perm.is_compact` of every row
    unique_rows(parts)    the distinct rows of same-length levels
    expand(level)         the distinct single deletions of every row

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
times as long on ten million keys.  The codec is public for the BFS
oracle, which keeps its layers as sorted keys, and for `distance`, which
counts the compact rows of most downset levels from their keys:

    keys(level)               the key of every row
    from_keys(keys, m)        keys -> a level of length m
    unique_keys(parts)        the sorted distinct keys of same-length levels
    compact_count(keys, m)    the compact rows among keys, a block at a time

numpy is imported at the top of this module alone; `distance`,
`gridclass`, `oracle` and `cache` import it only inside the functions that
grow, close, search or write a set, so that `import signedgrids` and
queries answered from the store never load it.
"""
from __future__ import annotations

from typing import Iterable

import numpy as np

from .perm import SignedPerm

# Levels come from `rows` or `split_column`, which both check this limit.
MAX_LENGTH = 13

# Rows per block when a level's single deletions are keyed, and when rows
# become tuples: this bounds the temporaries whatever the level size.
_BLOCK_ROWS = 1 << 20
_TUPLE_BLOCK_ROWS = 1 << 14
# Rows per block when compact rows are counted from keys.
_COUNT_ROWS = 1 << 16

# The key layout: 5 bits per entry, each entry x but the last stored as
# x + _OFFSET.
_BITS = 5
_MASK = (1 << _BITS) - 1
_OFFSET = 16

# One int object per entry value: tuples built from these share them, where
# `tolist()` would allocate a new int for every entry below -5.
_SHARED_INTS = np.array(range(-MAX_LENGTH, MAX_LENGTH + 1), dtype=object)


def _check_length(m: int) -> None:
    """Refuse rows longer than the engine's exact-key limit."""
    if m > MAX_LENGTH:
        raise ValueError(
            f"permutations of length {m} exceed the array engine's limit of {MAX_LENGTH} entries"
        )


def rows(perms: Iterable[SignedPerm], m: int) -> np.ndarray:
    """The level holding the given permutations, all of length m, in order."""
    _check_length(m)
    listed = list(perms)
    return np.array(listed, dtype=np.int8).reshape(len(listed), m)


def to_tuples(level: np.ndarray) -> list[SignedPerm]:
    """The rows of a level as tuples whose entries are shared int objects."""
    out: list[SignedPerm] = []
    for start in range(0, len(level), _TUPLE_BLOCK_ROWS):
        block = level[start : start + _TUPLE_BLOCK_ROWS].astype(np.intp) + MAX_LENGTH
        out.extend(map(tuple, _SHARED_INTS[block].tolist()))
    return out


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
    _check_length(m + 1)
    v = level[:, i]
    a = np.abs(level[:, i : i + 1])
    widened = level + (level > a)
    widened -= level < -a
    out = np.empty((n, m + 1), dtype=np.int8)
    out[:, :i] = widened[:, :i]
    out[:, i] = v - (v < 0)
    out[:, i + 1] = v + (v > 0)
    out[:, i + 2 :] = widened[:, i + 1 :]
    return out


def compact_mask(level: np.ndarray) -> np.ndarray:
    """For every row, whether no adjacent pair of entries differs by exactly 1."""
    return ~(np.diff(level, axis=1) == 1).any(axis=1)


def keys(level: np.ndarray) -> np.ndarray:
    """The key of every row: 5 bits per entry, x + 16, and the last entry's
    sign bit."""
    n, m = level.shape
    out = np.zeros(n, dtype=np.int64)
    for j in range(m - 1):
        out <<= _BITS
        out |= level[:, j] + _OFFSET
    out <<= 1
    out |= level[:, m - 1] > 0
    return out


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


def compact_count(keys: np.ndarray, m: int) -> int:
    """The number of compact rows among keys of length-m rows, decoded one
    block of rows at a time, so no whole level is ever decoded."""
    return sum(
        int(compact_mask(from_keys(keys[start : start + _COUNT_ROWS], m)).sum())
        for start in range(0, len(keys), _COUNT_ROWS)
    )


def unique_keys(parts: Iterable[np.ndarray]) -> np.ndarray:
    """
    The sorted distinct keys of the rows of levels of one length (at least
    one level).  The parts' keys are gathered in a batch, and a batch is
    sorted, deduplicated and merged into the result once it outgrows it,
    so the temporaries stay within a few times the size of the result
    however many rows the parts hold.
    """
    return _unique(parts)[0]


def unique_rows(parts: Iterable[np.ndarray]) -> np.ndarray:
    """The distinct rows of levels of one length (at least one level), in
    lexicographic order: `unique_keys`, decoded."""
    return from_keys(*_unique(parts))


def _unique(parts: Iterable[np.ndarray]) -> tuple[np.ndarray, int]:
    """The sorted distinct keys of the parts, and their row length."""
    # the sorted, distinct result, then the batch
    runs = [np.empty(0, dtype=np.int64)]
    batched = 0
    for part in parts:
        m = part.shape[1]
        runs.append(keys(part))
        batched += len(part)
        del part
        if batched > len(runs[0]):
            _merge(runs)
            batched = 0
    if len(runs) > 1:
        _merge(runs)
    return runs[0], m


def _merge(runs: list[np.ndarray]) -> None:
    """Merge the batch `runs[1:]` into the sorted, distinct result
    `runs[0]`, leaving the new result as the one run.  The old result is
    popped before the merged run is sorted, so no frame holds it then."""
    new = np.concatenate(runs[1:])
    del runs[1:]
    new.sort()
    new = _distinct(new)
    merged = np.concatenate((runs.pop(), new))
    del new
    # two sorted runs, which the stable sort (timsort) merges in one pass
    merged.sort(kind="stable")
    runs.append(_distinct(merged))


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct values of sorted keys, in order."""
    if len(keys) < 2:
        return keys
    keep = np.empty(len(keys), dtype=bool)
    keep[0] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]


def expand(level: np.ndarray) -> np.ndarray:
    """
    The distinct single deletions of every row, in lexicographic order,
    deleted one column and one block of rows at a time.
    """
    return unique_rows(
        delete_column(level[start : start + _BLOCK_ROWS], i)
        for i in range(level.shape[1])
        for start in range(0, len(level), _BLOCK_ROWS)
    )
