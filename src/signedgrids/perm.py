"""
Signed permutations in one-line notation and the pointwise operators on them.

A signed permutation of length n is represented by a tuple of nonzero
integers whose absolute values are exactly 1..n, e.g. ``(-2, 1, 3)``.  The
empty tuple is the signed permutation of length 0.  All functions here are
pure and positions are 1-based in every public signature.

The canonical text encoding writes the entries as space-separated signed
decimal integers (``-2 1 3``); the empty permutation encodes as the empty
string.  `format_perm` writes it; `parse_perm` reads it leniently (any
whitespace, any integer spelling) and `parse_canonical` strictly, as the
exact inverse of `format_perm`.
"""
from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Sequence

SignedPerm = tuple[int, ...]


def check_perm(entries: Iterable[int]) -> SignedPerm:
    """
    Validate and return a signed permutation as a tuple.

    Entries must be nonzero, have pairwise distinct absolute values, and
    those absolute values must be exactly 1..n.

    >>> check_perm([-2, 1, 3])
    (-2, 1, 3)
    """
    perm = tuple(entries)
    check_word(perm)
    if perm:
        values = sorted(abs(x) for x in perm)
        if values != list(range(1, len(perm) + 1)):
            raise ValueError(
                f"absolute values are not exactly 1..{len(perm)}: {perm!r}"
            )
    return perm


def check_word(entries: Sequence[int]) -> None:
    """Validate a signed word: nonzero entries, distinct absolute values."""
    seen = set()
    for x in entries:
        if x == 0:
            raise ValueError(f"zero entry in {tuple(entries)!r}")
        if abs(x) in seen:
            raise ValueError(f"repeated absolute value {abs(x)} in {tuple(entries)!r}")
        seen.add(abs(x))


def identity(n: int) -> SignedPerm:
    """
    The sorted signed permutation 1 2 ... n.

    >>> identity(3)
    (1, 2, 3)
    >>> identity(0)
    ()
    """
    if n < 0:
        raise ValueError("length must be nonnegative")
    return tuple(range(1, n + 1))


def standardize(word: Iterable[int]) -> SignedPerm:
    """
    Relabel a word of distinct-absolute-value signed integers to the unique
    order-isomorphic signed permutation.  Signs are preserved and the
    relative order of absolute values is preserved.

    >>> standardize((9, -7, 4, 3, -5))
    (5, -4, 2, 1, -3)
    """
    w = tuple(word)
    check_word(w)
    rank = {a: r for r, a in enumerate(sorted(abs(x) for x in w), start=1)}
    return tuple(rank[x] if x > 0 else -rank[-x] for x in w)


def contains(sigma: SignedPerm, pi: SignedPerm) -> bool:
    """
    True iff sigma has a subsequence order-isomorphic to pi with matching
    signs (pi occurs as a pattern in sigma).  The empty permutation is
    contained in everything.

    >>> contains((4, -1, 5, 3, -2), (3, -1, 4, -2))
    True
    >>> contains((1, 2), (-1,))
    False
    """
    k = len(pi)
    if k == 0:
        return True
    if k > len(sigma):
        return False
    return _match_from(sigma, pi, 0, [])


def _match_from(sigma: SignedPerm, pi: SignedPerm, start: int, chosen: list[int]) -> bool:
    j = len(chosen)
    if j == len(pi):
        return True
    p = pi[j]
    # Leave enough room for the remaining pattern entries.
    for i in range(start, len(sigma) - (len(pi) - j) + 1):
        s = sigma[i]
        if (s > 0) != (p > 0):
            continue
        ok = True
        for jj, ii in enumerate(chosen):
            if (abs(sigma[ii]) < abs(s)) != (abs(pi[jj]) < abs(p)):
                ok = False
                break
        if ok:
            chosen.append(i)
            if _match_from(sigma, pi, i + 1, chosen):
                return True
            chosen.pop()
    return False


def delete(pi: SignedPerm, i: int) -> SignedPerm:
    """
    Remove the entry at 1-based position i and standardize the rest.

    >>> delete((-2, 1, 3), 1)
    (1, 2)
    """
    if not 1 <= i <= len(pi):
        raise IndexError(f"position {i} out of range 1..{len(pi)}")
    a = abs(pi[i - 1])
    rest = pi[: i - 1] + pi[i:]
    return tuple(x - 1 if x > a else (x + 1 if x < -a else x) for x in rest)


def inflate(pi: SignedPerm, sizes: Sequence[int]) -> SignedPerm:
    """
    Replace each entry of pi by a monotone block of consecutive absolute
    values; block i has sizes[i] entries, all with the sign of pi(i),
    increasing in absolute value for positive entries and decreasing for
    negative ones.  Value ranges follow the relative order of |pi(i)|, so
    the result is again a signed permutation of length sum(sizes).

    >>> inflate((-1, 2), (3, 4))
    (-3, -2, -1, 4, 5, 6, 7)
    >>> inflate((2, 1, -3), (2, 3, 0))
    (4, 5, 1, 2, 3)
    """
    if len(sizes) != len(pi):
        raise ValueError(f"vector length {len(sizes)} != permutation length {len(pi)}")
    if any(v < 0 for v in sizes):
        raise ValueError("block sizes must be nonnegative")
    # Allocate consecutive value ranges to blocks in increasing |pi(i)|.
    order = sorted(range(len(pi)), key=lambda i: abs(pi[i]))
    start = [0] * len(pi)
    acc = 0
    for i in order:
        start[i] = acc
        acc += sizes[i]
    out: list[int] = []
    for i, p in enumerate(pi):
        s, v = start[i], sizes[i]
        if p > 0:
            out.extend(range(s + 1, s + v + 1))
        else:
            out.extend(range(-(s + v), -s))
    return tuple(out)


def is_compact(pi: SignedPerm) -> bool:
    """
    True iff no adjacent pair of entries differs by exactly 1 (signed
    arithmetic), i.e. pi has no interval patterned 1 2 or -2 -1.

    >>> is_compact((1, 2))
    False
    >>> is_compact((-2, 1, 3))
    True
    """
    return all(pi[i + 1] - pi[i] != 1 for i in range(len(pi) - 1))


def compactify(sigma: SignedPerm) -> tuple[SignedPerm, tuple[int, ...]]:
    """
    The unique compact permutation pi and all-positive vector v with
    inflate(pi, v) == sigma.  Maximal runs of adjacent entries with
    successive difference 1 collapse to single entries.

    >>> compactify((-3, -2, -1, 4, 5, 6))
    ((-1, 2), (3, 3))
    """
    if not sigma:
        return (), ()
    reps: list[int] = []
    sizes: list[int] = []
    run_start = 0
    for i in range(1, len(sigma) + 1):
        if i == len(sigma) or sigma[i] - sigma[i - 1] != 1:
            reps.append(sigma[run_start])
            sizes.append(i - run_start)
            run_start = i
    return standardize(reps), tuple(sizes)


def prefix_reversal(pi: SignedPerm, i: int) -> SignedPerm:
    """
    Reverse the first i entries and negate each of them (a burnt pancake
    flip).  An involution for every i.

    >>> prefix_reversal((1, 3, -2), 2)
    (-3, -1, -2)
    """
    if not 1 <= i <= len(pi):
        raise IndexError(f"flip position {i} out of range 1..{len(pi)}")
    return tuple(-x for x in pi[i - 1 :: -1]) + pi[i:]


def block_reversal(pi: SignedPerm, i: int, j: int) -> SignedPerm:
    """
    Reverse entries i..j (1-based, inclusive) and negate each of them.

    >>> block_reversal((1, 2, 3), 2, 2)
    (1, -2, 3)
    """
    if not 1 <= i <= j <= len(pi):
        raise IndexError(f"block {i}..{j} out of range 1..{len(pi)}")
    return pi[: i - 1] + tuple(-x for x in reversed(pi[i - 1 : j])) + pi[j:]


def all_perms(n: int) -> Iterator[SignedPerm]:
    """Iterate over all 2^n * n! signed permutations of length n."""
    for base in itertools.permutations(range(1, n + 1)):
        for signs in itertools.product((1, -1), repeat=n):
            yield tuple(v * s for v, s in zip(base, signs))


def parse_perm(text: str) -> SignedPerm:
    """
    Parse the canonical text encoding, e.g. ``-2 1 3``.  The empty or
    all-whitespace string parses to the empty permutation.
    """
    fields = text.split()
    if not fields:
        return ()
    try:
        entries = [int(f) for f in fields]
    except ValueError:
        raise ValueError(f"not a space-separated list of integers: {text!r}") from None
    return check_perm(entries)


def format_perm(pi: SignedPerm) -> str:
    """Canonical text encoding: space-separated signed integers."""
    return " ".join(str(x) for x in pi)


# The entry each token of the canonical text encoding stands for, one int
# object per entry value, for entries x with 1 <= |x| <= 127.
_ENTRY = {str(x): x for x in range(-127, 127 + 1) if x}


def parse_canonical(text: str) -> SignedPerm:
    """
    The exact inverse of `format_perm`: stricter than `parse_perm`, so
    ``+1``, ``01``, doubled spaces and a trailing space are rejected.
    Equal entries of any two results are one shared int object.
    """
    try:
        perm = tuple([_ENTRY[f] for f in text.split(" ")]) if text else ()
    except KeyError:
        raise ValueError(f"not a list of nonzero entries in canonical form: {text!r}") from None
    if sorted(map(abs, perm)) != list(range(1, len(perm) + 1)):
        raise ValueError(f"absolute values are not exactly 1..{len(perm)}: {text!r}")
    return perm
