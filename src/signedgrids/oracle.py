"""
Ground-truth distances by breadth-first search over B_n.

Both generator families consist of involutions, so distance to the sorted
permutation is symmetric and the BFS layers from the identity are exactly
the distance classes.  The search keeps its own move code, independent of
the generator growth it checks: a move is a fixed column order and a sign
vector (pancake move j reverses and negates columns [0, j), reversal move
(i, j) columns [i, j)), and a layer's images under it are
`rows[:, order] * sign` on an `engine` level.  A layer is the sorted
array of its `engine.keys`; `engine`, with numpy, is loaded only when a
search starts.  Only `verify` loads this module: a query answered from
the store never does.

One layer loop serves both searches.  `ball(n, k)` stops after layer k,
the radius-k ball around the identity, and `bfs_histogram` runs it until
B_n runs out.  `verify` compares counts only up to k_max, so it searches
each B_n to depth k_max and never builds the layers past it.  Wherever a
search runs out of states it asserts that it covered all 2^n n! of B_n;
every search also asserts that layer 1 holds one state per move, counted
from n, which a search cut short can check for free.
"""
from __future__ import annotations

from math import factorial
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from .distance import Family, ResourceLimitError, check_k, distance_classes

if TYPE_CHECKING:  # numpy is loaded only when a search starts
    import numpy as np


DEFAULT_N_CEILING = 7  # B_7 has 645120 states


def check_n(n: int, n_ceiling: int | None = None) -> None:
    """Refuse n < 1, or n above the ceiling (default 7), before any search starts."""
    if n < 1:
        raise ValueError("n must be positive")
    ceiling = DEFAULT_N_CEILING if n_ceiling is None else n_ceiling
    if n > ceiling:
        raise ResourceLimitError(
            f"n={n} exceeds the oracle ceiling of {ceiling} "
            f"({2 ** n * factorial(n)} states); raise the ceiling explicitly to proceed"
        )


class DistanceHistogram(NamedTuple):
    """BFS layer sizes: counts[d] permutations at distance exactly d."""

    n: int
    family: Family
    counts: tuple[int, ...]

    @property
    def diameter(self) -> int:
        return len(self.counts) - 1

    def within(self, k: int) -> int:
        """Number of permutations at distance <= k."""
        return sum(self.counts[: k + 1])


def _moves(n: int, family: Family) -> list[tuple[list[int], list[int]]]:
    """Every move on n entries as (column order, sign vector): the segment
    [i, j) of columns is reversed and negated, the rest left in place."""
    if family is Family.PANCAKE:
        segments = [(0, j) for j in range(1, n + 1)]
    else:
        segments = [(i, j) for i in range(n) for j in range(i + 1, n + 1)]
    return [
        (
            [*range(i), *range(j - 1, i - 1, -1), *range(j, n)],
            [1] * i + [-1] * (j - i) + [1] * (n - j),
        )
        for i, j in segments
    ]


def _members(keys: np.ndarray, layer: np.ndarray) -> np.ndarray:
    """For each key, whether it occurs in the sorted, nonempty array `layer`."""
    at = layer.searchsorted(keys)
    at.clip(None, len(layer) - 1, out=at)
    return layer[at] == keys


def ball(n: int, k: int, family: Family, n_ceiling: int | None = None) -> tuple[int, ...]:
    """
    Layer sizes of B_n from the identity for distances 0..k, fewer when
    B_n runs out first; layer k + 1 and beyond are never built.  Refuses
    n above the ceiling (default 7, i.e. 645120 states); raise it
    explicitly to go to n = 8 and beyond.  Raises AssertionError when
    layer 1 does not hold one state per move (n for pancakes, n(n+1)/2
    for reversals), and, where the search runs out of states, when it
    has not covered all 2^n n! of B_n.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    check_n(n, n_ceiling)
    from . import engine  # before numpy, which it loads with no BLAS threads

    import numpy as np

    moves = [(np.array(order), np.array(sign, dtype=np.int8)) for order, sign in _moves(n, family)]
    # Every move is an involution, so the images of layer d lie in layers
    # d-1, d and d+1: the last two layers are all the search keeps.
    layer = engine.keys(engine.rows([tuple(range(1, n + 1))], n))
    # No move fixes the identity, so it can stand in for the layer before it.
    previous = layer
    counts = [1]
    total = 2**n * factorial(n)
    # A search that counts more states than B_n holds is broken: stop it
    # rather than let it run on.
    while len(counts) <= k and sum(counts) <= total:
        rows = engine.from_keys(layer, n)
        # Every move's images, one part per move, keyed into the union's
        # one buffer of len(layer) * len(moves) keys.
        found = engine.unique_keys((rows[:, order] * sign for order, sign in moves), len(layer) * len(moves))
        del rows
        found = found[~(_members(found, layer) | _members(found, previous))]
        if not len(found):
            break
        counts.append(len(found))
        previous, layer = layer, found
    # Stopped short of depth k, the search ran out of states: it must have
    # covered all of B_n.
    if sum(counts) > total or (len(counts) <= k and sum(counts) != total):
        raise AssertionError(
            f"BFS covered {sum(counts)} of {total} states; generator application is broken"
        )
    # Counted from n, not from the move list, so a dropped move shows.
    moves_needed = n if family is Family.PANCAKE else n * (n + 1) // 2
    if len(counts) > 1 and counts[1] != moves_needed:
        raise AssertionError(
            f"BFS layer 1 of B_{n} holds {counts[1]} states, not {moves_needed}; generator application is broken"
        )
    return tuple(counts)


def bfs_histogram(n: int, family: Family, n_ceiling: int | None = None) -> DistanceHistogram:
    """
    Exact layer sizes of B_n from the identity under the family's
    generators: `ball` run until B_n runs out, so the search always
    checks that it covered all of B_n.  Refuses n above the ceiling
    (default 7, i.e. 645120 states); raise it explicitly to go to n = 8
    and beyond.
    """
    check_n(n, n_ceiling)
    # no layer lies deeper than B_n has states
    return DistanceHistogram(n, family, ball(n, 2**n * factorial(n), family, n_ceiling))


def count_within(
    n: int,
    k: int,
    family: Family,
    n_ceiling: int | None = None,
) -> int:
    """Number of length-n permutations at distance at most k."""
    return sum(ball(n, k, family, n_ceiling))


class VerifyRow(NamedTuple):
    n: int
    k: int
    polynomial_value: int
    bfs_count: int

    @property
    def match(self) -> bool:
        return self.polynomial_value == self.bfs_count


class VerifyReport(NamedTuple):
    family: Family
    rows: tuple[VerifyRow, ...]

    @property
    def all_match(self) -> bool:
        return all(r.match for r in self.rows)

    @property
    def mismatches(self) -> list[VerifyRow]:
        return [r for r in self.rows if not r.match]

    def to_table(self) -> str:
        lines = [f"family={self.family.value}"]
        for r in self.rows:
            status = "ok" if r.match else "MISMATCH"
            lines.append(
                f"n={r.n} k={r.k} polynomial={r.polynomial_value} bfs={r.bfs_count} {status}"
            )
        if self.all_match:
            lines.append(f"RESULT: all {len(self.rows)} pairs match")
        else:
            lines.append(f"RESULT: {len(self.mismatches)} of {len(self.rows)} pairs mismatch")
        return "\n".join(lines)

    def to_json(self) -> str:
        import json

        return json.dumps(
            {
                "family": self.family.value,
                "rows": [
                    {
                        "n": r.n,
                        "k": r.k,
                        "polynomial_value": r.polynomial_value,
                        "bfs_count": r.bfs_count,
                        "match": r.match,
                    }
                    for r in self.rows
                ],
                "all_match": self.all_match,
            }
        )


def verify(
    family: Family,
    k_max: int,
    n_max: int,
    k_ceiling: int | None = None,
    n_ceiling: int | None = None,
    cache_dir: Path | None = None,
) -> VerifyReport:
    """
    Compare the enumerating polynomials against BFS counts for every
    1 <= n <= n_max and 0 <= k <= k_max, each n's search cut off at
    depth k_max (`ball`).  Both ceilings are checked before anything is
    computed.  Mismatches are report content, not errors.
    """
    check_k(family, k_max, k_ceiling)
    check_n(n_max, n_ceiling)
    polys = [p for _, p in distance_classes(family, range(k_max + 1), k_ceiling, cache_dir)]
    rows = []
    for n in range(1, n_max + 1):
        layers = ball(n, k_max, family, n_ceiling)
        for k in range(k_max + 1):
            value = polys[k](n)
            if value.denominator != 1:
                raise AssertionError(f"polynomial value at n={n} is not an integer: {value}")
            rows.append(VerifyRow(n, k, int(value), sum(layers[: k + 1])))
    return VerifyReport(family, tuple(rows))
