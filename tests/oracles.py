"""
Independent brute-force oracles for the test suite.

Everything here recomputes results from first principles (exhaustive
subsequences, exhaustive inflation vectors, iterative-deepening search)
and deliberately avoids the library's own algorithms, so that agreement
between the two is evidence rather than tautology.
"""
from __future__ import annotations

import itertools

from signedgrids.perm import (
    SignedPerm,
    block_reversal,
    identity,
    inflate,
    prefix_reversal,
    standardize,
)


def compositions(total: int, parts: int, minimum: int = 0):
    """All vectors of length `parts` with entries >= minimum summing to total."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(minimum, total - minimum * (parts - 1) + 1):
        for rest in compositions(total - first, parts - 1, minimum):
            yield (first,) + rest


def downset_bruteforce(sigma: SignedPerm) -> set[SignedPerm]:
    """Standardizations of all subsequences of sigma."""
    out: set[SignedPerm] = set()
    for r in range(len(sigma) + 1):
        for subset in itertools.combinations(sigma, r):
            out.add(standardize(subset))
    return out


def all_fillings(sigma: SignedPerm) -> list[tuple[SignedPerm, tuple[int, ...]]]:
    """
    Every pair (core, vector) with all-positive vector whose inflation is
    sigma, found by trying all ways to cut sigma into consecutive blocks.
    """
    if not sigma:
        return [((), ())]
    found = []
    m = len(sigma)
    # A cut pattern is a subset of the m-1 gaps; blocks must be runs of
    # consecutive values stepping by +1 for the inflation to reproduce sigma.
    for gaps in itertools.product((False, True), repeat=m - 1):
        blocks = []
        start = 0
        for i, cut in enumerate(gaps, start=1):
            if cut:
                blocks.append(sigma[start:i])
                start = i
        blocks.append(sigma[start:])
        if any(b[t + 1] - b[t] != 1 for b in blocks for t in range(len(b) - 1)):
            continue
        core = standardize(tuple(b[0] for b in blocks))
        vec = tuple(len(b) for b in blocks)
        if inflate(core, vec) == sigma:
            found.append((core, vec))
    return found


def grid_count_bruteforce(members, n: int) -> int:
    """|Grid(members) intersect B_n| by exhaustive inflation."""
    seen: set[SignedPerm] = set()
    for pi in members:
        if len(pi) == 0:
            continue
        for vec in compositions(n, len(pi)):
            seen.add(inflate(pi, vec))
    return len(seen)


def pancake_neighbors(p: SignedPerm) -> list[SignedPerm]:
    return [tuple(-x for x in p[i::-1]) + p[i + 1 :] for i in range(len(p))]


def reversal_neighbors(p: SignedPerm) -> list[SignedPerm]:
    out = []
    for i in range(len(p)):
        for j in range(i, len(p)):
            out.append(p[:i] + tuple(-x for x in reversed(p[i : j + 1])) + p[j + 1 :])
    return out


def pancake_flips(p: SignedPerm) -> list[SignedPerm]:
    return [prefix_reversal(p, i) for i in range(1, len(p) + 1)]


def block_reversals(p: SignedPerm) -> list[SignedPerm]:
    return [block_reversal(p, i, j) for i in range(1, len(p) + 1) for j in range(i, len(p) + 1)]


def tuple_bfs_layers(n: int, neighbors) -> tuple[int, ...]:
    """Layer sizes of B_n by plain breadth-first search from the identity,
    one tuple at a time, remembering every state seen."""
    seen = {identity(n)}
    layer = [identity(n)]
    counts = []
    while layer:
        counts.append(len(layer))
        following = []
        for p in layer:
            for q in neighbors(p):
                if q not in seen:
                    seen.add(q)
                    following.append(q)
        layer = following
    return tuple(counts)


def iddfs_distance(start: SignedPerm, neighbors, max_depth: int = 16) -> int:
    """
    Sorting distance by iterative deepening from `start` to the identity.
    Prunes only the immediate re-application of the same move (all
    generators are involutions).
    """
    goal = identity(len(start))

    def dfs(p: SignedPerm, depth: int, last: int) -> bool:
        if p == goal:
            return True
        if depth == 0:
            return False
        for move, q in enumerate(neighbors(p)):
            if move == last:
                continue
            if dfs(q, depth - 1, move):
                return True
        return False

    for d in range(max_depth + 1):
        if dfs(start, d, -1):
            return d
    raise AssertionError(f"no sorting sequence of length <= {max_depth} for {start}")


def bfs_sorting_moves(pi: SignedPerm, family_neighbors) -> list:
    """
    A shortest sorting move list for pi found by BFS from the identity
    (moves are self-inverse, so the path reverses).  For the pancake
    family moves are flip sizes; for reversals they are (i, j) pairs.
    """
    n = len(pi)
    goal = identity(n)
    if pi == goal:
        return []
    parents: dict[SignedPerm, tuple[SignedPerm, object]] = {goal: (goal, None)}
    frontier = [goal]
    while frontier:
        nxt = []
        for p in frontier:
            for move, q in family_neighbors(p):
                if q not in parents:
                    parents[q] = (p, move)
                    if q == pi:
                        # Moves are involutions: retracing the discovery
                        # path from pi applies them straight back to the
                        # identity, so the collected order already sorts.
                        moves = []
                        cur = pi
                        while parents[cur][1] is not None:
                            cur, move = parents[cur]
                            moves.append(move)
                        return moves
                    nxt.append(q)
        frontier = nxt
    raise AssertionError(f"{pi} unreachable")


def pancake_moves(p: SignedPerm):
    for i in range(1, len(p) + 1):
        yield i, tuple(-x for x in p[i - 1 :: -1]) + p[i:]


def reversal_moves(p: SignedPerm):
    for i in range(1, len(p) + 1):
        for j in range(i, len(p) + 1):
            yield (i, j), p[: i - 1] + tuple(-x for x in reversed(p[i - 1 : j])) + p[j:]
