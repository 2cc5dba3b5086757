"""
Output checks for the benchmark, computed apart from the program.

Nothing here imports `signedgrids`.  The references are:

- a tuple-based breadth-first search over B_n for both families (n <= 6);
- the published coefficient arrays in `tests/tables.py`, read as literals;
- properties every distance polynomial must have;
- an iterative-deepening search with a breakpoint lower bound, which
  proves that a sampled generator is within k moves of sorted.

Every check returns a list of problems; an empty list means it passed.
"""
from __future__ import annotations

import ast
import json
import re
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

FAMILIES = ("pancake", "reversal")
BFS_N_MAX = 6


# ---------------------------------------------------------------------------
# Independent BFS


def _moves(family: str, n: int) -> list[tuple[int, int]]:
    """Half-open spans [i, j) that one move reverses and negates."""
    if family == "pancake":
        return [(0, j) for j in range(1, n + 1)]
    return [(i, j) for i in range(n) for j in range(i + 1, n + 1)]


def bfs_layers(n: int, family: str) -> tuple[int, ...]:
    """Layer sizes of B_n by distance from the identity, on plain tuples."""
    moves = _moves(family, n)
    start = tuple(range(1, n + 1))
    seen = {start}
    frontier = [start]
    layers = [1]
    while True:
        nxt = []
        for p in frontier:
            for i, j in moves:
                q = p[:i] + tuple(-x for x in p[i:j][::-1]) + p[j:]
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        if not nxt:
            return tuple(layers)
        layers.append(len(nxt))
        frontier = nxt


class Reference:
    """Published polynomials plus independent BFS layers, built once per run."""

    def __init__(self, tables_path: Path, families=FAMILIES):
        self.published = read_published(tables_path)
        self.layers = {
            f: {n: bfs_layers(n, f) for n in range(1, BFS_N_MAX + 1)} for f in families
        }

    def at_most(self, family: str, k: int) -> list[Fraction]:
        """Published P_k; P_0 = 1 counts the identity alone."""
        return [Fraction(1)] if k == 0 else self.published[family][k]

    def exact(self, family: str, k: int) -> list[Fraction]:
        return poly_sub(self.at_most(family, k), self.at_most(family, k - 1))


# ---------------------------------------------------------------------------
# Published tables


def _literal_coeff(node: ast.expr) -> Fraction:
    value = ast.literal_eval(node)
    return Fraction(*value) if isinstance(value, tuple) else Fraction(value)


def read_published(tables_path: Path) -> dict[str, dict[int, list[Fraction]]]:
    """The coefficient arrays of tests/tables.py, parsed without importing it."""
    tree = ast.parse(Path(tables_path).read_text())
    names = {"PANCAKE_AT_MOST": "pancake", "REVERSAL_AT_MOST": "reversal"}
    out: dict[str, dict[int, list[Fraction]]] = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            family = names.get(node.targets[0].id)
            if family is None:
                continue
            out[family] = {
                ast.literal_eval(key): trim([_literal_coeff(a) for a in call.args])
                for key, call in zip(node.value.keys, node.value.values)
            }
    if set(out) != set(names.values()):
        raise ValueError(f"{tables_path}: published tables not found")
    return out


# ---------------------------------------------------------------------------
# Polynomial arithmetic on ascending coefficient lists


def trim(coeffs: list[Fraction]) -> list[Fraction]:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def poly_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    width = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (width - len(a))
    b = list(b) + [Fraction(0)] * (width - len(b))
    return trim([x - y for x, y in zip(a, b)])


def evaluate(coeffs: list[Fraction], n: int) -> Fraction:
    return sum((c * n**i for i, c in enumerate(coeffs)), Fraction(0))


def signed_count(n: int) -> int:
    return 2**n * factorial(n)


# ---------------------------------------------------------------------------
# Parsers for the CLI's output formats


def parse_coeff_array(text: str) -> list[Fraction]:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError(f"not a coefficient array: {text!r}")
    body = text[1:-1].strip()
    return [Fraction(t.strip()) for t in body.split(",")] if body else []


def parse_json_poly(text: str) -> list[Fraction]:
    obj = json.loads(text)
    if obj.get("basis") != "monomial" or obj.get("valid_for") != "n>=1":
        raise ValueError(f"unexpected JSON polynomial header: {text!r}")
    return [Fraction(c) for c in obj["coeffs"]]


_LATEX_TERM = re.compile(r"(?:\\frac\{(\d+)\}\{(\d+)\}|(\d+))?(?: ?n(?:\^\{(\d+)\})?)?")


def parse_latex(text: str) -> list[Fraction]:
    text = text.strip()
    if text == "0":
        return []
    parts = re.split(r" ([+-]) ", text)
    first = parts[0]
    terms = [(-1 if first.startswith("-") else 1, first.lstrip("-"))]
    terms += [(1 if s == "+" else -1, t) for s, t in zip(parts[1::2], parts[2::2])]
    coeffs: dict[int, Fraction] = {}
    for sign, term in terms:
        m = _LATEX_TERM.fullmatch(term)
        if not term or m is None:
            raise ValueError(f"unparsable LaTeX term {term!r} in {text!r}")
        num, den, whole, power = m.groups()
        has_var = "n" in term
        mag = Fraction(int(num), int(den)) if num else Fraction(int(whole) if whole else 1)
        degree = int(power) if power else (1 if has_var else 0)
        if degree in coeffs:
            raise ValueError(f"repeated degree {degree} in {text!r}")
        coeffs[degree] = sign * mag
    return trim([coeffs.get(i, Fraction(0)) for i in range(max(coeffs) + 1)])


def parse_poly(text: str, fmt: str) -> list[Fraction]:
    return {"text": parse_coeff_array, "json": parse_json_poly, "latex": parse_latex}[fmt](text)


# ---------------------------------------------------------------------------
# Checks


def check_at_most(
    ref: Reference, family: str, k: int, coeffs: list[Fraction], prev: list[Fraction] | None = None
) -> list[str]:
    """P_k (distance at most k): published values, BFS, and required properties."""
    problems = []
    tag = f"{family} P_{k}"
    if coeffs != ref.at_most(family, k):
        problems.append(f"{tag}: coefficients differ from the published array")
    degree = len(coeffs) - 1
    for n in range(1, max(degree + 1, BFS_N_MAX + 1) + 1):
        v = evaluate(coeffs, n)
        if v.denominator != 1:
            problems.append(f"{tag}: non-integer value {v} at n={n}")
            continue
        if not 0 <= v <= signed_count(n):
            problems.append(f"{tag}: value {v} at n={n} outside [0, 2^n n!]")
        layers = ref.layers.get(family, {}).get(n)
        if layers is not None:
            if v != sum(layers[: k + 1]):
                problems.append(f"{tag}: value {v} at n={n} != BFS count {sum(layers[: k + 1])}")
            if k >= len(layers) - 1 and v != signed_count(n):
                problems.append(f"{tag}: k >= diameter of B_{n} but P_k({n}) = {v}")
    if k >= 1:
        prev = ref.at_most(family, k - 1) if prev is None else prev
        for n in range(1, degree + 2):
            if evaluate(prev, n) > evaluate(coeffs, n):
                problems.append(f"{tag}: P_{k - 1}({n}) > P_{k}({n})")
    if family == "pancake" and (not coeffs or coeffs[-1] != 1):
        problems.append(f"{tag}: leading coefficient is not 1")
    return problems


def check_exact(ref: Reference, family: str, k: int, coeffs: list[Fraction]) -> list[str]:
    """P_k - P_{k-1} (distance exactly k)."""
    problems = []
    tag = f"{family} exact-{k}"
    if coeffs != ref.exact(family, k):
        problems.append(f"{tag}: coefficients differ from the published difference")
    for n, layers in ref.layers.get(family, {}).items():
        v = evaluate(coeffs, n)
        want = layers[k] if k < len(layers) else 0
        if v != want:
            problems.append(f"{tag}: value {v} at n={n} != BFS layer size {want}")
    return problems


def check_value(ref: Reference, family: str, k: int, exact: bool, n: int, text: str) -> list[str]:
    """An `--eval N` output: one integer, the published polynomial at N."""
    want = evaluate(ref.exact(family, k) if exact else ref.at_most(family, k), n)
    if want.denominator != 1 or text.strip() != str(want.numerator):
        return [f"{family} k={k} eval {n}: printed {text.strip()!r}, expected {want}"]
    return []


def histogram_poly(counts: dict[int, int], degree: int) -> list[Fraction]:
    """Values sum_m c_m C(n-1, m-1) at n = 1..degree+1 (the binomial basis)."""
    return [sum(c * comb(n - 1, m - 1) for m, c in counts.items()) for n in range(1, degree + 2)]


def check_histogram(family: str, k: int, counts: dict[int, int], coeffs: list[Fraction], pi_size: int | None) -> list[str]:
    """A compact-representative histogram must give the polynomial printed with it."""
    problems = []
    tag = f"{family} S_{k}"
    degree = max(len(coeffs) - 1, max(counts, default=1) - 1)
    if histogram_poly(counts, degree) != [evaluate(coeffs, n) for n in range(1, degree + 2)]:
        problems.append(f"{tag}: histogram does not give the printed polynomial")
    if pi_size is not None:
        top = max(counts, default=0)
        want_top = k + 1 if family == "pancake" else 2 * k + 1
        if top != want_top:
            problems.append(f"{tag}: longest representative has length {top}, expected {want_top}")
        elif family == "pancake" and counts[top] != pi_size:
            problems.append(f"{tag}: {counts[top]} top-length representatives but |Pi_{k}| = {pi_size}")
        elif counts[top] > pi_size:
            problems.append(f"{tag}: more top-length representatives than |Pi_{k}| = {pi_size}")
    return problems


def check_bfs_layers(ref: Reference, family: str, n: int, layers: list[int]) -> list[str]:
    """A full BFS histogram from the program's oracle."""
    problems = []
    tag = f"{family} BFS n={n}"
    if sum(layers) != signed_count(n):
        problems.append(f"{tag}: layers sum to {sum(layers)}, not 2^n n! = {signed_count(n)}")
    if layers[:1] != [1]:
        problems.append(f"{tag}: distance 0 holds {layers[:1]}, not the identity alone")
    want1 = n if family == "pancake" else n * (n + 1) // 2
    if len(layers) < 2 or layers[1] != want1:
        problems.append(f"{tag}: distance 1 does not hold {want1} states")
    indep = ref.layers.get(family, {}).get(n)
    if indep is not None and tuple(layers) != indep:
        problems.append(f"{tag}: layers differ from the independent BFS")
    return problems


_VERIFY_ROW = re.compile(r"n=(\d+) k=(\d+) polynomial=(\d+) bfs=(\d+) (ok|MISMATCH)")


def check_verify(ref: Reference, family: str, k_max: int, n_max: int, text: str) -> list[str]:
    """The table printed by `signedgrids verify`."""
    lines = text.splitlines()
    if not lines or lines[0] != f"family={family}":
        return [f"verify {family}: missing family line"]
    rows = {}
    for line in lines[1:-1]:
        m = _VERIFY_ROW.fullmatch(line)
        if m is None:
            return [f"verify {family}: unparsable row {line!r}"]
        n, k, pv, bv = (int(x) for x in m.groups()[:4])
        rows[n, k] = (pv, bv, m.group(5))
    want_rows = [(n, k) for n in range(1, n_max + 1) for k in range(k_max + 1)]
    if list(rows) != want_rows:
        return [f"verify {family}: rows are not n=1..{n_max} x k=0..{k_max} in order"]
    problems = []
    if lines[-1] != f"RESULT: all {len(want_rows)} pairs match":
        problems.append(f"verify {family}: last line {lines[-1]!r}")
    for (n, k), (pv, bv, status) in rows.items():
        published = evaluate(ref.at_most(family, k), n)
        if pv != published or bv != published or status != "ok":
            problems.append(f"verify {family} n={n} k={k}: {pv}/{bv} != published {published}")
    for n in range(1, n_max + 1):
        within = [rows[n, k][1] for k in range(k_max + 1)]
        layers = [within[0]] + [b - a for a, b in zip(within, within[1:])]
        if within[0] != 1:
            problems.append(f"verify {family} n={n}: distance 0 holds {within[0]} states")
        want1 = n if family == "pancake" else n * (n + 1) // 2
        if k_max >= 1 and layers[1] != want1:
            problems.append(f"verify {family} n={n}: distance 1 holds {layers[1]} states, not {want1}")
        if any(x < 0 for x in layers) or within[-1] > signed_count(n):
            problems.append(f"verify {family} n={n}: counts not monotone within [0, 2^n n!]")
        indep = ref.layers.get(family, {}).get(n)
        if indep is not None:
            if within != [sum(indep[: k + 1]) for k in range(k_max + 1)]:
                problems.append(f"verify {family} n={n}: BFS column differs from the independent BFS")
            if k_max >= len(indep) - 1 and within[-1] != signed_count(n):
                problems.append(f"verify {family} n={n}: k-max reaches the diameter but not 2^n n!")
    return problems


# ---------------------------------------------------------------------------
# Distance bound by iterative deepening with a breakpoint lower bound


def within_moves(p: tuple[int, ...], family: str, k: int) -> bool:
    """
    True iff p is sortable in at most k moves of the family.  A prefix
    reversal changes one adjacency of p framed by n+1 below; a block
    reversal changes two of p framed by 0 and n+1.  So the breakpoint
    count, halved for block reversals, is an admissible bound.
    """
    n = len(p)
    if family == "pancake":
        f = list(p) + [n + 1]
        per_move = 1
        spans = [(0, j) for j in range(1, n + 1)]
    else:
        f = [0] + list(p) + [n + 1]
        per_move = 2
        spans = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 2)]

    def bound(b: int) -> int:
        return -(-b // per_move)

    def breaks(g: list[int]) -> int:
        return sum(1 for a, b in zip(g, g[1:]) if b - a != 1)

    def search(g: list[int], b: int, depth: int) -> bool:
        if b == 0:
            return True
        for i, j in spans:
            # reversing g[i:j] changes only the pairs (i-1, i) and (j-1, j)
            left = g[i - 1] if i else None
            old = (left is not None and g[i] - left != 1) + (g[j] - g[j - 1] != 1)
            new = (left is not None and -g[j - 1] - left != 1) + (g[j] + g[i] != 1)
            nb = b - old + new
            if bound(nb) <= depth - 1:
                h = g[:i] + [-x for x in g[i:j][::-1]] + g[j:]
                if search(h, nb, depth - 1):
                    return True
        return False

    b0 = breaks(f)
    return bound(b0) <= k and search(f, b0, k)
