"""
What the workloads run: the warm-verify query batch and its checks.

Shared by the untraced runner (`run.py`, which runs these as CLI
processes) and the traced runner (`traced.py`, which mirrors them as
library calls).
"""
from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction

import checks

SAMPLE_SIZE = 16
EVAL_RANGE = (8, 20)


@dataclass(frozen=True)
class Query:
    """One `signedgrids {family} --k K` command and its output flags."""

    family: str
    k: int
    fmt: str = "text"
    exact: bool = False
    verbose: bool = False
    eval_at: int | None = None  # 0 stands for "drawn from the seed"

    @property
    def name(self) -> str:
        return " ".join(self.argv(None))

    def argv(self, cache_dir) -> list[str]:
        out = ["--cache-dir", str(cache_dir)] if cache_dir is not None else []
        if self.fmt != "text":
            out += ["--format", self.fmt]
        if self.verbose:
            out.append("--verbose")
        out += [self.family, "--k", str(self.k)]
        if self.exact:
            out.append("--exact")
        if self.eval_at is not None:
            out += ["--eval", str(self.eval_at)]
        return out

    def with_seed(self, seed: int) -> "Query":
        if self.eval_at != 0:
            return self
        return replace(self, eval_at=random.Random(f"{seed} {self.family} {self.k}").randint(*EVAL_RANGE))


# The warm-verify set-up runs these cold, in this order, into an empty
# cache; every round runs them again warm.  Together they fill S_0..S_8
# (pancake) and S_0..S_5 (reversal) and cover every output flag.
FILL = (
    Query("pancake", 0),
    Query("pancake", 1, eval_at=0),
    Query("pancake", 2, fmt="json"),
    Query("pancake", 3, fmt="latex"),
    Query("pancake", 4, exact=True),
    Query("pancake", 5, verbose=True),
    Query("pancake", 6, exact=True, eval_at=0),
    Query("pancake", 7, fmt="json", exact=True),
    Query("pancake", 8, verbose=True),
    Query("reversal", 0, fmt="latex"),
    Query("reversal", 1, eval_at=0),
    Query("reversal", 2, fmt="json", exact=True),
    Query("reversal", 3),
    Query("reversal", 4, fmt="latex", exact=True),
    Query("reversal", 5, verbose=True),
)

# (family, k-max, n-max) of the two verify commands in every warm-verify round.
ROUND_VERIFY = (("pancake", 8, 7), ("reversal", 5, 6))


def pi_sample(members: list, seed: int) -> list[list[int]]:
    """A seeded sample of a sorted generator set, for the distance check."""
    return [list(p) for p in random.Random(seed).sample(members, SAMPLE_SIZE)]


def check_pi_sample(family: str, k: int, sample: list[list[int]]) -> list[str]:
    """Sampled Pi_k members: signed permutations of the right length, within k moves."""
    length = k + 1 if family == "pancake" else 2 * k + 1
    problems = []
    for p in sample:
        if sorted(abs(x) for x in p) != list(range(1, length + 1)):
            problems.append(f"Pi_{k} member {p} is not a signed permutation of length {length}")
        elif not checks.within_moves(tuple(p), family, k):
            problems.append(f"Pi_{k} member {p} is not within {k} {family} moves of sorted")
    return problems


def check_coeffs(ref: checks.Reference, q: Query, coeffs: list[Fraction]) -> list[str]:
    if q.exact:
        return checks.check_exact(ref, q.family, q.k, coeffs)
    return checks.check_at_most(ref, q.family, q.k, coeffs)


def check_output(ref: checks.Reference, q: Query, stdout: str) -> list[str]:
    """The stdout of one distance command, against the published polynomial."""
    lines = stdout.splitlines()
    try:
        pi_size = counts = None
        if q.verbose:
            head = f"# |Pi_{q.k}| = "
            if not lines[0].startswith(head):
                return [f"{q.name}: no |Pi_k| line"]
            pi_size = int(lines[0][len(head):])
            prefix = "# |S| by length: "
            fields = dict(f.split("=") if "=" in f else f.split(":") for f in lines[1][len(prefix):].split(", "))
            counts = {int(m): int(c) for m, c in fields.items() if m != "epsilon"}
            lines = lines[2:]
        if len(lines) != 1:
            return [f"{q.name}: expected one result line, got {len(lines)}"]
        if q.eval_at is not None:
            return checks.check_value(ref, q.family, q.k, q.exact, q.eval_at, lines[0])
        coeffs = checks.parse_poly(lines[0], q.fmt)
    except (ValueError, IndexError, KeyError) as exc:
        return [f"{q.name}: unparsable output ({exc})"]
    problems = check_coeffs(ref, q, coeffs)
    if counts is not None and not q.exact:
        problems += checks.check_histogram(q.family, q.k, counts, coeffs, pi_size)
    return problems


def check_result(ref: checks.Reference, q: Query, result: dict) -> list[str]:
    """A traced mirror of one distance command."""
    coeffs = [Fraction(c) for c in result["coeffs"]]
    problems = check_coeffs(ref, q, coeffs)
    if "counts" in result and not q.exact:
        counts = {int(m): c for m, c in result["counts"].items()}
        problems += checks.check_histogram(q.family, q.k, counts, coeffs, result["pi_size"])
    return problems
