"""
Command-line surface.

Subcommands: enumerate (polynomial of an arbitrary grid class), pancake /
reversal (distance-class polynomials, disk-cached), verify (polynomials
against the BFS oracle), downset (compact representatives of one
permutation) and compactify.  Output is byte-identical across runs for
identical inputs and flags, warm or cold cache.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import gridclass, poly
from .distance import Family, ResourceLimitError, check_polynomial, distance_classes
from .gridclass import LengthHistogram

CACHE_DIR_ENV = "SIGNEDGRIDS_CACHE_DIR"


def _eval_point(text: str) -> int:
    """An --eval argument: an integer n >= 1, where every polynomial here is valid."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"the polynomials count permutations of length n >= 1, not n = {n}")
    return n


def _print_poly(p: poly.Polynomial, args: argparse.Namespace) -> None:
    if args.eval_at is not None:
        value = p(args.eval_at)
        if value.denominator != 1:
            raise SystemExit(
                f"internal error: polynomial value at n={args.eval_at} is not an integer ({value})"
            )
        print(value.numerator)
        return
    if args.format == "json":
        import json

        print(json.dumps(poly.to_json_dict(p)))
    elif args.format == "latex":
        print(poly.format_latex(p))
    else:
        print(poly.format_coeff_array(p))


def _hist_summary(hist: LengthHistogram) -> str:
    parts = [f"epsilon={1 if hist.has_epsilon else 0}"]
    parts.extend(f"{m}:{hist.counts[m]}" for m in sorted(hist.counts))
    return "# |S| by length: " + ", ".join(parts)


def cmd_enumerate(args: argparse.Namespace) -> int:
    if args.perm is not None:
        from .perm import parse_perm

        members = frozenset({parse_perm(args.perm)})
    else:
        lines = Path(args.input).read_text().splitlines()
        members = gridclass.permset_from_lines(lines)
    hist = gridclass.closure_histogram(members)
    p = poly.from_histogram(hist.counts)
    poly.check_counting(p, "grid class")
    if args.verbose:
        print(_hist_summary(hist))
    _print_poly(p, args)
    if args.format == "text" and args.eval_at is None and not p:
        print("# zero polynomial: only the empty permutation is in the class for n >= 1")
    return 0


def cmd_distance(args: argparse.Namespace) -> int:
    family, k = args.family, args.k
    if args.exact and k == 0:
        raise ValueError("--exact needs k >= 1")
    *below, (hist, p) = distance_classes(family, range(k - args.exact, k + 1), args.k_ceiling, args.cache_dir)
    if args.exact:
        p = p - below[0][1]
        check_polynomial(family, k, p)
    if args.verbose:
        print(f"# |Pi_{k}| = {hist.counts[max(hist.counts)]}")
        print(_hist_summary(hist))
    _print_poly(p, args)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from . import oracle

    report = oracle.verify(
        Family(args.family),
        args.k_max,
        args.n_max,
        args.k_ceiling,
        args.n_ceiling,
        args.cache_dir,
    )
    print(report.to_json() if args.format == "json" else report.to_table())
    return 0 if report.all_match else 1


def cmd_downset(args: argparse.Namespace) -> int:
    from .perm import parse_perm

    members = gridclass.complete_and_compact({parse_perm(args.perm)})
    for line in gridclass.permset_to_lines(members):
        print(line)
    return 0


def cmd_compactify(args: argparse.Namespace) -> int:
    from .perm import compactify, format_perm, parse_perm

    core, vector = compactify(parse_perm(args.perm))
    if args.format == "json":
        import json

        print(json.dumps({"core": format_perm(core), "vector": list(vector)}))
    else:
        print(f"core: {format_perm(core)}")
        print(f"vector: {' '.join(str(v) for v in vector)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="signedgrids",
        description="Exact enumeration of grid classes of signed permutations.",
    )
    env_dir = os.environ.get(CACHE_DIR_ENV) or None  # argparse applies `type` to a str default
    parser.add_argument("--cache-dir", type=Path, default=env_dir, help=f"cache directory (or ${CACHE_DIR_ENV})")
    parser.add_argument("--format", choices=("text", "json", "latex"), default="text")
    parser.add_argument("--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser("enumerate", help="polynomial of the grid class of a permutation set")
    group = p_enum.add_mutually_exclusive_group(required=True)
    group.add_argument("--perm", help="one permutation, canonical text encoding")
    group.add_argument("--input", help="PermSet file, one permutation per line")
    p_enum.add_argument("--eval", dest="eval_at", type=_eval_point, default=None, metavar="N")
    p_enum.set_defaults(run=cmd_enumerate)

    for name, family in (("pancake", Family.PANCAKE), ("reversal", Family.REVERSAL)):
        p_fam = sub.add_parser(name, help=f"{family.value} distance-class polynomial")
        p_fam.add_argument("--k", type=int, required=True)
        p_fam.add_argument("--exact", action="store_true", help="distance exactly k instead of at most k")
        p_fam.add_argument("--eval", dest="eval_at", type=_eval_point, default=None, metavar="N")
        p_fam.add_argument("--k-ceiling", type=int, default=None)
        p_fam.set_defaults(run=cmd_distance, family=family)

    p_verify = sub.add_parser("verify", help="cross-check polynomials against the BFS oracle")
    p_verify.add_argument("--family", choices=("pancake", "reversal"), required=True)
    p_verify.add_argument("--k-max", type=int, required=True)
    p_verify.add_argument("--n-max", type=int, required=True, help="n <= 7 re-checks counts the gate already holds")
    p_verify.add_argument("--k-ceiling", type=int, default=None)
    p_verify.add_argument("--n-ceiling", type=int, default=None)
    p_verify.set_defaults(run=cmd_verify)

    p_down = sub.add_parser("downset", help="compact representatives of one permutation's class")
    p_down.add_argument("--perm", required=True)
    p_down.set_defaults(run=cmd_downset)

    p_comp = sub.add_parser("compactify", help="compact core and filling vector of a permutation")
    p_comp.add_argument("--perm", required=True)
    p_comp.set_defaults(run=cmd_compactify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, ResourceLimitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
