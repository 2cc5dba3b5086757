#!/usr/bin/env python3
"""
Cross-validate every distance polynomial against exhaustive BFS counts.

For each family, compares the polynomial value with the exact number of
permutations within k moves for every n <= n-max and k <= k-max, and
prints the full match table.  Exits nonzero on any mismatch.

Usage:
    python scripts/crosscheck_oracle.py [--n-max 6] [--pancake-k-max 8]
                                        [--reversal-k-max 5]
"""
import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from signedgrids.distance import Family  # noqa: E402
from signedgrids.oracle import verify  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=6)
    parser.add_argument("--pancake-k-max", type=int, default=8)
    parser.add_argument("--reversal-k-max", type=int, default=5)
    args = parser.parse_args()

    failed = False
    for family, k_max in (
        (Family.PANCAKE, args.pancake_k_max),
        (Family.REVERSAL, args.reversal_k_max),
    ):
        t0 = time.perf_counter()
        report = verify(family, k_max=k_max, n_max=args.n_max)
        print(report.to_table())
        print(f"({time.perf_counter() - t0:.1f}s)\n")
        failed = failed or not report.all_match
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
