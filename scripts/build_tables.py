#!/usr/bin/env python3
"""
Recompute the distance-class polynomial tables and report measured sizes.

Prints, for each family and k, the generator-set cardinality |Pi_k| (the
top entry of the length histogram), the number of compact representatives
|S_k|, the wall-clock time, and the exact coefficient array.  The
burnt-pancake run covers k <= 8 by default; pass --stretch for k = 9 and
10 (about 40 s and 0.5 GB of RAM on 2 cores).  With --cache-dir the histograms
are read from that store when present; each one computed is written to
it, with its generator set Pi_k as an export that is never read back.

Usage:
    python scripts/build_tables.py [--stretch] [--cache-dir DIR]
"""
import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from signedgrids.distance import Family, distance_histogram, distance_polynomial, generator_count  # noqa: E402
from signedgrids.poly import format_coeff_array  # noqa: E402


def run_family(family: Family, k_max: int, cache_dir: Path | None) -> None:
    print(f"== {family.value} distance classes, k = 0..{k_max}")
    for k in range(k_max + 1):
        t0 = time.perf_counter()
        polynomial = distance_polynomial(family, k, cache_dir=cache_dir)  # gated by check_polynomial
        elapsed = time.perf_counter() - t0
        hist = distance_histogram(family, k, cache_dir)
        print(
            f"k={k:>2}  |Pi_k|={generator_count(family, k, cache_dir):>8}  "
            f"|S_k|={hist.total():>9}  total={elapsed:7.2f}s"
        )
        print(f"      {format_coeff_array(polynomial)}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--stretch", action="store_true", help="include pancake k = 9, 10")
    parser.add_argument("--cache-dir", type=Path, default=None)
    args = parser.parse_args()
    run_family(Family.PANCAKE, 10 if args.stretch else 8, args.cache_dir)
    run_family(Family.REVERSAL, 5, args.cache_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
