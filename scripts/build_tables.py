#!/usr/bin/env python3
"""
Recompute the distance-class polynomial tables and report measured sizes.

Prints, for each family, the wall-clock time of its one
`distance_classes` call for k = 0..k_max and the process's peak RSS so
far, then for each k the generator-set cardinality |Pi_k| (the top entry
of the length histogram), the number of compact representatives |S_k|
and the exact coefficient array.  The classes missing from the store
come from one walk per family, which builds D_k for every k on its way
to the highest, so the time is that walk's, not a sum of one walk per
class.  The burnt-pancake run covers k <= 8 by default; pass --stretch
for k = 9 and 10 (about 5 s and 0.3 GB of RAM in all, without a store,
on a 2-core Xeon).  With --cache-dir the histograms are read from that
store when present.  Every class, read or computed, passes one gate,
`check_polynomial`, then P(0) = 1, then `check_counts`, and a computed
class is written to the store only after it passes: its generator set
Pi_k, decoded from the keys of it that the walk kept, as `pi_k.perms`, a
file that is never read back, and then its histogram as `S_k.hist`, last.

Usage:
    python scripts/build_tables.py [--stretch] [--cache-dir DIR]
"""
import argparse
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from signedgrids.distance import Family, distance_classes  # noqa: E402
from signedgrids.poly import format_coeff_array  # noqa: E402


def peak_rss_mb() -> float:
    """The peak resident set size of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_family(family: Family, k_max: int, cache_dir: Path | None) -> None:
    t0 = time.perf_counter()
    classes = distance_classes(family, range(k_max + 1), cache_dir=cache_dir)
    elapsed = time.perf_counter() - t0
    print(f"== {family.value} distance classes, k = 0..{k_max}: total={elapsed:7.2f}s  peak RSS={peak_rss_mb():7.1f} MB")
    for k, (hist, polynomial) in enumerate(classes):
        print(f"k={k:>2}  |Pi_k|={hist.counts[max(hist.counts)]:>8}  |S_k|={hist.total():>9}")
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
