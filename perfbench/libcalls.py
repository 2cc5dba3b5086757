"""
The library calls of the `reversal-growth` workload, made in one fresh
process:

    distance_polynomial(Family.REVERSAL, k) for k = 1..5, then reversal_pi(6)

Usage: python3 libcalls.py SEED   (with the package on PYTHONPATH)

Prints one JSON line: the polynomials, the monotonic clock, CPU time and
peak RSS at the end of the calls, and facts about Pi_6 gathered after
the clock was read (member count, malformed members, a seeded sample).
"""
from __future__ import annotations

import json
import resource
import sys
import time
import traceback

from signedgrids import Family, distance_polynomial, reversal_pi

from workloads import pi_sample

PI6_LENGTH = 13


def main() -> int:
    seed = int(sys.argv[1])
    polys: dict[int, list[str]] = {}
    errors: list[str] = []
    pi6 = None
    for k in range(1, 6):
        try:
            polys[k] = [str(c) for c in distance_polynomial(Family.REVERSAL, k).coeffs]
        except Exception:
            errors.append(traceback.format_exc())
    try:
        pi6 = reversal_pi(6)
    except Exception:
        errors.append(traceback.format_exc())
    end = time.perf_counter()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    out = {
        "polys": polys,
        "errors": errors,
        "end": end,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024,
    }
    if pi6 is not None:
        members = sorted(pi6)
        want = list(range(1, PI6_LENGTH + 1))
        out["pi6"] = {
            "count": len(members),
            "distinct": len(set(members)),
            "malformed": sum(1 for p in members if sorted(abs(x) for x in p) != want),
            "sample": pi_sample(members, seed),
        }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
