"""
Traced run of one workload.

The workload's steps are made in this one process through the public
functions of each module (`distance.pancake_pi`/`reversal_pi`,
`gridclass.closure_histogram`, `poly.from_histogram`,
`oracle.bfs_histogram`, `cache.read_*`/`write_*`), with a span around
every call: name, start, end, parent, phase and peak RSS while it ran.
The CLI commands of the workload are mirrored call by call, except that
Pi_k is grown from scratch by the public functions where the CLI resumes
from the previous cached level through private helpers.

Spans stay in memory and are written to TRACEFILE when the run ends.

Usage: python3 traced.py WORKLOAD WORKDIR TRACEFILE SEED

Prints one JSON line: the results to check and the per-layer totals.
"""
from __future__ import annotations

import json
import os
import resource
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

from signedgrids import cache, distance, gridclass, oracle, poly
from signedgrids.distance import Family

from workloads import FILL, ROUND_VERIFY, Query, pi_sample

RSS_SAMPLE_S = 0.01


class Tracer:
    """In-memory spans, with a thread sampling resident memory."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._page = os.sysconf("SC_PAGE_SIZE")
        self._peak = 0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._sampler = threading.Thread(target=self._sample, daemon=True)
        self._sampler.start()

    def _rss(self) -> int:
        try:
            with open("/proc/self/statm") as f:
                return int(f.read().split()[1]) * self._page
        except OSError:
            return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024

    def _sample(self) -> None:
        while not self._stop.wait(RSS_SAMPLE_S):
            rss = self._rss()
            with self._lock:
                self._peak = max(self._peak, rss)

    def close(self) -> None:
        self._stop.set()
        self._sampler.join()

    @contextmanager
    def span(self, name: str, phase: str | None = None, **attrs):
        parent = self._stack[-1] if self._stack else None
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": parent["id"] if parent else None,
            "phase": phase or (parent["phase"] if parent else None),
            **attrs,
        }
        self.spans.append(rec)
        self._stack.append(rec)
        with self._lock:
            self._peak = self._rss()
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            with self._lock:
                rec["rss_mb"] = max(self._peak, self._rss()) / 2**20
            self._stack.pop()


def _moves(family: Family, i: int) -> int:
    """Moves tried on one member of Pi_i while growing Pi_{i+1}."""
    if family is Family.PANCAKE:
        return i + 1
    m = 2 * i + 1
    return m * (m + 1) // 2


class Mirror:
    """The CLI's layer calls, made through public functions, each in a span."""

    def __init__(self, tracer: Tracer, cache_dir: Path | None) -> None:
        self.t = tracer
        self.cache_dir = cache_dir
        self.sizes = {f: {0: 1} for f in Family}

    # -- layers --------------------------------------------------------------

    def grow(self, family: Family, k: int) -> gridclass.PermSet:
        fn = distance.pancake_pi if family is Family.PANCAKE else distance.reversal_pi
        with self.t.span(f"distance.{fn.__name__}", k=k) as rec:
            members = fn(k)
        self.sizes[family][k] = len(members)
        rec["generators"] = len(members)
        rec["candidates"] = sum(self.sizes[family][i] * _moves(family, i) for i in range(k))
        return members

    def closure(self, members) -> gridclass.LengthHistogram:
        with self.t.span("gridclass.closure_histogram") as rec:
            hist = gridclass.closure_histogram(members)
        rec["compact_reps"] = sum(hist.counts.values())
        return hist

    def from_histogram(self, hist) -> poly.Polynomial:
        with self.t.span("poly.from_histogram"):
            return poly.from_histogram(hist.counts)

    def write(self, fn, path: Path, value) -> None:
        with self.t.span(f"cache.{fn.__name__}") as rec:
            fn(path, value)
        rec["bytes_written"] = path.stat().st_size

    def read(self, fn, path: Path):
        with self.t.span(f"cache.{fn.__name__}", bytes_read=path.stat().st_size):
            return fn(path)

    def bfs(self, n: int, family: Family) -> oracle.DistanceHistogram:
        with self.t.span("oracle.bfs_histogram", n=n) as rec:
            hist = oracle.bfs_histogram(n, family)
        rec["states"] = sum(hist.counts)
        return hist

    # -- the CLI's pipeline (cli._generator_set, _distance_histogram) ---------

    def generator_set(self, family: Family, k: int) -> gridclass.PermSet:
        grow_from = 0
        for j in range(k, 0, -1):
            pp = cache.pi_path(self.cache_dir, family, j)
            if pp.exists():
                level = self.read(cache.read_permset, pp)
                self.sizes[family][j] = len(level)
                if j == k:
                    return level
                grow_from = j
                break
        members = frozenset({(1,)})
        for j in range(grow_from + 1, k + 1):
            members = self.grow(family, j)
            self.write(cache.write_permset, cache.pi_path(self.cache_dir, family, j), members)
        return members

    def histogram(self, family: Family, k: int) -> gridclass.LengthHistogram:
        hp = cache.hist_path(self.cache_dir, family, k)
        if hp.exists():
            return self.read(cache.read_histogram, hp)
        hist = self.closure(self.generator_set(family, k))
        self.write(cache.write_histogram, hp, hist)
        return hist

    # -- commands ------------------------------------------------------------

    def distance_query(self, q: Query) -> dict:
        family = Family(q.family)
        with self.t.span(f"cli.{q.name}"):
            hist = self.histogram(family, q.k)
            p = self.from_histogram(hist)
            if q.exact:
                lower = self.from_histogram(self.histogram(family, q.k - 1))
                with self.t.span("poly.subtract"):
                    p = p - lower
            out = {"query": q.name, "coeffs": [str(c) for c in p.coeffs]}
            if q.verbose:
                out["pi_size"] = len(self.generator_set(family, q.k))
                out["counts"] = {str(m): c for m, c in hist.counts.items()}
        return out

    def verify(self, family_name: str, k_max: int, n_max: int) -> dict:
        family = Family(family_name)
        with self.t.span(f"cli.verify {family_name} {k_max} {n_max}"):
            polys = [self.from_histogram(self.histogram(family, k)) for k in range(k_max + 1)]
            layers = {}
            for n in range(1, n_max + 1):
                layers[n] = list(self.bfs(n, family).counts)
                with self.t.span("poly.evaluate", n=n):
                    [p(n) for p in polys]
        return {
            "family": family_name,
            "polys": [[str(c) for c in p.coeffs] for p in polys],
            "layers": layers,
        }


def pancake_cold(m: Mirror, seed: int) -> dict:
    with m.t.span("timed", phase="timed"):
        result = m.distance_query(Query("pancake", 9))
    with m.t.span("check", phase="check"):
        # read back what the cold run wrote, and cross-check the oracle
        hist = m.read(cache.read_histogram, cache.hist_path(m.cache_dir, Family.PANCAKE, 9))
        pi9 = m.read(cache.read_permset, cache.pi_path(m.cache_dir, Family.PANCAKE, 9))
        bfs = {n: list(m.bfs(n, Family.PANCAKE).counts) for n in range(1, 7)}
    return {
        "queries": [result],
        "readback_counts": {str(k): v for k, v in hist.counts.items()},
        "pi_size": len(pi9),
        "pi_sample": pi_sample(sorted(pi9), seed),
        "bfs": {"pancake": bfs},
    }


def reversal_growth(m: Mirror, seed: int) -> dict:
    polys = {}
    with m.t.span("timed", phase="timed"):
        for k in range(1, 6):  # leaves Pi_5 and S_5 in pi5, hist5
            with m.t.span(f"lib.distance_polynomial {k}"):
                pi5 = m.grow(Family.REVERSAL, k)
                hist5 = m.closure(pi5)
                polys[k] = m.from_histogram(hist5)
        with m.t.span("lib.reversal_pi 6"):
            pi6 = m.grow(Family.REVERSAL, 6)
    with m.t.span("check", phase="check"):
        # round-trip Pi_5 and S_5 through the cache format, and cross-check the oracle
        m.write(cache.write_permset, cache.pi_path(m.cache_dir, Family.REVERSAL, 5), pi5)
        m.write(cache.write_histogram, cache.hist_path(m.cache_dir, Family.REVERSAL, 5), hist5)
        back_pi = m.read(cache.read_permset, cache.pi_path(m.cache_dir, Family.REVERSAL, 5))
        back_hist = m.read(cache.read_histogram, cache.hist_path(m.cache_dir, Family.REVERSAL, 5))
        bfs = {n: list(m.bfs(n, Family.REVERSAL).counts) for n in range(1, 7)}
    members = sorted(pi6)
    return {
        "polys": {str(k): [str(c) for c in p.coeffs] for k, p in polys.items()},
        "pi6_count": len(members),
        "pi_sample": pi_sample(members, seed),
        "roundtrip_ok": back_pi == pi5 and back_hist == hist5,
        "bfs": {"reversal": bfs},
    }


def warm_verify(m: Mirror, seed: int) -> dict:
    fill = [q.with_seed(seed) for q in FILL]
    with m.t.span("setup", phase="setup"):
        cold = [m.distance_query(q) for q in fill]
    with m.t.span("timed", phase="timed"):
        verifies = [m.verify(*v) for v in ROUND_VERIFY]
        warm = [m.distance_query(q) for q in fill]
    return {"queries": cold, "warm_queries": warm, "verifies": verifies}


WORKLOADS = {
    "pancake-cold": pancake_cold,
    "reversal-growth": reversal_growth,
    "warm-verify": warm_verify,
}


def layer_totals(spans: list[dict]) -> dict:
    def dur(s):
        return s["end"] - s["start"]

    def of(prefix):
        return [s for s in spans if s["name"].startswith(prefix)]

    def total(prefix, key=None):
        return sum(s.get(key, 0) if key else dur(s) for s in of(prefix))

    def peak(prefix):
        return max((s["rss_mb"] for s in of(prefix)), default=0.0)

    layer_names = ("distance.", "gridclass.", "poly.", "oracle.", "cache.")
    timed = [s for s in spans if s["name"] == "timed"][0]
    return {
        "distance.grow_s": total("distance."),
        "distance.candidates": total("distance.", "candidates"),
        "distance.generators": total("distance.", "generators"),
        "gridclass.closure_s": total("gridclass."),
        "gridclass.compact_reps": total("gridclass.", "compact_reps"),
        "gridclass.rss_mb": peak("gridclass."),
        "poly.s": total("poly."),
        "oracle.bfs_s": total("oracle."),
        "oracle.states": total("oracle.", "states"),
        "oracle.rss_mb": peak("oracle."),
        "cache.write_s": total("cache.write"),
        "cache.bytes_written": total("cache.write", "bytes_written"),
        "cache.read_s": total("cache.read"),
        "cache.bytes_read": total("cache.read", "bytes_read"),
        "timed_wall_s": dur(timed),
        "timed_layer_s": sum(
            dur(s) for s in spans if s["phase"] == "timed" and s["name"].startswith(layer_names)
        ),
    }


def main() -> int:
    workload, workdir, tracefile, seed = sys.argv[1], Path(sys.argv[2]), Path(sys.argv[3]), int(sys.argv[4])
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer()
    try:
        results = WORKLOADS[workload](Mirror(tracer, workdir), seed)
    finally:
        tracer.close()
        tracefile.write_text(json.dumps({"workload": workload, "seed": seed, "spans": tracer.spans}))
    print(json.dumps({"results": results, "layers": layer_totals(tracer.spans)}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
