#!/usr/bin/env python3
"""
Benchmark of the signedgrids pipeline: grow Pi_k, close it under
containment, read the polynomial off the compact histogram, check it
against the BFS oracle.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads (see README.md):

    pancake-cold     `signedgrids --cache-dir <empty> pancake --k 9`
    reversal-growth  one process: distance_polynomial(REVERSAL, 1..5), reversal_pi(6)
    warm-verify      fill a cache, then two `verify` commands and a warm query batch

With --trace 0 the timed step is repeated until S seconds have passed and
the end-to-end metrics are medians over the repetitions.  With --trace 1
one untraced repetition is followed by a traced run (traced.py) that gives
the per-layer metrics.  Every output is checked against computations made
apart from the program (checks.py).  The last stdout line is one JSON
object; a fuller record goes to perfbench/out/.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import checks
from workloads import FILL, ROUND_VERIFY, SAMPLE_SIZE, Query, check_output, check_pi_sample, check_result

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
PACKAGE = ROOT / "src" / "signedgrids" / "__init__.py"
TABLES = ROOT / "tests" / "tables.py"

IMPORT_PROBES = 9  # fresh `import signedgrids` processes per set-up measurement
STARTUP_PROBES = 7  # fresh trivial CLI commands for cli.startup_s
FILLS = 2  # warm-verify cache fills per run; setup_s takes their median
HOST_REF_REPS = 5
PROCESS_TIMEOUT_S = 170
PI6_COUNT = 155877  # |Pi_6| for block reversals, recorded; see README.md


def host_ref() -> float:
    """A fixed pure-Python loop that calls no program code; median of a few timings."""
    times = []
    for _ in range(HOST_REF_REPS):
        t0 = time.perf_counter()
        acc = 0
        for i in range(2_000_000):
            acc = (acc + i * i) % 1_000_003
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


@dataclass
class Proc:
    """One finished program process."""

    argv: list[str]
    code: int
    out: str
    err: str
    start: float
    wall_s: float
    cpu_s: float
    rss_mb: float


@dataclass
class Round:
    """The processes of one timed repetition."""

    procs: list[Proc] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(p.wall_s for p in self.procs)

    @property
    def cpu_s(self) -> float:
        return sum(p.cpu_s for p in self.procs)

    @property
    def rss_mb(self) -> float:
        return max(p.rss_mb for p in self.procs)


class Bench:
    def __init__(self, args: argparse.Namespace) -> None:
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = args.trace
        self.work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
        self.env = {k: v for k, v in os.environ.items() if k != "SIGNEDGRIDS_CACHE_DIR"}
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.env["PYTHONHASHSEED"] = str(args.seed % 2**32)
        self.attempted = 0
        self.failed = 0
        self.wrong = False  # some output check failed
        self.problems: list[str] = []
        self.record: dict = {"workload": self.workload, "seed": self.seed, "trace": self.trace}
        self._ref: checks.Reference | None = None
        self._dirs = 0

    @property
    def ref(self) -> checks.Reference:
        if self._ref is None:
            self._ref = checks.Reference(TABLES, FAMILIES[self.workload])
        return self._ref

    def fresh_dir(self) -> Path:
        self._dirs += 1
        d = self.work / f"cache{self._dirs}"
        d.mkdir(parents=True)
        return d

    def spawn(self, argv: list[str]) -> Proc:
        """Run the interpreter on argv from the checkout root; measure it with wait4."""
        self.work.mkdir(parents=True, exist_ok=True)
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            p = subprocess.Popen([sys.executable, *argv], stdout=out, stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(PROCESS_TIMEOUT_S, p.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(p.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            p.returncode = os.waitstatus_to_exitcode(status)
        return Proc(
            argv,
            p.returncode,
            out_path.read_text(),
            err_path.read_text(),
            start,
            wall,
            usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024,
        )

    def cli(self, args: list[str]) -> Proc:
        return self.spawn(["-m", "signedgrids", *args])

    def op(self, what: str, proc: Proc | None, problems: list[str]) -> None:
        """Count one operation: it fails on a non-zero exit or a failed output check."""
        self.attempted += 1
        if proc is not None and proc.code != 0:
            problems = [f"{what}: exit {proc.code}: {proc.err.strip()[-500:]}"]
        elif problems:
            self.wrong = True
        if problems:
            self.failed += 1
            self.problems.extend(problems)
            for line in problems:
                print(f"FAILED {line}", file=sys.stderr)

    def probe_median(self, argv: list[str], reps: int) -> float:
        return statistics.median(self.spawn(argv).wall_s for _ in range(reps))

    def import_setup(self) -> float:
        """Interpreter start plus `import signedgrids`, median of fresh processes."""
        return self.probe_median(["-c", "import signedgrids"], IMPORT_PROBES)

    def timed_rounds(self, one_round) -> list[Round]:
        """Repeat whole rounds until the run length has passed (one when tracing)."""
        self.record["host_ref_s"] = host_ref()
        rounds: list[Round] = []
        start = time.perf_counter()
        while not rounds or (not self.trace and time.perf_counter() - start < self.seconds):
            rounds.append(one_round())
        self.record["rounds"] = [
            {"wall_s": r.wall_s, "cpu_s": r.cpu_s, "rss_mb": r.rss_mb,
             "procs": [[" ".join(p.argv[2:]) or p.argv[-1], p.wall_s, p.cpu_s, p.rss_mb] for p in r.procs]}
            for r in rounds
        ]
        return rounds


def end_to_end(rounds: list[Round], setup_s: float) -> dict:
    return {
        "wall_s": statistics.median(r.wall_s for r in rounds),
        "cpu_s": statistics.median(r.cpu_s for r in rounds),
        "peak_rss_mb": max(r.rss_mb for r in rounds),
        "setup_s": setup_s,
    }


# ---------------------------------------------------------------------------
# Workloads


class PancakeCold:
    """`signedgrids --cache-dir <empty dir> pancake --k 9`."""

    query = Query("pancake", 9)

    def __init__(self, b: Bench) -> None:
        self.b = b

    def setup(self) -> float:
        return self.b.import_setup()

    def one_round(self) -> Round:
        d = self.b.fresh_dir()
        proc = self.b.cli(self.query.argv(d))
        problems = []
        if proc.code == 0:
            problems = check_output(self.b.ref, self.query, proc.out)
            try:
                problems += check_pi_sample("pancake", 9, self.pi9_sample(d))
            except (OSError, ValueError) as exc:
                problems.append(f"Pi_9 in the cache: {exc}")
        self.b.op(self.query.name, proc, problems)
        shutil.rmtree(d)
        return Round([proc])

    def pi9_sample(self, d: Path) -> list[list[int]]:
        """A seeded sample of the Pi_9 the run wrote to its cache."""
        lines = sorted(line for line in (d / "pancake" / "pi_9.perms").read_text().splitlines() if not line.startswith("#"))
        return [[int(x) for x in line.split()] for line in random.Random(self.b.seed).sample(lines, SAMPLE_SIZE)]

    def check_traced(self, res: dict) -> list[str]:
        q = res["queries"][0]
        problems = check_result(self.b.ref, self.query, q)
        counts = {int(m): c for m, c in res["readback_counts"].items()}
        problems += checks.check_histogram("pancake", 9, counts, [Fraction(c) for c in q["coeffs"]], res["pi_size"])
        problems += check_pi_sample("pancake", 9, res["pi_sample"])
        return problems + check_bfs(self.b.ref, res["bfs"])


class ReversalGrowth:
    """One process: distance_polynomial(REVERSAL, k) for k = 1..5, then reversal_pi(6)."""

    calls = 6

    def __init__(self, b: Bench) -> None:
        self.b = b

    def setup(self) -> float:
        return self.b.import_setup()

    def one_round(self) -> Round:
        proc = self.b.spawn([str(BENCH / "libcalls.py"), str(self.b.seed)])
        if proc.code != 0:
            for k in range(self.calls):
                self.b.op(f"library call {k + 1}", proc, [])
            return Round([proc])
        res = json.loads(proc.out.splitlines()[-1])
        # the timed part ends when the last call returns; the checks after it are not program work
        proc.wall_s, proc.cpu_s, proc.rss_mb = res["end"] - proc.start, res["cpu_s"], res["rss_mb"]
        polys = {int(k): [Fraction(c) for c in v] for k, v in res["polys"].items()}
        for k in range(1, 6):
            if k not in polys:
                self.b.op(f"distance_polynomial(REVERSAL, {k})", None, [f"k={k}: call raised"])
                continue
            prev = polys.get(k - 1)
            self.b.op(f"distance_polynomial(REVERSAL, {k})", None,
                      checks.check_at_most(self.b.ref, "reversal", k, polys[k], prev))
        pi6 = res.get("pi6")
        if pi6 is None:
            problems = ["reversal_pi(6) raised"]
        else:
            problems = check_pi6(pi6["count"], pi6["sample"])
            if pi6["malformed"] or pi6["distinct"] != pi6["count"]:
                problems.append(f"Pi_6: {pi6['malformed']} malformed members, {pi6['distinct']} distinct")
        self.b.op("reversal_pi(6)", None, problems)
        for err in res["errors"]:
            print(err, file=sys.stderr)
        return Round([proc])

    def check_traced(self, res: dict) -> list[str]:
        problems = []
        for k, coeffs in res["polys"].items():
            problems += checks.check_at_most(self.b.ref, "reversal", int(k), [Fraction(c) for c in coeffs])
        problems += check_pi6(res["pi6_count"], res["pi_sample"])
        if not res["roundtrip_ok"]:
            problems.append("Pi_5 or S_5 did not survive a cache write and read")
        return problems + check_bfs(self.b.ref, res["bfs"])


class WarmVerify:
    """Fill a cache cold, then per round two `verify` commands and the warm query batch."""

    def __init__(self, b: Bench) -> None:
        self.b = b
        self.fill = [q.with_seed(b.seed) for q in FILL]
        self.cache: Path | None = None
        self.cold: dict[str, str] = {}

    def setup(self) -> float:
        imports = self.b.import_setup()
        times = []
        for _ in range(1 if self.b.trace else FILLS):
            d = self.b.fresh_dir()
            total = 0.0
            for q in self.fill:
                proc = self.b.cli(q.argv(d))
                total += proc.wall_s
                problems = check_output(self.b.ref, q, proc.out) if proc.code == 0 else []
                if q.name in self.cold and proc.out != self.cold[q.name]:
                    problems.append(f"{q.name}: two cold runs printed different output")
                self.b.op(f"cold {q.name}", proc, problems)
                self.cold.setdefault(q.name, proc.out)
            times.append(total)
            if self.cache is None:
                self.cache = d
        return imports + statistics.median(times)

    def one_round(self) -> Round:
        r = Round()
        for family, k_max, n_max in ROUND_VERIFY:
            args = ["--cache-dir", str(self.cache), "verify", "--family", family,
                    "--k-max", str(k_max), "--n-max", str(n_max)]
            proc = self.b.cli(args)
            r.procs.append(proc)
            problems = checks.check_verify(self.b.ref, family, k_max, n_max, proc.out) if proc.code == 0 else []
            self.b.op(" ".join(args[2:]), proc, problems)
        for q in self.fill:
            proc = self.b.cli(q.argv(self.cache))
            r.procs.append(proc)
            problems = []
            if proc.code == 0 and proc.out != self.cold[q.name]:
                problems = [f"warm {q.name}: output differs from the cold run"]
            self.b.op(f"warm {q.name}", proc, problems)
        return r

    def check_traced(self, res: dict) -> list[str]:
        problems = []
        for q, cold, warm in zip(self.fill, res["queries"], res["warm_queries"]):
            problems += check_result(self.b.ref, q, cold)
            if warm != cold:
                problems.append(f"traced warm {q.name} differs from the traced cold result")
        for v, (family, k_max, n_max) in zip(res["verifies"], ROUND_VERIFY):
            for k, coeffs in enumerate(v["polys"]):
                problems += checks.check_at_most(self.b.ref, family, k, [Fraction(c) for c in coeffs])
            problems += check_bfs(self.b.ref, {family: v["layers"]})
        return problems


WORKLOADS = {"pancake-cold": PancakeCold, "reversal-growth": ReversalGrowth, "warm-verify": WarmVerify}
FAMILIES = {"pancake-cold": ("pancake",), "reversal-growth": ("reversal",), "warm-verify": checks.FAMILIES}
TRACED_OPS = {"pancake-cold": 1, "reversal-growth": 6, "warm-verify": 2 * len(FILL) + len(ROUND_VERIFY)}


def check_pi6(count: int, sample: list[list[int]]) -> list[str]:
    problems = check_pi_sample("reversal", 6, sample)
    if count != PI6_COUNT:
        problems.append(f"|Pi_6| = {count}, recorded value {PI6_COUNT}")
    return problems


def check_bfs(ref: checks.Reference, bfs: dict) -> list[str]:
    problems = []
    for family, by_n in bfs.items():
        for n, layers in by_n.items():
            problems += checks.check_bfs_layers(ref, family, int(n), layers)
    return problems


# ---------------------------------------------------------------------------


def traced_layers(b: Bench, w, rounds: list[Round]) -> dict:
    """Per-layer metrics from a traced run, against the untraced round before it."""
    trace_file = OUT / f"trace-{b.workload}-{b.seed}.json"
    proc = b.spawn([str(BENCH / "traced.py"), b.workload, str(b.fresh_dir()), str(trace_file), str(b.seed)])
    layers = {}
    problems = []
    if proc.code == 0:
        out = json.loads(proc.out.splitlines()[-1])
        problems = w.check_traced(out["results"])
        layers = out["layers"]
    # the traced run's calls pass or fail together
    for _ in range(TRACED_OPS[b.workload]):
        b.op("traced run", proc, problems)
    untraced = rounds[0]
    cli_procs = sum(1 for p in untraced.procs if p.argv[:2] == ["-m", "signedgrids"])
    metrics = {k: v for k, v in layers.items() if not k.startswith("timed_")}
    metrics.update({
        "cli.startup_s": b.probe_median(["-m", "signedgrids", "compactify", "--perm", "1"], STARTUP_PROBES),
        "cli.self_s": untraced.wall_s - layers.get("timed_layer_s", 0.0),
        "cli.processes": cli_procs,
        "host.ref_s": b.record["host_ref_s"],
        "trace.overhead_s": layers.get("timed_wall_s", 0.0) - untraced.wall_s,
    })
    return metrics


UNITS = {
    "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s",
    "distance.grow_s": "s", "distance.candidates": "count", "distance.generators": "count",
    "gridclass.closure_s": "s", "gridclass.compact_reps": "count", "gridclass.rss_mb": "MB",
    "poly.s": "s", "oracle.bfs_s": "s", "oracle.states": "count", "oracle.rss_mb": "MB",
    "cache.write_s": "s", "cache.bytes_written": "bytes", "cache.read_s": "s", "cache.bytes_read": "bytes",
    "cli.startup_s": "s", "cli.self_s": "s", "cli.processes": "count",
    "host.ref_s": "s", "trace.overhead_s": "s",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    missing = [str(p.relative_to(ROOT)) for p in (PACKAGE, TABLES) if not p.is_file()]
    if missing:
        print(f"error: run from a checkout of the repository; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    b = Bench(args)
    w = WORKLOADS[args.workload](b)
    try:
        setup_s = w.setup()
        rounds = b.timed_rounds(w.one_round)
        metrics = traced_layers(b, w, rounds) if b.trace else end_to_end(rounds, setup_s)
    finally:
        shutil.rmtree(b.work, ignore_errors=True)
    result = {
        "correct": not b.wrong,
        "attempted": b.attempted,
        "failed": b.failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }
    b.record.update(result, setup_s=setup_s, problems=b.problems)
    OUT.mkdir(exist_ok=True)
    (OUT / f"run-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(json.dumps(b.record, indent=1))
    print(f"host.ref_s {b.record['host_ref_s']:.4f}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
