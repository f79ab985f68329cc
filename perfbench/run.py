"""Seeded benchmark for the exact star product.

Usage (from the repository root):

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]
    python3 perfbench/selftest.py   # corrupted results must be counted

Workloads (closed loop, one operation in flight):
  assoc_warm     associativity triples star(star(A,B),C) == star(A,star(B,C))
                 on randgen.random_crossed elements of degree 3..8, in process;
  ladder_cold    one fresh ``python3 -m dunklstar star --format json`` process
                 per product x^a p^b * x^c p^d, rungs min(b, c) = 8, 10, ..., 24;
  oracle_routes  expansion.verify_pair(L, R), L of p-degree 6..11, R small.

Each workload runs in processes of its own (``worker.py``), one at a time.
With ``--trace 0`` it prints the end-to-end metrics: set-up time (median of
five fresh processes), operations per second, median and tail latency,
and peak resident memory (for ladder_cold, the largest CLI process).
Times are scaled to nominal host speed (``calibrate.py``): each interval
is divided by the time of a fixed pure-Python reference computation (for
ladder_cold, a fresh interpreter that runs it) next to it on the same
CPU.  The wall-clock figures are printed too.
With ``--trace 1`` it makes two traced runs and one untraced run of the
same operations, prints the per-layer metrics, and fails the determinism
gate if any exact count differs between the two traced runs.

The last stdout line is one JSON object: correct, attempted, failed and
metrics ({name: {value, unit}}).  The run exits 1 without that line if
the sources are missing or a benchmark process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEADLINE_S = 170.0
WORKLOAD_NAMES = ("assoc_warm", "ladder_cold", "oracle_routes")
# a percentile with at least ten samples beyond it, with room to spare, at
# this commit's counts in a 25 s run (about 160-260, 54 and 1400-1700
# operations, depending on the host's speed)
TAIL_PCT = {"assoc_warm": 90, "ladder_cold": 75, "oracle_routes": 98}
TRACE_ROUNDS = {"assoc_warm": 4, "ladder_cold": 1, "oracle_routes": 20}
SETUPS = 5


class BenchError(Exception):
    """A benchmark process could not produce its result."""


class Clock:
    def __init__(self, budget: float):
        self.end = time.monotonic() + budget

    def left(self) -> float:
        return self.end - time.monotonic()


def worker(clock: Clock, name: str, seed: int, mode: str, limit: float = 0) -> dict:
    """Run one worker process to completion and return its JSON result."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), name, str(seed), mode, str(limit)]
    if clock.left() <= 1:
        raise BenchError(f"no time left for {name} {mode}")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=clock.left())
    except subprocess.TimeoutExpired:
        raise BenchError(f"{name} {mode} did not finish within {DEADLINE_S:.0f} s")
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{name} {mode} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def tail(latencies, pct: int) -> float:
    if len(latencies) < 2:
        return latencies[0]
    return statistics.quantiles(latencies, n=100, method="inclusive")[pct - 1]


def end_to_end(clock: Clock, name: str, seed: int, seconds: float):
    setups = [worker(clock, name, seed, "setup") for _ in range(SETUPS - 1)]
    m = worker(clock, name, seed, "measure", seconds)
    setups.append(m)
    lat = sorted(m["latencies"])
    if not lat:
        raise BenchError(f"{name}: no operation succeeded")
    pct = TAIL_PCT[name]
    beyond = sum(1 for v in lat if v > tail(lat, pct))
    if beyond < 10:
        print(f"warning: {name} p{pct} has only {beyond} samples beyond it")
    metrics = {
        "setup_s": (statistics.median(r["setup_s"] for r in setups), "s"),
        "ops_per_s": (m["attempted"] / m["scaled_s"], "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_tail_ms": (tail(lat, pct) * 1e3, "ms"),
        "peak_rss_mb": (m["peak_rss_mb"], "MB"),
    }
    print(f"{name}: seed {seed}, {m['attempted']} operations in {m['busy_s']:.2f} s, "
          f"failed_frac {m['failed'] / m['attempted']:.4f} (frac), tail = p{pct}, "
          f"{beyond} samples beyond it")
    print(f"{name} on the wall clock: {m['attempted'] / m['busy_s']:.4g} 1/s, set-up "
          f"{statistics.median(r['setup_wall_s'] for r in setups):.4g} s; host at "
          f"{m['scaled_s'] / m['busy_s']:.3f} of nominal speed")
    return m["attempted"], m["failed"], True, metrics


def _unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_rate") or metric.endswith("_frac"):
        return "frac"
    return "count"


def per_layer(clock: Clock, name: str, seed: int):
    rounds = TRACE_ROUNDS[name]
    runs = [worker(clock, name, seed, "trace", rounds) for _ in range(2)]
    plain = worker(clock, name, seed, "plain", rounds)
    first, second = runs[0]["trace"], runs[1]["trace"]
    deterministic = True
    for key in sorted(set(first) | set(second)):
        if _unit(key) == "s":
            continue
        if first.get(key) != second.get(key):
            deterministic = False
            print(f"ERROR determinism: {name} seed {seed}: {key} = "
                  f"{first.get(key)} then {second.get(key)}")
    metrics = {}
    for key in first:
        value = first[key]
        if _unit(key) == "s":
            value = (first[key] + second.get(key, first[key])) / 2
        metrics[key] = (value, _unit(key))
    traced = (runs[0]["scaled_s"] + runs[1]["scaled_s"]) / 2
    metrics["trace.overhead_frac"] = (traced / plain["scaled_s"] - 1, "frac")
    if runs[0]["absent"]:
        print(f"{name}: absent hooks: {', '.join(runs[0]['absent'])}")
    print_shares(name, first)
    attempted = sum(r["attempted"] for r in runs + [plain])
    failed = sum(r["failed"] for r in runs + [plain])
    return attempted, failed, deterministic, metrics


def print_shares(name: str, trace: dict) -> None:
    """The profile shares that the workloads' predictions rest on."""
    total = trace.get("profile.total_s") or 1.0

    def share(*keys):
        return sum(trace.get(k, 0.0) for k in keys) / total

    verify = trace.get("expansion.verify_pair.total_s") or 0.0
    print(f"{name} shares of profiled time: "
          f"rational+poly {share('rational.prof_self_s', 'poly.prof_self_s'):.1%}, "
          f"calculus+star {share('calculus.prof_self_s', 'star.prof_self_s'):.1%}, "
          f"calculus+star weight functions "
          f"{share('calculus.prof_self_s', 'star.weight_fns.prof_self_s'):.1%}, "
          f"cherednik+expansion {share('cherednik.prof_self_s', 'expansion.prof_self_s'):.1%}"
          + (f"; star.star.total_s / expansion.verify_pair.total_s "
             f"{trace.get('star.star.total_s', 0.0) / verify:.1%}" if verify else ""))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "dunklstar", "__init__.py")):
        print("error: src/dunklstar not found next to perfbench/", file=sys.stderr)
        return 1
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    clock = Clock(DEADLINE_S * len(names))
    attempted = failed = 0
    correct = True
    metrics = {}
    try:
        for name in names:
            if args.trace:
                a, f, ok, m = per_layer(clock, name, args.seed)
            else:
                a, f, ok, m = end_to_end(clock, name, args.seed, args.seconds)
            attempted += a
            failed += f
            correct = correct and ok and f == 0
            prefix = "" if len(names) == 1 else name + "/"
            for key, (value, unit) in m.items():
                print(f"{name} {key} = {value:.6g} {unit}")
                metrics[prefix + key] = {"value": value, "unit": unit}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
