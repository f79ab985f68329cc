"""One benchmark process for one workload; ``run.py`` starts it.

Usage: python3 perfbench/worker.py WORKLOAD SEED MODE [SECONDS | ROUNDS]

Modes:
  setup    import, input generation and warm-up, then exit;
  measure  set up, then run whole rounds until SECONDS of operation time
           have passed on the wall clock;
  trace    set up, then run ROUNDS rounds with the tracer on;
  plain    set up, then run the same ROUNDS rounds untraced.

The process keeps to one CPU, and every timed interval (set-up and each
operation) is scaled to nominal host speed by ``calibrate.Speed``.
The last stdout line is one JSON object with the results.  Every output
is checked exactly after its operation, outside the timed region; a
failure prints a line with the seed and the instance that replay it.
"""

import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

import calibrate  # noqa: E402
from tracing import Tracer  # noqa: E402

LADDER = "ladder_cold"


def load(name: str):
    """The workload class; the CLI workload never imports the package here."""
    if name == LADDER:
        from ladder import LadderCold
        return LadderCold
    from workloads import IN_PROCESS
    return IN_PROCESS[name]


class Runner:
    """Runs operations, checks each one and counts failures."""

    def __init__(self, workload, seed: int, speed, trace_children: bool = False):
        self.workload = workload
        self.seed = seed
        self.speed = speed
        self.trace_children = trace_children
        self.latencies = []  # scaled latencies of the operations that passed their check
        self.attempted = 0
        self.failed = 0
        self.busy_s = 0.0  # wall-clock operation time
        self.scaled_s = 0.0  # the same at nominal speed
        self.traces = []
        self.pending = []  # finished operations whose check is deferred

    def record_failure(self, where: str, op, why: str) -> None:
        self.failed += 1
        wl = self.workload
        print(f"FAILED {wl.name} seed={self.seed} {where}: {why}")
        print(f"  replay: python3 perfbench/run.py --workload {wl.name} --seed {self.seed}"
              f" ({where}); instance: {wl.describe(op)}")

    def count(self, latency: float) -> float:
        """Count one finished operation; its latency at nominal speed."""
        self.attempted += 1
        self.busy_s += latency
        scaled = self.speed.scale(latency)
        self.scaled_s += scaled
        return scaled

    def feed(self, where: str, op, result, latency: float) -> None:
        """Count one finished operation and check its result."""
        latency = self.count(latency)
        if getattr(self.workload, "defer_checks", False):
            self.pending.append((where, op, result, latency))
        else:
            self.check(where, op, result, latency)

    def check(self, where: str, op, result, latency: float) -> None:
        why = self.workload.check(op, result)
        if why is None:
            self.latencies.append(latency)
        else:
            self.record_failure(where, op, why)

    def check_pending(self) -> None:
        for item in self.pending:
            self.check(*item)
        self.pending.clear()

    def one(self, where: str, op, tracer=None) -> None:
        """Time one operation (with the in-process tracer on, if given)."""
        t0 = time.perf_counter()
        if tracer is not None:
            tracer.enable()
        try:
            result = self.workload.run(op, traced=self.trace_children)
        except Exception as exc:  # any raise is a failed operation, reported with its instance
            self.count(time.perf_counter() - t0)
            self.record_failure(where, op, f"{type(exc).__name__}: {exc}")
            return
        finally:
            if tracer is not None:
                tracer.disable()
        latency = time.perf_counter() - t0
        if self.trace_children:
            self.traces.append(result[1])
        self.feed(where, op, result, latency)


def main(argv) -> int:
    name, seed, mode = argv[0], int(argv[1]), argv[2]
    limit = float(argv[3]) if len(argv) > 3 else 0.0
    in_process = name != LADDER
    calibrate.pin()
    speed = calibrate.Speed(child=not in_process)
    t0 = time.perf_counter()
    workload = load(name)(seed)
    for op in workload.warmup():
        workload.run(op)
    setup_wall_s = time.perf_counter() - t0
    out = {"setup_s": speed.scale(setup_wall_s), "setup_wall_s": setup_wall_s}
    if mode == "setup":
        print(json.dumps(out))
        return 0

    runner = Runner(workload, seed, speed, trace_children=mode == "trace" and not in_process)
    tracer = None
    if mode == "trace" and in_process:
        tracer = Tracer()
        tracer.install()
        tracer.begin()
    for r, ops in enumerate(workload.rounds()):
        if mode == "measure" and runner.busy_s >= limit:
            break
        if mode != "measure" and r >= limit:
            break
        for i, op in enumerate(ops):
            runner.one(f"round {r} op {i}", op, tracer)

    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    runner.check_pending()
    out.update(attempted=runner.attempted, failed=runner.failed, busy_s=runner.busy_s,
               scaled_s=runner.scaled_s, latencies=runner.latencies, peak_rss_mb=peak_rss_mb)
    if mode == "trace":
        if tracer is not None:
            out["trace"] = tracer.report()
            out["absent"] = sorted(set(tracer.absent))
        else:
            out["trace"], out["absent"] = merge_child_traces(runner.traces)
    print(json.dumps(out))
    return 0


def merge_child_traces(traces):
    """Sum per-process counts and times; cache sizes and max_j take the maximum."""
    merged = {}
    absent = set()
    for t in traces:
        if t is None:
            continue
        absent.update(t["absent"])
        for key, value in t["metrics"].items():
            if key.endswith(".size") or key == "star.max_j":
                merged[key] = max(merged.get(key, 0), value)
            else:
                merged[key] = merged.get(key, 0) + value
    if "star.weight_cache.hits" in merged:
        lookups = merged["star.weight_cache.hits"] + merged["star.weight_cache.misses"]
        merged["star.weight_cache.hit_rate"] = (
            merged["star.weight_cache.hits"] / lookups if lookups else 0.0)
    return merged, sorted(absent)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
