"""Feed one corrupted result through each workload's checker.

Usage: python3 perfbench/selftest.py

For every workload this runs one real operation, checks that the true
result passes, then corrupts it and checks that the benchmark's failure
path counts it and prints the replay line.  Exits 1 if any corruption
goes uncounted.
"""

import dataclasses
import json
import sys

import worker  # noqa: F401  (puts src on sys.path)
import calibrate
import dunklstar as ds
from worker import LADDER, Runner, load


def corrupt(name: str, result):
    if name == "assoc_warm":
        left, right = result
        return left, right + ds.CrossedElement.from_poly(ds.MultiPoly.const(1))
    if name == "ladder_cold":
        doc = json.loads(result[0])
        doc["plain"][0][4][0] += 1  # numerator of the real part of one coefficient
        return json.dumps(doc), result[1]
    if name == "oracle_routes":
        return dataclasses.replace(result, ok=False)
    raise KeyError(name)


def main() -> int:
    bad = 0
    for name in ("assoc_warm", LADDER, "oracle_routes"):
        workload = load(name)(0)
        op = next(workload.rounds())[0]
        result = workload.run(op)
        runner = Runner(workload, 0, calibrate.Speed())
        runner.feed("selftest", op, result, 0.0)
        runner.feed("selftest", op, corrupt(name, result), 0.0)
        runner.check_pending()
        ok = runner.attempted == 2 and runner.failed == 1
        print(f"selftest {name}: {'ok' if ok else 'NOT COUNTED'}")
        bad += not ok
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
