"""The ladder_cold workload: one fresh CLI process per product.

Each operation runs ``python3 -m dunklstar star --a "x^a*p^b" --b
"x^c*p^d" --format json`` with empty caches, as a command-line user does.
There is one instance per rung b = c in 8, 10, ..., 24; the seed draws a
and d within two of the rung.  The rung sets the work (the layer weights
run over every (j, l) with j <= min(b, c)); a and d change the output but
not its cost.  A round runs every rung once in a seeded order.

This process starts the CLI processes and must stay small while it does:
a child's peak resident size as the kernel reports it includes the
memory of the process that started it.  So the package is imported only
for the checks, which run after the timed loop.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from typing import Dict, Iterator, List, Optional

from tracing import TRACE_MARK

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CLI_TIMEOUT_S = 60.0


class OpFailed(Exception):
    """The CLI produced no result: non-zero exit or timeout."""


def cli_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def parse_cli_json(text: str):
    """CrossedElement from the CLI's ``--format json`` output."""
    import dunklstar as ds

    doc = json.loads(text)
    parts = []
    for key in ("plain", "gamma"):
        f = ds.MultiPoly.zero()
        for ex, ep, eh1, eh2, (rn, rd), (imn, imd) in doc[key]:
            c = ds.GaussianRational(Fraction(rn, rd), Fraction(imn, imd))
            f = f + ds.MultiPoly.monomial({"x": ex, "p": ep, "h1": eh1, "h2": eh2}, c)
        parts.append(f)
    return ds.CrossedElement(*parts)


class LadderCold:
    name = "ladder_cold"
    rungs = tuple(range(8, 25, 2))
    top = 24
    defer_checks = True

    def __init__(self, seed: int):
        self.seed = seed
        self._env = cli_env()
        self._refs: Dict[tuple, tuple] = {}
        self._rng = random.Random(f"{self.name}:{seed}")
        self.instances = [self._instance(r) for r in self.rungs]

    def _instance(self, r: int) -> tuple:
        near = lambda: self._rng.randint(max(0, r - 2), min(self.top, r + 2))
        return (r, near(), r, r, near())

    def rounds(self) -> Iterator[List[tuple]]:
        while True:
            order = list(self.instances)
            self._rng.shuffle(order)
            yield order

    def warmup(self) -> List[tuple]:
        return [(0, 0, 1, 1, 0)]

    @staticmethod
    def argv(op) -> List[str]:
        _, a, b, c, d = op
        return ["star", "--a", f"x^{a}*p^{b}", "--b", f"x^{c}*p^{d}", "--format", "json"]

    def run(self, op, traced: bool = False):
        """(CLI stdout, the child's trace or None)."""
        if traced:
            cmd = [sys.executable, os.path.join(HERE, "cli_trace.py")]
        else:
            cmd = [sys.executable, "-m", "dunklstar"]
        try:
            proc = subprocess.run(cmd + self.argv(op), capture_output=True, text=True,
                                  env=self._env, cwd=ROOT, timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise OpFailed(f"timed out after {CLI_TIMEOUT_S} s")
        if proc.returncode != 0:
            raise OpFailed(f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}")
        trace = None
        if traced:
            lines = [ln for ln in proc.stderr.splitlines() if ln.startswith(TRACE_MARK)]
            trace = json.loads(lines[-1][len(TRACE_MARK):]) if lines else None
        return proc.stdout, trace

    def _reference(self, op) -> tuple:
        """Normal-form k-layers and the Moyal product of an instance.

        All instances are computed at the first call, rungs in ascending
        order, so each normal form reuses the memo of the smaller ones.
        """
        import dunklstar as ds

        if not self._refs:
            for inst in sorted(self.instances):
                _, a, b, c, d = inst
                A = ds.MultiPoly.monomial({"x": a, "p": b})
                B = ds.MultiPoly.monomial({"x": c, "p": d})
                layers = ds.to_symbol_layers(ds.multiply(ds.from_symbol(A), ds.from_symbol(B)))
                self._refs[inst] = (layers, ds.moyal(A, B))
        return self._refs[op]

    def check(self, op, result) -> Optional[str]:
        import dunklstar as ds

        try:
            elem = parse_cli_json(result[0])
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable CLI output: {exc}"
        layers, moyal = self._reference(op)
        got = ds.k_layers(ds.specialize_parameters(elem))
        for k in sorted(set(layers) | set(got)):
            if layers.get(k) != got.get(k):
                return f"k^{k} layer differs from the normal-form product"
        if elem.plain.eval_at({"h2": 0}) != moyal or not elem.gamma.eval_at({"h2": 0}).is_zero():
            return "h2 = 0 slice differs from the Moyal product"
        return None

    def describe(self, op) -> str:
        return "dunklstar " + " ".join(f'"{a}"' if "*" in a else a for a in self.argv(op))
