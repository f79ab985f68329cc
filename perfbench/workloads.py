"""The in-process workloads: seeded inputs, one operation, an exact check.

Each workload yields its operations in rounds.  A round holds one
operation per size class, so every run covers the same mix of sizes, and
only whole rounds are measured.

Inputs follow ``randgen.random_poly`` (terms with random exponents up to
the degree, non-zero Gaussian-integer coefficients in [-5, 5], so that
the number of terms does not depend on the seed) with two streams:
the exponents of round k come from a fixed stream, the same for every
seed, and the coefficients and the order within a round come from
``random.Random("<workload>:<seed>")``.  So the seed changes every input
while the amount of work in a run stays put, and the spread between
seeds measures the program, not the draw.  Warm-up inputs come from a
fixed stream too, so set-up cost does not depend on the seed.

``ladder.py`` holds the third workload, which runs the CLI.  Only names
exported by the ``dunklstar`` package are used, so internal renames do
not break the benchmark; calls go through the package namespace at call
time, which is where the tracer patches them.
"""

from __future__ import annotations

import random
from typing import Iterator, List, Optional

import dunklstar as ds


def _text(elem) -> str:
    return ds.format_element(elem)


def _coeff(rng: random.Random):
    """A non-zero Gaussian integer with parts in [-5, 5]."""
    while True:
        c = ds.GaussianRational(rng.randint(-5, 5), rng.randint(-5, 5))
        if c:
            return c


def _poly(shapes: random.Random, coeffs: random.Random, degree: int, terms: int):
    """``random_poly`` with exponents from ``shapes`` and coefficients from ``coeffs``."""
    f = ds.MultiPoly.zero()
    for _ in range(terms):
        x = shapes.randint(0, degree)
        p = shapes.randint(0, degree - x)
        f = f + ds.MultiPoly.monomial({"x": x, "p": p}, _coeff(coeffs))
    return f


class _Rounds:
    """Rounds of operations, one per size class, from the two input streams."""

    name = ""
    sizes: tuple = ()
    warmup_rounds = 1

    def __init__(self, seed: int):
        self.seed = seed

    def make(self, shapes: random.Random, coeffs: random.Random, size: int) -> tuple:
        raise NotImplementedError

    def _round(self, shapes: random.Random, coeffs: random.Random) -> List[tuple]:
        ops = [self.make(shapes, coeffs, size) for size in self.sizes]
        coeffs.shuffle(ops)
        return ops

    def rounds(self) -> Iterator[List[tuple]]:
        shapes = random.Random(f"{self.name}:shapes")
        coeffs = random.Random(f"{self.name}:{self.seed}")
        while True:
            yield self._round(shapes, coeffs)

    def warmup(self) -> List[tuple]:
        rng = random.Random(f"{self.name}:warmup")
        return [op for _ in range(self.warmup_rounds) for op in self._round(rng, rng)]


class AssocWarm(_Rounds):
    """Associativity triples on random crossed elements of degree 3..8, caches warm."""

    name = "assoc_warm"
    sizes = tuple(range(3, 9))

    def make(self, shapes, coeffs, d):
        elems = [ds.CrossedElement(_poly(shapes, coeffs, d, 6), _poly(shapes, coeffs, d, 6))
                 for _ in range(3)]
        return (d, *elems)

    def run(self, op, traced: bool = False):
        _, A, B, C = op
        return ds.star(ds.star(A, B), C), ds.star(A, ds.star(B, C))

    def check(self, op, result) -> Optional[str]:
        left, right = result
        return None if left == right else "star(star(A,B),C) != star(A,star(B,C))"

    def describe(self, op) -> str:
        d, A, B, C = op
        return f"degree {d}; A = {_text(A)}; B = {_text(B)}; C = {_text(C)}"


class OracleRoutes(_Rounds):
    """Three-way verify_pair: left factor of p-degree 6..11, right factor of degree <= 3."""

    name = "oracle_routes"
    sizes = tuple(range(6, 12))
    warmup_rounds = 10

    def make(self, shapes, coeffs, b):
        lead = ds.MultiPoly.monomial({"x": shapes.randint(0, 3), "p": b},
                                     _coeff(coeffs))
        return b, lead + _poly(shapes, coeffs, 3, 2), _poly(shapes, coeffs, 3, 3)

    def run(self, op, traced: bool = False):
        return ds.verify_pair(op[1], op[2])

    def check(self, op, result) -> Optional[str]:
        return None if result.ok else result.describe()

    def describe(self, op) -> str:
        b, L, R = op
        return f"p-degree {b}; L = {_text(L)}; R = {_text(R)}"


IN_PROCESS = {w.name: w for w in (AssocWarm, OracleRoutes)}
