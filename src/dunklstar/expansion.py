"""Brute-force operator-expansion oracle and the three-way checker.

The product of two operators with polynomial symbols a, b expands as

    sum_alpha  (1/alpha!) d_p^alpha a(x, 0) .
               [p1 + A + B]^alpha b(y, p1) |_{y=x}

with A = -i d_y and B = -i k (p1 -> -p1) dtilde_y (reflection flag).
This module expands every one of the 3^alpha operator words literally,
tracks the sign bookkeeping through the state itself (the p1 -> -p1
substitution inside B reproduces the anticommutation with p1), and
collects the result into k-layers.  It shares no code path with either
the closed-form layers or the normal-form product, which is the point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from .calculus import d_tilde
from .cherednik import from_symbol, multiply, to_symbol_layers
from .poly import MultiPoly
from .rational import MINUS_I
from .star import CrossedElement, k_layers, star

_MINUS_IK = MultiPoly.monomial({"k": 1}, MINUS_I)


def _check_symbol(f: MultiPoly, who: str) -> None:
    extra = f.variables() - {"x", "p"}
    if extra:
        raise ValueError(f"{who} must be a polynomial in x, p (found {sorted(extra)})")


def specialize_parameters(A: CrossedElement) -> CrossedElement:
    """Set h1 = 1 and rename h2 to k."""
    return CrossedElement(
        A.plain.eval_at({"h1": 1}).rename("h2", "k"),
        A.gamma.eval_at({"h1": 1}).rename("h2", "k"),
    )


def expansion_product(a: MultiPoly, b: MultiPoly) -> Dict[int, CrossedElement]:
    """k-layers of the operator product computed by literal word expansion."""
    _check_symbol(a, "left symbol")
    _check_symbol(b, "right symbol")
    b0 = b.rename("x", "y").rename("p", "p1")
    p1 = MultiPoly.var("p1")
    plain = MultiPoly.zero()
    gamma = MultiPoly.zero()
    for alpha, a_alpha in sorted(a.by_degree("p").items()):
        acc = [MultiPoly.zero(), MultiPoly.zero()]

        def walk(state: MultiPoly, flag: int, depth: int) -> None:
            if state.is_zero():
                return
            if depth == alpha:
                acc[flag] = acc[flag] + state
                return
            walk(p1 * state, flag, depth + 1)
            walk(state.differentiate("y").scale(MINUS_I), flag, depth + 1)
            walk(d_tilde(state, "y").reflect({"p1": -1}) * _MINUS_IK,
                 flag ^ 1, depth + 1)

        walk(b0, 0, 0)
        plain = plain + a_alpha * acc[0]
        gamma = gamma + a_alpha * acc[1]

    plain = plain.rename("y", "x").rename("p1", "p")
    gamma = gamma.rename("y", "x").rename("p1", "p")
    return k_layers(CrossedElement(plain, gamma))


def word_census(alpha: int) -> Dict[Tuple[Tuple[int, ...], int], int]:
    """Signed counts of canonical word shapes inside the alpha-th power.

    Keys are (derivative-block pattern read left to right, p1 count); the
    value is the sum over matching words of (-1)^(number of difference
    letters left of each p1).  Independent of the polynomial machinery.
    """
    census: Dict[Tuple[Tuple[int, ...], int], int] = {}

    def rec(pattern: Tuple[int, ...], s: int, sign: int, left: int) -> None:
        if left == 0:
            key = (pattern, s)
            census[key] = census.get(key, 0) + sign
            return
        # next letter, building the word left to right
        b_seen = len(pattern) - 1
        rec(pattern, s + 1, sign * (-1 if b_seen % 2 else 1), left - 1)  # p1
        rec(pattern[:-1] + (pattern[-1] + 1,), s, sign, left - 1)        # A
        rec(pattern + (0,), s, sign, left - 1)                           # B
    rec((0,), 0, 1, alpha)
    return census


# -- three-way comparison ------------------------------------------------------


@dataclass(frozen=True)
class Mismatch:
    layer: int
    component: str  # "plain" or "gamma"
    route: str      # which pair of computations disagreed
    expected: MultiPoly
    got: MultiPoly

    def describe(self) -> str:
        return (f"layer k^{self.layer} {self.component} [{self.route}]: "
                f"expected {self.expected!r}, got {self.got!r}")


@dataclass(frozen=True)
class VerifyReport:
    left: MultiPoly
    right: MultiPoly
    ok: bool
    mismatches: Tuple[Mismatch, ...] = ()

    def describe(self) -> str:
        head = f"verify {self.left!r} (*) {self.right!r}: "
        if self.ok:
            return head + "ok"
        return head + "MISMATCH\n" + "\n".join(m.describe() for m in self.mismatches)


def _compare_layers(base: Dict[int, CrossedElement], other: Dict[int, CrossedElement],
                    route: str) -> List[Mismatch]:
    out: List[Mismatch] = []
    for l in sorted(set(base) | set(other)):
        A = base.get(l, CrossedElement.zero())
        B = other.get(l, CrossedElement.zero())
        if A.plain != B.plain:
            out.append(Mismatch(l, "plain", route, A.plain, B.plain))
        if A.gamma != B.gamma:
            out.append(Mismatch(l, "gamma", route, A.gamma, B.gamma))
    return out


def verify_pair(a: MultiPoly, b: MultiPoly) -> VerifyReport:
    """Recompute a (*) b three ways and demand exact layerwise equality."""
    _check_symbol(a, "left symbol")
    _check_symbol(b, "right symbol")
    st = k_layers(specialize_parameters(star(a, b)))
    nf = to_symbol_layers(multiply(from_symbol(a), from_symbol(b)))
    ex = expansion_product(a, b)
    mismatches: List[Mismatch] = []
    mismatches += _compare_layers(st, nf, "star vs normal form")
    mismatches += _compare_layers(st, ex, "star vs expansion")
    return VerifyReport(a, b, not mismatches, tuple(mismatches))
