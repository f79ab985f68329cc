"""Operator-expansion oracle and the three-way checker.

The product of two operators with polynomial symbols a, b expands as

    sum_alpha  (1/alpha!) d_p^alpha a(x, 0) .
               [p1 + A + B]^alpha b(y, p1) |_{y=x}

with A = -i d_y and B = -i k (p1 -> -p1) dtilde_y (reflection flag).
This module applies the operator power to b one letter at a time, over
both reflection parities at once: after n letters it holds, for an even
and for an odd number of B letters, the sum of every word of length n
applied to b.  One pass up to the largest alpha thus still counts all
3^alpha words of each power.  The sign bookkeeping lives in the state
itself (the p1 -> -p1 substitution inside B reproduces the
anticommutation with p1), and the result is collected into k-layers.  It
shares no code path with either the closed-form layers or the
normal-form product, which is the point.
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
    """k-layers of the operator product computed by word expansion."""
    _check_symbol(a, "left symbol")
    _check_symbol(b, "right symbol")
    by_alpha = a.by_degree("p")
    p1 = MultiPoly.var("p1")
    plain = gamma = MultiPoly.zero()
    # s[f]: the sum, over every word of length n whose number of B letters
    # has parity f, of that word applied to the right factor
    s = [b.rename("x", "y").rename("p", "p1"), MultiPoly.zero()]
    for n in range(max(by_alpha, default=-1) + 1):
        if n:
            b_of = [d_tilde(t, "y").reflect({"p1": -1}) * _MINUS_IK for t in s]
            s = [p1 * t + t.differentiate("y").scale(MINUS_I) + b_of[f ^ 1]
                 for f, t in enumerate(s)]
        a_n = by_alpha.get(n)
        if a_n is not None:
            plain = plain + a_n * s[0]
            gamma = gamma + a_n * s[1]

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
