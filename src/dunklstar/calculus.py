"""One-variable difference calculus for the Z2 reflection action.

Provides the derivative D, the reflection difference quotient
Dt(f)(x) = (f(x) - f(-x))/x, the Dunkl operator D + k*Dt, the divided
difference coproduct and its iterates, the telescoping n-variable
cocycle, and the composition combinatorics (index tuples, their
statistics, the interleaved operator chains A/B, and the signed
multiplicities c_nu).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

from .poly import MultiPoly, accumulate, aux_slot, divide_exact, var_index
from .rational import GaussianRational


def d_tilde(f: MultiPoly, v: str) -> MultiPoly:
    """Difference quotient (f - f(-v))/v; exact on polynomials.

    In closed form v^e -> 2 v^(e-1) for odd e and 0 for even e; lowering
    one exponent keeps distinct monomials distinct, so no two terms merge.
    """
    idx = var_index(v)
    terms = {}
    for mono, c in f.terms.items():
        for pos, (i, e) in enumerate(mono):
            if i == idx:
                if e & 1:
                    lowered = ((i, e - 1),) if e > 1 else ()
                    new = mono[:pos] + lowered + mono[pos + 1:]
                    terms[new] = GaussianRational(c.re * 2, c.im * 2)
                break
    return MultiPoly(terms)


def dunkl(f: MultiPoly, v: str) -> MultiPoly:
    """Dunkl operator in ``v``: derivative plus k times d_tilde."""
    return f.differentiate(v) + MultiPoly.var("k") * d_tilde(f, v)


def delta(f: MultiPoly, v: str, out: Tuple[str, str]) -> MultiPoly:
    """Divided difference (f(o1) - f(o2))/(o1 - o2) in fresh slots."""
    o1, o2 = out
    num = f.rename(v, o1) - f.rename(v, o2)
    if num.is_zero():
        return MultiPoly.zero()
    return divide_exact(num, MultiPoly.var(o1) - MultiPoly.var(o2))


def delta_iter(f: MultiPoly, v: str, r: int) -> MultiPoly:
    """r-fold divided difference, living in slots q1..q(r+1).

    Each step splits the first slot, which by slot symmetry agrees with
    any other bracketing; vanishes whenever r exceeds the degree in v.
    """
    if r < 0:
        raise ValueError("iteration count must be >= 0")
    g = f.rename(v, aux_slot(1))
    for s in range(r):
        g = delta(g, aux_slot(1), (aux_slot(1), aux_slot(s + 2)))
        if g.is_zero():
            break
    return g


def delta_n(fs: Sequence[MultiPoly], vars: Sequence[str],
            out: Optional[Sequence[str]] = None) -> MultiPoly:
    """Telescoping product of difference quotients for n functions of n variables.

    Factor i substitutes the first i-1 variables by their second-block
    slots, takes the difference in variable i, and divides by
    (x_i - y_i); the result lives in the 2n slots (vars, out).
    """
    n = len(fs)
    if len(vars) != n:
        raise ValueError("need as many variables as functions")
    if out is None:
        taken = set(vars)
        for f in fs:
            taken |= f.variables()
        out = []
        j = 1
        while len(out) < n:
            name = aux_slot(j)
            if name not in taken:
                out.append(name)
            j += 1
    if len(out) != n:
        raise ValueError("need as many output slots as functions")
    result = MultiPoly.const(1)
    for i in range(n):
        g = fs[i]
        for j in range(i):
            g = g.rename(vars[j], out[j])
        num = g - g.rename(vars[i], out[i])
        if num.is_zero():
            return MultiPoly.zero()
        result = result * divide_exact(
            num, MultiPoly.var(vars[i]) - MultiPoly.var(out[i]))
    return result


# -- composition tuples ------------------------------------------------------


@dataclass(frozen=True)
class Composition:
    """Index tuple (y0..yn): nonnegative ends, positive interior, sum m."""

    entries: Tuple[int, ...]

    def __post_init__(self):
        ys = self.entries
        if not ys:
            raise ValueError("composition must have at least one entry")
        if any(y < 0 for y in ys):
            raise ValueError("entries must be nonnegative")
        if any(y < 1 for y in ys[1:-1]):
            raise ValueError("interior entries must be positive")

    @property
    def m(self) -> int:
        return sum(self.entries)

    @property
    def n(self) -> int:
        return len(self.entries) - 1

    def reversed(self) -> "Composition":
        return Composition(self.entries[::-1])


@dataclass(frozen=True)
class CompositionStats:
    lambda0: int
    lambda1: int
    n0: int
    n1: int


def stats(nu: Composition) -> CompositionStats:
    ys = nu.entries
    lam0 = sum(y for i, y in enumerate(ys) if i % 2 == 0)
    lam1 = sum(y for i, y in enumerate(ys) if i % 2 == 1)
    n = nu.n
    return CompositionStats(lam0, lam1, n // 2, (n + 1) // 2)


def enumerate_compositions(m: int, n: int) -> List[Composition]:
    """All index tuples with sum m and n interior difference slots, lex order."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if m < 0:
        return []
    if n == 0:
        return [Composition((m,))]
    out: List[Composition] = []

    def rec(prefix: Tuple[int, ...], remaining: int, blocks_left: int):
        if blocks_left == 1:
            out.append(Composition(prefix + (remaining,)))
            return
        lo = 0 if not prefix else 1
        # blocks after this one: blocks_left-2 interiors (>= 1 each) + last (>= 0)
        for y in range(lo, remaining - (blocks_left - 2) + 1):
            rec(prefix + (y,), remaining - y, blocks_left - 1)

    rec((), m, n + 1)
    return out


# -- the interleaved operator chains ----------------------------------------


def b_nu(nu: Composition, f: MultiPoly, v: str) -> MultiPoly:
    """Chain D^{y0}, then Dt, then D^{y1}, ..., ending with D^{yn}."""
    g = f
    first = True
    for y in nu.entries:
        if not first:
            g = d_tilde(g, v)
        first = False
        for _ in range(y):
            g = g.differentiate(v)
        if g.is_zero():
            return g
    return g


def eval_slots(g: MultiPoly, r: int, plus: int, v: str) -> MultiPoly:
    """Evaluate an (r+1)-slot polynomial at ``plus`` copies of v and r+1-plus of -v."""
    plus_idx = {var_index(aux_slot(j)) for j in range(1, plus + 1)}
    minus_idx = {var_index(aux_slot(j)) for j in range(plus + 1, r + 2)}
    vidx = var_index(v)

    def collapsed():
        for mono, c in g.terms.items():
            vexp = 0
            parity = 0
            rest = []
            for i, e in mono:
                if i in plus_idx:
                    vexp += e
                elif i in minus_idx:
                    vexp += e
                    parity ^= e & 1
                elif i == vidx:
                    vexp += e
                else:
                    rest.append((i, e))
            if vexp:
                rest.append((vidx, vexp))
                rest.sort()
            yield tuple(rest), (-c if parity else c)

    return MultiPoly(accumulate({}, collapsed()))


def a_nu(nu: Composition, f: MultiPoly, v: str,
         eval_var: Optional[str] = None) -> MultiPoly:
    """Divided-difference evaluation: delta_iter(f, v, m+n) with
    lambda0+n0+1 slots at the evaluation variable and lambda1+n1 at its negative."""
    st = stats(nu)
    r = nu.m + nu.n
    g = delta_iter(f, v, r)
    return eval_slots(g, r, st.lambda0 + st.n0 + 1, eval_var or v)


# -- signed multiplicities ---------------------------------------------------


@lru_cache(maxsize=None)
def _series_coeff(plus: int, minus: int, s: int) -> int:
    """Coefficient of x^s in (1-x)^-plus * (1+x)^-minus, exactly."""
    total = 0
    for t in range(s + 1):
        a = math.comb(plus - 1 + t, t) if plus > 0 else (1 if t == 0 else 0)
        u = s - t
        b = math.comb(minus - 1 + u, u) if minus > 0 else (1 if u == 0 else 0)
        if b and u % 2:
            b = -b
        total += a * b
    return total


def c_nu(nu: Composition, s: int) -> int:
    """Taylor coefficient of x^s of 1/((1-x)^(L0+n0+1) (1+x)^(L1+n1))."""
    if s < 0:
        raise ValueError("series index must be >= 0")
    st = stats(nu)
    return _series_coeff(st.lambda0 + st.n0 + 1, st.lambda1 + st.n1, s)


def c_nu_word_count(nu: Composition, s: int) -> int:
    """Brute-force signed count over all splittings of s extra letters.

    Independent oracle for c_nu: sum over (x0..xn) with sum s of
    prod binom(y_j + x_j, x_j) * (-1)^(j * x_j).
    """
    if s < 0:
        raise ValueError("series index must be >= 0")
    ys = nu.entries
    n = len(ys) - 1

    def rec(j: int, left: int) -> int:
        if j == n:
            c = math.comb(ys[j] + left, left)
            return -c if (j * left) % 2 else c
        total = 0
        for xj in range(left + 1):
            c = math.comb(ys[j] + xj, xj)
            if (j * xj) % 2:
                c = -c
            total += c * rec(j + 1, left - xj)
        return total

    return rec(0, s)
