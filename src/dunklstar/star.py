"""The bilinear product layers and the star product on the crossed product.

Elements of the crossed product are pairs f0 + f1*gamma with gamma acting
on symbols by (x, p) -> (-x, -p).  The product of two plain symbols is

    u * v  =  sum_{j,l} h1^j h2^l (C0_{j,l}(u, v) + C1_{j,l}(u, v) gamma)

where each C layer pairs a divided-difference evaluation acting in p on
the left factor with an interleaved derivative/difference chain acting in
x on the right factor.  On the gamma-carrying components the product is
the unique extension matching operator composition with the reflection.

Products of polynomial inputs terminate (every layer with j beyond the
input degrees vanishes), so h1 and h2 are ordinary polynomial variables
and every result is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Optional, Tuple, Union

from .calculus import (b_nu, delta_iter, enumerate_compositions, eval_slots,
                       stats, _series_coeff)
from .poly import MultiPoly, _mono_mul, accumulate, var_index
from .rational import GaussianRational, minus_i_power


@dataclass(frozen=True)
class CrossedElement:
    """Pair (plain, gamma) representing plain + gamma * g in the crossed product."""

    plain: MultiPoly
    gamma: MultiPoly

    @staticmethod
    def from_poly(f: MultiPoly) -> "CrossedElement":
        return CrossedElement(f, MultiPoly.zero())

    @staticmethod
    def zero() -> "CrossedElement":
        return CrossedElement(MultiPoly.zero(), MultiPoly.zero())

    def is_zero(self) -> bool:
        return self.plain.is_zero() and self.gamma.is_zero()

    def __add__(self, other: "CrossedElement") -> "CrossedElement":
        return CrossedElement(self.plain + other.plain, self.gamma + other.gamma)

    def __sub__(self, other: "CrossedElement") -> "CrossedElement":
        return CrossedElement(self.plain - other.plain, self.gamma - other.gamma)

    def twist(self) -> "CrossedElement":
        """Componentwise substitution (x, p) -> (-x, -p)."""
        return CrossedElement(gamma_twist(self.plain), gamma_twist(self.gamma))


def k_layers(A: CrossedElement) -> Dict[int, CrossedElement]:
    """Split a crossed element over {x, p, k} by powers of k."""
    plain, gamma = A.plain.by_degree("k"), A.gamma.by_degree("k")
    zero = MultiPoly.zero()
    return {l: CrossedElement(plain.get(l, zero), gamma.get(l, zero))
            for l in sorted(plain.keys() | gamma.keys())}


def gamma_twist(f: MultiPoly) -> MultiPoly:
    return f.reflect({"x": -1, "p": -1})


def is_gamma_invariant(f: MultiPoly) -> bool:
    return gamma_twist(f) == f


# -- single product layers (reference path) ----------------------------------
#
# The composition tuple indexes the derivative chain on the right factor
# directly, while the slot statistics for the divided-difference side are
# read from the reversed tuple: the expansion that produces these layers
# applies the rightmost derivative block of each word first, so the word
# pattern seen by the left factor is the reversal of the chain pattern.
# For even l both orientations give identical statistics.


def _c_sum(j: int, l: int, a: MultiPoly, b: MultiPoly, flip_p: bool) -> MultiPoly:
    comps = enumerate_compositions(j - l, l)
    if not comps:
        return MultiPoly.zero()
    dj = delta_iter(a, "p", j)
    if dj.is_zero():
        return MultiPoly.zero()
    total = MultiPoly.zero()
    for nu in comps:
        st = stats(nu.reversed())
        aval = eval_slots(dj, j, st.lambda0 + st.n0 + 1, "p")
        if aval.is_zero():
            continue
        bval = b_nu(nu, b, "x")
        if bval.is_zero():
            continue
        if flip_p:
            bval = bval.reflect({"p": -1})
        total = total + aval * bval
    return total.scale(minus_i_power(j))


def c0(j: int, l: int, a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """Plain layer at (j, l); zero for odd l and for j < 2l-1."""
    if j < 0 or l < 0:
        raise ValueError("layer indices must be >= 0")
    if l % 2 == 1:
        return MultiPoly.zero()
    return _c_sum(j, l, a, b, flip_p=False)


def c1(j: int, l: int, a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """Reflection layer at (j, l); zero for even l and for j < 2l-1.

    The chain output on the right factor is evaluated at (x, -p).
    """
    if j < 0 or l < 0:
        raise ValueError("layer indices must be >= 0")
    if l % 2 == 0:
        return MultiPoly.zero()
    return _c_sum(j, l, a, b, flip_p=True)


# -- fast grouped evaluation used by star ------------------------------------
#
# The chain acts diagonally on x-powers and the divided-difference
# evaluation acts diagonally on p-powers, so after grouping both inputs
# by those degrees each (j, l) layer is a sum of precomputed coefficient
# products weighted by a pure integer.  The integer tables are cached for
# the lifetime of the process; agreement with the reference path above is
# covered by tests.


def _chain_scalar(entries: Tuple[int, ...], a: int) -> int:
    """Action of the derivative/difference chain on x^a, as the scalar
    multiplying x^(a - m - n); 0 when the chain kills the power."""
    e = a
    val = 1
    first = True
    for y in entries:
        if not first:
            if e % 2 == 0:
                return 0
            val *= 2
            e -= 1
        first = False
        for _ in range(y):
            if e == 0:
                return 0
            val *= e
            e -= 1
    return val


@lru_cache(maxsize=None)
def _layer_weight(j: int, l: int, s: int, a: int) -> int:
    """Integer weight multiplying (u_d * v_a) p^s x^(a-j) in layer (j, l),
    summed over all composition tuples; s = d - j."""
    total = 0
    for nu in enumerate_compositions(j - l, l):
        beta = _chain_scalar(nu.entries, a)
        if beta == 0:
            continue
        st = stats(nu.reversed())
        n = _series_coeff(st.lambda0 + st.n0 + 1, st.lambda1 + st.n1, s)
        total += n * beta
    return total


@lru_cache(maxsize=None)
def _shift_mono(p_exp: int, x_exp: int, j: int, l: int):
    """Raw monomial key for p^p_exp x^x_exp h1^j h2^l."""
    entries = [(var_index("x"), x_exp), (var_index("p"), p_exp),
               (var_index("h1"), j), (var_index("h2"), l)]
    return tuple(sorted((i, e) for i, e in entries if e))


def _split_p_parity(f: MultiPoly) -> Tuple[MultiPoly, MultiPoly]:
    pidx = var_index("p")
    even: Dict = {}
    odd: Dict = {}
    for mono, c in f.terms.items():
        e = 0
        for i, ex in mono:
            if i == pidx:
                e = ex
                break
        (odd if e % 2 else even)[mono] = c
    return MultiPoly(even), MultiPoly(odd)


def star_pair(u: MultiPoly, v: MultiPoly,
              max_j: Optional[int] = None) -> Tuple[MultiPoly, MultiPoly]:
    """All layers of the product of two plain symbols, with h1/h2 powers
    attached: returns (plain sum, gamma sum)."""
    if u.is_zero() or v.is_zero():
        return MultiPoly.zero(), MultiPoly.zero()
    ud = u.by_degree("p")
    va = v.by_degree("x")
    va_parts = {a: _split_p_parity(g) for a, g in va.items()}
    jmax = min(max(ud), max(va))
    if max_j is not None:
        jmax = min(jmax, max_j)

    prod_cache: Dict[Tuple[int, int], Tuple[MultiPoly, MultiPoly]] = {}

    def prods(d: int, a: int) -> Tuple[MultiPoly, MultiPoly]:
        got = prod_cache.get((d, a))
        if got is None:
            ve, vo = va_parts[a]
            got = (ud[d] * ve, ud[d] * vo)
            prod_cache[(d, a)] = got
        return got

    acc: Tuple[Dict, Dict] = ({}, {})
    for j in range(jmax + 1):
        ij = minus_i_power(j)
        for l in range(j + 1):
            if j - l < l - 1:
                break  # composition sets stay empty for larger l
            odd = l % 2
            out = acc[odd]
            for d in ud:
                if d < j:
                    continue
                for a in va:
                    if a < j:
                        continue
                    w = _layer_weight(j, l, d - j, a)
                    if w == 0:
                        continue
                    cf = ij.scale_int(w)
                    pe, po = prods(d, a)
                    shift = _shift_mono(d - j, a - j, j, l)
                    for part, pcf in ((pe, cf), (po, -cf if odd else cf)):
                        accumulate(out, ((_mono_mul(mono, shift), c * pcf)
                                         for mono, c in part.terms.items()))
    return MultiPoly(acc[0]), MultiPoly(acc[1])


def star(A: Union[CrossedElement, MultiPoly], B: Union[CrossedElement, MultiPoly],
         max_j: Optional[int] = None) -> CrossedElement:
    """Star product on the crossed product; exact and bilinear over h-scalars.

    On gamma components the plain-pair layers are rerouted so that the
    symbol map intertwines operator composition with the reflection:
    u*(v g) swaps the layer targets, (u g)*v additionally twists v, and
    (u g)*(v g) only twists v.
    """
    if isinstance(A, MultiPoly):
        A = CrossedElement.from_poly(A)
    if isinstance(B, MultiPoly):
        B = CrossedElement.from_poly(B)
    plain = MultiPoly.zero()
    gamma = MultiPoly.zero()
    if not A.plain.is_zero():
        if not B.plain.is_zero():
            s0, s1 = star_pair(A.plain, B.plain, max_j)
            plain, gamma = plain + s0, gamma + s1
        if not B.gamma.is_zero():
            t0, t1 = star_pair(A.plain, B.gamma, max_j)
            plain, gamma = plain + t1, gamma + t0
    if not A.gamma.is_zero():
        if not B.plain.is_zero():
            r0, r1 = star_pair(A.gamma, gamma_twist(B.plain), max_j)
            plain, gamma = plain + r1, gamma + r0
        if not B.gamma.is_zero():
            q0, q1 = star_pair(A.gamma, gamma_twist(B.gamma), max_j)
            plain, gamma = plain + q0, gamma + q1
    return CrossedElement(plain, gamma)


def commutator(A: Union[CrossedElement, MultiPoly],
               B: Union[CrossedElement, MultiPoly]) -> CrossedElement:
    return star(A, B) - star(B, A)


def moyal(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """Closed product series sum_j h1^j (-i)^j/j! d_p^j(a) d_x^j(b)."""
    total = MultiPoly.zero()
    da, db = a, b
    j = 0
    while not da.is_zero() and not db.is_zero():
        coeff = minus_i_power(j) * GaussianRational(Fraction(1, math.factorial(j)))
        total = total + (da * db).scale(coeff) * MultiPoly.monomial({"h1": j})
        da = da.differentiate("p")
        db = db.differentiate("x")
        j += 1
    return total


# -- invariants corner --------------------------------------------------------


class NonInvariantError(ValueError):
    """Input to the spherical product is not fixed by the twist."""


@dataclass(frozen=True)
class SphericalElement:
    """Twist-invariant symbol; the corner algebra through a -> a*(1+gamma)/2."""

    value: MultiPoly

    def __post_init__(self):
        if not is_gamma_invariant(self.value):
            raise NonInvariantError("spherical elements must be twist-invariant")


def spherical(u: Union[SphericalElement, MultiPoly],
              v: Union[SphericalElement, MultiPoly]) -> SphericalElement:
    """Induced product on invariants: (uP)*(vP) = (plain + gamma of u*v) P."""
    if isinstance(u, MultiPoly):
        u = SphericalElement(u)
    if isinstance(v, MultiPoly):
        v = SphericalElement(v)
    prod = star(CrossedElement.from_poly(u.value), CrossedElement.from_poly(v.value))
    return SphericalElement(prod.plain + prod.gamma)


def weight(f: MultiPoly) -> Union[int, str]:
    """Common circle-action weight deg_x - deg_p per monomial, or "mixed"."""
    if f.is_zero():
        raise ValueError("weight of the zero polynomial is undefined")
    xi, pi = var_index("x"), var_index("p")
    found = None
    for mono in f.terms:
        ex = ep = 0
        for i, e in mono:
            if i == xi:
                ex = e
            elif i == pi:
                ep = e
        w = ex - ep
        if found is None:
            found = w
        elif found != w:
            return "mixed"
    return found
