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
from .poly import Mono, MultiPoly, var_index
from .rational import GaussianRational, minus_i_power

_X, _P, _H1, _H2 = (var_index(v) for v in ("x", "p", "h1", "h2"))


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
#
# A composition of j - l into l + 1 blocks is a chain of j steps with the
# l difference steps Dt as block boundaries.  Step t acts on x^(a - t): D
# multiplies by a - t, and Dt needs a - t odd and multiplies by 2.  Two Dt
# steps are therefore never adjacent, which is exactly the rule that
# interior blocks are nonempty, so a transfer-matrix pass over the steps
# (Stanley, Enumerative Combinatorics I, 4.7) sums the chain scalars of
# all compositions at once.  The series coefficient only needs lambda0 of
# the reversed tuple, the D steps in blocks whose index has the parity of
# l, so the pass keeps the D steps in even-index blocks as its state.


def _chain_scalar(j: int, a: int) -> Dict[Tuple[int, int], int]:
    """Chain scalars on x^a of every j-step chain, summed by state.

    Maps (Dt steps l, D steps in even-index blocks) to the summed scalar
    multiplying x^(a - j); a chain that kills the power adds nothing.
    O(j^2) states over j steps.
    """
    states = {(0, 0): 1}
    for t in range(j):
        e = a - t
        nxt: Dict[Tuple[int, int], int] = {}
        for (l, even), val in states.items():
            if e:
                key = (l, even + 1 - l % 2)
                nxt[key] = nxt.get(key, 0) + val * e
            if e % 2:
                key = (l + 1, even)
                nxt[key] = nxt.get(key, 0) + val * 2
        states = nxt
    return states


# one table per (j, a) serves every l and s; the builder itself stays a
# plain function because perfbench/tracing.py finds it by name
_chain_table = lru_cache(maxsize=None)(_chain_scalar)


@lru_cache(maxsize=None)
def _layer_weight(j: int, l: int, s: int, a: int) -> int:
    """Integer weight multiplying (u_d * v_a) p^s x^(a-j) in layer (j, l),
    summed over all composition tuples; s = d - j."""
    table = _chain_table(j, a)
    total = 0
    for even in range(j - l + 1):
        beta = table.get((l, even))
        if beta:
            lam0 = even if l % 2 == 0 else j - l - even
            total += beta * _series_coeff(lam0 + l // 2 + 1,
                                          j - l - lam0 + (l + 1) // 2, s)
    return total


# -- packed exact kernel used by star ----------------------------------------
#
# Within one product a monomial is a single int: the exponent of variable i
# sits in the bit field at width * i.  Every output exponent is at most
# tdeg(u) + tdeg(v), and the width is chosen to hold that, so no field
# spills into the next: multiplying two monomials is one integer add, and
# the layer shift p^-j x^-j h1^j h2^l is one constant per (j, l).
# Coefficients are (re, im) int pairs over one common denominator, so the
# inner loop does integer arithmetic only.  The product P_{d,a} = u_d * v_a
# of a p-degree group of u and an x-degree group of v is built once, with
# three twins: times -i for odd j, and with the p -> -p reflection of v for
# odd l.  Since d is fixed within P_{d,a}, the p-parity of v's factor is
# that of the product key minus d.


def _tdeg(f: MultiPoly) -> int:
    return max((sum(e for _, e in mono) for mono in f.terms), default=0)


def _scaled(v, den: int) -> int:
    """The rational v times den, as an int; den is a multiple of its denominator."""
    return v * den if type(v) is int else v.numerator * (den // v.denominator)


class _Kernel:
    """Key packing and the shared plain/gamma sums of one product.

    Left factors are scaled by the least common denominator of their
    coefficients and right factors by theirs; ``sums[0]`` (plain) and
    ``sums[1]`` (gamma) map a packed key to its [re, im] pair over the
    product of the two denominators.
    """

    def __init__(self, left: Tuple[MultiPoly, ...], right: Tuple[MultiPoly, ...]):
        dens = []
        for side in (left, right):
            den = 1
            for f in side:
                for c in f.terms.values():
                    if type(c.re) is not int:
                        den = math.lcm(den, c.re.denominator)
                    if type(c.im) is not int:
                        den = math.lcm(den, c.im.denominator)
            dens.append(den)
        self.dens = tuple(dens)
        reach = max(map(_tdeg, left)) + max(map(_tdeg, right))
        self.width = max(reach.bit_length(), 1)
        self.sums: Tuple[Dict[int, list], Dict[int, list]] = ({}, {})

    def unit(self, idx: int) -> int:
        """Packed key of the single variable with index idx."""
        return 1 << (self.width * idx)

    def group(self, f: MultiPoly, side: int, idx: int) -> Dict[int, list]:
        """Packed (key, re, im) terms of f grouped by the exponent of idx."""
        width, den = self.width, self.dens[side]
        shift, mask = width * idx, (1 << width) - 1
        groups: Dict[int, list] = {}
        for mono, c in f.terms.items():
            key = 0
            for i, e in mono:
                key += e << (width * i)
            groups.setdefault((key >> shift) & mask, []).append(
                (key, _scaled(c.re, den), _scaled(c.im, den)))
        return groups

    def unpack(self, key: int, first: int = 0) -> Mono:
        """Monomial of a packed key whose lowest field is variable first."""
        width, mask = self.width, (1 << self.width) - 1
        mono = []
        i = first
        while key:
            e = key & mask
            if e:
                mono.append((i, e))
            key >>= width
            i += 1
        return tuple(mono)

    def polys(self) -> Tuple[MultiPoly, MultiPoly]:
        """The sums as (plain, gamma) polynomials in normal form."""
        # keys share few distinct low parts (the x and p fields) and few
        # distinct upper parts, so each part is unpacked once
        cut = 2 * self.width
        low_mask = (1 << cut) - 1
        lows: Dict[int, Mono] = {}
        highs: Dict[int, Mono] = {}
        den = self.dens[0] * self.dens[1]
        out = []
        for acc in self.sums:
            terms: Dict = {}
            for key, (re, im) in acc.items():
                if not (re or im):
                    continue
                lo, hi = key & low_mask, key >> cut
                lo_mono = lows.get(lo)
                if lo_mono is None:
                    lo_mono = lows[lo] = self.unpack(lo)
                hi_mono = highs.get(hi)
                if hi_mono is None:
                    hi_mono = highs[hi] = self.unpack(hi, 2)
                if den == 1:
                    terms[lo_mono + hi_mono] = GaussianRational._fast(re, im)
                else:
                    terms[lo_mono + hi_mono] = GaussianRational(Fraction(re, den),
                                                                Fraction(im, den))
            out.append(MultiPoly(terms))
        return out[0], out[1]


def star_pair(u: MultiPoly, v: MultiPoly, max_j: Optional[int] = None, *,
              into: Optional[Tuple[_Kernel, int]] = None
              ) -> Optional[Tuple[MultiPoly, MultiPoly]]:
    """All layers of the product of two plain symbols, with h1/h2 powers
    attached: returns (plain sum, gamma sum).

    With ``into=(kernel, swap)`` the layers are added to the kernel's
    shared sums instead, even l to ``sums[swap]`` and odd l to the other,
    and nothing is returned; star uses this for its four pairings.
    """
    kernel, swap = (_Kernel((u,), (v,)), 0) if into is None else into
    if u and v:
        _add_layers(kernel, swap, u, v, max_j)
    return kernel.polys() if into is None else None


def _add_layers(kernel: _Kernel, swap: int, u: MultiPoly, v: MultiPoly,
                max_j: Optional[int]) -> None:
    ud = kernel.group(u, 0, _P)
    va = kernel.group(v, 1, _X)
    pshift = kernel.width * _P
    # the packed shift of layer (j, l) is j * down + l * h2
    down = kernel.unit(_H1) - kernel.unit(_P) - kernel.unit(_X)
    h2 = kernel.unit(_H2)
    sums = kernel.sums
    for d, uterms in ud.items():
        for a, vterms in va.items():
            jmax = min(d, a) if max_j is None else min(d, a, max_j)
            merged: Dict[int, list] = {}
            for ku, ur, ui in uterms:
                for kv, vr, vi in vterms:
                    key = ku + kv
                    re, im = ur * vr - ui * vi, ur * vi + ui * vr
                    c = merged.get(key)
                    if c is None:
                        merged[key] = [re, im]
                    else:
                        c[0] += re
                        c[1] += im
            plain = [(key, re, im) for key, (re, im) in merged.items() if re or im]
            if jmax:
                refl = [(key, -re, -im) if ((key >> pshift) ^ d) & 1 else (key, re, im)
                        for key, re, im in plain]
                # indexed by 2 * (l odd) + (j odd); the odd-j twins carry -i
                twins = (plain, [(key, im, -re) for key, re, im in plain],
                         refl, [(key, im, -re) for key, re, im in refl])
            else:
                twins = (plain,)
            for j in range(jmax + 1):
                sign = -1 if j & 2 else 1  # (-i)^j = sign * (-i)^(j % 2)
                for l in range(j + 1):
                    if j - l < l - 1:
                        break  # composition sets stay empty for larger l
                    w = _layer_weight(j, l, d - j, a)
                    if not w:
                        continue
                    w *= sign
                    shift = j * down + l * h2
                    out = sums[(l & 1) ^ swap]
                    get = out.get
                    for key, re, im in twins[2 * (l & 1) + (j & 1)]:
                        key += shift
                        c = get(key)
                        if c is None:
                            out[key] = [w * re, w * im]
                        else:
                            c[0] += w * re
                            c[1] += w * im


def star(A: Union[CrossedElement, MultiPoly], B: Union[CrossedElement, MultiPoly],
         max_j: Optional[int] = None) -> CrossedElement:
    """Star product on the crossed product; exact and bilinear over h-scalars.

    On gamma components the plain-pair layers are rerouted so that the
    symbol map intertwines operator composition with the reflection:
    u*(v g) swaps the layer targets, (u g)*v additionally twists v, and
    (u g)*(v g) only twists v.  All four pairings add into one kernel,
    which is converted back to polynomials once.
    """
    if isinstance(A, MultiPoly):
        A = CrossedElement.from_poly(A)
    if isinstance(B, MultiPoly):
        B = CrossedElement.from_poly(B)
    kernel = _Kernel((A.plain, A.gamma), (B.plain, B.gamma))
    if A.plain:
        if B.plain:
            star_pair(A.plain, B.plain, max_j, into=(kernel, 0))
        if B.gamma:
            star_pair(A.plain, B.gamma, max_j, into=(kernel, 1))
    if A.gamma:
        if B.plain:
            star_pair(A.gamma, gamma_twist(B.plain), max_j, into=(kernel, 1))
        if B.gamma:
            star_pair(A.gamma, gamma_twist(B.gamma), max_j, into=(kernel, 0))
    return CrossedElement(*kernel.polys())


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
