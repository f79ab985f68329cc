"""Exact Gaussian rational numbers (a + b*i with rational a, b).

This is the coefficient field for everything else in the package: no
floats anywhere, so algebraic identities can be asserted with ==.
Components are kept as plain ints whenever the denominator is 1 and as
``fractions.Fraction`` otherwise; the two representations compare and
hash identically, and int arithmetic keeps the common integer-only
workloads fast.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

Rat = Union[int, Fraction]


def _norm(v: Rat) -> Rat:
    if type(v) is int:
        return v
    if isinstance(v, Fraction):
        return v._numerator if v._denominator == 1 else v
    if isinstance(v, int):  # bool, int subclasses
        return int(v)
    raise TypeError(f"expected int or Fraction, got {type(v).__name__}")


class GaussianRational:
    """Immutable exact complex number with rational real/imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: Rat = 0, im: Rat = 0):
        object.__setattr__(self, "re", _norm(re))
        object.__setattr__(self, "im", _norm(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @staticmethod
    def _fast(re: Rat, im: Rat) -> "GaussianRational":
        # arithmetic-internal constructor: operands are already normalized,
        # and int/Fraction mixing stays eq/hash-consistent either way
        out = object.__new__(GaussianRational)
        object.__setattr__(out, "re", re)
        object.__setattr__(out, "im", im)
        return out

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __bool__(self) -> bool:
        return self.re != 0 or self.im != 0

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational._fast(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational._fast(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GaussianRational":
        return GaussianRational._fast(-self.re, -self.im)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        a, b, c, d = self.re, self.im, other.re, other.im
        return GaussianRational._fast(a * c - b * d, a * d + b * c)

    def __truediv__(self, other: "GaussianRational") -> "GaussianRational":
        c, d = other.re, other.im
        n = c * c + d * d
        if n == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        a, b = self.re, self.im
        return GaussianRational(
            Fraction(a * c + b * d, 1) / n, Fraction(b * c - a * d, 1) / n
        )

    def scale_int(self, n: int) -> "GaussianRational":
        return GaussianRational._fast(self.re * n, self.im * n)

    # -- comparison / hashing ------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}*i"
        return f"({self.re}{'+' if self.im > 0 else '-'}{abs(self.im)}*i)"


ZERO = GaussianRational(0, 0)
ONE = GaussianRational(1, 0)
I = GaussianRational(0, 1)
MINUS_I = GaussianRational(0, -1)


def minus_i_power(j: int) -> GaussianRational:
    """(-i)**j for j >= 0."""
    return (ONE, MINUS_I, GaussianRational(-1, 0), I)[j % 4]
