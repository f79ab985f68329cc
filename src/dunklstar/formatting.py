"""Deterministic text / LaTeX / JSON rendering of crossed elements.

Terms are ordered by graded lex on (x, p, h1, h2), highest first, so
output is byte-stable; the text mode emits only tokens the expression
grammar accepts, and parsing it back returns the original element.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import List, Optional, Tuple, Union

from .poly import MultiPoly, var_index, var_name
from .rational import GaussianRational
from .star import CrossedElement

_FORMAT_VARS = ("x", "p", "h1", "h2")


def _exponents(mono) -> Tuple[int, int, int, int]:
    idx = {var_index(v): pos for pos, v in enumerate(_FORMAT_VARS)}
    out = [0, 0, 0, 0]
    for i, e in mono:
        pos = idx.get(i)
        if pos is None:
            raise ValueError(f"cannot format variable {var_name(i)!r}; "
                             f"only x, p, h1, h2 are printable")
        out[pos] = e
    return tuple(out)


def _sorted_terms(f: MultiPoly):
    rows = [(_exponents(mono), c) for mono, c in f.terms.items()]
    rows.sort(key=lambda row: (sum(row[0]), row[0]), reverse=True)
    return rows


def _frac_text(v: Union[int, Fraction]) -> str:
    if isinstance(v, Fraction) and v.denominator != 1:
        return f"{v.numerator}/{v.denominator}"
    return str(int(v))


def _coeff_text(c: GaussianRational, latex: bool = False) -> Tuple[int, Optional[str]]:
    """(sign, magnitude-text or None for an implicit 1)."""
    mul = " " if latex else "*"
    if c.im == 0:
        sign = 1 if c.re > 0 else -1
        mag = abs(c.re)
        return sign, None if mag == 1 else _frac_text(mag)
    if c.re == 0:
        sign = 1 if c.im > 0 else -1
        mag = abs(c.im)
        return sign, "i" if mag == 1 else f"{_frac_text(mag)}{mul}i"
    # mixed real/imaginary: parenthesized, sign folded inside
    re_txt = _frac_text(c.re)
    if c.im == 1:
        im_txt = "+i"
    elif c.im == -1:
        im_txt = "-i"
    else:
        im_txt = f"{'+' if c.im > 0 else '-'}{_frac_text(abs(c.im))}{mul}i"
    return 1, f"({re_txt}{im_txt})"


def _mono_text(exps, gamma: bool, latex: bool) -> List[str]:
    names = ("x", "p", "\\hbar_1", "\\hbar_2") if latex else _FORMAT_VARS
    bits = []
    for name, e in zip(names, exps):
        if e == 0:
            continue
        if e == 1:
            bits.append(name)
        elif latex:
            bits.append(f"{name}^{{{e}}}")
        else:
            bits.append(f"{name}^{e}")
    if gamma:
        bits.append("\\gamma" if latex else "gamma")
    return bits


def _render(A: CrossedElement, latex: bool) -> str:
    pieces: List[Tuple[int, str]] = []
    for gamma, f in ((False, A.plain), (True, A.gamma)):
        for exps, c in _sorted_terms(f):
            sign, mag = _coeff_text(c, latex)
            bits = _mono_text(exps, gamma, latex)
            if mag is not None:
                bits.insert(0, mag)
            if not bits:
                bits = ["1"]
            joiner = " " if latex else "*"
            pieces.append((sign, joiner.join(bits)))
    if not pieces:
        return "0"
    out = []
    for pos, (sign, text) in enumerate(pieces):
        if pos == 0:
            out.append(("-" if sign < 0 else "") + text)
        else:
            out.append(("- " if sign < 0 else "+ ") + text)
    return " ".join(out)


def _num_pair(v: Union[int, Fraction]) -> List[int]:
    if isinstance(v, Fraction):
        return [v.numerator, v.denominator]
    return [v, 1]


def _json_rows(f: MultiPoly):
    return [[*exps, _num_pair(c.re), _num_pair(c.im)] for exps, c in _sorted_terms(f)]


def format_element(A: Union[CrossedElement, MultiPoly], mode: str = "text") -> str:
    """Render a crossed element (or plain polynomial) in the given mode."""
    if isinstance(A, MultiPoly):
        A = CrossedElement.from_poly(A)
    if mode == "text":
        return _render(A, latex=False)
    if mode == "latex":
        return _render(A, latex=True)
    if mode == "json":
        return json.dumps({"plain": _json_rows(A.plain), "gamma": _json_rows(A.gamma)})
    raise ValueError(f"unknown format mode {mode!r}")
