"""PBW normal forms in the rank-1 algebra generated by X, P, G.

The defining relations are

    P X = X P - i - 2 i k G,     G X = -X G,     G P = -P G,     G^2 = 1,

with k a central polynomial parameter.  X acts on one-variable
polynomials by multiplication, G by the reflection x -> -x, and P by -i
times the Dunkl operator, so that the symbol x^a p^b corresponds to
X^a P^b.  Elements are stored in the ordered basis X^a P^b G^e with
coefficients polynomial in k; two elements are equal iff their basis
coefficients agree.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Tuple

from .calculus import dunkl
from .poly import MultiPoly, accumulate
from .rational import GaussianRational, MINUS_I
from .star import CrossedElement, k_layers

Key = Tuple[int, int, int]  # (x power, P power, reflection flag)
Word = Tuple[str, ...]

_MINUS_I_CONST = MultiPoly.const(MINUS_I)
_MINUS_2IK = MultiPoly.var("k").scale(GaussianRational(0, -2))


class NormalForm:
    """Exact element in the ordered basis X^a P^b G^e."""

    __slots__ = ("terms",)

    def __init__(self, terms: Dict[Key, MultiPoly]):
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, name, value):
        raise AttributeError("NormalForm is immutable")

    @staticmethod
    def zero() -> "NormalForm":
        return NormalForm({})

    @staticmethod
    def basis(a: int, b: int, e: int, coeff: Optional[MultiPoly] = None) -> "NormalForm":
        c = MultiPoly.const(1) if coeff is None else coeff
        if c.is_zero():
            return NormalForm({})
        return NormalForm({(a, b, e): c})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, NormalForm):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset((k, hash(v)) for k, v in self.terms.items()))

    def __add__(self, other: "NormalForm") -> "NormalForm":
        return NormalForm(accumulate(dict(self.terms), other.terms.items()))

    def __sub__(self, other: "NormalForm") -> "NormalForm":
        return NormalForm(accumulate(dict(self.terms),
                                     ((key, -val) for key, val in other.terms.items())))

    def scale(self, c) -> "NormalForm":
        if isinstance(c, MultiPoly):
            if c.is_zero():
                return NormalForm({})
            return NormalForm({k: v * c for k, v in self.terms.items()})
        return NormalForm({k: v.scale(c) for k, v in self.terms.items()})

    def __repr__(self):
        bits = [f"({a},{b},{e}):{v!r}" for (a, b, e), v in sorted(self.terms.items())]
        return "NormalForm{" + ", ".join(bits) + "}"


# -- word rewriting -----------------------------------------------------------

_BAD_PAIRS = {("P", "X"), ("G", "X"), ("G", "P"), ("G", "G")}


def _bad_positions(word: Word) -> List[int]:
    return [i for i in range(len(word) - 1) if (word[i], word[i + 1]) in _BAD_PAIRS]


def _rewrite_at(word: Word, i: int) -> List[Tuple[Word, MultiPoly]]:
    pair = (word[i], word[i + 1])
    head, tail = word[:i], word[i + 2:]
    if pair == ("P", "X"):
        return [
            (head + ("X", "P") + tail, MultiPoly.const(1)),
            (head + tail, _MINUS_I_CONST),
            (head + ("G",) + tail, _MINUS_2IK),
        ]
    if pair == ("G", "X"):
        return [(head + ("X", "G") + tail, MultiPoly.const(-1))]
    if pair == ("G", "P"):
        return [(head + ("P", "G") + tail, MultiPoly.const(-1))]
    return [(head + tail, MultiPoly.const(1))]  # G G


def _word_key(word: Word) -> Key:
    a = b = e = 0
    for ch in word:
        if ch == "X":
            a += 1
        elif ch == "P":
            b += 1
        else:
            e ^= 1
    return (a, b, e)


def reduce_word(word: Word, strategy: str = "leftmost",
                rng: Optional[random.Random] = None) -> NormalForm:
    """Rewrite an arbitrary generator word to its normal form.

    Each rule strictly decreases (#misordered pairs weighted by length),
    so any strategy terminates; confluence across strategies is a tested
    property, and the memoised leftmost route is the production path.
    """
    if strategy == "leftmost" and rng is None:
        return _reduce_leftmost(word)
    done: List[Tuple[Key, MultiPoly]] = []
    work: List[Tuple[Word, MultiPoly]] = [(word, MultiPoly.const(1))]
    while work:
        w, c = work.pop()
        bad = _bad_positions(w)
        if not bad:
            done.append((_word_key(w), c))
            continue
        if strategy == "leftmost":
            i = bad[0]
        elif strategy == "rightmost":
            i = bad[-1]
        elif strategy == "random":
            i = rng.choice(bad) if rng is not None else bad[0]
        else:
            raise ValueError(f"unknown strategy {strategy!r}")
        for nw, factor in _rewrite_at(w, i):
            work.append((nw, c * factor))
    return NormalForm(accumulate({}, done))


_reduce_cache: Dict[Word, NormalForm] = {}


def _reduce_leftmost(word: Word) -> NormalForm:
    """Memoised leftmost rewriting, depth-first with an explicit stack.

    A stack entry holds a word and, once it has been expanded, its
    rewrites; the entry is combined after every rewrite is in the cache.
    Rewriting is terminating, so no word waits on itself.
    """
    got = _reduce_cache.get(word)
    if got is not None:
        return got
    stack: List[Tuple[Word, Optional[List[Tuple[Word, MultiPoly]]]]] = [(word, None)]
    while stack:
        w, rewrites = stack[-1]
        if rewrites is None:
            if w in _reduce_cache:  # reached twice through shared rewrites
                stack.pop()
                continue
            bad = _bad_positions(w)
            if not bad:
                _reduce_cache[w] = NormalForm.basis(*_word_key(w))
                stack.pop()
                continue
            rewrites = _rewrite_at(w, bad[0])
            stack[-1] = (w, rewrites)
            stack.extend((nw, None) for nw, _ in rewrites if nw not in _reduce_cache)
            continue
        terms: Dict[Key, MultiPoly] = {}
        for nw, factor in rewrites:
            accumulate(terms, ((key, val * factor)
                               for key, val in _reduce_cache[nw].terms.items()))
        _reduce_cache[w] = NormalForm(terms)
        stack.pop()
    return _reduce_cache[word]


# -- product ------------------------------------------------------------------


def multiply(L: NormalForm, R: NormalForm) -> NormalForm:
    """PBW normal form of the product."""
    terms: Dict[Key, MultiPoly] = {}
    for (a1, b1, e1), c1 in L.terms.items():
        for (a2, b2, e2), c2 in R.terms.items():
            coeff = c1 * c2
            if e1 and (a2 + b2) % 2:
                coeff = -coeff
            # a reflection left in the middle passes P^b2 with sign (-1)^b2
            by_flag = (coeff, -coeff if b2 % 2 else coeff)
            middle = _reduce_leftmost(("P",) * b1 + ("X",) * a2)
            accumulate(terms, (((a1 + am, bm + b2, em ^ e1 ^ e2), by_flag[em] * cm)
                               for (am, bm, em), cm in middle.terms.items()))
    return NormalForm(terms)


# -- symbols ------------------------------------------------------------------


def from_symbol(plain, gamma: Optional[MultiPoly] = None) -> NormalForm:
    """Monomials x^a p^b k^c map to k^c X^a P^b; the reflection component
    (a crossed element's second part, or the optional second argument)
    carries the flag."""
    if not isinstance(plain, MultiPoly):  # a crossed element
        if gamma is not None:
            raise ValueError("pass either a crossed element or two polynomials")
        plain, gamma = plain.plain, plain.gamma
    terms: Dict[Key, MultiPoly] = {}
    for e, f in ((0, plain), (1, gamma)):
        if f is None:
            continue
        if f.variables() - {"x", "p", "k"}:
            raise ValueError("symbols must be polynomials in x, p, k")
        for b, fb in f.by_degree("p").items():
            for a, kpoly in fb.by_degree("x").items():
                terms[(a, b, e)] = kpoly
    return NormalForm(terms)


def to_symbol_layers(N: NormalForm) -> Dict[int, CrossedElement]:
    """Split by powers of k: layer l holds the plain/gamma symbol pair."""
    parts: Tuple[Dict, Dict] = ({}, {})
    for (a, b, e), kpoly in N.terms.items():
        xp = MultiPoly.monomial({"x": a, "p": b})
        accumulate(parts[e], (xp * kpoly).terms.items())
    return k_layers(CrossedElement(MultiPoly(parts[0]), MultiPoly(parts[1])))


def apply(N: NormalForm, g: MultiPoly) -> MultiPoly:
    """Operator action on a one-variable polynomial in x."""
    total = MultiPoly.zero()
    for (a, b, e), c in N.terms.items():
        h = g.reflect({"x": -1}) if e else g
        for _ in range(b):
            h = dunkl(h, "x").scale(MINUS_I)
        if h.is_zero():
            continue
        total = total + h * MultiPoly.monomial({"x": a}) * c
    return total


def action_vanishes(N: NormalForm, degree: int, k_values: Iterable) -> bool:
    """True iff N kills 1, x, ..., x^degree at every given k value."""
    monos = [MultiPoly.monomial({"x": d}) for d in range(degree + 1)]
    for g in monos:
        out = apply(N, g)
        for kv in k_values:
            if not out.eval_at({"k": kv}).is_zero():
                return False
    return True
