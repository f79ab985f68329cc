"""Sparse exact multivariate polynomials over GaussianRational.

Monomials are tuples of (variable index, exponent) pairs, sorted by a
fixed global variable order and never carrying zero exponents; the terms
map never stores a zero coefficient, so equality is plain dict equality.
All values are immutable after construction and all operations are pure.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Tuple, Union

from .rational import GaussianRational, Rat, ZERO, ONE

Mono = Tuple[Tuple[int, int], ...]
Coeff = GaussianRational

# Fixed global variable order.  x, p are the symbol variables, k the
# reflection-coupling parameter, h1/h2 the two deformation parameters,
# y/p1 internal working variables of the operator-expansion oracle, and
# q1, q2, ... auxiliary divided-difference slots created on demand.
_VAR_NAMES = ["x", "p", "k", "h1", "h2", "y", "p1"]
_VAR_INDEX = {name: i for i, name in enumerate(_VAR_NAMES)}


def var_index(name: str) -> int:
    idx = _VAR_INDEX.get(name)
    if idx is None:
        if name.startswith("q") and name[1:].isdigit() and name[1] != "0":
            # register q-slots densely so q1 < q2 < ... regardless of
            # the order they are first seen
            top = int(name[1:])
            for j in range(1, top + 1):
                qname = f"q{j}"
                if qname not in _VAR_INDEX:
                    _VAR_INDEX[qname] = len(_VAR_NAMES)
                    _VAR_NAMES.append(qname)
            return _VAR_INDEX[name]
        raise KeyError(f"unknown variable {name!r}")
    return idx


def var_name(idx: int) -> str:
    return _VAR_NAMES[idx]


def aux_slot(j: int) -> str:
    """Name of the j-th auxiliary divided-difference slot (1-based)."""
    name = f"q{j}"
    var_index(name)
    return name


class ExactDivisionError(ArithmeticError):
    """Raised by divide_exact when the quotient is not a polynomial."""


def accumulate(terms: dict, items: Iterable[tuple]) -> dict:
    """Add (key, value) pairs into ``terms`` in place and return it.

    A key whose sum cancels is dropped and zero inputs are skipped, so
    ``terms`` never holds a zero value.  Values need ``+`` and
    ``__bool__``: coefficients and polynomials alike.
    """
    get = terms.get
    for key, value in items:
        prev = get(key)
        if prev is None:
            if value:
                terms[key] = value
        else:
            s = prev + value
            if s:
                terms[key] = s
            else:
                del terms[key]
    return terms


def _as_coeff(c: Union[Coeff, Rat]) -> Coeff:
    if isinstance(c, GaussianRational):
        return c
    return GaussianRational(c)


class MultiPoly:
    """Sparse polynomial; ``terms`` maps monomial -> nonzero coefficient."""

    __slots__ = ("terms",)

    def __init__(self, terms: Dict[Mono, Coeff]):
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero() -> "MultiPoly":
        return _ZERO

    @staticmethod
    def const(c: Union[Coeff, Rat]) -> "MultiPoly":
        c = _as_coeff(c)
        return MultiPoly({(): c}) if c else _ZERO

    @staticmethod
    def var(name: str, exp: int = 1) -> "MultiPoly":
        if exp < 0:
            raise ValueError("negative exponent")
        if exp == 0:
            return MultiPoly.const(1)
        return MultiPoly({((var_index(name), exp),): ONE})

    @staticmethod
    def monomial(exps: Mapping[str, int], c: Union[Coeff, Rat] = 1) -> "MultiPoly":
        c = _as_coeff(c)
        if not c:
            return _ZERO
        mono = tuple(sorted((var_index(v), e) for v, e in exps.items() if e))
        if any(e < 0 for _, e in mono):
            raise ValueError("negative exponent")
        return MultiPoly({mono: c})

    # -- basic queries --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def variables(self) -> set:
        names = set()
        for mono in self.terms:
            for idx, _ in mono:
                names.add(_VAR_NAMES[idx])
        return names

    def degree(self, name: str) -> int:
        """Largest exponent of ``name``; -1 on the zero polynomial."""
        idx = var_index(name)
        deg = -1 if not self.terms else 0
        for mono in self.terms:
            for i, e in mono:
                if i == idx and e > deg:
                    deg = e
        return deg

    def constant_value(self) -> Coeff:
        """Coefficient of the constant monomial."""
        return self.terms.get((), ZERO)

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        if not self.terms:
            return other
        if not other.terms:
            return self
        return MultiPoly(accumulate(dict(self.terms), other.terms.items()))

    def __neg__(self) -> "MultiPoly":
        return MultiPoly({mono: -c for mono, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        if not other.terms:
            return self
        return self + (-other)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        if not self.terms or not other.terms:
            return _ZERO
        # multiplying by a single monomial is injective on keys
        if len(other.terms) == 1:
            ((m2, c2),) = other.terms.items()
            return MultiPoly({_mono_mul(m1, m2): c1 * c2
                              for m1, c1 in self.terms.items()})
        if len(self.terms) == 1:
            ((m1, c1),) = self.terms.items()
            return MultiPoly({_mono_mul(m1, m2): c1 * c2
                              for m2, c2 in other.terms.items()})
        return MultiPoly(accumulate({}, ((_mono_mul(m1, m2), c1 * c2)
                                         for m1, c1 in self.terms.items()
                                         for m2, c2 in other.terms.items())))

    def scale(self, c: Union[Coeff, Rat]) -> "MultiPoly":
        c = _as_coeff(c)
        if not c:
            return _ZERO
        return MultiPoly({mono: v * c for mono, v in self.terms.items()})

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ValueError("negative power")
        result = MultiPoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- calculus-flavoured operations ----------------------------------------

    def differentiate(self, name: str) -> "MultiPoly":
        """Formal partial derivative with respect to ``name``.

        Lowering one exponent maps distinct monomials to distinct
        monomials, so no two terms merge.
        """
        idx = var_index(name)
        terms: Dict[Mono, Coeff] = {}
        for mono, c in self.terms.items():
            for pos, (i, e) in enumerate(mono):
                if i == idx:
                    lowered = ((i, e - 1),) if e > 1 else ()
                    new = mono[:pos] + lowered + mono[pos + 1:]
                    terms[new] = GaussianRational(c.re * e, c.im * e)
                    break
        return MultiPoly(terms)

    def reflect(self, signs: Mapping[str, int]) -> "MultiPoly":
        """Substitute v -> sign*v for each entry of ``signs`` (signs in {1,-1})."""
        flip = set()
        for name, s in signs.items():
            if s == -1:
                flip.add(var_index(name))
            elif s != 1:
                raise ValueError("signs must be +1 or -1")
        if not flip:
            return self
        terms: Dict[Mono, Coeff] = {}
        for mono, c in self.terms.items():
            parity = sum(e for i, e in mono if i in flip) & 1
            terms[mono] = -c if parity else c
        return MultiPoly(terms)

    def rename(self, old: str, new: str) -> "MultiPoly":
        """Substitute the variable ``old`` by the variable ``new``."""
        if old == new:
            return self
        oidx, nidx = var_index(old), var_index(new)

        def renamed():
            for mono, c in self.terms.items():
                e_old = 0
                rest = []
                for i, e in mono:
                    if i == oidx:
                        e_old = e
                    else:
                        rest.append((i, e))
                if e_old:
                    merged = False
                    for pos, (i, e) in enumerate(rest):
                        if i == nidx:
                            rest[pos] = (i, e + e_old)
                            merged = True
                            break
                    if not merged:
                        rest.append((nidx, e_old))
                    rest.sort()
                yield tuple(rest), c

        return MultiPoly(accumulate({}, renamed()))

    def eval_at(self, values: Mapping[str, Union[Coeff, Rat]]) -> "MultiPoly":
        """Partially evaluate variables at exact numbers."""
        vals = {var_index(v): _as_coeff(c) for v, c in values.items()}

        def evaluated():
            for mono, c in self.terms.items():
                factor = c
                rest = []
                for i, e in mono:
                    v = vals.get(i)
                    if v is None:
                        rest.append((i, e))
                    else:
                        while e:  # factor * v**e by repeated squaring
                            if e & 1:
                                factor = factor * v
                            e >>= 1
                            if e:
                                v = v * v
                yield tuple(rest), factor

        return MultiPoly(accumulate({}, evaluated()))

    def by_degree(self, name: str) -> Dict[int, "MultiPoly"]:
        """Group the terms by the exponent of ``name``, with that variable
        stripped from each monomial; the zero polynomial has no groups.

        Stripping one variable keeps distinct monomials of the same
        exponent distinct, so no two terms merge.
        """
        idx = var_index(name)
        groups: Dict[int, Dict[Mono, Coeff]] = {}
        for mono, c in self.terms.items():
            e, rest = 0, mono
            for pos, (i, ex) in enumerate(mono):
                if i == idx:
                    e, rest = ex, mono[:pos] + mono[pos + 1:]
                    break
            groups.setdefault(e, {})[rest] = c
        return {e: MultiPoly(t) for e, t in groups.items()}

    def __repr__(self) -> str:
        if not self.terms:
            return "MultiPoly(0)"
        bits = []
        for mono, c in sorted(self.terms.items()):
            factors = [f"{_VAR_NAMES[i]}^{e}" if e > 1 else _VAR_NAMES[i] for i, e in mono]
            bits.append(f"{c}" + ("*" + "*".join(factors) if factors else ""))
        return "MultiPoly(" + " + ".join(bits) + ")"


_ZERO = MultiPoly({})


_mono_mul_cache: Dict[Tuple[Mono, Mono], Mono] = {}


def _mono_mul(m1: Mono, m2: Mono) -> Mono:
    if not m1:
        return m2
    if not m2:
        return m1
    got = _mono_mul_cache.get((m1, m2))
    if got is not None:
        return got
    out = []
    i = j = 0
    n1, n2 = len(m1), len(m2)
    while i < n1 and j < n2:
        v1, e1 = m1[i]
        v2, e2 = m2[j]
        if v1 == v2:
            out.append((v1, e1 + e2))
            i += 1
            j += 1
        elif v1 < v2:
            out.append(m1[i])
            i += 1
        else:
            out.append(m2[j])
            j += 1
    out.extend(m1[i:])
    out.extend(m2[j:])
    result = tuple(out)
    if len(_mono_mul_cache) < 1_000_000:
        _mono_mul_cache[(m1, m2)] = result
    return result


def _mono_key(mono: Mono):
    # graded lex in the global variable order; dense key so sparse tuples
    # of different supports compare correctly
    total = sum(e for _, e in mono)
    dense = [0] * len(_VAR_NAMES)
    for i, e in mono:
        dense[i] = e
    return (total, tuple(dense))


def _mono_divides(d: Mono, m: Mono) -> bool:
    got = dict(m)
    return all(got.get(i, 0) >= e for i, e in d)


def _mono_quot(m: Mono, d: Mono) -> Mono:
    got = dict(m)
    for i, e in d:
        got[i] -= e
    return tuple(sorted((i, e) for i, e in got.items() if e))


def divide_exact(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Exact quotient f/g; raises ExactDivisionError if g does not divide f.

    Single-divisor division against the graded-lex leading term.  When g
    divides f every partial remainder is still a multiple of g, so its
    leading term is always cancellable; a non-cancellable leading term
    therefore proves non-divisibility.
    """
    if g.is_zero():
        raise ExactDivisionError("division by the zero polynomial")
    lead = max(g.terms, key=_mono_key)
    lead_c = g.terms[lead]
    quot: Dict[Mono, Coeff] = {}
    rem = dict(f.terms)
    while rem:
        m = max(rem, key=_mono_key)
        if not _mono_divides(lead, m):
            raise ExactDivisionError("polynomials do not divide exactly")
        q_mono = _mono_quot(m, lead)
        q_c = rem[m] / lead_c
        quot[q_mono] = q_c
        minus_q = -q_c
        accumulate(rem, ((_mono_mul(q_mono, gm), minus_q * gc)
                         for gm, gc in g.terms.items()))
    return MultiPoly(quot)
