"""Recursive-descent parser for crossed-product expressions.

Grammar (LL(1), explicit multiplication only):

    expr   := '-'? term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' nat)?
    atom   := nat ('/' nat)? | 'i' | 'x' | 'p' | 'h1' | 'h2' | 'gamma'
            | '(' expr ')'

The gamma token may appear at most once multiplicatively per summand and
never under '^'; violations raise the dedicated placement error.  Each
nesting level costs four stack frames, so parentheses may nest at most
MAX_NESTING deep; a deeper '(' is a parse error.  Error positions are
1-based byte offsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

from .poly import MultiPoly
from .rational import GaussianRational
from .star import CrossedElement


class ParseError(ValueError):
    def __init__(self, offset: int, expected: Tuple[str, ...], found: str):
        self.offset = offset
        self.expected = tuple(expected)
        self.found = found
        want = " or ".join(expected)
        super().__init__(f"syntax error at offset {offset}: expected {want}, found {found}")


class GammaPlacementError(ParseError):
    def __init__(self, offset: int, why: str):
        self.offset = offset
        self.expected = ()
        self.found = "gamma"
        ValueError.__init__(self, f"gamma placement error at offset {offset}: {why}")


_KEYWORDS = ("i", "x", "p", "h1", "h2", "gamma")
MAX_NESTING = 100


@dataclass(frozen=True)
class Token:
    kind: str   # NAT IDENT + - * ^ / ( ) EOF
    text: str
    offset: int  # 1-based


def _tokenize(text: str) -> List[Token]:
    toks: List[Token] = []
    n = len(text)
    i = 0
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        start = i + 1
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(Token("NAT", text[i:j], start))
            i = j
        elif ch.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            if word not in _KEYWORDS:
                raise ParseError(start, _KEYWORDS, repr(word))
            toks.append(Token("IDENT", word, start))
            i = j
        elif ch in "+-*^/()":
            toks.append(Token(ch, ch, start))
            i += 1
        else:
            raise ParseError(start, ("expression token",), repr(ch))
    toks.append(Token("EOF", "", n + 1))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0
        self.depth = 0  # parentheses open at the current position

    def peek(self) -> Token:
        return self.toks[self.pos]

    def take(self, kind: str, expected: Tuple[str, ...]) -> Token:
        tok = self.toks[self.pos]
        if tok.kind != kind:
            raise ParseError(tok.offset, expected, tok.text or "end of input")
        self.pos += 1
        return tok

    # -- productions --------------------------------------------------------

    def expr(self) -> CrossedElement:
        if self.peek().kind == "-":
            self.pos += 1
            value = _neg(self.term())
        else:
            value = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.peek().kind
            self.pos += 1
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> CrossedElement:
        value = self.factor()
        while self.peek().kind == "*":
            self.pos += 1
            tok = self.peek()
            rhs = self.factor()
            value = _mul(value, rhs, tok.offset)
        return value

    def factor(self) -> CrossedElement:
        base_tok = self.peek()
        value = self.atom()
        if self.peek().kind == "^":
            self.pos += 1
            exp_tok = self.take("NAT", ("natural number",))
            if not value.gamma.is_zero():
                raise GammaPlacementError(base_tok.offset, "gamma cannot be raised to a power")
            value = CrossedElement.from_poly(value.plain ** int(exp_tok.text))
        return value

    def atom(self) -> CrossedElement:
        tok = self.peek()
        if tok.kind == "NAT":
            self.pos += 1
            num = int(tok.text)
            if self.peek().kind == "/":
                self.pos += 1
                den_tok = self.take("NAT", ("natural number",))
                den = int(den_tok.text)
                if den == 0:
                    raise ParseError(den_tok.offset, ("nonzero denominator",), "0")
                return CrossedElement.from_poly(MultiPoly.const(Fraction(num, den)))
            return CrossedElement.from_poly(MultiPoly.const(num))
        if tok.kind == "IDENT":
            self.pos += 1
            if tok.text == "i":
                return CrossedElement.from_poly(MultiPoly.const(GaussianRational(0, 1)))
            if tok.text == "gamma":
                return CrossedElement(MultiPoly.zero(), MultiPoly.const(1))
            return CrossedElement.from_poly(MultiPoly.var(tok.text))
        if tok.kind == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(tok.offset, (f"at most {MAX_NESTING} nested parentheses",),
                                 "'('")
            self.pos += 1
            self.depth += 1
            value = self.expr()
            self.take(")", ("')'",))
            self.depth -= 1
            return value
        raise ParseError(tok.offset, ("number", "variable", "'('"),
                         tok.text or "end of input")


def _neg(A: CrossedElement) -> CrossedElement:
    return CrossedElement(-A.plain, -A.gamma)


def _mul(L: CrossedElement, R: CrossedElement, offset: int) -> CrossedElement:
    if not L.gamma.is_zero() and not R.gamma.is_zero():
        raise GammaPlacementError(offset, "at most one factor of a product may carry gamma")
    return CrossedElement(L.plain * R.plain, L.plain * R.gamma + L.gamma * R.plain)


def parse(text: str) -> CrossedElement:
    """Parse an expression into a crossed-product element."""
    parser = _Parser(text)
    value = parser.expr()
    parser.take("EOF", ("operator", "end of input"))
    return value
