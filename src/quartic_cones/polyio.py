"""Text grammar for polynomials and projective points.

Expression grammar (EBNF), the package's only parsing surface:

    expr     := term (('+' | '-') term)*
    term     := factor ('*' factor)*
    factor   := '-' factor | base ('^' nat)?
    base     := rational | ident | '(' expr ')'
    rational := int ('/' nat)?

Whitespace is insignificant.  Identifiers match [a-zA-Z][a-zA-Z0-9]*.
Multiplication is always explicit: "xy" is a single identifier, never
x*y, which keeps multi-character coefficient names like a310 unambiguous.

The parser bounds what an expression may cost before it multiplies:
a product or power whose total degree would exceed ``MAX_DEGREE``, or a
power whose base's largest numerator or denominator, in bits, times the
exponent exceeds ``MAX_POWER_BITS`` (``2^100000``), raises ParseError
without being computed.

Points files carry one point per line as comma-separated rational
literals; '#' starts a comment.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, List, Tuple

from .polycore import Poly, format_poly


class ParseError(Exception):
    """Syntax or scope error with the offending position (0-based offset)."""

    def __init__(self, message: str, text: str, pos: int):
        line = text.count("\n", 0, pos) + 1
        col = pos - (text.rfind("\n", 0, pos) + 1)
        super().__init__(f"{message} at line {line}, column {col} (offset {pos})")
        self.pos = pos
        self.line = line
        self.column = col


AMBIENT_SIZES = {"P2": 3, "P3": 4}

# Caps on a parsed expression (see the module docstring).  A plane quartic
# with parameters stays far below both.
MAX_DEGREE = 32
MAX_POWER_BITS = 4096


def point_coordinates(p, ambient: str) -> Tuple[Fraction, ...]:
    """Rational coordinates of a point of ``ambient``, the package's one point coercion.

    ``p`` is any sequence of rationals.  An unknown ambient, the wrong
    number of coordinates for it, or no nonzero coordinate raises
    ValueError, checked in that order.
    """
    if ambient not in AMBIENT_SIZES:
        raise ValueError(f"unknown ambient {ambient!r}")
    if len(p) != AMBIENT_SIZES[ambient]:
        raise ValueError(f"{ambient} point needs {AMBIENT_SIZES[ambient]} "
                         f"coordinates, got {len(p)}")
    coords = tuple(Fraction(c) for c in p)
    if not any(coords):
        raise ValueError("projective point must have a nonzero coordinate")
    return coords


_TOKEN = re.compile(r"\s*(?:(?P<num>\d+)|(?P<ident>[a-zA-Z][a-zA-Z0-9]*)"
                    r"|(?P<op>[-+*/^()]))")


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.items: List[Tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            if text[pos].isspace():
                pos += 1
                continue
            m = _TOKEN.match(text, pos)
            if m is None:
                raise ParseError(f"unexpected character {text[pos]!r}", text, pos)
            kind = m.lastgroup
            self.items.append((kind, m.group(kind), m.start(kind)))
            pos = m.end()
        self.i = 0

    def peek(self):
        if self.i < len(self.items):
            return self.items[self.i]
        return ("eof", "", len(self.text))

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok


class _Parser:
    def __init__(self, text: str, declared: Iterable[str]):
        self.text = text
        self.declared = set(declared)
        self.tokens = _Tokens(text)

    def fail(self, message: str, pos: int):
        raise ParseError(message, self.text, pos)

    def check_degree(self, degree: int, pos: int):
        if degree > MAX_DEGREE:
            self.fail(f"degree {degree} exceeds the cap of {MAX_DEGREE}", pos)

    def parse(self) -> Poly:
        p = self.expr()
        kind, value, pos = self.tokens.peek()
        if kind != "eof":
            self.fail(f"unexpected {value!r}", pos)
        return Poly(p.terms, p.variables | self.declared)

    def expr(self) -> Poly:
        p = self.term()
        while True:
            kind, value, _ = self.tokens.peek()
            if kind == "op" and value in "+-":
                self.tokens.next()
                q = self.term()
                p = p + q if value == "+" else p - q
            else:
                return p

    def term(self) -> Poly:
        p = self.factor()
        while True:
            kind, value, pos = self.tokens.peek()
            if kind == "op" and value == "*":
                self.tokens.next()
                q = self.factor()
                self.check_degree(_degree(p) + _degree(q), pos)
                p = p * q
            else:
                return p

    def factor(self) -> Poly:
        kind, value, pos = self.tokens.peek()
        if kind == "op" and value == "-":
            self.tokens.next()
            return -self.factor()
        p = self.base()
        kind, value, pos = self.tokens.peek()
        if kind == "op" and value == "^":
            self.tokens.next()
            kind, value, pos = self.tokens.next()
            if kind != "num":
                self.fail("expected a non-negative integer exponent after '^'", pos)
            n = int(value)
            self.check_degree(_degree(p) * n, pos)
            bits = max((max(c.numerator.bit_length(), c.denominator.bit_length())
                        for c in p.terms.values()), default=0) * n
            if bits > MAX_POWER_BITS:
                self.fail(f"a power of up to {bits} bits exceeds the cap of {MAX_POWER_BITS}", pos)
            return p ** n
        return p

    def base(self) -> Poly:
        kind, value, pos = self.tokens.next()
        if kind == "num":
            numerator = int(value)
            kind2, value2, pos2 = self.tokens.peek()
            if kind2 == "op" and value2 == "/":
                self.tokens.next()
                kind3, value3, pos3 = self.tokens.next()
                if kind3 != "num":
                    self.fail("expected an integer denominator after '/'", pos3)
                if int(value3) == 0:
                    self.fail("zero denominator", pos3)
                return Poly.const(Fraction(numerator, int(value3)))
            return Poly.const(Fraction(numerator))
        if kind == "ident":
            if value not in self.declared:
                self.fail(f"undeclared variable {value!r}", pos)
            return Poly.var(value)
        if kind == "op" and value == "(":
            p = self.expr()
            kind2, value2, pos2 = self.tokens.next()
            if not (kind2 == "op" and value2 == ")"):
                self.fail("expected ')'", pos2)
            return p
        self.fail(f"expected a rational, variable, or '(' (got {value!r})"
                  if kind != "eof" else "unexpected end of input", pos)


def _degree(p: Poly) -> int:
    return max((sum(e for _, e in m) for m in p.terms), default=0)


def parse_poly(src: str, declared_variables: Iterable[str] = ()) -> Poly:
    """Parse an expression into an exact Poly over the declared variables.

    Undeclared identifiers, malformed syntax, non-natural exponents, and
    products or powers past ``MAX_DEGREE`` or ``MAX_POWER_BITS`` raise
    ParseError with position information.
    """
    return _Parser(src, declared_variables).parse()


def scan_identifiers(text: str) -> Tuple[str, ...]:
    """All identifiers appearing in an expression, in order of first use."""
    seen = []
    for m in re.finditer(r"[a-zA-Z][a-zA-Z0-9]*", text):
        if m.group(0) not in seen:
            seen.append(m.group(0))
    return tuple(seen)


def print_poly(p: Poly) -> str:
    """Canonical text form; parse_poly(print_poly(p)) == p."""
    return format_poly(p)


def parse_rational(text: str) -> Fraction:
    """A signed rational literal: [-]int[/nat]."""
    m = re.fullmatch(r"\s*(-?\d+)\s*(?:/\s*(\d+)\s*)?", text)
    if m is None:
        raise ParseError(f"malformed rational literal {text.strip()!r}", text, 0)
    den = int(m.group(2)) if m.group(2) else 1
    if den == 0:
        raise ParseError("zero denominator", text, 0)
    return Fraction(int(m.group(1)), den)


def parse_point(text: str, ambient: str) -> Tuple[Fraction, ...]:
    """Comma-separated rational coordinates of a point of ``ambient``."""
    return point_coordinates([parse_rational(part) for part in text.split(",")], ambient)


def parse_points_file(text: str, ambient: str) -> List[Tuple[Fraction, ...]]:
    """One point per line, comma-separated rationals, '#' comments."""
    points = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        points.append(parse_point(line, ambient))
    return points
