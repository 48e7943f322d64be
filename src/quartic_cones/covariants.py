"""Covariants of a plane quartic and the j-function of its line sections.

Pipeline: restrict the quartic H(x,y,z) to the general line with dual
coordinates (s,t,u) working in the chart u != 0, collect the binary
quartic coefficients b0..b4, form the two classical binary-quartic
invariants h2 and h3, and divide out u^4 and u^6 to obtain the degree-4
and degree-6 covariants g4 and g6 on the dual plane.  The degree-12 form
4*g4^3 - 27*g6^2 cuts out the projectively dual curve, and

    j = 1728 * 4*g4^3 / (4*g4^3 - 27*g6^2)

is the j-invariant of the quadruple of points the line cuts on the
quartic.  Coefficients of the quartic may contain extra parameter
variables; everything downstream stays exact and polynomial in them.

The products of the chain run on packed integers (polycore's ``pack``):
b0..b4 are packed once, ``binary_invariants`` forms h2 and h3 on the
packed values, and only h2 and h3 are unpacked for the divisions by u^4
and u^6; g4 and g6 are packed once more for the dual curve, which is
unpacked once.  Each layout's degree bound is sized for the chain's
highest power (b cubed, g4 cubed and g6 squared), and a product past it
raises instead of carrying between bit fields.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import comb
from typing import Sequence, Tuple

from .polycore import (
    HomogeneityError,
    Poly,
    PolyError,
    coefficients_multi,
    exact_divide,
    pack,
)
from .polyio import point_coordinates
from .record import record

XYZ = ("x", "y", "z")
STU = ("s", "t", "u")


class InternalConsistencyError(PolyError):
    """Two independent computations of the same object disagreed."""


class OnDualCurve(PolyError):
    """j has a pole: the point lies on the dual curve 4*g4^3 - 27*g6^2 = 0."""

    def __init__(self, point, g4_value, g6_value):
        super().__init__(f"point {tuple(map(str, point))} lies on the dual curve")
        self.point = tuple(point)
        self.g4_value = g4_value
        self.g6_value = g6_value


class IndeterminateJ(PolyError):
    """g4 and g6 both vanish: neither cross-ratio nor j is defined."""

    def __init__(self, point):
        super().__init__(f"j indeterminate at {tuple(map(str, point))}: g4 = g6 = 0")
        self.point = tuple(point)


class DegenerateQuadruple(PolyError):
    """A quadruple with a repeated member has no j-invariant."""


class QuarticCurve:
    """Plane quartic: a polynomial homogeneous of degree 4 in x, y, z.

    Coefficients may involve further parameter variables (weight 0); the
    accessor a(i,j,k) returns the coefficient of x^i y^j z^k as a
    polynomial in those parameters.
    """

    def __init__(self, poly: Poly):
        if poly.is_zero() or poly.weighted_degrees({v: 1 for v in XYZ}) != {4}:
            raise HomogeneityError("quartic must be homogeneous of degree 4 in x, y, z")
        self.poly = poly
        self._coeffs = coefficients_multi(poly, XYZ)

    def a(self, i: int, j: int, k: int) -> Poly:
        if i + j + k != 4 or min(i, j, k) < 0:
            raise PolyError(f"a({i},{j},{k}) needs i+j+k = 4, all non-negative")
        return self._coeffs.get((i, j, k), Poly.zero())

    @cached_property
    def restriction(self) -> "LineRestriction":
        """line_restriction(self), cross-checked once per curve."""
        return line_restriction(self)


@record
class LineRestriction:
    """The five binary-quartic coefficients b0..b4 of the line section."""

    b: Tuple[Poly, Poly, Poly, Poly, Poly]

    def __iter__(self):
        return iter(self.b)


@record
class CovariantPair:
    g4: Poly
    g6: Poly

    @cached_property
    def dual(self) -> "DualCurve":
        """dual_curve(self), built once per pair: the pair is immutable."""
        return dual_curve(self)

    @cached_property
    def cone(self):
        """The sextic double cone of this pair, built once."""
        from .cone import cone_equation

        return cone_equation(self)


@record
class DualCurve:
    G: Poly

    @cached_property
    def gradient(self) -> Tuple[Poly, Poly, Poly]:
        """The partials of G in s, t, u."""
        return tuple(self.G.partial(v) for v in STU)


def line_restriction(curve: QuarticCurve) -> LineRestriction:
    """b0..b4 with sum(b[4-r] x^r y^(4-r)) == H(u*x, u*y, -(s*x + t*y)).

    Computed both by substitution and by the closed binomial formula;
    the two must agree exactly.
    """
    s, t, u = (Poly.var(v) for v in STU)
    substituted = curve.poly.subs({
        "x": u * Poly.var("x"),
        "y": u * Poly.var("y"),
        "z": -(s * Poly.var("x") + t * Poly.var("y")),
    })
    by_xy = coefficients_multi(substituted, ("x", "y"))
    b_sub = []
    for r in range(5):
        # coefficient of x^r y^(4-r) is b_{4-r}
        b_sub.append(by_xy.get((4 - r, r), Poly.zero()))
    for key in by_xy:
        if sum(key) != 4:
            raise InternalConsistencyError("line restriction not homogeneous in x, y")

    b_formula = []
    for r in range(5):
        total = Poly.zero()
        for j in range(r + 1):
            for k in range(4 - j + 1):
                i = 4 - j - k
                m = k + j - r
                if m < 0 or m > k:
                    continue
                a_ijk = curve.a(i, j, k)
                if a_ijk.is_zero():
                    continue
                sign = -1 if k % 2 else 1
                mono = (Poly.var("s") ** m) * (Poly.var("t") ** (r - j)) \
                    * (Poly.var("u") ** (4 - k))
                total = total + a_ijk * (sign * comb(k, m)) * mono
        b_formula.append(total)

    if b_sub != b_formula:
        raise InternalConsistencyError(
            "substitution and closed-formula line restrictions disagree")
    return LineRestriction(tuple(b_sub))


def binary_invariants(b: Sequence) -> Tuple:
    """The two invariants (h2, h3) of a binary quartic b0 x^4 + ... + b4 y^4.

    Works over polynomials, packed polynomials or plain rationals.
    Normalized so that j = 1728 * 4*h2^3 / (4*h2^3 - 27*h3^2), and the
    denominator is exactly the discriminant of the binary quartic.
    """
    b0, b1, b2, b3, b4 = b
    h2 = (-3 * b1 * b3 + 12 * b0 * b4 + b2 * b2) * Fraction(1, 3)
    h3 = (72 * b0 * b2 * b4 - 27 * b0 * b3 * b3 - 27 * b1 * b1 * b4
          + 9 * b1 * b2 * b3 - 2 * b2 * b2 * b2) * Fraction(1, 27)
    return h2, h3


def covariants(curve: QuarticCurve) -> CovariantPair:
    """The degree-4 and degree-6 covariants: h2 = u^4 g4, h3 = u^6 g6.

    b0..b4 are packed once, under a degree bound of 3 deg b (h3 is cubic
    in b), ``binary_invariants`` runs on the packed values, and h2 and h3
    are unpacked once each before the exact divisions.
    """
    h2, h3 = binary_invariants(pack(curve.restriction.b, lambda degs: 3 * max(degs)))
    u = Poly.var("u")
    return CovariantPair(exact_divide(h2.unpack(), u ** 4), exact_divide(h3.unpack(), u ** 6))


def dual_curve(pair: CovariantPair) -> DualCurve:
    """Degree-12 dual curve G = 4 g4^3 - 27 g6^2.

    g4 and g6 are packed once, under a degree bound that holds both g4^3
    and g6^2, and G is unpacked once.
    """
    g4, g6 = pack([pair.g4, pair.g6], lambda degs: max(3 * degs[0], 2 * degs[1]))
    return DualCurve((4 * g4 ** 3 - 27 * g6 ** 2).unpack())


def dual_values(pair: CovariantPair, point) -> Tuple[Fraction, Fraction, Fraction]:
    """g4, g6 and the dual curve G = 4 g4^3 - 27 g6^2 at a rational dual-plane point."""
    at = dict(zip(STU, point_coordinates(point, "P2")))
    g4v, g6v = pair.g4.eval_at(at), pair.g6.eval_at(at)
    return g4v, g6v, 4 * g4v ** 3 - 27 * g6v ** 2


def j_of_values(where, a: Fraction, b: Fraction, disc: Fraction) -> Fraction:
    """j = 1728 * 4 a^3 / disc for binary-quartic invariants a, b and disc = 4 a^3 - 27 b^2.

    The invariants are g4, g6 at a dual point (``dual_values``) or h2, h3.
    Raises IndeterminateJ(where) when a = b = 0 and OnDualCurve(where, a,
    b) when only disc vanishes.
    """
    if disc == 0:
        if a == 0 and b == 0:
            raise IndeterminateJ(where)
        raise OnDualCurve(where, a, b)
    return 1728 * 4 * a ** 3 / disc


def j_eval(pair: CovariantPair, point) -> Fraction:
    """Exact j-value at a rational dual-plane point, off the dual curve."""
    return j_of_values(point, *dual_values(pair, point))


def j_from_roots(x1, x2, x3, x4) -> Fraction:
    """j-invariant of four distinct points of the affine line.

    Uses the manifestly symmetric reading of the cross-ratio formula, so
    the value is invariant under all 24 orderings.
    """
    xs = [Fraction(v) for v in (x1, x2, x3, x4)]
    for i in range(4):
        for j in range(i + 1, 4):
            if xs[i] == xs[j]:
                raise DegenerateQuadruple(f"repeated member {xs[i]} in quadruple")
    a, b, c, d = xs
    num = (a - b) ** 2 * (d - c) ** 2 - (a - c) * (d - b) * (d - a) * (c - b)
    den = Fraction(1)
    for i in range(4):
        for j in range(i + 1, 4):
            den *= (xs[i] - xs[j]) ** 2
    return 256 * num ** 3 / den


def j_from_cross_ratio(lam: Fraction) -> Fraction:
    """j = 256 (1 - lam(1 - lam))^3 / (lam^2 (1 - lam)^2)."""
    lam = Fraction(lam)
    if lam in (0, 1):
        raise DegenerateQuadruple("cross-ratio 0 or 1 comes from a repeated point")
    return 256 * (1 - lam * (1 - lam)) ** 3 / (lam ** 2 * (1 - lam) ** 2)


def cross_ratio(x1, x2, x3, x4) -> Fraction:
    """(x1 - x3)(x4 - x2) / ((x1 - x2)(x4 - x3))."""
    x1, x2, x3, x4 = (Fraction(v) for v in (x1, x2, x3, x4))
    den = (x1 - x2) * (x4 - x3)
    if den == 0:
        raise DegenerateQuadruple("cross-ratio undefined: repeated member")
    return (x1 - x3) * (x4 - x2) / den


def j_of_binary_quartic(b: Sequence[Fraction]) -> Fraction:
    """j of a squarefree binary quartic given by its five coefficients."""
    h2, h3 = binary_invariants([Fraction(v) for v in b])
    try:
        return j_of_values(tuple(b), h2, h3, 4 * h2 ** 3 - 27 * h3 ** 2)
    except OnDualCurve:
        raise DegenerateQuadruple("binary quartic has a repeated root (discriminant 0)") from None
