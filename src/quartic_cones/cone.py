"""Sextic double cones in P(1,1,1,2,3) built from quartic covariants.

The hypersurface F = -w^2 + v^3 - g4(s,t,u) v + g6(s,t,u) = 0 carries one
singular point for each singular point of the degree-12 dual curve of the
source quartic.  This module builds the equation, certifies singular
points and their nodality through exact Hessians, realizes the lift from
dual-curve singularities, keeps the bitangent/flex bookkeeping, and
constructs the symmetric one-parameter family with its special surfaces.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Tuple

from .covariants import CovariantPair, QuarticCurve, covariants
from .polycore import (
    Poly,
    PolyError,
    rational_sqrt,
    det_fraction,
)
from .polyio import point_coordinates
from .record import record

WEIGHTS = {"s": 1, "t": 1, "u": 1, "v": 2, "w": 3}
COORDS = ("s", "t", "u", "v", "w")
STU = ("s", "t", "u")


class ConeError(PolyError):
    pass


class NotDualSingular(ConeError):
    """The given dual-plane point is not a singular point of the dual curve."""


class Unclassifiable(ConeError):
    """Neither lift branch applies to the given dual singular point."""


class NoUnitChart(ConeError):
    """All weight-1 coordinates vanish: no affine chart for the Hessian."""


class InfeasibleCounts(ConeError):
    """Requested bitangent/flex counts violate the linear relations."""


class ExcludedParameter(ConeError):
    """The family parameter hits one of the singular values -2, 2, -1."""


class ConeEquation:
    """F = -w^2 + v^3 - g4 v + g6, weighted-homogeneous of degree 6."""

    def __init__(self, pair: CovariantPair):
        v, w = Poly.var("v"), Poly.var("w")
        F = -(w ** 2) + v ** 3 - pair.g4 * v + pair.g6
        if F.weighted_degrees(WEIGHTS) != {6}:
            raise ConeError("cone equation is not weighted-homogeneous of degree 6")
        self.partials = {name: F.partial(name) for name in COORDS}
        euler = Poly.zero()
        for name, weight in WEIGHTS.items():
            euler = euler + weight * Poly.var(name) * self.partials[name]
        if euler != 6 * F:
            raise ConeError("weighted Euler identity failed")  # pragma: no cover
        self.pair = pair
        self.F = F


def rational_cbrt(c: Fraction) -> Optional[Fraction]:
    """Exact rational cube root of c, or None when c is not a cube."""
    c = Fraction(c)
    n, d = abs(c.numerator), c.denominator
    rn, rd = _icbrt(n), _icbrt(d)
    if rn ** 3 == n and rd ** 3 == d:
        return Fraction(rn if c >= 0 else -rn, rd)
    return None


def _icbrt(n: int) -> int:
    lo, hi = 0, 1 << ((n.bit_length() + 2) // 3 + 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid ** 3 <= n:
            lo = mid
        else:
            hi = mid - 1
    return lo


class WeightedPoint:
    """Point of P(1,1,1,2,3): coordinates up to (u s, u t, u u, u^2 v, u^3 w)."""

    def __init__(self, s, t, u, v, w):
        coords = tuple(Fraction(c) for c in (s, t, u, v, w))
        if all(c == 0 for c in coords):
            raise ConeError("weighted point must have a nonzero coordinate")
        self.coords = coords

    def __iter__(self):
        return iter(self.coords)

    def __repr__(self):
        return "WeightedPoint(" + ":".join(str(c) for c in self.coords) + ")"

    def scaled(self, mu: Fraction) -> "WeightedPoint":
        mu = Fraction(mu)
        if mu == 0:
            raise ConeError("scaling factor must be nonzero")
        s, t, u, v, w = self.coords
        return WeightedPoint(mu * s, mu * t, mu * u, mu ** 2 * v, mu ** 3 * w)

    def __eq__(self, other):
        if not isinstance(other, WeightedPoint):
            return NotImplemented
        a, b = self.coords, other.coords
        for i in range(3):  # normalize by the first nonzero weight-1 coordinate
            if a[i] != 0 or b[i] != 0:
                if a[i] == 0 or b[i] == 0:
                    return False
                return self.scaled(1 / a[i]).coords == other.scaled(1 / b[i]).coords
        av, aw, bv, bw = a[3], a[4], b[3], b[4]
        if (av == 0) != (bv == 0) or (aw == 0) != (bw == 0):
            return False
        if av != 0 and aw != 0:
            mu = (av * bw) / (bv * aw)  # mu^3/mu^2 from the two constraints
            return mu != 0 and mu ** 2 * av == bv and mu ** 3 * aw == bw
        if av != 0:  # only v nonzero: need mu^2 = bv/av, a rational square
            return rational_sqrt(bv / av) is not None
        return rational_cbrt(bw / aw) is not None


@record
class PluckerCounts:
    delta_o: int
    delta_s: int
    iota: int

    def __post_init__(self):
        if self.delta_o + self.delta_s != 28 or self.iota + 2 * self.delta_s != 24:
            raise InfeasibleCounts(
                f"({self.delta_o}, {self.delta_s}, {self.iota}) violates "
                "delta_o + delta_s = 28, iota + 2 delta_s = 24")

    @property
    def dual_singular_points(self) -> int:
        return self.delta_o + self.delta_s + self.iota


def cone_equation(pair: CovariantPair) -> ConeEquation:
    return ConeEquation(pair)


def is_singular_point(cone: ConeEquation, p: WeightedPoint) -> bool:
    """True iff F and all five partials vanish at p."""
    at = dict(zip(COORDS, p.coords))
    if cone.F.eval_at(at) != 0:
        return False
    return all(cone.partials[name].eval_at(at) == 0 for name in COORDS)


def is_on_cone(cone: ConeEquation, p: WeightedPoint) -> bool:
    return cone.F.eval_at(dict(zip(COORDS, p.coords))) == 0


def classify_and_lift(pair: CovariantPair, q) -> WeightedPoint:
    """Lift a singular point of the dual curve to a singular point of the cone.

    With g4(q) != 0 the lift is [q : 3 g6(q) / (2 g4(q)) : 0]; with
    g4(q) = g6(q) = 0 and g6 singular at q the lift is [q : 0 : 0].  The
    output is re-certified through is_singular_point.
    """
    a0, a1, a2 = point_coordinates(q, "P2")
    at = {"s": a0, "t": a1, "u": a2}
    dual = pair.dual
    if dual.G.eval_at(at) != 0 or any(d.eval_at(at) != 0 for d in dual.gradient):
        raise NotDualSingular(f"({a0}, {a1}, {a2}) is not a singular point of the dual curve")
    g4v = pair.g4.eval_at(at)
    g6v = pair.g6.eval_at(at)
    if g4v != 0:
        lift = WeightedPoint(a0, a1, a2, 3 * g6v / (2 * g4v), 0)
    elif g6v == 0 and all(pair.g6.partial(vn).eval_at(at) == 0 for vn in ("s", "t", "u")):
        lift = WeightedPoint(a0, a1, a2, 0, 0)
    else:
        raise Unclassifiable(
            f"({a0}, {a1}, {a2}): g4 = {g4v}, g6 = {g6v} fit neither lift branch")
    if not is_singular_point(pair.cone, lift):
        raise ConeError("lift failed certification")  # pragma: no cover
    return lift


def node_certificate(cone: ConeEquation, p: WeightedPoint) -> bool:
    """Nondegeneracy of the 4x4 Hessian in a weight-1 affine chart.

    The point must be singular on the cone and have a nonzero weight-1
    coordinate; it is scaled so the chart coordinate is 1, the equation
    is dehomogenized there, and the Hessian determinant at the point
    decides nodality.
    """
    if not is_singular_point(cone, p):
        raise ConeError("node certificate requires a singular point of the cone")
    chart = next((i for i in range(3) if p.coords[i] != 0), None)
    if chart is None:
        raise NoUnitChart("point has s = t = u = 0; no weight-1 chart")
    q = p.scaled(1 / p.coords[chart])
    chart_var = COORDS[chart]
    f = cone.F.subs({chart_var: Poly.const(1)})
    rest = [name for name in COORDS if name != chart_var]
    at = {name: value for name, value in zip(COORDS, q.coords) if name != chart_var}
    hessian = [[f.partial(v1).partial(v2).eval_at(at) for v2 in rest] for v1 in rest]
    return det_fraction(hessian) != 0


def plucker_ledger(delta_s: int) -> PluckerCounts:
    """Bitangent/flex counts forced by delta_s hyperflexes."""
    if not isinstance(delta_s, int) or delta_s < 0:
        raise InfeasibleCounts("delta_s must be a non-negative integer")
    if delta_s > 12:
        raise InfeasibleCounts(f"delta_s = {delta_s} would force iota = {24 - 2 * delta_s} < 0")
    return PluckerCounts(28 - delta_s, delta_s, 24 - 2 * delta_s)


# ---------------------------------------------------------------------------
# The S4-symmetric family


EXCLUDED_LAMBDA = (Fraction(-2), Fraction(2), Fraction(-1))


@record
class S4FamilyData:
    lam: "Fraction | Poly"
    mu: "Fraction | Poly"
    gamma: Optional[Fraction]
    quartic: QuarticCurve
    pair: CovariantPair
    cone: ConeEquation
    branch_quartic: Poly
    planes: Optional[Tuple[Tuple[Poly, Poly], Tuple[Poly, Poly]]]
    W: Optional[Poly]
    planes_omitted_reason: Optional[str]


def s4_family(lam) -> S4FamilyData:
    """The quartic x^4+y^4+z^4 + lam(y^2z^2+x^2z^2+x^2y^2) and its cone.

    ``lam`` is a rational number outside {-2, 2, -1}, or the string
    "symbolic" for a generic parameter.  All stored identities are checked
    exactly; the special planes and the degree-4 model W need the square
    root of lam + 1 and are materialized only when it is rational.
    """
    symbolic = isinstance(lam, str)
    if symbolic:
        if lam != "symbolic":
            raise ConeError(f"unknown symbolic parameter spec {lam!r}")
        lam_value: "Fraction | Poly" = Poly.var("lambda")
    else:
        lam_value = Fraction(lam)
        if lam_value in EXCLUDED_LAMBDA:
            raise ExcludedParameter(
                f"lambda = {lam_value} is excluded: the parameter must be "
                "different from -2, 2, and -1 (the quartic degenerates)")

    x, y, z = (Poly.var(n) for n in "xyz")
    quartic_poly = x ** 4 + y ** 4 + z ** 4 \
        + lam_value * (y ** 2 * z ** 2 + x ** 2 * z ** 2 + x ** 2 * y ** 2)
    curve = QuarticCurve(quartic_poly)
    pair = covariants(curve)
    cone = pair.cone

    s, t, u = (Poly.var(n) for n in STU)
    mu = lam_value * Fraction(2, 3)
    sq = s ** 2 + t ** 2 + u ** 2
    stu2 = (s * t * u) ** 2
    lhs = mu ** 3 * sq ** 3 - mu * sq * pair.g4 + pair.g6
    rhs = 4 * (lam_value - 2) ** 2 * (lam_value + 1) * stu2
    if lhs - rhs != Poly.zero():
        raise ConeError("s^2 t^2 u^2 identity failed")  # pragma: no cover

    branch = s ** 4 + t ** 4 + u ** 4 + lam_value * (t ** 2 * u ** 2 + s ** 2 * u ** 2 + s ** 2 * t ** 2)
    if 4 * pair.g4 - 3 * mu ** 2 * sq ** 2 != 16 * branch:
        raise ConeError("branch quartic identity failed")  # pragma: no cover

    gamma = None
    planes = None
    W = None
    reason = None
    if symbolic:
        reason = "gamma = 2(lambda-2) sqrt(lambda+1) is irrational in a symbolic lambda"
    else:
        root = rational_sqrt(lam_value + 1)
        if root is None:
            reason = f"lambda + 1 = {lam_value + 1} is not a rational square"
        else:
            gamma = 2 * (lam_value - 2) * root
            v, w, r = Poly.var("v"), Poly.var("w"), Poly.var("r")
            plane_plus = (v - mu * sq, w - gamma * s * t * u)
            plane_minus = (v - mu * sq, w + gamma * s * t * u)
            planes = (plane_plus, plane_minus)
            for sign in (1, -1):
                residue = cone.F.subs({"v": mu * sq, "w": sign * gamma * s * t * u})
                if not residue.is_zero():
                    raise ConeError("plane is not contained in the cone")  # pragma: no cover
            W = v ** 2 + v * (mu * sq - r ** 2) + mu ** 2 * sq ** 2 - pair.g4 \
                + mu * r ** 2 * sq - 2 * gamma * r * s * t * u
            if W.weighted_degrees({"s": 1, "t": 1, "u": 1, "r": 1, "v": 2}) != {4}:
                raise ConeError("W is not weighted-homogeneous of degree 4")  # pragma: no cover

    return S4FamilyData(lam_value, mu, gamma, curve, pair, cone, branch,
                        planes, W, reason)
