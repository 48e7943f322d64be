"""Nets of quadrics through seven points of P3 and Cayley octads.

Seven points in sufficiently general position impose independent
conditions on quadric surfaces, leaving a net x F0 + y F1 + z F2 encoded
by three symmetric 4x4 rational matrices.  The determinant of the matrix
pencil is a plane quartic (the Hessian quartic of the net), the base
locus of the net is a regular Cayley octad when the heptad is Aronhold,
and the pairs of octad points mark the 28 bitangents of the Hessian
quartic.  Everything here is exact rational linear algebra over
polycore, including a closed form for the eighth base point, and it runs
on Python ints wherever the data are integers: points, nets of heptads,
polars and the bitangent restrictions.  The Aronhold verdict has one
route: ``hessian_quartic`` calls the Hessian quartic smooth exactly when
the resultant of its partials is nonzero, and both ``aronhold_check``
and ``eighth_point`` read that verdict.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from fractions import Fraction
from math import lcm
from typing import Dict, List, Optional, Sequence, Tuple

from .polycore import (
    Poly,
    PolyError,
    PolyMatrix,
    clear_denominators,
    coefficients_multi,
    congruence,
    det_fraction,
    inverse,
    is_perfect_square,
    macaulay_resultant_ternary,
    mat_vec,
    matrix_rank,
    nullspace,
    rational_roots,
    rational_sqrt,
)
from .polyio import point_coordinates
from .record import record

# Monomial order for quadric coefficient vectors on P3.
QUADRIC_MONOMIALS = ((0, 0), (1, 1), (2, 2), (3, 3),
                     (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


class OctadError(PolyError):
    pass


class DimensionError(OctadError):
    """The heptad imposes dependent conditions; kernel dimension attached."""

    def __init__(self, dimension: int):
        super().__init__(f"quadrics through the points form a system of "
                         f"dimension {dimension}, not 3")
        self.dimension = dimension


class NonSquarefree(OctadError):
    """The restricted determinant has a repeated root: singular fiber."""


class CorankTooHigh(OctadError):
    """The net matrix drops rank by two or more at the given point."""


def normalize_point(p) -> Tuple[int, ...]:
    """Primitive integer coordinates, as ints, with positive first nonzero entry."""
    return tuple(clear_denominators(point_coordinates(p, "P3")))


def _from_normalized(cls, *args):
    """A QuadricNet or Octad built on points that ``normalize_point`` returned.

    The constructor's checks all run; only the points' second
    normalisation is skipped.
    """
    obj = cls.__new__(cls)
    obj._init(*args)
    return obj


def quadric_polar(matrix, p, q) -> Fraction:
    """The bilinear form p^T matrix q on coordinate tuples of P3; an int on int data."""
    return sum(p[i] * matrix[i][j] * q[j] for i in range(4) for j in range(4))


def quadric_eval(matrix, p) -> Fraction:
    c = point_coordinates(p, "P3")
    return quadric_polar(matrix, c, c)


class QuadricNet:
    """Three symmetric 4x4 rational matrices spanning a net of quadrics.

    Each entry is stored as its Fraction, reduced to the int numerator
    when the denominator is 1, so the net of a heptad holds ints and its
    polars are integer dot products, while a rational net keeps its
    exact Fractions.
    """

    def __init__(self, matrices: Sequence[Sequence[Sequence[Fraction]]],
                 basepoints: Sequence = ()):
        self._init(matrices, tuple(normalize_point(p) for p in basepoints))

    def _init(self, matrices, basepoints: Tuple[Tuple[int, ...], ...]):
        mats = []
        for m in matrices:
            rows = tuple(tuple(f.numerator if (f := Fraction(v)).denominator == 1 else f
                               for v in row) for row in m)
            if len(rows) != 4 or any(len(r) != 4 for r in rows):
                raise OctadError("net generators must be 4x4")
            for i in range(4):
                for j in range(4):
                    if rows[i][j] != rows[j][i]:
                        raise OctadError("net generators must be symmetric")
            mats.append(rows)
        if len(mats) != 3:
            raise OctadError("a net needs exactly three generators")
        flat = [[m[i][j] for i in range(4) for j in range(i, 4)] for m in mats]
        if matrix_rank(flat) != 3:
            raise OctadError("net generators are linearly dependent")
        self.matrices = tuple(mats)
        self.basepoints = basepoints
        for p in self.basepoints:
            for m in self.matrices:
                if quadric_polar(m, p, p) != 0:
                    raise OctadError(f"stored base point {p} is not on every generator")

    def matrix_at(self, xyz) -> List[List]:
        """x A0 + y A1 + z A2 at a checked point (x, y, z), or at Polys x, y, z."""
        x, y, z = xyz
        a0, a1, a2 = self.matrices
        return [[x * a0[i][j] + y * a1[i][j] + z * a2[i][j] for j in range(4)]
                for i in range(4)]

    def symbol_matrix(self) -> PolyMatrix:
        return PolyMatrix(self.matrix_at([Poly.var(n) for n in "xyz"]))

    @cached_property
    def determinant(self) -> Poly:
        """det(x A0 + y A1 + z A2), computed once: the matrices are immutable."""
        return self.symbol_matrix().det()

    def determinant_on_line(self, p, q) -> Poly:
        """The determinant at a1 p + a2 q: a binary quartic in a1, a2 for net points p, q.

        Each term c x^e0 y^e1 z^e2 of the cached determinant is multiplied
        out, one linear form p_k a1 + q_k a2 at a time, as a list whose
        entry i is the coefficient of a1^(e-i) a2^i.  The coefficients are
        scaled to integers over one denominator, so on int points of an
        int net all of it is integer arithmetic.  The result is the Poly
        that substituting the forms into the determinant gives, with scope
        {a1, a2}.
        """
        terms = self.determinant.terms
        scale = lcm(*(c.denominator for c in terms.values()))
        forms = dict(zip("xyz", zip(p, q)))
        acc = [0] * 5
        for mono, c in terms.items():
            f = [c.numerator * (scale // c.denominator)]
            for name, e in mono:
                a, b = forms[name]
                for _ in range(e):
                    f = [a * u + b * v for u, v in zip(f + [0], [0] + f)]
            for i, s in enumerate(f):
                acc[i] += s
        return Poly({tuple((v, e) for v, e in (("a1", 4 - i), ("a2", i)) if e): Fraction(s, scale)
                     for i, s in enumerate(acc)}, ("a1", "a2"))


class Octad:
    """Eight labeled points of P3, the base locus of a net of quadrics."""

    def __init__(self, points: Sequence, net: Optional[QuadricNet] = None):
        self._init(tuple(normalize_point(p) for p in points), net)

    def _init(self, pts: Tuple[Tuple[int, ...], ...], net):
        if len(pts) != 8:
            raise OctadError("an octad has eight points")
        for a, b in itertools.combinations(range(8), 2):
            if pts[a] == pts[b]:
                raise OctadError(f"octad points {a + 1} and {b + 1} coincide")
        if net is not None:
            for p in pts:
                for m in net.matrices:
                    if quadric_polar(m, p, p) != 0:
                        raise OctadError(f"point {p} is off the net")
        self.points = pts
        self.net = net

    def point(self, label: int) -> Tuple[int, ...]:
        if not 1 <= label <= 8:
            raise OctadError("octad labels run from 1 to 8")
        return self.points[label - 1]


@record
class HessianQuartic:
    quartic: Poly
    smooth: bool
    resultant: Fraction


@record
class AronholdReport:
    coplanarity: Dict[Tuple[int, int, int, int], Fraction]
    coplanar_quadruples: Tuple[Tuple[int, int, int, int], ...]
    net_dimension: int
    hessian_smooth: Optional[bool]
    hessian_resultant: Optional[Fraction]
    verdict: bool


@record
class PencilFiber:
    netpoints: Tuple[Tuple[Fraction, ...], Tuple[Fraction, ...]]
    binary_quartic: Tuple[Fraction, Fraction, Fraction, Fraction, Fraction]
    singular_parameters: Optional[Tuple[Fraction, ...]]
    cross_ratio: Optional[Fraction]
    j: Fraction


@record
class BitangentCertificate:
    pair: Tuple[int, int]
    line: Tuple[int, int, int]
    restriction: Poly
    square_root: Poly


@record
class GaleReport:
    points: Tuple[Tuple[int, int, int], ...]
    collinear_triples: Tuple[Tuple[int, int, int], ...]
    conic_six_tuples: Tuple[Tuple[int, ...], ...]
    ok: bool


@record
class CremonaResult:
    octad: Octad
    net: QuadricNet
    normalized_source_net: QuadricNet
    det_preserved: bool


def _quadric_row(p) -> List[Fraction]:
    return [p[i] * p[j] for i, j in QUADRIC_MONOMIALS]


def _vector_to_matrix(vec: Sequence[Fraction]) -> List[List[Fraction]]:
    m = [[Fraction(0)] * 4 for _ in range(4)]
    for value, (i, j) in zip(vec, QUADRIC_MONOMIALS):
        if i == j:
            m[i][i] = Fraction(value)
        else:
            m[i][j] = m[j][i] = Fraction(value) / 2
    return m


def net_from_heptad(points: Sequence) -> QuadricNet:
    """Solve the 7x10 interpolation problem for quadrics through 7 points.

    The kernel must be exactly 3-dimensional; its canonical (rref) basis
    is symmetrized into integer matrices.
    """
    pts = tuple(normalize_point(p) for p in points)
    if len(pts) != 7:
        raise OctadError("a heptad has seven points")
    for a, b in itertools.combinations(range(7), 2):
        if pts[a] == pts[b]:
            raise OctadError(f"points {a + 1} and {b + 1} coincide")
    rows = [_quadric_row(p) for p in pts]
    kernel = nullspace(rows)
    if len(kernel) != 3:
        raise DimensionError(len(kernel))
    matrices = []
    for vec in kernel:
        m = _vector_to_matrix(vec)
        flat = clear_denominators([m[i][j] for i in range(4) for j in range(4)])
        matrices.append([[flat[4 * i + j] for j in range(4)] for i in range(4)])
    return _from_normalized(QuadricNet, matrices, pts)


def hessian_quartic(net: QuadricNet) -> HessianQuartic:
    """det(x A0 + y A1 + z A2), smooth exactly when its partials' resultant is nonzero."""
    quartic = net.determinant
    if quartic.is_zero() or quartic.weighted_degrees({"x": 1, "y": 1, "z": 1}) != {4}:
        return HessianQuartic(quartic, False, Fraction(0))
    res = macaulay_resultant_ternary(quartic.partial("x"), quartic.partial("y"),
                                     quartic.partial("z"))
    return HessianQuartic(quartic, res != 0, res)


def aronhold_check(points: Sequence) -> AronholdReport:
    """Full report: coplanarity determinants, net dimension, Hessian smoothness.

    The verdict (net of dimension 3 and smooth Hessian quartic) is
    equivalent to the heptad being Aronhold.
    """
    try:
        net = net_from_heptad(points)
    except DimensionError as err:
        net, dimension = None, err.dimension
    else:
        dimension = 3
    # the net's base points are the heptad, normalised once
    pts = tuple(normalize_point(p) for p in points) if net is None else net.basepoints
    coplanarity = {}
    coplanar = []
    for quad in itertools.combinations(range(7), 4):
        d = det_fraction([list(pts[i]) for i in quad])
        labels = tuple(i + 1 for i in quad)
        coplanarity[labels] = d
        if d == 0:
            coplanar.append(labels)
    if net is None:
        return AronholdReport(coplanarity, tuple(coplanar), dimension, None, None, False)
    hess = hessian_quartic(net)
    verdict = dimension == 3 and hess.smooth
    return AronholdReport(coplanarity, tuple(coplanar), dimension,
                          hess.smooth, hess.resultant, verdict)


# ---------------------------------------------------------------------------
# Eighth base point


def eighth_point(net: QuadricNet, rng=None,
                 check: Optional[AronholdReport] = None) -> Octad:
    """The eighth base point of the net of an Aronhold heptad, in closed form.

    The eight base points impose only seven conditions on quadrics, so
    sum lam_i P_i P_i^T = 0 with every lam_i nonzero, and the sum over the
    first seven is a rank-one multiple of P8 P8^T.  In the frame
    T = [P1 P2 P3 P4] the terms of P1..P4 are diagonal, so the
    off-diagonal entries s_ab(lam5, lam6, lam7) of the other three satisfy
    s01 s23 = s02 s13 = s03 s12.  Both differences vanish at the
    coordinate points of (lam5 : lam6 : lam7), so they are linear in
    mu_i = 1 / lam_i and mu is a cross product; then
    P8 = T (s01 s02, s01 s12, s02 s12, s03 s12).  The returned Octad
    verifies the point on all three generators and against the seven.

    Without ``check`` the Aronhold verdict is computed on ``net`` itself
    by ``hessian_quartic``, the resultant that ``octad check`` prints,
    here computed but not printed (the net's Hessian determinant is then
    cached for later consumers).  ``rng`` is unused and kept for callers
    that pass one.
    """
    if len(net.basepoints) < 7:
        raise OctadError("eighth_point needs the net's seven defining points")
    known = net.basepoints[:7]
    if check is None:
        dimension = 10 - matrix_rank([_quadric_row(p) for p in known])
        smooth = hessian_quartic(net).smooth if dimension == 3 else None
    else:
        dimension, smooth = check.net_dimension, check.hessian_smooth
    if not (dimension == 3 and smooth):
        raise OctadError("heptad is not Aronhold (net dimension "
                         f"{dimension}, smooth={smooth})")

    T = [list(row) for row in zip(*known[:4])]
    try:
        Tinv = inverse(T)
    except PolyError:
        raise OctadError("points 1 to 4 are coplanar") from None
    q = [mat_vec(Tinv, p) for p in known[4:]]
    # s_ab = sum_i lam_i w[a, b][i] over i = 5, 6, 7
    w = {(a, b): [v[a] * v[b] for v in q] for a, b in itertools.combinations(range(4), 2)}

    def mu_row(ab, cd, ef, gh):
        # s_ab s_cd - s_ef s_gh divided by lam5 lam6 lam7, as coefficients of mu
        return [w[ab][j] * w[cd][k] + w[ab][k] * w[cd][j]
                - w[ef][j] * w[gh][k] - w[ef][k] * w[gh][j]
                for j, k in ((1, 2), (0, 2), (0, 1))]

    m5, m6, m7 = dual_point_of_line(mu_row((0, 1), (2, 3), (0, 2), (1, 3)),
                                    mu_row((0, 2), (1, 3), (0, 3), (1, 2)))
    lam = (m6 * m7, m5 * m7, m5 * m6)  # 1 / mu up to the factor m5 m6 m7
    s01, s02, s03, s12 = (sum(l * c for l, c in zip(lam, w[ab]))
                          for ab in ((0, 1), (0, 2), (0, 3), (1, 2)))
    if m5 * m6 * m7 * s01 * s02 * s12 == 0:
        raise OctadError("the eighth point's closed form degenerates")
    candidate = mat_vec(T, [s01 * s02, s01 * s12, s02 * s12, s03 * s12])
    # Octad verifies the point on every generator and against the seven.
    return _from_normalized(Octad, known + (normalize_point(candidate),), net)


# ---------------------------------------------------------------------------
# Bitangents


def bitangent_line(octad: Octad, net: QuadricNet, i: int, j: int) -> BitangentCertificate:
    """The pencil of net quadrics through the line P_i P_j, as a dual line.

    A net quadric contains the line exactly when it vanishes at three of
    its points; the two octad points are automatic, so one linear
    condition in (x, y, z) remains.  The Hessian quartic restricted to
    that line must be a perfect square, which is the certificate.
    """
    if not (1 <= i < j <= 8):
        raise OctadError(f"need 1 <= i < j <= 8, got ({i}, {j})")
    pi, pj = octad.point(i), octad.point(j)
    third = [a + b for a, b in zip(pi, pj)]
    conditions = [[quadric_polar(m, pt, pt) for m in net.matrices] for pt in (pi, pj, third)]
    rank = matrix_rank(conditions)
    if rank != 1:
        raise OctadError(f"pencil through line ({i},{j}) has condition rank {rank}, "
                         "expected 1 (net subfamily is not a pencil)")
    line = tuple(clear_denominators(
        [quadric_polar(m, pi, pj) for m in net.matrices]))
    if all(c == 0 for c in line):  # pragma: no cover - rank check above
        raise OctadError("degenerate bitangent condition")

    restriction = net.determinant_on_line(*_line_basis(line))
    root = is_perfect_square(restriction)
    if root is None:
        raise OctadError(f"restriction to bitangent ({i},{j}) is not a perfect square")
    return BitangentCertificate((i, j), line, restriction, root)


def _line_basis(line: Sequence[Fraction]):
    """Two independent points of the projective line l0 x + l1 y + l2 z = 0."""
    basis = nullspace([list(line)])
    if len(basis) != 2:
        raise OctadError("line coefficients are degenerate")
    return [tuple(clear_denominators(v)) for v in basis]


def all_bitangents(octad: Octad, net: QuadricNet, jobs: int = 1) -> List[BitangentCertificate]:
    """The 28 bitangent certificates, one per pair of octad labels.

    ``jobs`` is unused and kept for callers that pass one.
    """
    return [bitangent_line(octad, net, i, j)
            for i, j in itertools.combinations(range(1, 9), 2)]


# ---------------------------------------------------------------------------
# Pencils and their elliptic fibers


def pencil_fiber(net: QuadricNet, netpoint1, netpoint2) -> PencilFiber:
    """The Hessian quartic on the line p1 p2 of the net plane, and the j of its fiber.

    ``binary_quartic`` holds the coefficients c0..c4 of
    det(alpha M(p1) + beta M(p2)) = sum c_k alpha^(4-k) beta^k, read from
    ``QuadricNet.determinant_on_line``.  A nonzero binary quartic is
    squarefree exactly when its discriminant 4 h2^3 - 27 h3^2, the
    denominator of j, is nonzero; otherwise NonSquarefree is raised.  j
    comes from the binary-quartic invariants, and additionally from the
    cross-ratio of the four singular parameters whenever those are found
    rational.  The two routes must agree.  Four rational parameters
    lam_i make the discriminant the square of c4^3 prod_{i<j} (lam_i - lam_j),
    so they are searched for only when it is a rational square.
    """
    from . import covariants as cov  # imported here: no CLI job runs pencil_fiber

    p1 = point_coordinates(netpoint1, "P2")
    p2 = point_coordinates(netpoint2, "P2")
    if matrix_rank([list(p1), list(p2)]) != 2:
        raise OctadError("net points must be independent")
    by = coefficients_multi(net.determinant_on_line(p1, p2), ("a1", "a2"))
    coeffs = tuple(by.get((4 - k, k), Poly.zero()).constant_value() for k in range(5))
    if all(c == 0 for c in coeffs):
        raise NonSquarefree("determinant vanishes identically on the pencil")
    h2, h3 = cov.binary_invariants(coeffs)
    disc = 4 * h2 ** 3 - 27 * h3 ** 2
    try:
        j_invariant = cov.j_of_values(coeffs, h2, h3, disc)
    except (cov.OnDualCurve, cov.IndeterminateJ):
        raise NonSquarefree(f"restricted determinant {coeffs} has a repeated root") from None

    params = None
    ratio = None
    # coeffs[4] != 0: no root at infinity for det(M1 + lam M2)
    if coeffs[4] != 0 and rational_sqrt(disc) is not None:
        lam = Poly.var("lam")
        affine = sum((Poly.const(coeffs[k]) * lam ** k for k in range(5)), Poly.zero())
        roots = rational_roots(affine, "lam")
        if roots is not None and len(roots) == 4:
            params = tuple(sorted(roots))
            ratio = cov.cross_ratio(*params)
            if cov.j_from_cross_ratio(ratio) != j_invariant:
                raise cov.InternalConsistencyError(
                    "cross-ratio route and invariant route disagree")
    return PencilFiber((p1, p2), coeffs, params, ratio, j_invariant)


def dual_point_of_line(p1, p2) -> Tuple[Fraction, Fraction, Fraction]:
    """Cross product: the dual coordinates of the line through p1, p2."""
    a = tuple(Fraction(c) for c in p1)
    b = tuple(Fraction(c) for c in p2)
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


# ---------------------------------------------------------------------------
# Cremona and Gale transforms


def cremona_octad(octad: Octad, center: Sequence[int]) -> CremonaResult:
    """Standard Cremona transformation centered at four octad points.

    The center is normalized to the coordinate simplex; there the net's
    quadrics have zero diagonal and the transformation swaps each
    coefficient a_{ab} x_a x_b with the complementary-index coefficient.
    The determinant of the net matrix is preserved exactly, the four
    center points stay put, and the other four points map through
    coordinate-wise inversion.  The octad must carry its net.
    """
    labels = tuple(center)
    if len(labels) != 4 or len(set(labels)) != 4 or not all(1 <= c <= 8 for c in labels):
        raise OctadError("center must be four distinct labels in 1..8")
    cols = [octad.point(c) for c in labels]
    T = [[cols[j][i] for j in range(4)] for i in range(4)]
    try:
        Tinv = inverse(T)
    except PolyError:
        raise OctadError("center points are projectively dependent") from None
    net = octad.net
    if net is None:
        raise OctadError("cremona_octad needs the octad's net")

    # One common scalar across the three generators: per-generator scaling
    # would reparametrize the net plane and spoil exact det preservation.
    transformed = [congruence(m, T) for m in net.matrices]
    flat = [v for m in transformed for row in m for v in row]
    cleared = clear_denominators(flat)
    B = [[[cleared[16 * k + 4 * i + j] for j in range(4)] for i in range(4)]
         for k in range(3)]
    for m in B:
        for i in range(4):
            if m[i][i] != 0:
                raise OctadError("center points are not base points of the net")

    complement = {(0, 1): (2, 3), (0, 2): (1, 3), (0, 3): (1, 2),
                  (1, 2): (0, 3), (1, 3): (0, 2), (2, 3): (0, 1)}
    Bp = []
    for m in B:
        out = [[Fraction(0)] * 4 for _ in range(4)]
        for (a, b), (c, d) in complement.items():
            out[c][d] = out[d][c] = m[a][b]
        Bp.append(out)

    moved_points = []
    e_points = {labels[k]: tuple(Fraction(int(i == k)) for i in range(4))
                for k in range(4)}
    for label in range(1, 9):
        if label in labels:
            moved_points.append(e_points[label])
            continue
        q = mat_vec(Tinv, octad.point(label))
        zeros = sum(1 for c in q if c == 0)
        if zeros >= 2:
            raise OctadError(f"point {label} lies on a line through two center points; "
                             "its Cremona image is undefined")
        image = [q[1] * q[2] * q[3], q[0] * q[2] * q[3],
                 q[0] * q[1] * q[3], q[0] * q[1] * q[2]]
        moved_points.append(tuple(image))

    norm_net = QuadricNet(B, basepoints=[mat_vec(Tinv, p) for p in octad.points])
    new_net = QuadricNet(Bp, basepoints=moved_points)
    new_octad = _from_normalized(Octad, new_net.basepoints, new_net)
    return CremonaResult(new_octad, new_net, norm_net,
                         norm_net.determinant == new_net.determinant)


def gale_transform(octad: Octad, forms: Optional[Sequence[Sequence[Fraction]]] = None) -> GaleReport:
    """Project P1..P7 from P8 and run the plane-position checks.

    The three projecting linear forms are the canonical (rref) kernel
    basis of the single constraint <v, P8> = 0 unless supplied; different
    valid choices differ by a projective transformation of the image.
    """
    p8 = octad.point(8)
    if forms is None:
        basis = nullspace([list(p8)])
        forms = [clear_denominators(v) for v in basis]
    forms = [list(map(Fraction, f)) for f in forms]
    if len(forms) != 3 or matrix_rank(forms) != 3:
        raise OctadError("need three independent projecting forms")
    if any(sum(f[k] * p8[k] for k in range(4)) != 0 for f in forms):
        raise OctadError("projecting forms must vanish at the eighth point")
    images = []
    for label in range(1, 8):
        p = octad.point(label)
        q = tuple(sum(f[k] * p[k] for k in range(4)) for f in forms)
        if all(c == 0 for c in q):
            raise OctadError(f"point {label} coincides with the projection center")
        images.append(tuple(clear_denominators(q)))
    collinear = []
    for triple in itertools.combinations(range(7), 3):
        if det_fraction([list(images[i]) for i in triple]) == 0:
            collinear.append(tuple(i + 1 for i in triple))
    conic_bad = []
    for six in itertools.combinations(range(7), 6):
        rows = []
        for i in six:
            x, y, z = images[i]
            rows.append([x * x, y * y, z * z, x * y, x * z, y * z])
        if det_fraction(rows) == 0:
            conic_bad.append(tuple(i + 1 for i in six))
    ok = not collinear and not conic_bad
    return GaleReport(tuple(images), tuple(collinear), tuple(conic_bad), ok)


def steinerian_point(net: QuadricNet, q) -> Tuple[int, ...]:
    """Kernel generator of M(q) for q on the Hessian quartic, rank 3."""
    coords = point_coordinates(q, "P2")
    m = net.matrix_at(coords)
    if det_fraction(m) != 0:
        raise OctadError(f"{tuple(map(str, coords))} is not on the Hessian quartic")
    rank = matrix_rank(m)
    if rank <= 2:
        raise CorankTooHigh(f"net matrix has rank {rank} <= 2 at the point")
    kernel = nullspace(m)
    point = tuple(clear_denominators(kernel[0]))
    if any(sum(m[i][k] * point[k] for k in range(4)) != 0 for i in range(4)):
        raise OctadError("kernel verification failed")  # pragma: no cover
    return point


# ---------------------------------------------------------------------------
# Projective equivalence of labeled configurations


def _frame_map(points: Sequence[Sequence[Fraction]], labels: Sequence[int]):
    """Matrix sending the standard frame to the chosen labeled points."""
    n = len(points[0])
    M = [list(col) for col in zip(*(points[i] for i in labels[:n]))]
    try:
        Minv = inverse(M)
    except PolyError:
        return None
    coeffs = mat_vec(Minv, points[labels[n]])
    if any(c == 0 for c in coeffs):
        return None
    return [[M[i][j] * coeffs[j] for j in range(n)] for i in range(n)]


def configs_projectively_equivalent(config1: Sequence, config2: Sequence) -> bool:
    """Label-respecting projective equivalence of two point configurations."""
    pts1 = [list(map(Fraction, p)) for p in config1]
    pts2 = [list(map(Fraction, p)) for p in config2]
    if len(pts1) != len(pts2) or not pts1:
        return False
    n = len(pts1[0])
    for labels in itertools.combinations(range(len(pts1)), n + 1):
        F1 = _frame_map(pts1, labels)
        F2 = _frame_map(pts2, labels)
        if F1 is None or F2 is None:
            if (F1 is None) != (F2 is None):
                return False
            continue
        inv1 = inverse(F1)
        inv2 = inverse(F2)
        for p, q in zip(pts1, pts2):
            a = clear_denominators(mat_vec(inv1, p))
            b = clear_denominators(mat_vec(inv2, q))
            if a != b:
                return False
        return True
    return False
