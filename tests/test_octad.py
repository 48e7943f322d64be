import itertools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from quartic_cones import octad as octad_mod
from quartic_cones import polycore
from quartic_cones.covariants import QuarticCurve, covariants, j_eval, j_from_roots
from quartic_cones.octad import (
    CorankTooHigh,
    DimensionError,
    NonSquarefree,
    Octad,
    OctadError,
    QuadricNet,
    all_bitangents,
    aronhold_check,
    bitangent_line,
    configs_projectively_equivalent,
    cremona_octad,
    dual_point_of_line,
    eighth_point,
    gale_transform,
    hessian_quartic,
    net_from_heptad,
    pencil_fiber,
    quadric_eval,
    steinerian_point,
)
from quartic_cones.polycore import (
    CERTIFICATE_PRIME,
    Poly,
    PolyMatrix,
    ideal_spans_critical_degree,
    matrix_rank,
    rank_mod_p,
    univariate_gcd,
)
from quartic_cones.polyio import parse_poly

from conftest import COPLANAR, SEED1_HEPTADS, STANDARD_HEPTAD, TWISTED_CUBIC


def seeded_heptads(seed=20261018):
    """Three coordinate-simplex heptads, then three random ones."""
    rng = random.Random(seed)

    def point():
        return tuple(rng.choice([c for c in range(-9, 10) if c]) for _ in range(4))

    simplex = [tuple(int(i == j) for j in range(4)) for i in range(4)]
    heptads = [simplex + [point() for _ in range(3)] for _ in range(3)]
    return heptads + [[point() for _ in range(7)] for _ in range(3)]


# The eighth base points of seeded_heptads(), in order.
PINNED_EIGHTH_POINTS = [
    (74746806784, 50536112223, -53465691312, -33713962528),
    (57773859891, -144166118877, 30056686616, -17367457849),
    (439374240, 303933240, -182424887, -737128770),
    (25562417252948177764725136482198742049, -33548233949627563679991971344575041766,
     -123525721745483587321948109127279116909, 41277979376453200258784059259235154243),
    (64462204319813980658729107, 69739562296233835747480672,
     -45917437078511482710536393, -85835611587424912726122943),
    (64555502852515680306381435436676444, 590181945783044044759207461217977055,
     -646272786980627080855624157330975107, -610662134594979088193238562246873772),
]

DIAGONAL = QuadricNet([
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    [[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 3, 0], [0, 0, 0, 4]],
    [[1, 0, 0, 0], [0, 4, 0, 0], [0, 0, 9, 0], [0, 0, 0, 16]],
])


class TestNetFromHeptad:
    def test_standard_dimension_3(self, standard_net):
        assert len(standard_net.matrices) == 3
        for p in STANDARD_HEPTAD:
            for m in standard_net.matrices:
                assert quadric_eval(m, p) == 0

    def test_collinear_dimension_error(self):
        # seven points of a line impose only the three conditions of its
        # binary-quadratic restriction, so the kernel has dimension 7
        with pytest.raises(DimensionError) as err:
            net_from_heptad([(1, i, 0, 0) for i in range(7)])
        assert err.value.dimension == 7

    def test_octad_points_on_generators(self, standard_net, standard_octad):
        for p in standard_octad.points:
            for m in standard_net.matrices:
                assert quadric_eval(m, p) == 0


class TestHessianQuartic:
    def test_diagonal_product_of_lines(self):
        hq = hessian_quartic(DIAGONAL)
        expected = parse_poly(
            "(x + y + z)*(x + 2*y + 4*z)*(x + 3*y + 9*z)*(x + 4*y + 16*z)", "xyz")
        assert hq.quartic == expected
        assert hq.smooth is False

    def test_standard_heptad_smooth(self, standard_net):
        hq = hessian_quartic(standard_net)
        assert hq.smooth and hq.resultant != 0

    def test_twisted_cubic_singular(self):
        net = net_from_heptad(TWISTED_CUBIC)
        hq = hessian_quartic(net)
        assert hq.smooth is False


class TestAronholdCheck:
    def test_standard_true(self):
        report = aronhold_check(STANDARD_HEPTAD)
        assert report.verdict
        assert report.net_dimension == 3
        assert not report.coplanar_quadruples
        assert len(report.coplanarity) == 35

    def test_coplanar_quadruple_fails(self):
        report = aronhold_check(COPLANAR)
        assert (1, 2, 3, 4) in report.coplanar_quadruples
        assert report.verdict is False

    def test_twisted_cubic_fails_via_hessian(self):
        report = aronhold_check(TWISTED_CUBIC)
        assert report.net_dimension == 3
        assert report.hessian_smooth is False
        assert report.verdict is False


class TestEighthPoint:
    def test_standard(self, standard_net, standard_octad):
        p8 = standard_octad.point(8)
        assert p8 == (F(121), F(-22), F(-15), F(-11))
        for m in standard_net.matrices:
            assert quadric_eval(m, p8) == 0

    def test_rederive_from_subsets(self, standard_octad):
        for omit in range(1, 9):
            labels = [i for i in range(1, 9) if i != omit]
            subnet = net_from_heptad([standard_octad.point(i) for i in labels])
            rederived = eighth_point(subnet, rng=random.Random(1))
            assert rederived.point(8) == standard_octad.point(omit)

    @pytest.mark.parametrize("index", range(6))
    def test_pinned_seeded_heptads(self, index):
        heptad = seeded_heptads()[index]
        net = net_from_heptad(heptad)
        p8 = eighth_point(net, rng=random.Random(0)).point(8)
        assert p8 == tuple(F(c) for c in PINNED_EIGHTH_POINTS[index])
        assert all(quadric_eval(m, p8) == 0 for m in net.matrices)

    def test_non_aronhold_rejected(self):
        net = net_from_heptad(TWISTED_CUBIC)
        with pytest.raises(OctadError):
            eighth_point(net, rng=random.Random(2))


def count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def scaled_rows(rows):
    """The integer rows that rank_mod_p reduces: each row times the lcm of its denominators."""
    return [[v * math.lcm(*(F(c).denominator for c in row)) for v in row] for row in rows]


def oracle_heptads():
    return [STANDARD_HEPTAD, *seeded_heptads(), *SEED1_HEPTADS.values()]


class TestModularCertificate:
    def test_zero_residue_is_no_proof(self):
        for rows in ([[CERTIFICATE_PRIME]],
                     [[F(CERTIFICATE_PRIME, 3), 1], [0, 3]],
                     [[2, 1], [1, F(CERTIFICATE_PRIME + 1, 2)]]):
            assert rank_mod_p(rows) == matrix_rank(rows) - 1

    def test_singular_and_regular(self):
        assert rank_mod_p([[1, 2], [2, 4]]) == 1
        assert rank_mod_p([[0, F(1, 2)], [F(2, 3), 0]]) == 2
        assert rank_mod_p([[0, 0, 0], [0, 0, 0]]) == 0
        assert rank_mod_p([]) == 0

    @pytest.mark.parametrize("index", range(6))
    def test_forced_no_proof_keeps_pinned_points(self, monkeypatch, index):
        monkeypatch.setattr(polycore, "rank_mod_p", lambda rows: 0)
        exact = count_calls(monkeypatch, polycore, "matrix_rank")
        net = net_from_heptad(seeded_heptads()[index])
        p8 = eighth_point(net, rng=random.Random(0)).point(8)
        assert p8 == tuple(F(c) for c in PINNED_EIGHTH_POINTS[index])
        assert exact == ["matrix_rank"]

    def test_coplanar_seed_heptad_rejected(self):
        net = net_from_heptad(SEED1_HEPTADS[4])
        with pytest.raises(OctadError, match="not Aronhold"):
            eighth_point(net)

    def test_random_heptad_certified_without_exact_resultant(self, monkeypatch):
        quotients = count_calls(monkeypatch, polycore, "macaulay_quotient")
        octad = eighth_point(net_from_heptad(SEED1_HEPTADS[1]))
        assert quotients == []
        assert len(octad.points) == 8

    def test_simplex_heptad_certified_without_exact_resultant(self, monkeypatch):
        quotients = count_calls(monkeypatch, polycore, "macaulay_quotient")
        octad = eighth_point(net_from_heptad(STANDARD_HEPTAD))
        assert octad.point(8) == (F(121), F(-22), F(-15), F(-11))
        # the rank needs no frame, so a simplex heptad's vanishing
        # identity-frame Macaulay minor costs nothing
        assert quotients == []

    @pytest.mark.parametrize("index", range(10))
    def test_verdict_matches_exact_resultant(self, index):
        heptad = oracle_heptads()[index]
        hessian = net_from_heptad(heptad).determinant
        partials = [hessian.partial(v) for v in "xyz"]
        assert ideal_spans_critical_degree(partials, "xyz", (3, 3, 3)) == \
            hessian_quartic(net_from_heptad(heptad)).smooth

    @pytest.mark.parametrize("index", range(10))
    def test_aronhold_verdict_enters_no_frame(self, monkeypatch, index):
        heptad = oracle_heptads()[index]
        if not aronhold_check(heptad).verdict:
            with pytest.raises(OctadError, match="not Aronhold"):
                eighth_point(net_from_heptad(heptad))
            return
        calls = [count_calls(monkeypatch, module, name)
                 for module, name in ((polycore, "macaulay_quotient"),
                                      (octad_mod, "hessian_quartic"))]
        assert len(eighth_point(net_from_heptad(heptad)).points) == 8
        assert calls == [[], []]

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_agrees_with_exact_rank(self, data):
        n_rows, n_cols = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
        entry = st.fractions(min_value=-40, max_value=40, max_denominator=6)
        rows = [[data.draw(entry) for _ in range(n_cols)] for _ in range(n_rows)]
        if n_rows > 1 and data.draw(st.booleans()):  # a rank-deficient matrix
            a, b = data.draw(entry), data.draw(entry)
            rows[-1] = [a * u + b * v for u, v in zip(rows[0], rows[1 % (n_rows - 1)])]
        exact = matrix_rank(rows)
        modular = rank_mod_p(rows)
        assert modular <= exact
        # Hadamard: every minor of the scaled rows is below the product of
        # their norms, so when that product is below p no minor vanishes mod p
        if math.prod(max(1, sum(v * v for v in row))
                     for row in scaled_rows(rows)) < CERTIFICATE_PRIME ** 2:
            assert modular == exact


class TestBitangents:
    def test_single_pair_certificate(self, standard_net, standard_octad):
        cert = bitangent_line(standard_octad, standard_net, 1, 2)
        assert cert.square_root * cert.square_root == cert.restriction

    def test_all_28_distinct_and_certified(self, standard_net, standard_octad):
        certs = all_bitangents(standard_octad, standard_net)
        assert len(certs) == 28
        lines = {c.line for c in certs}
        assert len(lines) == 28
        for c in certs:
            assert c.square_root * c.square_root == c.restriction

    def test_equal_labels_rejected(self, standard_net, standard_octad):
        with pytest.raises(OctadError):
            bitangent_line(standard_octad, standard_net, 3, 3)

    def test_parallel_sweep_matches(self, standard_net, standard_octad):
        serial = all_bitangents(standard_octad, standard_net, jobs=1)
        parallel = all_bitangents(standard_octad, standard_net, jobs=2)
        assert [c.line for c in serial] == [c.line for c in parallel]


class TestPencilFiber:
    def test_diagonal_eigenvalues(self):
        net = QuadricNet([
            [[0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 4]],
            [[-1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]],
            [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]],
        ])
        fiber = pencil_fiber(net, (1, 0, 0), (0, 1, 0))
        assert fiber.singular_parameters == (F(0), F(1), F(2), F(4))
        assert fiber.cross_ratio == 3
        assert fiber.j == j_from_roots(0, 1, 2, 4)

    def test_repeated_eigenvalue(self):
        net = QuadricNet([
            [[0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 4]],
            [[-1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]],
            [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]],
        ])
        with pytest.raises(NonSquarefree):
            pencil_fiber(net, (1, 0, 0), (0, 1, 0))

    def test_dependent_netpoints_rejected(self, standard_net):
        with pytest.raises(OctadError):
            pencil_fiber(standard_net, (1, 2, 3), (2, 4, 6))

    def test_j_matches_hessian_covariants(self, standard_net):
        pair = covariants(QuarticCurve(hessian_quartic(standard_net).quartic))
        rng = random.Random(21)
        checked = 0
        while checked < 8:
            p1 = tuple(F(rng.randint(-5, 5)) for _ in range(3))
            p2 = tuple(F(rng.randint(-5, 5)) for _ in range(3))
            if not any(p1) or not any(p2):
                continue
            if matrix_rank([list(p1), list(p2)]) != 2:
                continue
            try:
                fiber = pencil_fiber(standard_net, p1, p2)
            except NonSquarefree:
                continue
            assert fiber.j == j_eval(pair, dual_point_of_line(p1, p2))
            checked += 1

    def test_no_root_search_without_a_square_discriminant(self, monkeypatch, seed1_net):
        # four rational roots make the discriminant a rational square; these
        # pencils' discriminants are not squares, so no roots are searched for
        searches = count_calls(monkeypatch, octad_mod, "rational_roots")
        rng = random.Random(0)
        fibers = []
        while len(fibers) < 3:
            p1, p2 = ([rng.randint(-3, 3) for _ in range(3)] for _ in range(2))
            if matrix_rank([p1, p2]) == 2:
                fibers.append(pencil_fiber(seed1_net, p1, p2))
        assert searches == []
        assert [f.singular_parameters for f in fibers] == [None] * 3

    def test_four_rational_roots_are_still_searched_for(self, monkeypatch):
        searches = count_calls(monkeypatch, octad_mod, "rational_roots")
        fiber = pencil_fiber(DIAGONAL, (1, 0, 0), (0, 1, 0))
        assert searches == ["rational_roots"]
        assert fiber.singular_parameters == (F(-1), F(-1, 2), F(-1, 3), F(-1, 4))


def has_repeated_root(coeffs):
    """Whether c0 a^4 + c1 a^3 b + ... + c4 b^4 has a repeated root in P1.

    Dehomogenized at b = 1, the root [1:0] has multiplicity 4 - deg g, and
    a repeated finite root divides gcd(g, g').
    """
    lam = Poly.var("lam")
    g = sum((Poly.const(c) * lam ** (4 - k) for k, c in enumerate(coeffs)), Poly.zero())
    if g.degree_in("lam") <= 2:
        return True
    return univariate_gcd(g, g.partial("lam"), "lam").degree_in("lam") > 0


def product_coefficients(forms):
    """Coefficients of alpha^4, alpha^3 beta, ..., beta^4 in prod (a alpha + b beta)."""
    coeffs = [1]
    for a, b in forms:
        coeffs = [a * (coeffs[k] if k < len(coeffs) else 0) + b * (coeffs[k - 1] if k else 0)
                  for k in range(len(coeffs) + 1)]
    return tuple(F(c) for c in coeffs)


@st.composite
def split_binary_quartics(draw):
    """Four integer linear forms a alpha + b beta with a drawn root pattern.

    The root multiplicities are 1,1,1,1 (drawn twice as often), 2,1,1,
    2,2 or 3,1, and the first root sits at [1:0] (a = 0) in one draw of
    three.
    """
    pattern = draw(st.sampled_from([(1, 1, 1, 1), (1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1)]))
    form = st.tuples(st.integers(-9, 9), st.integers(-9, 9)).filter(any)
    roots = draw(st.lists(form, min_size=len(pattern), max_size=len(pattern),
                          unique_by=lambda f: F(f[1], f[0]) if f[0] else None))
    if draw(st.integers(0, 2)) == 0 and all(a for a, _ in roots):
        roots[0] = (0, draw(st.sampled_from([1, -3])))
    scalar = st.sampled_from([-2, -1, 1, 3])
    return [(c * a, c * b) for (a, b), m in zip(roots, pattern)
            for c in [draw(scalar) for _ in range(m)]]


def diagonal_pencil_net(forms):
    """A net whose pencil through (1:0:0) and (0:1:0) is diag(a alpha + b beta)."""
    def diagonal(v):
        return [[v[i] if i == j else 0 for j in range(4)] for i in range(4)]

    anti = [[int(i + j == 3) for j in range(4)] for i in range(4)]
    return QuadricNet([diagonal([a for a, _ in forms]), diagonal([b for _, b in forms]), anti])


@pytest.fixture(scope="module")
def seed1_net():
    return net_from_heptad(SEED1_HEPTADS[1])


class TestPencilFiberOracles:
    @pytest.mark.parametrize("which", ["standard", "seed1"])
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_binary_quartic_is_the_pencil_determinant(self, which, data, standard_net,
                                                      seed1_net):
        net = standard_net if which == "standard" else seed1_net
        point = st.tuples(*[st.integers(-6, 6)] * 3).filter(any)
        p1, p2 = data.draw(point), data.draw(point)
        if matrix_rank([list(p1), list(p2)]) != 2:
            with pytest.raises(OctadError, match="independent"):
                pencil_fiber(net, p1, p2)
            return
        alpha, beta = Poly.var("alpha"), Poly.var("beta")
        m1, m2 = net.matrix_at(p1), net.matrix_at(p2)
        d = PolyMatrix([[alpha * m1[i][j] + beta * m2[i][j] for j in range(4)]
                        for i in range(4)]).det()
        by_exponents = {(dict(m).get("alpha", 0), dict(m).get("beta", 0)): c
                        for m, c in d.terms.items()}
        expected = tuple(F(by_exponents.get((4 - k, k), 0)) for k in range(5))
        try:
            fiber = pencil_fiber(net, p1, p2)
        except NonSquarefree:
            assert has_repeated_root(expected)
        else:
            assert fiber.binary_quartic == expected

    @settings(max_examples=200, deadline=None)
    @given(split_binary_quartics())
    @example([(1, 0), (1, 0), (0, 1), (1, 1)])  # double root at [1:0]
    @example([(1, 2), (2, 4), (-1, -2), (0, 1)])  # triple root: h2 = h3 = 0
    @example([(0, 1), (1, 1), (1, -1), (1, 2)])  # simple root at [1:0]
    @example([(1, 3), (2, -1), (1, 3), (1, 1)])  # double finite root
    def test_non_squarefree_exactly_on_a_repeated_root(self, forms):
        assume(matrix_rank([[a for a, _ in forms], [b for _, b in forms]]) == 2)
        expected = product_coefficients(forms)
        net = diagonal_pencil_net(forms)
        if has_repeated_root(expected):
            with pytest.raises(NonSquarefree, match="repeated root"):
                pencil_fiber(net, (1, 0, 0), (0, 1, 0))
        else:
            fiber = pencil_fiber(net, (1, 0, 0), (0, 1, 0))
            assert fiber.binary_quartic == expected


class TestCremona:
    def test_determinant_preserved_and_hessian_scalar(self, standard_octad):
        result = cremona_octad(standard_octad, (1, 2, 3, 4))
        assert result.det_preserved
        h_norm = result.normalized_source_net.symbol_matrix().det()
        h_new = result.net.symbol_matrix().det()
        assert h_norm == h_new

    def test_double_application_is_projective_identity(self, standard_octad):
        once = cremona_octad(standard_octad, (1, 2, 3, 4))
        twice = cremona_octad(once.octad, (1, 2, 3, 4))
        assert configs_projectively_equivalent(twice.octad.points,
                                               standard_octad.points)

    def test_complementary_center(self, standard_octad):
        result = cremona_octad(standard_octad, (5, 6, 7, 8))
        assert result.det_preserved
        from quartic_cones.theta import ThetaChar

        assert ThetaChar.from_quadruple(1, 2, 3, 4) == ThetaChar.from_quadruple(5, 6, 7, 8)

    def test_dependent_center_rejected(self):
        bad = Octad([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 0, 0),
                     (1, 1, 1, 1), (1, 2, 3, 4), (1, 4, 9, 25), (2, 3, 4, 5)])
        with pytest.raises(OctadError, match="center points are projectively dependent"):
            cremona_octad(bad, (1, 2, 3, 4))

    def test_octad_without_net_rejected(self, standard_octad):
        netless = Octad(standard_octad.points)
        with pytest.raises(OctadError, match="needs the octad's net"):
            cremona_octad(netless, (1, 2, 3, 4))


class TestGale:
    def test_standard_checks_pass(self, standard_octad):
        report = gale_transform(standard_octad)
        assert report.ok
        assert not report.collinear_triples
        assert not report.conic_six_tuples

    def test_synthetic_collinear_violation(self):
        fake = Octad([(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0), (0, 0, 0, 1),
                      (1, 1, 1, 1), (1, 2, 3, 4), (1, 4, 9, 25), (2, 3, 0, 0)])
        report = gale_transform(fake)
        assert not report.ok
        assert report.collinear_triples

    def test_choice_independence(self, standard_octad):
        base = gale_transform(standard_octad)
        rng = random.Random(22)
        from quartic_cones.polycore import nullspace

        p8 = standard_octad.point(8)
        kernel = nullspace([list(p8)])
        for _ in range(2):
            while True:
                mix = [[F(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
                forms = [[sum(mix[i][k] * kernel[k][j] for k in range(3))
                          for j in range(4)] for i in range(3)]
                if matrix_rank(forms) == 3:
                    break
            other = gale_transform(standard_octad, forms=forms)
            assert configs_projectively_equivalent(base.points, other.points)


class TestSteinerian:
    def test_diagonal_kernel(self):
        point = steinerian_point(DIAGONAL, (1, -1, 0))
        assert point == (F(1), F(0), F(0), F(0))

    def test_heptad_net_kernel_verified(self):
        # seven points on the rank-3 cone XY - Z^2 = 0 force the cone into
        # the net, so (1, 0, 0) is a rational Hessian point whose kernel is
        # the cone vertex
        pts = [(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 1, 0), (1, 1, 1, 1),
               (1, 4, 2, 1), (4, 1, 2, 3), (1, 9, 3, 5)]
        net = net_from_heptad(pts)
        kernel = steinerian_point(net, (1, 0, 0))
        assert kernel == (F(0), F(0), F(0), F(1))
        m = net.matrix_at((1, 0, 0))
        assert all(sum(m[i][k] * kernel[k] for k in range(4)) == 0 for i in range(4))

    def test_corank_two_rejected(self):
        with pytest.raises(CorankTooHigh):
            steinerian_point(DIAGONAL, (2, -3, 1))

    def test_off_hessian_rejected(self):
        with pytest.raises(OctadError):
            steinerian_point(DIAGONAL, (1, 1, 1))


class TestOctadType:
    def test_duplicate_points_rejected(self):
        pts = list(STANDARD_HEPTAD) + [STANDARD_HEPTAD[0]]
        with pytest.raises(OctadError):
            Octad(pts)

    def test_labels(self, standard_octad):
        assert standard_octad.point(1) == (F(1), F(0), F(0), F(0))
        with pytest.raises(OctadError):
            standard_octad.point(9)
