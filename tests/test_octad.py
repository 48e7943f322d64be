import itertools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quartic_cones import octad as octad_mod
from quartic_cones import polycore
from quartic_cones.covariants import QuarticCurve, covariants, j_eval, j_from_roots
from quartic_cones.octad import (
    CERTIFICATE_PRIME,
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
    det_nonzero_mod_p,
    dual_point_of_line,
    eighth_point,
    gale_transform,
    hessian_quartic,
    net_from_heptad,
    pencil_fiber,
    points_equal,
    quadric_eval,
    steinerian_point,
)
from quartic_cones.polycore import det_fraction, matrix_rank
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
            assert points_equal(rederived.point(8), standard_octad.point(omit))

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


def scaled_integer_det(rows):
    """det_fraction(rows) times the row scales that det_nonzero_mod_p applies."""
    value = det_fraction(rows)
    for row in rows:
        value *= math.lcm(*(F(v).denominator for v in row))
    assert value.denominator == 1
    return value.numerator


class TestModularCertificate:
    def test_zero_residue_is_no_proof(self):
        for rows in ([[CERTIFICATE_PRIME]],
                     [[F(CERTIFICATE_PRIME, 3), 1], [0, 3]],
                     [[2, 1], [1, F(CERTIFICATE_PRIME + 1, 2)]]):
            assert det_nonzero_mod_p(rows) is False
            assert det_fraction(rows) != 0

    def test_singular_and_regular(self):
        assert det_nonzero_mod_p([[1, 2], [2, 4]]) is False
        assert det_nonzero_mod_p([[0, F(1, 2)], [F(2, 3), 0]]) is True
        assert det_nonzero_mod_p([]) is True

    @pytest.mark.parametrize("index", range(6))
    def test_forced_no_proof_keeps_pinned_points(self, monkeypatch, index):
        monkeypatch.setattr(octad_mod, "det_nonzero_mod_p", lambda rows: False)
        exact = count_calls(monkeypatch, octad_mod, "hessian_quartic")
        net = net_from_heptad(seeded_heptads()[index])
        p8 = eighth_point(net, rng=random.Random(0)).point(8)
        assert p8 == tuple(F(c) for c in PINNED_EIGHTH_POINTS[index])
        assert exact == ["hessian_quartic"]

    def test_coplanar_seed_heptad_rejected(self):
        net = net_from_heptad(SEED1_HEPTADS[4])
        with pytest.raises(OctadError, match="not Aronhold"):
            eighth_point(net)

    def test_random_heptad_certified_without_exact_resultant(self, monkeypatch):
        quotients = count_calls(monkeypatch, polycore, "macaulay_quotient")
        octad = eighth_point(net_from_heptad(SEED1_HEPTADS[1]))
        assert quotients == []
        assert len(octad.points) == 8

    def test_degenerate_identity_minor_falls_back(self, monkeypatch):
        quotients = count_calls(monkeypatch, polycore, "macaulay_quotient")
        octad = eighth_point(net_from_heptad(STANDARD_HEPTAD))
        assert octad.point(8) == (F(121), F(-22), F(-15), F(-11))
        # the identity frame's minor vanishes, a random frame's does not
        assert len(quotients) == 2

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_agrees_with_exact_determinant(self, data):
        n = data.draw(st.integers(1, 4))
        entry = st.fractions(min_value=-40, max_value=40, max_denominator=6)
        rows = [[data.draw(entry) for _ in range(n)] for _ in range(n)]
        if n > 1 and data.draw(st.booleans()):  # a rank-deficient matrix
            a, b = data.draw(entry), data.draw(entry)
            rows[-1] = [a * u + b * v for u, v in zip(rows[0], rows[1 % (n - 1)])]
        exact = det_fraction(rows)
        modular = det_nonzero_mod_p(rows)
        if modular:
            assert exact != 0
        if abs(scaled_integer_det(rows)) < CERTIFICATE_PRIME:
            assert modular == (exact != 0)


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


class TestCremona:
    def test_determinant_preserved_and_hessian_scalar(self, standard_octad, standard_net):
        result = cremona_octad(standard_octad, (1, 2, 3, 4), net=standard_net)
        assert result.det_preserved
        h_norm = result.normalized_source_net.symbol_matrix().det()
        h_new = result.net.symbol_matrix().det()
        assert h_norm == h_new

    def test_double_application_is_projective_identity(self, standard_octad, standard_net):
        once = cremona_octad(standard_octad, (1, 2, 3, 4), net=standard_net)
        twice = cremona_octad(once.octad, (1, 2, 3, 4))
        assert configs_projectively_equivalent(twice.octad.points,
                                               standard_octad.points)

    def test_complementary_center(self, standard_octad, standard_net):
        result = cremona_octad(standard_octad, (5, 6, 7, 8), net=standard_net)
        assert result.det_preserved
        from quartic_cones.theta import ThetaChar

        assert ThetaChar.from_quadruple(1, 2, 3, 4) == ThetaChar.from_quadruple(5, 6, 7, 8)

    def test_dependent_center_rejected(self, standard_octad, standard_net):
        bad = Octad([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 0, 0),
                     (1, 1, 1, 1), (1, 2, 3, 4), (1, 4, 9, 25), (2, 3, 4, 5)],
                    validate=False)
        with pytest.raises(OctadError, match="center points are projectively dependent"):
            cremona_octad(bad, (1, 2, 3, 4), net=standard_net)


class TestGale:
    def test_standard_checks_pass(self, standard_octad):
        report = gale_transform(standard_octad)
        assert report.ok
        assert not report.collinear_triples
        assert not report.conic_six_tuples

    def test_synthetic_collinear_violation(self):
        fake = Octad([(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0), (0, 0, 0, 1),
                      (1, 1, 1, 1), (1, 2, 3, 4), (1, 4, 9, 25), (2, 3, 0, 0)],
                     validate=False)
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
