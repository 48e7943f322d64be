import random
from fractions import Fraction as F

import pytest

from quartic_cones.cone import (
    ConeEquation,
    ConeError,
    ExcludedParameter,
    InfeasibleCounts,
    NoUnitChart,
    NotDualSingular,
    PluckerCounts,
    WeightedPoint,
    classify_and_lift,
    cone_equation,
    is_on_cone,
    is_singular_point,
    node_certificate,
    plucker_ledger,
    s4_family,
)
from quartic_cones.covariants import (
    CovariantPair,
    QuarticCurve,
    covariants,
    dual_curve,
)
from quartic_cones.polycore import Poly, det_fraction
from quartic_cones.polyio import parse_poly

from conftest import P

CB_SINGULAR = "(x^2 - y^2)^2 + z*(x^3 + y^3 + z^3)"
CB_SMOOTH = "(x^2 - y^2)^2 + z*(x^3 + 2*y^3 + z^3)"


def pair_of(text):
    return covariants(QuarticCurve(parse_poly(text, "xyz")))


def o_branch_hessians(pair, cone, lift):
    """g4 and g6 at o = (0,0,1), the 4x4 Hessian of the cone at the o-branch
    lift over o and the 2x2 Hessian of the dual curve at o, in the chart u = 1."""
    f = cone.F.subs({"u": Poly.const(1)})
    rest = ("s", "t", "v", "w")
    q = {"s": F(0), "t": F(0), "v": lift.coords[3], "w": F(0)}
    hess_f = det_fraction([[f.partial(a).partial(b).eval_at(q)
                            for b in rest] for a in rest])
    g = dual_curve(pair).G.subs({"u": Poly.const(1)})
    o = {"s": F(0), "t": F(0)}
    hess_g = det_fraction([[g.partial(a).partial(b).eval_at(o)
                            for b in ("s", "t")] for a in ("s", "t")])
    at = {"s": F(0), "t": F(0), "u": F(1)}
    return pair.g4.eval_at(at), pair.g6.eval_at(at), hess_f, hess_g


class TestConeEquation:
    def test_fermat(self):
        cone = cone_equation(pair_of("x^4 + y^4 + z^4"))
        assert cone.F == P("-w^2 + v^3 - 4*(s^4 + t^4 + u^4)*v + 16*s^2*t^2*u^2",
                           "s t u v w")

    def test_klein(self):
        pair = pair_of("x^3*y + y^3*z + z^3*x")
        cone = cone_equation(pair)
        v, w = Poly.var("v"), Poly.var("w")
        assert cone.F == -w ** 2 + v ** 3 - pair.g4 * v + pair.g6

    def test_s4_at_zero_is_fermat(self):
        fam = s4_family(0)
        assert fam.cone.F == cone_equation(pair_of("x^4 + y^4 + z^4")).F

    def test_weighted_euler_identity(self):
        rng = random.Random(20)
        weights = {"s": 1, "t": 1, "u": 1, "v": 2, "w": 3}
        for text in ("x^4 + y^4 + z^4", "x^3*y + y^3*z + z^3*x", CB_SMOOTH):
            cone = cone_equation(pair_of(text))
            euler = Poly.zero()
            for name, wt in weights.items():
                euler = euler + wt * Poly.var(name) * cone.F.partial(name)
            assert euler == 6 * cone.F


class TestSingularPoints:
    def test_base_point_on_cone_but_smooth(self):
        cone = cone_equation(pair_of("x^4 + y^4 + z^4"))
        base = WeightedPoint(0, 0, 0, 1, 1)
        assert is_on_cone(cone, base)
        assert not is_singular_point(cone, base)

    def test_synthetic_singular_point(self):
        s = Poly.var("s")
        cone = cone_equation(CovariantPair(3 * s ** 4, 2 * s ** 6))
        assert is_singular_point(cone, WeightedPoint(1, 0, 0, 1, 0))

    def test_perturbed_base_point_off_cone(self):
        cone = cone_equation(pair_of("x^4 + y^4 + z^4"))
        assert not is_on_cone(cone, WeightedPoint(0, 0, 0, 1, 2))

    def test_zero_point_rejected(self):
        with pytest.raises(ConeError):
            WeightedPoint(0, 0, 0, 0, 0)


class TestWeightedEquality:
    def test_weight_scaling(self):
        assert WeightedPoint(1, 2, 3, 4, 5) == WeightedPoint(2, 4, 6, 16, 40)
        assert WeightedPoint(1, 2, 3, 4, 5) != WeightedPoint(2, 4, 6, 16, 41)

    def test_vw_only_points(self):
        assert WeightedPoint(0, 0, 0, 1, 1) == WeightedPoint(0, 0, 0, 4, 8)
        assert WeightedPoint(0, 0, 0, 1, 0) == WeightedPoint(0, 0, 0, 9, 0)
        # mu^2 = 2 has no rational solution
        assert WeightedPoint(0, 0, 0, 1, 0) != WeightedPoint(0, 0, 0, 2, 0)
        assert WeightedPoint(0, 0, 0, 0, 1) == WeightedPoint(0, 0, 0, 0, 8)
        assert WeightedPoint(0, 0, 0, 0, 1) != WeightedPoint(0, 0, 0, 0, 2)

    def test_unhashable(self):
        # __eq__ identifies weighted rescalings, so there is no hash to keep
        # consistent with it short of a weighted normal form
        with pytest.raises(TypeError):
            hash(WeightedPoint(1, 0, 0, 1, 0))


class TestClassifyAndLift:
    def test_o_branch_formula(self):
        pair = pair_of(CB_SMOOTH)
        lift = classify_and_lift(pair, (0, 0, 1))
        at = {"s": F(0), "t": F(0), "u": F(1)}
        g4v, g6v = pair.g4.eval_at(at), pair.g6.eval_at(at)
        assert lift == WeightedPoint(0, 0, 1, 3 * g6v / (2 * g4v), 0)

    def test_v_branch_output_form(self):
        # synthetic pair putting (1,0,0) in the v-branch:
        # g6 singular at (1,0,0) and g4 vanishing there
        t, u = Poly.var("t"), Poly.var("u")
        s = Poly.var("s")
        pair = CovariantPair(t * u * s ** 2 + t ** 4 + u ** 4,
                             (t * u) ** 2 * s ** 2 + t ** 6)
        G = dual_curve(pair).G
        at = {"s": F(1), "t": F(0), "u": F(0)}
        assert G.eval_at(at) == 0
        lift = classify_and_lift(pair, (1, 0, 0))
        assert lift == WeightedPoint(1, 0, 0, 0, 0)

    def test_non_singular_dual_point_rejected(self):
        pair = pair_of(CB_SMOOTH)
        with pytest.raises(NotDualSingular):
            classify_and_lift(pair, (0, 1, 0))

    def test_lift_is_certified(self):
        pair = pair_of(CB_SMOOTH)
        cone = cone_equation(pair)
        lift = classify_and_lift(pair, (0, 0, 1))
        assert is_singular_point(cone, lift)


class TestNodeCertificate:
    def test_smooth_witness_is_node(self):
        pair = pair_of(CB_SMOOTH)
        lift = classify_and_lift(pair, (0, 0, 1))
        assert node_certificate(cone_equation(pair), lift)

    def test_degenerate_synthetic(self):
        s = Poly.var("s")
        cone = cone_equation(CovariantPair(3 * s ** 4, 2 * s ** 6))
        # f is independent of t and u: those Hessian rows vanish
        assert node_certificate(cone, WeightedPoint(1, 0, 0, 1, 0)) is False

    def test_smooth_point_rejected(self):
        cone = cone_equation(pair_of("x^4 + y^4 + z^4"))
        with pytest.raises(ConeError):
            node_certificate(cone, WeightedPoint(0, 0, 0, 1, 1))

    def test_no_singular_point_on_the_vertex_axis(self):
        # On s = t = u = 0 the equation restricts to -w^2 + v^3, which has
        # no weighted-projective singular point, so NoUnitChart cannot fire
        # after the singularity precondition; the precondition error wins.
        s = Poly.var("s")
        cone = cone_equation(CovariantPair(0 * s, 0 * s))
        for v, w in ((1, 1), (1, 0), (0, 1)):
            assert not is_singular_point(cone, WeightedPoint(0, 0, 0, v, w))
        with pytest.raises(ConeError):
            node_certificate(cone, WeightedPoint(0, 0, 0, 1, 1))


class TestLiftRelationsSymbolic:
    def test_v_branch_partials_with_generic_coefficients(self):
        # With generic quartic/sextic covariants, the gradient of F at
        # [s:t:u:0:0] is exactly (grad g6, -g4, 0) and F itself restricts
        # to g6, so the lift is singular iff g6 and its gradient vanish
        # and g4 vanishes.
        from quartic_cones.polycore import coefficients_multi
        import itertools as it

        def generic_form(prefix, degree):
            total = Poly.zero()
            for exps in it.product(range(degree + 1), repeat=3):
                if sum(exps) != degree:
                    continue
                name = prefix + "".join(map(str, exps))
                mono = Poly.const(1)
                for v, e in zip("stu", exps):
                    mono = mono * Poly.var(v) ** e
                total = total + Poly.var(name) * mono
            return total

        g4 = generic_form("c", 4)
        g6 = generic_form("d", 6)
        v, w = Poly.var("v"), Poly.var("w")
        F = -w ** 2 + v ** 3 - g4 * v + g6
        at_section = {"v": Poly.const(0), "w": Poly.const(0)}
        assert F.subs(at_section) == g6
        for name in "stu":
            assert F.partial(name).subs(at_section) == g6.partial(name)
        assert F.partial("v").subs(at_section) == -g4
        assert F.partial("w").subs(at_section).is_zero()


class TestNodeHessianCrossCheck:
    # Optional cross-check of the chart-specific proof identity.  The
    # constant verified on independent witnesses is 24 (the printed one
    # is twice that; see the decisions ledger).
    @pytest.mark.parametrize("text", [
        CB_SMOOTH,
        "(x^2 - 2*y^2)^2 + z*(2*x^3 + 3*y^3 + z^3)",
    ])
    def test_o_branch_identity(self, text):
        pair = pair_of(text)
        cone = cone_equation(pair)
        lift = classify_and_lift(pair, (0, 0, 1))
        g4t, g6t, hess_f, hess_g = o_branch_hessians(pair, cone, lift)
        assert 24 * g4t ** 4 * hess_f == -g6t * hess_g
        assert hess_g != 0 and hess_f != 0


class TestPlucker:
    def test_no_hyperflexes(self):
        counts = plucker_ledger(0)
        assert (counts.delta_o, counts.delta_s, counts.iota) == (28, 0, 24)
        assert counts.dual_singular_points == 52

    def test_fermat_extreme(self):
        counts = plucker_ledger(12)
        assert (counts.delta_o, counts.delta_s, counts.iota) == (16, 12, 0)
        assert counts.dual_singular_points == 28

    def test_infeasible(self):
        with pytest.raises(InfeasibleCounts):
            plucker_ledger(13)
        with pytest.raises(InfeasibleCounts):
            plucker_ledger(-1)

    def test_relations_enforced_on_construction(self):
        with pytest.raises(InfeasibleCounts):
            PluckerCounts(27, 0, 24)
        counts = PluckerCounts(16, 12, 0)
        assert counts.delta_o + counts.delta_s == 28
        assert counts.iota + 2 * counts.delta_s == 24


class TestS4Family:
    def test_gamma_at_3(self):
        fam = s4_family(3)
        assert fam.gamma == 4

    def test_symbolic_identity(self):
        fam = s4_family("symbolic")
        # identity checks run inside the constructor; symbolic gamma omitted
        assert fam.planes is None
        assert fam.gamma is None
        assert "lambda" in fam.pair.g4.variables

    def test_excluded_values(self):
        for bad in (2, -2, -1):
            with pytest.raises(ExcludedParameter):
                s4_family(bad)

    def test_planes_inside_cone(self):
        fam = s4_family(3)
        s, t, u = (Poly.var(n) for n in "stu")
        sq = s ** 2 + t ** 2 + u ** 2
        for sign in (1, -1):
            residue = fam.cone.F.subs(
                {"v": fam.mu * sq, "w": sign * fam.gamma * s * t * u})
            assert residue.is_zero()

    def test_branch_quartic(self):
        fam = s4_family(3)
        assert fam.branch_quartic == P("s^4 + t^4 + u^4"
                                       " + 3*(t^2*u^2 + s^2*u^2 + s^2*t^2)")
        s, t, u = (Poly.var(n) for n in "stu")
        sq = s ** 2 + t ** 2 + u ** 2
        assert 4 * fam.pair.g4 - 3 * fam.mu ** 2 * sq ** 2 == 16 * fam.branch_quartic

    def test_W_blowdown_point_is_smooth_point_of_W(self):
        fam = s4_family(3)
        at = {"s": F(0), "t": F(0), "u": F(0), "r": F(1), "v": F(0)}
        assert fam.W.eval_at(at) == 0
        grads = [fam.W.partial(n).eval_at(at) for n in ("s", "t", "u", "r", "v")]
        assert any(g != 0 for g in grads)

    def test_irrational_gamma_omitted(self):
        fam = s4_family(1)  # lambda + 1 = 2, not a square
        assert fam.gamma is None
        assert "not a rational square" in fam.planes_omitted_reason
