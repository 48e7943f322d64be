import itertools
import random
from fractions import Fraction as F

import pytest

from quartic_cones.covariants import (
    CovariantPair,
    DegenerateQuadruple,
    IndeterminateJ,
    OnDualCurve,
    QuarticCurve,
    binary_invariants,
    covariants,
    cross_ratio,
    dual_curve,
    j_eval,
    j_from_cross_ratio,
    j_from_roots,
    j_of_binary_quartic,
    line_restriction,
)
from quartic_cones.polycore import (
    HomogeneityError,
    Poly,
    exact_divide,
    resultant_bivariate,
)
from quartic_cones.polyio import parse_poly

from conftest import P

KLEIN = "x^3*y + y^3*z + z^3*x"
FERMAT = "x^4 + y^4 + z^4"
E510 = "x^4 + y^4 + z^4 + x^3*y + 2*x^3*z"
S4 = "x^4 + y^4 + z^4 + lambda*(y^2*z^2 + x^2*z^2 + x^2*y^2)"


def curve(text, names="x y z"):
    return QuarticCurve(parse_poly(text, names.split()))


def random_quartic(rng, lo=-9, hi=9):
    terms = {}
    for i in range(5):
        for j in range(5 - i):
            k = 4 - i - j
            c = rng.randint(lo, hi)
            if c:
                terms[(("x", i), ("y", j), ("z", k))] = F(c)
    cleaned = {tuple((n, e) for n, e in mono if e): c for mono, c in terms.items()}
    poly = Poly(cleaned)
    if poly.is_zero():
        poly = Poly.var("x") ** 4
    return QuarticCurve(poly)


class TestQuarticCurve:
    def test_accessor(self):
        c = curve(E510)
        assert c.a(4, 0, 0) == Poly.const(1)
        assert c.a(3, 1, 0) == Poly.const(1)
        assert c.a(3, 0, 1) == Poly.const(2)
        assert c.a(2, 2, 0) == Poly.const(0)

    def test_non_quartic_rejected(self):
        with pytest.raises(HomogeneityError):
            QuarticCurve(parse_poly("x^3", "xyz"))
        with pytest.raises(HomogeneityError):
            QuarticCurve(parse_poly("x^4 + y^3", "xyz"))

    def test_parameters_allowed(self):
        c = curve(S4, "x y z lambda")
        assert c.poly.variables == {"x", "y", "z", "lambda"}
        assert c.a(2, 2, 0) == Poly.var("lambda")


class TestLineRestriction:
    def test_fermat_b0_b2(self):
        b = line_restriction(curve(FERMAT)).b
        assert b[0] == P("s^4 + u^4")
        assert b[2] == P("6*s^2*t^2")

    def test_pure_z4(self):
        # H(ux, uy, -(sx+ty)) = (sx+ty)^4
        b = line_restriction(curve("z^4")).b
        assert b[0] == P("s^4")
        assert b[1] == P("4*s^3*t")
        assert b[2] == P("6*s^2*t^2")
        assert b[3] == P("4*s*t^3")
        assert b[4] == P("t^4")

    def test_routes_agree_on_random_quartics(self):
        # the constructor already cross-checks; this exercises it broadly
        rng = random.Random(10)
        for _ in range(50):
            line_restriction(random_quartic(rng))


class TestBinaryInvariants:
    def test_reducible_pair(self):
        h2, h3 = binary_invariants([F(1), F(0), F(0), F(0), F(1)])
        assert (h2, h3) == (F(4), F(0))

    def test_middle_only(self):
        h2, h3 = binary_invariants([F(0), F(0), F(1), F(0), F(0)])
        assert (h2, h3) == (F(1, 3), F(-2, 27))

    def test_symmetric_expression_from_roots(self):
        # 3 h2 / b0^2 equals the displayed symmetric root expression
        rng = random.Random(11)
        for _ in range(20):
            roots = []
            while len(set(roots)) != 4:
                roots = [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(4)]
            x1, x2, x3, x4 = roots
            e1 = sum(roots)
            e2 = sum(a * b for a, b in itertools.combinations(roots, 2))
            e3 = sum(a * b * c for a, b, c in itertools.combinations(roots, 3))
            e4 = x1 * x2 * x3 * x4
            h2, _ = binary_invariants([F(1), -e1, e2, -e3, e4])
            symmetric = (x1 - x2) ** 2 * (x4 - x3) ** 2 \
                - (x1 - x3) * (x4 - x2) * (x4 - x1) * (x3 - x2)
            assert 3 * h2 == symmetric

    def test_discriminant_identity(self):
        # 4 h2^3 - 27 h3^2 is exactly the discriminant of the binary quartic
        bs = [Poly.var(f"b{i}") for i in range(5)]
        x, y = Poly.var("x"), Poly.var("y")
        f = sum((bs[i] * x ** (4 - i) * y ** i for i in range(5)), Poly.zero())
        fa = f.subs({"y": Poly.const(1)})
        disc = exact_divide(resultant_bivariate(fa, fa.partial("x"), "x"), bs[0])
        h2, h3 = binary_invariants(bs)
        assert disc == 4 * h2 ** 3 - 27 * h3 ** 2


class TestCovariants:
    def test_klein(self):
        pair = covariants(curve(KLEIN))
        assert pair.g4 == P("s^3*t + t^3*u + u^3*s")
        # The paper's own pipeline (its b-formulas, h3, division by u^6)
        # gives this value; the printed example is 3/8 of it, a typo.
        g6 = P("s^5*u - 5*s^2*t^2*u^2 + s*t^5 + t*u^5")
        assert pair.g6 == g6
        printed = P("1/8*(3*s^5*u - 15*s^2*t^2*u^2 + 3*s*t^5 + 3*t*u^5)")
        assert printed == g6 * F(3, 8)

    def test_fermat(self):
        pair = covariants(curve(FERMAT))
        assert pair.g4 == P("4*(s^4 + t^4 + u^4)")
        assert pair.g6 == P("16*s^2*t^2*u^2")

    def test_example_510(self):
        pair = covariants(curve(E510))
        assert pair.g4 == P("4*(s^4 - s*t^3 - 2*s*u^3 + t^4 + u^4)")
        assert pair.g6 == P("-16*s^3*t^2*u - 8*s^3*t*u^2 + 16*s^2*t^2*u^2 - 4*t^6"
                            " + 4*t^5*u - t^4*u^2 - 4*t^2*u^4 + 4*t*u^5 - u^6")

    def test_s4_family_symbolic(self):
        pair = covariants(curve(S4, "x y z lambda"))
        names = "s t u lambda"
        g4 = parse_poly(
            "1/3*(lambda^2 + 12)*(s^4 + t^4 + u^4)"
            " + 2/3*(lambda^2 + 6*lambda)*(t^2*u^2 + s^2*u^2 + s^2*t^2)",
            names.split())
        g6 = parse_poly(
            "2/9*(-lambda^3 + 12*lambda^2 + 12*lambda)"
            "*(t^4*u^2 + t^2*u^4 + s^4*u^2 + s^2*u^4 + s^4*t^2 + s^2*t^4)"
            " + 2/27*(-lambda^3 + 36*lambda)*(s^6 + t^6 + u^6)"
            " + 4/9*(8*lambda^3 - 9*lambda^2 + 36)*s^2*t^2*u^2",
            names.split())
        assert pair.g4 == g4
        assert pair.g6 == g6

    def test_specialization_commutes(self):
        pair = covariants(curve(S4, "x y z lambda"))
        lam = F(5)
        specialized = CovariantPair(pair.g4.subs({"lambda": Poly.const(lam)}),
                                    pair.g6.subs({"lambda": Poly.const(lam)}))
        direct = covariants(QuarticCurve(
            parse_poly(S4, "x y z lambda".split()).subs({"lambda": Poly.const(lam)})))
        assert specialized.g4 == direct.g4
        assert specialized.g6 == direct.g6

    def test_divisibility_on_random_quartics(self):
        rng = random.Random(12)
        for _ in range(60):
            covariants(random_quartic(rng))  # raises if u^4/u^6 division fails


class TestSymmetry:
    def test_klein_cyclic_symmetry(self):
        # the covariants inherit the curve's cyclic symmetry (x,y,z)->(y,z,x)
        pair = covariants(curve(KLEIN))
        rotate = {"s": Poly.var("t"), "t": Poly.var("u"), "u": Poly.var("s")}
        assert pair.g4.subs(rotate) == pair.g4
        assert pair.g6.subs(rotate) == pair.g6

    def test_s4_family_symmetries(self):
        pair = covariants(curve(S4, "x y z lambda"))
        for perm in itertools.permutations("stu"):
            mapping = {a: Poly.var(b) for a, b in zip("stu", perm)}
            assert pair.g4.subs(mapping) == pair.g4
            assert pair.g6.subs(mapping) == pair.g6
        flip = {"s": -Poly.var("s"), "t": -Poly.var("t"), "u": Poly.var("u")}
        assert pair.g4.subs(flip) == pair.g4
        assert pair.g6.subs(flip) == pair.g6


class TestDualCurve:
    def test_fermat(self):
        G = dual_curve(covariants(curve(FERMAT))).G
        assert G == P("256*((s^4 + t^4 + u^4)^3 - 27*s^4*t^4*u^4)")

    def test_degree_12(self):
        for text in (KLEIN, FERMAT, E510):
            G = dual_curve(covariants(curve(text))).G
            assert G.homogeneous_degree({"s": 1, "t": 1, "u": 1}) == 12

    def test_example_510_from_printed_values(self):
        pair = covariants(curve(E510))
        assert dual_curve(pair).G == 4 * pair.g4 ** 3 - 27 * pair.g6 ** 2


def random_pencil(rng):
    """Q0 + a*Q1 + b*Q2 with a few terms each and coefficients such as -7/4."""
    monos = [(("x", i), ("y", j), ("z", 4 - i - j)) for i in range(5) for j in range(5 - i)]
    total = Poly.zero()
    for param in (None, "a", "b"):
        form = Poly({tuple((n, e) for n, e in m if e):
                     F(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))
                     for m in rng.sample(monos, 4)})
        total = total + (form if param is None else Poly.var(param) * form)
    return QuarticCurve(total)


class TestPackedChain:
    """covariants() and dual_curve() run packed; the Poly route is the reference."""

    def test_pencils_with_fractional_coefficients_match_the_poly_route(self):
        rng = random.Random(27)
        u = Poly.var("u")
        for _ in range(4):
            c = random_pencil(rng)
            assert {"a", "b"} <= c.poly.variables
            h2, h3 = binary_invariants(c.restriction.b)
            pair = covariants(c)
            assert pair.g4 == exact_divide(h2, u ** 4)
            assert pair.g6 == exact_divide(h3, u ** 6)
            assert any(v.denominator != 1 for v in pair.g6.terms.values())
            assert dual_curve(pair).G == 4 * pair.g4 ** 3 - 27 * pair.g6 ** 2

    @pytest.mark.parametrize("g4, g6", [
        ("s^4 + 1/2*t^2*u^2", "0"),
        ("a^3*s^4 - t*u^3", "2/3*s^3*t^3"),
        ("0", "s^6 - 5/3*a*t^2*u^4"),
        ("s*t", "u^5 + 3"),
    ])
    def test_dual_curve_sizes_its_bound_for_both_powers(self, g4, g6):
        # the bound must hold g4^3 and g6^2, whichever has the higher degree
        names = "s t u a".split()
        pair = CovariantPair(parse_poly(g4, names), parse_poly(g6, names))
        assert dual_curve(pair).G == 4 * pair.g4 ** 3 - 27 * pair.g6 ** 2


class TestJEval:
    def test_equianharmonic_zero(self):
        pair = CovariantPair(P("s^4 - t^4"), P("u^6"))
        assert j_eval(pair, (1, 1, 1)) == 0

    def test_harmonic_1728(self):
        pair = covariants(curve(FERMAT))
        # g6 = 16 s^2 t^2 u^2 vanishes at (1,2,0), g4 does not
        assert j_eval(pair, (1, 2, 0)) == 1728

    def test_fermat_111_is_on_dual_curve(self):
        # 4*12^3 = 27*16^2 = 6912: the line x+y+z=0 is a bitangent
        pair = covariants(curve(FERMAT))
        with pytest.raises(OnDualCurve):
            j_eval(pair, (1, 1, 1))
        restriction = parse_poly(FERMAT, "xyz").subs(
            {"z": -(Poly.var("x") + Poly.var("y"))})
        assert restriction == 2 * (Poly.var("x") ** 2
                                   + Poly.var("x") * Poly.var("y")
                                   + Poly.var("y") ** 2) ** 2

    def test_indeterminate(self):
        pair = CovariantPair(P("s^4 - t^4"), P("s^6 - t^6"))
        with pytest.raises(IndeterminateJ):
            j_eval(pair, (1, 1, 1))

    def test_exact_value(self):
        pair = covariants(curve(FERMAT))
        g4, g6 = F(392), F(576)  # values at (1,2,3)
        expected = 1728 * 4 * g4 ** 3 / (4 * g4 ** 3 - 27 * g6 ** 2)
        assert j_eval(pair, (1, 2, 3)) == expected


class TestJFromRoots:
    def test_reordering_invariance_example(self):
        assert j_from_roots(0, 1, 2, 3) == j_from_roots(3, 1, 2, 0)

    def test_harmonic_quadruple(self):
        # cross-ratio of (-1, 1, 0, 1/3) is -1
        assert cross_ratio(-1, 1, 0, F(1, 3)) == -1
        assert j_from_roots(-1, 1, 0, F(1, 3)) == 1728

    def test_all_24_permutations(self):
        rng = random.Random(13)
        for _ in range(10):
            roots = []
            while len(set(roots)) != 4:
                roots = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(4)]
            values = {j_from_roots(*p) for p in itertools.permutations(roots)}
            assert len(values) == 1

    def test_repeated_root_rejected(self):
        with pytest.raises(DegenerateQuadruple):
            j_from_roots(1, 1, 2, 3)

    def test_matches_invariant_route(self):
        rng = random.Random(14)
        for _ in range(25):
            roots = []
            while len(set(roots)) != 4:
                roots = [F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(4)]
            e1 = sum(roots)
            e2 = sum(a * b for a, b in itertools.combinations(roots, 2))
            e3 = sum(a * b * c for a, b, c in itertools.combinations(roots, 3))
            e4 = roots[0] * roots[1] * roots[2] * roots[3]
            assert j_from_roots(*roots) == j_of_binary_quartic(
                [F(1), -e1, e2, -e3, e4])
            assert j_from_cross_ratio(cross_ratio(*roots)) == j_from_roots(*roots)


def constructed_line_instance(rng):
    """A quartic meeting the line dual to (s,t,u) in four chosen rational
    points: the product of four lines through those points."""
    while True:
        s0, t0, u0 = (F(rng.randint(-5, 5)) for _ in range(3))
        if u0 != 0 and (s0, t0) != (0, 0):
            break
    roots = []
    while len(set(roots)) != 4:
        roots = [F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(4)]
    x, y, z = (Poly.var(n) for n in "xyz")
    quartic = Poly.const(1)
    for r in roots:
        # a line through (r, 1, -(s0 r + t0)/u0), generically chosen
        zc = -(s0 * r + t0) / u0
        while True:
            a, b = F(rng.randint(-4, 4)), F(rng.randint(-4, 4))
            c_num = -(a * r + b)
            if zc != 0:
                line = a * x + b * y + (c_num / zc) * z
            elif c_num == 0:
                line = a * x + b * y + F(rng.randint(1, 4)) * z
            else:
                continue
            if not line.is_zero():
                break
        quartic = quartic * line
    return QuarticCurve(quartic), (s0, t0, u0), roots


class TestJCoherence:
    def test_j_eval_equals_j_from_roots_on_constructed_lines(self):
        rng = random.Random(15)
        done = 0
        while done < 12:
            curve_, dual_point, roots = constructed_line_instance(rng)
            pair = covariants(curve_)
            try:
                lhs = j_eval(pair, dual_point)
            except (OnDualCurve, IndeterminateJ):
                continue
            assert lhs == j_from_roots(*roots)
            done += 1
