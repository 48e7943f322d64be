import ast
import pickle
import random
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quartic_cones import polycore
from quartic_cones.cone import rational_cbrt
from quartic_cones.octad import hessian_quartic, net_from_heptad
from quartic_cones.polycore import (
    DegreeError,
    NotDivisibleError,
    Poly,
    PolyError,
    PolyMatrix,
    ScopeError,
    clear_denominators,
    congruence,
    critical_degree_rows,
    det_fraction,
    exact_divide,
    format_poly,
    ideal_spans_critical_degree,
    inverse,
    is_perfect_square,
    macaulay_quotient,
    macaulay_resultant_ternary,
    mat_vec,
    matrix_rank,
    nullspace,
    rational_roots,
    rational_sqrt,
    resultant_bivariate,
    rref,
    univariate_gcd,
)

from conftest import STANDARD_HEPTAD

x, y, z, w = (Poly.var(n) for n in "xyzw")
s, t, u = (Poly.var(n) for n in "stu")


def random_poly(rng, names="xyz", max_terms=5, max_exp=3, coeff=9):
    total = Poly.zero()
    for _ in range(rng.randint(0, max_terms)):
        term = Poly.const(F(rng.randint(-coeff, coeff)))
        for name in names:
            term = term * Poly.var(name) ** rng.randint(0, max_exp)
        total = total + term
    return total


class TestArith:
    def test_difference_of_squares(self):
        assert (x + y) * (x - y) == x ** 2 - y ** 2

    def test_multiplicative_identity(self):
        rng = random.Random(1)
        for _ in range(20):
            p = random_poly(rng)
            assert p * Poly.const(1) == p

    def test_cube_against_repeated_mul(self):
        p = (x + y + z) ** 3
        q = Poly.const(1)
        for _ in range(3):
            q = q * (x + y + z)
        assert p == q

    def test_ring_axioms_randomized(self):
        rng = random.Random(2)
        for _ in range(25):
            a, b, c = (random_poly(rng, max_terms=4) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a
            assert a * b == b * a

    def test_zero_poly_has_empty_terms(self):
        assert (x - x).terms == {}
        assert not (x - x)


class TestDerivative:
    def test_power_rule(self):
        assert (x ** 2 * y).partial("x") == 2 * x * y

    def test_unused_variable_in_scope(self):
        v, w = Poly.var("v"), Poly.var("w")
        assert (-w ** 2 + v ** 3).partial("w") == -2 * w

    def test_unknown_variable_is_scope_error(self):
        with pytest.raises(ScopeError):
            (x ** 2 * y).partial("q")

    def test_leibniz_randomized(self):
        rng = random.Random(3)
        for _ in range(25):
            p = random_poly(rng) + x  # force x into scope
            q = random_poly(rng) + x
            assert (p * q).partial("x") == p * q.partial("x") + q * p.partial("x")


class TestSubstitute:
    def test_rename(self):
        assert (x + y).subs({"x": s, "y": t}) == s + t

    def test_line_restriction_shape(self):
        p = (x ** 4 + y ** 4 + z ** 4).subs(
            {"x": u * x, "y": u * y, "z": -(s * x + t * y)})
        assert p == u ** 4 * x ** 4 + u ** 4 * y ** 4 + (s * x + t * y) ** 4

    def test_commutes_with_mul(self):
        rng = random.Random(4)
        bindings = {"x": s + t, "y": s * t - 1}
        for _ in range(15):
            p = random_poly(rng, "xy") + x + y
            q = random_poly(rng, "xy") + x + y
            assert (p * q).subs(bindings) == p.subs(bindings) * q.subs(bindings)

    def test_out_of_scope_binding(self):
        with pytest.raises(ScopeError):
            (x + y).subs({"q": s})


class TestExactDivide:
    def test_monomial_quotient(self):
        assert exact_divide(u ** 4 * (s + t), u ** 4) == s + t

    def test_not_divisible_carries_witness(self):
        with pytest.raises(NotDivisibleError) as err:
            exact_divide(s ** 2 + t ** 2, u)
        assert err.value.remainder == s ** 2 + t ** 2

    def test_monomial_divisor_keeps_the_long_division_witness(self):
        # s^2*u divides; s*t does not, so the witness is s*t + u, the
        # divisible u included, whichever path divides
        with pytest.raises(NotDivisibleError) as err:
            exact_divide(s ** 2 * u + s * t + u, u)
        assert err.value.remainder == s * t + u

    def test_klein_h2_over_u4(self):
        # h2 of the Klein quartic, direct from the b-coefficients
        b0, b1, b2, b3, b4 = (-s ** 3 * u, -3 * s ** 2 * t * u + u ** 4,
                              -3 * s * t ** 2 * u, -s * u ** 3 - t ** 3 * u,
                              -t * u ** 3)
        h2 = (-3 * b1 * b3 + 12 * b0 * b4 + b2 ** 2) / 3
        assert exact_divide(h2, u ** 4) == s ** 3 * t + t ** 3 * u + u ** 3 * s

    def test_reconstruction_randomized(self):
        rng = random.Random(5)
        for _ in range(20):
            q = random_poly(rng) + 1
            d = random_poly(rng) + x
            assert exact_divide(q * d, d) == q

    def test_floordiv_is_exact_divide(self):
        p = (x + 2 * y) * (x - z)
        assert p // (x - z) == exact_divide(p, x - z) == x + 2 * y
        assert p // 3 == p / 3 and p // F(1, 2) == 2 * p

    def test_floordiv_raises_the_same_witness(self):
        p = s ** 2 * u + s * t + u
        with pytest.raises(NotDivisibleError) as by_function:
            exact_divide(p, u + t)
        with pytest.raises(NotDivisibleError) as by_operator:
            p // (u + t)
        assert by_operator.value.remainder == by_function.value.remainder


class TestDeterminants:
    def test_diagonal(self):
        m = PolyMatrix([[x if i == j else Poly.zero() for j in range(4)]
                        for i, x in enumerate((x, y, z, w))])
        assert m.det() == x * y * z * w

    def test_two_by_two(self):
        assert PolyMatrix([[x, y], [y, x]]).det() == x ** 2 - y ** 2

    def test_cofactor_vs_bareiss_random_linear_4x4(self):
        rng = random.Random(6)
        for _ in range(10):
            entries = [[F(rng.randint(-3, 3)) * x + F(rng.randint(-3, 3)) * y
                        + F(rng.randint(-3, 3)) * z for _ in range(4)]
                       for _ in range(4)]
            m = PolyMatrix(entries)
            assert m.det_cofactor() == m.det_bareiss()


class TestResultant:
    def test_linear_pair(self):
        a, b = Poly.var("a"), Poly.var("b")
        assert resultant_bivariate(x - a, x - b, "x") == a - b

    def test_shared_root(self):
        assert resultant_bivariate(x ** 2 - 1, x - 1, "x").is_zero()

    def test_degree_zero_rejected(self):
        with pytest.raises(DegreeError):
            resultant_bivariate(Poly.const(3), x - 1, "x")

    def test_vanishes_exactly_on_common_factor(self):
        # Res_x((x - r) f, (x - r) g) is the zero polynomial, and dropping
        # the shared factor from one side makes it nonzero generically
        rng = random.Random(7)
        for _ in range(12):
            r = F(rng.randint(-5, 5))
            f = random_poly(rng, "xy", 3) + x + 1
            g = random_poly(rng, "xy", 3) + x * y + x + 2
            shared_f, shared_g = (x - r) * f, (x - r) * g
            assert resultant_bivariate(shared_f, shared_g, "x").is_zero()

    def test_no_common_factor_nonzero(self):
        assert resultant_bivariate(x ** 2 + 1, x - 3, "x") == Poly.const(10)


class TestMacaulay:
    def test_fermat_partials_nonzero_and_exact_scale(self):
        # Res(x^3, y^3, z^3) = 1, each form degree 3, so scaling by 4 on
        # every coefficient multiplies the resultant by 4^(3*9) = 2^54.
        r = macaulay_resultant_ternary(4 * x ** 3, 4 * y ** 3, 4 * z ** 3)
        assert r == F(2) ** 54

    def test_common_zero_detected(self):
        # partials of x^2 y^2: common zero [0:0:1]
        assert macaulay_resultant_ternary(2 * x * y ** 2, 2 * x ** 2 * y,
                                          Poly.zero()) == 0

    def test_singular_bitangent_quartic(self):
        # (x^2-y^2)^2 + z(x^3+y^3+z^3) is singular at [1:-1:0]: the stated
        # search oracle finds the common zero, so the resultant is zero.
        q = (x ** 2 - y ** 2) ** 2 + z * (x ** 3 + y ** 3 + z ** 3)
        px, py, pz = (q.partial(n) for n in "xyz")
        at = {"x": 1, "y": -1, "z": 0}
        assert q.eval_at(at) == 0
        assert all(p.eval_at(at) == 0 for p in (px, py, pz))
        assert macaulay_resultant_ternary(px, py, pz) == 0

    def test_corrected_bitangent_quartic_smooth(self):
        q = (x ** 2 - y ** 2) ** 2 + z * (x ** 3 + 2 * y ** 3 + z ** 3)
        px, py, pz = (q.partial(n) for n in "xyz")
        assert macaulay_resultant_ternary(px, py, pz) != 0

    def test_rank_fallback_matches_quotient(self):
        smooth = (x ** 3, y ** 3, z ** 3)
        assert ideal_spans_critical_degree(smooth, "xyz", (3, 3, 3))
        sing = ((x * y) ** 1 * x, x ** 2 * y, x * y * z)
        assert not ideal_spans_critical_degree(sing, "xyz", (3, 3, 3))
        klein = x ** 3 * y + y ** 3 * z + z ** 3 * x
        singular = (x ** 2 - y ** 2) ** 2 + z * (x ** 3 + y ** 3 + z ** 3)
        for quartic, smooth in ((klein, True), (singular, False)):
            partials = [quartic.partial(n) for n in "xyz"]
            assert ideal_spans_critical_degree(partials, "xyz", (3, 3, 3)) is smooth

    def test_critical_degree_rows_are_shifted_forms(self):
        rows, columns = critical_degree_rows((x ** 3, y ** 3, z ** 3), "xyz", (3, 3, 3))
        # 15 degree-4 shifts of each form into the 36 monomials of degree 7
        assert (len(rows), columns) == (45, 36)
        assert all(len(row) == 36 and sorted(row) == [0] * 35 + [1] for row in rows)
        assert matrix_rank(rows) == 36

    def test_forms_whose_scope_lacks_a_variable(self):
        # the third form, a product of Poly.var factors, has no z in its
        # scope; the identity-frame Macaulay minor vanishes for these forms
        forms = (x ** 2 + 2 * x * y + y ** 2 + z ** 2, 2 * x ** 2 + 2 * y ** 2 + y * z + z ** 2,
                 x ** 2 + 2 * x * y + 2 * y ** 2)
        assert forms[2].variables == {"x", "y"}
        assert macaulay_quotient(forms, "xyz", (2, 2, 2)) == (None, F(0))
        assert macaulay_resultant_ternary(*forms) == 640
        assert macaulay_resultant_ternary(*(Poly(f.terms, "xyz") for f in forms)) == 640

    def test_quotient_rejects_polynomial_coefficients(self):
        # a hidden variable a makes the Macaulay matrix non-constant
        a = Poly.var("a")
        forms = (x ** 2 + a * y ** 2, y ** 2 - z ** 2, x * z + a * y * z)
        with pytest.raises(PolyError, match="rational constants"):
            macaulay_quotient(forms, "xyz", (2, 2, 2))


class TestPrintedCertificates:
    """The resultants the CLI prints, pinned so a kernel change cannot move them.

    Where the identity-frame Macaulay minor vanishes, the pinned value is
    also checked against the group-action law Res(grad(f o A)) =
    det(A)^36 Res(grad f) in a frame A whose minor does not vanish.
    """

    @staticmethod
    def partials(q):
        return [q.partial(n) for n in "xyz"]

    # x -> x + y, y -> y + z, z -> x + z: determinant 2
    FRAME = {"x": x + y, "y": y + z, "z": x + z}

    def assert_frame_law(self, quartic, res):
        moved = self.partials(quartic.subs(self.FRAME))
        quotient, minor = macaulay_quotient(moved, "xyz", (3, 3, 3))
        assert minor != 0 and quotient == 2 ** 36 * res

    def test_klein(self):
        # the identity-frame minor degenerates; Res = 2^14 * 7^7
        klein = x ** 3 * y + y ** 3 * z + z ** 3 * x
        assert macaulay_quotient(self.partials(klein), "xyz", (3, 3, 3)) == (None, F(0))
        res = macaulay_resultant_ternary(*self.partials(klein))
        assert res == 13492928512 == 2 ** 14 * 7 ** 7
        self.assert_frame_law(klein, res)

    def test_example_510(self):
        e510 = x ** 4 + y ** 4 + z ** 4 + x ** 3 * y + 2 * x ** 3 * z
        assert macaulay_resultant_ternary(*self.partials(e510)) == -95549058323578880

    def test_standard_heptad_hessian(self):
        hq = hessian_quartic(net_from_heptad(STANDARD_HEPTAD))
        assert hq.resultant == int(
            "7620780577657860170399164471820260473638226528083094686634016153720435901"
            "4717417144438831342135141777493880890982400000000")
        # the identity-frame minor degenerates, so the frame law is the check
        assert macaulay_quotient(self.partials(hq.quartic), "xyz", (3, 3, 3)) \
            == (None, F(0))
        self.assert_frame_law(hq.quartic, hq.resultant)

    def test_degenerate_minors_enter_no_frame(self, monkeypatch):
        # Klein's partials and the standard heptad's Hessian partials both
        # have a vanishing identity-frame Macaulay minor; the resultant is
        # one determinant all the same, with no quotient, rank test or
        # change of coordinates
        calls = []

        def count(owner, name):
            original = getattr(owner, name)

            def counted(*args):
                calls.append(name)
                return original(*args)

            monkeypatch.setattr(owner, name, counted)

        count(polycore, "macaulay_quotient")
        count(polycore, "ideal_spans_critical_degree")
        count(Poly, "subs")
        klein = x ** 3 * y + y ** 3 * z + z ** 3 * x
        hessian = net_from_heptad(STANDARD_HEPTAD).determinant
        assert macaulay_resultant_ternary(*self.partials(klein)) == 2 ** 14 * 7 ** 7
        assert macaulay_resultant_ternary(*self.partials(hessian)) != 0
        assert calls == []


class TestPerfectSquare:
    def test_linear_square(self):
        q = is_perfect_square((x + 2 * y) ** 2)
        assert q is not None and q * q == (x + 2 * y) ** 2

    def test_non_square(self):
        assert is_perfect_square(x ** 2 + y ** 2) is None

    def test_recovers_up_to_sign_randomized(self):
        rng = random.Random(8)
        for _ in range(25):
            q = random_poly(rng, "xy", 4) + x
            sqrt = is_perfect_square(q * q)
            assert sqrt is not None and sqrt * sqrt == q * q

    def test_scalar_obstruction(self):
        assert is_perfect_square(2 * x ** 2) is None


class TestEulerIdentity:
    def test_weighted_euler(self):
        weights = {"s": 1, "t": 1, "u": 1, "v": 2, "w": 3}
        v, ww = Poly.var("v"), Poly.var("w")
        rng = random.Random(9)
        for _ in range(10):
            # a weighted-homogeneous degree-6 combination
            g4 = random_poly(rng, "stu", 4, 1) + s ** 4 + s * t ** 2 * u
            g4 = Poly({m: c for m, c in g4.terms.items()
                       if sum(e for _, e in m) == 4})
            p = -ww ** 2 + v ** 3 - g4 * v + s ** 6
            total = Poly.zero()
            for name, wt in weights.items():
                total = total + wt * Poly.var(name) * p.partial(name)
            assert total == 6 * p


class TestRationalHelpers:
    def test_sqrt(self):
        assert rational_sqrt(F(9, 4)) == F(3, 2)
        assert rational_sqrt(F(2)) is None
        assert rational_sqrt(F(-1)) is None

    def test_cbrt(self):
        assert rational_cbrt(F(27, 8)) == F(3, 2)
        assert rational_cbrt(F(-27)) == -3
        assert rational_cbrt(F(2)) is None

    def test_cbrt_is_exact_on_large_and_signed_values(self):
        root = (1 << 17) + 3
        cube = root ** 3
        assert cube > 1 << 50
        assert rational_cbrt(F(cube)) == root
        assert rational_cbrt(F(cube - 1)) is None
        assert rational_cbrt(F(cube + 1)) is None
        assert rational_cbrt(F(-cube, 343)) == F(-root, 7)
        assert rational_cbrt(F(-cube, 342)) is None
        assert rational_cbrt(F(0)) == 0

    def test_rational_roots(self):
        p = (x - 1) * (x - 2) * (3 * x + 1)
        assert sorted(rational_roots(p, "x")) == [F(-1, 3), F(1), F(2)]

    def test_rational_roots_divide_out_the_content(self):
        lam = Poly.var("lam")
        p = (2 ** 61 - 1) * (lam - 1) * (lam - 2) * (lam - 3) * (lam - 5)
        assert rational_roots(p, "lam") == [1, 2, 3, 5]

    def test_gcd(self):
        g = univariate_gcd((x - 1) ** 2 * (x + 2), (x - 1) * (x - 5), "x")
        assert g == x - 1

    def test_univariate_helpers_reject_a_second_variable(self):
        with pytest.raises(ScopeError):
            univariate_gcd(x * y + 1, x - 1, "x")
        with pytest.raises(ScopeError):
            univariate_gcd(x - 1, x + y, "x")
        with pytest.raises(ScopeError):
            rational_roots(x ** 2 - y, "x")

    def test_univariate_helpers_accept_a_scope_variable_of_degree_zero(self):
        p = Poly(((x - 1) * (x + 2)).terms, "xy")  # y is in scope but in no term
        assert univariate_gcd(p, Poly((x - 1).terms, "xyz"), "x") == x - 1
        assert sorted(rational_roots(p, "x")) == [-2, 1]


class TestLinearAlgebra:
    def test_nullspace_dimension(self):
        basis = nullspace([[F(1), F(2), F(3)], [F(0), F(1), F(1)]])
        assert len(basis) == 1

    def test_rank(self):
        assert matrix_rank([[F(1), F(2)], [F(2), F(4)]]) == 1

    def test_det(self):
        assert det_fraction([[F(1), F(2)], [F(3), F(4)]]) == -2

    def test_det_with_zero_first_column(self):
        # the other two columns have full rank, so elimination still finds
        # two pivots after skipping the first column; the determinant is 0
        rows = [[F(0), F(1), F(2)], [F(0), F(3), F(4)], [F(0), F(5), F(7)]]
        assert matrix_rank(rows) == 2
        assert det_fraction(rows) == 0

    def test_rank_and_determinants_leave_rref(self, monkeypatch):
        def no_rref(rows):
            raise AssertionError("rref called")

        monkeypatch.setattr(polycore, "rref", no_rref)
        assert matrix_rank([[F(1), F(2), F(3)], [F(2), F(4), F(6)]]) == 1
        assert ideal_spans_critical_degree((x ** 3, y ** 3, z ** 3), "xyz", (3, 3, 3))
        assert det_fraction([[F(0), F(1)], [F(1), F(0)]]) == -1
        assert PolyMatrix([[x, y], [y, x]]).det_bareiss() == x ** 2 - y ** 2

    def test_clear_denominators(self):
        assert clear_denominators([F(-1, 2), F(1, 3)]) == [F(3), F(-2)]

    def test_inverse(self):
        a = [[F(2), F(1)], [F(5), F(3)]]
        assert inverse(a) == [[F(3), F(-1)], [F(-5), F(2)]]
        with pytest.raises(PolyError):
            inverse([[F(1), F(2)], [F(2), F(4)]])

    def test_mat_vec(self):
        assert mat_vec([[F(1), F(2)], [F(3), F(4)]], [F(1), F(-1)]) == [F(-1), F(-1)]

    def test_congruence_moves_the_quadratic_form(self):
        rng = random.Random(3)
        m = [[F(rng.randint(-5, 5)) for _ in range(3)] for _ in range(3)]
        s = [[F(rng.randint(-4, 4)) for _ in range(3)] for _ in range(3)]
        assert det_fraction(s) == -49
        c = congruence(m, s)
        for vec in ([F(1), F(0), F(2)], [F(-1), F(3), F(1, 2)]):
            sy = mat_vec(s, vec)
            assert sum(a * b for a, b in zip(sy, mat_vec(m, sy))) \
                == sum(a * b for a, b in zip(vec, mat_vec(c, vec)))


@st.composite
def deficient_matrices(draw):
    """Rectangular rational matrices, often of low rank, with zero rows and columns."""
    n_rows, n_cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    entry = st.fractions(min_value=-9, max_value=9, max_denominator=5)
    m = draw(st.lists(st.lists(entry, min_size=n_cols, max_size=n_cols),
                      min_size=n_rows, max_size=n_rows))
    for i in range(1, n_rows):
        if draw(st.booleans()):  # a combination of two earlier rows
            a, b = draw(entry), draw(entry)
            j, k = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
            m[i] = [a * p + b * q for p, q in zip(m[j], m[k])]
    if n_rows and draw(st.booleans()):
        m[draw(st.integers(0, n_rows - 1))] = [F(0)] * n_cols
    if n_cols and draw(st.booleans()):
        c = draw(st.integers(0, n_cols - 1))
        for row in m:
            row[c] = F(0)
    return m


@settings(max_examples=100, deadline=None)
@given(deficient_matrices())
@example([])
@example([[], []])
@example([[F(0), F(0)], [F(0), F(0)], [F(0), F(0)]])
@example([[F(0), F(1), F(2)], [F(0), F(2), F(4)], [F(0), F(0), F(3)]])
def test_rank_matches_rref(rows):
    assert matrix_rank(rows) == len(rref(rows)[1])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(-6, 6), st.integers(0, 3), st.integers(0, 3)),
                max_size=5))
def test_square_of_anything_is_detected(terms):
    p = Poly.zero()
    for c, e1, e2 in terms:
        p = p + Poly.const(F(c)) * x ** e1 * y ** e2
    sq = is_perfect_square(p * p)
    assert sq is not None and sq * sq == p * p


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(-9, 9), st.integers(0, 4)), max_size=6),
       st.lists(st.tuples(st.integers(-9, 9), st.integers(0, 4)), max_size=6))
def test_add_mul_consistency(aterms, bterms):
    def build(terms):
        p = Poly.zero()
        for c, e in terms:
            p = p + Poly.const(F(c)) * x ** e
        return p

    a, b = build(aterms), build(bterms)
    assert (a + b) * (a - b) == a * a - b * b


# -- differential test of the ring operations ---------------------------------
# A naive reference on {monomial: Fraction} dicts, written independently of
# polycore: Fraction arithmetic throughout, zeros dropped only at the end.

REF_VARS = ("w", "x", "y", "z")


def ref_clean(terms):
    return {m: c for m, c in terms.items() if c != 0}


def ref_mono_mul(a, b):
    exps = Counter(dict(a))
    exps.update(dict(b))
    return tuple(sorted(exps.items()))


def ref_add(a, b):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, F(0)) + c
    return ref_clean(out)


def ref_neg(a):
    return {m: -c for m, c in a.items()}


def ref_mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = ref_mono_mul(m1, m2)
            out[m] = out.get(m, F(0)) + c1 * c2
    return ref_clean(out)


def ref_pow(a, n):
    out = {(): F(1)}
    for _ in range(n):
        out = ref_mul(out, a)
    return out


def ref_partial(a, var):
    out = {}
    for m, c in a.items():
        exps = dict(m)
        e = exps.get(var, 0)
        if e:
            exps[var] = e - 1
            dm = tuple(sorted((n, k) for n, k in exps.items() if k))
            out[dm] = out.get(dm, F(0)) + c * e
    return ref_clean(out)


def ref_subs(a, bindings):
    total = {}
    for m, c in a.items():
        term = {(): c}
        for name, e in m:
            factor = ref_pow(bindings[name], e) if name in bindings else {((name, e),): F(1)}
            term = ref_mul(term, factor)
        total = ref_add(total, term)
    return total


def assert_clean(p):
    """Every coefficient a nonzero Fraction, scope a covering frozenset, rebuild equal."""
    assert type(p.variables) is frozenset
    for mono, c in p.terms.items():
        assert type(c) is F and c != 0
        assert all(e > 0 for _, e in mono) and list(mono) == sorted(mono)
        assert {name for name, _ in mono} <= p.variables
    rebuilt = Poly(dict(p.terms), p.variables)
    assert p == rebuilt and hash(p) == hash(rebuilt)


# mixed denominators, and zero coefficients that the public constructor drops
ref_coefficients = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def raw_polys(draw, max_terms=4):
    """(terms, scope): possibly zero, over a random (possibly empty) set of variables."""
    scope = draw(st.sets(st.sampled_from(REF_VARS), max_size=3))
    names = sorted(scope)
    exps = st.tuples(*[st.integers(0, 2) for _ in names])
    terms = draw(st.dictionaries(exps, ref_coefficients, max_size=max_terms))
    return {tuple((n, e) for n, e in zip(names, ex) if e): c
            for ex, c in terms.items()}, scope


@st.composite
def raw_pairs(draw):
    """Two raw polynomials; the second may cancel some terms of the first."""
    (a, sa), (b, sb) = draw(raw_polys()), draw(raw_polys())
    for m, c in a.items():
        if c and draw(st.booleans()):
            b[m] = -c
            sb = sb | {n for n, _ in m}
    return (a, sa), (b, sb)


@settings(max_examples=150, deadline=None)
@given(raw_pairs(), st.integers(0, 3))
def test_ring_ops_match_fraction_reference(pair, n):
    (a, sa), (b, sb) = pair
    p, q = Poly(a, sa), Poly(b, sb)
    ra, rb = ref_clean(a), ref_clean(b)
    union = p.variables | q.variables
    for result, expected, scope in ((p + q, ref_add(ra, rb), union),
                                    (p - q, ref_add(ra, ref_neg(rb)), union),
                                    (-p, ref_neg(ra), p.variables),
                                    (p * q, ref_mul(ra, rb), union),
                                    (p ** n, ref_pow(ra, n), None),
                                    (p - p, {}, p.variables),
                                    (F(2, 3) * p + 1, ref_add(ref_mul({(): F(2, 3)}, ra),
                                                              {(): F(1)}), p.variables)):
        assert_clean(result)
        assert result.terms == expected
        if scope is not None:
            assert result.variables == scope


@settings(max_examples=100, deadline=None)
@given(raw_polys(), raw_polys(max_terms=3), st.data())
def test_partial_and_subs_match_fraction_reference(raw, binding, data):
    (a, sa), (b, sb) = raw, binding
    p, image = Poly(a, sa), Poly(b, sb)
    ra = ref_clean(a)
    for var in sorted(sa):
        d = p.partial(var)
        assert_clean(d)
        assert d.terms == ref_partial(ra, var)
        assert d.variables == p.variables
    bound = data.draw(st.sets(st.sampled_from(sorted(sa)), max_size=2)) if sa else set()
    result = p.subs({v: image for v in bound})
    assert_clean(result)
    assert result.terms == ref_subs(ra, {v: ref_clean(b) for v in bound})
    assert p.variables - bound <= result.variables


# -- products at the packed-exponent field boundaries ----------------------
# Poly.__mul__ gives each variable a bit field of (deg p + deg q).bit_length()
# bits.  These operands put the degree sum at 2^k - 1 (every bit of the field
# used) or 2^k (one bit more), with exponents up to 40 on up to six variables.

PACKED_VARS = ("a", "lambda", "w", "x", "y", "z")
MAX_EXPONENT = 40
nonzero_coefficients = ref_coefficients.filter(bool)


def draw_monomial(draw, names, degree):
    """A monomial of exactly ``degree`` over ``names``, no exponent above 40."""
    exps = {}
    order = draw(st.permutations(names))
    for i, name in enumerate(order):
        room = MAX_EXPONENT * (len(order) - i - 1)
        exps[name] = draw(st.integers(max(0, degree - room), min(MAX_EXPONENT, degree)))
        degree -= exps[name]
    return tuple(sorted((n, e) for n, e in exps.items() if e))


@st.composite
def boundary_operand(draw, names, degree):
    """(terms, scope): zero, a constant, one term, or several terms led by one of ``degree``."""
    shape = draw(st.sampled_from(("zero", "constant", "one term", "several terms")))
    # the scope may be wider than the terms
    scope = set(names) | draw(st.sets(st.sampled_from(("b", "t")), max_size=2))
    if shape == "zero":
        return {}, scope
    if shape == "constant":
        return {(): draw(nonzero_coefficients)}, scope
    terms = {draw_monomial(draw, names, degree): draw(nonzero_coefficients)}
    if shape == "several terms":
        for _ in range(draw(st.integers(1, 5))):
            lower = draw_monomial(draw, names, draw(st.integers(0, degree)))
            terms[lower] = draw(ref_coefficients)
    return terms, scope


@st.composite
def boundary_pairs(draw):
    names = sorted(draw(st.sets(st.sampled_from(PACKED_VARS), min_size=1, max_size=6)))
    total = 2 ** draw(st.integers(1, 6)) - draw(st.integers(0, 1))
    cap = MAX_EXPONENT * len(names)
    da = draw(st.integers(max(0, total - cap), min(total, cap)))
    return draw(boundary_operand(names, da)), draw(boundary_operand(names, total - da))


@settings(max_examples=300, deadline=None)
@given(boundary_pairs())
@example((({(("x", 31),): F(1), (("y", 1),): F(1)}, {"x", "y"}),
          ({(("x", 32),): F(-1, 2), (): F(3)}, {"x"})))
@example((({(("a", 40), ("lambda", 23)): F(2, 3), (("a", 1),): F(1)}, {"a", "lambda"}),
          ({(("lambda", 1),): F(1), (): F(1)}, {"a", "lambda", "t"})))
def test_products_match_fraction_reference_at_field_boundaries(pair):
    (a, sa), (b, sb) = pair
    p, q = Poly(a, sa), Poly(b, sb)
    ra, rb = ref_clean(a), ref_clean(b)
    for result, expected in ((p * q, ref_mul(ra, rb)), (q * p, ref_mul(rb, ra))):
        assert_clean(result)
        assert result.terms == expected
        assert result.variables == p.variables | q.variables


class TestPickle:
    def test_ring_results_round_trip(self):
        # built by the trusted constructor, with scopes wider than their terms
        p = (F(1, 2) * x * y - F(2, 3) * z ** 2 * (x + F(5, 7))).partial("y")
        zero = x * 0 + (y - y)
        assert p.variables == {"x", "y", "z"} and not p.is_constant()
        assert zero.is_zero() and zero.variables == {"x", "y"}
        for value in (p, zero):
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                back = pickle.loads(pickle.dumps(value, protocol))
                assert back.terms == value.terms and back.variables == value.variables
                assert all(type(c) is F for c in back.terms.values())
                assert back == value and hash(back) == hash(value)


def test_no_module_imports_random():
    # the package makes no hidden random choice: no frame, seed or retry
    for path in sorted(Path(polycore.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                continue
            assert "random" not in names, f"{path.name} imports random"


def test_no_module_imports_a_private_polycore_name():
    for path in sorted(Path(polycore.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "polycore":
                private = [alias.name for alias in node.names if alias.name.startswith("_")]
                assert private == [], f"{path.name} imports {private} from polycore"
