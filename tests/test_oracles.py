"""Oracles for the exact kernel that do not run through it.

``det_fraction`` and ``PolyMatrix.det_bareiss`` are compared with SymPy's
determinant, and the resultant of three ternary forms is checked against
identities that hold for any correct kernel: homogeneity in each form,
the transformation rule under a linear change of coordinates, the action
of GL3 on a quartic's partials and on its covariants g4 and g6, and the
product formula for forms that split into linear factors.  Each identity
runs through ``macaulay_resultant_ternary`` (the hybrid Sylvester-Bezout
determinant) and, where its minor does not vanish, through the classical
Macaulay quotient, which computes the same value by another matrix.
The line section of a quartic and its covariants g4 and g6 are compared
with SymPy's own expansion and division.  The univariate layer and exact
division are compared with SymPy's gcd, ground roots, remainder,
reduction, division and Sylvester resultant.  The bitangent sweep's
kernels are compared too: a net's determinant on a line with SymPy's
expansion and with ``Poly.subs``, perfect squares with SymPy's
factorization, and the polynomial Bareiss determinant of matrices of
linear forms with cofactor expansion.
"""

import math
import random
from collections import Counter
from fractions import Fraction as F
from functools import lru_cache

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from quartic_cones.covariants import QuarticCurve, covariants
from quartic_cones.octad import QuadricNet, net_from_heptad
from quartic_cones.polycore import (
    NotDivisibleError,
    Poly,
    PolyMatrix,
    det_fraction,
    exact_divide,
    is_perfect_square,
    macaulay_quotient,
    macaulay_resultant_ternary,
    rational_roots,
    resultant_bivariate,
    univariate_gcd,
)

from conftest import SEED1_HEPTADS, STANDARD_HEPTAD


def sympy_det(rows):
    sympy = pytest.importorskip("sympy")
    d = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in row]
                      for row in rows]).det()
    return F(int(d.p), int(d.q))


@st.composite
def rational_matrices(draw):
    n = draw(st.integers(1, 8))
    entry = st.fractions(min_value=-12, max_value=12, max_denominator=7)
    m = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    # a singular leading (k+1)x(k+1) block makes the k-th elimination pivot
    # zero, so a row from below has to be swapped in (or there is none)
    for k in draw(st.sets(st.integers(0, n - 1), max_size=2)):
        if k == 0:
            m[0][0] = F(0)
        else:
            j = draw(st.integers(0, k - 1))
            m[k][:k + 1] = m[j][:k + 1]
    if draw(st.booleans()):
        m[draw(st.integers(0, n - 1))] = [F(0)] * n
    return m


@settings(max_examples=80, deadline=None)
@given(rational_matrices())
@example([[F(0), F(-2)], [F(3, 2), F(5)]])  # zero first pivot, one swap
@example([[F(0), F(1), F(2)], [F(0), F(-3), F(4)], [F(0), F(5), F(-6)]])  # zero column
@example([[F(1), F(2), F(3)], [F(2), F(4), F(-7)], [F(-1, 3), F(0), F(1)]])  # zero 2nd pivot
@example([[F(1, 2), F(-1, 3)], [F(0), F(0)]])  # zero row
def test_det_fraction_matches_sympy(rows):
    assert det_fraction(rows) == sympy_det(rows)


def test_det_fraction_seeded_36x36_matches_sympy():
    rng = random.Random(36)
    rows = [[F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(36)] for _ in range(36)]
    rows[0][0] = F(0)
    expected = sympy_det(rows)
    assert expected != 0
    assert det_fraction(rows) == expected


def test_det_fraction_empty_matrix():
    assert det_fraction([]) == 1


def to_sympy(p):
    sympy = pytest.importorskip("sympy")
    return sum((sympy.Rational(c.numerator, c.denominator)
                * sympy.Mul(*(sympy.Symbol(v) ** e for v, e in mono))
                for mono, c in p.terms.items()), sympy.Integer(0))


def assert_det_bareiss_matches_sympy(entries):
    sympy = pytest.importorskip("sympy")
    expected = sympy.Matrix([[to_sympy(e) for e in row] for row in entries]).det()
    got = PolyMatrix(entries).det_bareiss()
    assert sympy.expand(to_sympy(got) - expected) == 0


x, y = Poly.var("x"), Poly.var("y")
SMALL_POLYS = st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-2, 2),
                        st.integers(0, 2)).map(
    lambda c: c[0] * x ** c[3] + c[1] * y + Poly.const(c[2]))


@st.composite
def poly_matrices(draw):
    n = draw(st.integers(1, 4))
    m = [[draw(SMALL_POLYS) for _ in range(n)] for _ in range(n)]
    if n > 1 and draw(st.booleans()):  # singular: one column a multiple of another
        i, j = draw(st.permutations(range(n)))[:2]
        factor = draw(SMALL_POLYS)
        for row in m:
            row[j] = factor * row[i]
    return m


@settings(max_examples=40, deadline=None)
@given(poly_matrices())
def test_det_bareiss_matches_sympy(entries):
    assert_det_bareiss_matches_sympy(entries)


@pytest.mark.parametrize("entries", [
    # zero first column: no pivot there, the other columns still have two
    [[Poly.zero(), x, y], [Poly.zero(), y, x], [Poly.zero(), x + y, Poly.const(1)]],
    # column 1 has no pivot once column 0 is eliminated, column 2 has one
    [[x, y, Poly.const(1)], [2 * x, 2 * y, y], [x, y, x]],
    # zero first pivot: the second row is swapped up
    [[Poly.zero(), x, y], [y, Poly.const(2), x], [x, y, Poly.const(1)]],
])
def test_det_bareiss_singular_and_swapped_match_sympy(entries):
    assert_det_bareiss_matches_sympy(entries)


def form_from(coeffs, d):
    monos = [(a, b, d - a - b) for a in range(d, -1, -1) for b in range(d - a, -1, -1)]
    terms = {tuple((v, e) for v, e in zip("xyz", mono) if e): F(c)
             for c, mono in zip(coeffs, monos)}
    return Poly(terms, "xyz")


def form(d):
    size = (d + 1) * (d + 2) // 2
    # sparse draws (most coefficients zero) often make the identity-frame
    # Macaulay minor vanish and the resultant zero
    coeffs = st.one_of(st.lists(st.integers(-4, 4), min_size=size, max_size=size),
                       st.lists(st.sampled_from([0, 0, 0, 0, 1, -1, 2]),
                                min_size=size, max_size=size))
    return coeffs.map(lambda c: form_from(c, d))


def forms(d):
    return st.lists(form(d), min_size=3, max_size=3)


def quotient(fs, d):
    """The identity-frame Macaulay quotient, or None when its minor vanishes."""
    q, minor = macaulay_quotient(fs, "xyz", (d, d, d))
    assert (q is None) == (minor == 0)
    return q


def det3(s):
    return (s[0][0] * (s[1][1] * s[2][2] - s[1][2] * s[2][1])
            - s[0][1] * (s[1][0] * s[2][2] - s[1][2] * s[2][0])
            + s[0][2] * (s[1][0] * s[2][1] - s[1][1] * s[2][0]))


def compose(f, s, names="xyz"):
    """f o S: each variable v_i goes to sum_j S[i][j] v_j."""
    images = {v: sum((Poly.var(w) * s[i][j] for j, w in enumerate(names)), Poly.zero())
              for i, v in enumerate(names)}
    return f.subs(images)


def resultant(fs):
    return macaulay_resultant_ternary(*fs)


@pytest.mark.parametrize("d", [2, 3])
@settings(max_examples=25, deadline=None)
@given(data=st.data(), lam=st.fractions(min_value=-5, max_value=5, max_denominator=4))
def test_resultant_homogeneous_in_each_form(d, data, lam):
    # Res is homogeneous of degree d*d in the coefficients of each form
    assume(lam != 0)
    f1, f2, f3 = data.draw(forms(d))
    res = resultant([f1, f2, f3])
    assert resultant([f1 * lam, f2, f3]) == lam ** (d * d) * res
    assert resultant([f1, f2, f3 * lam]) == lam ** (d * d) * res
    q = quotient([f1, f2, f3], d)
    if q is not None:  # scaling a form keeps the minor nonzero
        assert q == res
        assert quotient([f1 * lam, f2, f3], d) == lam ** (d * d) * q
        assert quotient([f1, f2, f3 * lam], d) == lam ** (d * d) * q


@pytest.mark.parametrize("d", [2, 3])
@settings(max_examples=25, deadline=None)
@given(data=st.data(), s=st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3),
                                  min_size=3, max_size=3))
def test_resultant_under_linear_change(d, data, s):
    # Res(f o S) = det(S)^(d^3) Res(f) for three forms of degree d
    det_s = det3(s)
    assume(det_s != 0)
    fs = data.draw(forms(d))
    moved = [compose(f, s) for f in fs]
    assert resultant(moved) == F(det_s) ** (d ** 3) * resultant(fs)
    q, moved_q = quotient(fs, d), quotient(moved, d)
    if q is not None and moved_q is not None:
        assert moved_q == F(det_s) ** (d ** 3) * q


def cross(a, b):
    return [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_resultant_of_products_of_linear_forms(d):
    # Res is multiplicative in each form, and Res(l, m, f) = f(l x m), the
    # value of f at the one common zero of the lines l and m (Res(x, y, z^d)
    # = 1 fixes the scale).  So Res(prod l_i, prod m_j, f) = prod f(l_i x m_j)
    # over all pairs, a value computed without any Macaulay matrix.
    rng = random.Random(100 + d)
    size = (d + 1) * (d + 2) // 2
    for _ in range(10):
        ls, ms = ([[rng.randint(-3, 3) for _ in range(3)] for _ in range(d)] for _ in range(2))
        f = form_from([rng.choice([0, 0, 1, -1, 2, -3]) for _ in range(size)], d)
        expected = math.prod(f.eval_at(dict(zip("xyz", cross(l, m)))) for l in ls for m in ms)
        lines = [math.prod(form_from(l, 1) for l in ls), math.prod(form_from(m, 1) for m in ms)]
        assert resultant(lines + [f]) == expected


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_resultant_of_coordinate_powers_is_one(d):
    assert resultant([Poly.var(v) ** d for v in "xyz"]) == 1


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_resultant_vanishes_on_forms_through_a_common_point(d):
    # subtracting f(1, 1, 1) x^d puts [1:1:1] on each form
    rng = random.Random(110 + d)
    size = (d + 1) * (d + 2) // 2
    for _ in range(3):
        fs = []
        for _ in range(3):
            coeffs = [rng.randint(-4, 4) for _ in range(size)]
            coeffs[0] -= sum(coeffs)
            fs.append(form_from(coeffs, d))
        assert all(f.eval_at({"x": 1, "y": 1, "z": 1}) == 0 for f in fs)
        assert resultant(fs) == 0


def test_linear_resultant_is_the_coefficient_determinant():
    rng = random.Random(120)
    for _ in range(10):
        rows = [[F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(3)] for _ in range(3)]
        assert resultant([form_from(row, 1) for row in rows]) == det3(rows)


def partials(f):
    return [f.partial(v) for v in "xyz"]


KLEIN = x ** 3 * y + y ** 3 * Poly.var("z") + Poly.var("z") ** 3 * x


@settings(max_examples=30, deadline=None)
@given(f=form(4),
       a=st.lists(st.lists(st.integers(-2, 2), min_size=3, max_size=3), min_size=3, max_size=3))
@example(f=KLEIN, a=[[1, 1, 0], [0, 1, 1], [1, 0, 1]])  # minor degenerates for f only
@example(f=KLEIN, a=[[1, 0, 0], [0, 2, 0], [0, 0, -1]])  # and for f o A too
@example(f=KLEIN, a=[[0, 1, 0], [0, 0, 1], [1, 0, 0]])  # an automorphism of f
@example(f=Poly((y ** 4).terms, "xyz"), a=[[0, 0, 1], [0, 1, 0], [1, 0, 0]])  # g4 = g6 = 0
def test_group_action_on_resultant_and_covariants(f, a):
    # grad(f o A) = A^T (grad f) o A: the substitution scales the resultant
    # of the three cubics by det(A)^27 and the combination by A^T by
    # det(A)^9.  g4 and g6 are contravariants: they move by adj(A)^T.
    det_a = det3(a)
    assume(det_a != 0 and not f.is_zero())
    fa = compose(f, a)
    assert resultant(partials(fa)) == F(det_a) ** 36 * resultant(partials(f))
    cofactors = [cross(a[1], a[2]), cross(a[2], a[0]), cross(a[0], a[1])]  # adj(A)^T
    pair, moved = covariants(QuarticCurve(f)), covariants(QuarticCurve(fa))
    assert moved.g4 == compose(pair.g4, cofactors, "stu")
    assert moved.g6 == compose(pair.g6, cofactors, "stu")


@settings(max_examples=30, deadline=None)
@given(f=form(4))
@example(f=KLEIN)
@example(f=Poly((y ** 4).terms, "xyz"))  # g4 = g6 = 0
def test_covariants_match_sympy_line_restriction(f):
    # SymPy expands the line section H(u x, u y, -(s x + t y)) itself and
    # divides the binary invariants h2, h3 by u^4 and u^6
    sympy = pytest.importorskip("sympy")
    assume(not f.is_zero())
    X, Y, Z, S, T, U = sympy.symbols("x y z s t u")
    section = sympy.Poly(sympy.expand(to_sympy(f).subs(
        {X: U * X, Y: U * Y, Z: -(S * X + T * Y)}, simultaneous=True)), X, Y)
    b = [section.coeff_monomial(X ** (4 - k) * Y ** k) for k in range(5)]
    curve = QuarticCurve(f)
    for ours, expected in zip(curve.restriction, b):
        assert_same_poly(ours, expected)
    b0, b1, b2, b3, b4 = b
    h2 = (-3 * b1 * b3 + 12 * b0 * b4 + b2 ** 2) / 3
    h3 = (72 * b0 * b2 * b4 - 27 * b0 * b3 ** 2 - 27 * b1 ** 2 * b4
          + 9 * b1 * b2 * b3 - 2 * b2 ** 3) / 27
    pair = covariants(curve)
    for ours, h, power in ((pair.g4, h2, 4), (pair.g6, h3, 6)):
        quotient, remainder = sympy.div(sympy.expand(h), U ** power, S, T, U)
        assert remainder == 0
        assert_same_poly(ours, quotient)


# ---------------------------------------------------------------------------
# The univariate layer and exact division against SymPy


def from_sympy(value):
    return F(int(value.p), int(value.q))


def poly_from(coeffs, names):
    """Sum of c * prod(v^e) over ``coeffs``, a dict from exponent tuples to c."""
    terms = {tuple((v, e) for v, e in zip(names, expts) if e): F(c)
             for expts, c in coeffs.items()}
    return Poly(terms, names)


def univariate(max_degree):
    """Polynomials in x of degree at most ``max_degree``, with rational coefficients."""
    scalar = st.one_of(st.integers(-6, 6),
                       st.fractions(min_value=-4, max_value=4, max_denominator=5))
    return st.lists(scalar, min_size=1, max_size=max_degree + 1).map(
        lambda cs: poly_from({(e,): c for e, c in enumerate(cs)}, "x"))


def bivariate(max_x, max_y):
    """Polynomials in x and y with small integer coefficients."""
    keys = st.tuples(st.integers(0, max_x), st.integers(0, max_y))
    return st.dictionaries(keys, st.integers(-4, 4), max_size=6).map(
        lambda cs: poly_from(cs, "xy"))


def assert_same_poly(ours, expected):
    sympy = pytest.importorskip("sympy")
    assert sympy.expand(to_sympy(ours) - expected) == 0


@settings(max_examples=60, deadline=None)
@given(common=univariate(2), a=univariate(3), b=univariate(3))
@example(common=x - 1, a=x - 1, b=x + 2)  # a repeated shared root
@example(common=Poly.const(3), a=Poly.zero(), b=x ** 2 + 1)  # one side zero
def test_univariate_gcd_matches_sympy(common, a, b):
    sympy = pytest.importorskip("sympy")
    p, q = common * a, common * b
    assume(not (p.is_zero() and q.is_zero()))
    X = sympy.Symbol("x")
    expected = sympy.Poly(sympy.gcd(to_sympy(p), to_sympy(q)), X).monic().as_expr()
    assert_same_poly(univariate_gcd(p, q, "x"), expected)


@st.composite
def products_of_linear_factors(draw):
    """content * prod (a_i x + b_i), sometimes times an irreducible quadratic."""
    content = draw(st.integers(-12, 12).filter(bool))
    factors = draw(st.lists(st.tuples(st.integers(1, 4), st.integers(-5, 5)), max_size=5))
    p = Poly.const(content)
    for a, b in factors:
        p = p * (a * x + b)
    quadratic = draw(st.sampled_from([None, x ** 2 + 1, x ** 2 - 2, 2 * x ** 2 + x + 3]))
    return p if quadratic is None else p * quadratic


@settings(max_examples=60, deadline=None)
@given(products_of_linear_factors())
@example(6 * (x - 1) ** 2 * (2 * x + 3) * (x ** 2 + 1))  # a double root, content 6
@example(-4 * x ** 3 * (x ** 2 - 2))  # roots at 0 only
def test_rational_roots_match_sympy_ground_roots(p):
    sympy = pytest.importorskip("sympy")
    expected = sympy.Poly(to_sympy(p), sympy.Symbol("x")).ground_roots()
    roots = rational_roots(p, "x")
    assert roots is not None
    assert Counter(roots) == Counter({from_sympy(r): m for r, m in expected.items()})


@settings(max_examples=60, deadline=None)
@given(p=univariate(5), d=univariate(3).filter(bool))
@example(p=x ** 4 + 3 * x + 1, d=2 * x ** 2)  # monomial divisor, long-division witness
@example(p=x ** 3 - 1, d=x - 1)  # divisible
def test_not_divisible_remainder_matches_sympy_rem(p, d):
    sympy = pytest.importorskip("sympy")
    X = sympy.Symbol("x")
    quo, rem = sympy.div(to_sympy(p), to_sympy(d), X)
    if rem == 0:
        assert_same_poly(exact_divide(p, d), quo)
    else:
        with pytest.raises(NotDivisibleError) as err:
            exact_divide(p, d)
        assert_same_poly(err.value.remainder, rem)


MONOMIALS = st.tuples(st.integers(-5, 5).filter(bool), st.integers(0, 3),
                      st.integers(0, 3)).map(lambda t: t[0] * x ** t[1] * y ** t[2])


@settings(max_examples=60, deadline=None)
@given(f=bivariate(3, 3), g=st.one_of(MONOMIALS, bivariate(2, 2).filter(lambda g: len(g.terms) > 1)))
def test_exact_divide_of_a_product_matches_sympy_div(f, g):
    sympy = pytest.importorskip("sympy")
    quo, rem = sympy.div(to_sympy(f * g), to_sympy(g), sympy.Symbol("x"), sympy.Symbol("y"))
    assert rem == 0
    assert_same_poly(exact_divide(f * g, g), quo)


@settings(max_examples=40, deadline=None)
@given(p=bivariate(3, 2), q=bivariate(2, 2))
@example(p=x ** 2 - 1, q=x - 1)  # a shared root: the resultant vanishes
@example(p=x * y + 1, q=x ** 2 - y)
def test_resultant_bivariate_matches_sympy(p, q):
    sympy = pytest.importorskip("sympy")
    assume(p.degree_in("x") > 0 and q.degree_in("x") > 0)
    expected = sympy.resultant(to_sympy(p), to_sympy(q), sympy.Symbol("x"))
    assert_same_poly(resultant_bivariate(p, q, "x"), expected)


@settings(max_examples=60, deadline=None)
@given(p=univariate(6), d=univariate(3).filter(lambda d: len(d.terms) >= 2))
@example(p=x ** 5 + 2 * x + 1, d=x ** 2 - x + 3)  # long division, nonzero remainder
@example(p=(x ** 2 + 1) * (3 * x - F(1, 2)), d=3 * x - F(1, 2))  # divisible
@example(p=Poly.zero(), d=x + 1)  # SymPy's quotient list is then empty
def test_not_divisible_remainder_matches_sympy_reduced(p, d):
    # the divisors have two or more terms, so the long division runs
    sympy = pytest.importorskip("sympy")
    _, rem = sympy.reduced(to_sympy(p), [to_sympy(d)], sympy.Symbol("x"))
    if rem == 0:
        assert exact_divide(p, d) * d == p
    else:
        with pytest.raises(NotDivisibleError) as err:
            exact_divide(p, d)
        assert_same_poly(err.value.remainder, rem)


# ---------------------------------------------------------------------------
# The bitangent sweep's kernels


Z = Poly.var("z")
LINEAR_FORMS = st.tuples(*[st.integers(-4, 4)] * 3).map(
    lambda c: c[0] * x + c[1] * y + c[2] * Z)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(LINEAR_FORMS, min_size=4, max_size=4), min_size=4, max_size=4))
@example([list(row) for row in net_from_heptad(STANDARD_HEPTAD).symbol_matrix().entries])
@example([[x, y, Z, x + y]] * 2 + [[y, Z, x, 2 * x], [Z, x, y, y - Z]])  # singular
def test_det_bareiss_matches_cofactors_on_linear_forms(rows):
    # the exact divisions of the 4 x 4 net determinant are by linear and
    # quadratic forms of several terms
    m = PolyMatrix(rows)
    assert m.det_bareiss() == m.det_cofactor()


def _rational_generators():
    """STANDARD_HEPTAD's generators mixed with non-integral rational weights."""
    a, b, c = net_from_heptad(STANDARD_HEPTAD).matrices
    weights = ((F(1, 2), F(2, 3), 0), (F(-5, 7), 1, F(1, 3)), (0, F(3, 4), F(-1, 6)))
    return [[[u * a[i][j] + v * b[i][j] + w * c[i][j] for j in range(4)] for i in range(4)]
            for u, v, w in weights]


# (generators, base points): three integer nets of heptads and one rational net
SWEEP_NETS = [(net_from_heptad(h).matrices, h)
              for h in (STANDARD_HEPTAD, SEED1_HEPTADS[1], SEED1_HEPTADS[2])]
SWEEP_NETS.append((_rational_generators(), STANDARD_HEPTAD))


@lru_cache(maxsize=None)
def sympy_net_determinant(index):
    """det(x A0 + y A1 + z A2) by SymPy, from the generators the net was given."""
    sympy = pytest.importorskip("sympy")
    X, Y, Zs = sympy.symbols("x y z")
    gens = [[[sympy.Rational(F(v).numerator, F(v).denominator) for v in row] for row in m]
            for m in SWEEP_NETS[index][0]]
    return sympy.Matrix(4, 4, lambda i, j: X * gens[0][i][j] + Y * gens[1][i][j]
                        + Zs * gens[2][i][j]).det()


NET_POINT_COORDINATES = st.one_of(
    st.integers(-6, 6), st.fractions(min_value=-4, max_value=4, max_denominator=5))


@settings(max_examples=40, deadline=None)
@given(index=st.sampled_from(range(len(SWEEP_NETS))),
       p=st.tuples(*[NET_POINT_COORDINATES] * 3), q=st.tuples(*[NET_POINT_COORDINATES] * 3))
@example(index=0, p=(1, 0, 0), q=(0, 1, 0))
@example(index=3, p=(F(1, 2), -3, F(2, 5)), q=(0, F(-4, 3), 1))  # rational net and points
def test_determinant_on_line_matches_subs_and_sympy(index, p, q):
    sympy = pytest.importorskip("sympy")
    generators, heptad = SWEEP_NETS[index]
    net = QuadricNet(generators, basepoints=heptad)
    got = net.determinant_on_line(p, q)
    a1, a2 = Poly.var("a1"), Poly.var("a2")
    old = net.determinant.subs({v: a1 * p[k] + a2 * q[k] for k, v in enumerate("xyz")})
    assert got == old and got.variables == old.variables == {"a1", "a2"}
    A1, A2 = sympy.symbols("a1 a2")
    on_line = sympy_net_determinant(index).subs(
        {sympy.Symbol(v): A1 * sympy.Rational(p[k]) + A2 * sympy.Rational(q[k])
         for k, v in enumerate("xyz")}, simultaneous=True)
    assert_same_poly(got, sympy.expand(on_line))


def sympy_is_square(p):
    """Whether p is the square of a rational polynomial, by SymPy's factorization."""
    sympy = pytest.importorskip("sympy")
    if p.is_zero():
        return True
    coeff, factors = sympy.factor_list(to_sympy(p))
    return bool(coeff > 0 and sympy.sqrt(coeff).is_rational
                and all(e % 2 == 0 for _, e in factors))


def small_polys(names):
    """Polynomials of at most four terms in ``names``, exponents at most 2."""
    scalar = st.one_of(st.integers(-5, 5),
                       st.fractions(min_value=-3, max_value=3, max_denominator=4))
    return st.dictionaries(st.tuples(*[st.integers(0, 2)] * len(names)), scalar,
                           max_size=4).map(lambda cs: poly_from(cs, names))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_is_perfect_square_matches_sympy(data):
    names = "xyz"[:data.draw(st.integers(1, 3), label="variables")]
    q = data.draw(small_polys(names), label="q")
    t = data.draw(small_polys(names), label="t")
    root = is_perfect_square(q * q)
    assert root is not None and root in (q, -q)
    if root:
        assert root.sorted_terms()[0][1] > 0
    p = q * q + t
    got = is_perfect_square(p)
    assert (got is not None) == sympy_is_square(p)
    if got is not None:
        assert got * got == p


@pytest.mark.parametrize("p, square", [
    ((x + y) ** 2 + x * y, False),  # x^2 + 3xy + y^2
    ((x + 1) ** 2 + 2 * x + 3, True),  # (x + 2)^2
    ((x - F(1, 2) * y * Z) ** 2 + Poly.const(1), False),
    (4 * (x * y - Z + F(2, 3)) ** 2, True),
    (-(x ** 2), False),
    (2 * x ** 2, False),
])
def test_is_perfect_square_pinned_against_sympy(p, square):
    assert sympy_is_square(p) is square
    got = is_perfect_square(p)
    assert (got is not None) is square
    if square:
        assert got * got == p
