"""Oracles for the exact kernel that do not run through it.

``det_fraction`` and ``PolyMatrix.det_bareiss`` are compared with SymPy's
determinant, and the Macaulay quotient is checked against two identities
of the resultant that hold for any correct kernel: homogeneity in each
form and the transformation rule under a linear change of coordinates.
"""

import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from quartic_cones.polycore import Poly, PolyMatrix, det_fraction, macaulay_quotient


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


def forms(d):
    size = (d + 1) * (d + 2) // 2
    coeffs = st.lists(st.integers(-4, 4), min_size=size, max_size=size)
    return st.tuples(coeffs, coeffs, coeffs).map(lambda cs: [form_from(c, d) for c in cs])


def quotient(fs, d):
    q, minor = macaulay_quotient(fs, "xyz", (d, d, d))
    # A degenerate Macaulay minor gives no quotient.  The resultant is then
    # computed in a random frame (macaulay_resultant_ternary's retry), which
    # rescales it, so neither identity applies to that path; skip the draw.
    assume(q is not None)
    assert minor != 0
    return q


def det3(s):
    return (s[0][0] * (s[1][1] * s[2][2] - s[1][2] * s[2][1])
            - s[0][1] * (s[1][0] * s[2][2] - s[1][2] * s[2][0])
            + s[0][2] * (s[1][0] * s[2][1] - s[1][1] * s[2][0]))


@pytest.mark.parametrize("d", [2, 3])
@settings(max_examples=25, deadline=None)
@given(data=st.data(), lam=st.fractions(min_value=-5, max_value=5, max_denominator=4))
def test_resultant_homogeneous_in_each_form(d, data, lam):
    # Res is homogeneous of degree d*d in the coefficients of each form
    assume(lam != 0)
    f1, f2, f3 = data.draw(forms(d))
    res = quotient([f1, f2, f3], d)
    assert quotient([f1 * lam, f2, f3], d) == lam ** (d * d) * res
    assert quotient([f1, f2, f3 * lam], d) == lam ** (d * d) * res


@pytest.mark.parametrize("d", [2, 3])
@settings(max_examples=25, deadline=None)
@given(data=st.data(), s=st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3),
                                  min_size=3, max_size=3))
def test_resultant_under_linear_change(d, data, s):
    # Res(f o S) = det(S)^(d^3) Res(f) for three forms of degree d
    det_s = det3(s)
    assume(det_s != 0)
    fs = data.draw(forms(d))
    res = quotient(fs, d)
    images = {v: sum((Poly.var(w) * s[i][j] for j, w in enumerate("xyz")), Poly.zero())
              for i, v in enumerate("xyz")}
    moved = [f.subs(images) for f in fs]
    assert quotient(moved, d) == F(det_s) ** (d ** 3) * res
