import json
import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quartic_cones import cli, cone, octad, polyio
from quartic_cones import covariants as covariants_mod
from quartic_cones.cone import classify_and_lift
from quartic_cones.covariants import QuarticCurve, covariants, j_eval
from quartic_cones.octad import QuadricNet, normalize_point, pencil_fiber, steinerian_point
from quartic_cones.polycore import Poly
from quartic_cones.polyio import (
    ParseError,
    parse_point,
    parse_points_file,
    parse_poly,
    parse_rational,
    point_coordinates,
    print_poly,
    scan_identifiers,
)

from conftest import STANDARD_HEPTAD


class TestParse:
    def test_fermat(self):
        expected = Poly.var("x") ** 4 + Poly.var("y") ** 4 + Poly.var("z") ** 4
        assert parse_poly("x^4+y^4+z^4", "xyz") == expected

    def test_negative_rational_coefficient(self):
        p = parse_poly("-1/2*x*y", ["x", "y"])
        assert p.terms == {(("x", 1), ("y", 1)): F(-1, 2)}

    def test_dangling_caret(self):
        with pytest.raises(ParseError) as err:
            parse_poly("x^", "x")
        assert err.value.pos == 2

    def test_undeclared_variable(self):
        with pytest.raises(ParseError, match="undeclared"):
            parse_poly("x*q", "x")

    def test_implicit_multiplication_rejected(self):
        # "xy" is one identifier, and it is undeclared
        with pytest.raises(ParseError, match="undeclared"):
            parse_poly("2*xy", ["x", "y"])

    def test_adjacent_factors_rejected(self):
        with pytest.raises(ParseError):
            parse_poly("x y", ["x", "y"])

    def test_negative_exponent_rejected(self):
        with pytest.raises(ParseError):
            parse_poly("x^-2", "x")

    @pytest.mark.parametrize("text, variables", [
        pytest.param(text, set(variables), id=text) for text, variables in (
            ("x^32", "x"), ("x^16*y^16", "xy"), ("(x*y + 1)^16", "xy"), ("2^2048*x", "x"),
            ("(1/3)^2048", ""), ("0^100000", ""), ("(x^2 - x^2)^100", ""))])
    def test_caps_admit_their_bounds(self, text, variables):
        # the variables are those of the terms: none when they cancel
        assert parse_poly(text, "xy").variables == variables

    @pytest.mark.parametrize("text, pos", [
        ("x^33", 2),                 # the exponent
        ("x^16*y^17", 4),            # the '*' that would pass the cap
        ("(x*y + 1)^17", 10),
        ("x*(x + y)^31*y", 12),
        ("2^2049*x", 2),             # 2 has 2 bits: 4098 > 4096
        ("(1/3)^2049", 6),
        ("(2^2048)^2", 9),
    ])
    def test_runaway_products_and_powers_rejected(self, text, pos):
        with pytest.raises(ParseError, match="exceeds the cap") as err:
            parse_poly(text, "xy")
        assert err.value.pos == pos

    def test_parenthesized(self):
        assert parse_poly("(x+y)^2", "xy") == (Poly.var("x") + Poly.var("y")) ** 2

    def test_unary_minus_precedence(self):
        # ^ binds tighter than unary minus
        assert parse_poly("-x^2", "x") == -(Poly.var("x") ** 2)

    def test_multicharacter_names(self):
        p = parse_poly("a310*u^4", ["a310", "u"])
        assert p == Poly.var("a310") * Poly.var("u") ** 4


class TestPrint:
    def test_zero(self):
        assert print_poly(Poly.zero()) == "0"

    def test_signs(self):
        x, y = Poly.var("x"), Poly.var("y")
        assert print_poly(x ** 2 - y ** 2) == "x^2 - y^2"
        assert print_poly(-x) == "-x"

    def test_round_trip_1000_random(self):
        rng = random.Random(42)
        names = ["x", "y", "z", "s", "t", "u", "a310", "lam"]
        for _ in range(1000):
            p = Poly.zero()
            for _ in range(rng.randint(0, 6)):
                term = Poly.const(F(rng.randint(-9, 9), rng.randint(1, 9)))
                for v in rng.sample(names, rng.randint(0, 3)):
                    term = term * Poly.var(v) ** rng.randint(1, 4)
                p = p + term
            text = print_poly(p)
            assert parse_poly(text, names) == p
            assert print_poly(parse_poly(text, names)) == text  # idempotent


class TestPoints:
    def test_point_file(self):
        text = "# a comment\n1,0,0,0\n0,1,0,0  # e2\n-1/2, 3, 4, 5\n"
        pts = parse_points_file(text, "P3")
        assert len(pts) == 3
        assert pts[2] == (F(-1, 2), F(3), F(4), F(5))

    def test_ambient_sizes(self):
        assert parse_point("1,2,3", "P2") == (F(1), F(2), F(3))
        with pytest.raises(ValueError):
            parse_point("1,2", "P2")

    def test_zero_point_rejected(self):
        with pytest.raises(ValueError):
            point_coordinates((F(0), F(0), F(0)), "P2")
        with pytest.raises(ValueError):  # zero is checked after conversion
            point_coordinates(("0", "0/1", "0"), "P2")

    def test_rational_literals(self):
        assert parse_rational("-3/4") == F(-3, 4)
        with pytest.raises(ParseError):
            parse_rational("3.5")
        with pytest.raises(ParseError):
            parse_rational("1/0")


DIAGONAL_NET = QuadricNet([
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    [[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 3, 0], [0, 0, 0, 4]],
    [[1, 0, 0, 0], [0, 4, 0, 0], [0, 0, 9, 0], [0, 0, 0, 16]],
])

# Every caller coerces its point through polyio.point_coordinates.
POINT_CALLERS = {
    "steinerian_point": ("P2", lambda pair, p: steinerian_point(DIAGONAL_NET, p)),
    "classify_and_lift": ("P2", lambda pair, p: classify_and_lift(pair, p)),
    "j_eval": ("P2", lambda pair, p: j_eval(pair, p)),
    "pencil_fiber": ("P2", lambda pair, p: pencil_fiber(DIAGONAL_NET, p, (0, 1, 0))),
    "normalize_point": ("P3", lambda pair, p: normalize_point(p)),
}

MALFORMED_POINTS = {
    "P2": {"zero": (0, 0, 0), "wrong_length": (1, 0),
           "wrong_ambient": (1, 0, 0, 0)},
    "P3": {"zero": (0, 0, 0, 0), "wrong_length": (1, 0, 0),
           "wrong_ambient": (1, 0, 0)},
}


@pytest.fixture(scope="module")
def klein_pair():
    return covariants(QuarticCurve(parse_poly("x^3*y + y^3*z + z^3*x", "xyz")))


@pytest.mark.parametrize("kind", ["zero", "wrong_length", "wrong_ambient"])
@pytest.mark.parametrize("caller", sorted(POINT_CALLERS))
def test_malformed_point_raises_value_error(caller, kind, klein_pair):
    ambient, call = POINT_CALLERS[caller]
    with pytest.raises(ValueError):
        call(klein_pair, MALFORMED_POINTS[ambient][kind])


def test_point_coordinates():
    assert point_coordinates((1, "1/2", 0), "P2") == (F(1), F(1, 2), F(0))
    assert point_coordinates(parse_point("1,2,3,4", "P3"), "P3") == (F(1), F(2), F(3), F(4))


@pytest.mark.parametrize("point, ambient, message", [
    ((0, 0), "P9", "unknown ambient 'P9'"),
    (("x", 0), "P2", "P2 point needs 3 coordinates, got 2"),
    (("x", 0, 0), "P2", "Invalid literal for Fraction: 'x'"),
], ids=["unknown-ambient", "wrong-length", "not-rational"])
def test_point_coordinates_checks_in_order(point, ambient, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        point_coordinates(point, ambient)


def test_bitangents_job_coerces_each_point_once(monkeypatch, tmp_path, capsys):
    # 7 parsed points, 7 heptad points normalised once, and the eighth point
    calls = []

    def counting(p, ambient):
        calls.append(ambient)
        return point_coordinates(p, ambient)

    for module in (polyio, octad, covariants_mod, cone):
        monkeypatch.setattr(module, "point_coordinates", counting)
    path = tmp_path / "heptad.txt"
    path.write_text("\n".join(",".join(map(str, p)) for p in STANDARD_HEPTAD) + "\n")
    assert cli.main(["octad", "bitangents", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 28
    assert len(calls) < 50


@pytest.mark.parametrize("argv, bound", [
    # 7 parsed points, then 7 normalised once for the coplanarity
    # determinants, the net and its base points
    (["check"], 14),
    # 7 parsed, 7 heptad points, the eighth point, and 8 points in each
    # of the two Cremona frames; the new octad reuses the new net's
    (["cremona", "--center", "1,2,3,4"], 31),
], ids=["check", "cremona"])
def test_octad_job_normalises_each_heptad_point_once(argv, bound, monkeypatch, tmp_path,
                                                     capsys):
    calls = []

    def counting(p, ambient):
        calls.append(ambient)
        return point_coordinates(p, ambient)

    for module in (polyio, octad, covariants_mod, cone):
        monkeypatch.setattr(module, "point_coordinates", counting)
    path = tmp_path / "heptad.txt"
    path.write_text("\n".join(",".join(map(str, p)) for p in STANDARD_HEPTAD) + "\n")
    assert cli.main(["octad", argv[0], str(path)] + argv[1:]) == 0
    capsys.readouterr()
    assert len(calls) <= bound


def test_scan_identifiers():
    assert scan_identifiers("x^4 + lam*y - x") == ("x", "lam", "y")


@settings(max_examples=80, deadline=None)
@given(st.lists(
    st.tuples(st.fractions(min_value=-20, max_value=20, max_denominator=12),
              st.integers(0, 4), st.integers(0, 4), st.integers(0, 3)),
    max_size=6))
def test_round_trip_property(terms):
    p = Poly.zero()
    x, y, lam = Poly.var("x"), Poly.var("y"), Poly.var("lam")
    for c, e1, e2, e3 in terms:
        p = p + Poly.const(c) * x ** e1 * y ** e2 * lam ** e3
    assert parse_poly(print_poly(p), ["x", "y", "lam"]) == p
