"""Output checks for the benchmark's CLI jobs, using the standard library only.

Nothing here imports ``quartic_cones``.  Expected values are recomputed
from the generated inputs with ``fractions.Fraction``, and the program's
printed polynomials are read back by a small parser of the canonical
expression grammar (integers, rationals ``p/q``, identifiers, ``+ - * ^``
and parentheses).

``Oracle.problems`` checks a job's exit code, then hands its parsed JSON
report to the ``check_*`` function for its kind, which returns a list of
problems; an empty list means the job passed.
"""

from __future__ import annotations

import itertools
import json
import re
from fractions import Fraction
from math import comb, isqrt

# ---------------------------------------------------------------------------
# Sparse polynomials: {monomial: Fraction}, monomial = sorted ((name, exp), ...)


def p_const(c):
    c = Fraction(c)
    return {(): c} if c else {}


def p_var(name):
    return {((name, 1),): Fraction(1)}


def p_add(a, b):
    return _add_into(dict(a), b)


def _add_into(out, b, sign=1):
    for m, c in b.items():
        s = out.get(m, 0) + sign * c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def p_neg(a):
    return {m: -c for m, c in a.items()}


def _mono_mul(m1, m2):
    exps = dict(m1)
    for name, e in m2:
        exps[name] = exps.get(name, 0) + e
    return tuple(sorted(exps.items()))


def p_mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = _mono_mul(m1, m2)
            s = out.get(m, 0) + c1 * c2
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def p_pow(a, n):
    if len(a) == 1:  # a monomial: scale its exponents
        (mono, c), = a.items()
        return {tuple((name, e * n) for name, e in mono if e * n): c ** n}
    out = p_const(1)
    for _ in range(n):
        out = p_mul(out, a)
    return out


def evaluate(poly, point):
    """Value of ``poly`` at ``point`` (a mapping name -> rational)."""
    total = Fraction(0)
    for mono, c in poly.items():
        term = c
        for name, e in mono:
            term *= Fraction(point[name]) ** e
        total += term
    return total


_TOKEN = re.compile(r"\s*(?:(\d+)|([a-zA-Z][a-zA-Z0-9]*)|([-+*/^()]))")


class _Reader:
    def __init__(self, text):
        self.tokens = []
        pos = 0
        text = text.rstrip()
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if m is None:
                raise ValueError(f"bad character at offset {pos} in {text[:60]!r}")
            self.tokens.append(m.group(1) or m.group(2) or m.group(3))
            pos = m.end()
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise ValueError("unexpected end of expression")
        self.i += 1
        return tok

    def expr(self):
        out = dict(self.term())
        while self.peek() in ("+", "-"):
            sign = 1 if self.take() == "+" else -1
            _add_into(out, self.term(), sign)
        return out

    def term(self):
        out = self.factor()
        while self.peek() == "*":
            self.take()
            out = p_mul(out, self.factor())
        return out

    def factor(self):
        if self.peek() == "-":
            self.take()
            return p_neg(self.factor())
        base = self.base()
        if self.peek() == "^":
            self.take()
            base = p_pow(base, int(self.take()))
        return base

    def base(self):
        tok = self.take()
        if tok.isdigit():
            value = Fraction(int(tok))
            if self.peek() == "/":
                self.take()
                value /= int(self.take())
            return p_const(value)
        if tok == "(":
            inner = self.expr()
            if self.take() != ")":
                raise ValueError("expected ')'")
            return inner
        if tok[0].isalpha():
            return p_var(tok)
        raise ValueError(f"unexpected token {tok!r}")


def parse(text):
    """Read an expression in the program's grammar into a sparse polynomial."""
    reader = _Reader(text)
    out = reader.expr()
    if reader.peek() is not None:
        raise ValueError(f"trailing input at token {reader.peek()!r}")
    return out


# ---------------------------------------------------------------------------
# Quartics, line sections and binary-quartic invariants

QUARTIC_EXPONENTS = tuple((i, j, 4 - i - j) for i in range(4, -1, -1)
                          for j in range(4 - i, -1, -1))


def quartic_text(coeffs):
    """``coeffs`` maps (i, j, k) to the coefficient of x^i y^j z^k."""
    pieces = []
    for (i, j, k) in QUARTIC_EXPONENTS:
        c = Fraction(coeffs.get((i, j, k), 0))
        if not c:
            continue
        factors = [f"{n}^{e}" if e > 1 else n for n, e in zip("xyz", (i, j, k)) if e]
        if abs(c) != 1:
            factors.insert(0, str(abs(c)))
        sign = "-" if c < 0 else "+"
        pieces.append(f"{sign} " + "*".join(factors))
    text = " ".join(pieces)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def quartic_coefficients(poly):
    """Split a parsed quartic into {(i, j, k): coefficient polynomial in the rest}."""
    out = {}
    for mono, c in poly.items():
        exps = dict(mono)
        key = tuple(exps.pop(n, 0) for n in "xyz")
        rest = tuple(sorted(exps.items()))
        out[key] = p_add(out.get(key, {}), {rest: c})
    return out


def coefficients_at(split, point):
    """Numeric quartic coefficients of ``quartic_coefficients`` output at ``point``."""
    return {key: evaluate(c, point) for key, c in split.items()}


def section_coefficients(coeffs, s, t, u):
    """b0..b4 with sum(b[4-r] X^r Y^(4-r)) == H(u X, u Y, -(s X + t Y))."""
    b = [Fraction(0)] * 5
    for (i, j, k), c in coeffs.items():
        if not c:
            continue
        base = Fraction(c) * Fraction(u) ** (i + j) * (-1) ** k
        for m in range(k + 1):
            r = i + m  # power of X
            b[4 - r] += base * comb(k, m) * Fraction(s) ** m * Fraction(t) ** (k - m)
    return b


def binary_invariants(b):
    """(h2, h3) of b0 X^4 + b1 X^3 Y + ... + b4 Y^4, the program's normalization."""
    b0, b1, b2, b3, b4 = b
    h2 = (12 * b0 * b4 - 3 * b1 * b3 + b2 * b2) / 3
    h3 = (72 * b0 * b2 * b4 - 27 * b0 * b3 * b3 - 27 * b1 * b1 * b4
          + 9 * b1 * b2 * b3 - 2 * b2 * b2 * b2) / 27
    return h2, h3


def covariant_values(coeffs, s, t, u):
    """(b, g4, g6) at the dual point (s, t, u); needs u != 0."""
    b = section_coefficients(coeffs, s, t, u)
    h2, h3 = binary_invariants(b)
    return b, h2 / Fraction(u) ** 4, h3 / Fraction(u) ** 6


# ---------------------------------------------------------------------------
# Rational linear algebra


def rank(rows):
    m = [[Fraction(v) for v in row] for row in rows]
    r = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c] / m[r][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    return r


def det(rows):
    m = [[Fraction(v) for v in row] for row in rows]
    n, out = len(m), Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            out = -out
        out *= m[c][c]
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return out


QUADRIC_MONOMIALS = ((0, 0), (1, 1), (2, 2), (3, 3),
                     (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def quadric_row(p):
    return [Fraction(p[i]) * p[j] for i, j in QUADRIC_MONOMIALS]


def proportional(p, q):
    return rank([list(p), list(q)]) == 1


def _point(strings):
    return [Fraction(v) for v in strings]


# ---------------------------------------------------------------------------
# Checks, one per job kind


def _at(point):
    return "(" + ", ".join(f"{k}={v}" for k, v in point.items()) + ")"


def _covariant_problems(report, split, points):
    """Compare b, g4, g6, cone and dual curve with the direct line-section values."""
    problems = []
    names = ("b", "g4", "g6", "cone", "dual_curve")
    try:
        polys = {n: parse(report[n]) if n != "b" else [parse(x) for x in report[n]]
                 for n in names}
    except (KeyError, ValueError, TypeError) as err:
        return [f"unreadable covariants report: {err}"]
    for point in points:
        s, t, u = point["s"], point["t"], point["u"]
        b, g4, g6 = covariant_values(coefficients_at(split, point), s, t, u)
        got_g4, got_g6 = evaluate(polys["g4"], point), evaluate(polys["g6"], point)
        if got_g4 != g4 or got_g6 != g6:
            problems.append(f"g4/g6 at {_at(point)} are {got_g4}, {got_g6}; "
                            f"line section gives {g4}, {g6}")
        if [evaluate(bi, point) for bi in polys["b"]] != b:
            problems.append(f"b at {_at(point)} differs from the line section")
        if evaluate(polys["dual_curve"], point) != 4 * g4 ** 3 - 27 * g6 ** 2:
            problems.append(f"dual curve at {_at(point)} is not 4 g4^3 - 27 g6^2")
        v, w = Fraction(3, 2), Fraction(-5, 7)
        cone = evaluate(polys["cone"], {**point, "v": v, "w": w})
        if cone != -w * w + v ** 3 - g4 * v + g6:
            problems.append(f"cone at {_at(point)} is not -w^2 + v^3 - g4 v + g6")
    return problems


def check_covariants(report, expect):
    """``expect``: coeffs (``quartic_coefficients`` of the input), points,
    smooth (True / False / None for unknown), parametric, golden (g4, g6 texts)."""
    problems = []
    problems += _covariant_problems(report, expect["coeffs"], expect["points"])
    smoothness = report.get("input_smoothness", {})
    if expect.get("parametric"):
        if smoothness.get("status") != "not_evaluated_parametric":
            problems.append("parametric quartic must skip the smoothness certificate")
    else:
        if smoothness.get("status") != "evaluated":
            problems.append("smoothness certificate not evaluated")
        elif (smoothness.get("macaulay_resultant") != "0") != smoothness.get("smooth"):
            problems.append("smooth flag disagrees with the Macaulay resultant")
        elif expect.get("smooth") is not None and smoothness.get("smooth") != expect["smooth"]:
            problems.append(f"smooth is {smoothness.get('smooth')}, expected {expect['smooth']}")
    golden = expect.get("golden")
    if golden:
        for key, text in zip(("g4", "g6"), golden):
            if parse(report[key]) != parse(text):
                problems.append(f"{key} differs from the golden value")
    return problems


def check_j(report, expect):
    problems = []
    point = expect["point"]
    coeffs = coefficients_at(expect["coeffs"], point)
    _, g4, g6 = covariant_values(coeffs, point["s"], point["t"], point["u"])
    den = 4 * g4 ** 3 - 27 * g6 ** 2
    if (report.get("g4_value"), report.get("g6_value")) != (str(g4), str(g6)):
        problems.append(f"g4/g6 values {report.get('g4_value')}, {report.get('g6_value')}; "
                        f"line section gives {g4}, {g6}")
    if report.get("dual_curve_value") != str(den):
        problems.append("dual_curve_value is not 4 g4^3 - 27 g6^2")
    if den:
        if report.get("status") != "ok" or report.get("j") != str(1728 * 4 * g4 ** 3 / den):
            problems.append(f"j is {report.get('j')} ({report.get('status')})")
    elif report.get("status") not in ("indeterminate", "on_dual_curve"):
        problems.append("point on the dual curve reported as ok")
    return problems


def rational_square_root(q):
    q = Fraction(q)
    if q < 0:
        return None
    n, d = _isqrt_exact(q.numerator), _isqrt_exact(q.denominator)
    return None if n is None or d is None else Fraction(n, d)


def _isqrt_exact(n):
    r = isqrt(n)
    return r if r * r == n else None


def check_s4(report, expect):
    problems = []
    lam = expect["lambda"]
    if lam == "symbolic":
        if "gamma" in report or "planes_omitted" not in report:
            problems.append("symbolic lambda must omit gamma and the planes")
        return problems
    root = rational_square_root(lam + 1)
    if (root is not None) != ("gamma" in report):
        problems.append(f"gamma presence wrong: lambda + 1 = {lam + 1}, "
                        f"rational root {root}, report has gamma: {'gamma' in report}")
    elif root is not None:
        if report["gamma"] != str(2 * (lam - 2) * root):
            problems.append(f"gamma {report['gamma']} != 2(lambda-2)sqrt(lambda+1)")
        if len(report.get("planes", ())) != 2 or "W" not in report:
            problems.append("gamma present but planes or W missing")
    coeffs = coefficients_at(S4_COEFFICIENTS, {"lambda": lam})
    for point in expect["points"]:
        _, g4, g6 = covariant_values(coeffs, point["s"], point["t"], point["u"])
        got = (evaluate(parse(report["g4"]), point), evaluate(parse(report["g6"]), point))
        if got != (g4, g6):
            problems.append(f"s4 g4/g6 at {_at(point)} are {got}, line section gives {(g4, g6)}")
    return problems


S4_TEXT = "x^4 + y^4 + z^4 + lambda*(y^2*z^2 + x^2*z^2 + x^2*y^2)"
S4_COEFFICIENTS = quartic_coefficients(parse(S4_TEXT))


def check_octad_check(report, expect):
    problems = []
    pts = expect["heptad"]
    coplanar = [list(q) for q in itertools.combinations(range(1, 8), 4)
                if det([pts[i - 1] for i in q]) == 0]
    dimension = 10 - rank([quadric_row(p) for p in pts])
    if report.get("coplanarity_determinants_computed") != 35:
        problems.append("expected 35 coplanarity determinants")
    if report.get("coplanar_quadruples") != coplanar:
        problems.append(f"coplanar quadruples {report.get('coplanar_quadruples')} != {coplanar}")
    if report.get("net_dimension") != dimension:
        problems.append(f"net dimension {report.get('net_dimension')} != {dimension}")
    smooth = report.get("hessian_smooth")
    resultant = report.get("hessian_macaulay_resultant")
    if smooth is not None and smooth != (resultant != "0"):
        problems.append("hessian_smooth disagrees with its Macaulay resultant")
    verdict = report.get("verdict")
    if verdict != (dimension == 3 and smooth is True):
        problems.append(f"verdict {verdict} inconsistent with dimension and smoothness")
    return problems


def check_octad_eighth(report, expect):
    octad = [_point(p) for p in report["octad"]]
    if len(octad) != 8:
        return ["octad does not have eight points"]
    problems = []
    if not all(proportional(p, q) for p, q in zip(octad, expect["heptad"])):
        problems.append("first seven octad points differ from the heptad")
    if any(proportional(octad[7], q) for q in octad[:7]):
        problems.append("eighth point repeats a heptad point")
    if rank([quadric_row(p) for p in octad]) != 7:
        problems.append("8x10 quadric-row matrix does not have rank 7")
    if report.get("verified_on_generators") is not True:
        problems.append("eighth point not verified on the generators")
    return problems


def check_octad_bitangents(report, expect):
    entries = report.get("entries", [])
    if report.get("count") != 28 or len(entries) != 28:
        return [f"expected 28 bitangents, got {report.get('count')}"]
    problems = []
    pairs = [tuple(e["pair"]) for e in entries]
    if sorted(pairs) != list(itertools.combinations(range(1, 9), 2)):
        problems.append("bitangent pairs are not the 28 pairs of octad labels")
    lines = [_point(e["line"]) for e in entries]
    distinct = all(not proportional(a, b) for a, b in itertools.combinations(lines, 2))
    if not distinct or report.get("distinct_lines") is not True:
        problems.append("bitangent lines are not distinct")
    for e in entries:
        root = parse(e["square_root"])
        if p_mul(root, root) != parse(e["restriction"]):
            problems.append(f"restriction for pair {e['pair']} is not the square of its root")
    return problems


def check_octad_cremona(report, expect):
    problems = []
    if report.get("determinant_preserved") is not True:
        problems.append("Cremona transform did not preserve the determinant")
    if report.get("hessian_scalar_equal") is not True:
        problems.append("Hessian scalar changed under the Cremona transform")
    points = [_point(p) for p in report["new_octad"]]
    mats = [[Fraction(v) for v in m] for m in report["new_net"]]
    for p in points:
        for m in mats:
            if sum(p[i] * m[4 * i + j] * p[j] for i in range(4) for j in range(4)):
                problems.append(f"new octad point {p} is off the new net")
    for k, label in enumerate(expect["center"]):
        unit = [Fraction(int(i == k)) for i in range(4)]
        if not proportional(points[label - 1], unit):
            problems.append(f"center point {label} does not map to e{k}")
    return problems


def check_octad_gale(report, expect):
    problems = []
    images = [_point(p) for p in report["projected_points"]]
    collinear = [list(t) for t in itertools.combinations(range(1, 8), 3)
                 if det([images[i - 1] for i in t]) == 0]
    conic = []
    for six in itertools.combinations(range(1, 8), 6):
        rows = [[x * x, y * y, z * z, x * y, x * z, y * z]
                for x, y, z in (images[i - 1] for i in six)]
        if det(rows) == 0:
            conic.append(list(six))
    if report.get("collinear_triples") != collinear:
        problems.append("collinear triples differ from a direct recount")
    if report.get("six_on_conic") != conic:
        problems.append("six-on-a-conic tuples differ from a direct recount")
    if report.get("checks_pass") != (not collinear and not conic):
        problems.append("checks_pass inconsistent with the position checks")
    return problems


def check_theta_count(report, expect):
    problems = []
    got = (report.get("odd"), report.get("even"), report.get("aronhold"))
    return [] if got == (28, 36, 288) else [f"theta counts {got} != (28, 36, 288)"]


def check_theta_aronhold(report, expect):
    problems = []
    if (report.get("count"), report.get("fibers"), report.get("fiber_sizes")) != (288, 36, [8]):
        problems.append("expected 288 systems in 36 fibres of size 8")
    systems = report.get("systems", [])
    keys = set()
    labels = set(range(1, 9))
    for system in systems:
        # an odd characteristic is printed as a pair or as its complementary 6-set
        pairs = {frozenset(m) if len(m) == 2 else frozenset(labels - set(m)) for m in system}
        if len(pairs) != 7 or not all(len(p) == 2 and p <= labels for p in pairs):
            problems.append(f"malformed Aronhold system {system}")
            break
        keys.add(frozenset(pairs))
    if len(keys) != 288:
        problems.append(f"{len(keys)} distinct systems listed, expected 288")
    return problems


CHECKS = {
    "covariants": check_covariants,
    "j": check_j,
    "s4": check_s4,
    "theta.count": check_theta_count,
    "theta.aronhold": check_theta_aronhold,
    "octad.check": check_octad_check,
    "octad.eighth": check_octad_eighth,
    "octad.bitangents": check_octad_bitangents,
    "octad.cremona": check_octad_cremona,
    "octad.gale": check_octad_gale,
}
# Octad jobs that need an Aronhold heptad: on a heptad the check rejected,
# exit 1 is the expected result.
NEED_ARONHOLD = ("octad.eighth", "octad.bitangents", "octad.cremona", "octad.gale")


class Oracle:
    """Checks job outputs in stream order, remembering each heptad's verdict."""

    def __init__(self):
        self.verdicts = {}

    def problems(self, job, code, stdout):
        expected = 0
        if job.kind in NEED_ARONHOLD and not self.verdicts.get(job.expect["heptad_id"], True):
            expected = 1
        if code != expected:
            return [f"exit code {code}, expected {expected}"]
        if expected:
            return []
        try:
            report = json.loads(stdout)
        except ValueError as err:
            return [f"output is not JSON: {err}"]
        try:
            if job.kind == "octad.check":
                self.verdicts[job.expect["heptad_id"]] = report.get("verdict") is True
            return CHECKS[job.kind](report, job.expect)
        except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError,
                AttributeError) as err:
            return [f"malformed report: {type(err).__name__}: {err}"]
