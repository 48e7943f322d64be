"""Command-line frontend.

Subcommands wrap the library pipelines and emit JSON (default) or text
reports.  Every mathematical claim in a report is accompanied by its
machine-checkable certificate: exact rational values, polynomial
witnesses, or both.  Rationals are printed as exact decimal strings
("num/den"), never floating point.

Exit codes: 0 success, 1 mathematical precondition failure, 2 input or
parse failure.  The output bytes depend only on argv and the input
files, so they are identical across runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

# The package's modules are imported in the functions that use them: each
# job is a fresh process that compiles what it imports, so --help compiles
# none of them and a theta job only theta and record.

EXIT_OK = 0
EXIT_MATH = 1
EXIT_INPUT = 2


class InputError(Exception):
    pass


def _frac(value: Fraction) -> str:
    return str(Fraction(value))


def _point_json(coords) -> list:
    return [_frac(c) for c in coords]


def _matrix_json(matrix) -> list:
    """Row-major rational-string array."""
    return [_frac(v) for row in matrix for v in row]


def _render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True) + "\n"
    lines = []

    def walk(path, value):
        if isinstance(value, dict):
            for key in sorted(value):
                walk(f"{path}.{key}" if path else key, value[key])
        elif isinstance(value, list):
            lines.append(f"{path}: {json.dumps(value)}")
        else:
            lines.append(f"{path}: {value}")

    walk("", report)
    return "\n".join(lines) + "\n"


def _read(path: str) -> str:
    try:
        with open(path) as handle:
            return handle.read()
    except OSError as err:
        raise InputError(f"cannot read {path}: {err}")


def _load_quartic(path: str):
    from . import covariants as cov
    from .polyio import parse_poly, scan_identifiers

    text = "\n".join(line.split("#", 1)[0] for line in _read(path).splitlines()).strip()
    idents = scan_identifiers(text)
    declared = tuple(dict.fromkeys(("x", "y", "z") + idents))
    poly = parse_poly(text, declared)
    curve = cov.QuarticCurve(poly)
    return curve, text


def _load_points(path: str, count_options) -> list:
    from .polyio import parse_points_file

    points = parse_points_file(_read(path), "P3")
    if len(points) not in count_options:
        raise InputError(f"expected {' or '.join(map(str, count_options))} points "
                         f"in {path}, found {len(points)}")
    return points


def _smoothness_report(curve) -> dict:
    if curve.parameters:
        return {"status": "not_evaluated_parametric",
                "parameters": sorted(curve.parameters)}
    from .polycore import macaulay_resultant_ternary

    res = macaulay_resultant_ternary(curve.poly.partial("x"), curve.poly.partial("y"),
                                     curve.poly.partial("z"))
    return {"status": "evaluated", "macaulay_resultant": _frac(res),
            "smooth": res != 0}


def cmd_covariants(args) -> dict:
    from . import covariants as cov
    from .polyio import print_poly

    curve, text = _load_quartic(args.quartic)
    pair = cov.covariants(curve)
    G = pair.dual.G
    if G.is_zero():
        from .polycore import PolyError

        why = "g4 = g6 = 0" if pair.g4.is_zero() and pair.g6.is_zero() else "4 g4^3 = 27 g6^2"
        raise PolyError(f"{why}: the dual curve vanishes identically")
    report = {
        "command": "covariants",
        "input": text,
        "b": [print_poly(bi) for bi in curve.restriction],
        "g4": print_poly(pair.g4),
        "g6": print_poly(pair.g6),
        "cone": print_poly(pair.cone.F),
        "dual_curve": print_poly(G),
        "dual_degree": G.homogeneous_degree(
            {**{v: 0 for v in G.variables}, "s": 1, "t": 1, "u": 1}),
        "input_smoothness": _smoothness_report(curve),
    }
    return report


def cmd_j(args) -> dict:
    from . import covariants as cov
    from .polyio import parse_point

    curve, text = _load_quartic(args.quartic)
    if curve.parameters:
        raise InputError("j evaluation needs a parameter-free quartic")
    point = parse_point(args.point, "P2")
    pair = cov.covariants(curve)
    g4v, g6v, G = cov.dual_values(pair, point)
    report = {
        "command": "j",
        "input": text,
        "point": _point_json(point),
        "g4_value": _frac(g4v),
        "g6_value": _frac(g6v),
        "dual_curve_value": _frac(G),
    }
    try:
        report["j"] = _frac(cov.j_of_values(point, g4v, g6v, G))
        report["status"] = "ok"
    except cov.IndeterminateJ:
        report["status"] = "indeterminate"
    except cov.OnDualCurve:
        report["status"] = "on_dual_curve"
    return report


def _aronhold_json(rep) -> dict:
    return {
        "coplanarity_determinants_computed": len(rep.coplanarity),
        "coplanar_quadruples": [list(q) for q in rep.coplanar_quadruples],
        "net_dimension": rep.net_dimension,
        "hessian_smooth": rep.hessian_smooth,
        "hessian_macaulay_resultant":
            None if rep.hessian_resultant is None else _frac(rep.hessian_resultant),
        "verdict": rep.verdict,
    }


def _parse_center(raw) -> tuple:
    """The four distinct octad labels in 1..8 of ``--center i,j,k,l``."""
    if not raw:
        raise InputError("cremona needs --center i,j,k,l")
    try:
        center = tuple(int(part) for part in raw.split(","))
    except ValueError:
        raise InputError(f"malformed --center {raw!r}")
    if len(center) != 4 or len(set(center)) != 4 or not all(1 <= c <= 8 for c in center):
        raise InputError(f"--center needs four distinct labels in 1..8, got {raw!r}")
    return center


def cmd_octad(args) -> dict:
    from . import octad as octad_mod
    from .polyio import print_poly

    action = args.action
    if action in ("check", "net", "hessian", "eighth"):
        points = _load_points(args.points, (7,))
    else:
        points = _load_points(args.points, (7, 8))
    if action == "cremona":
        center = _parse_center(args.center)

    if action == "check":
        rep = octad_mod.aronhold_check(points)
        return {"command": "octad.check", **_aronhold_json(rep)}

    net = octad_mod.net_from_heptad(points[:7])
    if action == "net":
        return {"command": "octad.net",
                "dimension": 3,
                "matrices": [_matrix_json(m) for m in net.matrices]}
    if action == "hessian":
        hq = octad_mod.hessian_quartic(net)
        return {"command": "octad.hessian",
                "quartic": print_poly(hq.quartic),
                "smooth": hq.smooth,
                "macaulay_resultant": _frac(hq.resultant)}
    if action == "eighth":
        octad = octad_mod.eighth_point(net)
        p8 = octad.point(8)
        verified = all(octad_mod.quadric_polar(m, p8, p8) == 0 for m in net.matrices)
        return {"command": "octad.eighth",
                "eighth_point": _point_json(p8),
                "verified_on_generators": verified,
                "octad": [_point_json(p) for p in octad.points]}

    if len(points) == 8:
        octad = octad_mod.Octad(points, net=net)
    else:
        octad = octad_mod.eighth_point(net)

    if action == "bitangents":
        certs = octad_mod.all_bitangents(octad, net)
        lines = {tuple(c.line) for c in certs}
        return {"command": "octad.bitangents",
                "count": len(certs),
                "distinct_lines": len(lines) == len(certs),
                "entries": [{
                    "pair": list(c.pair),
                    "line": _point_json(c.line),
                    "restriction": print_poly(c.restriction),
                    "square_root": print_poly(c.square_root),
                } for c in certs]}

    if action == "cremona":
        from . import theta as theta_mod

        result = octad_mod.cremona_octad(octad, center)
        label = theta_mod.ThetaChar.from_quadruple(*center).label()
        return {"command": "octad.cremona",
                "center": list(center),
                "center_theta_label": list(label),
                "determinant_preserved": result.det_preserved,
                "hessian_scalar_equal": result.det_preserved,
                "new_octad": [_point_json(p) for p in result.octad.points],
                "new_net": [_matrix_json(m) for m in result.net.matrices],
                "normalized_source_net":
                    [_matrix_json(m) for m in result.normalized_source_net.matrices]}

    rep = octad_mod.gale_transform(octad)
    return {"command": "octad.gale",
            "projected_points": [_point_json(p) for p in rep.points],
            "collinear_triples": [list(t) for t in rep.collinear_triples],
            "six_on_conic": [list(t) for t in rep.conic_six_tuples],
            "checks_pass": rep.ok}


def cmd_theta(args) -> dict:
    from . import theta as theta_mod

    if args.action == "count":
        model = theta_mod.build_model()
        odd = sum(1 for c in model if c.is_odd())
        count = theta_mod.aronhold_enumerate("count")
        return {"command": "theta.count",
                "odd": odd, "even": len(model) - odd,
                "aronhold": count}
    systems = theta_mod.aronhold_enumerate("list")
    hist = theta_mod.even_fiber_histogram(systems)
    report = {"command": "theta.aronhold",
              "count": len(systems),
              "fiber_sizes": sorted(set(hist.values())),
              "fibers": len(hist)}
    if args.list:
        report["systems"] = [[list(p) for p in s.pair_labels()] for s in systems]
    return report


def cmd_s4(args) -> dict:
    from . import cone as cone_mod
    from . import covariants as cov
    from .polyio import parse_poly, parse_rational, print_poly

    raw = args.lam
    if raw != "symbolic":
        raw = parse_rational(raw)
    family = cone_mod.s4_family(raw)
    report = {
        "command": "s4",
        "lambda": _frac(family.lam) if isinstance(family.lam, Fraction) else "symbolic",
        "g4": print_poly(family.pair.g4),
        "g6": print_poly(family.pair.g6),
        "cone": print_poly(family.cone.F),
        "branch_quartic": print_poly(family.branch_quartic),
        "identities": {
            "stu_squared": True,
            "branch_scaling_16": True,
        },
    }
    if family.gamma is not None:
        report["gamma"] = _frac(family.gamma)
        report["planes"] = [[print_poly(eq) for eq in plane] for plane in family.planes]
        report["identities"]["planes_in_cone"] = True
        report["W"] = print_poly(family.W)
    else:
        report["planes_omitted"] = family.planes_omitted_reason
    if family.lam == 0:
        fermat = cov.QuarticCurve(parse_poly("x^4+y^4+z^4", "xyz"))
        report["fermat_consistent"] = family.cone.F == cov.covariants(fermat).cone.F
    return report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quartic-cones",
        description="Exact pipelines from plane quartics to sextic double cones, "
                    "nets of quadrics, Cayley octads, and theta characteristics.")
    parser.add_argument("--format", choices=("json", "text"), default="json",
                        help="output format (default json)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("covariants", help="line restriction, g4/g6, cone, dual curve")
    p.add_argument("quartic", help="file with a quartic expression in x, y, z")
    p.set_defaults(func=cmd_covariants)

    p = sub.add_parser("j", help="exact j-value of the line section at a dual point")
    p.add_argument("quartic")
    p.add_argument("--point", required=True, help="s,t,u rationals")
    p.set_defaults(func=cmd_j)

    p = sub.add_parser("octad", help="net / Hessian / eighth point / bitangents / "
                                     "cremona / gale / check")
    p.add_argument("action", choices=("check", "net", "hessian", "eighth",
                                      "bitangents", "cremona", "gale"))
    p.add_argument("points", help="points file (7 or 8 points of P3)")
    p.add_argument("--center", help="four labels i,j,k,l for cremona")
    p.set_defaults(func=cmd_octad)

    p = sub.add_parser("theta", help="theta-characteristic counts and Aronhold systems")
    p.add_argument("action", choices=("count", "aronhold"))
    p.add_argument("--list", action="store_true", help="list the 288 systems")
    p.set_defaults(func=cmd_theta)

    p = sub.add_parser("s4", help="the symmetric quartic family and its special surfaces")
    p.add_argument("--lambda", dest="lam", required=True,
                   help='rational value or "symbolic"')
    p.set_defaults(func=cmd_s4)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report = args.func(args)
    except Exception as err:
        from .polycore import PolyError
        from .polyio import ParseError

        if isinstance(err, (InputError, ParseError, ValueError)):
            sys.stderr.write(f"input error: {err}\n")
            return EXIT_INPUT
        if isinstance(err, PolyError):
            sys.stderr.write(f"error: {err}\n")
            return EXIT_MATH
        raise
    sys.stdout.write(_render(report, args.format))
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
