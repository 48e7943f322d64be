"""Seeded job streams for the three benchmark workloads.

A job is one CLI invocation: the argv after the program name, plus what
the oracle needs to check its output.  Streams are infinite, depend only
on the seed, and yield jobs in cycles with a fixed mix of job kinds; the
fixed golden and witness inputs come first.  Input files are written into
a work directory as the stream advances, so the program sees nothing but
those files and argv.

Why each workload exists (the layer it isolates or bypasses):

- quartic-scan: numeric quartics through ``covariants`` and ``j``; the
  ``covariants`` smoothness certificate is a 36x36 Macaulay resultant, so
  this isolates the scalar Poly-Bareiss path and never runs octad or theta.
- pencil-covariants: parametric pencils Q0 + a*Q1 and the S4 family; the
  CLI skips the certificate for parametric input, so this bypasses scalar
  Bareiss and isolates Poly mul/add, exact division and ``print_poly``.
- octad-pipeline: heptads through every octad action plus theta jobs; the
  only workload that runs octad and theta, and the one that shows the
  degenerate identity-frame Macaulay minor on coordinate-simplex heptads.
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

from oracle import (QUARTIC_EXPONENTS, S4_TEXT, evaluate, p_add, p_const, p_mul, p_pow,
                    p_var, parse, quartic_coefficients, quartic_text)

WORKLOADS = ("quartic-scan", "pencil-covariants", "octad-pipeline")

GOLDEN_QUARTICS = (
    # name, text, (g4, g6) as pinned by the acceptance suite
    ("klein", "x^3*y + y^3*z + z^3*x",
     ("s^3*t + t^3*u + u^3*s", "s^5*u - 5*s^2*t^2*u^2 + s*t^5 + t*u^5")),
    ("fermat", "x^4 + y^4 + z^4",
     ("4*(s^4 + t^4 + u^4)", "16*s^2*t^2*u^2")),
    ("e510", "x^4 + y^4 + z^4 + x^3*y + 2*x^3*z",
     ("4*(s^4 - s*t^3 - 2*s*u^3 + t^4 + u^4)",
      "-16*s^3*t^2*u - 8*s^3*t*u^2 + 16*s^2*t^2*u^2 - 4*t^6 + 4*t^5*u"
      " - t^4*u^2 - 4*t^2*u^4 + 4*t*u^5 - u^6")),
)
# Criterion-5 witness: singular at [1:-1:0], so its certificate must be 0.
SINGULAR_WITNESS = "(x^2 - y^2)^2 + z*(x^3 + y^3 + z^3)"
S4_GOLDEN = (
    "1/3*(lambda^2 + 12)*(s^4 + t^4 + u^4) + 2/3*(lambda^2 + 6*lambda)"
    "*(t^2*u^2 + s^2*u^2 + s^2*t^2)",
    "2/9*(-lambda^3 + 12*lambda^2 + 12*lambda)"
    "*(t^4*u^2 + t^2*u^4 + s^4*u^2 + s^2*u^4 + s^4*t^2 + s^2*t^4)"
    " + 2/27*(-lambda^3 + 36*lambda)*(s^6 + t^6 + u^6)"
    " + 4/9*(8*lambda^3 - 9*lambda^2 + 36)*s^2*t^2*u^2",
)
STANDARD_HEPTAD = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
                   (1, 1, 1, 1), (1, 2, 3, 4), (1, 4, 9, 25))
S4_EXCLUDED = (Fraction(-2), Fraction(2), Fraction(-1))


@dataclass
class Job:
    kind: str
    argv: list
    expect: dict = field(default_factory=dict)

    def label(self):
        return " ".join(os.path.basename(a) if os.path.isabs(a) else a for a in self.argv)


class _Files:
    def __init__(self, workdir):
        self.workdir = workdir
        self.count = 0

    def write(self, stem, text):
        self.count += 1
        path = os.path.join(self.workdir, f"{self.count:04d}-{stem}.txt")
        with open(path, "w") as handle:
            handle.write(text + "\n")
        return path


def _nonzero(rng, lo, hi):
    while True:
        v = rng.randint(lo, hi)
        if v:
            return v


def _dual_point(rng, names=()):
    """A seeded point (s, t, u, *names) with u != 0 and small rationals."""
    point = {"s": Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
             "t": Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
             "u": Fraction(_nonzero(rng, -5, 5), rng.randint(1, 3))}
    for name in names:
        point[name] = Fraction(rng.randint(-7, 7), rng.randint(1, 4))
    return point


def dense_quartic(rng):
    return {e: rng.randint(-9, 9) for e in QUARTIC_EXPONENTS}


def nodal_quartic(rng):
    """An integer quartic singular at a seeded rational point.

    F0 = z^2 q2(x, y) + z c3(x, y) + c4(x, y) is singular at [0:0:1];
    x -> x - p0 z, y -> y - p1 z moves that point to [p0:p1:1], and a
    seeded renaming of x, y, z moves it off the chart z = 1.
    """
    p0, p1 = rng.randint(-2, 2), rng.randint(-2, 2)
    order = rng.sample("xyz", 3)
    x, y, z = (p_var(n) for n in order)
    lin = (p_add(x, p_mul(p_const(-p0), z)), p_add(y, p_mul(p_const(-p1), z)), z)
    f = {}
    for (i, j, k) in QUARTIC_EXPONENTS:
        if k <= 2:  # no z^3 or z^4 term: [0:0:1] is singular
            c = p_const(_nonzero(rng, -5, 5))
            f = p_add(f, p_mul(c, p_mul(p_pow(lin[0], i),
                                        p_mul(p_pow(lin[1], j), p_pow(lin[2], k)))))
    coeffs = {key: evaluate(c, {}) for key, c in quartic_coefficients(f).items()}
    node = dict(zip(order, (p0, p1, 1)))
    if evaluate(f, node) or any(evaluate(_partial(coeffs, v), node) for v in range(3)):
        raise AssertionError("constructed quartic is not singular at its node")
    return coeffs


def _partial(coeffs, v):
    out = {}
    for e, c in coeffs.items():
        if e[v] and c:
            e2 = list(e)
            e2[v] -= 1
            mono = tuple((n, k) for n, k in zip("xyz", e2) if k)
            out[mono] = out.get(mono, 0) + c * e[v]
    return out


def _covariants_job(files, stem, text, rng, params=(), **expect):
    path = files.write(stem, text)
    points = [_dual_point(rng, params) for _ in range(2)]
    return Job("covariants", ["covariants", path],
               dict(coeffs=quartic_coefficients(parse(text)), points=points,
                    parametric=bool(params), **expect))


def quartic_scan(rng, files):
    head = [_covariants_job(files, name, text, rng, smooth=True, golden=golden)
            for name, text, golden in GOLDEN_QUARTICS]
    yield head + [_covariants_job(files, "witness", SINGULAR_WITNESS, rng, smooth=False)]
    for c in itertools.count():
        cycle = [_covariants_job(files, f"dense{c}.{i}", quartic_text(dense_quartic(rng)), rng)
                 for i in range(3)]
        cycle.append(_covariants_job(files, f"nodal{c}", quartic_text(nodal_quartic(rng)),
                                     rng, smooth=False))
        point = _dual_point(rng)
        cycle.insert(1, Job("j", ["j", cycle[0].argv[1],
                                  "--point=" + ",".join(str(point[n]) for n in "stu")],
                            dict(coeffs=cycle[0].expect["coeffs"], point=point)))
        yield cycle


def _s4_job(lam, rng):
    label = "symbolic" if lam == "symbolic" else str(lam)
    return Job("s4", ["s4", f"--lambda={label}"],
               dict(**{"lambda": lam}, points=[_dual_point(rng)]))


def _s4_lambda(rng, square):
    while True:
        if square:  # lambda + 1 = (p/q)^2
            lam = Fraction(_nonzero(rng, -9, 9), rng.randint(1, 5)) ** 2 - 1
        else:
            lam = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        if lam not in S4_EXCLUDED:
            return lam


def pencil_covariants(rng, files):
    yield [_covariants_job(files, "s4golden", S4_TEXT, rng, params=("lambda",),
                           golden=S4_GOLDEN),
           _s4_job("symbolic", rng)]
    for c in itertools.count():
        cycle = []
        for i in range(3):
            q0, q1 = quartic_text(dense_quartic(rng)), quartic_text(dense_quartic(rng))
            cycle.append(_covariants_job(files, f"pencil{c}.{i}", f"{q0} + a*({q1})", rng,
                                         params=("a",)))
        cycle.append(_s4_job(_s4_lambda(rng, square=c % 2 == 0), rng))
        yield cycle


def _heptad(k, rng):
    if k == 0:
        return [list(p) for p in STANDARD_HEPTAD]
    if k % 2 == 0:  # coordinate simplex plus three seeded points
        simplex = [[int(i == j) for j in range(4)] for i in range(4)]
        return simplex + [[_nonzero(rng, -9, 9) for _ in range(4)] for _ in range(3)]
    return [[_nonzero(rng, -9, 9) for _ in range(4)] for _ in range(7)]


def _heptad_jobs(k, rng, files):
    heptad = _heptad(k, rng)
    path = files.write(f"heptad{k}", "\n".join(",".join(map(str, p)) for p in heptad))
    expect = dict(heptad=[[Fraction(c) for c in p] for p in heptad], heptad_id=k)
    jobs = [Job(f"octad.{action}", ["octad", action, path], expect)
            for action in ("check", "eighth", "bitangents")]
    center = sorted(rng.sample(range(1, 9), 4))
    jobs.append(Job("octad.cremona", ["octad", "cremona", path, "--center",
                                      ",".join(map(str, center))],
                    dict(expect, center=center)))
    jobs.append(Job("octad.gale", ["octad", "gale", path], expect))
    if k % 2 == 0:
        jobs.append(Job("theta.count", ["theta", "count"]))
    else:
        jobs.append(Job("theta.aronhold", ["theta", "aronhold", "--list"]))
    return jobs


def octad_pipeline(rng, files):
    # A cycle is a simplex heptad and a random one: their octad jobs take
    # different times, so a run of whole cycles must hold as many of each.
    for c in itertools.count():
        yield _heptad_jobs(2 * c, rng, files) + _heptad_jobs(2 * c + 1, rng, files)


STREAMS = {
    "quartic-scan": quartic_scan,
    "pencil-covariants": pencil_covariants,
    "octad-pipeline": octad_pipeline,
}


def job_stream(workload, seed, workdir):
    """Infinite, seed-determined stream of job cycles; writes input files into ``workdir``.

    The first cycle holds the fixed golden inputs; every later cycle has the
    same mix of job kinds, so a run made of whole cycles has the same mix
    whatever the machine's speed.
    """
    return STREAMS[workload](random.Random(f"{workload}:{seed}"), _Files(workdir))
