"""Judge the CLI corpus's outputs with the benchmark's own oracle.

The byte corpus only says that an output did not move.  Here every
exit-0 JSON ``octad check``, ``eighth``, ``bitangents``, ``cremona`` and
``gale`` command of ``tests/cli_corpus.json`` is run again and its report
handed to the ``check_octad_*`` function of ``perfbench/oracle.py``, which
recomputes what it can from the input points with its own Fraction
arithmetic and imports nothing from the package.  Each ``octad net``
report is checked directly: every printed generator vanishes at the input
points, and the three generators have rank 3.  These outputs rest on
``nullspace`` (the net, the eighth point) and ``inverse`` (the frames of
``eighth_point`` and ``cremona_octad``).

Every exit-0 ``covariants``, ``j`` and ``s4`` command goes to the
oracle's ``check_covariants``, ``check_j`` and ``check_s4``, which
evaluate b, g4, g6, the cone and the dual curve from the input's own line
section.  They are judged at the fixed dual points ``DUAL_POINTS``, with
the fixed ``PARAMETERS`` for the pencils' parameters, and ``j`` at the
point of its argv.  These outputs rest on the packed covariant chain.
"""

import json
import os
import types
from fractions import Fraction

import pytest

from make_cli_corpus import CORPUS, run_command, write_files

ORACLE_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "perfbench", "oracle.py")


def load_oracle():
    # exec instead of import, as tests/test_bench_contract.py loads
    # perfbench/tracer.py, so no bytecode is written into perfbench/
    module = types.ModuleType("perfbench_oracle")
    with open(ORACLE_PATH) as handle:
        exec(compile(handle.read(), ORACLE_PATH, "exec"), module.__dict__)
    return module


ORACLE = load_oracle()

with open(CORPUS) as _handle:
    _CORPUS = json.load(_handle)

JUDGED = ("check", "eighth", "bitangents", "cremona", "gale", "net")
OCTAD_RUNS = [e for e in _CORPUS["commands"]
              if e["exit"] == 0 and e["argv"][:1] == ["octad"] and e["argv"][1] in JUDGED]
COVARIANT_KINDS = ("covariants", "j", "s4")
COVARIANT_RUNS = [e for e in _CORPUS["commands"] if e["exit"] == 0
                  and e["argv"][0] in COVARIANT_KINDS and "--help" not in e["argv"]]

# Dual points off u = 0 (the chart of the line section) and values for the
# pencils' parameters; chosen once, not drawn from a seed.
DUAL_POINTS = [{"s": Fraction(1), "t": Fraction(-2), "u": Fraction(3)},
               {"s": Fraction(-1, 2), "t": Fraction(5, 3), "u": Fraction(-1)},
               {"s": Fraction(0), "t": Fraction(1), "u": Fraction(2, 7)}]
PARAMETERS = {"a": Fraction(-3, 2), "b": Fraction(2, 5)}
# The certificate's verdict on each non-parametric input: the criterion-5
# witness is singular at [1:-1:0], the others are smooth.
SMOOTH = {"klein.txt": True, "fermat.txt": True, "e510.txt": True, "commented.txt": True,
          "corrected.txt": True, "witness.txt": False}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus-oracle")
    write_files(str(path), _CORPUS["files"])
    return str(path)


def expectation(argv):
    """(points, expect): the input file's points and the oracle's expectation."""
    text = _CORPUS["files"][argv[2]]
    points = [[Fraction(c) for c in line.split(",")] for line in text.split()]
    expect = {"heptad": points}
    if "--center" in argv:
        expect["center"] = [int(c) for c in argv[argv.index("--center") + 1].split(",")]
    return points, expect


def net_problems(report, points):
    mats = [[Fraction(v) for v in m] for m in report["matrices"]]
    dimension = 10 - ORACLE.rank([ORACLE.quadric_row(p) for p in points])
    problems = []
    if report["dimension"] != dimension or len(mats) != 3 or ORACLE.rank(mats) != 3:
        problems.append(f"{len(mats)} generators of rank {ORACLE.rank(mats)}, "
                        f"dimension {report['dimension']}, expected 3 of rank 3")
    for m in mats:
        for p in points:
            if sum(p[i] * m[4 * i + j] * p[j] for i in range(4) for j in range(4)):
                problems.append(f"generator {m} does not vanish at {p}")
    return problems


def covariant_expectation(argv):
    """The oracle's expectation for a ``covariants``, ``j`` or ``s4`` command."""
    if argv[0] == "s4":
        lam = argv[argv.index("--lambda") + 1]
        return {"lambda": lam if lam == "symbolic" else Fraction(lam), "points": DUAL_POINTS}
    # a comment runs from "#" to the end of its line
    text = " ".join(line.split("#")[0] for line in _CORPUS["files"][argv[1]].splitlines())
    coeffs = ORACLE.quartic_coefficients(ORACLE.parse(text))
    if argv[0] == "j":
        s, t, u = (Fraction(c) for c in argv[argv.index("--point") + 1].split(","))
        return {"coeffs": coeffs, "point": {"s": s, "t": t, "u": u}}
    parametric = argv[1] not in SMOOTH
    return {"coeffs": coeffs, "points": [{**p, **PARAMETERS} for p in DUAL_POINTS],
            "parametric": parametric, "smooth": SMOOTH.get(argv[1])}


def test_every_covariant_command_is_judged():
    kinds = [e["argv"][0] for e in COVARIANT_RUNS]
    assert (kinds.count("covariants"), kinds.count("j"), kinds.count("s4")) == (10, 6, 6)
    assert sum(e["argv"][1] in SMOOTH for e in COVARIANT_RUNS if e["argv"][0] == "covariants") == 6


@pytest.mark.parametrize("entry", COVARIANT_RUNS, ids=lambda e: " ".join(e["argv"]))
def test_covariant_output_passes_the_oracle(entry, workdir):
    argv = entry["argv"]
    code, out, _ = run_command(argv, workdir)
    assert code == 0
    assert ORACLE.CHECKS[argv[0]](json.loads(out), covariant_expectation(argv)) == []


def test_a_wrong_covariant_fails_the_oracle(workdir):
    # the judgement is not vacuous: g6 off by the parameter's factor is caught
    argv = ["covariants", "two-parameter-pencil.txt"]
    report = json.loads(run_command(argv, workdir)[1])
    report["g6"] = f"a*({report['g6']})"
    assert ORACLE.check_covariants(report, covariant_expectation(argv)) != []


def test_every_octad_action_is_judged():
    actions = [e["argv"][1] for e in OCTAD_RUNS]
    assert actions.count("net") == 5
    assert set(actions) == set(JUDGED)


@pytest.mark.parametrize("entry", OCTAD_RUNS, ids=lambda e: " ".join(e["argv"]))
def test_octad_output_passes_the_oracle(entry, workdir):
    argv = entry["argv"]
    code, out, _ = run_command(argv, workdir)
    assert code == 0
    report = json.loads(out)
    points, expect = expectation(argv)
    if argv[1] == "net":
        problems = net_problems(report, points)
    else:
        problems = ORACLE.CHECKS[f"octad.{argv[1]}"](report, expect)
    assert problems == []
