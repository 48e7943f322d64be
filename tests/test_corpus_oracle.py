"""Judge the CLI corpus's octad outputs with the benchmark's own oracle.

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
