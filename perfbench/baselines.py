"""Time the fixed-input rows that the roadmap quotes as its baseline.

    python3 perfbench/baselines.py

End-to-end rows are fresh-interpreter CLI runs on the golden inputs and
the standard heptad; layer rows are in-process calls.  Each figure is the
median of REPEAT runs.  Prints one JSON object.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

import run
from oracle import quartic_text
from workloads import STANDARD_HEPTAD, dense_quartic

REPEAT = 5

ROWS = (
    ("setup --help", ["--help"]),
    ("covariants Klein", ["covariants", "{klein}"]),
    ("octad check", ["octad", "check", "{heptad}"]),
    ("octad eighth", ["octad", "eighth", "{heptad}"]),
    ("octad bitangents", ["octad", "bitangents", "{heptad}"]),
    ("octad gale", ["octad", "gale", "{heptad}"]),
    ("octad cremona 1,2,3,4", ["octad", "cremona", "{heptad}", "--center", "1,2,3,4"]),
    ("theta count", ["theta", "count"]),
    ("s4 --lambda 3", ["s4", "--lambda=3"]),
)


def median_time(fn):
    times = []
    for _ in range(REPEAT):
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return statistics.median(times)


def end_to_end_rows(files):
    env = run.program_env()
    out = {}
    for name, argv in ROWS:
        argv = [a.format(**files) for a in argv]
        out[name] = median_time(
            lambda: subprocess.run(run.CLI + argv, env=env, capture_output=True, check=True,
                                   cwd=run.ROOT))
    return out


def layer_rows():
    sys.path.insert(0, run.SRC)
    from quartic_cones import covariants, octad, theta
    from quartic_cones.polyio import parse_poly

    net = octad.net_from_heptad(STANDARD_HEPTAD)
    check = octad.aronhold_check(STANDARD_HEPTAD)
    eight = octad.eighth_point(net, rng=random.Random(0), check=check)
    rng = random.Random(0)
    pending = iter([covariants.QuarticCurve(parse_poly(quartic_text(dense_quartic(rng)), "xyz"))
                    for _ in range(REPEAT)])
    return {
        "aronhold_check": median_time(lambda: octad.aronhold_check(STANDARD_HEPTAD)),
        "eighth_point given the check": median_time(
            lambda: octad.eighth_point(net, rng=random.Random(0), check=check)),
        "all_bitangents jobs=1": median_time(lambda: octad.all_bitangents(eight, net)),
        "all_bitangents jobs=2": median_time(
            lambda: octad.all_bitangents(eight, net, jobs=2)),
        "aronhold_enumerate jobs=1": median_time(
            lambda: theta.aronhold_enumerate("list")),
        "aronhold_enumerate jobs=2": median_time(
            lambda: theta.aronhold_enumerate("list", jobs=2)),
        "covariant pipeline per random quartic": median_time(
            lambda: covariants.dual_curve(covariants.covariants(next(pending)))),
    }


def main():
    workdir = os.path.join(run.WORK, f"baselines-{os.getpid()}")
    os.makedirs(workdir)
    try:
        files = {"klein": os.path.join(workdir, "klein.txt"),
                 "heptad": os.path.join(workdir, "heptad.txt")}
        with open(files["klein"], "w") as handle:
            handle.write("x^3*y + y^3*z + z^3*x\n")
        with open(files["heptad"], "w") as handle:
            handle.write("\n".join(",".join(map(str, p)) for p in STANDARD_HEPTAD) + "\n")
        result = {"repeat": REPEAT, "cpus": os.cpu_count(),
                  "python": sys.version.split()[0],
                  "end_to_end_s": end_to_end_rows(files),
                  "layers_s": layer_rows()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(run.WORK)
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
