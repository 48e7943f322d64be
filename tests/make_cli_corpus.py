"""Build the CLI byte corpus: commands with the SHA-256 of their output.

    PYTHONPATH=src python3 tests/make_cli_corpus.py

writes ``tests/cli_corpus.json``: the input files, and for every command
its argv, the SHA-256 of stdout and of stderr, and the exit code.
``tests/test_cli_corpus.py`` replays each command in-process through
``cli.main`` and compares.  Regenerate the corpus only for a change that
means to alter the CLI's bytes, and say which commands moved.

The heptads come from ``tests/conftest.py``.  Commands run in a directory
that holds the input files under relative names, with ``COLUMNS=80``
(argparse wraps help to the terminal width), so the bytes depend on
nothing but argv and the files.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

from conftest import COPLANAR, SEED1_HEPTADS, SIMPLEX, STANDARD_HEPTAD, TWISTED_CUBIC

CORPUS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_corpus.json")

# The Cremona centres that perfbench's octad-pipeline stream draws at
# seed 1 for its heptads 1, 2 and 4.
SEED1_CENTERS = {1: "1,3,4,5", 2: "1,2,5,6", 4: "2,5,6,8"}
COLLINEAR = [(1, i, 0, 0) for i in range(7)]


def _points(points) -> str:
    return "\n".join(",".join(map(str, p)) for p in points) + "\n"


FILES = {
    "klein.txt": "x^3*y + y^3*z + z^3*x\n",
    "fermat.txt": "x^4 + y^4 + z^4\n",
    "e510.txt": "x^4 + y^4 + z^4 + x^3*y + 2*x^3*z\n",
    "witness.txt": "(x^2 - y^2)^2 + z*(x^3 + y^3 + z^3)\n",
    "corrected.txt": "(x^2 - y^2)^2 + z*(x^3 + 2*y^3 + z^3)\n",
    "pencil.txt": "x^4 + y^4 + z^4 + a*(x^2*y^2 - 3*x*y*z^2)\n",
    # every one of the 15 quartic coefficients nonzero in Q0 and in Q1
    "dense-pencil.txt": ("x^4 + 2*x^3*y - 1/2*x^3*z + 3/4*x^2*y^2 + 5*x^2*y*z - 2/3*x^2*z^2"
                         " + 7*x*y^3 - x*y^2*z + 1/5*x*y*z^2 + 3*x*z^3 + 2/7*y^4 - 4*y^3*z"
                         " + 6/5*y^2*z^2 - y*z^3 + 3/2*z^4\n"
                         "+ a*(2/3*x^4 - x^3*y + 4*x^3*z - 5/2*x^2*y^2 + x^2*y*z + 3*x^2*z^2"
                         " - 1/3*x*y^3 + 2*x*y^2*z - 7/4*x*y*z^2 + x*z^3 + y^4 + 3/5*y^3*z"
                         " - 2*y^2*z^2 + 5/6*y*z^3 - z^4)\n"),
    "two-parameter-pencil.txt": ("x^4 + y^4 + z^4 + a*(x^2*y^2 - 3*x*y*z^2 + 1/2*y^3*z)\n"
                                 "+ b*(2/3*x^3*z - y^2*z^2 + 5/4*x*y^3 - x*y*z^2 + 1/3*z^4)\n"),
    "commented.txt": "# Klein quartic\nx^3*y + y^3*z  # two terms\n+ z^3*x\n",
    "cubic.txt": "x^3\n",
    "fourth-power.txt": "x^4\n",
    "unparsable.txt": "x^\n",
    "standard.txt": _points(STANDARD_HEPTAD),
    "standard8.txt": _points(STANDARD_HEPTAD + [(121, -22, -15, -11)]),
    "twisted.txt": _points(TWISTED_CUBIC),
    "coplanar.txt": _points(COPLANAR),
    "collinear.txt": _points(COLLINEAR),
    "short.txt": _points(SIMPLEX[:2]),
    "badpoint.txt": "1,0,0,0\n0,1,0\n",
    **{f"seed1-heptad{k}.txt": _points(pts) for k, pts in SEED1_HEPTADS.items()},
}

OCTAD_ACTIONS = ("check", "net", "hessian", "eighth", "bitangents", "gale")


def _octad_commands(path, center):
    return ([["octad", action, path] for action in OCTAD_ACTIONS]
            + [["octad", "cremona", path, "--center", center]])


def commands() -> list:
    out = []
    for name in ("klein", "fermat", "e510", "witness", "corrected", "commented"):
        out.append(["covariants", f"{name}.txt"])
    out += [
        ["--format", "text", "covariants", "klein.txt"],
        ["covariants", "pencil.txt"],
        ["covariants", "dense-pencil.txt"],
        ["covariants", "two-parameter-pencil.txt"],
        ["j", "fermat.txt", "--point", "1,2,3"],
        ["j", "fermat.txt", "--point", "1,1,1"],
        ["j", "klein.txt", "--point", "0,0,1"],
        ["j", "witness.txt", "--point", "0,0,1"],
        ["j", "corrected.txt", "--point", "0,0,1"],
        ["j", "e510.txt", "--point", "1/2,-3,2"],
        ["--format", "text", "j", "e510.txt", "--point", "1,0,1"],
    ]
    out += _octad_commands("standard.txt", "1,2,3,4")
    out += [
        ["octad", "cremona", "standard.txt", "--center", "5,6,7,8"],
        ["octad", "cremona", "standard.txt", "--center", "1,6,7,8"],
        ["--format", "text", "octad", "eighth", "standard.txt"],
        ["--format", "text", "octad", "check", "standard.txt"],
        ["octad", "bitangents", "standard8.txt"],
        ["octad", "gale", "standard8.txt"],
        ["octad", "cremona", "standard8.txt", "--center", "2,3,5,8"],
    ]
    for k, center in SEED1_CENTERS.items():
        out += _octad_commands(f"seed1-heptad{k}.txt", center)
    out += _octad_commands("twisted.txt", "1,2,3,4")
    for action in ("check", "eighth"):
        out += [["octad", action, "coplanar.txt"], ["octad", action, "collinear.txt"]]
    out += [
        ["theta", "count"],
        ["theta", "aronhold"],
        ["theta", "aronhold", "--list"],
        ["--format", "text", "theta", "count"],
    ]
    for lam in ("3", "0", "1/2", "-3", "8", "-1", "2", "symbolic"):
        out.append(["s4", "--lambda", lam])
    out.append(["--format", "text", "s4", "--lambda", "3"])
    out += [  # parse and input errors
        ["covariants", "cubic.txt"],
        ["covariants", "fourth-power.txt"],
        ["covariants", "unparsable.txt"],
        ["covariants", "missing.txt"],
        ["j", "fermat.txt", "--point", "1,2"],
        ["j", "fermat.txt", "--point", "1,x,2"],
        ["j", "pencil.txt", "--point", "1,2,3"],
        ["j", "fermat.txt"],
        ["octad", "check", "short.txt"],
        ["octad", "check", "badpoint.txt"],
        ["octad", "eighth", "standard8.txt"],
        ["octad", "cremona", "standard.txt"],
        ["octad", "cremona", "standard.txt", "--center", "1,2,x,4"],
        ["octad", "cremona", "standard.txt", "--center", "1,1,2,3"],
        ["octad", "cremona", "standard.txt", "--center", "1,2,3,4,4"],
        ["octad", "bogus", "standard.txt"],
        ["theta", "bogus"],
        ["s4", "--lambda", "one"],
        ["--format", "xml", "theta", "count"],
        ["--jobs", "2", "theta", "count"],
        ["--seed", "3", "octad", "check", "standard.txt"],
        ["-v", "theta", "count"],
        [],
    ]
    out += [["--help"], ["covariants", "--help"], ["j", "--help"], ["octad", "--help"],
            ["theta", "--help"], ["s4", "--help"]]
    return out


@contextlib.contextmanager
def _environment(workdir):
    saved_cwd = os.getcwd()
    saved_columns = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    os.chdir(workdir)
    try:
        yield
    finally:
        os.chdir(saved_cwd)
        if saved_columns is None:
            os.environ.pop("COLUMNS", None)
        else:
            os.environ["COLUMNS"] = saved_columns


def write_files(workdir, files=FILES):
    for name, text in files.items():
        with open(os.path.join(workdir, name), "w") as handle:
            handle.write(text)


def run_command(argv, workdir):
    """(exit code, stdout, stderr) of ``cli.main(argv)`` run in ``workdir``."""
    from quartic_cones.cli import main

    out, err = io.StringIO(), io.StringIO()
    with _environment(workdir), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as done:  # argparse: --help and usage errors
            code = done.code
    return code, out.getvalue(), err.getvalue()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def record(argv, workdir) -> dict:
    code, out, err = run_command(argv, workdir)
    return {"argv": list(argv), "exit": code,
            "stdout_sha256": digest(out), "stderr_sha256": digest(err)}


def main() -> int:
    with tempfile.TemporaryDirectory() as workdir:
        write_files(workdir)
        entries = [record(argv, workdir) for argv in commands()]
    with open(CORPUS, "w") as handle:
        json.dump({"files": FILES, "commands": entries}, handle, indent=1)
        handle.write("\n")
    codes = [e["exit"] for e in entries]
    print(f"{len(entries)} commands: " + ", ".join(
        f"{codes.count(c)} exit {c}" for c in sorted(set(codes))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
