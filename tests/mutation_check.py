"""Mutation check: does tier-1 fail when the kernel is wrong?

    python3 tests/mutation_check.py [NAME ...]

Copies ``src/`` to a temporary directory, then for each mutant in
``MUTANTS`` (or only those named on the command line) applies one
single-site string replacement to a fresh copy and runs the mutant's test
files, one pytest process at a time, with ``PYTHONPATH`` and pytest's
``pythonpath`` pointing at the copy.  A mutant is killed when one of its
files fails; the remaining files are then skipped.  Before any mutant,
the unmutated copy must pass every file the mutants name.

Prints one line per mutant and the survivors, and exits 1 if any mutant
survives (2 if a replacement does not match exactly once or the
unmutated copy fails).  The file name does not match ``test_*``, so
pytest does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TESTS = os.path.join(ROOT, "tests")

POLYCORE = "quartic_cones/polycore.py"
OCTAD = "quartic_cones/octad.py"
COVARIANTS = "quartic_cones/covariants.py"

RESULTANT_TESTS = ("test_polycore.py", "test_oracles.py", "test_cli_corpus.py")

# (name, file under src/, old text, new text, test files); each old text
# must occur exactly once in its file.
MUTANTS = (
    # the hybrid resultant: _bezoutian_rows and macaulay_resultant_ternary
    ("resultant: no x^d, y^d, z^d normalisation", POLYCORE,
     "for fs in (forms, [Poly.var(v) ** d for v in vs]))", "for fs in (forms,))",
     RESULTANT_TESTS),
    ("resultant: y-prefix of delta dropped", POLYCORE,
     "                key += a * v\n", "", RESULTANT_TESTS),
    ("resultant: integer scale dropped", POLYCORE,
     "        scale *= s\n", "", RESULTANT_TESTS),
    ("resultant: permutation sign dropped", POLYCORE,
     "times(second[p], third[q], {}), -1)", "times(second[p], third[q], {}), 1)",
     RESULTANT_TESTS),
    ("resultant: one divided-difference term dropped", POLYCORE,
     "for k in range(a):", "for k in range(1, a):", RESULTANT_TESTS),
    ("resultant: y-degree pruned one too low", POLYCORE,
     "if (k := k1 + k2) >> top < d:", "if (k := k1 + k2) >> top < d - 1:",
     RESULTANT_TESTS),
    ("resultant: Sylvester shifts of degree d - 1", POLYCORE,
     "for f in fs for e in _monomials_of_degree(vs, d - 2)]",
     "for f in fs for e in _monomials_of_degree(vs, d - 1)]", RESULTANT_TESTS),
    # the rest of the kernel
    ("_bareiss: row swap keeps the sign", POLYCORE,
     "            sign = -sign\n", "", ("test_polycore.py", "test_oracles.py")),
    ("_integer_rows: row scales not multiplied", POLYCORE,
     "        scale *= row_scale\n", "", ("test_polycore.py", "test_oracles.py")),
    ("_divide: remainder doubled", POLYCORE,
     "Poly._make(rem, variables)", "Poly._make(rem, variables) * 2",
     ("test_polycore.py", "test_oracles.py")),
    ("_divide: divisor's tail added to the remainder", POLYCORE,
     "(_mono_mul(m, mono), c * v)", "(_mono_mul(m, mono), -c * v)",
     ("test_polycore.py", "test_oracles.py")),
    ("is_perfect_square: root term not halved", POLYCORE,
     "rem[m] / (2 * root_c)", "rem[m] / root_c", ("test_polycore.py", "test_octad.py")),
    ("is_perfect_square: t*t not subtracted", POLYCORE,
     "        products.append((_mono_mul(t_mono, t_mono), c * c))\n", "",
     ("test_polycore.py", "test_octad.py")),
    ("rational_roots: each root taken once", POLYCORE,
     "while len(current) > 1 and _dense_eval(current, r) == 0:",
     "if len(current) > 1 and _dense_eval(current, r) == 0:",
     ("test_polycore.py", "test_oracles.py")),
    ("j_of_values: factor 4 dropped", COVARIANTS,
     "return 1728 * 4 * a ** 3 / disc", "return 1728 * a ** 3 / disc",
     ("test_covariants.py", "test_cli_corpus.py")),
    ("binary_invariants: h2's b0 b4 term doubled", COVARIANTS,
     "12 * b0 * b4", "24 * b0 * b4", ("test_oracles.py",)),
    # the Aronhold verdict
    ("hessian_quartic: smooth when the resultant vanishes", OCTAD,
     "HessianQuartic(quartic, res != 0, res)", "HessianQuartic(quartic, res == 0, res)",
     ("test_octad.py", "test_correspondence.py")),
    ("eighth_point: verdict ignores smoothness", OCTAD,
     "dimension == 3 and smooth", "dimension == 3", ("test_octad.py",)),
    # the integer sweep: QuadricNet's entries and determinant_on_line
    ("QuadricNet: every entry taken as its numerator", OCTAD,
     "f.numerator if (f := Fraction(v)).denominator == 1 else f",
     "(f := Fraction(v)).numerator", ("test_octad.py", "test_oracles.py")),
    ("determinant_on_line: the * b update dropped", OCTAD,
     "[a * u + b * v for u, v in", "[a * u + v for u, v in",
     ("test_octad.py", "test_oracles.py")),
    ("determinant_on_line: p and q swapped", OCTAD,
     'forms = dict(zip("xyz", zip(p, q)))', 'forms = dict(zip("xyz", zip(q, p)))',
     ("test_octad.py", "test_oracles.py")),
)


def run_tests(src: str, files) -> str | None:
    """The first of ``files`` that fails against the package in ``src``, or None."""
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    for name in files:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             "-o", f"pythonpath={src}", os.path.join(TESTS, name)],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        if done.returncode != 0:
            return name
    return None


def fresh_copy(tmp: str) -> str:
    src = os.path.join(tmp, "src")
    shutil.rmtree(src, ignore_errors=True)
    shutil.copytree(os.path.join(ROOT, "src"), src,
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return src


def main(argv) -> int:
    chosen = [m for m in MUTANTS if not argv or m[0] in argv]
    with tempfile.TemporaryDirectory(prefix="mutation-check-") as tmp:
        src = fresh_copy(tmp)
        failed = run_tests(src, sorted({name for m in chosen for name in m[4]}))
        if failed is not None:
            print(f"the unmutated copy fails {failed}")
            return 2
        survivors = []
        for name, path, old, new, files in chosen:
            src = fresh_copy(tmp)
            target = os.path.join(src, path)
            with open(target) as handle:
                text = handle.read()
            if text.count(old) != 1:
                print(f"{name}: the replacement matches {text.count(old)} times in {path}")
                return 2
            with open(target, "w") as handle:
                handle.write(text.replace(old, new))
            start = perf_counter()
            killer = run_tests(src, files)
            took = perf_counter() - start
            if killer is None:
                survivors.append(name)
                print(f"SURVIVED  {name}  ({took:.0f} s)")
            else:
                print(f"killed    {name}  by {killer}  ({took:.0f} s)")
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} mutants killed")
    for name in survivors:
        print(f"survivor: {name}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
