"""The benchmark harness in perfbench/ calls the package by name; keep those names.

perfbench/tracer.py wraps every function listed in its SPANS table, reads
PolyMatrix.n and counts Poly.__init__ calls (ring results built by the
trusted Poly._make are not counted), perfbench/run.py and perfbench/baselines.py call
all_bitangents and aronhold_enumerate with jobs=2 (a keyword both accept
and ignore: they run serially), and they (with perfbench/selftest.py) pass
eighth_point an rng and a check.  These tests only read perfbench/.
"""

import inspect
import os
import types

import pytest

from quartic_cones import cli, octad, polycore, theta

from make_cli_corpus import FILES

TRACER_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "perfbench", "tracer.py")


def load_tracer():
    # exec instead of import, so no bytecode is written into perfbench/
    module = types.ModuleType("perfbench_tracer")
    with open(TRACER_PATH) as handle:
        exec(compile(handle.read(), TRACER_PATH, "exec"), module.__dict__)
    return module


def test_every_spanned_name_exists():
    tracer = load_tracer()
    spans = tracer.Tracer()
    try:
        spans.install()  # a spanned name that is gone raises here
        x = polycore.Poly.var("x")
        polycore.PolyMatrix([[x, 1], [1, x]]).det()
    finally:
        spans.uninstall()
    assert not hasattr(octad.det_fraction, "__wrapped__")
    metrics = spans.metrics()
    assert metrics["polycore.PolyMatrix.det.calls"][0] == 1
    assert metrics["polycore.PolyMatrix.det_bareiss.n3_sum"][0] == 8


def test_scalar_certificate_runs_through_a_spanned_name():
    # a certificate with rational coefficients must show up as det_fraction
    # spans (the hybrid matrix and its x^3, y^3, z^3 normalisation), not as
    # polynomial Bareiss or a private alias
    tracer = load_tracer()
    spans = tracer.Tracer()
    x, y, z = (polycore.Poly.var(n) for n in "xyz")
    try:
        spans.install()
        polycore.macaulay_resultant_ternary(4 * x ** 3, 4 * y ** 3, 4 * z ** 3)
    finally:
        spans.uninstall()
    metrics = spans.metrics()
    assert metrics["polycore.det_fraction.calls"][0] == 2
    assert metrics["polycore.PolyMatrix.det_bareiss.calls"][0] == 0


def test_covariants_run_counts_products_and_public_constructions(capsys, tmp_path):
    # ring results skip Poly.__init__, which is all the tracer counts as
    # constructed; perfbench/selftest.py asserts that count stays positive
    path = tmp_path / "klein.txt"
    path.write_text("x^3*y + y^3*z + z^3*x\n")
    tracer = load_tracer()
    spans = tracer.Tracer()
    try:
        spans.install()
        assert cli.main(["covariants", str(path)]) == 0
    finally:
        spans.uninstall()
    capsys.readouterr()
    metrics = spans.metrics()
    assert metrics["polycore.Poly.mul.calls"][0] > 0
    assert metrics["polycore.Poly.constructed"][0] > 0


def test_scalar_products_reach_the_spanned_method():
    # one product kernel: the tracer spans Poly.__mul__, and 2 * p runs the same function
    assert polycore.Poly.__rmul__ is polycore.Poly.__mul__


def test_pencil_run_keeps_its_product_and_construction_counts(capsys, tmp_path):
    """``covariants pencil.txt`` makes 158 Poly products and 190 public constructions.

    A Poly is its terms, so no step (the parser, ``covariants``,
    ``ConeEquation``) rebuilds one to restore variables that its terms
    lack.  The covariant chain's products (h2 and h3 from b, the dual
    curve from g4 and g6) run on packed values, which are not Polys: they
    count as ``covariants.covariants`` and ``covariants.dual_curve`` self
    time, and neither as ``Poly.mul`` calls nor, for their scalar factors,
    as constructions.  Every other product must still reach the
    ``Poly.mul`` span, and no ring result may be built through
    ``Poly.__init__``, which the tracer counts as ``Poly.constructed``.
    """
    path = tmp_path / "pencil.txt"
    path.write_text(FILES["pencil.txt"])
    tracer = load_tracer()
    spans = tracer.Tracer()
    try:
        spans.install()
        assert cli.main(["covariants", str(path)]) == 0
    finally:
        spans.uninstall()
    capsys.readouterr()
    metrics = spans.metrics()
    assert metrics["polycore.Poly.mul.calls"][0] == 158
    assert metrics["polycore.Poly.constructed"][0] == 190


@pytest.mark.parametrize("entry", [octad.all_bitangents, theta.aronhold_enumerate])
def test_parallel_entry_points_take_jobs(entry):
    assert "jobs" in inspect.signature(entry).parameters


def test_jobs_keyword_starts_no_pool(monkeypatch, standard_net, standard_octad):
    import multiprocessing
    import multiprocessing.pool

    def no_pool(*args, **kwargs):
        raise AssertionError("no process pool may be started")

    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    monkeypatch.setattr(multiprocessing.pool, "Pool", no_pool)
    assert (octad.all_bitangents(standard_octad, standard_net, jobs=2)
            == octad.all_bitangents(standard_octad, standard_net))
    assert theta.aronhold_enumerate("list", jobs=2) == theta.aronhold_enumerate("list")


def test_eighth_point_takes_rng_and_check():
    parameters = inspect.signature(octad.eighth_point).parameters
    assert "rng" in parameters and "check" in parameters


def test_polycore_stays_under_the_compile_peak_step():
    """polycore.py must stay under 8,000 AST nodes.

    Each fresh CLI job compiles polycore.py (the benchmark runs without a
    bytecode cache), and that compile sets quartic-scan's ``peak_rss_mb``.
    The compile peak steps up by about half a megabyte once the module's
    AST passes roughly 8,040 nodes (CHANGES.md, the FOUND line on
    polycore.py's compile peak; its probe is ``python3 -c "import resource;
    compile(open('src/quartic_cones/polycore.py').read(), 'x', 'exec');
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)"``).
    Kernels that only one pipeline needs belong in that pipeline's module.
    """
    import ast

    with open(polycore.__file__) as handle:
        nodes = sum(1 for _ in ast.walk(ast.parse(handle.read())))
    assert nodes < 8000, f"polycore.py has {nodes} AST nodes, the bound is 8,000"
