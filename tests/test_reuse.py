"""Work that is computed once and reused, and process counts that stay bounded.

The Hessian quartic det(x A0 + y A1 + z A2) of a net, the line restriction
of a quartic, and the dual curve and cone of a covariant pair are each
built once per object.  Determinant calls are counted by patching
``PolyMatrix.det``.  Pools are replaced by a fake that records its size and
maps serially, so no test here starts a process; the sweeps are serial, so
every bound below holds with no pool at all.
"""

import multiprocessing
import multiprocessing.pool
import os

import pytest

from quartic_cones import covariants as cov
from quartic_cones import theta
from quartic_cones.cli import main
from quartic_cones.octad import (
    Octad,
    _line_basis,
    all_bitangents,
    hessian_quartic,
    net_from_heptad,
)
from quartic_cones.polycore import Poly, PolyMatrix

from conftest import STANDARD_HEPTAD


@pytest.fixture()
def det_calls(monkeypatch):
    calls = []
    det = PolyMatrix.det

    def counted(self):
        calls.append(self.n)
        return det(self)

    monkeypatch.setattr(PolyMatrix, "det", counted)
    return calls


class FakePool:
    """Records the size of every pool started and maps serially."""

    sizes = []

    def __init__(self, processes=None):
        FakePool.sizes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def starmap(self, fn, iterable):
        return [fn(*args) for args in iterable]

    def map(self, fn, iterable):
        return [fn(arg) for arg in iterable]


@pytest.fixture()
def fake_pool(monkeypatch):
    FakePool.sizes = []
    monkeypatch.setattr(multiprocessing, "Pool", FakePool)
    monkeypatch.setattr(multiprocessing.pool, "Pool", FakePool)
    return FakePool


def assert_capped(sizes, cap):
    """No pool of more than ``cap`` processes, and none at all if ``cap`` is None."""
    assert all(cap is not None and size <= cap for size in sizes), sizes


def fresh_octad(standard_octad):
    """A new net (nothing cached) and the standard octad on it."""
    net = net_from_heptad(STANDARD_HEPTAD)
    return Octad(standard_octad.points, net=net), net


def octad_file(tmp_path, octad):
    path = tmp_path / "octad.txt"
    path.write_text("\n".join(",".join(str(c) for c in p) for p in octad.points) + "\n")
    return str(path)


class TestHessianComputedOnce:
    def test_serial_sweep_computes_one_determinant(self, standard_octad, det_calls):
        octad, net = fresh_octad(standard_octad)
        certs = all_bitangents(octad, net)
        assert len(certs) == 28
        assert det_calls == [4]

    def test_hessian_quartic_reuses_the_sweep_determinant(self, standard_octad, det_calls):
        octad, net = fresh_octad(standard_octad)
        all_bitangents(octad, net)
        assert hessian_quartic(net).quartic is net.determinant
        assert det_calls == [4]

    def test_certificates_match_a_fresh_determinant(self, standard_net, standard_octad):
        fresh = net_from_heptad(STANDARD_HEPTAD).symbol_matrix().det()
        assert fresh == standard_net.determinant
        a1, a2 = Poly.var("a1"), Poly.var("a2")
        certs = all_bitangents(standard_octad, standard_net)
        assert len(certs) == 28
        for cert in certs:
            m1, m2 = _line_basis(cert.line)
            restriction = fresh.subs({v: a1 * m1[k] + a2 * m2[k]
                                      for k, v in enumerate("xyz")})
            assert cert.restriction == restriction
            assert cert.square_root * cert.square_root == restriction

    def test_cli_cremona_computes_two_determinants(self, capsys, tmp_path, standard_octad,
                                                   det_calls):
        path = octad_file(tmp_path, standard_octad)
        assert main(["octad", "cremona", path, "--center", "1,2,3,4"]) == 0
        assert '"hessian_scalar_equal": true' in capsys.readouterr().out
        assert len(det_calls) == 2


class TestComputedOncePerObject:
    def test_cli_covariants_restricts_once(self, capsys, tmp_path, monkeypatch):
        calls = []
        restrict = cov.line_restriction

        def counted(curve):
            calls.append(curve)
            return restrict(curve)

        monkeypatch.setattr(cov, "line_restriction", counted)
        path = tmp_path / "klein.txt"
        path.write_text("x^3*y + y^3*z + z^3*x\n")
        assert main(["covariants", str(path)]) == 0
        assert '"g4": "s^3*t + s*u^3 + t^3*u"' in capsys.readouterr().out
        assert len(calls) == 1

    def test_restriction_cross_check_still_runs(self, monkeypatch):
        curve = cov.QuarticCurve(Poly.var("x") ** 4 + Poly.var("y") ** 4 + Poly.var("z") ** 4)
        monkeypatch.setattr(cov, "comb", lambda n, k: 0)  # spoil the closed formula
        with pytest.raises(cov.InternalConsistencyError):
            cov.covariants(curve)

    def test_pair_builds_dual_curve_and_cone_once(self, monkeypatch):
        from quartic_cones import cone

        built = []
        dual_curve, cone_equation = cov.dual_curve, cone.cone_equation
        monkeypatch.setattr(cov, "dual_curve", lambda p: built.append("dual") or dual_curve(p))
        monkeypatch.setattr(cone, "cone_equation",
                            lambda p: built.append("cone") or cone_equation(p))
        x, y, z = (Poly.var(n) for n in "xyz")
        pair = cov.covariants(cov.QuarticCurve(x ** 4 + y ** 4 + z ** 4))
        for q in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
            with pytest.raises(cone.ConeError):
                cone.classify_and_lift(pair, q)  # Fermat: no singular dual points here
        assert built == ["dual"]
        assert pair.cone is pair.cone
        assert built == ["dual", "cone"]


class TestBoundedPools:
    """However large ``jobs`` is, at most min(cpu_count, 28) processes."""

    @pytest.mark.parametrize("cpus, expected", [(2, 2), (64, 28), (None, None)])
    def test_bitangent_pool_is_capped(self, standard_net, standard_octad, fake_pool,
                                      monkeypatch, cpus, expected):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        certs = all_bitangents(standard_octad, standard_net, jobs=100000)
        assert len(certs) == 28
        assert_capped(fake_pool.sizes, expected)

    @pytest.mark.parametrize("cpus, expected", [(2, 2), (64, 28), (1, None)])
    def test_aronhold_pool_is_capped(self, fake_pool, monkeypatch, cpus, expected):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert theta.aronhold_enumerate("count", jobs=100000) == 288
        assert_capped(fake_pool.sizes, expected)

    def test_cli_caps_huge_jobs(self, capsys, tmp_path, standard_octad, fake_pool,
                                monkeypatch):
        # --jobs is no longer an option: argparse refuses it before any work
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        path = octad_file(tmp_path, standard_octad)
        with pytest.raises(SystemExit) as exit_info:
            main(["--jobs", "100000", "octad", "bitangents", path])
        assert exit_info.value.code == 2
        assert capsys.readouterr().out == ""
        assert fake_pool.sizes == []

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_cli_rejects_jobs_below_one(self, capsys, fake_pool, jobs):
        with pytest.raises(SystemExit) as exit_info:
            main(["--jobs", jobs, "theta", "count"])
        assert exit_info.value.code == 2
        assert f"invalid choice: '{jobs}'" in capsys.readouterr().err
        assert fake_pool.sizes == []
