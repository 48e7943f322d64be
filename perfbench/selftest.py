"""The benchmark's own tests.

    python3 perfbench/selftest.py

They check that a tiny run of each workload emits every metric named in
BENCHMARK.json and starts no more processes at once than there are CPUs,
that the oracle rejects a corrupted coefficient, that the span wrappers
count calls made through names other modules imported from polycore, that
the job streams depend only on the seed, and that the runner refuses to
run without the program.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import multiprocessing.pool
import os
import re
import shutil
import subprocess
import sys
import unittest
from unittest import mock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from oracle import Oracle  # noqa: E402


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


class CountingPopen(subprocess.Popen):
    """Popen that tracks how many children are alive at once."""

    alive = 0
    peak = 0

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._counted = True
        CountingPopen.alive += 1
        CountingPopen.peak = max(CountingPopen.peak, CountingPopen.alive)

    def wait(self, timeout=None):
        code = super().wait(timeout)
        if getattr(self, "_counted", False):
            self._counted = False
            CountingPopen.alive -= 1
        return code


class WorkDir:
    def __init__(self, name):
        self.path = os.path.join(run.WORK, f"selftest-{name}-{os.getpid()}")

    def __enter__(self):
        os.makedirs(self.path)
        return self.path

    def __exit__(self, *exc):
        shutil.rmtree(self.path, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(run.WORK)


def run_cli(argv):
    from quartic_cones import cli

    return run.inprocess_job(cli)(workloads.Job("test", list(argv)))


class TestContract(unittest.TestCase):
    def test_benchmark_json_matches_runner(self):
        bench = load_benchmark()
        self.assertEqual(set(bench), {"command", "paths", "run_seconds", "workloads",
                                      "end_to_end", "per_layer"})
        self.assertEqual([w["name"] for w in bench["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in bench["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in bench["per_layer"]],
                         list(tracer.PER_LAYER))
        bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(max(bounds.values()), bounds["setup_s"])
        self.assertLessEqual(len(bench["per_layer"]), 128)

    def test_tiny_runs_emit_every_metric_within_nproc(self):
        bench = load_benchmark()
        names = {0: [m["name"] for m in bench["end_to_end"]],
                 1: [m["name"] for m in bench["per_layer"]]}
        pool_sizes = []
        pool_init = multiprocessing.pool.Pool.__init__

        def counting_pool_init(pool, processes=None, *args, **kwargs):
            pool_sizes.append(processes)
            pool_init(pool, processes, *args, **kwargs)

        CountingPopen.peak = 0
        first_cycle = dict.fromkeys(workloads.WORKLOADS, 1)
        with mock.patch.object(subprocess, "Popen", CountingPopen), \
                mock.patch.object(multiprocessing.pool.Pool, "__init__", counting_pool_init), \
                mock.patch.dict(run.TRACE_CYCLES, first_cycle):
            for workload, trace in itertools.product(workloads.WORKLOADS, (0, 1)):
                with self.subTest(workload=workload, trace=trace):
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out), \
                            contextlib.redirect_stderr(io.StringIO()):
                        code = run.main(["--workload", workload, "--seed", "7",
                                         "--seconds", "0.5", "--trace", str(trace)])
                    self.assertEqual(code, 0)
                    result = json.loads(out.getvalue().strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], out.getvalue())
                    self.assertGreaterEqual(result["attempted"], 1)
                    if trace:  # the fixed first cycle, whatever --seconds says
                        with WorkDir("cycle") as work:
                            head = next(workloads.job_stream(workload, 7, work))
                        self.assertEqual(result["attempted"], len(head))
                    self.assertEqual(list(result["metrics"]), names[trace])
        nproc = os.cpu_count() or 1
        self.assertGreaterEqual(CountingPopen.peak, 1)
        self.assertLessEqual(CountingPopen.peak, nproc)
        self.assertTrue(pool_sizes, "the octad workload measures the jobs=2 totals")
        self.assertLessEqual(max(pool_sizes), nproc)

    def test_refuses_to_run_without_the_program(self):
        with WorkDir("bare") as bare:
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                                   "quartic-scan", "--seed", "1", "--seconds", "1",
                                   "--trace", "0"], cwd=bare, capture_output=True,
                                  text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


class TestStreams(unittest.TestCase):
    def jobs(self, workload, seed, count, workdir):
        stream = itertools.chain.from_iterable(workloads.job_stream(workload, seed, workdir))
        jobs = list(itertools.islice(stream, count))
        texts = []
        for job in jobs:
            for arg in job.argv:
                if os.path.isabs(arg):
                    with open(arg) as handle:
                        texts.append(handle.read())
        return [job.label() for job in jobs], texts

    def test_same_seed_same_inputs(self):
        for workload in workloads.WORKLOADS:
            with WorkDir("a") as a:
                first = self.jobs(workload, 3, 20, a)
            with WorkDir("b") as b:
                second = self.jobs(workload, 3, 20, b)
            with WorkDir("c") as c:
                other = self.jobs(workload, 4, 20, c)
            self.assertEqual(first, second)
            self.assertNotEqual(first[1], other[1])

    def test_golden_inputs_lead_each_stream(self):
        with WorkDir("g") as g:
            labels, _ = self.jobs("quartic-scan", 9, 4, g)
            self.assertEqual([label.split("-", 1)[1] for label in labels],
                             ["klein.txt", "fermat.txt", "e510.txt", "witness.txt"])
            first = next(workloads.job_stream("octad-pipeline", 9, g))[0]
            self.assertEqual(first.expect["heptad"],
                             [list(p) for p in workloads.STANDARD_HEPTAD])


class TestOracle(unittest.TestCase):
    def check(self, job, code, stdout):
        oracle = Oracle()
        return oracle.problems(job, code, stdout)

    def test_rejects_one_corrupted_coefficient(self):
        with WorkDir("oracle") as work:
            stream = workloads.job_stream("quartic-scan", 11, work)
            golden, cycle = next(stream), next(stream)
            for job in (golden[0], cycle[0]):  # Klein, then a seeded dense quartic
                code, stdout, _ = run_cli(job.argv)
                self.assertEqual(self.check(job, code, stdout), [])
                report = json.loads(stdout)
                for key in ("g4", "g6", "dual_curve"):
                    bad = dict(report)
                    # bump the first printed coefficient by one
                    bad[key] = re.sub(r"\d+", lambda m: str(int(m.group()) + 1), report[key],
                                      count=1)
                    if bad[key] == report[key]:
                        bad[key] = "2*" + report[key]
                    with self.subTest(job=job.label(), key=key):
                        self.assertNotEqual(self.check(job, code, json.dumps(bad)), [])

    def test_rejects_wrong_exit_code_and_corrupted_bitangent(self):
        with WorkDir("octad") as work:
            check_job, _, bitangents_job = next(workloads.job_stream("octad-pipeline", 11,
                                                                     work))[:3]
            oracle = Oracle()
            code, stdout, _ = run_cli(check_job.argv)
            self.assertEqual(oracle.problems(check_job, code, stdout), [])
            code, stdout, _ = run_cli(bitangents_job.argv)
            self.assertEqual(oracle.problems(bitangents_job, code, stdout), [])
            self.assertNotEqual(oracle.problems(bitangents_job, 1, ""), [])
            report = json.loads(stdout)
            entry = report["entries"][5]
            entry["restriction"] = re.sub(r"\d+", lambda m: str(int(m.group()) + 1),
                                          entry["restriction"], count=1)
            self.assertNotEqual(oracle.problems(bitangents_job, code, json.dumps(report)), [])


class TestTracer(unittest.TestCase):
    def test_counts_calls_through_octad_imported_names(self):
        from quartic_cones import octad, polycore

        spans = tracer.Tracer()
        spans.install()
        try:
            self.assertIsNot(octad.det_fraction, polycore.det_fraction.__wrapped__)
            report = octad.aronhold_check(workloads.STANDARD_HEPTAD)
        finally:
            spans.uninstall()
        self.assertTrue(report.verdict)
        self.assertIs(octad.macaulay_resultant_ternary, polycore.macaulay_resultant_ternary)
        self.assertFalse(hasattr(octad.det_fraction, "__wrapped__"))
        metrics = spans.metrics()
        # aronhold_check calls det_fraction and macaulay_resultant_ternary by the
        # names octad imported from polycore
        self.assertGreaterEqual(metrics["polycore.det_fraction.calls"][0], 35)
        self.assertEqual(metrics["polycore.macaulay_resultant_ternary.calls"][0], 1)
        self.assertEqual(metrics["octad.hessian_quartic.calls"][0], 1)
        # the identity-frame Macaulay minor degenerates on the standard heptad
        self.assertGreaterEqual(metrics["polycore.macaulay_quotient.degenerate"][0], 1)
        self.assertGreater(metrics["polycore.Poly.constructed"][0], 0)
        total = metrics["octad.aronhold_check.total_s"][0]
        parts = sum(metrics[f"{name}.self_s"][0] for name in tracer.SPAN_NAMES)
        self.assertAlmostEqual(parts, total, delta=0.05 * total)

    def test_hessian_dets_counted_per_bitangent(self):
        import random

        from quartic_cones import octad

        net = octad.net_from_heptad(workloads.STANDARD_HEPTAD)
        eight = octad.eighth_point(net, rng=random.Random(0))
        spans = tracer.Tracer()
        spans.install()
        try:
            octad.all_bitangents(eight, net)
        finally:
            spans.uninstall()
        metrics = spans.metrics()
        self.assertEqual(metrics["octad.bitangent_line.calls"][0], 28)
        self.assertEqual(metrics["octad.bitangent_line.hessian_dets"][0], 28)


if __name__ == "__main__":
    unittest.main()
