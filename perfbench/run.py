"""Benchmark for the quartic-cones CLI.

    python3 perfbench/run.py --workload quartic-scan --seed 1 --seconds 30 --trace 0

Run from a checkout of the repository; the program is taken from ``src/``.

``--trace 0`` drives the CLI as a user does: a closed loop with one
client, where each job is a fresh interpreter running one subcommand on
generated input files.  Cycles of jobs are started until the jobs' summed
wall time reaches ``--seconds``, and the last cycle is finished.  Input
generation and output checking are not timed.  It reports the end-to-end metrics.

``--trace 1`` runs a fixed list of jobs in-process through ``cli.main``:
the first ``TRACE_CYCLES[workload]`` cycles of the seed's job stream,
whatever ``--seconds`` says, so that two versions of the program are traced
on the same jobs.  Every public function of each module is wrapped in a
span (see ``tracer.py``); the same jobs then run again without spans, and
it reports the per-layer metrics and the tracing overhead.

Every job's output is checked by ``oracle.py``.  The last line of stdout
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--workload all`` runs every workload in turn and prints
one JSON object keyed by workload instead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from time import perf_counter

import tracer
from oracle import Oracle
from workloads import STANDARD_HEPTAD, WORKLOADS, job_stream

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
CLI = [sys.executable, "-m", "quartic_cones.cli"]
WARMUP_RUNS = 5
SETUP_RUNS = 15
JOB_TIMEOUT_S = 60
PARALLEL_JOBS = 2
# Nearest-rank percentile reported as job_s_tail, fixed per workload so
# that every run reports the same one.  On quartic-scan and
# pencil-covariants about ten jobs lie beyond it (about 40 and 60 jobs in a
# 30 s run).  octad-pipeline fits only two 12-job cycles, where ten jobs
# beyond would mean the median; p90 there is the lower median of the
# bitangent jobs, the slowest kind, for up to four cycles.
TAIL_PERCENTILE = {"quartic-scan": 75, "pencil-covariants": 80, "octad-pipeline": 90}
# Cycles of the job stream that --trace 1 runs, the fixed first cycle
# included; on octad-pipeline the standard (simplex) heptad and a random one.
TRACE_CYCLES = {"quartic-scan": 4, "pencil-covariants": 7, "octad-pipeline": 1}

END_TO_END = (
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_s_p50", "s"),
    ("job_s_tail", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
)


class JobTimeout(Exception):
    pass


def program_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.pop("QUARTIC_CONES_FORMAT", None)
    return env


def time_help(env):
    """Wall time of one ``--help`` run: interpreter start, import, argparse."""
    start = perf_counter()
    proc = subprocess.run(CLI + ["--help"], env=env, capture_output=True, text=True,
                          timeout=JOB_TIMEOUT_S, cwd=ROOT)
    elapsed = perf_counter() - start
    if proc.returncode != 0 or "usage" not in proc.stdout:
        raise RuntimeError(f"the CLI does not start: {proc.stderr.strip()[-500:]}")
    return elapsed


def tail(times, percentile):
    """Nearest-rank ``percentile`` of ``times``."""
    ordered = sorted(times)
    return ordered[max(1, math.ceil(percentile * len(ordered) / 100)) - 1]


class Loop:
    """Run job cycles until the jobs' summed wall time reaches a budget.

    A cycle once started is finished, so every run has the same job mix.
    """

    def __init__(self):
        self.oracle = Oracle()
        self.jobs, self.times, self.outputs, self.failures = [], [], [], []

    def run(self, cycles, seconds, execute, before_job=lambda: None):
        for cycle in cycles:
            if sum(self.times) >= seconds:
                return
            for job in cycle:
                before_job()
                self.record(job, execute)

    def record(self, job, execute):
        code, stdout, elapsed = execute(job)
        self.jobs.append(job)
        self.times.append(elapsed)
        self.outputs.append((code, stdout))
        problems = self.oracle.problems(job, code, stdout)
        if problems:
            self.failures.append({"job": job.label(), "problems": problems[:3]})

    def result(self, metrics):
        attempted = len(self.jobs)
        return {"correct": not self.failures, "attempted": attempted,
                "failed": len(self.failures),
                "metrics": {name: {"value": value, "unit": unit}
                            for name, (value, unit) in metrics.items()}}


def subprocess_job(env):
    def execute(job):
        start = perf_counter()
        try:
            proc = subprocess.run(CLI + job.argv, env=env, capture_output=True, text=True,
                                  timeout=JOB_TIMEOUT_S, cwd=ROOT)
            code, stdout = proc.returncode, proc.stdout
        except subprocess.TimeoutExpired:
            code, stdout = None, ""
        return code, stdout, perf_counter() - start
    return execute


def _alarm(signum, frame):
    raise JobTimeout()


def inprocess_job(cli):
    """Run ``cli.main`` on a job's argv, capturing stdout; time-limited by SIGALRM."""
    def execute(job):
        out, err = io.StringIO(), io.StringIO()
        previous = signal.signal(signal.SIGALRM, _alarm)
        signal.setitimer(signal.ITIMER_REAL, JOB_TIMEOUT_S)
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(job.argv))
        except SystemExit as exit_:
            code = exit_.code
        except JobTimeout:
            code = None
        finally:
            elapsed = perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        return code, out.getvalue(), elapsed
    return execute


def end_to_end(workload, seed, seconds, workdir):
    """Closed loop over fresh CLI processes.

    ``setup_s`` is the median of SETUP_RUNS ``--help`` runs spread evenly
    over the loop, so it sees the same machine as the jobs; the first
    WARMUP_RUNS are untimed (bytecode compilation, CPU leaving idle).
    """
    env = program_env()
    for _ in range(WARMUP_RUNS):
        time_help(env)
    setup, loop = [], Loop()

    def sample_setup():
        while len(setup) < SETUP_RUNS and len(setup) <= SETUP_RUNS * sum(loop.times) / seconds:
            setup.append(time_help(env))

    loop.run(job_stream(workload, seed, workdir), seconds, subprocess_job(env), sample_setup)
    setup_s = statistics.median(setup)
    rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    values = {
        "setup_s": setup_s,
        "jobs_per_s": len(loop.times) / sum(loop.times),
        "job_s_p50": statistics.median(loop.times),
        "job_s_tail": tail(loop.times, TAIL_PERCENTILE[workload]),
        "peak_rss_mb": rss_kb / 1024,
        "ok_ratio": 1 - len(loop.failures) / len(loop.jobs),
    }
    by_kind = {}
    for job, elapsed in zip(loop.jobs, loop.times):
        by_kind.setdefault(job.kind, []).append(round(elapsed, 4))
    detail = {"workload": workload, "seed": seed, "jobs": len(loop.jobs),
              "job_s_tail_percentile": TAIL_PERCENTILE[workload], "job_s_by_kind": by_kind,
              "fail_ratio": len(loop.failures) / len(loop.jobs),
              "failures": loop.failures}
    return loop.result({name: (values[name], unit) for name, unit in END_TO_END}), detail


def _timed(fn, *args, **kwargs):
    start = perf_counter()
    result = fn(*args, **kwargs)
    return perf_counter() - start, result


def parallel_totals(failures):
    """Untraced all_bitangents and aronhold_enumerate on the standard heptad, jobs=1 and 2.

    The pools never get more workers than there are CPUs.
    """
    from quartic_cones import octad, theta

    workers = min(PARALLEL_JOBS, os.cpu_count() or 1)
    net = octad.net_from_heptad(STANDARD_HEPTAD)
    oc = octad.eighth_point(net, rng=random.Random(0))
    totals = {}
    for label, jobs in (("jobs1_s", 1), ("jobs2_s", workers)):
        elapsed, certs = _timed(octad.all_bitangents, oc, net, jobs=jobs)
        totals[f"octad.all_bitangents.{label}"] = (elapsed, "s")
        if len(certs) != 28:
            failures.append({"job": f"all_bitangents jobs={jobs}", "problems": ["not 28"]})
        elapsed, systems = _timed(theta.aronhold_enumerate, "list", jobs=jobs)
        totals[f"theta.aronhold_enumerate.{label}"] = (elapsed, "s")
        if len(systems) != 288:
            failures.append({"job": f"aronhold_enumerate jobs={jobs}", "problems": ["not 288"]})
    return totals


def per_layer(workload, seed, workdir):
    sys.path.insert(0, SRC)
    from quartic_cones import cli

    cycles = itertools.islice(job_stream(workload, seed, workdir), TRACE_CYCLES[workload])
    jobs = list(itertools.chain.from_iterable(cycles))
    spans = tracer.Tracer()
    loop = Loop()
    spans.install()
    try:
        for job in jobs:
            loop.record(job, inprocess_job(cli))
    finally:
        spans.uninstall()
    untraced = Loop()
    for job in jobs:
        untraced.record(job, inprocess_job(cli))
    metrics = spans.metrics()
    metrics["trace.untraced_s"] = (sum(untraced.times), "s")
    metrics["trace.overhead_s"] = (sum(loop.times) - sum(untraced.times), "s")
    if workload == "octad-pipeline":
        metrics.update(parallel_totals(loop.failures))
    else:  # these layers are not exercised here
        metrics.update({name: (0.0, unit) for name, unit in tracer.PARALLEL_METRICS})
    loop.failures += untraced.failures
    loop.failures += [{"job": job.label(), "problems": ["stdout differs without tracing"]}
                      for job, a, b in zip(loop.jobs, loop.outputs, untraced.outputs) if a != b]
    detail = {"workload": workload, "seed": seed, "jobs": len(loop.jobs),
              "failures": loop.failures}
    return loop.result({name: metrics[name] for name, _ in tracer.PER_LAYER}), detail


def run_workload(workload, seed, seconds, trace):
    workdir = os.path.join(WORK, f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if trace:
            return per_layer(workload, seed, workdir)
        return end_to_end(workload, seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)


def summary(result, detail):
    lines = [f"{detail['workload']} seed {detail['seed']}: {result['attempted']} jobs, "
             f"{result['failed']} failed"]
    for name, metric in result["metrics"].items():
        lines.append(f"  {name:<48} {metric['value']:>14.6g} {metric['unit']}")
    if "job_s_tail_percentile" in detail:
        lines.append(f"  job_s_tail is percentile p{detail['job_s_tail_percentile']}")
    for failure in detail["failures"]:
        lines.append(f"  FAILED {failure['job']}: {'; '.join(failure['problems'])}")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "quartic_cones", "cli.py")):
        sys.stderr.write(f"no program to measure: {SRC}/quartic_cones is missing\n")
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in workloads:
        result, detail = run_workload(workload, args.seed, args.seconds, args.trace)
        sys.stderr.write(summary(result, detail) + "\n")
        print(json.dumps(detail))
        results[workload] = result
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
