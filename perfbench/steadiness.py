"""Repeat the benchmark over seeds 1-10 and report each metric's spread.

    python3 perfbench/steadiness.py --workload octad-pipeline

Each run is ``run.py`` in a fresh interpreter with its own ``--seed`` and
the ``run_seconds`` of ``BENCHMARK.json``.  For
every end-to-end metric it prints the median of the runs and the spread:
the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound from ``BENCHMARK.json``.  A spread under a third of the
bound is marked ``ok``.  ``--record FILE`` appends the figures to a JSON
list.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else float("inf")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--record", help="JSON file to append the figures to")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {name: [] for name in bounds}
    started = time.time()
    for seed in SEEDS:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, cwd=ROOT)
        result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else {}
        if not result.get("correct"):
            sys.stderr.write(f"seed {seed}: run failed\n{proc.stderr[-2000:]}\n")
            return 1
        for name in values:
            values[name].append(result["metrics"][name]["value"])
    rows = []
    for name, vals in values.items():
        share = spread(vals)
        rows.append({"metric": name, "median": statistics.median(vals), "spread": share,
                     "bound": bounds[name], "ok": share < bounds[name] / 3, "values": vals})
        print(f"{args.workload:<18} {name:<12} median {statistics.median(vals):<10.5g} "
              f"spread {share:6.3f}  bound {bounds[name]:.3f}  "
              f"{'ok' if rows[-1]['ok'] else 'WIDE'}")
    if args.record:
        record = []
        if os.path.exists(args.record):
            with open(args.record) as handle:
                record = json.load(handle)
        record.append({"workload": args.workload, "seconds": seconds,
                       "seeds": [SEEDS[0], SEEDS[-1]],
                       "wall_s": round(time.time() - started, 1), "metrics": rows})
        with open(args.record, "w") as handle:
            json.dump(record, handle, indent=1)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
