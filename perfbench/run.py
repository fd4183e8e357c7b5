#!/usr/bin/env python3
"""End-to-end benchmark of the PNW store (see NOTES.md).

Run from the repository root:

  python3 perfbench/run.py --workload cctv_ingest --seed 1 --trace 0

builds perfbench/ (and the pnw library from src/) into .bench_build/perfbench,
runs the statistics self-test, runs one benchmark run and prints its metrics;
the last stdout line is one JSON object:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
--trace 0 reports BENCHMARK.json's end_to_end metrics, --trace 1 its per_layer
metrics (the span file goes to .bench_build/traces/). Exits nonzero on a build
failure, an oracle or reconcile failure, or a metric set that differs from
BENCHMARK.json.

Steadiness report: run a workload (or "all") N times with seeds first..first+N-1
and print each end-to-end metric's median, quartiles, quartile spread and
maximum relative spread against its bound:

  python3 perfbench/run.py --workload all --steadiness 10 --seconds 10
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
WORK_DIR = os.path.join(".bench_build", "work")
TRACE_DIR = os.path.join(".bench_build", "traces")
BENCH = os.path.join(BUILD_DIR, "pnw_perfbench")
STATS_TEST = os.path.join(BUILD_DIR, "perfbench_stats_test")
TMP_DIR = os.path.join(".bench_build", "tmp")
RUN_TIMEOUT_S = 175


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def subprocess_env():
    """Keeps compiler and benchmark scratch files inside the checkout."""
    os.makedirs(TMP_DIR, exist_ok=True)
    return dict(os.environ, TMPDIR=os.path.abspath(TMP_DIR))


def build():
    """Configures (once) and builds the benchmark; returns True on success."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j4", "--target",
                  "pnw_perfbench", "perfbench_stats_test"])
    steps.append([STATS_TEST])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              env=subprocess_env())
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("perfbench: '%s' failed" % " ".join(cmd))
            return False
    return True


def check_metrics(result, spec, trace):
    """The result's metric names and units must be exactly the spec's."""
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        log("perfbench: metrics differ from BENCHMARK.json: missing %s, "
            "extra %s, unit mismatch %s" % (missing, extra, units))
        return False
    return True


def run_once(workload, seed, seconds, trace, spec, echo=True):
    """One benchmark run; returns (exit code, parsed result or None)."""
    os.makedirs(WORK_DIR, exist_ok=True)
    cmd = [BENCH, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--workdir", WORK_DIR]
    if trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(TRACE_DIR, "%s-seed%d.tsv" % (workload, seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, env=subprocess_env())
    except subprocess.TimeoutExpired:
        log("perfbench: %s seed %d timed out" % (workload, seed))
        return 1, None
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log("perfbench: pnw_perfbench printed nothing (exit %d)"
            % proc.returncode)
        return proc.returncode or 1, None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log("perfbench: last output line is not JSON (exit %d)"
            % proc.returncode)
        return proc.returncode or 1, None
    if not check_metrics(result, spec, trace):
        return 1, None
    if echo:
        print("\n".join(lines), flush=True)
    return proc.returncode, result


def spread(values):
    """(q1, median, q3, quartile spread, max spread) of a list of runs.

    The quartile spread is (q3 - q1) / median with the quartiles of
    statistics.quantiles(values, n=4); the max spread is
    (max - min) / median. Both are 0 when the median is 0.
    """
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    if med == 0:
        return q1, med, q3, 0.0, 0.0
    return (q1, med, q3, (q3 - q1) / abs(med),
            (max(values) - min(values)) / abs(med))


def steadiness(workloads, runs, first_seed, seconds, spec):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for workload in workloads:
        per_metric = {}
        for seed in range(first_seed, first_seed + runs):
            rc, result = run_once(workload, seed, seconds, False, spec,
                                  echo=False)
            if rc != 0 or result is None or not result["correct"]:
                log("perfbench: %s seed %d failed" % (workload, seed))
                return False
            for name, m in result["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
            print(json.dumps({"workload": workload, "seed": seed,
                              "metrics": {n: m["value"] for n, m in
                                          result["metrics"].items()}}),
                  flush=True)
        print("%s: %d runs, seeds %d..%d, %s s each"
              % (workload, runs, first_seed, first_seed + runs - 1, seconds))
        print("  %-22s %14s %14s %14s %9s %9s %7s %s"
              % ("metric", "q1", "median", "q3", "iqr/med", "max/med",
                 "bound", "iqr < bound/3"))
        for name, values in per_metric.items():
            q1, med, q3, iqr, rng = spread(values)
            ok = iqr < bounds[name] / 3 or name == "setup_s"
            steady = steady and ok
            print("  %-22s %14.6g %14.6g %14.6g %9.4f %9.4f %7.3f %s"
                  % (name, q1, med, q3, iqr, rng, bounds[name],
                     "yes" if ok else "NO"))
    return steady


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, default=0, metavar="N",
                        help="run N seeds and print the spread report")
    args = parser.parse_args()

    try:
        spec = load_spec()
    except (OSError, ValueError) as e:
        log("perfbench: cannot read BENCHMARK.json: %s" % e)
        return 1
    if not build():
        return 1
    # BENCHMARK.json lists the gated workloads; pnw_perfbench also runs
    # road_readmostly on request (see NOTES.md) and rejects unknown names.
    names = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds if args.seconds else spec["run_seconds"]
    if args.steadiness:
        chosen = names if args.workload == "all" else [args.workload]
        return 0 if steadiness(chosen, args.steadiness, args.seed, seconds,
                               spec) else 1
    rc, result = run_once(args.workload, args.seed, seconds,
                          args.trace == 1, spec)
    if result is None:
        return rc or 1
    return rc


if __name__ == "__main__":
    sys.exit(main())
