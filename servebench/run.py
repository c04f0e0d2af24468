#!/usr/bin/env python3
"""Build and run the closed-loop `hyparc serve` benchmark.

One run (the form BENCHMARK.json names):

    python3 servebench/run.py --workload plan_hit --seed 1 --seconds 10 --trace 0

builds the library, `hyparc` and the `servebench` program into
.bench_build/servebench (first run only; later runs just check they are
up to date), then runs servebench. Its last stdout line is the
JSON result; its exit code is 1 when any response failed the check.

Steadiness mode runs each workload N times with seeds seed..seed+N-1 and
prints, per metric, the median, the quartiles and the run-to-run spread
(IQR / median), flagging any spread above the metric's bound in
BENCHMARK.json. `--save` keeps the values; a later
set of runs given `--against` that file also reports each median's shift
and flags one that got worse by more than the bound:

    python3 servebench/run.py --steadiness 10 [--workload W ...] --save a.json
    python3 servebench/run.py --steadiness 10 --against a.json
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "servebench")
BENCH = os.path.join(BUILD, "servebench")
HYPARC = os.path.join(BUILD, "hypar", "hyparc")


def build():
    """Configure (once) and build servebench and hyparc; exit on failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "servebench", "hyparc"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the JSON result.
        rc = subprocess.run(cmd, stdout=sys.stderr).returncode
        if rc != 0:
            print(f"servebench: build step failed ({rc}): {' '.join(cmd)}",
                  file=sys.stderr)
            sys.exit(rc)


def bench_command(workload, seed, seconds, trace):
    workdir = os.path.join(BUILD, f"run-{workload}-{os.getpid()}")
    trace_out = os.path.join(BUILD, "traces", f"{workload}-seed{seed}.json")
    return workdir, [BENCH, "--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", str(trace),
                     "--hyparc", HYPARC, "--workdir", workdir,
                     "--trace-out", trace_out]


def run_once(workload, seed, seconds, trace, capture=False):
    """Run servebench once; returns (exit code, stdout or None)."""
    workdir, cmd = bench_command(workload, seed, seconds, trace)
    try:
        proc = subprocess.run(cmd, text=True,
                              stdout=subprocess.PIPE if capture else None)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return proc.returncode, proc.stdout


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def steadiness(args):
    """Run every workload N times; print median, quartiles and spread."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    specs = bench["per_layer" if args.trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in specs}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    earlier = {}
    if args.against:
        with open(args.against) as f:
            earlier = json.load(f)
    ok = True
    saved = {}
    for workload in workloads:
        values = {}
        for k in range(args.steadiness):
            seed = args.seed + k
            rc, out = run_once(workload, seed, seconds, args.trace,
                               capture=True)
            lines = out.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if rc != 0 or not result.get("correct"):
                print(f"{workload} seed {seed}: run failed (exit {rc})")
                ok = False
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        saved[workload] = values
        print(f"\n{workload}: {args.steadiness} runs, seeds "
              f"{args.seed}..{args.seed + args.steadiness - 1}, "
              f"{seconds} s each")
        print(f"  {'metric':32} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>7} {'bound':>6} {'shift':>7}")
        for name, vals in values.items():
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flags = []
            if bound is not None and spread > bound:
                flags.append("SPREAD OVER BOUND")
                ok = False
            elif bound is not None and spread > bound / 3:
                flags.append("spread above bound/3")
            shift = ""
            before = earlier.get(workload, {}).get(name)
            if before:
                base = statistics.median(before)
                rel = (med - base) / base if base else 0.0
                shift = f"{rel:+7.3f}"
                better = next(m["better"] for m in specs if m["name"] == name)
                worse = -rel if better == "higher" else rel
                if bound is not None and worse > bound:
                    flags.append("MEDIAN WORSE THAN BOUND")
                    ok = False
            print(f"  {name:32} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:7.3f} {bound if bound is not None else '-':>6} "
                  f"{shift:>7} {' '.join(flags)}")
    if args.save:
        with open(args.save, "w") as f:
            json.dump(saved, f, indent=1)
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        help="workload name (steadiness mode: repeatable; "
                             "default every workload)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="timed phase per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, default=0, metavar="N",
                        help="run each workload N times and report spreads")
    parser.add_argument("--save", metavar="FILE",
                        help="steadiness mode: write every metric value")
    parser.add_argument("--against", metavar="FILE",
                        help="steadiness mode: compare medians with a "
                             "--save file from an earlier set of runs")
    args = parser.parse_args()

    build()
    if args.steadiness:
        sys.exit(steadiness(args))
    if not args.workload or len(args.workload) != 1:
        parser.error("exactly one --workload is required")
    if args.seconds is None:
        parser.error("--seconds is required")
    rc, _ = run_once(args.workload[0], args.seed, args.seconds, args.trace)
    sys.exit(rc)


if __name__ == "__main__":
    main()
