#!/usr/bin/env python3
"""Run the repository benchmark (see BENCHMARK.json at the repository root).

    python3 perfbench/run.py --workload read-layouts --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Builds perfbench/ (Release) into
.bench_build/, runs one workload for --seconds and prints, as the last line
of standard output, one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1. The line before it is a report: host facts (nproc, CPU
model, load average before and after, compiler, build type) and the run's
details (sample counts, medians beside the scored fastest times, failures).
A traced run also writes its spans to
.bench_build/spans/<workload>-seed<seed>.json.

    python3 perfbench/run.py --write-pins

re-pins every launch's LaunchStats::core() from the reference interpreter
into perfbench/pins.json (on two seeds, which must agree).
"""
import argparse
import json
import os
import subprocess
import sys
import time

WORKLOADS = ("read-layouts", "tune-cold")
BUILD_DIR = ".bench_build"
HERE = os.path.relpath(os.path.dirname(os.path.abspath(__file__)))
PINS = os.path.join(HERE, "pins.json")
BINARY = os.path.join(BUILD_DIR, "perfbench")
# The whole run, build included, must end well inside three minutes once
# built; the first build of a checkout gets its own allowance.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


def build():
    """Configure (once) and build; exits non-zero if either fails."""
    started = time.monotonic()
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", str(nproc())])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            log(f"build timed out: {' '.join(cmd)}")
            sys.exit(1)
        if done.returncode != 0:
            log(f"build failed: {' '.join(cmd)}")
            sys.exit(1)
    build_type = None
    with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as cache:
        for line in cache:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1].strip()
    if build_type != "Release":
        log(f"refusing to score a {build_type or 'default'} build; "
            f"remove {BUILD_DIR} or configure with -DCMAKE_BUILD_TYPE=Release")
        sys.exit(2)
    return build_type, time.monotonic() - started


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_binary(args, timeout):
    """Run the benchmark binary; return its JSON object or exit non-zero."""
    try:
        done = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        log("benchmark binary timed out")
        sys.exit(1)
    if done.returncode != 0:
        log(f"benchmark binary exited with {done.returncode}")
        sys.exit(1)
    lines = done.stdout.strip().splitlines()
    if not lines:
        log("benchmark binary printed nothing")
        sys.exit(1)
    return json.loads(lines[-1])


def write_pins():
    """Pin LaunchStats::core() of every launch from the reference
    interpreter, on two seeds; the simulated counts must not depend on the
    data, so the seeds must agree."""
    pins = {}
    for workload in WORKLOADS:
        per_seed = [run_binary(["--workload", workload, "--seed", str(seed),
                                "--write-pins"], None)["pins"]
                    for seed in (3, 7)]
        if per_seed[0] != per_seed[1]:
            log(f"{workload}: reference counts differ between seeds 3 and 7")
            sys.exit(1)
        pins.update(per_seed[0])
    with open(PINS, "w") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")
    log(f"wrote {len(pins)} pinned launches to {PINS}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-pins", action="store_true")
    args = parser.parse_args()
    if not args.write_pins and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must not be negative")

    started = time.monotonic()
    build_type, build_s = build()
    if args.write_pins:
        write_pins()
        return

    load_before = os.getloadavg()
    cmd = ["--workload", args.workload, "--seed", str(args.seed % 2**32),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--pins", PINS]
    if args.trace:
        spans_dir = os.path.join(BUILD_DIR, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(spans_dir, f"{args.workload}-seed{args.seed}.json")]
    remaining = RUN_TIMEOUT_S - (time.monotonic() - started)
    result = run_binary(cmd, max(remaining, args.seconds + 60))

    report = {
        "host": {
            "nproc": nproc(),
            "cpu_model": cpu_model(),
            "loadavg_before": list(load_before),
            "loadavg_after": list(os.getloadavg()),
            "compiler": result["info"].get("compiler"),
            "cmake_build_type": build_type,
            "build_s": build_s,
        },
        "run": result["info"],
    }
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))


if __name__ == "__main__":
    main()
