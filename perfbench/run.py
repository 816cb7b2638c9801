#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout.  Builds perfbench/ (and with it the
hyperpath libraries from src/) into .bench_build/perfbench, then runs the
perfbench binary.  With --trace 0, setup_s is the median of SETUP_SAMPLES
or more setups.  They run in the measuring process, each on a fresh
workload object, except for the workloads in FRESH_PROCESS_SETUP: their
setup fills a per-process library cache (hamiltonian_decomposition keeps
each dimension it solved), so a second setup in one process would skip that
work, and each sample is taken in a fresh process instead.  The last line
of stdout is the JSON result; build output goes to stderr.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "perfbench"
SPANS_DIR = ROOT / ".bench_build" / "spans"
WORKLOADS = ["oracle_phase_q24", "materialized_phase_q16",
             "recorded_phase_q16", "campaign_q10", "route_mix"]
SETUP_SAMPLES = 15
FRESH_PROCESS_SETUP = {"route_mix"}
DEADLINE_S = 170  # the whole run, build excluded


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def usable_cpus():
    return len(os.sched_getaffinity(0))


def build():
    if not (BENCH_DIR.parent / "src" / "CMakeLists.txt").is_file():
        fail("hyperpath sources (src/) not found next to perfbench/")
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "perfbench",
                  "-j", str(usable_cpus())])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def run_binary(args, timeout):
    env = dict(os.environ, HYPERPATH_THREADS=str(usable_cpus()))
    try:
        proc = subprocess.run([str(BINARY)] + args, capture_output=True,
                              text=True, env=env, timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        fail("perfbench timed out: " + " ".join(args))
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"perfbench exited {proc.returncode}: " + " ".join(args))
    return lines[:-1], json.loads(lines[-1])


def measure(workload, seed, seconds, trace, corrupt=False):
    """One benchmark run; returns (log lines, result object)."""
    start = time.monotonic()
    common = ["--workload", workload, "--seed", str(seed)]
    extra = ["--corrupt"] if corrupt else []
    if trace:
        SPANS_DIR.mkdir(parents=True, exist_ok=True)
        spans = SPANS_DIR / f"{workload}-{seed}.json"
        return run_binary(common + ["--seconds", str(seconds), "--trace", "1",
                                    "--spans", str(spans)] + extra,
                          DEADLINE_S)
    fresh = workload in FRESH_PROCESS_SETUP
    setups = []
    for _ in range(SETUP_SAMPLES - 1 if fresh else 0):
        _, res = run_binary(common + ["--setup-only"] + extra,
                            DEADLINE_S - (time.monotonic() - start))
        setups.append(res["setup_s"])
    reps = 1 if fresh else SETUP_SAMPLES
    log, result = run_binary(
        common + ["--seconds", str(seconds), "--trace", "0",
                  "--setup-reps", str(reps)] + extra,
        DEADLINE_S - (time.monotonic() - start))
    if fresh:
        setup = result["metrics"]["setup_s"]
        setups.append(setup["value"])
        setup["value"] = statistics.median(setups)
        log.append("setup_s samples (fresh processes): " +
                   " ".join(f"{s:.6g}" for s in setups))
    return log, result


def selftest(seconds):
    """Peak-memory helper check, then every workload clean and with one
    corrupted expectation: the clean run must pass every check and the
    corrupted one must raise the error rate."""
    build()
    ok = True
    proc = subprocess.run([str(BINARY), "--selftest"], capture_output=True,
                          text=True)
    print(proc.stdout, end="")
    if proc.returncode not in (0, 77):
        ok = False
    for workload in WORKLOADS:
        for corrupt in (False, True):
            _, res = measure(workload, 1, seconds, 0, corrupt)
            rate = res["failed"] / res["attempted"]
            good = (rate > 0) if corrupt else (rate == 0 and res["correct"])
            ok &= good
            print(f"selftest {workload} {'corrupted' if corrupt else 'clean'}:"
                  f" error_rate {rate:.3g}: {'ok' if good else 'FAIL'}")
    print("selftest:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    if a.selftest:
        return selftest(1)
    if a.workload is None:
        ap.error("--workload is required")
    if a.seconds <= 0:
        ap.error("--seconds must be positive")
    build()
    log, result = measure(a.workload, a.seed, a.seconds, a.trace)
    print("\n".join(log))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
