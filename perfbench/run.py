#!/usr/bin/env python3
"""Builds and runs the Griffin benchmark (perfbench/griffin_perf.cpp).

Usage, from the repository root:

  python3 perfbench/run.py --workload paper_mix --seed 4242 --seconds 10 --trace 0
  python3 perfbench/run.py --workload split_band --trace 1   # per-layer run
  python3 perfbench/run.py --held-out                         # seed spread
  python3 perfbench/run.py --self-test                        # helper tests

The first call configures and builds the system's libraries and griffin_perf
under .bench_build/perfbench (CMake); later calls rebuild incrementally. Build
output goes to stderr, so the last line of stdout is griffin_perf's JSON
result. A traced run also writes Chrome trace-event JSON next to the build
(.bench_build/perfbench/trace_<workload>_<seed>.json).
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ["paper_mix", "tenant_zipf", "split_band"]
DEFAULT_SEED = 4242
HELD_OUT_SEEDS = [1, 2, 3]


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no system sources (src/) next to perfbench/")
    configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja") and not os.path.isfile(
            os.path.join(BUILD_DIR, "Makefile")):
        configure += ["-G", "Ninja"]
    steps = [["cmake", "--build", BUILD_DIR, "-j", "4", "--target"] + targets]
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.insert(0, configure)
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed")


def run_once(workload, seed, seconds, trace, capture=False):
    cmd = [os.path.join(BUILD_DIR, "griffin_perf"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    if trace:
        cmd += ["--trace-out",
                os.path.join(BUILD_DIR, f"trace_{workload}_{seed}.json")]
    if not capture:
        return subprocess.run(cmd, cwd=ROOT).returncode, None
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = p.stdout.strip().splitlines()
    return p.returncode, json.loads(lines[-1]) if lines else None


def held_out(workloads, seconds):
    """Each end-to-end metric's spread over the held-out seeds, beside the
    default seed's value: min / median / max and (max - min) / median."""
    for wl in workloads:
        rows = {}
        for seed in [DEFAULT_SEED] + HELD_OUT_SEEDS:
            code, res = run_once(wl, seed, seconds, False, capture=True)
            if code != 0 or res is None:
                print(f"{wl} seed {seed}: FAILED (exit {code})")
                return 1
            for name, m in res["metrics"].items():
                rows.setdefault(name, []).append((seed, m["value"], m["unit"]))
        print(f"{wl}: default seed {DEFAULT_SEED} vs held-out seeds "
              f"{HELD_OUT_SEEDS}")
        for name, vals in rows.items():
            default = vals[0][1]
            others = [v for _, v, _ in vals[1:]]
            med = statistics.median(others)
            spread = (max(others) - min(others)) / med if med else 0.0
            print(f"  {name:18s} default {default:12.4f}  held-out min "
                  f"{min(others):12.4f} med {med:12.4f} max {max(others):12.4f}"
                  f"  range/med {spread:6.3f} {vals[0][2]}")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--held-out", action="store_true",
                    help="spread of every end-to-end metric over other seeds")
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the helper tests")
    a = ap.parse_args()

    if a.self_test:
        build(["perf_helpers_test"])
        return subprocess.run([os.path.join(BUILD_DIR,
                                            "perf_helpers_test")]).returncode
    build(["griffin_perf"])
    if a.held_out:
        return held_out([a.workload] if a.workload else WORKLOADS, a.seconds)
    if a.workload is None:
        ap.error("--workload is required")
    code, _ = run_once(a.workload, a.seed, a.seconds, a.trace == 1)
    return code


if __name__ == "__main__":
    sys.exit(main())
