#!/usr/bin/env python3
"""Build and run the scenario benchmark.

    python3 scenario_bench/run.py --workload cbr_capture --seed 1 \
        --seconds 10 --trace 0

`--workload all` runs the three workloads one after another.

Run from the repository root. The first run configures and builds the
simulator library and the benchmark from source under .bench_build/; later
runs only check that the build is up to date. Build output goes to
stderr. The benchmark's stdout is passed through, so its last line is
the result JSON. The exit code is non-zero when the build fails, when
any correctness check fails, or on a timeout.
"""
import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "scenario_bench"
OUT = ROOT / ".bench_out"
WORKLOADS = ("cbr_capture", "tcp_dumbbell", "syn_flood")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        sha = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return "git:" + sha.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for top in ("src", "include", "scenario_bench"):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return "sha256:" + h.hexdigest()[:12]


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", "scenario_bench"])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
        if r.returncode != 0:
            sys.exit(f"run.py: build step failed: {' '.join(cmd)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    for need in ("src", "include"):
        if not (ROOT / need).is_dir():
            sys.exit(f"run.py: {need}/ not found under {ROOT}; "
                     "run from a full checkout")
    build()
    OUT.mkdir(exist_ok=True)
    src = source_id()
    worst = 0
    for name in WORKLOADS if args.workload == "all" else (args.workload,):
        cmd = [str(BUILD / "scenario_bench"),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--topologies", str(HERE / "topologies"), "--out", str(OUT),
               "--source-id", src]
        try:
            r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                               timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            sys.exit(f"run.py: {name} timed out")
        sys.stdout.write(r.stdout)
        sys.stdout.flush()
        worst = max(worst, r.returncode)
    sys.exit(worst)


if __name__ == "__main__":
    main()
