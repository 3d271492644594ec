#!/usr/bin/env python3
"""Build the emulator benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest [--workload <name>]

The C++ benchmark (perfbench/src) is configured and built in Release mode
under $CARGO_TARGET_DIR (default .bench_build) the first time, and
incrementally after that. Build output goes to stderr, so the last line
of stdout is the benchmark's JSON result. With --trace 1 the kept spans
are written to <build dir>/spans/<workload>.csv. See perfbench/README.md.
"""
import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["fio_device", "cache_zipf", "crash_remount", "mirror_rebuild"]
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return base


def build(base):
    bdir = os.path.join(base, "perfbench")
    os.makedirs(bdir, exist_ok=True)
    with open(os.path.join(bdir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", bdir, "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                return None
    return os.path.join(bdir, "conzone_perfbench")


def run(cmd):
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:  # subprocess.run kills and reaps the child
        print(f"timed out after {RUN_TIMEOUT_S} s: {' '.join(cmd)}", file=sys.stderr)
        return 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "device.hpp")):
        print(f"emulator sources not found under {ROOT}/src", file=sys.stderr)
        return 2

    base = build_dir()
    exe = build(base)
    if exe is None:
        print("benchmark build failed", file=sys.stderr)
        return 2

    if args.selftest:
        failed = [w for w in ([args.workload] if args.workload else WORKLOADS)
                  if run([exe, "--selftest", "--workload", w, "--seed", str(args.seed)]) != 0]
        if failed:
            print("self-test failed: " + ", ".join(failed), file=sys.stderr)
        return 1 if failed else 0

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(base, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-out", os.path.join(spans, args.workload + ".csv")]
    return run(cmd)


if __name__ == "__main__":
    sys.exit(main())
