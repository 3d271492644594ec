#!/usr/bin/env python3
"""Check the paper figure and table benches against golden outputs.

Every figure bench reports simulated results only, from fixed seeds, so
its counters must match the recorded golden file bit for bit. The
script runs each bench with --benchmark_format=json, drops the
wall-clock fields (the context block, real_time, cpu_time and
iterations) and the library's own bookkeeping fields, and compares
every remaining field of each row (its counters) with
bench/golden/<bench>.json. bench_table1_feature_matrix prints a text
table instead, which is compared line by line.

The examples whose stdout is simulated only (the same bytes on every
run, at any thread count) are compared line by line with
bench/golden/examples/<example>.txt. sharded_scale prints wall-clock
rates and is left out.

Usage:
  bench/check_figures.py [--build-dir build] [--update]

--update rewrites the golden files from the given build instead of
checking; record them from the commit whose behaviour is the reference.
Exits 1 on any difference, 2 when a bench binary is missing or fails.
"""
import argparse
import json
import os
import subprocess
import sys

JSON_BENCHES = (
    "bench_fig6a_seq_io",
    "bench_fig6b_buffer_conflict",
    "bench_fig7_mapping",
    "bench_fig8_l2p_search",
    "bench_table2_media_latency",
    "bench_ablation_media",
    "bench_ablation_read_path",
    "bench_ablation_write_path",
)
TEXT_BENCHES = ("bench_table1_feature_matrix",)
EXAMPLES = (
    "cache_study",
    "crash_study",
    "f2fs_metadata_study",
    "fault_study",
    "fleet_soak",
    "gc_pressure_study",
    "quickstart",
    "read_range_study",
    "rebuild_study",
    "striped_volume_study",
    "zone_switch_study",
)
# Wall-clock fields, then fields the benchmark library fills in itself;
# neither is a simulated result.
LIBRARY_FIELDS = ("real_time", "cpu_time", "iterations", "family_index",
                  "per_family_instance_index", "run_name", "run_type", "repetitions",
                  "repetition_index", "threads", "time_unit")
GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def run(build_dir, name, args, subdir="bench"):
    exe = os.path.join(build_dir, subdir, name)
    if not os.path.isfile(exe):
        sys.exit(f"check_figures: {exe} not found (build the {subdir} first)")
    proc = subprocess.run([exe, *args], capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"check_figures: {name} exited {proc.returncode}", file=sys.stderr)
        sys.exit(2)
    return proc.stdout


def simulated_output(build_dir, name):
    """The bench's output without its wall-clock and library fields."""
    if name in TEXT_BENCHES:
        return {"text": run(build_dir, name, []).splitlines()}
    doc = json.loads(run(build_dir, name, ["--benchmark_format=json"]))
    rows = []
    for row in doc["benchmarks"]:
        rows.append({k: v for k, v in row.items() if k not in LIBRARY_FIELDS})
    return {"benchmarks": rows}


def differences(name, golden, got):
    """Human-readable lines, one per differing field."""
    if "text" in golden or "text" in got:
        want, have = golden.get("text", []), got.get("text", [])
        out = [f"{name}: line {i + 1}: want {w!r}, got {h!r}"
               for i, (w, h) in enumerate(zip(want, have)) if w != h]
        if len(want) != len(have):
            out.append(f"{name}: {len(want)} lines expected, got {len(have)}")
        return out
    want = {row["name"]: row for row in golden["benchmarks"]}
    have = {row["name"]: row for row in got["benchmarks"]}
    out = [f"{name}: row {row} missing" for row in want if row not in have]
    out += [f"{name}: unexpected row {row}" for row in have if row not in want]
    for row in want.keys() & have.keys():
        for field in sorted(want[row].keys() | have[row].keys()):
            w, h = want[row].get(field), have[row].get(field)
            if w != h:
                out.append(f"{name}: {row}: {field}: want {w}, got {h}")
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--build-dir", default="build", help="CMake build tree")
    parser.add_argument("--update", action="store_true",
                        help="record golden files instead of checking")
    args = parser.parse_args()

    failures = []
    for name in JSON_BENCHES + TEXT_BENCHES:
        got = simulated_output(args.build_dir, name)
        path = os.path.join(GOLDEN_DIR, f"{name}.json")
        if args.update:
            os.makedirs(GOLDEN_DIR, exist_ok=True)
            with open(path, "w", encoding="utf-8") as f:
                json.dump(got, f, indent=1, sort_keys=True)
                f.write("\n")
            print(f"recorded {path}")
            continue
        with open(path, encoding="utf-8") as f:
            golden = json.load(f)
        diff = differences(name, golden, got)
        failures += diff
        print(f"{'FAIL' if diff else 'ok  '} {name}")
    for name in EXAMPLES:
        got = run(args.build_dir, name, [], subdir="examples")
        path = os.path.join(GOLDEN_DIR, "examples", f"{name}.txt")
        if args.update:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as f:
                f.write(got)
            print(f"recorded {path}")
            continue
        with open(path, encoding="utf-8") as f:
            golden = f.read()
        diff = differences(name, {"text": golden.splitlines()}, {"text": got.splitlines()})
        failures += diff
        print(f"{'FAIL' if diff else 'ok  '} {name}")
    for line in failures:
        print(line)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
