#!/usr/bin/env python3
"""Check the repository benchmark's fingerprints against recorded ones.

`perfbench/run.py --selftest` prints, for each workload, the fingerprint
of a run at the given seed ("raw") and of one at the next seed
("wrapped, next seed"). Every simulated output of the run feeds them, so
a change that claims bit-identical behaviour must leave them as they
are. This script reads that output and compares each fingerprint with
bench/golden/perfbench_fingerprints.txt.

Usage:
  python3 perfbench/run.py --selftest | tee selftest.txt
  python3 bench/check_fingerprints.py selftest.txt [--update]

--update rewrites the golden file from the given output instead of
checking; a change that moves the fingerprints on purpose re-records
them and says why. Exits 1 on any difference, on a recorded fingerprint
the output lacks, and on one the golden file lacks.
"""
import argparse
import os
import re
import sys

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                      "perfbench_fingerprints.txt")
HEADER = ("# perfbench self-test fingerprints: workload, seed, fingerprint.\n"
          "# Checked and re-recorded by bench/check_fingerprints.py.\n")
# The seed offset of each self-test case that is checked.
CASES = {"raw": 0, "wrapped, next seed": 1}


def parse_selftest(text):
    """{(workload, seed): fingerprint} from --selftest output."""
    found = {}
    workload = seed = None
    for line in text.splitlines():
        m = re.match(r"# self-test (\S+) seed (\d+)$", line)
        if m:
            workload, seed = m.group(1), int(m.group(2))
            continue
        m = re.match(r"(.+?)\s+fingerprint ([0-9a-f]{16})\b", line)
        if m and workload is not None and m.group(1) in CASES:
            found[(workload, seed + CASES[m.group(1)])] = m.group(2)
    return found


def read_golden():
    golden = {}
    with open(GOLDEN) as f:
        for line in f:
            if line.strip() and not line.startswith("#"):
                workload, seed, fp = line.split()
                golden[(workload, int(seed))] = fp
    return golden


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("selftest_output", help="saved stdout of perfbench/run.py --selftest")
    ap.add_argument("--update", action="store_true", help="rewrite the golden file")
    args = ap.parse_args()
    with open(args.selftest_output) as f:
        found = parse_selftest(f.read())
    if not found:
        print(f"no fingerprints in {args.selftest_output}", file=sys.stderr)
        return 1
    if args.update:
        with open(GOLDEN, "w") as f:
            f.write(HEADER)
            for (workload, seed), fp in sorted(found.items()):
                f.write(f"{workload} {seed} {fp}\n")
        print(f"wrote {len(found)} fingerprints to {GOLDEN}")
        return 0
    golden = read_golden()
    bad = 0
    for key in sorted(set(golden) | set(found)):
        want, got = golden.get(key), found.get(key)
        status = "ok" if want == got else "DIFF"
        bad += status != "ok"
        print(f"{status:4} {key[0]} seed {key[1]}: recorded {want}, got {got}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
