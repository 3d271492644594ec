#!/usr/bin/env python3
"""Count the code lines of src/ and tests/, per directory.

A code line is a non-blank line of a *.cpp or *.hpp file that is not a
`//` comment. Blank lines and comments do not count, so deleting them
does not show up as less code. The script prints the count of each
directory under src/ and tests/, then the totals of src/ and tests/.

Usage:
  python3 bench/loc.py                 # the working tree
  python3 bench/loc.py --against REV   # REV's counts, the tree's and the
                                       # delta, then every file that moved

REV is any git revision (HEAD, a commit id, a branch). Files are read
from the working tree as they are, staged or not.
"""
import argparse
import os
import subprocess
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOPS = ("src", "tests")
SUFFIXES = (".cpp", ".hpp")


def code_lines(text):
    return sum(1 for line in text.splitlines()
               if line.strip() and not line.strip().startswith("//"))


def tree_counts():
    """{path: code lines} of the working tree."""
    counts = {}
    for top in TOPS:
        for dirpath, _, files in os.walk(os.path.join(ROOT, top)):
            for name in files:
                if name.endswith(SUFFIXES):
                    full = os.path.join(dirpath, name)
                    with open(full, encoding="utf-8") as f:
                        counts[os.path.relpath(full, ROOT)] = code_lines(f.read())
    return counts


def rev_counts(rev):
    """{path: code lines} of git revision `rev`."""
    def git(*args, data=None):
        return subprocess.run(("git",) + args, cwd=ROOT, input=data, check=True,
                              capture_output=True).stdout
    paths = [p for p in git("ls-tree", "-r", "--name-only", rev, "--", *TOPS)
             .decode().splitlines() if p.endswith(SUFFIXES)]
    out = git("cat-file", "--batch",
              data="".join(f"{rev}:{p}\n" for p in paths).encode())
    counts = {}
    pos = 0
    for p in paths:
        header_end = out.index(b"\n", pos)
        size = int(out[pos:header_end].split()[2])
        body = out[header_end + 1:header_end + 1 + size]
        counts[p] = code_lines(body.decode("utf-8"))
        pos = header_end + 1 + size + 1
    return counts


def by_directory(counts):
    dirs = defaultdict(int)
    for path, n in counts.items():
        if os.path.dirname(path) not in TOPS:  # a top's own files show in its total
            dirs[os.path.dirname(path)] += n
    for top in TOPS:
        dirs[top + "/"] = sum(n for p, n in counts.items()
                              if p.startswith(top + os.sep))
    return dirs


def order(keys):
    # Directories of a top first, then the top's total.
    return sorted(keys, key=lambda k: (k.split(os.sep)[0].rstrip("/"), k.endswith("/"), k))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--against", metavar="REV",
                    help="also print REV's counts and the delta to the tree")
    args = ap.parse_args()

    now = tree_counts()
    if args.against is None:
        dirs = by_directory(now)
        for d in order(dirs):
            print(f"{d:<16} {dirs[d]:>7}")
        return 0

    try:
        then = rev_counts(args.against)
    except subprocess.CalledProcessError as e:
        sys.exit(f"loc.py: git failed on {args.against}: {e.stderr.decode().strip()}")
    dirs_now, dirs_then = by_directory(now), by_directory(then)
    print(f"{'directory':<16} {args.against[:12]:>12} {'tree':>7} {'delta':>7}")
    for d in order(set(dirs_now) | set(dirs_then)):
        a, b = dirs_then.get(d, 0), dirs_now.get(d, 0)
        print(f"{d:<16} {a:>12} {b:>7} {b - a:>+7}")
    moved = [p for p in sorted(set(now) | set(then)) if now.get(p, 0) != then.get(p, 0)]
    if moved:
        print()
        print(f"{'file':<40} {args.against[:12]:>12} {'tree':>7} {'delta':>7}")
        for p in moved:
            a, b = then.get(p, 0), now.get(p, 0)
            print(f"{p:<40} {a:>12} {b:>7} {b - a:>+7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
