#!/usr/bin/env python3
"""Per-directory line counts of a change: added, removed and net lines.

Usage:
    python3 tools/net_lines.py <base-rev> [<rev>]

Sums `git diff --numstat --no-renames <base-rev> [<rev>]` by top-level directory (files
at the repository root count under "."). Without <rev> the diff runs against the working
tree, so staged new files are included. Binary files count 0 lines. A second table splits
src/ by module, since that is where ROADMAP's net-line budget is tracked.
"""

import subprocess
import sys
from collections import defaultdict


def numstat(revs):
    out = subprocess.run(
        ["git", "diff", "--numstat", "--no-renames", *revs],
        check=True, capture_output=True, text=True).stdout
    for line in out.splitlines():
        added, removed, path = line.split("\t", 2)
        # Binary files report "-" for both counts.
        yield (int(added) if added != "-" else 0,
               int(removed) if removed != "-" else 0, path)


def print_table(title, rows):
    print(f"{title:<24} {'added':>8} {'removed':>8} {'net':>8}")
    total_a = total_r = 0
    for key in sorted(rows):
        a, r = rows[key]
        total_a += a
        total_r += r
        print(f"{key:<24} {a:>8} {r:>8} {a - r:>+8}")
    print(f"{'total':<24} {total_a:>8} {total_r:>8} {total_a - total_r:>+8}")


def main(argv):
    if not 2 <= len(argv) <= 3 or argv[1] in ("-h", "--help"):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    by_dir = defaultdict(lambda: [0, 0])
    by_module = defaultdict(lambda: [0, 0])
    for added, removed, path in numstat(argv[1:]):
        parts = path.split("/")
        top = parts[0] if len(parts) > 1 else "."
        by_dir[top][0] += added
        by_dir[top][1] += removed
        if top == "src" and len(parts) > 2:
            module = "src/" + parts[1]
            by_module[module][0] += added
            by_module[module][1] += removed
    print_table("directory", by_dir)
    if by_module:
        print()
        print_table("src module", by_module)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
