#!/usr/bin/env python3
"""Fails when a --gtest_filter named in the CI workflow selects no test.

Usage:
    python3 tools/check_gtest_filters.py [<workflow> [<build-dir>]]

Scans <workflow> (default .github/workflows/ci.yml) for commands of the form
`<dir>/tests/<bin> --gtest_filter='<filter>'` and lists what each filter selects from
`<build-dir>/tests/<bin>` (default build dir: build) with --gtest_list_tests. googletest
runs an empty selection and passes, so a CI step whose tests were all renamed or deleted
would otherwise pass unnoticed.
"""

import re
import subprocess
import sys

FILTER_RE = re.compile(r"/tests/(\w+)\s+--gtest_filter='([^']*)'")


def selected_tests(binary, flt):
    out = subprocess.run([binary, "--gtest_list_tests", f"--gtest_filter={flt}"],
                         check=True, capture_output=True, text=True).stdout
    # Suite lines end in '.'; the tests under a suite are indented.
    return sum(1 for line in out.splitlines() if line.startswith("  "))


def main(argv):
    workflow = argv[1] if len(argv) > 1 else ".github/workflows/ci.yml"
    build = argv[2] if len(argv) > 2 else "build"
    with open(workflow) as f:
        filters = FILTER_RE.findall(f.read())
    if not filters:
        print(f"{workflow}: no --gtest_filter found", file=sys.stderr)
        return 1
    empty = 0
    for binary, flt in filters:
        if selected_tests(f"{build}/tests/{binary}", flt) == 0:
            print(f"{binary} --gtest_filter='{flt}' selects no test", file=sys.stderr)
            empty += 1
    print(f"checked {len(filters)} filters in {workflow}: {empty} select no test")
    return 1 if empty else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
