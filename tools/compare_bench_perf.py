#!/usr/bin/env python3
"""Guard the functional-decode HOST throughput in BENCH_fig11 reports.

Two-file mode works over the `host_tokens_per_second` field of functional rows (the host
wall-clock of the emulation — NOT simulated seconds; see docs/performance.md for the
distinction):

  * Two-file mode: compare_bench_perf.py OLD.json NEW.json
    Matches `functional_decode` rows on (batch, steps) and fails when NEW regresses
    below --threshold (default 0.80, i.e. a >20% host-throughput drop) of OLD for any
    matched row. Use it to gate a change against a baseline report.

A second mode gates speculative decoding instead (over SIMULATED tokens_per_second of
BENCH_speculative's `spec_sweep` rows, not host throughput):

  * Spec mode: compare_bench_perf.py --spec REPORT.json
    Compares the sweep's default-preset row (default_preset: true — the
    acceptance-favorable 0.5B-draft/gamma-4 configuration) against the gamma=0
    plain-decode baseline row and fails when speculation is not at least --min-ratio
    times faster. CI runs this with --min-ratio 1.5 (docs/speculative_decoding.md).

--min-batch N restricts two-file mode to rows with batch >= N (small-batch host timings
are the noisiest). Exit 0 on pass, 1 on regression, 2 on usage error. Stdlib only.
"""

import argparse
import json
import sys


def load_rows(path, series):
    with open(path, encoding="utf-8") as f:
        report = json.load(f)
    rows = {}
    for row in report.get("rows", []):
        if row.get("series") != series:
            continue
        key = (row["batch"], row["steps"])
        if key in rows:
            raise SystemExit(f"{path}: duplicate {series} row for {key}")
        rows[key] = float(row["host_tokens_per_second"])
    if not rows:
        raise SystemExit(f"{path}: no {series} rows (wrong bench or old schema?)")
    return rows


def check_spec(path, factor):
    """Default-preset speculative tok/s must reach factor x the plain-decode baseline."""
    with open(path, encoding="utf-8") as f:
        report = json.load(f)
    sweep = [r for r in report.get("rows", []) if r.get("series") == "spec_sweep"]
    if not sweep:
        raise SystemExit(f"{path}: no spec_sweep rows (wrong bench or old schema?)")
    plain = [r for r in sweep if r.get("gamma") == 0]
    defaults = [r for r in sweep if r.get("default_preset") is True]
    if len(plain) != 1:
        raise SystemExit(f"{path}: expected exactly one gamma=0 baseline row, got {len(plain)}")
    if not defaults:
        raise SystemExit(f"{path}: no default_preset spec_sweep row")
    base = float(plain[0]["tokens_per_second"])
    ok = True
    for row in defaults:
        tps = float(row["tokens_per_second"])
        ratio = tps / base if base > 0 else float("inf")
        verdict = "ok" if ratio >= factor else "FAIL"
        print(
            f"draft={row.get('draft')} gamma={row.get('gamma')} "
            f"acceptance={row.get('acceptance')}: plain={base:.2f} tok/s  "
            f"spec={tps:.2f} tok/s  speedup={ratio:.2f}x (floor {factor:.2f}) {verdict}"
        )
        if ratio < factor:
            ok = False
    return ok


def check_pairs(old, new, factor, min_batch):
    """Fails rows where new < old * factor. Returns True when everything passes."""
    ok = True
    checked = 0
    if old.keys() != new.keys():
        print(f"row sets differ: {sorted(old.keys())} vs {sorted(new.keys())}")
        ok = False
    for key in sorted(old.keys() & new.keys()):
        batch, steps = key
        if batch < min_batch:
            continue
        checked += 1
        ratio = new[key] / old[key] if old[key] > 0 else float("inf")
        verdict = "ok" if ratio >= factor else "FAIL"
        print(
            f"batch={batch} steps={steps}: old={old[key]:.1f} tok/s  "
            f"new={new[key]:.1f} tok/s  ratio={ratio:.2f} (floor {factor:.2f}) "
            f"{verdict}"
        )
        if ratio < factor:
            ok = False
    if checked == 0:
        print(f"no rows with batch >= {min_batch} to compare")
        return False
    return ok


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("reports", nargs="+", metavar="REPORT.json")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.80,
        help="two-file mode: NEW must reach this fraction of OLD (default 0.80)",
    )
    parser.add_argument(
        "--spec",
        dest="spec_mode",
        action="store_true",
        help="one BENCH_speculative report: default-preset speculation vs plain decode",
    )
    parser.add_argument(
        "--min-ratio",
        type=float,
        default=1.2,
        help="spec mode: speculation must be this many times plain decode (default 1.2)",
    )
    parser.add_argument(
        "--min-batch", type=int, default=0, help="only compare rows with batch >= N"
    )
    args = parser.parse_args(argv[1:])

    if args.spec_mode:
        if len(args.reports) != 1:
            parser.error("--spec takes exactly one report")
        ok = check_spec(args.reports[0], args.min_ratio)
        print("OK: speculation beats plain decode at the default preset" if ok
              else "FAIL: speculative speedup below floor")
        return 0 if ok else 1

    if len(args.reports) != 2:
        parser.error("two-file mode takes OLD.json NEW.json")
    old = load_rows(args.reports[0], "functional_decode")
    new = load_rows(args.reports[1], "functional_decode")
    ok = check_pairs(old, new, args.threshold, args.min_batch)
    print("OK: no host-throughput regression" if ok else "FAIL: host-throughput regression")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
