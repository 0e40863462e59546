#!/usr/bin/env python3
"""Validate BENCH_<name>.json reports against the frozen bench schema (v1).

Stdlib-only so CI can run it on a bare runner:

    python3 tools/check_bench_schema.py out/BENCH_*.json

Exits non-zero and prints one line per violation if any file fails. The checks mirror
docs/metrics_schema.md: required top-level fields, typed rows with a `series` tag,
reference entries with measured + paper values, and — when a report embeds metrics
snapshots — the metrics schema's own required shape. Loading is strict JSON: the bare
NaN / Infinity / -Infinity tokens Python's json module would otherwise accept are
rejected, because the C++ writer (src/obs/json.h) serializes non-finite doubles as null
and must never emit them.
"""

import json
import sys

BENCH_SCHEMA_VERSION = 1
METRICS_SCHEMA_VERSION = 1

NUMBER = (int, float)

# KV storage dtypes (docs/kv_quantization.md): gauge label -> bits-per-element value.
KV_DTYPES = {"f16": 16, "int8": 8, "int4": 4}
# Write-time round-trip error-proxy gauges exported by quantized functional runs.
KV_QUANT_GAUGES = (
    "kv.quant.rows",
    "kv.quant.bytes_saved",
    "kv.quant.max_abs_err",
    "kv.quant.mean_abs_err",
    "kv.quant.rel_rms",
)


def reject_constant(token):
    """json parse_constant hook: NaN / Infinity are not JSON."""
    raise ValueError(f"non-finite number {token!r} is not valid JSON")


def fail(path, msg, errors):
    errors.append(f"{path}: {msg}")


def check_metrics_snapshot(path, where, snap, errors):
    if not isinstance(snap, dict):
        return fail(path, f"{where}: metrics snapshot must be an object", errors)
    if snap.get("schema_version") != METRICS_SCHEMA_VERSION:
        return fail(
            path,
            f"{where}: metrics schema_version must be {METRICS_SCHEMA_VERSION}, "
            f"got {snap.get('schema_version')!r}",
            errors,
        )
    for key in ("counters", "gauges", "histograms"):
        if not isinstance(snap.get(key), list):
            return fail(path, f"{where}: missing metrics array {key!r}", errors)
    for c in snap["counters"]:
        if not isinstance(c.get("name"), str) or not isinstance(c.get("value"), int):
            fail(path, f"{where}: bad counter entry {c!r}", errors)
    for g in snap["gauges"]:
        if not isinstance(g.get("name"), str) or not isinstance(g.get("value"), NUMBER):
            fail(path, f"{where}: bad gauge entry {g!r}", errors)
            continue
        # kv.dtype is a labeled gauge: label names the dtype, value is bits per element.
        if g["name"] == "kv.dtype":
            label = g.get("label")
            if label not in KV_DTYPES:
                fail(path, f"{where}: kv.dtype label must be one of {sorted(KV_DTYPES)}, "
                           f"got {label!r}", errors)
            elif g["value"] != KV_DTYPES[label]:
                fail(path, f"{where}: kv.dtype[{label}] must be {KV_DTYPES[label]} bits, "
                           f"got {g['value']!r}", errors)
        elif g["name"] == "kv.quant.rel_rms" and not 0.0 <= g["value"] <= 1.0:
            fail(path, f"{where}: kv.quant.rel_rms out of [0,1]: {g['value']!r}", errors)
        elif g["name"] in KV_QUANT_GAUGES and g["value"] < 0:
            fail(path, f"{where}: {g['name']} must be non-negative, got {g['value']!r}",
                 errors)
    for h in snap["histograms"]:
        if not isinstance(h.get("name"), str):
            fail(path, f"{where}: histogram entry without a name", errors)
            continue
        bounds, counts = h.get("bounds"), h.get("counts")
        if not isinstance(bounds, list) or not isinstance(counts, list):
            fail(path, f"{where}: histogram {h['name']!r} missing bounds/counts", errors)
        elif len(counts) != len(bounds) + 1:
            fail(
                path,
                f"{where}: histogram {h['name']!r} needs len(counts) == len(bounds)+1",
                errors,
            )


def check_report(path, errors):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f, parse_constant=reject_constant)
    except (OSError, ValueError) as e:
        return fail(path, f"unreadable or invalid JSON: {e}", errors)

    if not isinstance(doc, dict):
        return fail(path, "top level must be an object", errors)
    if doc.get("schema_version") != BENCH_SCHEMA_VERSION:
        return fail(
            path,
            f"schema_version must be {BENCH_SCHEMA_VERSION}, "
            f"got {doc.get('schema_version')!r}",
            errors,
        )
    for key, typ in (
        ("bench", str),
        ("title", str),
        ("paper_ref", str),
        ("git_sha", str),
        ("smoke", bool),
        ("notes", list),
        ("rows", list),
    ):
        if not isinstance(doc.get(key), typ):
            fail(path, f"missing or mistyped required field {key!r} ({typ.__name__})", errors)
    rows = doc.get("rows")
    if isinstance(rows, list):
        if not rows:
            fail(path, "rows must not be empty", errors)
        for i, row in enumerate(rows):
            if not isinstance(row, dict) or not isinstance(row.get("series"), str):
                fail(path, f"rows[{i}] must be an object with a string 'series'", errors)
    for i, note in enumerate(doc.get("notes") or []):
        if not isinstance(note, str):
            fail(path, f"notes[{i}] must be a string", errors)
    for i, ref in enumerate(doc.get("references") or []):
        if not isinstance(ref, dict):
            fail(path, f"references[{i}] must be an object", errors)
            continue
        if not isinstance(ref.get("metric"), str):
            fail(path, f"references[{i}] missing string 'metric'", errors)
        for key in ("measured", "paper"):
            if not isinstance(ref.get(key), NUMBER):
                fail(path, f"references[{i}] missing numeric {key!r}", errors)
    for i, m in enumerate(doc.get("metrics") or []):
        if not isinstance(m, dict) or "snapshot" not in m:
            fail(path, f"metrics[{i}] must be an object with a 'snapshot'", errors)
            continue
        check_metrics_snapshot(path, f"metrics[{i}]", m["snapshot"], errors)

    # Optional (additive) env block: the knob values the run was produced under. When
    # present it must map knob names to strings ("" = unset) so two reports diff
    # field-for-field.
    env = doc.get("env")
    if env is not None:
        if not isinstance(env, dict):
            fail(path, "env must be an object", errors)
        else:
            for k, v in env.items():
                if not isinstance(k, str) or not isinstance(v, str):
                    fail(path, f"env[{k!r}] must map a string knob to a string value",
                         errors)

    # Bench-specific: fig16's KV-dtype axis must sweep every storage mode with the fields
    # the EXPERIMENTS.md headline numbers are read from.
    if doc.get("bench") == "fig16_cpu_memory" and isinstance(rows, list):
        kv_rows = [r for r in rows
                   if isinstance(r, dict) and r.get("series") == "kv_dtype"]
        if not kv_rows:
            fail(path, "fig16_cpu_memory must report a 'kv_dtype' row series", errors)
        seen = set()
        for r in kv_rows:
            dtype = r.get("kv_dtype")
            if dtype not in KV_DTYPES:
                fail(path, f"kv_dtype row with unknown dtype {dtype!r}", errors)
                continue
            seen.add(dtype)
            if r.get("kv_bits") != KV_DTYPES[dtype]:
                fail(path, f"kv_dtype row {dtype}: kv_bits must be {KV_DTYPES[dtype]}",
                     errors)
            for key in ("peak_physical_bytes", "compression_vs_f16", "attn_rel_rms"):
                if not isinstance(r.get(key), NUMBER):
                    fail(path, f"kv_dtype row {dtype}: missing numeric {key!r}", errors)
        if kv_rows and seen != set(KV_DTYPES):
            fail(path, f"kv_dtype rows must cover {sorted(KV_DTYPES)}, got {sorted(seen)}",
                 errors)

    # Bench-specific: the speculative sweep must carry a plain-decode baseline, the
    # default-preset row the CI speedup gate reads (compare_bench_perf.py --spec), and the
    # serving_request checksum rows the 1-vs-4-thread compare diffs.
    if doc.get("bench") == "speculative" and isinstance(rows, list):
        sweep = [r for r in rows
                 if isinstance(r, dict) and r.get("series") == "spec_sweep"]
        if not sweep:
            fail(path, "speculative must report a 'spec_sweep' row series", errors)
        for r in sweep:
            where = f"spec_sweep row (draft={r.get('draft')!r}, gamma={r.get('gamma')!r})"
            if not isinstance(r.get("draft"), str) or not isinstance(r.get("gamma"), int):
                fail(path, f"{where}: needs string 'draft' and int 'gamma'", errors)
                continue
            if r["gamma"] < 0:
                fail(path, f"{where}: gamma must be >= 0", errors)
            for key in ("acceptance", "measured_acceptance"):
                v = r.get(key)
                if not isinstance(v, NUMBER) or not 0.0 <= v <= 1.0:
                    fail(path, f"{where}: {key} must be in [0,1], got {v!r}", errors)
            for key in ("tokens_per_second", "speedup_vs_plain"):
                if not isinstance(r.get(key), NUMBER) or r[key] <= 0:
                    fail(path, f"{where}: {key} must be a positive number", errors)
            if not isinstance(r.get("joules_per_token"), NUMBER) or r["joules_per_token"] < 0:
                fail(path, f"{where}: joules_per_token must be non-negative", errors)
            if not isinstance(r.get("default_preset"), bool):
                fail(path, f"{where}: missing bool 'default_preset'", errors)
        plain = [r for r in sweep if r.get("gamma") == 0]
        if len(plain) != 1:
            fail(path, f"spec_sweep needs exactly one gamma=0 plain-decode baseline row, "
                       f"got {len(plain)}", errors)
        if sweep and not any(r.get("default_preset") is True for r in sweep):
            fail(path, "spec_sweep needs a default_preset row (the CI speedup gate input)",
                 errors)
        requests = [r for r in rows
                    if isinstance(r, dict) and r.get("series") == "serving_request"]
        if not requests:
            fail(path, "speculative must report 'serving_request' checksum rows", errors)
        for r in requests:
            if not isinstance(r.get("tokens"), int) or not isinstance(
                    r.get("token_checksum"), str):
                fail(path, f"serving_request row {r.get('request')!r}: needs int 'tokens' "
                           f"and string 'token_checksum'", errors)

    # Bench-specific: the long-context tiered-offload sweep (docs/long_context.md).
    if doc.get("bench") == "longcontext" and isinstance(rows, list):
        check_longcontext(path, doc, rows, errors)


def check_longcontext(path, doc, rows, errors):
    """Bench-specific checks for BENCH_longcontext.json (docs/long_context.md)."""
    sweep = [r for r in rows
             if isinstance(r, dict) and r.get("series") == "longcontext_sweep"]
    if not sweep:
        fail(path, "longcontext must report a 'longcontext_sweep' row series", errors)
    for r in sweep:
        where = (f"longcontext_sweep row (context={r.get('context')!r}, "
                 f"read_gbps={r.get('read_gbps')!r}, window={r.get('window_blocks')!r})")
        if not isinstance(r.get("context"), int) or r.get("context", 0) <= 0:
            fail(path, f"{where}: 'context' must be a positive int", errors)
        if not isinstance(r.get("admitted"), bool):
            fail(path, f"{where}: missing bool 'admitted'", errors)
            continue
        for key in ("resident_block_budget", "sink_blocks", "window_blocks"):
            if not isinstance(r.get(key), int) or r[key] < 0:
                fail(path, f"{where}: {key} must be a non-negative int", errors)
        if not isinstance(r.get("read_gbps"), NUMBER) or r.get("read_gbps", 0) <= 0:
            fail(path, f"{where}: 'read_gbps' must be a positive number", errors)
        if r["admitted"]:
            if not isinstance(r.get("tokens_per_second"), NUMBER) or \
                    r["tokens_per_second"] <= 0:
                fail(path, f"{where}: admitted row needs positive 'tokens_per_second'",
                     errors)
            if not isinstance(r.get("flash_bytes"), int) or r["flash_bytes"] < 0:
                fail(path, f"{where}: admitted row needs non-negative int 'flash_bytes'",
                     errors)
            for key in ("ttft_seconds", "tpot_seconds", "flash_seconds"):
                if not isinstance(r.get(key), NUMBER) or r[key] < 0:
                    fail(path, f"{where}: admitted row needs non-negative {key!r}", errors)
            sf = r.get("stall_fraction")
            if not isinstance(sf, NUMBER) or not 0.0 <= sf <= 1.0:
                fail(path, f"{where}: stall_fraction must be in [0,1], got {sf!r}", errors)
        elif not isinstance(r.get("error"), str) or not r["error"]:
            fail(path, f"{where}: rejected row must carry a non-empty string 'error'",
                 errors)
    # The headline demo must be present: a 64k context rejected DRAM-only but admitted
    # with the flash tier behind the same resident budget.
    big = [r for r in sweep if r.get("context") == 65536]
    if big and doc.get("smoke") is not True:
        if not any(r.get("admitted") is False for r in big):
            fail(path, "longcontext_sweep needs a rejected DRAM-only 64k row", errors)
        if not any(r.get("admitted") is True for r in big):
            fail(path, "longcontext_sweep needs an admitted offloaded 64k row", errors)
    requests = [r for r in rows
                if isinstance(r, dict) and r.get("series") == "serving_request"]
    if not requests:
        fail(path, "longcontext must report 'serving_request' checksum rows", errors)
    for r in requests:
        if not isinstance(r.get("tokens"), int) or not isinstance(
                r.get("token_checksum"), str):
            fail(path, f"serving_request row {r.get('request')!r}: needs int 'tokens' "
                       f"and string 'token_checksum'", errors)
    if not isinstance(doc.get("env"), dict):
        fail(path, "longcontext must record the 'env' knob object "
                   "(HEXLLM_NUM_THREADS / HEXLLM_BENCH_SMOKE)", errors)
    summary = [r for r in rows
               if isinstance(r, dict) and r.get("series") == "functional_offload_summary"]
    if len(summary) != 1:
        fail(path, "longcontext needs exactly one 'functional_offload_summary' row",
             errors)
    else:
        s = summary[0]
        for key in ("demotions", "promotions", "demand_faults", "prefetch_hits",
                    "flash_read_bytes", "wear_write_ops"):
            if not isinstance(s.get(key), int) or s[key] < 0:
                fail(path, f"functional_offload_summary: {key} must be a non-negative "
                           f"int", errors)
        if s.get("lossless") is not True:
            fail(path, "functional_offload_summary: offloaded decode must be lossless "
                       "(token streams bit-identical to the DRAM-only run)", errors)


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    errors = []
    for path in argv[1:]:
        check_report(path, errors)
    for e in errors:
        print(f"SCHEMA VIOLATION  {e}")
    if errors:
        return 1
    print(f"OK: {len(argv) - 1} report(s) valid under bench schema v{BENCH_SCHEMA_VERSION}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
