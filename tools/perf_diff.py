#!/usr/bin/env python3
"""Compare two BENCH_*.json sets and flag throughput regressions.

The bench binaries (fig3/5/6/7, abl_trylock, abl_scoped_structural, ...) emit a common
JSON schema via BenchJson (src/harness/table.h):

    {"bench": "<name>", "tables": [
      {"meta": {...}, "headers": [...], "rows": [{"<header>": <value>, ...}, ...]}
    ]}

This tool pairs up rows between a baseline set and a current set and compares their
throughput-like columns (by default every numeric column whose header ends in "/sec").
Rows are keyed by the table index plus every string-valued cell (variant names, lock
names, ...) plus any integer-valued known key column (threads, readers, ...), so
reordering rows or adding new variants never mispairs measurements.

A row regresses when current < baseline * (1 - threshold). Noise handling: benches
report a "rel-stddev%" column (or several, e.g. "faults-rel-stddev%"); when any of them
on either side of a comparison is above --noise-cap, the finding is reported as NOISY
and does not affect the exit code (shared CI runners routinely show 2x swings on
contended microbenches).

Schema drift is reported, never silently skipped: a metric column present on only one
side is flagged METRIC-ADDED / METRIC-REMOVED (per table), a row present only in the
baseline is MISSING, a row present only in the current run is ADDED, a whole bench
present only in the current set is NEW-BENCH, and the closing summary counts them all —
so a bench that grew (or lost) variants or per-stripe keys shows up as an explicit
schema change rather than a quietly shrinking comparison. New-variant rows (e.g. a lock
added to a bench's default roster) therefore arrive as ADDED/NEW-BENCH drift, never as
a failure.

Exit codes: 0 = no firm regressions, 1 = at least one firm regression, 2 = usage or
input error. Schema drift never affects the exit code. --advisory forces exit 0 while
still printing everything (for CI lanes on shared hardware where the report is
informational).

Usage:
    tools/perf_diff.py BASELINE CURRENT [--threshold 10] [--noise-cap 25]
                       [--metrics col1,col2] [--advisory] [--verbose]

BASELINE and CURRENT are each either a BENCH_*.json file or a directory containing
BENCH_*.json files (matched to each other by the embedded "bench" name).
"""

import argparse
import json
import os
import sys

KEY_COLUMNS = {"variant", "threads", "readers", "lock", "segments", "pool", "list-len",
               "workload", "mode", "bench", "stripes", "stripe", "role", "cold-drop",
               "gate", "mix"}
STDDEV_COLUMN = "rel-stddev%"


def fail(msg):
    print(f"perf_diff: error: {msg}", file=sys.stderr)
    sys.exit(2)


def load_bench_files(path):
    """Returns {bench_name: parsed_json} for a file or a directory of BENCH_*.json."""
    if os.path.isdir(path):
        out = {}
        for name in sorted(os.listdir(path)):
            if name.endswith(".json") and name.startswith("BENCH"):
                full = os.path.join(path, name)
                data = parse_file(full)
                out[data.get("bench", name)] = data
        if not out:
            fail(f"no BENCH_*.json files under directory {path}")
        return out
    data = parse_file(path)
    return {data.get("bench", os.path.basename(path)): data}


def parse_file(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except FileNotFoundError:
        fail(f"cannot open {path}")
    except json.JSONDecodeError as e:
        fail(f"{path} is not valid JSON: {e}")


def row_key(table_index, row):
    """Stable identity of a measurement row: table index + every key-ish cell."""
    parts = [("table", table_index)]
    for col, val in row.items():
        if isinstance(val, str) or col in KEY_COLUMNS:
            parts.append((col, val))
    return tuple(sorted(parts))


def metric_columns(headers, explicit):
    if explicit:
        return [c for c in explicit if c in headers]
    return [h for h in headers if h.endswith("/sec")]


def index_rows(data):
    """Returns {row_key: (row, table_meta)} across all tables of one bench."""
    out = {}
    for t_idx, table in enumerate(data.get("tables", [])):
        for row in table.get("rows", []):
            out[row_key(t_idx, row)] = (row, table.get("meta", {}))
    return out


def fmt_key(key):
    return " ".join(f"{c}={v}" for c, v in key if c != "table")


def table_headers(data):
    """Returns {table_index: headers}."""
    return {i: t.get("headers", []) for i, t in enumerate(data.get("tables", []))}


def compare_bench(name, base, cur, args, findings):
    base_headers = table_headers(base)
    cur_headers = table_headers(cur)

    # Metric-set drift, per table: a metric on only one side is schema change, not a
    # silent skip. Comparison proceeds over the shared metrics.
    shared_metrics = {}
    any_metrics = False
    for t_idx in sorted(set(base_headers) | set(cur_headers)):
        bm = metric_columns(base_headers.get(t_idx, []), args.metrics)
        cm = metric_columns(cur_headers.get(t_idx, []), args.metrics)
        for col in bm:
            if col not in cm and t_idx in cur_headers:
                findings.append(("METRIC-REMOVED", name, f"table {t_idx}",
                                 f"metric column '{col}' only in baseline", 0.0))
        for col in cm:
            if col not in bm and t_idx in base_headers:
                findings.append(("METRIC-ADDED", name, f"table {t_idx}",
                                 f"metric column '{col}' only in current run", 0.0))
        shared_metrics[t_idx] = [c for c in bm if c in cm]
        any_metrics = any_metrics or bool(bm) or bool(cm)
    if not any_metrics:
        findings.append(("SKIP", name, "", "no throughput columns to compare", 0.0))
        return

    base_rows = index_rows(base)
    cur_rows = index_rows(cur)
    matched = 0
    for key, (brow, _) in base_rows.items():
        if key not in cur_rows:
            findings.append(("MISSING", name, fmt_key(key),
                             "row present in baseline but not in current run", 0.0))
            continue
        crow, _ = cur_rows[key]
        matched += 1
        noisy = False
        for row in (brow, crow):
            for col, stddev in row.items():
                if (col.endswith(STDDEV_COLUMN) and isinstance(stddev, (int, float))
                        and stddev > args.noise_cap):
                    noisy = True
        t_idx = dict(key).get("table", 0)
        for col in shared_metrics.get(t_idx, []):
            bval, cval = brow.get(col), crow.get(col)
            if not isinstance(bval, (int, float)) or not isinstance(cval, (int, float)):
                continue
            if bval <= 0:
                continue
            delta = (cval - bval) / bval * 100.0
            if cval < bval * (1.0 - args.threshold / 100.0):
                kind = "NOISY-REGRESSION" if noisy else "REGRESSION"
                findings.append((kind, name, fmt_key(key),
                                 f"{col}: {bval:.0f} -> {cval:.0f}", delta))
            elif args.verbose:
                findings.append(("OK", name, fmt_key(key),
                                 f"{col}: {bval:.0f} -> {cval:.0f}", delta))
    for key in cur_rows:
        if key not in base_rows:
            findings.append(("ADDED", name, fmt_key(key),
                             "row present only in current run", 0.0))
    if matched == 0:
        findings.append(("SKIP", name, "", "no rows matched between the two sets", 0.0))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline", help="BENCH_*.json file or directory")
    ap.add_argument("current", help="BENCH_*.json file or directory")
    ap.add_argument("--threshold", type=float, default=10.0,
                    help="regression threshold in percent (default 10)")
    ap.add_argument("--noise-cap", type=float, default=25.0,
                    help="rel-stddev%% above which a finding is only advisory "
                         "(default 25)")
    ap.add_argument("--metrics", type=lambda s: s.split(","), default=None,
                    help="comma-separated metric columns (default: every */sec column)")
    ap.add_argument("--advisory", action="store_true",
                    help="always exit 0 (report-only mode for noisy CI hardware)")
    ap.add_argument("--verbose", action="store_true",
                    help="also print rows that did not regress")
    args = ap.parse_args()

    base_set = load_bench_files(args.baseline)
    cur_set = load_bench_files(args.current)

    findings = []
    compared = []
    for name, base in sorted(base_set.items()):
        if name not in cur_set:
            findings.append(("SKIP", name, "", "bench absent from current set", 0.0))
            continue
        compared.append(name)
        compare_bench(name, base, cur_set[name], args, findings)
    for name in sorted(cur_set):
        if name not in base_set:
            findings.append(("NEW-BENCH", name, "",
                             "bench absent from baseline set (schema drift, "
                             "not a failure)", 0.0))

    firm = [f for f in findings if f[0] == "REGRESSION"]
    noisy = [f for f in findings if f[0] == "NOISY-REGRESSION"]
    schema_kinds = ("SKIP", "MISSING", "ADDED", "METRIC-ADDED", "METRIC-REMOVED",
                    "NEW-BENCH")

    print(f"perf_diff: compared {compared or 'nothing'} at threshold "
          f"{args.threshold:.0f}% (noise cap {args.noise_cap:.0f}% rel-stddev)")
    for kind, bench, key, detail, delta in findings:
        suffix = f"  ({delta:+.1f}%)" if kind not in schema_kinds else ""
        location = f"{bench}: {key}" if key else bench
        print(f"  [{kind}] {location}  {detail}{suffix}")
    counts = {k: sum(1 for f in findings if f[0] == k) for k in schema_kinds}
    print(f"perf_diff: {len(firm)} firm regression(s), {len(noisy)} noisy; schema "
          f"drift: {counts['ADDED']} added row(s), {counts['MISSING']} missing row(s), "
          f"{counts['METRIC-ADDED']} added metric(s), "
          f"{counts['METRIC-REMOVED']} removed metric(s), "
          f"{counts['NEW-BENCH']} new bench(es)")

    if firm and not args.advisory:
        sys.exit(1)
    sys.exit(0)


if __name__ == "__main__":
    main()
