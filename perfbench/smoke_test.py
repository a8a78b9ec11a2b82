#!/usr/bin/env python3
"""Smoke test of the srl benchmark.

    python3 perfbench/smoke_test.py

Runs every workload (those of BENCHMARK.json and the metis-wrmem control) at tiny
size, untraced and traced, and checks that:
  * each run exits 0 and its last stdout line is the result object, with exactly the
    keys correct / attempted / failed / metrics and correct == true;
  * the first stdout line is the host/config stamp;
  * the metric names and units are exactly those BENCHMARK.json lists: the end-to-end
    metrics untraced, the per-layer metrics traced;
  * a deliberately corrupted kv-zipf record trips the correctness gate: non-zero exit,
    correct == false, failed > 0.
Exits non-zero on the first failed check.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STAMP_KEYS = {"nproc", "cpu_model", "numa_nodes", "compiler", "build_type", "git_sha",
              "seed", "seconds", "admission_cap", "retire_flush_threshold",
              "force_quiesce_after_ms"}


def run(workload, trace, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "2", "--trace", str(trace), "--tiny", "1", *extra]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = res.stdout.strip().splitlines()
    if len(lines) < 2:
        sys.exit(f"FAIL {workload} trace={trace}: no output\n{res.stderr[-3000:]}")
    return res.returncode, json.loads(lines[0]), json.loads(lines[-1]), res.stderr


def check(cond, msg):
    if not cond:
        sys.exit("FAIL " + msg)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    # metis-wrmem is not in BENCHMARK.json (see README.md) but stays runnable as a
    # control, so it is smoke-tested too.
    for w in [wl["name"] for wl in bench["workloads"]] + ["metis-wrmem"]:
        for trace in (0, 1):
            code, stamp, result, err = run(w, trace)
            tag = f"{w} trace={trace}"
            check(code == 0, f"{tag}: exit {code}\n{err[-3000:]}")
            check(STAMP_KEYS <= set(stamp.get("stamp", {})), f"{tag}: incomplete stamp")
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{tag}: result keys {sorted(result)}")
            check(result["correct"] is True and result["failed"] == 0, f"{tag}: not correct")
            check(isinstance(result["attempted"], int) and result["attempted"] >= 1,
                  f"{tag}: attempted {result['attempted']}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == expected[trace],
                  f"{tag}: metric names/units differ from BENCHMARK.json: "
                  f"missing {sorted(set(expected[trace].items()) - set(got.items()))}, "
                  f"extra {sorted(set(got.items()) - set(expected[trace].items()))}")
            check(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
                  f"{tag}: non-numeric value")
            print(f"ok   {tag}: {len(got)} metrics, {result['attempted']} ops")

    code, _, result, _ = run("kv-zipf", 0, ["--inject-fault", "corrupt-record"])
    check(code != 0 and result["correct"] is False and result["failed"] > 0,
          f"corrupt-record: gate did not trip (exit {code}, result {result['correct']})")
    print(f"ok   kv-zipf corrupt-record: exit {code}, {result['failed']} failed ops")
    print("smoke test passed")


if __name__ == "__main__":
    main()
