#!/usr/bin/env python3
"""Tiny-size self-check of the benchmark.

    python3 perfbench/selfcheck.py

Builds the benchmark, then runs every workload of BENCHMARK.json briefly on
shrunken corpora, untraced and traced, and checks that:

* the last stdout line is one JSON object with exactly `correct`,
  `attempted`, `failed` and `metrics`, every answer passed its checks and
  `attempted` is at least 1;
* an untraced run reports exactly the `end_to_end` metrics of
  BENCHMARK.json, each with its declared unit and a finite value above 0;
* a traced run reports exactly the `per_layer` metrics, each with its unit,
  and writes a non-empty span file;
* a run told to forge one wrong hit counts it as failed.

Exits 0 when every check holds, 1 otherwise.
"""

import json
import math
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

TINY = ["--seed", "7", "--seconds", "1", "--scale", "0.03"]


def result(binary, workload, *extra):
    out = subprocess.run([binary, "--workload", workload] + TINY + list(extra),
                         cwd=run.ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600)
    if out.returncode != 0:
        raise AssertionError(f"{workload} {extra}: exit {out.returncode}\n{out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_metrics(got, declared, positive):
    names = {m["name"]: m["unit"] for m in declared}
    if set(got) != set(names):
        raise AssertionError(f"metrics differ: missing {sorted(set(names) - set(got))}, extra {sorted(set(got) - set(names))}")
    for name, m in got.items():
        if m["unit"] != names[name]:
            raise AssertionError(f"{name}: unit {m['unit']!r}, declared {names[name]!r}")
        v = m["value"]
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            raise AssertionError(f"{name}: value {v!r} is not a finite number")
        if positive and v <= 0:
            raise AssertionError(f"{name}: value {v} is not above 0")


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    binary = run.build()
    failures = []
    for w in [x["name"] for x in bench["workloads"]]:
        cases = [
            ("untraced", ["--trace", "0"]),
            ("traced", ["--trace", "1"]),
            ("forged", ["--trace", "0", "--forge-wrong-hit"]),
        ]
        for label, extra in cases:
            try:
                r = result(binary, w, *extra)
                if set(r) != {"correct", "attempted", "failed", "metrics"}:
                    raise AssertionError(f"result keys {sorted(r)}")
                if r["attempted"] < 1:
                    raise AssertionError("no operation attempted")
                if label == "forged":
                    if r["failed"] < 1 or r["correct"]:
                        raise AssertionError(f"forged wrong hit not counted: failed {r['failed']}, correct {r['correct']}")
                else:
                    if r["failed"] != 0 or not r["correct"]:
                        raise AssertionError(f"{r['failed']} of {r['attempted']} operations failed")
                if label == "untraced":
                    check_metrics(r["metrics"], bench["end_to_end"], positive=True)
                if label == "traced":
                    check_metrics(r["metrics"], bench["per_layer"], positive=False)
                    spans = os.path.join(run.ROOT, ".perfbench_work", f"spans-{w}-seed7-trace1.jsonl")
                    if not os.path.exists(spans) or os.path.getsize(spans) == 0:
                        raise AssertionError(f"no span file at {spans}")
                print(f"ok   {w} {label}: attempted {r['attempted']}, failed {r['failed']}")
            except (AssertionError, ValueError, subprocess.TimeoutExpired) as e:
                failures.append(f"{w} {label}: {e}")
                print(f"FAIL {w} {label}: {e}")
    if failures:
        sys.exit(1)
    print("selfcheck: all checks passed")


if __name__ == "__main__":
    main()
