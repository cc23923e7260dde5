#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload, or all of them.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n> --seconds <s> [--trace <0|1>]

Run it from the repository root. The binary is built with cargo into
$CARGO_TARGET_DIR (default `.bench_build`). A single workload passes its
arguments through and its last stdout line is the benchmark's JSON result.
`--workload all` runs every workload in a fresh process of its own (so each
peak RSS is its own), prints every metric each one measured by name and
unit, and ends with one JSON line over all of them.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["serve_multiseg", "paper_cold", "ingest_churn"]

# The end-to-end metrics the benchmark's issue names, with the report metric
# each is read from and the workloads that measure it.
SUMMARY = [
    ("setup_s", "setup_s", WORKLOADS),
    ("query_p50_us", "query_p50_us", WORKLOADS),
    ("query_p99_us", "query_p99_us", WORKLOADS),
    ("qps", "qps", WORKLOADS),
    ("cold_cost_dil", "storage.cold_cost_dil", ["paper_cold"]),
    ("cold_cost_rdil", "storage.cold_cost_rdil", ["paper_cold"]),
    ("cold_cost_hdil", "storage.cold_cost_hdil", ["paper_cold"]),
    ("add_p50_us", "core.update.add_p50_us", ["ingest_churn"]),
    ("commit_p50_ms", "core.update.commit_p50_ms", ["ingest_churn"]),
    ("commit_p95_ms", "core.update.commit_p95_ms", ["ingest_churn"]),
    ("ingest_docs_per_s", "core.update.ingest_docs_per_s", ["ingest_churn"]),
    ("peak_rss_mb", "peak_rss_mb", WORKLOADS),
    ("disk_bytes_per_xml_byte", "store_bytes_per_xml_byte", ["serve_multiseg", "ingest_churn"]),
    ("ops_failed_frac", "ops_failed_frac", WORKLOADS),
]


def build():
    """Builds the benchmark; returns the binary's path. Exits on failure."""
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(ROOT, target, "release", "xrank-perfbench")


def option(args, flag, default=None):
    return args[args.index(flag) + 1] if flag in args and args.index(flag) + 1 < len(args) else default


def run_all(binary, args):
    rest = []
    i = 0
    while i < len(args):
        if args[i] == "--workload":
            i += 2
            continue
        rest.append(args[i])
        i += 1
    if "--trace" not in rest:
        rest += ["--trace", "0"]
    trace = option(rest, "--trace")
    seed = option(rest, "--seed")
    results, reports = {}, {}
    for w in WORKLOADS:
        out = subprocess.run([binary, "--workload", w] + rest, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if out.returncode != 0:
            sys.exit(f"perfbench: {w} exited with {out.returncode}")
        results[w] = json.loads(out.stdout.strip().splitlines()[-1])
        path = os.path.join(ROOT, ".perfbench_work", f"report-{w}-seed{seed}-trace{trace}.json")
        with open(path) as f:
            reports[w] = json.load(f)
    for w in WORKLOADS:
        r = results[w]
        print(f"== {w}: attempted {r['attempted']}, failed {r['failed']}, correct {r['correct']}")
        for name, m in sorted(reports[w]["metrics"].items()):
            print(f"   {name:<36} {m['value']:>16.4f} {m['unit']}")
    if trace == "0":
        print("== end-to-end metrics")
        for name, source, where in SUMMARY:
            for w in where:
                m = reports[w]["metrics"].get(source)
                if m is not None:
                    print(f"   {name:<26} {w:<16} {m['value']:>16.4f} {m['unit']}")
    merged = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }
    print(json.dumps(merged))


def main():
    args = sys.argv[1:]
    binary = build()
    if option(args, "--workload") == "all":
        run_all(binary, args)
        return
    sys.exit(subprocess.run([binary] + args, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
