#!/usr/bin/env bash
# Tier-1 verification: release build, full workspace test suite, and
# clippy with warnings denied. CI and pre-merge checks run exactly this.
#
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release =="
cargo build --release --offline

echo "== cargo test -q --workspace =="
cargo test -q --workspace --offline

echo "== fault-injection suite (explicit) =="
cargo test -q -p xrank-core --offline --test fault_injection
cargo test -q -p xrank-core --offline --test persistence

echo "== fault smoke (corrupt a page, assert typed failure + recovery) =="
scripts/fault_smoke.sh

echo "== migrate smoke (an old-format index is refused, then migrated) =="
MIG=$(mktemp -d "${TMPDIR:-/tmp}/xrank-migrate-smoke.XXXXXX")
trap 'rm -rf "$MIG"' EXIT
cp -r crates/core/tests/fixtures/v1_store/store "$MIG/"
if target/release/xrank search "$MIG" xql language 2> "$MIG.err"; then
    echo "migrate smoke: search on an old-format index must fail"; exit 1
fi
grep -q migrate "$MIG.err" || { cat "$MIG.err"; echo "migrate smoke: no migrate hint"; exit 1; }
rm -f "$MIG.err"
target/release/xrank migrate "$MIG" > /dev/null
target/release/xrank search "$MIG" xql language | grep -q '^ *1\. ' \
    || { echo "migrate smoke: migrated index returned no hits"; exit 1; }

echo "== obs smoke (EXPLAIN stages + Prometheus exposition) =="
scripts/obs_smoke.sh

echo "== overload smoke (typed shedding + degraded EXPLAIN trigger) =="
scripts/overload_smoke.sh

echo "== update smoke (crash recovery + read latency through commits) =="
scripts/update_smoke.sh

echo "== durability smoke (WAL replay + scrub/quarantine/self-repair) =="
scripts/durability_smoke.sh

echo "== trace smoke (flight recorder -> Perfetto trace dump) =="
scripts/trace_smoke.sh

echo "== probe-path smoke (RDIL cursor/memo descent reduction) =="
BENCH_THROUGHPUT_QUICK=1 cargo run --release --offline -p xrank-bench \
    --bin e8_throughput

echo "== cargo clippy --workspace -- -D warnings =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "ci: all green"
