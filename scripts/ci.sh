#!/usr/bin/env bash
# Tier-1 verification: release build, full workspace test suite, and
# clippy with warnings denied. CI and pre-merge checks run exactly this.
#
# Every step runs even when an earlier one fails, so one failing gate
# does not hide the results of the rest; the failed steps are listed at
# the end and the script exits non-zero if there were any.
#
# Usage: scripts/ci.sh
set -uo pipefail
cd "$(dirname "$0")/.."

FAILED=()

# step NAME CMD...: runs CMD under a header and records NAME if it fails.
step() {
    local name=$1
    shift
    echo "== $name =="
    if ! "$@"; then
        echo "ci: FAILED: $name"
        FAILED+=("$name")
    fi
}

fault_suites() {
    cargo test -q -p xrank-core --offline --test fault_injection &&
        cargo test -q -p xrank-core --offline --test persistence
}

MIG=$(mktemp -d "${TMPDIR:-/tmp}/xrank-migrate-smoke.XXXXXX")
trap 'rm -rf "$MIG" "$MIG.err"' EXIT
migrate_smoke() {
    cp -r crates/core/tests/fixtures/v1_store/store "$MIG/" || return 1
    if target/release/xrank search "$MIG" xql language 2> "$MIG.err"; then
        echo "migrate smoke: search on an old-format index must fail"; return 1
    fi
    grep -q migrate "$MIG.err" || { cat "$MIG.err"; echo "migrate smoke: no migrate hint"; return 1; }
    target/release/xrank migrate "$MIG" > /dev/null || return 1
    target/release/xrank search "$MIG" xql language | grep -q '^ *1\. ' \
        || { echo "migrate smoke: migrated index returned no hits"; return 1; }
}

step "cargo build --release" cargo build --release --offline
step "cargo test -q --workspace" cargo test -q --workspace --offline
step "fault-injection suite (explicit)" fault_suites
step "fault smoke (corrupt a page, assert typed failure + recovery)" scripts/fault_smoke.sh
step "migrate smoke (an old-format index is refused, then migrated)" migrate_smoke
step "obs smoke (EXPLAIN stages + Prometheus exposition)" scripts/obs_smoke.sh
step "overload smoke (typed shedding + degraded EXPLAIN trigger)" scripts/overload_smoke.sh
step "update smoke (crash recovery + read latency through commits)" scripts/update_smoke.sh
step "durability smoke (WAL replay + scrub/quarantine/self-repair)" scripts/durability_smoke.sh
step "trace smoke (flight recorder -> Perfetto trace dump)" scripts/trace_smoke.sh
step "probe-path smoke (RDIL cursor/memo descent reduction)" \
    env BENCH_THROUGHPUT_QUICK=1 cargo run --release --offline -p xrank-bench --bin e8_throughput
step "cargo clippy --workspace -- -D warnings" \
    cargo clippy --workspace --all-targets --offline -- -D warnings

if [ ${#FAILED[@]} -gt 0 ]; then
    echo "ci: ${#FAILED[@]} step(s) failed:"
    printf '  - %s\n' "${FAILED[@]}"
    exit 1
fi
echo "ci: all green"
