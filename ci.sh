#!/usr/bin/env sh
# Local CI gate: formatting, lints, and the tier-1 verify from ROADMAP.md.
set -eu

cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> rustdoc gate: cargo doc --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "==> tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

echo "==> full workspace tests"
cargo test -q --workspace

echo "==> differential suites: incremental EDF timeline + phantom fast path + prune/warm-start/presolve references + simulator tie-break order + warm-pool sweep"
cargo test -q -p rtrm-sched --test incremental
cargo test -q -p rtrm-core --test phantom_fastpath
cargo test -q -p rtrm-core --test prune_differential
PROPTEST_CASES=400 cargo test --release -q -p rtrm-core --test prune_differential
cargo test -q -p rtrm-core --test warmstart_differential
cargo test -q -p rtrm-core --test presolve_differential
cargo test -q -p rtrm-sim --test phantom_differential
cargo test -q -p rtrm-sim --test accounting
cargo test -q -p rtrm-bench --test sweep_differential

echo "==> horizon: confidence gate properties + theta-endpoint differentials"
cargo test -q -p rtrm-core --test horizon_gate
cargo test -q -p rtrm-sim --test horizon_differential

echo "==> service: sharded-vs-sequential differential + overload degradation + histogram merge"
cargo test -q -p rtrm-service --test service_differential
cargo test -q -p rtrm-service --test overload
# A release-built worker drains fast enough for the producer to race it.
cargo test --release -q -p rtrm-service --test overload
cargo test -q -p rtrm-service --test histogram_merge

echo "==> fault injection: anytime MILP ladder + batch quarantine + sweep persistence"
cargo test -q -p rtrm-sim --test anytime_milp
cargo test -q -p rtrm-sim --test fault_injection
cargo test -q -p rtrm-bench --test fault_injection

echo "==> chaos: cooperative sweep workers killed mid-protocol (hard 300 s timeout)"
# The suite spawns real child worker processes; the timeout turns a hung
# orphan into a build failure instead of a wedged CI run.
timeout 300 cargo test -q -p rtrm-bench --test chaos_coop

echo "==> BENCH_*.json schema sanity"
cargo test -q -p rtrm-bench --test bench_json_schema

echo "==> perfbench smoke: every workload end to end, decisions checked"
cargo test --release -q --manifest-path perfbench/Cargo.toml

echo "CI OK"
