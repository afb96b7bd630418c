#!/usr/bin/env bash
# Workspace lint gate: clippy (warnings are errors) + rustfmt check.
# Run from anywhere; operates on the repository the script lives in.
set -euo pipefail
cd "$(dirname "$0")/.."

# --workspace covers every crate, including crates/runner (the parallel
# job engine); the explicit -p guards against the crate ever being
# dropped from the workspace members list unnoticed.
cargo clippy --workspace -p warped-runner --all-targets -- -D warnings
cargo fmt --check

# Every crate's tests, not only the root package's that `cargo test`
# runs: the unit tests of the trace sinks, checker, model checker,
# journal, retry and SM logic live in the member crates.
cargo test --workspace -q

# The benchmark harness is a workspace of its own, so the steps above
# never build it: build it and run its self-tests so a crate API change
# cannot break the benchmark unnoticed.
cargo build --release --offline --manifest-path perfbench/Cargo.toml
cargo test -q --offline --manifest-path perfbench/Cargo.toml

# Trace invariant suite: Algorithm-1 invariants I1-I5 plus the
# trace-then-replay report check, over every benchmark at Tiny scale.
cargo run -q -p warped-cli -- invariants --check

# A reader that stops early (`| head`) must end the CLI quietly with
# success, not a broken-pipe panic; pipefail makes its status count.
(set -o pipefail; cargo run -q -p warped-cli -- trace SHA --format jsonl | head -1 > /dev/null)

# The steps above only compile the examples; run the fault-campaign one
# so a runtime error in it fails the gate.
cargo run -q --release --example fault_campaign 2 > /dev/null

# Campaign resilience smoke: forced-panic retry and checkpoint resume
# must reproduce an undisturbed campaign byte-for-byte.
./scripts/campaign_smoke.sh

# Certification gate: model-check the Replay Checker against Algorithm 1
# (invariants I1-I5) and verify the static coverage bound against a
# measured run, for one uniform and one divergent suite kernel. The
# command exits non-zero on any violation or unsound bound.
cargo run -q -p warped-cli -- certify SHA --depth 6 > /dev/null
cargo run -q -p warped-cli -- certify BitonicSort --depth 6 > /dev/null
echo "lint: clean"
