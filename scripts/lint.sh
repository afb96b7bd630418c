#!/usr/bin/env bash
# Workspace lint gate: clippy (warnings are errors) + rustfmt check +
# rustdoc (warnings are errors).
# Run from anywhere; operates on the repository the script lives in.
set -euo pipefail
cd "$(dirname "$0")/.."

# --workspace covers every crate, including crates/runner (the parallel
# job engine); the explicit -p guards against the crate ever being
# dropped from the workspace members list unnoticed.
cargo clippy --workspace -p warped-runner --all-targets -- -D warnings
cargo fmt --check

# The simulator reports only through its issue-stream observer; tracing
# wraps that observer from outside. A warped-trace dependency would let
# the simulator regrow a second output channel unnoticed.
if cargo tree -p warped-sim -e normal --offline | grep -q warped-trace; then
    echo "lint: warped-sim must not depend on warped-trace" >&2
    exit 1
fi

# The SM issue loop is the only timing model: a crate outside the
# simulator that reads a pipeline latency is growing a second one.
# (src/experiments/config_tables.rs prints them for Table 3; it is not
# under crates/.)
latency_readers=$(grep -rlwE --include='*.rs' \
    'sp_latency|sfu_latency|shared_latency|global_latency|rf_latency|writeback_latency' \
    crates | grep -v '^crates/sim/' || true)
if [ -n "$latency_readers" ]; then
    echo "lint: only crates/sim may read pipeline latencies, not:" >&2
    echo "$latency_readers" >&2
    exit 1
fi

# JSON is formatted in one place, crates/trace/src/json.rs: an escaped
# JSON key (`\"name\":`) in a string literal elsewhere is a second,
# hand-written writer. Unit tests (after a file's first `#[cfg(test)]`)
# may spell out expected documents.
json_writers=$(grep -rlE --include='*.rs' '\\"[a-z_]+\\":' crates src |
    grep -v '^crates/trace/src/json\.rs$' |
    xargs -r awk '/#\[cfg\(test\)\]/ { nextfile } /\\"[a-z_]+\\":/ { print FILENAME; nextfile }' ||
    true)
if [ -n "$json_writers" ]; then
    echo "lint: only crates/trace/src/json.rs may format JSON, not:" >&2
    echo "$json_writers" >&2
    exit 1
fi

# The SM decodes each issue's registers once and hands them to every
# observer in `IssueInfo::srcs`/`dst`: a `src_regs()` call in the
# simulator, the DMR engine, the trace layer or the kernels' tracer
# decodes again. Unit tests (after a file's first `#[cfg(test)]`) may
# decode; crates/isa defines the decode and crates/analysis reads whole
# kernels statically, so neither is checked.
redecoders=$(grep -rl --include='*.rs' 'src_regs()' crates/sim crates/core crates/kernels crates/trace |
    xargs -r awk '/#\[cfg\(test\)\]/ { nextfile } /src_regs\(\)/ { print FILENAME; nextfile }' ||
    true)
if [ -n "$redecoders" ]; then
    echo "lint: read IssueInfo::srcs instead of decoding with src_regs() in:" >&2
    echo "$redecoders" >&2
    exit 1
fi

# The figure modules read the run plan and simulate nothing themselves:
# `Runs::simulate` builds, simulates and checks every run they read, once
# for all of them. A workload build or a simulation call in one of them
# (outside its unit tests) is a second, unplanned and unshared run.
simulators=$(grep -lE '\.build\(|run_with\(|run_on\(|run_traced\(' \
    src/experiments/fig*.rs src/experiments/coverage_profile.rs |
    xargs -r awk '/#\[cfg\(test\)\]/ { nextfile }
        /\.build\(|run_with\(|run_on\(|run_traced\(/ { print FILENAME; nextfile }' ||
    true)
if [ -n "$simulators" ]; then
    echo "lint: figure modules read Runs and must not simulate, but these do:" >&2
    echo "$simulators" >&2
    exit 1
fi

# Rustdoc with warnings as errors: a moved or renamed item must not
# leave a dangling intra-doc link behind.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

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

# The steps above only compile the examples; run every one so a runtime
# error in it fails the gate (all four take under a second in release).
cargo run -q --release --example fault_campaign 2 > /dev/null
for example in quickstart scheme_comparison reliability_report; do
    cargo run -q --release --example "$example" > /dev/null
done

# Campaign resilience smoke: forced-panic retry and checkpoint resume
# must reproduce an undisturbed campaign byte-for-byte.
./scripts/campaign_smoke.sh

# Certification gate: model-check the Replay Checker against Algorithm 1
# (invariants I1-I5) at the default depth and verify the static coverage
# bound against a measured run. The command exits non-zero on any
# violation, a model check cut short by its state budget, or an unsound
# bound. The model check does not depend on the kernel, so one kernel
# covers the exit path; the workspace tests above assert the default-depth
# model check (`model_check_is_clean_and_nontrivial_at_default_depth`) and
# the bound of the divergent BitonicSort (`certify_json_is_pinned`).
cargo run -q -p warped-cli -- certify SHA > /dev/null
echo "lint: clean"
