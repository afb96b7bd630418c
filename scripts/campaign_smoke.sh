#!/usr/bin/env bash
# Campaign resilience smoke: a tiny resilient campaign must survive a
# forced-panic chunk (retried transparently, same bytes) and resume
# from its checkpoint journal byte-identically. Exercises the retry,
# checkpoint, and resume paths end to end through the real CLI, on a
# single-launch kernel (SCAN, broken comparator) and a multi-launch one
# (BFS). On BFS, trial passes simulate only the launches their fault
# touches and replay the others from the golden launch log: lane
# transients exercise detection passes that stop at the first mismatch,
# a broken comparator exercises architectural passes that replay
# launches around the ones they simulate, and an RF-slot fault exercises
# detection passes that must simulate every launch.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

run() {
  cargo run -q -p warped-cli -- campaign "$@" --json
}

# smoke NAME CAMPAIGN-ARGS...
smoke() {
  local name="$1"
  shift
  run "$@" > "$tmp/$name.base.json"

  # Chunk 0's first two attempts panic (inside the default retry
  # budget); the campaign must recover and produce identical bytes. The
  # panic backtraces on stderr are the point, not a problem.
  run "$@" --checkpoint "$tmp/$name.jsonl" --fail-chunk 0:2 > "$tmp/$name.panic.json"
  cmp "$tmp/$name.base.json" "$tmp/$name.panic.json"

  # Resume replays the finished chunk from the journal — still
  # identical, at a different worker count.
  run "$@" --checkpoint "$tmp/$name.jsonl" --resume --threads 1 > "$tmp/$name.resume.json"
  cmp "$tmp/$name.base.json" "$tmp/$name.resume.json"
}

smoke scan SCAN --site comparator --trials 4 --seed 7
smoke bfs BFS --site lane_transient --trials 8 --seed 7
smoke bfs-cmp BFS --site comparator --trials 8 --seed 7
smoke bfs-rfslot BFS --site rf_slot --trials 4 --seed 7

echo "campaign smoke: clean"
