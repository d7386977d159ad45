#!/usr/bin/env bash
# Offline-safe verification: format, build, test, lint, loopback TCP
# serve smokes, and the bench_compare gates over fresh smoke runs and the
# committed BENCH_perf.json. Everything here must pass with no network
# access (the workspace has no external dependencies; the serve smokes
# bind 127.0.0.1 only). Throughput is not judged here: scripts/ab.sh
# compares two revisions on the repository benchmark.
#
# Environment knobs:
#   VERIFY_SKIP_LINT=1        skip rustfmt/clippy (for MSRV toolchains whose
#                             lints differ from stable)
#   VERIFY_ARTIFACT_DIR=DIR   where bench JSON snapshots land
#                             (default target/verify; CI uploads this dir)
set -euo pipefail
cd "$(dirname "$0")/.."

ART_DIR="${VERIFY_ARTIFACT_DIR:-target/verify}"
mkdir -p "$ART_DIR"

if [[ -z "${VERIFY_SKIP_LINT:-}" ]]; then
    echo "== cargo fmt --check =="
    cargo fmt --all -- --check
fi

echo "== cargo build --workspace --release =="
cargo build --workspace --release

echo "== cargo test --workspace =="
cargo test --workspace --quiet

echo "== hotbench tests (own workspace, built against the library crates' APIs) =="
cargo test --release --offline --manifest-path hotbench/Cargo.toml

echo "== trace-equivalence suite (linked execution is bit-identical) =="
cargo test -p hotpath --test trace_equivalence --release --quiet

echo "== difffuzz smoke (all opt levels, faults on, 40 seeds) =="
./target/release/difffuzz --seeds 40

echo "== trace-opt suite (optimizer is bit-identical at every level) =="
cargo test -p hotpath --test trace_opt --release --quiet

if [[ -z "${VERIFY_SKIP_LINT:-}" ]]; then
    echo "== cargo clippy --workspace --all-targets (deny warnings) =="
    cargo clippy --workspace --all-targets -- -D warnings
fi

echo "== serve TCP smoke (spawn server, drive sessions, snapshot check) =="
rm -f "$ART_DIR/serve_out.txt" "$ART_DIR/serve_smoke.json"
./target/release/serve --addr 127.0.0.1:0 >"$ART_DIR/serve_out.txt" &
SERVE_PID=$!
SERVE_ADDR=""
for _ in $(seq 1 100); do
    SERVE_ADDR=$(sed -n 's/^listening on //p' "$ART_DIR/serve_out.txt")
    [[ -n "$SERVE_ADDR" ]] && break
    sleep 0.1
done
if [[ -z "$SERVE_ADDR" ]]; then
    echo "serve never reported a listening address" >&2
    kill "$SERVE_PID" 2>/dev/null || true
    exit 1
fi
./target/release/loadgen --addr "$SERVE_ADDR" --sessions 3 --scale smoke \
    --snapshot-check --shutdown --label verify-serve \
    --json "$ART_DIR/serve_smoke.json"
wait "$SERVE_PID"   # --shutdown must stop the server cleanly (exit 0)

echo "== reactor sweep smoke (scale sweep, SIGTERM drain, zero leaks) =="
rm -f "$ART_DIR/sweep_out.txt" "$ART_DIR/serve_sweep.json"
./target/release/serve --addr 127.0.0.1:0 >"$ART_DIR/sweep_out.txt" &
SWEEP_PID=$!
SWEEP_ADDR=""
for _ in $(seq 1 100); do
    SWEEP_ADDR=$(sed -n 's/^listening on //p' "$ART_DIR/sweep_out.txt")
    [[ -n "$SWEEP_ADDR" ]] && break
    sleep 0.1
done
if [[ -z "$SWEEP_ADDR" ]]; then
    echo "serve never reported a listening address" >&2
    kill "$SWEEP_PID" 2>/dev/null || true
    exit 1
fi
./target/release/loadgen --addr "$SWEEP_ADDR" --sweep 8,32 --connections 4 \
    --scale smoke --label verify-sweep --json "$ART_DIR/serve_sweep.json"
kill -TERM "$SWEEP_PID"
wait "$SWEEP_PID"   # graceful drain must exit 0

echo "== bench_compare curve gates (fresh sweep, committed curve) =="
./target/release/bench_compare --curve verify-sweep "$ART_DIR/serve_sweep.json"
./target/release/bench_compare --curve scale BENCH_perf.json

echo "== warm-start smoke (cold publish, pre-warmed replay, first-trace gate) =="
rm -f "$ART_DIR/warmstart_out.txt" "$ART_DIR/warmstart.json"
./target/release/serve --addr 127.0.0.1:0 --shards 4 >"$ART_DIR/warmstart_out.txt" &
WARM_PID=$!
WARM_ADDR=""
for _ in $(seq 1 100); do
    WARM_ADDR=$(sed -n 's/^listening on //p' "$ART_DIR/warmstart_out.txt")
    [[ -n "$WARM_ADDR" ]] && break
    sleep 0.1
done
if [[ -z "$WARM_ADDR" ]]; then
    echo "serve never reported a listening address" >&2
    kill "$WARM_PID" 2>/dev/null || true
    exit 1
fi
./target/release/loadgen --addr "$WARM_ADDR" --warm-start --scale smoke \
    --shards 4 --label verify-warmstart --shutdown \
    --json "$ART_DIR/warmstart.json"
wait "$WARM_PID"   # --shutdown must stop the server cleanly (exit 0)
./target/release/bench_compare --warmstart verify-warmstart "$ART_DIR/warmstart.json"
./target/release/bench_compare --warmstart warmstart BENCH_perf.json

echo "== chaos smoke (wire + shard faults armed, bit-identity under chaos) =="
rm -f "$ART_DIR/chaos.json"
./target/release/loadgen --chaos --scale smoke --seed 42 \
    --label verify-chaos --json "$ART_DIR/chaos.json"
./target/release/bench_compare --chaos verify-chaos "$ART_DIR/chaos.json"
./target/release/bench_compare --chaos chaos BENCH_perf.json

echo "== profile_sim (merge policies replayed offline, order-independent) =="
./target/release/profile_sim --scale smoke --sessions 4 \
    | tee "$ART_DIR/profile_sim.txt"

echo "== selfprof alloc self-gate (committed serve-path allocation profile) =="
./target/release/bench_compare --alloc selfprof BENCH_perf.json

# Last because it rebuilds loadgen with the measuring-allocator feature
# chain, touching the release profile's bench artifacts.
echo "== selfprof smoke (measuring allocator, alloc section, attribution tests) =="
cargo test -p hotpath --test selfprof --features selfprof-alloc --quiet
rm -f "$ART_DIR/selfprof.json"
cargo build --release -p hotpath-bench --features selfprof-alloc --bin loadgen
# Per-block allocation is dominated by fixed per-session setup, so the
# cross-run gate is only meaningful at the committed run's exact config
# (9 sessions / 4 shards / scale small) — allocation counts are
# deterministic there, so the committed profile reproduces byte-for-byte.
./target/release/loadgen --sessions 9 --shards 4 --scale small \
    --label verify-selfprof --json "$ART_DIR/selfprof.json" \
    2>"$ART_DIR/selfprof_console.txt"
grep -q '"alloc"' "$ART_DIR/selfprof.json"
./target/release/bench_compare --alloc selfprof BENCH_perf.json \
    "$ART_DIR/selfprof.json" --current-label verify-selfprof
# Restore the default-features loadgen so later manual runs see the
# system allocator again.
cargo build --release -p hotpath-bench --bin loadgen

echo "verify.sh: all checks passed"
