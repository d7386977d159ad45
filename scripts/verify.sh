#!/usr/bin/env bash
# Offline-safe verification: format, build, test, lint, and the difffuzz
# and profile_sim smokes. Everything here must pass with no network
# access (the workspace has no external dependencies; the serve tests
# bind 127.0.0.1 only). `cargo test --workspace` carries the end-to-end
# serve checks: the spawned `serve` binary (crates/serve/tests/serve_bin.rs),
# the chaos pass (tests/robustness.rs) and the warm-start first-trace pin
# (tests/profile_store.rs). Throughput is not judged here: scripts/ab.sh
# compares two revisions on the repository benchmark.
#
# Environment knobs:
#   VERIFY_SKIP_LINT=1   skip rustfmt/clippy (for MSRV toolchains whose
#                        lints differ from stable)
set -euo pipefail
cd "$(dirname "$0")/.."

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

echo "== profile_sim (merge policies replayed offline, order-independent) =="
./target/release/profile_sim --scale smoke --sessions 4

echo "== selfprof (measuring allocator: attribution tests, serve-path alloc pin) =="
cargo test -p hotpath --test selfprof --features selfprof-alloc --quiet

echo "verify.sh: all checks passed"
