#!/usr/bin/env bash
# Interleaved A/B runner over the repository benchmark (hotbench).
#
#   scripts/ab.sh PARENT CHANGE [WORKLOAD...]
#
# Checks PARENT and CHANGE (any git revisions) out into temporary
# worktrees, builds each side's hotbench there, and runs seeds 1-10 of
# every workload (default: all of BENCHMARK.json's) for BENCHMARK.json's
# run_seconds. Odd seeds run the parent first, even seeds the change
# first, so slow drifts of the host hit both sides alike. Each side runs
# from its own worktree root. Each run's last stdout line is appended to
# target/ab/<W>.parent.jsonl or target/ab/<W>.change.jsonl (stderr to
# target/ab/hotbench.log), and then `bench_compare --ab` prints one
# verdict table per workload.
#
# An A/A run (the same revision on both sides) measures the noise floor.
#
# Exit status: 0 when every workload's verdict passes, 1 when one fails,
# 2 on a usage, build or run error. Worktrees go under $TMPDIR and are
# removed on exit.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -lt 2 ]]; then
    echo "usage: scripts/ab.sh PARENT CHANGE [WORKLOAD...]" >&2
    exit 2
fi
parent=$(git rev-parse --verify "$1^{commit}")
change=$(git rev-parse --verify "$2^{commit}")
shift 2

# BENCHMARK.json keeps one entry per line, so sed reads it without a
# JSON tool.
seconds=$(sed -n 's/^ *"run_seconds": *\([0-9.]*\).*/\1/p' BENCHMARK.json)
read -r -a command <<<"$(sed -n 's/^ *"command": *\[\(.*\)\],*$/\1/p' BENCHMARK.json | tr -d '",')"
if [[ $# -gt 0 ]]; then
    workloads=("$@")
else
    read -r -a workloads <<<"$(sed -n 's/^ *{"name": "\([^"]*\)", "why".*/\1/p' BENCHMARK.json | tr '\n' ' ')"
fi
if [[ -z "$seconds" || ${#command[@]} -eq 0 || ${#workloads[@]} -eq 0 ]]; then
    echo "ab.sh: cannot read run_seconds, command or workloads from BENCHMARK.json" >&2
    exit 2
fi

trees=$(mktemp -d "${TMPDIR:-/tmp}/ab.XXXXXX")
cleanup() {
    for side in parent change; do
        git worktree remove --force "$trees/$side" 2>/dev/null || true
    done
    git worktree prune
    rm -rf "$trees"
}
trap cleanup EXIT

# The verdicts use this checkout's bench_compare; build it before any
# measurement so its compile does not overlap a run.
cargo build --release --offline --quiet -p hotpath-bench --bin bench_compare
for side in parent change; do
    git worktree add --quiet --detach "$trees/$side" "${!side}"
    echo "ab.sh: building $side (${!side:0:12}) hotbench" >&2
    (cd "$trees/$side" && CARGO_TARGET_DIR="$trees/$side/hotbench/target" \
        cargo build --release --offline --quiet --manifest-path hotbench/Cargo.toml)
done

out=target/ab
mkdir -p "$out"
log="$PWD/$out/hotbench.log"
: >"$log"
# One run of `side`: the last stdout line of the benchmark command.
run() {
    local side=$1 workload=$2 seed=$3 last
    if ! last=$(cd "$trees/$side" && CARGO_TARGET_DIR="$trees/$side/hotbench/target" \
        "${command[@]}" --workload "$workload" --seed "$seed" --seconds "$seconds" \
        --trace 0 2>>"$log" | tail -n 1) || [[ -z "$last" ]]; then
        echo "ab.sh: $side $workload seed $seed failed; see $log" >&2
        exit 2
    fi
    echo "$last" >>"$out/$workload.$side.jsonl"
}

for workload in "${workloads[@]}"; do
    rm -f "$out/$workload.parent.jsonl" "$out/$workload.change.jsonl"
    for seed in $(seq 1 10); do
        echo "ab.sh: $workload seed $seed" >&2
        if ((seed % 2)); then
            run parent "$workload" "$seed"
            run change "$workload" "$seed"
        else
            run change "$workload" "$seed"
            run parent "$workload" "$seed"
        fi
    done
done

status=0
for workload in "${workloads[@]}"; do
    echo "== $workload: ${parent:0:12} -> ${change:0:12} =="
    ./target/release/bench_compare --ab "$out/$workload.parent.jsonl" \
        "$out/$workload.change.jsonl" || status=$(( $? > status ? $? : status ))
done
exit "$status"
