//! Exit-code pins for the `bench_compare` binary.
//!
//! `--ab` runs over generated hotbench result lines against the committed
//! `BENCHMARK.json`: clean pairs pass (0), doctored lines trip each row
//! of the gate (1), and malformed lines or command lines are errors (2).

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Runs `bench_compare` from the workspace root and asserts its exit code,
/// echoing its output on a mismatch. Returns its stderr.
fn expect_exit(args: &[&str], want: i32) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_bench_compare"))
        .args(args)
        .current_dir(root())
        .output()
        .expect("bench_compare runs");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(
        out.status.code(),
        Some(want),
        "bench_compare {}\nstdout:\n{}\nstderr:\n{stderr}",
        args.join(" "),
        String::from_utf8_lossy(&out.stdout),
    );
    stderr
}

fn write_doc(name: &str, body: &str) -> String {
    let path =
        Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("bench_compare_cli_{name}.json"));
    fs::write(&path, body).expect("write temp document");
    path.to_str().expect("utf-8 temp path").to_string()
}

/// Writes `runs` hotbench result lines over every end-to-end metric of
/// the committed `BENCHMARK.json`; metric `name` of run `i` is
/// `value(i, name)`. Returns the file's path.
fn hotbench_lines(
    name: &str,
    runs: usize,
    correct: bool,
    value: impl Fn(usize, &str) -> f64,
) -> String {
    let text = fs::read_to_string(root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let metrics = hotpath_bench::compare::read_end_to_end(&text).expect("BENCHMARK.json reads");
    let lines: Vec<String> = (0..runs)
        .map(|i| {
            let values: Vec<String> = metrics
                .iter()
                .map(|m| {
                    format!(
                        r#""{}": {{"value": {}, "unit": "u"}}"#,
                        m.name,
                        value(i, &m.name)
                    )
                })
                .collect();
            format!(
                r#"{{"correct": {correct}, "attempted": 40, "failed": 0, "metrics": {{{}}}}}"#,
                values.join(", ")
            )
        })
        .collect();
    let path =
        Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("bench_compare_cli_{name}.jsonl"));
    fs::write(&path, lines.join("\n") + "\n").expect("write temp lines");
    path.to_str().expect("utf-8 temp path").to_string()
}

#[test]
fn ab_verdicts_exit_like_ci() {
    let spread = |i: usize, _: &str| 1000.0 + 10.0 * i as f64;
    let parent = hotbench_lines("ab_parent", 10, true, spread);
    // A/A: the same runs on both sides.
    expect_exit(&["--ab", &parent, &parent], 0);
    // A 30% drop in linked_blocks_per_s, past its 0.25 bound.
    let slow = hotbench_lines("ab_slow", 10, true, |i, name| match name {
        "linked_blocks_per_s" => 0.7 * spread(i, name),
        _ => spread(i, name),
    });
    expect_exit(&["--ab", &parent, &slow], 1);
    // A run with a wrong output.
    let incorrect = hotbench_lines("ab_incorrect", 10, false, spread);
    expect_exit(&["--ab", &parent, &incorrect], 1);
    // Nine pairs are too few for a verdict; unequal counts do not pair.
    let nine = hotbench_lines("ab_nine", 9, true, spread);
    expect_exit(&["--ab", &nine, &nine], 2);
    expect_exit(&["--ab", &parent, &nine], 2);
    // A malformed line, and a missing side.
    let broken = write_doc("ab_broken", "{\"correct\": true}\n");
    expect_exit(&["--ab", &parent, &broken], 2);
    expect_exit(&["--ab", &parent], 2);
}

#[test]
fn doctored_runs_trip_each_gate() {
    let spread = |i: usize, _: &str| 1000.0 + 10.0 * i as f64;
    let parent = hotbench_lines("trip_parent", 10, true, spread);
    // A lower-is-better metric 40% up, past its 0.25 bound.
    let slow_p99 = hotbench_lines("trip_p99", 10, true, |i, name| match name {
        "request_p99_us" => 1.4 * spread(i, name),
        _ => spread(i, name),
    });
    expect_exit(&["--ab", &parent, &slow_p99], 1);
    // A larger failed share of operations than the parent's, every run
    // still correct.
    let text = fs::read_to_string(&parent).expect("parent lines");
    let failing = write_doc(
        "trip_failed",
        &text.replacen("\"failed\": 0", "\"failed\": 1", 1),
    );
    expect_exit(&["--ab", &parent, &failing], 1);
}

#[test]
fn malformed_documents_are_parse_errors() {
    // A string, null or non-finite metric value is a parse error, never
    // a silent 0 or a NaN that passes every limit.
    let spread = |i: usize, _: &str| 1000.0 + 10.0 * i as f64;
    let parent = hotbench_lines("malformed_parent", 10, true, spread);
    let text = fs::read_to_string(&parent).expect("parent lines");
    for (name, bad) in [("string", "\"1000\""), ("null", "null"), ("inf", "1e999")] {
        let doc = text.replacen("\"value\": 1000", &format!("\"value\": {bad}"), 1);
        let bad = write_doc(&format!("malformed_{name}"), &doc);
        expect_exit(&["--ab", &parent, &bad], 2);
    }
}

#[test]
fn retired_modes_and_flags_are_usage_errors() {
    let spread = |i: usize, _: &str| 1000.0 + 10.0 * i as f64;
    let lines = hotbench_lines("retired", 10, true, spread);
    for args in [
        &["--curve", "scale", &lines][..],
        &["--warmstart", "warmstart", &lines],
        &["--chaos", "chaos", &lines],
        &["--alloc", "selfprof", &lines],
        &["--ab", &lines, &lines, "--tolerance", "0.1"],
        &["--ab", &lines, &lines, "--current-label", "x"],
        &["--ab", "--ab", &lines, &lines],
        &[&lines, &lines],
        &[],
    ] {
        let stderr = expect_exit(args, 2);
        assert!(stderr.contains("usage:"), "no usage for {args:?}: {stderr}");
    }
}
