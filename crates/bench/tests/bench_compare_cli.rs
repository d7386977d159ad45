//! Exit-code pins for the `bench_compare` binary.
//!
//! Every gate invocation that `scripts/verify.sh` and the CI workflows
//! make is replayed against the committed `BENCH_perf.json` (fresh-run
//! files are stood in for by relabelled copies of the committed runs).
//! Doctored copies then trip each gate (exit 1) or are malformed (exit 2).
//! The `--ab` gate runs over generated hotbench result lines, against the
//! committed `BENCHMARK.json`.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Runs `bench_compare` from the workspace root and asserts its exit code,
/// echoing its output on a mismatch.
fn expect_exit(args: &[&str], want: i32) {
    let out = Command::new(env!("CARGO_BIN_EXE_bench_compare"))
        .args(args)
        .current_dir(root())
        .output()
        .expect("bench_compare runs");
    assert_eq!(
        out.status.code(),
        Some(want),
        "bench_compare {}\nstdout:\n{}\nstderr:\n{}",
        args.join(" "),
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

/// The committed run labelled `label`, as its JSON object text.
fn committed_run(label: &str) -> String {
    let text = fs::read_to_string(root().join("BENCH_perf.json")).expect("BENCH_perf.json");
    let at = text
        .find(&format!("\"label\": \"{label}\""))
        .unwrap_or_else(|| panic!("no committed run `{label}`"));
    let start = text[..at].rfind("\n    {").expect("run opens") + 1;
    let end = at + text[at..].find("\n    }").expect("run closes") + "\n    }".len();
    text[start..end].to_string()
}

/// `run` with its label replaced by `label`.
fn relabel(run: &str, label: &str) -> String {
    let old = run
        .split('"')
        .nth(3)
        .expect("label is the run's first field");
    run.replacen(
        &format!("\"label\": \"{old}\""),
        &format!("\"label\": \"{label}\""),
        1,
    )
}

/// `text` with `from` replaced by `to`, which must occur.
fn doctor(text: &str, from: &str, to: &str) -> String {
    assert!(text.contains(from), "`{from}` not found");
    text.replacen(from, to, 1)
}

/// Writes a perf document holding `runs` and returns its path.
fn perf_doc(name: &str, runs: &[String]) -> String {
    let body = format!("{{\n  \"runs\": [\n{}\n  ]\n}}\n", runs.join(",\n"));
    write_doc(name, &body)
}

fn write_doc(name: &str, body: &str) -> String {
    let path =
        Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("bench_compare_cli_{name}.json"));
    fs::write(&path, body).expect("write temp document");
    path.to_str().expect("utf-8 temp path").to_string()
}

#[test]
fn verify_and_ci_gates_pass_on_the_committed_document() {
    for args in [
        &["--curve", "scale", "BENCH_perf.json"][..],
        &["--warmstart", "warmstart", "BENCH_perf.json"],
        &["--chaos", "chaos", "BENCH_perf.json"],
        &["--alloc", "selfprof", "BENCH_perf.json"],
    ] {
        expect_exit(args, 0);
    }
}

#[test]
fn fresh_runs_gate_like_ci() {
    let sweep = perf_doc(
        "ci_scale",
        &[
            relabel(&committed_run("scale-n100"), "ci-scale-n100"),
            relabel(&committed_run("scale-n1000"), "ci-scale-n1000"),
        ],
    );
    expect_exit(&["--curve", "ci-scale", &sweep], 0);
    let warm = perf_doc(
        "ci_warm",
        &[relabel(&committed_run("warmstart"), "ci-warmstart")],
    );
    expect_exit(&["--warmstart", "ci-warmstart", &warm], 0);
    for label in ["ci-chaos", "nightly-chaos-s1"] {
        let chaos = perf_doc(label, &[relabel(&committed_run("chaos"), label)]);
        expect_exit(&["--chaos", label, &chaos], 0);
    }
    let alloc = perf_doc(
        "ci_alloc",
        &[relabel(&committed_run("selfprof"), "ci-selfprof")],
    );
    expect_exit(
        &[
            "--alloc",
            "selfprof",
            "BENCH_perf.json",
            &alloc,
            "--current-label",
            "ci-selfprof",
        ],
        0,
    );
}

#[test]
fn doctored_runs_trip_each_gate() {
    let chaos = committed_run("chaos");
    let leaky = perf_doc("leaky", &[doctor(&chaos, "\"leaked\": 0", "\"leaked\": 1")]);
    expect_exit(&["--chaos", "chaos", &leaky], 1);

    // Serve-path bytes per block up 20%.
    let selfprof = relabel(&committed_run("selfprof"), "fat");
    let fat = perf_doc("fat", &[doctor(&selfprof, "5.2097", "6.2516")]);
    expect_exit(
        &[
            "--alloc",
            "selfprof",
            "BENCH_perf.json",
            &fat,
            "--current-label",
            "fat",
        ],
        1,
    );

    let warmstart = committed_run("warmstart");
    let tie = doctor(
        &warmstart,
        "\"li\": {\"cold_blocks_to_first_trace\": 256, \"prewarmed_blocks_to_first_trace\": 0}",
        "\"li\": {\"cold_blocks_to_first_trace\": 256, \"prewarmed_blocks_to_first_trace\": 256}",
    );
    let tie = perf_doc("tie", &[tie]);
    expect_exit(&["--warmstart", "warmstart", &tie], 1);
    // Pre-warmed serving 16% under cold.
    let slow_warm = perf_doc("slow_warm", &[doctor(&warmstart, "41025845", "30000000")]);
    expect_exit(&["--warmstart", "warmstart", &slow_warm], 1);

    // Retention 0.4 between 100 and 10,000 sessions.
    let collapsed = perf_doc(
        "collapsed",
        &[
            committed_run("scale-n100"),
            doctor(&committed_run("scale-n10000"), "27469153", "13954689"),
        ],
    );
    expect_exit(&["--curve", "scale", &collapsed], 1);

    let base = write_doc("events_base", r#"{"label": "a", "events": {"vm_halt": 8}}"#);
    let cur = write_doc("events_cur", r#"{"label": "b", "events": {"vm_halt": 9}}"#);
    expect_exit(&[&base, &cur], 1);
}

#[test]
fn malformed_documents_are_parse_errors() {
    // A gate whose section the run does not record.
    let warmstart = committed_run("warmstart");
    let from = warmstart
        .find("      \"warm_start\"")
        .expect("warm_start section");
    let to = warmstart.find("      \"modes\"").expect("modes section");
    let bare = perf_doc(
        "bare",
        &[format!("{}{}", &warmstart[..from], &warmstart[to..])],
    );
    expect_exit(&["--warmstart", "warmstart", &bare], 2);

    // Non-numeric and non-finite values in a perf run, read by the
    // alloc and warm-start gates.
    let selfprof = relabel(&committed_run("selfprof"), "cur");
    for (name, bad) in [("string", "\"5.2097\""), ("null", "null"), ("inf", "1e999")] {
        let alloc = perf_doc(
            &format!("alloc_{name}"),
            &[doctor(&selfprof, "5.2097", bad)],
        );
        expect_exit(
            &[
                "--alloc",
                "selfprof",
                "BENCH_perf.json",
                &alloc,
                "--current-label",
                "cur",
            ],
            2,
        );
        let warm = perf_doc(
            &format!("warm_{name}"),
            &[doctor(&warmstart, "41025845", bad)],
        );
        expect_exit(&["--warmstart", "warmstart", &warm], 2);
    }

    // Telemetry counts that are not whole non-negative numbers.
    let zero = write_doc("events_zero", r#"{"label": "a", "events": {"x": 0}}"#);
    let one = write_doc("events_one", r#"{"label": "a", "events": {"x": 1}}"#);
    for (name, bad, against) in [
        ("string", "\"12\"", &zero),
        ("null", "null", &zero),
        ("negative", "-1", &zero),
        ("fraction", "1.5", &one),
    ] {
        let doc = write_doc(
            &format!("events_{name}"),
            &format!(r#"{{"label": "b", "events": {{"x": {bad}}}}}"#),
        );
        expect_exit(&[against, &doc], 2);
    }

    // The two-file form diffs telemetry documents only, and `--trend`
    // and `--baseline-label` are not flags.
    expect_exit(&["BENCH_perf.json", "BENCH_perf.json"], 2);
    expect_exit(&["--trend", "BENCH_perf.json"], 2);
    expect_exit(
        &[
            "BENCH_perf.json",
            "BENCH_perf.json",
            "--baseline-label",
            "chaos",
        ],
        2,
    );
    expect_exit(&["BENCH_perf.json", "BENCH_perf.json", "--no-such-flag"], 2);
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
