//! `bench_compare` — the A/B verdict over the repository benchmark.
//!
//! ```text
//! bench_compare --ab PARENT.jsonl CHANGE.jsonl
//! ```
//!
//! Reads paired hotbench result lines that `scripts/ab.sh` records and
//! applies [`hotpath_bench::compare::ab_gate`], whose documentation
//! states each rule; `USAGE` (`--help`) summarizes them. The metrics,
//! their direction and their bounds come from `./BENCHMARK.json` at run
//! time.
//!
//! Exit codes: 0 pass, 1 the gate failed, 2 usage or parse error.

use std::fs;
use std::process::ExitCode;

use hotpath_bench::compare::{ab_gate, read_end_to_end, read_hotbench_runs, render};

const USAGE: &str = "usage: bench_compare --ab PARENT.jsonl CHANGE.jsonl

A/B verdict over paired hotbench result lines (line i of each file ran
back to back; at least 10 pairs). For every end-to-end metric of
./BENCHMARK.json: the medians, pairs the change won, the parent IQR, and
FAIL (median worse than the bound), unresolved (parent spread wider than
the bound), gain or unchanged. Incorrect runs, or a larger failed share
of operations than the parent's, fail too.

exit codes:
  0  gate passed (unresolved verdicts included)
  1  the gate failed
  2  usage or parse error";

/// The two files of a valid command line.
fn parse_args() -> Result<[String; 2], String> {
    let mut ab = false;
    let mut files = Vec::new();
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--ab" if !ab => ab = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            flag if flag.starts_with("--") => return Err(format!("unexpected flag `{flag}`")),
            file => files.push(file.to_string()),
        }
    }
    if !ab {
        return Err("--ab is the only mode".into());
    }
    <[String; 2]>::try_from(files)
        .map_err(|files| format!("expected 2 input files, got {}", files.len()))
}

fn read(path: &str) -> Result<String, String> {
    fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn run([parent_file, change_file]: &[String; 2]) -> Result<bool, String> {
    let metrics =
        read_end_to_end(&read("BENCHMARK.json")?).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let parent = read_hotbench_runs(&read(parent_file)?, parent_file)?;
    let change = read_hotbench_runs(&read(change_file)?, change_file)?;
    let title = format!(
        "A/B over {} pairs: `{parent_file}` -> `{change_file}`",
        parent.len()
    );
    let checks = ab_gate(&metrics, &parent, &change)?;
    print!("{}", render(&title, &checks));
    Ok(checks.iter().all(|c| c.pass))
}

fn main() -> ExitCode {
    let files = match parse_args() {
        Ok(files) => files,
        Err(e) => {
            eprintln!("bench_compare: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&files) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("bench_compare: regression gate FAILED");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("bench_compare: {e}");
            ExitCode::from(2)
        }
    }
}
