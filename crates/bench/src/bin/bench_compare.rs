//! `bench_compare` — the CI regression gate over pipeline snapshots.
//!
//! ```text
//! bench_compare BASELINE.json CURRENT.json [--tolerance 0.10]
//!               [--baseline-label L] [--current-label L]
//! bench_compare --trend FILE [--tolerance 0.10]
//! bench_compare --curve PREFIX FILE
//! bench_compare --warmstart LABEL FILE [--tolerance 0.10]
//! bench_compare --chaos LABEL FILE
//! bench_compare --alloc LABEL FILE [CURRENT_FILE] [--tolerance 0.10]
//!               [--current-label L]
//! ```
//!
//! Each mode reads its documents into flat metric runs and applies one
//! gate from [`hotpath_bench::compare`], whose functions state each rule;
//! `USAGE` (`--help`) summarizes them. Throughput is always gated
//! native-relative: each run's rates are divided by its own `native`
//! rate, cancelling machine speed, because committed baselines were
//! recorded on other hosts. The tolerance defaults to 0.10.
//!
//! Exit codes: 0 pass (trend warnings included — they are advisory),
//! 1 a gate failed, 2 usage or parse error.

use std::fs;
use std::process::ExitCode;

use hotpath_bench::compare::{
    alloc_gate, chaos_gate, compare_perf, compare_telemetry, perf_trend, read_runs, render,
    select_run, sweep_curve, warm_start_gate, DocKind, DEFAULT_TOLERANCE,
};

const USAGE: &str = "usage: bench_compare BASELINE.json CURRENT.json [--tolerance F]
                     [--baseline-label L] [--current-label L]
       bench_compare --trend FILE [--tolerance F]
       bench_compare --curve PREFIX FILE
       bench_compare --warmstart LABEL FILE [--tolerance F]
       bench_compare --chaos LABEL FILE
       bench_compare --alloc LABEL FILE [CURRENT_FILE] [--tolerance F]
                     [--current-label L]

modes:
  two files        pairwise gate: perf modes beyond the tolerance (rates
                   divided by each run's native rate), guard-exec
                   increases, or any differing telemetry event count fail
  --trend FILE     cumulative native-relative drift across every run in
                   one perf document; warnings are advisory (exit 0)
  --curve PREFIX   sweep-curve gate over runs labelled PREFIX-nN: the
                   serve-aggregate rate at the largest N must hold half
                   the smallest-N rate
  --warmstart L    warm-start gate over the run labelled L: pre-warmed
                   blocks-to-first-trace strictly below cold for every
                   workload, serve-prewarmed throughput within the
                   tolerance of serve-cold
  --chaos L        chaos gate over the run labelled L: zero leaked or
                   divergent sessions, every expected session completed,
                   and at least one injected fault visibly absorbed
  --alloc L        allocation gate against the run labelled L: serve-path
                   heap bytes and allocator calls per block must not grow
                   beyond the tolerance (one file self-validates the
                   committed profile; a second file supplies the fresh
                   run, picked by --current-label, default L)

--tolerance defaults to 0.10.

exit codes:
  0  gate passed (including --trend runs that only warn)
  1  a gate failed
  2  usage or parse error";

/// The gate a command line selects.
enum Gate {
    Diff,
    Trend,
    Curve(String),
    WarmStart(String),
    Chaos(String),
    Alloc(String),
}

struct Args {
    gate: Gate,
    files: Vec<String>,
    tolerance: f64,
    baseline_label: Option<String>,
    current_label: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut gate = Gate::Diff;
    let mut tolerance = DEFAULT_TOLERANCE;
    let mut baseline_label = None;
    let mut current_label = None;
    let mut files = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        let selected = match a.as_str() {
            "--tolerance" => {
                let v = value("--tolerance")?;
                tolerance = v
                    .parse()
                    .map_err(|_| format!("--tolerance `{v}` is not a number"))?;
                None
            }
            "--baseline-label" => {
                baseline_label = Some(value("--baseline-label")?);
                None
            }
            "--current-label" => {
                current_label = Some(value("--current-label")?);
                None
            }
            "--trend" => Some(Gate::Trend),
            "--curve" => Some(Gate::Curve(value("--curve")?)),
            "--warmstart" => Some(Gate::WarmStart(value("--warmstart")?)),
            "--chaos" => Some(Gate::Chaos(value("--chaos")?)),
            "--alloc" => Some(Gate::Alloc(value("--alloc")?)),
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            file => {
                files.push(file.to_string());
                None
            }
        };
        if let Some(selected) = selected {
            if !matches!(gate, Gate::Diff) {
                return Err(
                    "--trend, --curve, --warmstart, --chaos, and --alloc are mutually exclusive"
                        .into(),
                );
            }
            gate = selected;
        }
    }
    if !(0.0..1.0).contains(&tolerance) {
        return Err(format!("tolerance {tolerance} must be in [0, 1)"));
    }
    let wanted = match gate {
        Gate::Diff => 2..=2,
        Gate::Alloc(_) => 1..=2,
        _ => 1..=1,
    };
    if !wanted.contains(&files.len()) {
        return Err(format!(
            "expected {wanted:?} snapshot files, got {}",
            files.len()
        ));
    }
    Ok(Args {
        gate,
        files,
        tolerance,
        baseline_label,
        current_label,
    })
}

fn run(args: &Args) -> Result<bool, String> {
    let texts = args
        .files
        .iter()
        .map(|path| fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    let docs = texts
        .iter()
        .zip(&args.files)
        .map(|(text, path)| read_runs(text).map_err(|e| format!("{path}: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    let pick = |i: usize, label: Option<&str>| {
        select_run(&docs[i].1, label).map_err(|e| format!("{}: {e}", args.files[i]))
    };
    let tolerance = args.tolerance;
    let (title, checks) = match &args.gate {
        Gate::Trend => (
            "perf trend (advisory): first -> last committed run".to_string(),
            perf_trend(&docs[0].1, tolerance)?,
        ),
        Gate::Curve(prefix) => (
            format!("sweep curve `{prefix}-nN`"),
            sweep_curve(&docs[0].1, prefix)?,
        ),
        Gate::WarmStart(label) => (
            format!("warm-start gate: run `{label}`"),
            warm_start_gate(pick(0, Some(label))?, tolerance)?,
        ),
        Gate::Chaos(label) => (
            format!("chaos gate: run `{label}`"),
            chaos_gate(pick(0, Some(label))?)?,
        ),
        Gate::Alloc(label) => {
            let base = pick(0, Some(label))?;
            // One file: gate the committed run against itself, which
            // validates the section's presence and shape.
            let cur = match docs.len() {
                2 => pick(1, Some(args.current_label.as_deref().unwrap_or(label)))?,
                _ => base,
            };
            let title = format!("alloc gate: `{}` -> `{}`", base.label, cur.label);
            (title, alloc_gate(base, cur, tolerance)?)
        }
        Gate::Diff => match (docs[0].0, docs[1].0) {
            (DocKind::Perf, DocKind::Perf) => {
                let base = pick(0, args.baseline_label.as_deref())?;
                let cur = pick(1, args.current_label.as_deref())?;
                let title = format!("perf gate: `{}` -> `{}`", base.label, cur.label);
                (title, compare_perf(base, cur, tolerance)?)
            }
            (DocKind::Telemetry, DocKind::Telemetry) => (
                "telemetry gate".to_string(),
                compare_telemetry(&texts[0], &texts[1])?,
            ),
            (base, cur) => {
                return Err(format!(
                    "cannot compare a {base:?} document against a {cur:?} document"
                ))
            }
        },
    };
    print!("{}", render(&title, &checks));
    let failed = checks.iter().filter(|c| !c.pass).count();
    if matches!(args.gate, Gate::Trend) {
        if failed > 0 {
            eprintln!("bench_compare: {failed} mode(s) drifting (advisory — not failing)");
        }
        return Ok(true);
    }
    Ok(failed == 0)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("bench_compare: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
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
