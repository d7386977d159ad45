//! `bench_compare` — the regression gates over benchmark output.
//!
//! ```text
//! bench_compare --ab PARENT.jsonl CHANGE.jsonl
//! bench_compare BASELINE_TELEMETRY.json CURRENT_TELEMETRY.json
//! bench_compare --curve PREFIX FILE
//! bench_compare --warmstart LABEL FILE [--tolerance 0.10]
//! bench_compare --chaos LABEL FILE
//! bench_compare --alloc LABEL FILE [CURRENT_FILE] [--tolerance 0.10]
//!               [--current-label L]
//! ```
//!
//! Each mode reads its input into flat metric runs and applies one gate
//! from [`hotpath_bench::compare`], whose functions state each rule;
//! `USAGE` (`--help`) summarizes them. Throughput is judged only by
//! `--ab`, over paired hotbench runs that `scripts/ab.sh` records; the
//! metrics, their direction and their bounds come from `./BENCHMARK.json`
//! at run time.
//!
//! Exit codes: 0 pass, 1 a gate failed, 2 usage or parse error.

use std::fs;
use std::process::ExitCode;

use hotpath_bench::compare::{
    ab_gate, alloc_gate, chaos_gate, compare_telemetry, read_end_to_end, read_hotbench_runs,
    read_runs, render, select_run, sweep_curve, warm_start_gate, DEFAULT_TOLERANCE,
};

const USAGE: &str = "usage: bench_compare --ab PARENT.jsonl CHANGE.jsonl
       bench_compare BASELINE.json CURRENT.json
       bench_compare --curve PREFIX FILE
       bench_compare --warmstart LABEL FILE [--tolerance F]
       bench_compare --chaos LABEL FILE
       bench_compare --alloc LABEL FILE [CURRENT_FILE] [--tolerance F]
                     [--current-label L]

modes:
  --ab             A/B verdict over paired hotbench result lines (line i
                   of each file ran back to back; at least 10 pairs).
                   For every end-to-end metric of ./BENCHMARK.json: the
                   medians, pairs the change won, the parent IQR, and
                   FAIL (median worse than the bound), unresolved
                   (parent spread wider than the bound), gain or
                   unchanged. Incorrect runs, or a larger failed share
                   of operations than the parent's, fail too
  two files        telemetry diff: any differing event count fails
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
  0  gate passed (unresolved A/B verdicts included)
  1  a gate failed
  2  usage or parse error";

/// The gate a command line selects.
enum Gate {
    Telemetry,
    Ab,
    Curve(String),
    WarmStart(String),
    Chaos(String),
    Alloc(String),
}

struct Args {
    gate: Gate,
    files: Vec<String>,
    tolerance: f64,
    current_label: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut gate = Gate::Telemetry;
    let mut tolerance = DEFAULT_TOLERANCE;
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
            "--current-label" => {
                current_label = Some(value("--current-label")?);
                None
            }
            "--ab" => Some(Gate::Ab),
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
            if !matches!(gate, Gate::Telemetry) {
                return Err(
                    "--ab, --curve, --warmstart, --chaos, and --alloc are mutually exclusive"
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
        Gate::Telemetry | Gate::Ab => 2..=2,
        Gate::Alloc(_) => 1..=2,
        _ => 1..=1,
    };
    if !wanted.contains(&files.len()) {
        return Err(format!(
            "expected {wanted:?} input files, got {}",
            files.len()
        ));
    }
    Ok(Args {
        gate,
        files,
        tolerance,
        current_label,
    })
}

fn read(path: &str) -> Result<String, String> {
    fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn run(args: &Args) -> Result<bool, String> {
    let texts = args
        .files
        .iter()
        .map(|path| read(path))
        .collect::<Result<Vec<_>, _>>()?;
    let doc = |i: usize| read_runs(&texts[i]).map_err(|e| format!("{}: {e}", args.files[i]));
    let pick = |i: usize, label: &str| -> Result<_, String> {
        let (_, runs) = doc(i)?;
        let run = select_run(&runs, Some(label)).map_err(|e| format!("{}: {e}", args.files[i]))?;
        Ok(run.clone())
    };
    let tolerance = args.tolerance;
    let (title, checks) = match &args.gate {
        Gate::Ab => {
            let metrics = read_end_to_end(&read("BENCHMARK.json")?)
                .map_err(|e| format!("BENCHMARK.json: {e}"))?;
            let parent = read_hotbench_runs(&texts[0], &args.files[0])?;
            let change = read_hotbench_runs(&texts[1], &args.files[1])?;
            let title = format!(
                "A/B over {} pairs: `{}` -> `{}`",
                parent.len(),
                args.files[0],
                args.files[1]
            );
            (title, ab_gate(&metrics, &parent, &change)?)
        }
        Gate::Curve(prefix) => (
            format!("sweep curve `{prefix}-nN`"),
            sweep_curve(&doc(0)?.1, prefix)?,
        ),
        Gate::WarmStart(label) => (
            format!("warm-start gate: run `{label}`"),
            warm_start_gate(&pick(0, label)?, tolerance)?,
        ),
        Gate::Chaos(label) => (
            format!("chaos gate: run `{label}`"),
            chaos_gate(&pick(0, label)?)?,
        ),
        Gate::Alloc(label) => {
            let base = pick(0, label)?;
            // One file: gate the committed run against itself, which
            // validates the section's presence and shape.
            let cur = match texts.len() {
                2 => pick(1, args.current_label.as_deref().unwrap_or(label))?,
                _ => base.clone(),
            };
            let title = format!("alloc gate: `{}` -> `{}`", base.label, cur.label);
            (title, alloc_gate(&base, &cur, tolerance)?)
        }
        Gate::Telemetry => (
            "telemetry gate".to_string(),
            compare_telemetry(&texts[0], &texts[1])?,
        ),
    };
    print!("{}", render(&title, &checks));
    Ok(checks.iter().all(|c| c.pass))
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
