//! Snapshot comparison for the regression gates.
//!
//! [`bench_compare`] (the binary built from this module's API) reads
//! benchmark output and decides whether it passes a gate. Every
//! `BENCH_perf.json` or `telemetry.json` document is first flattened by
//! [`read_runs`] into [`Run`]s: dotted metric names mapped to finite
//! numbers, such as `warm_start.li.cold_blocks_to_first_trace`,
//! `chaos.leaked`, `alloc.bytes_per_block` or `events.trace_enter`. The
//! repository benchmark's result lines read the same way through
//! [`read_hotbench_runs`]. Each gate then builds [`Check`] rows from named
//! metrics, and [`render`] prints them as one table. The gates are
//! [`ab_gate`], [`sweep_curve`], [`warm_start_gate`], [`chaos_gate`],
//! [`alloc_gate`] and [`compare_telemetry`].
//!
//! Throughput is judged only by [`ab_gate`], over interleaved runs of
//! two revisions on one host. The committed-document gates check
//! correctness, allocation and shape; the one throughput ratio among them
//! (warm-start) divides both rates by the run's own `native` rate.
//!
//! The documents are parsed with the dependency-free
//! [`hotpath_telemetry::json`] value parser.
//!
//! [`bench_compare`]: index.html

use std::collections::{BTreeMap, BTreeSet};

use hotpath_telemetry::json::JsonValue;

/// Default regression tolerance: a 10% loss.
pub const DEFAULT_TOLERANCE: f64 = 0.10;

/// Share of the smallest sweep point's aggregate throughput that the
/// largest point must hold.
pub const CURVE_FLOOR: f64 = 0.5;

/// The rate every throughput check divides by.
const NATIVE: &str = "modes.native.blocks_per_sec";

/// Which kind of snapshot a file holds.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DocKind {
    /// A `BENCH_perf.json` throughput document (`{"runs": [...]}`).
    Perf,
    /// A `telemetry.json` summary (`{"events": {...}, ...}`).
    Telemetry,
}

/// One labelled run, flattened to dotted metric names.
#[derive(Clone, PartialEq, Debug)]
pub struct Run {
    /// The `--label` the run was recorded under.
    pub label: String,
    /// Every numeric leaf by its dotted path. Only [`read_runs`] fills
    /// it, so every value is finite and non-negative.
    metrics: BTreeMap<String, f64>,
}

impl Run {
    /// The metric `name`, if the run recorded it.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    /// The metric `name`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the run and the missing metric.
    pub fn need(&self, name: &str) -> Result<f64, String> {
        self.get(name)
            .ok_or_else(|| format!("run `{}` has no `{name}`", self.label))
    }

    /// The metric `name`, which divides or bounds another.
    ///
    /// # Errors
    ///
    /// Returns a message when the metric is missing or zero.
    pub fn positive(&self, name: &str) -> Result<f64, String> {
        let value = self.need(name)?;
        if value > 0.0 {
            return Ok(value);
        }
        Err(format!(
            "run `{}` has unusable `{name}` ({value})",
            self.label
        ))
    }

    /// The distinct names one level below `section`, sorted: `modes`
    /// gives `native`, `net`, …; `warm_start` gives the workloads.
    ///
    /// # Errors
    ///
    /// Returns a message when the run records no such section.
    pub fn section(&self, section: &str) -> Result<BTreeSet<&str>, String> {
        let prefix = format!("{section}.");
        let names: BTreeSet<&str> = self
            .metrics
            .keys()
            .filter_map(|name| name.strip_prefix(&prefix)?.split('.').next())
            .collect();
        if names.is_empty() {
            return Err(format!(
                "run `{}` records no `{section}` section",
                self.label
            ));
        }
        Ok(names)
    }
}

/// Flattens every run of a perf or telemetry document.
///
/// A perf document (`{"runs": [...]}`) yields one [`Run`] per entry. Its
/// `label` and `scale` strings are metadata; every other leaf is a
/// metric. A telemetry document (`{"events": {...}}`) yields one run
/// holding its `events.*` counts; its histograms and timings are not read.
///
/// # Errors
///
/// Returns a message when the text is not JSON, matches neither format,
/// a run lacks a string `label`, or any metric is not a finite
/// non-negative number.
pub fn read_runs(text: &str) -> Result<(DocKind, Vec<Run>), String> {
    let doc = JsonValue::parse(text)?;
    if let Some(runs) = doc.get("runs") {
        let runs = runs.as_arr().ok_or("\"runs\" is not an array")?;
        let runs = runs
            .iter()
            .enumerate()
            .map(|(i, run)| {
                let label = run
                    .get("label")
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| format!("run #{i}: missing string \"label\""))?;
                let mut metrics = BTreeMap::new();
                for (key, value) in run.as_obj().unwrap_or_default() {
                    if key == "label" || (key == "scale" && value.as_str().is_some()) {
                        continue;
                    }
                    flatten(key, value, &mut metrics).map_err(|e| format!("run `{label}`: {e}"))?;
                }
                Ok(Run {
                    label: label.to_string(),
                    metrics,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok((DocKind::Perf, runs))
    } else if let Some(events) = doc.get("events") {
        if events.as_obj().is_none() {
            return Err("\"events\" is not an object".into());
        }
        let mut metrics = BTreeMap::new();
        flatten("events", events, &mut metrics)?;
        let run = Run {
            label: "telemetry".to_string(),
            metrics,
        };
        Ok((DocKind::Telemetry, vec![run]))
    } else {
        Err("document has neither a \"runs\" nor an \"events\" key".into())
    }
}

/// Adds every leaf of `value` to `out` under `path`, joining object keys
/// with dots.
fn flatten(path: &str, value: &JsonValue, out: &mut BTreeMap<String, f64>) -> Result<(), String> {
    match value {
        JsonValue::Obj(members) => members
            .iter()
            .try_for_each(|(key, member)| flatten(&format!("{path}.{key}"), member, out)),
        JsonValue::Num(n) if n.is_finite() && *n >= 0.0 => {
            out.insert(path.to_string(), *n);
            Ok(())
        }
        other => Err(format!(
            "`{path}` is not a finite non-negative number ({other:?})"
        )),
    }
}

/// Picks a run by label, or the last one when `label` is `None` (the most
/// recent append).
///
/// # Errors
///
/// Returns a message listing the available labels.
pub fn select_run<'a>(runs: &'a [Run], label: Option<&str>) -> Result<&'a Run, String> {
    match label {
        Some(want) => runs.iter().rev().find(|r| r.label == want).ok_or_else(|| {
            let labels: Vec<&str> = runs.iter().map(|r| r.label.as_str()).collect();
            format!("no run labelled `{want}` (have: {})", labels.join(", "))
        }),
        None => runs.last().ok_or_else(|| "document holds no runs".into()),
    }
}

/// The bound a check's current value must satisfy.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Limit {
    /// `current >= x`.
    AtLeast(f64),
    /// `current <= x`.
    AtMost(f64),
    /// `current < x`.
    Below(f64),
    /// `current == x`.
    Exactly(f64),
}

/// One gated metric: the row every gate reports.
#[derive(Clone, PartialEq, Debug)]
pub struct Check {
    /// Metric name, followed by the runs it spans when they differ from
    /// the gate's.
    pub name: String,
    /// Reference value: the baseline run's, or what the gate expects.
    pub baseline: f64,
    /// Value under test.
    pub current: f64,
    /// Bound `current` must satisfy.
    pub limit: Limit,
    /// Whether `current` satisfies `limit`.
    pub pass: bool,
    /// The paired runs behind an [`ab_gate`] row; `None` for every other
    /// gate.
    pub pairing: Option<Pairing>,
}

/// What [`ab_gate`] concluded about one metric.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// The change median is worse than the parent's by more than the
    /// bound.
    Fail,
    /// The parent's runs spread wider than the bound, so no verdict can
    /// rest on them.
    Unresolved,
    /// The change won at least 9 pairs in 10, and the medians differ by
    /// more than the parent's interquartile range.
    Gain,
    /// None of the above.
    Unchanged,
}

impl Verdict {
    /// The word [`render`] prints.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Fail => "FAIL",
            Verdict::Unresolved => "unresolved",
            Verdict::Gain => "gain",
            Verdict::Unchanged => "unchanged",
        }
    }
}

/// The paired evidence behind one [`ab_gate`] row.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Pairing {
    /// Pairs whose change run beat its parent run; ties count for
    /// neither side.
    pub won: usize,
    /// Pairs compared.
    pub pairs: usize,
    /// The parent runs' interquartile range over their median.
    pub parent_iqr_share: f64,
    /// The verdict.
    pub verdict: Verdict,
}

impl Check {
    /// Checks `current` against `limit`.
    pub fn new(name: impl Into<String>, baseline: f64, current: f64, limit: Limit) -> Check {
        let pass = match limit {
            Limit::AtLeast(x) => current >= x,
            Limit::AtMost(x) => current <= x,
            Limit::Below(x) => current < x,
            Limit::Exactly(x) => current == x,
        };
        Check {
            name: name.into(),
            baseline,
            current,
            limit,
            pass,
            pairing: None,
        }
    }
}

/// Renders `checks` as one aligned table under `title`. When any row
/// comes from [`ab_gate`], the table gains the pairs-won and parent-IQR
/// columns, and those rows print their [`Verdict`].
pub fn render(title: &str, checks: &[Check]) -> String {
    use std::fmt::Write as _;
    let num = |v: f64| {
        let places = if v.fract() == 0.0 || v.abs() >= 1e4 {
            0
        } else if v.abs() < 1.0 {
            6
        } else {
            4
        };
        format!("{v:.places$}")
    };
    let paired = checks.iter().any(|c| c.pairing.is_some());
    let width = checks.iter().map(|c| c.name.len()).max().unwrap_or(0);
    let mut out = format!("{title}\n");
    let _ = write!(
        out,
        "{:<width$} {:>14} {:>14} {:>8} {:>16}",
        "metric", "baseline", "current", "ratio", "limit"
    );
    if paired {
        let _ = write!(out, " {:>7} {:>8}", "won", "base IQR");
    }
    out.push_str("  verdict\n");
    for c in checks {
        let (op, x) = match c.limit {
            Limit::AtLeast(x) => (">=", x),
            Limit::AtMost(x) => ("<=", x),
            Limit::Below(x) => ("<", x),
            Limit::Exactly(x) => ("==", x),
        };
        let ratio = match c.baseline {
            0.0 => "-".to_string(),
            base => format!("{:.3}x", c.current / base),
        };
        let _ = write!(
            out,
            "{:<width$} {:>14} {:>14} {:>8} {:>16}",
            c.name,
            num(c.baseline),
            num(c.current),
            ratio,
            format!("{op} {}", num(x)),
        );
        if paired {
            let (won, iqr) = match c.pairing {
                Some(p) => (
                    format!("{}/{}", p.won, p.pairs),
                    format!("{:.1}%", 100.0 * p.parent_iqr_share),
                ),
                None => ("-".to_string(), "-".to_string()),
            };
            let _ = write!(out, " {won:>7} {iqr:>8}");
        }
        let verdict = match (c.pairing, c.pass) {
            (Some(p), _) => p.verdict.as_str(),
            (None, true) => "ok",
            (None, false) => "FAIL",
        };
        let _ = writeln!(out, "  {verdict}");
    }
    out
}

/// Fewest run pairs [`ab_gate`] accepts.
pub const AB_MIN_PAIRS: usize = 10;

/// One end-to-end metric of the repository benchmark, as
/// `BENCHMARK.json` declares it.
#[derive(Clone, PartialEq, Debug)]
pub struct EndToEnd {
    /// Metric name, as hotbench prints it.
    pub name: String,
    /// Whether larger values are better (`"better": "higher"`).
    pub higher_is_better: bool,
    /// The largest relative worsening of the median that passes, which
    /// is also the widest parent spread a verdict can rest on.
    pub bound: f64,
}

/// Reads the `end_to_end` metrics of a `BENCHMARK.json`.
///
/// # Errors
///
/// Returns a message when the text is not JSON, has no `end_to_end`
/// array, or an entry lacks a string `name`, a `better` of `higher` or
/// `lower`, or a `bound` in `[0, 1)`.
pub fn read_end_to_end(text: &str) -> Result<Vec<EndToEnd>, String> {
    let doc = JsonValue::parse(text)?;
    let metrics = doc
        .get("end_to_end")
        .and_then(JsonValue::as_arr)
        .ok_or("no \"end_to_end\" array")?;
    metrics
        .iter()
        .enumerate()
        .map(|(i, metric)| {
            let name = metric
                .get("name")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| format!("end_to_end #{i}: missing string \"name\""))?;
            let higher_is_better = match metric.get("better").and_then(JsonValue::as_str) {
                Some("higher") => true,
                Some("lower") => false,
                _ => return Err(format!("`{name}`: \"better\" is not higher or lower")),
            };
            let bound = metric
                .get("bound")
                .and_then(JsonValue::as_f64)
                .filter(|b| (0.0..1.0).contains(b))
                .ok_or_else(|| format!("`{name}`: \"bound\" is not in [0, 1)"))?;
            Ok(EndToEnd {
                name: name.to_string(),
                higher_is_better,
                bound,
            })
        })
        .collect()
}

/// Reads a file of hotbench result lines, one run per non-blank line:
/// `{"correct", "attempted", "failed", "metrics": {name: {"value",
/// "unit"}}}`. Each [`Run`] is labelled `LABEL line N` and holds
/// `correct` (1 or 0), `attempted`, `failed` and every metric's value by
/// its name.
///
/// # Errors
///
/// Returns a message naming the line when it is not JSON, lacks a
/// field, or holds a value that is not a finite non-negative number.
pub fn read_hotbench_runs(text: &str, label: &str) -> Result<Vec<Run>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| {
            let label = format!("{label} line {}", i + 1);
            let fail = |e: String| format!("{label}: {e}");
            let doc = JsonValue::parse(line).map_err(fail)?;
            let correct = match doc.get("correct") {
                Some(JsonValue::Bool(ok)) => *ok,
                _ => return Err(fail("missing boolean \"correct\"".into())),
            };
            let mut metrics =
                BTreeMap::from([("correct".to_string(), f64::from(u8::from(correct)))]);
            for key in ["attempted", "failed"] {
                let value = doc
                    .get(key)
                    .ok_or_else(|| fail(format!("missing \"{key}\"")))?;
                flatten(key, value, &mut metrics).map_err(fail)?;
            }
            let values = doc
                .get("metrics")
                .and_then(JsonValue::as_obj)
                .ok_or_else(|| fail("missing \"metrics\" object".into()))?;
            for (name, metric) in values {
                let value = metric
                    .get("value")
                    .ok_or_else(|| fail(format!("`{name}` has no \"value\"")))?;
                flatten(name, value, &mut metrics).map_err(fail)?;
            }
            Ok(Run { label, metrics })
        })
        .collect()
}

/// The `q`-quantile of `sorted` (ascending, non-empty), interpolating
/// linearly between neighbours.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let at = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (at - lo as f64)
}

/// Judges a change against its parent from paired runs of the repository
/// benchmark: run i of `parent` and of `change` were made back to back.
///
/// Each of `metrics` gets one row: the parent and change medians, a
/// limit that fails a change median worse than the parent's by more than
/// the metric's bound, and a [`Pairing`] whose [`Verdict`] is, in order:
/// `Fail` when the limit fails; `Unresolved` when the parent's IQR over
/// its median exceeds the bound, unless every change run beats every
/// parent run; `Gain` when the change wins at least 9 pairs in 10 and
/// its median is better by more than the parent's IQR; else `Unchanged`.
/// Three plain rows follow: every parent run and every change run must
/// report `correct`, and the change's failed share of attempted
/// operations must not exceed the parent's.
///
/// # Errors
///
/// Returns a message when the sides hold different numbers of runs,
/// fewer than [`AB_MIN_PAIRS`], or a run lacks a metric.
pub fn ab_gate(metrics: &[EndToEnd], parent: &[Run], change: &[Run]) -> Result<Vec<Check>, String> {
    let pairs = parent.len();
    if change.len() != pairs {
        return Err(format!(
            "the parent has {pairs} runs and the change {}; runs must pair up",
            change.len()
        ));
    }
    if pairs < AB_MIN_PAIRS {
        return Err(format!(
            "{pairs} pairs of runs; a verdict needs at least {AB_MIN_PAIRS}"
        ));
    }
    let values = |runs: &[Run], name: &str| -> Result<Vec<f64>, String> {
        runs.iter().map(|run| run.need(name)).collect()
    };
    let mut checks = Vec::new();
    for metric in metrics {
        let (p, c) = (values(parent, &metric.name)?, values(change, &metric.name)?);
        let better = |a: f64, b: f64| {
            if metric.higher_is_better {
                a > b
            } else {
                a < b
            }
        };
        let won = p.iter().zip(&c).filter(|&(&p, &c)| better(c, p)).count();
        let dominates = c.iter().all(|&c| p.iter().all(|&p| better(c, p)));
        let sorted = |mut v: Vec<f64>| {
            v.sort_by(f64::total_cmp);
            v
        };
        let (p, c) = (sorted(p), sorted(c));
        let (base, cur) = (quantile(&p, 0.5), quantile(&c, 0.5));
        let iqr = quantile(&p, 0.75) - quantile(&p, 0.25);
        let parent_iqr_share = match (base, iqr) {
            (_, 0.0) => 0.0,
            (0.0, _) => f64::INFINITY,
            _ => iqr / base,
        };
        let limit = if metric.higher_is_better {
            Limit::AtLeast(base * (1.0 - metric.bound))
        } else {
            Limit::AtMost(base * (1.0 + metric.bound))
        };
        let mut check = Check::new(metric.name.as_str(), base, cur, limit);
        let verdict = if !check.pass {
            Verdict::Fail
        } else if parent_iqr_share > metric.bound && !dominates {
            Verdict::Unresolved
        } else if won * 10 >= pairs * 9 && better(cur, base) && (cur - base).abs() > iqr {
            Verdict::Gain
        } else {
            Verdict::Unchanged
        };
        check.pairing = Some(Pairing {
            won,
            pairs,
            parent_iqr_share,
            verdict,
        });
        checks.push(check);
    }
    for (side, runs) in [("parent", parent), ("change", change)] {
        let correct = values(runs, "correct")?.iter().sum::<f64>();
        checks.push(Check::new(
            format!("{side} runs correct"),
            pairs as f64,
            correct,
            Limit::Exactly(pairs as f64),
        ));
    }
    let failed_share = |runs: &[Run]| -> Result<f64, String> {
        let failed: f64 = values(runs, "failed")?.iter().sum();
        let attempted: f64 = values(runs, "attempted")?.iter().sum();
        Ok(if attempted > 0.0 {
            failed / attempted
        } else {
            0.0
        })
    };
    let base = failed_share(parent)?;
    checks.push(Check::new(
        "failed / attempted",
        base,
        failed_share(change)?,
        Limit::AtMost(base),
    ));
    Ok(checks)
}

/// Gates a committed scale-sweep curve. Collects every run labelled
/// `PREFIX-nN` (session count from the run's `sessions` metric, else the
/// label suffix), keeps the latest run per count, and requires the
/// `serve-aggregate` rate at the largest count to hold at least
/// [`CURVE_FLOOR`] times the rate at the smallest — throughput must
/// degrade gracefully with concurrency, not collapse.
///
/// # Errors
///
/// Returns a message when fewer than two distinct session counts match,
/// or a matching run lacks a positive `serve-aggregate` rate.
pub fn sweep_curve(runs: &[Run], prefix: &str) -> Result<Vec<Check>, String> {
    // `(sessions, label, serve-aggregate rate)` per sweep point.
    let mut points: Vec<(f64, &str, f64)> = Vec::new();
    for run in runs {
        let Some(suffix) = run
            .label
            .strip_prefix(prefix)
            .and_then(|s| s.strip_prefix("-n"))
        else {
            continue;
        };
        let sessions = match run.get("sessions") {
            Some(n) => n,
            None => suffix
                .parse::<f64>()
                .map_err(|_| format!("run `{}`: unparsable session count", run.label))?,
        };
        let rate = run.positive("modes.serve-aggregate.blocks_per_sec")?;
        let point = (sessions, run.label.as_str(), rate);
        // Latest append per session count wins — documents accumulate
        // re-measurements under the same labels.
        match points.iter_mut().find(|p| p.0 == sessions) {
            Some(existing) => *existing = point,
            None => points.push(point),
        }
    }
    if points.len() < 2 {
        return Err(format!(
            "need at least two `{prefix}-nN` session counts to gate a curve, have {}",
            points.len()
        ));
    }
    points.sort_by(|a, b| a.0.total_cmp(&b.0));
    let ((_, small, base), (_, large, cur)) = (points[0], points[points.len() - 1]);
    Ok(vec![Check::new(
        format!("modes.serve-aggregate.blocks_per_sec ({small} -> {large})"),
        base,
        cur,
        Limit::AtLeast(CURVE_FLOOR * base),
    )])
}

/// Gates a committed `loadgen --warm-start` run: every workload's
/// pre-warmed blocks-to-first-trace must sit strictly below its cold
/// number, and the `serve-prewarmed` rate may trail `serve-cold` by at
/// most `tolerance`. Both rates are divided by the run's `native` rate
/// like every throughput check; the first-trace counts are deterministic
/// block counts and need no normalization.
///
/// # Errors
///
/// Returns a message when the run records no `warm_start` section, a
/// workload lacks a count or has a zero cold count, either serving rate
/// or the `native` rate is missing or zero.
pub fn warm_start_gate(run: &Run, tolerance: f64) -> Result<Vec<Check>, String> {
    let mut checks = Vec::new();
    for workload in run.section("warm_start")? {
        let count = |which: &str| format!("warm_start.{workload}.{which}_blocks_to_first_trace");
        let cold = run.positive(&count("cold"))?;
        let warm = run.need(&count("prewarmed"))?;
        checks.push(Check::new(
            count("prewarmed"),
            cold,
            warm,
            Limit::Below(cold),
        ));
    }
    let native = run.positive(NATIVE)?;
    let cold = run.positive("modes.serve-cold.blocks_per_sec")? / native;
    let warm = run.positive("modes.serve-prewarmed.blocks_per_sec")? / native;
    checks.push(Check::new(
        "modes.serve-prewarmed.blocks_per_sec",
        cold,
        warm,
        Limit::AtLeast(cold * (1.0 - tolerance)),
    ));
    Ok(checks)
}

/// Gates a committed `loadgen --chaos` run: every driven session must
/// have completed (the run's `sessions`, else the section's own
/// `completed`) with statistics bit-identical to the native run
/// (`divergent == 0`), the server's session tables must have returned to
/// their pre-run size (`leaked == 0`), and the pass must have visibly
/// absorbed at least one injected fault (retry, reconnect, shard restart,
/// or quarantined publish) — a chaos run that dodged every fault proves
/// nothing.
///
/// # Errors
///
/// Returns a message when the run records no `chaos` section, lacks one
/// of its counters, or records a fault rate outside `(0, 1]`.
pub fn chaos_gate(run: &Run) -> Result<Vec<Check>, String> {
    run.section("chaos")?;
    let rate = run.need("chaos.rate")?;
    if !(rate > 0.0 && rate <= 1.0) {
        return Err(format!(
            "run `{}` records an unusable chaos rate ({rate}); expected (0, 1]",
            run.label
        ));
    }
    let completed = run.need("chaos.completed")?;
    let expected = run.get("sessions").unwrap_or(completed);
    let absorbed = [
        "chaos.client_retries",
        "chaos.client_reconnects",
        "chaos.shards_restarted",
        "chaos.profiles_quarantined",
    ]
    .into_iter()
    .map(|name| run.need(name))
    .sum::<Result<f64, String>>()?;
    Ok(vec![
        // Counts are whole, so `>= 1` is `> 0`.
        Check::new(
            "chaos.completed",
            expected,
            completed,
            Limit::AtLeast(expected.max(1.0)),
        ),
        Check::new(
            "chaos.leaked",
            0.0,
            run.need("chaos.leaked")?,
            Limit::Exactly(0.0),
        ),
        Check::new(
            "chaos.divergent",
            0.0,
            run.need("chaos.divergent")?,
            Limit::Exactly(0.0),
        ),
        Check::new("chaos.faults_absorbed", 1.0, absorbed, Limit::AtLeast(1.0)),
    ])
}

/// Gates a serve-path allocation profile: the current run's heap bytes
/// and allocator calls per interpreted block (`alloc.bytes_per_block`,
/// `alloc.allocs_per_block`) must not exceed the baseline's by more than
/// `tolerance` (more allocation is the failure direction, so the gate
/// trips on *increases*). Both counts come from the measuring allocator's
/// per-stage attribution, so they are deterministic for a fixed build and
/// workload set and portable across hosts — no normalization is needed.
/// Gating a run against itself (`baseline == current`) validates that
/// the committed section exists and is well-formed, which is how CI
/// self-checks the document.
///
/// # Errors
///
/// Returns a message when either run records no `alloc` section (the run
/// was measured without a `selfprof-alloc` build), lacks a per-block
/// metric, or carries a zero baseline — an alloc-free serve path means
/// the attribution hooks were compiled out, not that the path is perfect.
pub fn alloc_gate(baseline: &Run, current: &Run, tolerance: f64) -> Result<Vec<Check>, String> {
    for run in [baseline, current] {
        run.section("alloc")?;
    }
    ["alloc.bytes_per_block", "alloc.allocs_per_block"]
        .into_iter()
        .map(|name| {
            let base = baseline
                .positive(name)
                .map_err(|e| format!("{e}; a zero means the measuring allocator was off"))?;
            let cur = current.need(name)?;
            Ok(Check::new(
                name,
                base,
                cur,
                Limit::AtMost(base * (1.0 + tolerance)),
            ))
        })
        .collect()
}

/// Diffs the `events` counts of two `telemetry.json` documents exactly;
/// an event kind absent from one side counts 0 there. Wall clock
/// (`timings`) is nondeterministic by contract and not compared.
///
/// # Errors
///
/// Returns a message when either document is not a telemetry document or
/// holds a count that is not a whole non-negative number.
pub fn compare_telemetry(baseline: &str, current: &str) -> Result<Vec<Check>, String> {
    let events = |text: &str, which: &str| -> Result<Run, String> {
        let (DocKind::Telemetry, mut runs) =
            read_runs(text).map_err(|e| format!("{which}: {e}"))?
        else {
            return Err(format!("{which}: not a telemetry document"));
        };
        let run = runs.pop().expect("a telemetry document reads as one run");
        if let Some((name, n)) = run.metrics.iter().find(|(_, n)| n.fract() != 0.0) {
            return Err(format!("{which}: `{name}` = {n} is not an event count"));
        }
        Ok(run)
    };
    let (base, cur) = (events(baseline, "baseline")?, events(current, "current")?);
    let names: BTreeSet<&String> = base.metrics.keys().chain(cur.metrics.keys()).collect();
    Ok(names
        .into_iter()
        .map(|name| {
            let count = base.get(name).unwrap_or(0.0);
            Check::new(
                name.as_str(),
                count,
                cur.get(name).unwrap_or(0.0),
                Limit::Exactly(count),
            )
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The runs of `text`, which must read cleanly.
    fn runs(text: &str) -> Vec<Run> {
        read_runs(text).expect("document reads").1
    }

    /// The single run of `text`.
    fn run(text: &str) -> Run {
        runs(text).remove(0)
    }

    /// `run` relabelled, with `name` set to `value`.
    fn with(run: &Run, label: &str, name: &str, value: f64) -> Run {
        let mut run = run.clone();
        run.label = label.to_string();
        run.metrics.insert(name.to_string(), value);
        run
    }

    /// `run` without the metrics under `section`.
    fn without(run: &Run, section: &str) -> Run {
        let mut run = run.clone();
        let prefix = format!("{section}.");
        run.metrics.retain(|name, _| !name.starts_with(&prefix));
        run
    }

    /// Names of the checks that failed.
    fn failing(checks: &[Check]) -> Vec<&str> {
        checks
            .iter()
            .filter(|c| !c.pass)
            .map(|c| c.name.as_str())
            .collect()
    }

    fn committed() -> Vec<Run> {
        runs(include_str!("../../../BENCH_perf.json"))
    }

    fn perf_doc(label: &str, native_rate: f64, net_rate: f64) -> String {
        format!(
            r#"{{
  "runs": [
    {{
      "label": "{label}",
      "scale": "small",
      "reps": 3,
      "total_blocks": 1000000,
      "modes": {{
        "native": {{"secs": 1.0, "blocks_per_sec": {native_rate}}},
        "net": {{"secs": 2.0, "blocks_per_sec": {net_rate}}},
        "dynamo": {{"secs": 4.0, "blocks_per_sec": {}}}
      }}
    }}
  ]
}}"#,
            native_rate / 4.0
        )
    }

    #[test]
    fn detects_document_kinds() {
        let kind = |text: &str| read_runs(text).map(|(kind, _)| kind);
        assert_eq!(kind(&perf_doc("a", 1e6, 1.0)), Ok(DocKind::Perf));
        assert_eq!(
            kind(r#"{"label": "x", "events": {"vm_halt": 1}}"#),
            Ok(DocKind::Telemetry)
        );
        assert!(kind(r#"{"something": 1}"#).is_err());
        assert!(kind("not json").is_err());
    }

    #[test]
    fn parses_perf_runs() {
        let runs = runs(&perf_doc("base", 1e6, 500000.0));
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].label, "base");
        assert_eq!(runs[0].get("total_blocks"), Some(1000000.0));
        assert_eq!(runs[0].get("reps"), Some(3.0));
        assert_eq!(runs[0].get("modes.net.blocks_per_sec"), Some(500000.0));
        assert_eq!(runs[0].get("modes.bogus.blocks_per_sec"), None);
        assert_eq!(runs[0].get("scale"), None, "scale is metadata");
        let modes: Vec<&str> = runs[0].section("modes").unwrap().into_iter().collect();
        assert_eq!(modes, ["dynamo", "native", "net"]);
        // Every other leaf must be a finite non-negative number: strings,
        // nulls, booleans, arrays, negative and overflowing numbers are
        // errors.
        for bad in ["\"2.0\"", "null", "true", "[2.0]", "-2.0", "1e999"] {
            let doc = perf_doc("base", 1e6, 500000.0)
                .replace("\"secs\": 2.0", &format!("\"secs\": {bad}"));
            let err = read_runs(&doc).unwrap_err();
            assert!(err.contains("modes.net.secs"), "{bad}: {err}");
        }
        let unlabelled = perf_doc("base", 1e6, 1.0).replace("\"label\": \"base\",", "");
        assert!(read_runs(&unlabelled).unwrap_err().contains("label"));
    }

    #[test]
    fn select_run_by_label_and_default_last() {
        let runs = runs(&perf_doc("only", 1e6, 1.0));
        assert_eq!(select_run(&runs, None).unwrap().label, "only");
        assert_eq!(select_run(&runs, Some("only")).unwrap().label, "only");
        let err = select_run(&runs, Some("missing")).unwrap_err();
        assert!(err.contains("only"), "{err}");
    }

    /// The committed benchmark's end-to-end metrics.
    fn end_to_end() -> Vec<EndToEnd> {
        read_end_to_end(include_str!("../../../BENCHMARK.json")).expect("BENCHMARK.json reads")
    }

    /// Ten hotbench runs whose metric `i` takes `value(run, i)` over
    /// `metrics`, all correct with no failed operation.
    fn ab_runs(metrics: &[EndToEnd], value: impl Fn(usize, usize) -> f64) -> Vec<Run> {
        let lines: Vec<String> = (0..AB_MIN_PAIRS)
            .map(|run| {
                let values: Vec<String> = metrics
                    .iter()
                    .enumerate()
                    .map(|(i, m)| {
                        format!(
                            r#""{}": {{"value": {}, "unit": "u"}}"#,
                            m.name,
                            value(run, i)
                        )
                    })
                    .collect();
                format!(
                    r#"{{"correct": true, "attempted": 50, "failed": 0, "metrics": {{{}}}}}"#,
                    values.join(", ")
                )
            })
            .collect();
        read_hotbench_runs(&lines.join("\n"), "test").expect("runs read")
    }

    /// The verdict of the row named `name`.
    fn verdict(checks: &[Check], name: &str) -> Verdict {
        let row = checks.iter().find(|c| c.name == name).expect("row");
        row.pairing.expect("a paired row").verdict
    }

    #[test]
    fn identical_runs_pass() {
        // An A/A comparison: both sides hold the same ten runs, spread a
        // few percent. Every pair ties, so nothing is a gain or a failure.
        let metrics = end_to_end();
        let runs = ab_runs(&metrics, |run, _| 100.0 + run as f64);
        let checks = ab_gate(&metrics, &runs, &runs).unwrap();
        assert_eq!(checks.len(), metrics.len() + 3);
        assert!(failing(&checks).is_empty(), "{}", render("", &checks));
        for c in &checks[..metrics.len()] {
            assert_eq!(c.baseline, c.current);
            let pairing = c.pairing.unwrap();
            assert_eq!((pairing.won, pairing.pairs), (0, 10));
            assert_eq!(pairing.verdict, Verdict::Unchanged, "{}", c.name);
        }
    }

    #[test]
    fn fifteen_percent_regression_fails_the_default_gate() {
        // The default gate is BENCHMARK.json's bounds: a 15% rise in
        // `peak_rss_mb` (bound 0.10) fails, while the same 15% loss in a
        // throughput metric (bound 0.25) is inside its bound.
        let metrics = end_to_end();
        let rss = metrics
            .iter()
            .position(|m| m.name == "peak_rss_mb")
            .unwrap();
        let rate = metrics
            .iter()
            .position(|m| m.name == "linked_blocks_per_s")
            .unwrap();
        let parent = ab_runs(&metrics, |run, _| 100.0 + run as f64 / 10.0);
        let change = ab_runs(&metrics, |run, i| {
            let base = 100.0 + run as f64 / 10.0;
            match i {
                i if i == rss => base * 1.15,
                i if i == rate => base * 0.85,
                _ => base,
            }
        });
        let checks = ab_gate(&metrics, &parent, &change).unwrap();
        assert_eq!(failing(&checks), ["peak_rss_mb"]);
        assert_eq!(verdict(&checks, "peak_rss_mb"), Verdict::Fail);
        assert_eq!(verdict(&checks, "linked_blocks_per_s"), Verdict::Unchanged);
        let table = render("A/B", &checks);
        let row = table
            .lines()
            .find(|l| l.starts_with("peak_rss_mb"))
            .unwrap();
        assert!(
            row.contains("1.150x") && row.contains("0/10") && row.ends_with("FAIL"),
            "{table}"
        );
    }

    #[test]
    fn ab_gains_need_nine_pairs_and_a_gap_wider_than_the_spread() {
        let metrics = vec![EndToEnd {
            name: "rate".into(),
            higher_is_better: true,
            bound: 0.25,
        }];
        let parent = ab_runs(&metrics, |run, _| 100.0 + run as f64);
        // Every change run 10% faster than its pair: a gain.
        let faster = ab_runs(&metrics, |run, _| 110.0 + 1.1 * run as f64);
        let checks = ab_gate(&metrics, &parent, &faster).unwrap();
        assert_eq!(verdict(&checks, "rate"), Verdict::Gain);
        assert!(failing(&checks).is_empty());
        // Eight wins in ten are not enough.
        let mostly = ab_runs(&metrics, |run, _| {
            if run < 2 {
                100.0 + run as f64
            } else {
                110.0 + run as f64
            }
        });
        assert_eq!(
            verdict(&ab_gate(&metrics, &parent, &mostly).unwrap(), "rate"),
            Verdict::Unchanged
        );
        // Nor are ten wins by less than the parent's IQR (4.5 here).
        let barely = ab_runs(&metrics, |run, _| 100.5 + run as f64);
        assert_eq!(
            verdict(&ab_gate(&metrics, &parent, &barely).unwrap(), "rate"),
            Verdict::Unchanged
        );
        // Lower-is-better metrics win downwards.
        let latency = vec![EndToEnd {
            higher_is_better: false,
            ..metrics[0].clone()
        }];
        let checks = ab_gate(&latency, &faster, &parent).unwrap();
        assert_eq!(verdict(&checks, "rate"), Verdict::Gain);
    }

    #[test]
    fn ab_spread_wider_than_the_bound_is_unresolved() {
        let metrics = vec![EndToEnd {
            name: "rate".into(),
            higher_is_better: true,
            bound: 0.10,
        }];
        // Parent runs spread 50-140: IQR 45, a 47% share of the median.
        let parent = ab_runs(&metrics, |run, _| 50.0 + 10.0 * run as f64);
        let same = ab_gate(&metrics, &parent, &parent).unwrap();
        assert_eq!(verdict(&same, "rate"), Verdict::Unresolved);
        let share = same[0].pairing.unwrap().parent_iqr_share;
        assert!((share - 45.0 / 95.0).abs() < 1e-12, "{share}");
        assert!(render("", &same).contains("47.4%"));
        // Unresolved does not fail the gate, but a median loss past the
        // bound still does.
        assert!(failing(&same).is_empty());
        let slower = ab_runs(&metrics, |run, _| 40.0 + 9.0 * run as f64);
        let checks = ab_gate(&metrics, &parent, &slower).unwrap();
        assert_eq!(verdict(&checks, "rate"), Verdict::Fail);
        // A change whose every run beats every parent run is judged
        // despite the spread.
        let clear = ab_runs(&metrics, |run, _| 200.0 + run as f64);
        let checks = ab_gate(&metrics, &parent, &clear).unwrap();
        assert_eq!(verdict(&checks, "rate"), Verdict::Gain);
    }

    #[test]
    fn ab_gate_fails_incorrect_runs_and_more_failed_operations() {
        let metrics = end_to_end();
        let good = ab_runs(&metrics, |run, _| 100.0 + run as f64);
        let doctor = |from: &str, to: &str| {
            let mut runs = good.clone();
            runs[3].metrics.insert(from.to_string(), 0.0);
            runs[3].metrics.insert(to.to_string(), 1.0);
            runs
        };
        let incorrect = doctor("correct", "failed");
        let checks = ab_gate(&metrics, &good, &incorrect).unwrap();
        assert_eq!(
            failing(&checks),
            ["change runs correct", "failed / attempted"]
        );
        let checks = ab_gate(&metrics, &incorrect, &good).unwrap();
        assert_eq!(failing(&checks), ["parent runs correct"]);
    }

    #[test]
    fn ab_gate_rejects_unpaired_or_short_input() {
        let metrics = end_to_end();
        let runs = ab_runs(&metrics, |run, _| 100.0 + run as f64);
        let err = ab_gate(&metrics, &runs, &runs[..9]).unwrap_err();
        assert!(err.contains("must pair up"), "{err}");
        let err = ab_gate(&metrics, &runs[..9], &runs[..9]).unwrap_err();
        assert!(err.contains("at least 10"), "{err}");
        let missing = vec![EndToEnd {
            name: "no_such_metric".into(),
            higher_is_better: true,
            bound: 0.25,
        }];
        let err = ab_gate(&missing, &runs, &runs).unwrap_err();
        assert!(err.contains("no `no_such_metric`"), "{err}");
    }

    #[test]
    fn hotbench_lines_and_benchmark_bounds_read_strictly() {
        let metrics = end_to_end();
        assert_eq!(metrics.len(), 9);
        let rss = metrics.iter().find(|m| m.name == "peak_rss_mb").unwrap();
        assert!(!rss.higher_is_better && rss.bound == 0.1);
        let line = r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"x": {"value": 2.5, "unit": "s"}}}"#;
        let runs = read_hotbench_runs(&format!("{line}\n\n{line}\n"), "parent").unwrap();
        assert_eq!(runs.len(), 2, "blank lines are skipped");
        assert_eq!(runs[1].label, "parent line 3");
        assert_eq!(runs[0].get("x"), Some(2.5));
        assert_eq!(runs[0].get("correct"), Some(1.0));
        for (from, to) in [
            ("2.5", "1e999"),
            ("2.5", "-1"),
            ("2.5", "\"2.5\""),
            ("true", "1"),
            ("\"attempted\": 3, ", ""),
            ("{\"value\": 2.5, \"unit\": \"s\"}", "2.5"),
        ] {
            let bad = line.replacen(from, to, 1);
            let err = read_hotbench_runs(&format!("{line}\n{bad}"), "change").unwrap_err();
            assert!(err.starts_with("change line 2:"), "{bad}: {err}");
        }
        assert!(read_hotbench_runs("not json", "x").is_err());
        for bad in [
            r#"{"end_to_end": [{"name": "x", "better": "up", "bound": 0.1}]}"#,
            r#"{"end_to_end": [{"name": "x", "better": "higher", "bound": 1.5}]}"#,
            r#"{"end_to_end": [{"better": "higher", "bound": 0.1}]}"#,
            r#"{"per_layer": []}"#,
        ] {
            assert!(read_end_to_end(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn nonfinite_metrics_error_instead_of_passing_as_nan() {
        // `NaN < limit` is false: a NaN would sail through any check. Both
        // readers reject non-finite values, and a zero parent median gives
        // an infinite spread share, never a NaN.
        let err =
            read_runs(&perf_doc("cur", 1e6, 500000.0).replace("500000}", "1e999}")).unwrap_err();
        assert!(err.contains("modes.net.blocks_per_sec"), "{err}");
        let line = r#"{"correct": true, "attempted": 1, "failed": 0, "metrics": {"x": {"value": 1e999, "unit": "s"}}}"#;
        let err = read_hotbench_runs(line, "parent").unwrap_err();
        assert!(err.contains("`x`"), "{err}");
        let metrics = vec![EndToEnd {
            name: "x".into(),
            higher_is_better: false,
            bound: 0.25,
        }];
        let mut parent = ab_runs(&metrics, |_, _| 0.0);
        parent[9].metrics.insert("x".into(), 5.0);
        parent[8].metrics.insert("x".into(), 5.0);
        parent[7].metrics.insert("x".into(), 5.0);
        let checks = ab_gate(&metrics, &parent, &parent).unwrap();
        let pairing = checks[0].pairing.unwrap();
        assert_eq!(pairing.parent_iqr_share, f64::INFINITY);
        assert_eq!(pairing.verdict, Verdict::Unresolved);
    }

    #[test]
    fn telemetry_diff_reports_changed_counts() {
        let base = r#"{"label": "a", "events": {"vm_halt": 8, "path_completed": 100}}"#;
        let same = compare_telemetry(base, base).unwrap();
        assert_eq!(same.len(), 2);
        assert!(failing(&same).is_empty());
        let cur =
            r#"{"label": "b", "events": {"vm_halt": 8, "path_completed": 101, "bailout": 1}}"#;
        let diff = compare_telemetry(base, cur).unwrap();
        assert_eq!(failing(&diff), ["events.bailout", "events.path_completed"]);
        assert_eq!((diff[0].baseline, diff[0].current), (0.0, 1.0));
        // A perf document on either side is refused.
        let perf = perf_doc("p", 1e6, 1.0);
        assert!(compare_telemetry(base, &perf)
            .unwrap_err()
            .contains("current"));
        assert!(compare_telemetry(&perf, base)
            .unwrap_err()
            .contains("baseline"));
    }

    #[test]
    fn telemetry_counts_must_be_whole_non_negative_numbers() {
        // A string, null, negative or fractional count is malformed input,
        // never a silent 0 or a truncated count.
        for (bad, other) in [("\"12\"", 0), ("null", 0), ("-1", 0), ("1.5", 1)] {
            let good = format!(r#"{{"label": "a", "events": {{"x": {other}}}}}"#);
            let malformed = format!(r#"{{"label": "b", "events": {{"x": {bad}}}}}"#);
            assert!(compare_telemetry(&good, &malformed).is_err(), "{bad}");
            assert!(compare_telemetry(&malformed, &good).is_err(), "{bad}");
        }
    }

    #[test]
    fn committed_bench_doc_parses_and_self_compares_clean() {
        // The repo's own BENCH_perf.json must stay loadable, hold exactly
        // the runs the committed-document gates read, and pass each of
        // them; its last run gates its alloc profile against itself.
        let runs = committed();
        let labels: Vec<&str> = runs.iter().map(|r| r.label.as_str()).collect();
        assert_eq!(
            labels,
            [
                "scale-n100",
                "scale-n1000",
                "scale-n10000",
                "warmstart",
                "chaos",
                "selfprof"
            ]
        );
        let pick = |label| select_run(&runs, Some(label)).unwrap();
        let mut checks = sweep_curve(&runs, "scale").unwrap();
        checks.extend(warm_start_gate(pick("warmstart"), DEFAULT_TOLERANCE).unwrap());
        checks.extend(chaos_gate(pick("chaos")).unwrap());
        let last = select_run(&runs, None).unwrap();
        checks.extend(alloc_gate(last, last, DEFAULT_TOLERANCE).unwrap());
        assert!(failing(&checks).is_empty(), "{}", render("", &checks));
    }

    /// A one-run document with a native normalizer, one extra mode, and
    /// an optional sessions count — building block for curve docs.
    fn run_obj(label: &str, mode: &str, rate: f64, sessions: Option<u32>) -> String {
        let sessions = sessions
            .map(|n| format!("      \"sessions\": {n},\n"))
            .unwrap_or_default();
        format!(
            "    {{\n      \"label\": \"{label}\",\n      \"scale\": \"smoke\",\n\
             {sessions}      \"total_blocks\": 1000000,\n      \"modes\": {{\n        \
             \"native\": {{\"secs\": 1.0, \"blocks_per_sec\": 1000000}},\n        \
             \"{mode}\": {{\"secs\": 2.0, \"blocks_per_sec\": {rate}}}\n      }}\n    }}"
        )
    }

    fn multi_doc(runs: &[String]) -> String {
        format!("{{\n  \"runs\": [\n{}\n  ]\n}}", runs.join(",\n"))
    }

    #[test]
    fn curve_gates_retention_between_smallest_and_largest_scale() {
        let curve = |largest: f64| {
            runs(&multi_doc(&[
                run_obj("sweep-n100", "serve-aggregate", 1000000.0, Some(100)),
                run_obj("sweep-n1000", "serve-aggregate", 800000.0, Some(1000)),
                run_obj("sweep-n10000", "serve-aggregate", largest, Some(10000)),
                run_obj("other", "serve-aggregate", 1.0, None),
            ]))
        };
        let checks = sweep_curve(&curve(600000.0), "sweep").unwrap();
        assert!(failing(&checks).is_empty(), "{}", render("", &checks));
        assert_eq!(
            checks[0].name,
            "modes.serve-aggregate.blocks_per_sec (sweep-n100 -> sweep-n10000)"
        );
        assert!((checks[0].current / checks[0].baseline - 0.6).abs() < 1e-9);
        // Retention below the 0.5 floor fails.
        let collapsed = sweep_curve(&curve(400000.0), "sweep").unwrap();
        assert_eq!(collapsed.len(), 1);
        assert!(!collapsed[0].pass);
    }

    #[test]
    fn curve_keeps_the_latest_run_per_session_count() {
        // Documents accumulate: a re-measured point under the same label
        // must supersede the stale one.
        let runs = runs(&multi_doc(&[
            run_obj("sweep-n100", "serve-aggregate", 1000000.0, Some(100)),
            run_obj("sweep-n10000", "serve-aggregate", 100000.0, Some(10000)),
            run_obj("sweep-n10000", "serve-aggregate", 900000.0, Some(10000)),
        ]));
        let checks = sweep_curve(&runs, "sweep").unwrap();
        assert!(failing(&checks).is_empty(), "{}", render("", &checks));
        assert_eq!(checks[0].current, 900000.0);
    }

    #[test]
    fn curve_rejects_thin_or_malformed_input() {
        let one = runs(&multi_doc(&[run_obj(
            "sweep-n100",
            "serve-aggregate",
            1000000.0,
            Some(100),
        )]));
        assert!(sweep_curve(&one, "sweep")
            .unwrap_err()
            .contains("at least two"));
        // A matching label without serve-aggregate is an error, not a skip.
        let wrong = runs(&multi_doc(&[
            run_obj("sweep-n100", "net", 1.0, Some(100)),
            run_obj("sweep-n1000", "serve-aggregate", 1.0, Some(1000)),
        ]));
        assert!(sweep_curve(&wrong, "sweep")
            .unwrap_err()
            .contains("serve-aggregate"));
        // So is a zero rate, which no retention can be measured against.
        let zero = runs(&multi_doc(&[
            run_obj("sweep-n100", "serve-aggregate", 0.0, Some(100)),
            run_obj("sweep-n1000", "serve-aggregate", 1.0, Some(1000)),
        ]));
        assert!(sweep_curve(&zero, "sweep")
            .unwrap_err()
            .contains("unusable `modes.serve-aggregate.blocks_per_sec`"));
    }

    fn warm_doc(label: &str, li_prewarmed: f64, warm_rate: f64) -> String {
        format!(
            r#"{{
  "runs": [
    {{
      "label": "{label}",
      "scale": "smoke",
      "sessions": 9,
      "shards": 4,
      "seed": 42,
      "total_blocks": 579483,
      "warm_start": {{
        "compress": {{"cold_blocks_to_first_trace": 256, "prewarmed_blocks_to_first_trace": 0}},
        "li": {{"cold_blocks_to_first_trace": 256, "prewarmed_blocks_to_first_trace": {li_prewarmed}}}
      }},
      "modes": {{
        "native": {{"secs": 0.014, "blocks_per_sec": 41000000}},
        "serve-cold": {{"secs": 0.016, "blocks_per_sec": 35000000}},
        "serve-prewarmed": {{"secs": 0.014, "blocks_per_sec": {warm_rate}}}
      }}
    }}
  ]
}}"#
        )
    }

    #[test]
    fn warm_start_records_parse_and_default_empty() {
        let run = run(&warm_doc("w", 0.0, 40000000.0));
        let workloads: Vec<&str> = run.section("warm_start").unwrap().into_iter().collect();
        assert_eq!(workloads, ["compress", "li"]);
        assert_eq!(
            run.get("warm_start.li.cold_blocks_to_first_trace"),
            Some(256.0)
        );
        assert_eq!(
            run.get("warm_start.li.prewarmed_blocks_to_first_trace"),
            Some(0.0)
        );
        // Documents without the section still read, with no records.
        let old = runs(&perf_doc("old", 1e6, 500000.0));
        assert!(old[0].section("warm_start").is_err());
    }

    #[test]
    fn warm_start_gate_requires_strictly_fewer_blocks_to_first_trace() {
        let good = run(&warm_doc("w", 0.0, 40000000.0));
        let checks = warm_start_gate(&good, DEFAULT_TOLERANCE).unwrap();
        assert_eq!(checks.len(), 3, "two workloads and the throughput check");
        assert!(failing(&checks).is_empty(), "{}", render("", &checks));
        // Equal counts are not strictly below: the gate must fail.
        let tie = run(&warm_doc("w", 256.0, 40000000.0));
        let checks = warm_start_gate(&tie, DEFAULT_TOLERANCE).unwrap();
        assert_eq!(
            failing(&checks),
            ["warm_start.li.prewarmed_blocks_to_first_trace"]
        );
        // And a run without warm-start data cannot be gated at all.
        let old = run(&perf_doc("old", 1e6, 500000.0));
        let err = warm_start_gate(&old, DEFAULT_TOLERANCE).unwrap_err();
        assert!(err.contains("no `warm_start` section"), "{err}");
    }

    #[test]
    fn warm_start_gate_trips_on_prewarmed_throughput_loss() {
        // Pre-warmed serving 15% under cold fails the default 10%
        // tolerance; first-trace counts alone cannot save the run.
        let slow = run(&warm_doc("w", 0.0, 29750000.0));
        let checks = warm_start_gate(&slow, DEFAULT_TOLERANCE).unwrap();
        assert_eq!(failing(&checks), ["modes.serve-prewarmed.blocks_per_sec"]);
        // Both serving rates are divided by the same native rate, so the
        // within-run ratio is the raw one.
        let throughput = checks.last().unwrap();
        assert!((throughput.current / throughput.baseline - 0.85).abs() < 1e-12);
    }

    #[test]
    fn warm_start_gate_rejects_malformed_runs() {
        let zero_cold = r#"{
  "runs": [
    {
      "label": "bad", "scale": "smoke", "total_blocks": 1,
      "warm_start": {"li": {"cold_blocks_to_first_trace": 0, "prewarmed_blocks_to_first_trace": 0}},
      "modes": {
        "serve-cold": {"secs": 1.0, "blocks_per_sec": 1000},
        "serve-prewarmed": {"secs": 1.0, "blocks_per_sec": 1000}
      }
    }
  ]
}"#;
        let err = warm_start_gate(&run(zero_cold), DEFAULT_TOLERANCE).unwrap_err();
        assert!(
            err.contains("unusable `warm_start.li.cold_blocks_to_first_trace`"),
            "{err}"
        );
        let good = run(&warm_doc("w", 0.0, 40000000.0));
        // A warm-start run missing a serving mode is an error, not a pass.
        let no_mode = without(&good, "modes.serve-prewarmed");
        let err = warm_start_gate(&no_mode, DEFAULT_TOLERANCE).unwrap_err();
        assert!(err.contains("serve-prewarmed"), "{err}");
        // The throughput check needs the native normalizer.
        let no_native = without(&good, "modes.native");
        let err = warm_start_gate(&no_native, DEFAULT_TOLERANCE).unwrap_err();
        assert!(err.contains("no `modes.native.blocks_per_sec`"), "{err}");
        // A workload with only one of its two counts is an error too.
        let half = without(&good, "warm_start.li");
        let half = with(
            &half,
            "w",
            "warm_start.li.cold_blocks_to_first_trace",
            256.0,
        );
        let err = warm_start_gate(&half, DEFAULT_TOLERANCE).unwrap_err();
        assert!(err.contains("warm_start.li.prewarmed"), "{err}");
    }

    /// The warm-start run of `warm_doc`, with every rate under `modes`
    /// multiplied by `factor`.
    fn warm_host(factor: f64) -> Run {
        let mut run = run(&warm_doc("w", 0.0, 40000000.0));
        for (name, value) in run.metrics.iter_mut() {
            if name.starts_with("modes.") && name.ends_with(".blocks_per_sec") {
                *value *= factor;
            }
        }
        run
    }

    #[test]
    fn relative_mode_cancels_machine_speed() {
        // The warm-start gate divides both serving rates by the run's own
        // native rate: a uniformly 2x slower host halves every rate and
        // changes no check.
        let fast = warm_start_gate(&warm_host(1.0), DEFAULT_TOLERANCE).unwrap();
        let slow = warm_start_gate(&warm_host(0.5), DEFAULT_TOLERANCE).unwrap();
        assert_eq!(fast, slow);
        assert!(failing(&slow).is_empty(), "{}", render("", &slow));
    }

    #[test]
    fn relative_mode_never_gates_native() {
        // Native is the normalizer, so it gets no check of its own, even
        // at zero tolerance.
        let checks = warm_start_gate(&warm_host(1.0), 0.0).unwrap();
        assert!(checks.iter().all(|c| !c.name.contains("native")));
    }

    #[test]
    fn relative_mode_rejects_absent_native() {
        let mut headless = without(&warm_host(1.0), "modes.native");
        headless.label = "headless".into();
        let err = warm_start_gate(&headless, DEFAULT_TOLERANCE).unwrap_err();
        assert!(err.contains("no `modes.native.blocks_per_sec`"), "{err}");
        assert!(err.contains("headless"), "{err}");
    }

    #[test]
    fn relative_mode_rejects_zero_or_nonfinite_native() {
        for bad in [0.0, -1.0] {
            let run = with(&warm_host(1.0), "bad", "modes.native.blocks_per_sec", bad);
            let err = warm_start_gate(&run, DEFAULT_TOLERANCE).unwrap_err();
            assert!(
                err.contains("unusable `modes.native.blocks_per_sec`"),
                "{bad}: {err}"
            );
        }
        // JSON has no NaN; an overflowing literal is the only non-finite
        // input, and the reader refuses it.
        let doc = warm_doc("w", 0.0, 40000000.0).replace("41000000}", "1e999}");
        let err = read_runs(&doc).unwrap_err();
        assert!(err.contains("modes.native.blocks_per_sec"), "{err}");
    }

    #[test]
    fn committed_warm_start_run_prewarms_strictly_faster() {
        // The repo's own BENCH_perf.json carries a `loadgen --warm-start`
        // run: every workload family must reach its first trace in
        // strictly fewer blocks pre-warmed than cold, and the pre-warmed
        // serving throughput must hold within the default tolerance —
        // this is what CI's warmstart-smoke job re-measures.
        let runs = committed();
        let run = select_run(&runs, Some("warmstart")).expect("warmstart run is committed");
        let workloads = run.section("warm_start").unwrap().len();
        assert!(
            workloads >= 9,
            "warm-start run covers the whole suite, got {workloads}"
        );
        let checks = warm_start_gate(run, DEFAULT_TOLERANCE).unwrap();
        assert_eq!(checks.len(), workloads + 1);
        assert!(failing(&checks).is_empty(), "{}", render("", &checks));
    }

    #[test]
    fn committed_scale_sweep_curve_holds_the_floor() {
        // The repo's own BENCH_perf.json carries the reactor scale curve
        // (runs `scale-n100` / `scale-n1000` / `scale-n10000`): every
        // point reads with a session count and a peak-RSS record, and
        // throughput retention from the smallest to the largest point
        // clears the floor — this is what the nightly sweep and
        // `bench_compare --curve` gate against fresh measurements.
        let runs = committed();
        let points: Vec<&Run> = runs
            .iter()
            .filter(|r| r.label.starts_with("scale-n"))
            .collect();
        assert!(points.len() >= 3, "curve spans at least 3 scales");
        for point in points {
            assert!(point.get("sessions").is_some() && point.get("rss_max_bytes").is_some());
        }
        let checks = sweep_curve(&runs, "scale").expect("committed scale sweep reads");
        assert!(failing(&checks).is_empty(), "{}", render("", &checks));
        assert!(
            checks[0].name.ends_with("-> scale-n10000)"),
            "curve reaches 10K concurrent sessions: {}",
            checks[0].name
        );
    }

    fn chaos_doc(leaked: u64, divergent: u64, retries: u64, restarts: u64) -> String {
        format!(
            r#"{{
  "runs": [
    {{
      "label": "chaos",
      "scale": "smoke",
      "sessions": 18,
      "shards": 4,
      "seed": 42,
      "total_blocks": 1158966,
      "chaos": {{
        "rate": 0.05,
        "completed": 18,
        "leaked": {leaked},
        "divergent": {divergent},
        "shards_restarted": {restarts},
        "sessions_readmitted": 12,
        "profiles_quarantined": 1,
        "client_retries": {retries},
        "client_reconnects": 0
      }},
      "modes": {{
        "native": {{"secs": 0.02, "blocks_per_sec": 50000000}},
        "serve-chaos": {{"secs": 2.4, "blocks_per_sec": 480000}}
      }}
    }}
  ]
}}"#
        )
    }

    #[test]
    fn chaos_section_parses_and_defaults_absent() {
        let run = run(&chaos_doc(0, 0, 100, 3));
        assert_eq!(run.get("chaos.rate"), Some(0.05));
        assert_eq!(run.get("chaos.completed"), Some(18.0));
        assert_eq!(run.get("chaos.client_retries"), Some(100.0));
        let checks = chaos_gate(&run).unwrap();
        let absorbed = checks
            .iter()
            .find(|c| c.name == "chaos.faults_absorbed")
            .unwrap();
        assert_eq!(absorbed.current, 104.0);
        // Documents without the section still read, with no record.
        let old = runs(&perf_doc("old", 1e6, 500000.0));
        assert!(old[0].section("chaos").is_err());
        // A section missing a counter is an error, not a default.
        let broken = chaos_doc(0, 0, 1, 1).replace("\"leaked\": 0,\n", "");
        let err = chaos_gate(&runs(&broken)[0]).unwrap_err();
        assert!(err.contains("leaked"), "{err}");
        // So is a fault rate outside (0, 1].
        let calm = chaos_doc(0, 0, 1, 1).replace("\"rate\": 0.05", "\"rate\": 0");
        let err = chaos_gate(&runs(&calm)[0]).unwrap_err();
        assert!(err.contains("chaos rate"), "{err}");
    }

    #[test]
    fn chaos_gate_requires_clean_completion_and_observed_faults() {
        let good = run(&chaos_doc(0, 0, 100, 3));
        let checks = chaos_gate(&good).unwrap();
        assert!(failing(&checks).is_empty(), "{}", render("", &checks));
        // A leaked session fails the gate.
        let leaky = run(&chaos_doc(1, 0, 100, 3));
        assert_eq!(failing(&chaos_gate(&leaky).unwrap()), ["chaos.leaked"]);
        // A divergent session fails the gate.
        let divergent = run(&chaos_doc(0, 2, 100, 3));
        assert_eq!(
            failing(&chaos_gate(&divergent).unwrap()),
            ["chaos.divergent"]
        );
        // Fewer completions than sessions driven fails the gate.
        let short = with(&good, "chaos", "chaos.completed", 17.0);
        assert_eq!(failing(&chaos_gate(&short).unwrap()), ["chaos.completed"]);
        // A run that dodged every fault proves nothing; quarantine and
        // readmission counts alone cannot save it here because this doc
        // zeroes retries/restarts only — so rebuild with all zero.
        let calm = chaos_doc(0, 0, 0, 0)
            .replace("\"profiles_quarantined\": 1", "\"profiles_quarantined\": 0");
        let checks = chaos_gate(&run(&calm)).unwrap();
        assert_eq!(failing(&checks), ["chaos.faults_absorbed"]);
        // And a run without a chaos section cannot be gated at all.
        let old = run(&perf_doc("old", 1e6, 500000.0));
        let err = chaos_gate(&old).unwrap_err();
        assert!(err.contains("no `chaos` section"), "{err}");
    }

    fn alloc_doc(label: &str, bytes_per_block: f64, allocs_per_block: f64) -> String {
        format!(
            r#"{{
  "runs": [
    {{
      "label": "{label}",
      "scale": "smoke",
      "sessions": 9,
      "shards": 4,
      "seed": 42,
      "total_blocks": 579483,
      "modes": {{
        "native": {{"secs": 0.014, "blocks_per_sec": 41000000}},
        "serve-single": {{"secs": 0.16, "blocks_per_sec": 3600000}},
        "serve-aggregate": {{"secs": 0.06, "blocks_per_sec": 9600000}}
      }},
      "alloc": {{
        "bytes_per_block": {bytes_per_block},
        "allocs_per_block": {allocs_per_block},
        "alloc_bytes": 52000000,
        "alloc_count": 910000,
        "served_blocks": 1158966,
        "stages": {{
          "frame_decode": {{"bytes": 21000000, "count": 400000}},
          "shard_dispatch": {{"bytes": 9000000, "count": 200000}},
          "vm_slice": {{"bytes": 22000000, "count": 310000}}
        }}
      }}
    }}
  ]
}}"#
        )
    }

    #[test]
    fn alloc_section_parses_and_defaults_absent() {
        let run = run(&alloc_doc("a", 44.87, 0.785));
        assert_eq!(run.get("alloc.bytes_per_block"), Some(44.87));
        assert_eq!(run.get("alloc.allocs_per_block"), Some(0.785));
        assert_eq!(run.get("alloc.served_blocks"), Some(1158966.0));
        let stages: Vec<&str> = run.section("alloc.stages").unwrap().into_iter().collect();
        assert_eq!(stages, ["frame_decode", "shard_dispatch", "vm_slice"]);
        assert_eq!(run.get("alloc.stages.frame_decode.bytes"), Some(21000000.0));
        // Documents without the section still read, with no record.
        let old = runs(&perf_doc("old", 1e6, 500000.0));
        assert!(old[0].section("alloc").is_err());
        // A section missing a per-block ratio is an error, not a default.
        let broken = runs(&alloc_doc("a", 1.0, 1.0).replace("\"allocs_per_block\": 1,\n", ""));
        let err = alloc_gate(&broken[0], &broken[0], DEFAULT_TOLERANCE).unwrap_err();
        assert!(err.contains("allocs_per_block"), "{err}");
    }

    #[test]
    fn alloc_gate_trips_on_per_block_increases_only() {
        let base = run(&alloc_doc("base", 100.0, 1.0));
        // Self-comparison validates the committed section and passes.
        let same = alloc_gate(&base, &base, DEFAULT_TOLERANCE).unwrap();
        assert!(failing(&same).is_empty(), "{}", render("", &same));
        // A 15% bytes-per-block increase fails the default 10% tolerance.
        let fat = run(&alloc_doc("fat", 115.0, 1.0));
        let checks = alloc_gate(&base, &fat, DEFAULT_TOLERANCE).unwrap();
        assert_eq!(failing(&checks), ["alloc.bytes_per_block"]);
        // So does a 15% allocation-count increase at flat bytes.
        let chatty = run(&alloc_doc("chatty", 100.0, 1.15));
        let checks = alloc_gate(&base, &chatty, DEFAULT_TOLERANCE).unwrap();
        assert_eq!(failing(&checks), ["alloc.allocs_per_block"]);
        // Decreases are improvements — a near-alloc-free current run passes.
        let lean = run(&alloc_doc("lean", 1.0, 0.01));
        let checks = alloc_gate(&base, &lean, DEFAULT_TOLERANCE).unwrap();
        assert!(failing(&checks).is_empty());
    }

    #[test]
    fn alloc_gate_rejects_missing_or_hollow_sections() {
        let base = run(&alloc_doc("base", 100.0, 1.0));
        // A run measured without the measuring allocator cannot be gated.
        let old = run(&perf_doc("old", 1e6, 500000.0));
        let err = alloc_gate(&base, &old, DEFAULT_TOLERANCE).unwrap_err();
        assert!(err.contains("no `alloc` section"), "{err}");
        let err = alloc_gate(&old, &base, DEFAULT_TOLERANCE).unwrap_err();
        assert!(err.contains("no `alloc` section"), "{err}");
        // A zero baseline means the hooks were compiled out, not perfection.
        let hollow = run(&alloc_doc("hollow", 0.0, 0.0));
        let err = alloc_gate(&hollow, &base, DEFAULT_TOLERANCE).unwrap_err();
        assert!(err.contains("measuring allocator"), "{err}");
    }

    #[test]
    fn committed_selfprof_run_gates_its_own_alloc_profile() {
        // The repo's own BENCH_perf.json carries a `selfprof` run recorded
        // under a selfprof-alloc build: its serve-path allocation profile
        // must exist, be well-formed, and pass the gate against itself —
        // this is what CI's selfprof-smoke job re-measures.
        let runs = committed();
        let run = select_run(&runs, Some("selfprof")).expect("selfprof run is committed");
        let checks = alloc_gate(run, run, DEFAULT_TOLERANCE).unwrap();
        assert_eq!(checks.len(), 2);
        assert!(failing(&checks).is_empty(), "{}", render("", &checks));
        assert!(
            run.section("alloc.stages").is_ok(),
            "committed alloc profile must break down by stage"
        );
        assert!(run.need("alloc.served_blocks").unwrap() > 0.0);
    }

    #[test]
    fn committed_chaos_run_absorbed_faults_cleanly() {
        // The repo's own BENCH_perf.json carries a `loadgen --chaos` run:
        // every session completed bit-identical under injected wire and
        // shard faults, nothing leaked, and the pass visibly absorbed
        // faults — this is what CI's chaos-smoke job re-measures.
        let runs = committed();
        let run = select_run(&runs, Some("chaos")).expect("chaos run is committed");
        let checks = chaos_gate(run).unwrap();
        assert!(failing(&checks).is_empty(), "{}", render("", &checks));
        assert!(
            run.need("chaos.shards_restarted").unwrap() > 0.0,
            "committed chaos run must exercise shard supervision"
        );
        assert!(
            run.need("chaos.profiles_quarantined").unwrap() > 0.0,
            "committed chaos run must exercise profile quarantine"
        );
    }
}
