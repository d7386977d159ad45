//! Snapshot comparison for the regression gate.
//!
//! [`bench_compare`] (the binary built from this module's API) reads
//! pipeline snapshots and decides whether they pass a gate. Every
//! document is first flattened by [`read_runs`] into [`Run`]s: dotted
//! metric names mapped to finite numbers, such as
//! `modes.net.blocks_per_sec`, `warm_start.li.cold_blocks_to_first_trace`,
//! `chaos.leaked`, `alloc.bytes_per_block` or `events.trace_enter`. Each
//! gate then builds [`Check`] rows from named metrics, and [`render`]
//! prints them as one table. The gates are [`compare_perf`],
//! [`perf_trend`], [`sweep_curve`], [`warm_start_gate`], [`chaos_gate`],
//! [`alloc_gate`] and [`compare_telemetry`].
//!
//! Every throughput check divides a run's rates by its own `native` rate.
//! That cancels machine speed, so baselines recorded on another host still
//! gate, and only the profiling *overhead ratio* is judged, which is the
//! quantity the paper argues about.
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
        }
    }
}

/// Renders `checks` as one aligned table under `title`.
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
    let width = checks.iter().map(|c| c.name.len()).max().unwrap_or(0);
    let mut out = format!("{title}\n");
    let _ = writeln!(
        out,
        "{:<width$} {:>14} {:>14} {:>8} {:>16}  verdict",
        "metric", "baseline", "current", "ratio", "limit"
    );
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
        let _ = writeln!(
            out,
            "{:<width$} {:>14} {:>14} {:>8} {:>16}  {}",
            c.name,
            num(c.baseline),
            num(c.current),
            ratio,
            format!("{op} {}", num(x)),
            if c.pass { "ok" } else { "FAIL" }
        );
    }
    out
}

/// Compares two perf runs mode by mode, native-relative.
///
/// Every mode both runs record, except the `native` normalizer, gets a
/// `blocks_per_sec` check: its rate divided by its run's own `native`
/// rate may drop by at most `tolerance`. Modes present in only one run
/// are skipped — the gate judges the shared surface. When both runs
/// record a mode's `guard_execs` (`native` included), any increase fails
/// outright: the counts are deterministic, so tolerance does not apply.
///
/// # Errors
///
/// Returns a message when either run lacks a positive `native` rate or a
/// mode's rate, or a gated baseline rate is zero.
pub fn compare_perf(baseline: &Run, current: &Run, tolerance: f64) -> Result<Vec<Check>, String> {
    let (base_native, cur_native) = (baseline.positive(NATIVE)?, current.positive(NATIVE)?);
    let current_modes = current.section("modes")?;
    let mut checks = Vec::new();
    for mode in baseline.section("modes")? {
        if !current_modes.contains(mode) {
            continue;
        }
        let rate = format!("modes.{mode}.blocks_per_sec");
        if mode != "native" {
            let base = baseline.positive(&rate)? / base_native;
            let cur = current.need(&rate)? / cur_native;
            let floor = Limit::AtLeast(base * (1.0 - tolerance));
            checks.push(Check::new(rate, base, cur, floor));
        }
        let guards = format!("modes.{mode}.guard_execs");
        if let (Some(base), Some(cur)) = (baseline.get(&guards), current.get(&guards)) {
            checks.push(Check::new(guards, base, cur, Limit::AtMost(base)));
        }
    }
    Ok(checks)
}

/// Reports each mode's cumulative drift across a document: its
/// native-relative rate in the earliest run that records it against the
/// latest. Runs without a positive `native` rate are skipped, and `native`
/// itself is not reported. The result is advisory: the pairwise gate
/// already fails a single-step regression, so the trend's job is slow
/// bleed — each step inside `tolerance`, the sum well outside it.
///
/// # Errors
///
/// Returns a message when fewer than two runs carry a positive `native`
/// rate — there is no trend in a single sample — or a mode lacks its rate.
pub fn perf_trend(runs: &[Run], tolerance: f64) -> Result<Vec<Check>, String> {
    /// Per mode: the first and last `(label, native-relative rate)` seen.
    type Series<'a> = (&'a str, (&'a str, f64), (&'a str, f64));
    let mut series: Vec<Series> = Vec::new();
    let mut usable_runs = 0usize;
    for run in runs {
        let Ok(native) = run.positive(NATIVE) else {
            continue;
        };
        usable_runs += 1;
        for mode in run.section("modes")? {
            if mode == "native" {
                continue;
            }
            let point = (
                run.label.as_str(),
                run.need(&format!("modes.{mode}.blocks_per_sec"))? / native,
            );
            match series.iter_mut().find(|(name, ..)| *name == mode) {
                Some((_, _, last)) => *last = point,
                None => series.push((mode, point, point)),
            }
        }
    }
    if usable_runs < 2 {
        return Err(format!(
            "need at least two runs with a usable `native` mode to trend, have {usable_runs}"
        ));
    }
    Ok(series
        .into_iter()
        .map(|(mode, (first_label, first), (last_label, last))| {
            Check::new(
                format!("modes.{mode}.blocks_per_sec ({first_label} -> {last_label})"),
                first,
                last,
                Limit::AtLeast(first * (1.0 - tolerance)),
            )
        })
        .collect())
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

    #[test]
    fn identical_runs_pass() {
        let a = run(&perf_doc("a", 1e6, 500000.0));
        let checks = compare_perf(&a, &a, DEFAULT_TOLERANCE).unwrap();
        assert_eq!(checks.len(), 2, "net and dynamo are gated");
        assert!(failing(&checks).is_empty());
        assert!(checks.iter().all(|c| c.baseline == c.current));
    }

    #[test]
    fn fifteen_percent_regression_fails_the_default_gate() {
        // The acceptance scenario: a synthetic 15% net-mode throughput loss
        // must trip the default 10% tolerance.
        let base = run(&perf_doc("base", 1e6, 500000.0));
        let cur = run(&perf_doc("cur", 1e6, 425000.0));
        let checks = compare_perf(&base, &cur, DEFAULT_TOLERANCE).unwrap();
        assert_eq!(failing(&checks), ["modes.net.blocks_per_sec"]);
        // A 20% tolerance absorbs it.
        let loose = compare_perf(&base, &cur, 0.20).unwrap();
        assert!(failing(&loose).is_empty());
    }

    #[test]
    fn relative_mode_cancels_machine_speed() {
        // The "current" machine is uniformly 2x slower: every absolute rate
        // halves, which the native-relative gate forgives.
        let base = run(&perf_doc("base", 1e6, 500000.0));
        let cur = run(&perf_doc("cur", 5e5, 250000.0));
        let checks = compare_perf(&base, &cur, DEFAULT_TOLERANCE).unwrap();
        assert!(failing(&checks).is_empty(), "{}", render("", &checks));
        // But a genuine 15% net-only loss still trips it.
        let slow_net = run(&perf_doc("cur", 5e5, 212500.0));
        let checks = compare_perf(&base, &slow_net, DEFAULT_TOLERANCE).unwrap();
        assert_eq!(failing(&checks), ["modes.net.blocks_per_sec"]);
    }

    #[test]
    fn relative_mode_never_gates_native() {
        // Native is the normalizer — always exactly 1.0 on both sides, so
        // it gets no check of its own, even at zero tolerance.
        let base = run(&perf_doc("base", 1e6, 500000.0));
        let checks = compare_perf(&base, &base, 0.0).unwrap();
        assert!(checks.iter().all(|c| !c.name.contains("native")));
        assert!(failing(&checks).is_empty());
    }

    #[test]
    fn relative_mode_rejects_absent_native() {
        let base = run(&perf_doc("base", 1e6, 500000.0));
        let mut no_native = without(&base, "modes.native");
        no_native.label = "headless".into();
        for (b, c) in [(&base, &no_native), (&no_native, &base)] {
            let err = compare_perf(b, c, DEFAULT_TOLERANCE).unwrap_err();
            assert!(err.contains("no `modes.native.blocks_per_sec`"), "{err}");
            assert!(err.contains("headless"), "{err}");
        }
    }

    #[test]
    fn relative_mode_rejects_zero_or_nonfinite_native() {
        let base = run(&perf_doc("base", 1e6, 500000.0));
        for bad in [0.0, -1.0] {
            let cur = with(&base, "bad", "modes.native.blocks_per_sec", bad);
            let err = compare_perf(&base, &cur, DEFAULT_TOLERANCE).unwrap_err();
            assert!(
                err.contains("unusable `modes.native.blocks_per_sec`"),
                "{bad}: {err}"
            );
        }
        // JSON has no NaN; an overflowing literal is the only non-finite
        // input, and the reader refuses it.
        let err = read_runs(&perf_doc("bad", 1e6, 1.0).replace("1000000}", "1e999}")).unwrap_err();
        assert!(err.contains("modes.native.blocks_per_sec"), "{err}");
    }

    #[test]
    fn nonfinite_metrics_error_instead_of_passing_as_nan() {
        // `NaN < limit` is false: a NaN would sail through any check. The
        // reader rejects non-finite values, and a zero baseline rate —
        // which would make every ratio infinite — is a hard error.
        let base = run(&perf_doc("base", 1e6, 500000.0));
        let zero_base = with(&base, "zero", "modes.net.blocks_per_sec", 0.0);
        let err = compare_perf(&zero_base, &base, DEFAULT_TOLERANCE).unwrap_err();
        assert!(err.contains("run `zero`"), "{err}");
        let err =
            read_runs(&perf_doc("cur", 1e6, 500000.0).replace("500000}", "1e999}")).unwrap_err();
        assert!(err.contains("modes.net.blocks_per_sec"), "{err}");
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
        // The repo's own BENCH_perf.json must stay loadable and must pass
        // the gate against itself — this is what CI's perf-gate step does.
        let runs = committed();
        assert!(!runs.is_empty());
        let last = select_run(&runs, None).unwrap();
        let checks = compare_perf(last, last, DEFAULT_TOLERANCE).unwrap();
        assert!(failing(&checks).is_empty(), "{}", render("", &checks));
    }

    #[test]
    fn committed_trace_exec_run_shows_the_linked_speedup() {
        // The point of the trace-execution backend: executing predicted
        // paths as compiled superblocks must beat the simulated dynamo
        // mode by a wide margin. The committed measurement pins it at
        // >= 1.5x blocks/sec.
        let runs = committed();
        let run = select_run(&runs, Some("trace-exec")).expect("trace-exec run is committed");
        let dynamo = run.need("modes.dynamo.blocks_per_sec").unwrap();
        let linked = run.need("modes.dynamo-linked.blocks_per_sec").unwrap();
        let ratio = linked / dynamo;
        assert!(
            ratio >= 1.5,
            "dynamo-linked must run >= 1.5x the simulated dynamo mode, got {ratio:.2}x"
        );
    }

    #[test]
    fn committed_trace_opt_run_closes_the_native_gap() {
        // The point of the trace optimizer: fully-optimized linked
        // execution must land within 10% of native block throughput,
        // beat unoptimized linked execution, and never execute more
        // guards than it.
        let runs = committed();
        let run = select_run(&runs, Some("trace-opt")).expect("trace-opt run is committed");
        let metric = |name: &str| run.need(name).unwrap();
        let opt = metric("modes.dynamo-linked-opt.blocks_per_sec");
        let vs_native = opt / metric("modes.native.blocks_per_sec");
        assert!(
            vs_native >= 0.9,
            "dynamo-linked-opt must be within 10% of native, got {vs_native:.3}"
        );
        assert!(
            opt > metric("modes.dynamo-linked.blocks_per_sec"),
            "the optimizer must beat unoptimized linked execution"
        );
        let (linked_guards, opt_guards) = (
            metric("modes.dynamo-linked.guard_execs"),
            metric("modes.dynamo-linked-opt.guard_execs"),
        );
        assert!(
            opt_guards <= linked_guards,
            "optimization must not add guard executions: {opt_guards} vs {linked_guards}"
        );
    }

    fn guard_doc(label: &str, opt_guards: u64) -> String {
        format!(
            r#"{{
  "runs": [
    {{
      "label": "{label}",
      "scale": "small",
      "reps": 3,
      "total_blocks": 1000000,
      "modes": {{
        "native": {{"secs": 1.0, "blocks_per_sec": 1000000, "guard_execs": 0}},
        "dynamo-linked": {{"secs": 2.0, "blocks_per_sec": 500000, "guard_execs": 90000}},
        "dynamo-linked-opt": {{"secs": 1.8, "blocks_per_sec": 555555, "guard_execs": {opt_guards}}}
      }}
    }}
  ]
}}"#
        )
    }

    #[test]
    fn guard_exec_counts_parse_and_are_optional() {
        let with_guards = run(&guard_doc("g", 30000));
        assert_eq!(
            with_guards.get("modes.dynamo-linked-opt.guard_execs"),
            Some(30000.0)
        );
        // Documents predating the field still read, with no guard gate.
        let old = run(&perf_doc("old", 1e6, 500000.0));
        assert_eq!(old.get("modes.net.guard_execs"), None);
        let checks = compare_perf(&old, &with_guards, DEFAULT_TOLERANCE).unwrap();
        assert!(checks.iter().all(|c| !c.name.ends_with("guard_execs")));
    }

    #[test]
    fn guard_exec_increases_trip_the_gate_regardless_of_tolerance() {
        let base = run(&guard_doc("base", 30000));
        let same = compare_perf(&base, &base, DEFAULT_TOLERANCE).unwrap();
        assert!(failing(&same).is_empty(), "{}", render("", &same));
        // Throughput identical, guard count up: still a regression, even
        // under an absurdly loose tolerance.
        let worse = run(&guard_doc("cur", 30001));
        let checks = compare_perf(&base, &worse, 0.99).unwrap();
        assert_eq!(failing(&checks), ["modes.dynamo-linked-opt.guard_execs"]);
        let table = render("perf gate", &checks);
        let row = table
            .lines()
            .find(|l| l.starts_with("modes.dynamo-linked-opt.guard_execs"))
            .unwrap();
        assert!(row.contains("<= 30000") && row.ends_with("FAIL"), "{table}");
        // The native normalizer's own guard count is gated like any other.
        let native = with(&base, "cur", "modes.native.guard_execs", 1.0);
        let checks = compare_perf(&base, &native, 0.99).unwrap();
        assert_eq!(failing(&checks), ["modes.native.guard_execs"]);
        // Decreases are improvements, never regressions.
        let better = run(&guard_doc("cur", 20000));
        let checks = compare_perf(&base, &better, DEFAULT_TOLERANCE).unwrap();
        assert!(failing(&checks).is_empty(), "{}", render("", &checks));
    }

    fn serve_doc(label: &str, aggregate_rate: f64) -> String {
        format!(
            r#"{{
  "runs": [
    {{
      "label": "{label}",
      "scale": "small",
      "sessions": 4,
      "shards": 4,
      "seed": 42,
      "total_blocks": 8000000,
      "modes": {{
        "native": {{"secs": 0.25, "blocks_per_sec": 32000000}},
        "serve-single": {{"secs": 0.5, "blocks_per_sec": 16000000}},
        "serve-aggregate": {{"secs": 0.2, "blocks_per_sec": {aggregate_rate}}}
      }}
    }}
  ]
}}"#
        )
    }

    #[test]
    fn serve_aggregate_regressions_trip_the_gate() {
        // loadgen documents gate exactly like perf_baseline ones: a 15%
        // aggregate-throughput loss fails the default 10% tolerance while
        // the untouched modes stay green.
        let base = run(&serve_doc("base", 40000000.0));
        let cur = run(&serve_doc("cur", 34000000.0));
        let checks = compare_perf(&base, &cur, DEFAULT_TOLERANCE).unwrap();
        assert_eq!(failing(&checks), ["modes.serve-aggregate.blocks_per_sec"]);
    }

    #[test]
    fn serve_and_baseline_runs_compare_over_their_shared_surface() {
        // A loadgen run and a perf_baseline run share only `native`, the
        // normalizer; the gate judges that empty shared surface instead of
        // erroring out.
        let baseline = run(&perf_doc("pipeline", 1e6, 500000.0));
        let serve = run(&serve_doc("serve", 40000000.0));
        assert_eq!(
            compare_perf(&baseline, &serve, DEFAULT_TOLERANCE),
            Ok(vec![])
        );
    }

    /// A one-run document with a native normalizer, one extra mode, and
    /// an optional sessions count — building block for trend/curve docs.
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
    fn trend_warns_on_cumulative_drift_that_each_step_hides() {
        // Three steps each losing ~7% — every pairwise gate at 10%
        // passes, but first-to-last is a 20% loss the trend must flag.
        let history = runs(&multi_doc(&[
            run_obj("a", "net", 500000.0, None),
            run_obj("b", "net", 465000.0, None),
            run_obj("c", "net", 432000.0, None),
            run_obj("d", "net", 400000.0, None),
        ]));
        for pair in history.windows(2) {
            let step = compare_perf(&pair[0], &pair[1], DEFAULT_TOLERANCE).unwrap();
            assert!(failing(&step).is_empty(), "{}", render("", &step));
        }
        let trend = perf_trend(&history, DEFAULT_TOLERANCE).unwrap();
        assert_eq!(failing(&trend), ["modes.net.blocks_per_sec (a -> d)"]);
        let ratio = trend[0].current / trend[0].baseline;
        assert!((ratio - 0.8).abs() < 1e-9, "{ratio}");
        // A flat document draws no warnings.
        let flat = runs(&multi_doc(&[
            run_obj("a", "net", 500000.0, None),
            run_obj("b", "net", 500000.0, None),
        ]));
        let trend = perf_trend(&flat, DEFAULT_TOLERANCE).unwrap();
        assert!(failing(&trend).is_empty());
    }

    #[test]
    fn trend_is_native_relative_and_needs_two_runs() {
        // A uniformly 2x-slower second host halves every raw rate; the
        // native-relative trend sees no drift.
        let doc = multi_doc(&[
            run_obj("fast-host", "net", 500000.0, None),
            run_obj("slow-host", "net", 250000.0, None),
        ]);
        let mut runs = runs(&doc);
        runs[1] = with(
            &runs[1],
            "slow-host",
            "modes.native.blocks_per_sec",
            500000.0,
        );
        let trend = perf_trend(&runs, DEFAULT_TOLERANCE).unwrap();
        assert!(failing(&trend).is_empty(), "{}", render("", &trend));
        let err = perf_trend(&runs[..1], DEFAULT_TOLERANCE).unwrap_err();
        assert!(err.contains("at least two"), "{err}");
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
    fn committed_document_trends_clean() {
        // The repo's own history must not show cumulative native-relative
        // drift — this is what `bench_compare --trend` gates in CI.
        let trend = perf_trend(&committed(), DEFAULT_TOLERANCE).unwrap();
        for name in failing(&trend) {
            // Aggregate serving throughput legitimately varies with the
            // recording host's core count; everything else must hold.
            assert!(
                name.starts_with("modes.serve"),
                "unexpected drift: {}",
                render("", &trend)
            );
        }
    }

    #[test]
    fn committed_serve_run_records_aggregate_throughput() {
        // The repo's own BENCH_perf.json carries a loadgen run labelled
        // `serve` with all three serving modes, usable as a gate baseline
        // (it has the `native` normalizer).
        let runs = committed();
        let run = select_run(&runs, Some("serve")).expect("serve run is committed");
        for mode in ["native", "serve-single", "serve-aggregate"] {
            let rate = run.need(&format!("modes.{mode}.blocks_per_sec")).unwrap();
            assert!(rate > 0.0, "{mode}: unusable rate {rate}");
        }
        let checks = compare_perf(run, run, DEFAULT_TOLERANCE).unwrap();
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
