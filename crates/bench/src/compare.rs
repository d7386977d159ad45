//! The A/B gate over the repository benchmark.
//!
//! [`bench_compare`] (the binary built from this module's API) reads two
//! files of hotbench result lines, runs made back to back in pairs by
//! `scripts/ab.sh`, and decides whether the change passes. Each line is
//! read by [`read_hotbench_runs`] into a [`Run`]: metric names mapped to
//! finite non-negative numbers. [`ab_gate`] builds one [`Check`] row
//! per end-to-end metric that `BENCHMARK.json` declares
//! ([`read_end_to_end`]) plus the correctness rows, and [`render`] prints
//! them as one table.
//!
//! The lines are parsed with the dependency-free
//! [`hotpath_telemetry::json`] value parser.
//!
//! [`bench_compare`]: index.html

use std::collections::BTreeMap;

use hotpath_telemetry::json::JsonValue;

/// One labelled run: its metrics by name.
#[derive(Clone, PartialEq, Debug)]
pub struct Run {
    /// The file and line the run was read from.
    pub label: String,
    /// Every metric by its name. Only [`read_hotbench_runs`] fills it, so
    /// every value is finite and non-negative.
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
}

/// `value` as the metric `name`: a finite non-negative number.
fn metric(name: &str, value: &JsonValue) -> Result<f64, String> {
    match value {
        JsonValue::Num(n) if n.is_finite() && *n >= 0.0 => Ok(*n),
        other => Err(format!(
            "`{name}` is not a finite non-negative number ({other:?})"
        )),
    }
}

/// The bound a check's current value must satisfy.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Limit {
    /// `current >= x`.
    AtLeast(f64),
    /// `current <= x`.
    AtMost(f64),
    /// `current == x`.
    Exactly(f64),
}

/// One row of the A/B table.
#[derive(Clone, PartialEq, Debug)]
pub struct Check {
    /// Metric name, or what a correctness row counts.
    pub name: String,
    /// Reference value: the parent's median, or what the row expects.
    pub baseline: f64,
    /// Value under test.
    pub current: f64,
    /// Bound `current` must satisfy.
    pub limit: Limit,
    /// Whether `current` satisfies `limit`.
    pub pass: bool,
    /// The paired runs behind an [`ab_gate`] metric row; `None` for the
    /// correctness rows.
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

/// Renders `checks` as one aligned table under `title`. Rows with a
/// [`Pairing`] fill the pairs-won and parent-IQR columns and print their
/// [`Verdict`]; the others print `ok` or `FAIL`.
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
        "{:<width$} {:>14} {:>14} {:>8} {:>16} {:>7} {:>8}  verdict",
        "metric", "baseline", "current", "ratio", "limit", "won", "base IQR"
    );
    for c in checks {
        let (op, x) = match c.limit {
            Limit::AtLeast(x) => (">=", x),
            Limit::AtMost(x) => ("<=", x),
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
        let (won, iqr) = match c.pairing {
            Some(p) => (
                format!("{}/{}", p.won, p.pairs),
                format!("{:.1}%", 100.0 * p.parent_iqr_share),
            ),
            None => ("-".to_string(), "-".to_string()),
        };
        let _ = write!(out, " {won:>7} {iqr:>8}");
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
                metrics.insert(key.to_string(), metric(key, value).map_err(fail)?);
            }
            let values = doc
                .get("metrics")
                .and_then(JsonValue::as_obj)
                .ok_or_else(|| fail("missing \"metrics\" object".into()))?;
            for (name, entry) in values {
                let value = entry
                    .get("value")
                    .ok_or_else(|| fail(format!("`{name}` has no \"value\"")))?;
                metrics.insert(name.clone(), metric(name, value).map_err(fail)?);
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Names of the checks that failed.
    fn failing(checks: &[Check]) -> Vec<&str> {
        checks
            .iter()
            .filter(|c| !c.pass)
            .map(|c| c.name.as_str())
            .collect()
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
        // `NaN < limit` is false: a NaN would sail through any check. The
        // reader rejects non-finite values, and a zero parent median gives
        // an infinite spread share, never a NaN.
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
}
