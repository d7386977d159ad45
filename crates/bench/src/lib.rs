//! Shared harness for the paper's results and the ablation binaries.
//!
//! The recipe: build workloads at a scale chosen on the command line,
//! record each workload's path stream once ([`record_workload`],
//! [`record_suite_parallel`]), then compute whatever a table or figure
//! needs and print paper-style rows (also written as CSV under
//! `results/`). [`paper`] holds one function per table and figure; the
//! `all` binary runs them in order.

#![warn(missing_docs)]

mod chart;
pub mod compare;
pub mod difffuzz;
pub mod paper;

pub use chart::ascii_chart;

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use hotpath_core::{sweep, SchemeKind, SweepPoint, DEFAULT_DELAYS};
use hotpath_profiles::{HotPathSet, PathExtractor, PathStream, PathTable, StreamingSink};
use hotpath_vm::{RunStats, Vm};
use hotpath_workloads::{Scale, Workload, WorkloadName};

/// The hot threshold used throughout the paper: 0.1% of total flow.
pub const HOT_FRACTION: f64 = 0.001;

/// One workload's recorded run: everything the experiments replay.
#[derive(Debug)]
pub struct RecordedRun {
    /// Which benchmark.
    pub name: WorkloadName,
    /// The recorded path-execution stream.
    pub stream: PathStream,
    /// Interned paths.
    pub table: PathTable,
    /// The 0.1% hot set.
    pub hot: HotPathSet,
    /// VM run statistics.
    pub stats: RunStats,
    /// Wall-clock seconds spent building and recording this workload.
    pub record_secs: f64,
}

impl RecordedRun {
    /// Total flow (path executions).
    pub fn flow(&self) -> u64 {
        self.stream.len() as u64
    }
}

/// Builds and records one workload.
///
/// # Panics
///
/// Panics if the workload fails to execute — experiment inputs are
/// programmer-controlled, so failures are bugs.
pub fn record_workload(workload: &Workload) -> RecordedRun {
    let _selfprof_record =
        hotpath_selfprof::StageGuard::enter(hotpath_selfprof::Stage::BenchRecord);
    let started = Instant::now();
    let mut extractor = PathExtractor::new(StreamingSink::new());
    let mut vm = Vm::new(&workload.program);
    let stats = vm
        .run(&mut extractor)
        .unwrap_or_else(|e| panic!("{} failed: {e}", workload.name));
    let (sink, table) = extractor.into_parts();
    let stream = sink.into_stream();
    let hot = stream.to_profile().hot_set(HOT_FRACTION);
    eprintln!(
        "[record] {:<10} flow={:>10} paths={:>6} heads={:>5} blocks={:>11} ({:.1}s)",
        workload.name.to_string(),
        stream.len(),
        table.len(),
        table.unique_heads(),
        stats.blocks_executed,
        started.elapsed().as_secs_f64()
    );
    RecordedRun {
        name: workload.name,
        stream,
        table,
        hot,
        stats,
        record_secs: started.elapsed().as_secs_f64(),
    }
}

/// Records the whole suite with one scoped thread per workload; wall clock
/// is roughly the slowest workload instead of the sum. Results come back
/// in [`ALL_WORKLOADS`] order regardless of which worker finishes first,
/// so downstream tables are deterministic.
///
/// [`ALL_WORKLOADS`]: hotpath_workloads::ALL_WORKLOADS
pub fn record_suite_parallel(scale: Scale) -> Vec<RecordedRun> {
    std::thread::scope(|s| {
        let handles: Vec<_> = hotpath_workloads::ALL_WORKLOADS
            .iter()
            .map(|&name| {
                s.spawn(move || {
                    let w = hotpath_workloads::build(name, scale);
                    record_workload(&w)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("no panics"))
            .collect()
    })
}

/// Command-line options shared by all experiment binaries.
#[derive(Clone, Debug)]
pub struct Options {
    /// Workload scale (default [`Scale::Small`]; pass `--scale full` for
    /// the paper-sized runs).
    pub scale: Scale,
    /// Output directory for CSV files.
    pub out_dir: PathBuf,
}

impl Options {
    /// Parses `--scale smoke|small|full` and `--out DIR` from `args`.
    ///
    /// # Panics
    ///
    /// Panics (with usage help) on unknown arguments.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Options {
        let mut scale = Scale::Small;
        let mut out_dir = PathBuf::from("results");
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--scale" => {
                    let v = it.next().expect("--scale needs a value");
                    scale = match v.as_str() {
                        "smoke" => Scale::Smoke,
                        "small" => Scale::Small,
                        "full" => Scale::Full,
                        other => panic!("unknown scale `{other}` (smoke|small|full)"),
                    };
                }
                "--out" => {
                    out_dir = PathBuf::from(it.next().expect("--out needs a value"));
                }
                other => panic!(
                    "unknown argument `{other}` (usage: [--scale smoke|small|full] [--out DIR])"
                ),
            }
        }
        Options { scale, out_dir }
    }

    /// Parses the process arguments.
    pub fn from_env() -> Options {
        Self::parse(std::env::args().skip(1))
    }
}

/// One benchmark's τ-sweep under one scheme.
#[derive(Debug)]
pub struct SweptRun {
    /// Benchmark name.
    pub name: WorkloadName,
    /// Scheme swept.
    pub scheme: SchemeKind,
    /// One point per delay in [`DEFAULT_DELAYS`].
    pub points: Vec<SweepPoint>,
}

/// Sweeps both schemes over every recorded run (Figures 2 and 3 share
/// this data). Parallel over (run, scheme) pairs.
pub fn sweep_suite(runs: &[RecordedRun]) -> Vec<SweptRun> {
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for run in runs {
            for scheme in [SchemeKind::Net, SchemeKind::PathProfile] {
                handles.push(s.spawn(move || SweptRun {
                    name: run.name,
                    scheme,
                    points: sweep(&run.stream, &run.table, &run.hot, scheme, &DEFAULT_DELAYS),
                }));
            }
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("no panics"))
            .collect()
    })
}

/// Per-delay averages across benchmarks for one scheme: returns
/// `(delay, avg profiled %, avg hit %, avg noise %)` rows — the "Average"
/// series of Figures 2 and 3.
pub fn average_series(swept: &[SweptRun], scheme: SchemeKind) -> Vec<(u64, f64, f64, f64)> {
    let of_scheme: Vec<&SweptRun> = swept.iter().filter(|r| r.scheme == scheme).collect();
    if of_scheme.is_empty() {
        return Vec::new();
    }
    let npoints = of_scheme[0].points.len();
    (0..npoints)
        .map(|i| {
            let n = of_scheme.len() as f64;
            let delay = of_scheme[0].points[i].delay;
            let avg = |f: &dyn Fn(&SweepPoint) -> f64| {
                of_scheme.iter().map(|r| f(&r.points[i])).sum::<f64>() / n
            };
            (
                delay,
                avg(&|p| p.outcome.profiled_flow_pct()),
                avg(&|p| p.outcome.hit_rate()),
                avg(&|p| p.outcome.noise_rate()),
            )
        })
        .collect()
}

/// Writes a [`TelemetrySummary`] as `telemetry.json` under the output
/// directory and returns the path.
///
/// [`TelemetrySummary`]: hotpath_telemetry::TelemetrySummary
///
/// # Panics
///
/// Panics on I/O errors — experiment outputs must not be silently lost.
pub fn write_telemetry(
    dir: &Path,
    label: &str,
    summary: &hotpath_telemetry::TelemetrySummary,
) -> PathBuf {
    fs::create_dir_all(dir).expect("create results dir");
    let path = dir.join("telemetry.json");
    fs::write(&path, summary.to_json(label)).expect("write telemetry.json");
    eprintln!("[telemetry] wrote {}", path.display());
    path
}

/// Writes CSV rows (with header) under the output directory.
///
/// # Panics
///
/// Panics on I/O errors — experiment outputs must not be silently lost.
pub fn write_csv(dir: &Path, file: &str, header: &str, rows: &[String]) {
    fs::create_dir_all(dir).expect("create results dir");
    let path = dir.join(file);
    let mut f = fs::File::create(&path).expect("create csv");
    writeln!(f, "{header}").expect("write header");
    for r in rows {
        writeln!(f, "{r}").expect("write row");
    }
    eprintln!("[csv] wrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_parse_defaults_and_flags() {
        let o = Options::parse(Vec::<String>::new());
        assert_eq!(o.scale, Scale::Small);
        assert_eq!(o.out_dir, PathBuf::from("results"));
        let o = Options::parse(
            ["--scale", "full", "--out", "/tmp/x"]
                .iter()
                .map(|s| s.to_string()),
        );
        assert_eq!(o.scale, Scale::Full);
        assert_eq!(o.out_dir, PathBuf::from("/tmp/x"));
    }

    #[test]
    #[should_panic(expected = "unknown argument")]
    fn options_reject_unknown() {
        let _ = Options::parse(["--bogus".to_string()]);
    }

    #[test]
    fn record_one_workload_smoke() {
        let w = hotpath_workloads::build(WorkloadName::Compress, Scale::Smoke);
        let run = record_workload(&w);
        assert!(run.flow() > 0);
        assert_eq!(run.stream.len(), run.flow() as usize);
        assert!(run.hot.hot_flow() > 0);
        assert!(run.stats.halted);
    }
}
