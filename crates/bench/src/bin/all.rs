//! Regenerates every table and figure in one invocation: records each
//! workload once and reuses the streams (Tables 1–2, Figures 2–4), then
//! runs the Dynamo matrix (Figure 5) and its linked-trace cross-check.
//!
//! ```text
//! cargo run -p hotpath-bench --release --bin all -- --scale full
//! ```

use std::time::Instant;

use hotpath_bench::{paper, record_suite_parallel, sweep_suite, write_telemetry, Options};
use hotpath_telemetry as telemetry;

fn main() {
    let opts = Options::from_env();
    let out = opts.out_dir.as_path();
    // The Dynamo runs execute on this thread and stream their engine
    // events into one summary, written alongside the CSVs as
    // telemetry.json. Recording runs on worker threads, where no recorder
    // is installed.
    let (recorder, summary) = telemetry::SummaryRecorder::new();
    let _guard = telemetry::install(Box::new(recorder));

    let wall = Instant::now();
    let runs = record_suite_parallel(opts.scale);
    let wall = wall.elapsed().as_secs_f64();

    // The parallel recorder's wall clock is the slowest workload; the
    // serial sum is what it replaced.
    println!("== Recording times ==");
    for run in &runs {
        println!(
            "record/{:<17} {:>6.2}s",
            run.name.to_string(),
            run.record_secs
        );
    }
    let serial_sum: f64 = runs.iter().map(|r| r.record_secs).sum();
    println!(
        "suite wall {wall:.2}s (serial sum {serial_sum:.2}s, {:.1}x)",
        serial_sum / wall.max(1e-9)
    );

    paper::table1(&runs, out);
    paper::table2(&runs, out);
    let swept = sweep_suite(&runs);
    paper::fig2(&swept, out);
    paper::fig3(&swept, out);
    paper::fig4(&runs, out);
    paper::fig5(opts.scale, out);
    paper::linked_crosscheck(opts.scale, out);

    write_telemetry(out, "all", &summary.snapshot());
    println!(
        "\nAll tables and figures regenerated into {}",
        out.display()
    );
}
