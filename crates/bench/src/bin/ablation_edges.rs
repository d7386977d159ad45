//! Ablation: the edge-vs-path "showdown" (paper §7, reference \[6\]).
//!
//! For each benchmark, rank true paths by their edge-profile estimate and
//! measure how much of the 0.1% hot path profile the edge-derived top set
//! recovers — reproducing Ball/Mataga/Sagiv's observation that cheap edge
//! profiles capture most of the hot path profile offline (which is the
//! paper's springboard: if even offline paths barely beat edges, online
//! prediction surely doesn't need full path profiling).
//!
//! ```text
//! cargo run -p hotpath-bench --release --bin ablation_edges -- --scale small
//! ```

use hotpath_bench::{write_csv, Options, HOT_FRACTION};
use hotpath_profiles::{showdown, EdgeProfiler, SequenceRecorder};
use hotpath_vm::{Tee, Vm};
use hotpath_workloads::{build, ALL_WORKLOADS};

fn main() {
    let opts = Options::from_env();
    println!(
        "{:<10} {:>7} {:>9} {:>12} {:>12} {:>12}",
        "benchmark", "hot", "overlap", "hot_flow%", "edge_ctrs", "path_ctrs"
    );
    let mut rows = Vec::new();
    for &name in &ALL_WORKLOADS {
        let w = build(name, opts.scale);
        let mut edges = EdgeProfiler::new();
        let mut seqs = SequenceRecorder::new();
        let mut tee = Tee(&mut edges, &mut seqs);
        Vm::new(&w.program).run(&mut tee).expect("runs");
        let (stream, table, sequences) = seqs.into_parts();
        let profile = stream.to_profile();
        let hot = profile.hot_set(HOT_FRACTION);
        let r = showdown(&edges, &profile, &table, &sequences, &hot);
        println!(
            "{:<10} {:>7} {:>9} {:>11.1}% {:>12} {:>12}",
            name.to_string(),
            r.hot_paths,
            r.overlap,
            r.hot_flow_captured_pct,
            r.edge_counters,
            r.path_counters
        );
        rows.push(format!(
            "{name},{},{},{:.2},{},{}",
            r.hot_paths, r.overlap, r.hot_flow_captured_pct, r.edge_counters, r.path_counters
        ));
    }
    write_csv(
        &opts.out_dir,
        "ablation_edges.csv",
        "benchmark,hot_paths,overlap,hot_flow_captured_pct,edge_counters,path_counters",
        &rows,
    );
}
