//! Cross-crate integration: every workload flows through the whole
//! pipeline (build → run → extract → profile → predict) with its
//! invariants intact.

use hotpath::prelude::*;
use hotpath::profiles::{BallLarusProfiler, KBoundedProfiler};
use hotpath_vm::Tee;

fn record(w: &Workload) -> (PathStream, PathTable, hotpath::vm::RunStats) {
    let mut ex = PathExtractor::new(StreamingSink::new());
    let stats = Vm::new(&w.program).run(&mut ex).expect("workload runs");
    let (sink, table) = ex.into_parts();
    (sink.into_stream(), table, stats)
}

#[test]
fn all_workloads_partition_their_block_streams() {
    for w in suite(Scale::Smoke) {
        let (stream, table, stats) = record(&w);
        assert!(stats.halted, "{} halts", w.name);
        let total_blocks: u64 = (0..stream.len())
            .map(|i| table.info(stream.path(i)).blocks as u64)
            .sum();
        assert_eq!(
            total_blocks, stats.blocks_executed,
            "{}: paths partition the block stream",
            w.name
        );
        let total_insts: u64 = (0..stream.len())
            .map(|i| table.info(stream.path(i)).insts as u64)
            .sum();
        assert_eq!(
            total_insts, stats.insts_executed,
            "{}: paths partition the instruction stream",
            w.name
        );
    }
}

#[test]
fn all_workloads_are_deterministic_end_to_end() {
    for name in hotpath::workloads::ALL_WORKLOADS {
        let w1 = build(name, Scale::Smoke);
        let w2 = build(name, Scale::Smoke);
        let (s1, t1, _) = record(&w1);
        let (s2, t2, _) = record(&w2);
        assert_eq!(s1.len(), s2.len(), "{name}: same flow");
        assert_eq!(t1.len(), t2.len(), "{name}: same path population");
        for i in 0..s1.len() {
            assert_eq!(s1.path(i), s2.path(i), "{name}: same stream at {i}");
        }
    }
}

#[test]
fn flow_identity_holds_for_every_workload_and_scheme() {
    for w in suite(Scale::Smoke) {
        let (stream, table, _) = record(&w);
        let hot = stream.to_profile().hot_set(0.001);
        for delay in [5u64, 50] {
            let o = evaluate(&stream, &table, &hot, &mut NetPredictor::new(delay));
            assert_eq!(
                o.profiled_flow + o.hits + o.noise,
                o.total_flow,
                "{} NET τ={delay}",
                w.name
            );
            let o = evaluate(&stream, &table, &hot, &mut PathProfilePredictor::new(delay));
            assert_eq!(
                o.profiled_flow + o.hits + o.noise,
                o.total_flow,
                "{} PP τ={delay}",
                w.name
            );
        }
    }
}

#[test]
fn net_counter_space_never_exceeds_path_profile() {
    for w in suite(Scale::Smoke) {
        let (stream, table, _) = record(&w);
        let hot = stream.to_profile().hot_set(0.001);
        let net = evaluate(&stream, &table, &hot, &mut NetPredictor::new(20));
        let pp = evaluate(&stream, &table, &hot, &mut PathProfilePredictor::new(20));
        assert!(
            net.counter_space <= pp.counter_space,
            "{}: NET {} vs PP {} counters",
            w.name,
            net.counter_space,
            pp.counter_space
        );
        assert!(
            net.cost.total_ops() < pp.cost.total_ops(),
            "{}: NET must perform fewer profiling ops",
            w.name
        );
    }
}

#[test]
fn ball_larus_and_kbounded_run_on_every_workload() {
    for w in suite(Scale::Smoke) {
        let mut bl =
            BallLarusProfiler::new(&w.program).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let mut kb = KBoundedProfiler::new(4);
        let mut tee = Tee(&mut bl, &mut kb);
        Vm::new(&w.program).run(&mut tee).expect("runs");
        assert!(bl.flow() > 0, "{}: Ball-Larus counted paths", w.name);
        assert!(
            kb.observations() > 0,
            "{}: k-bounded observed branches",
            w.name
        );
        // The Ball-Larus acyclic path flow can't exceed the dynamic branch
        // count plus path ends; sanity bound: positive and finite.
        assert!(bl.distinct_paths() >= 1);
    }
}

#[test]
fn recorded_trace_replay_equals_live_extraction() {
    let w = build(WorkloadName::Deltablue, Scale::Smoke);
    // Live.
    let mut live = PathExtractor::new(StreamingSink::new());
    Vm::new(&w.program).run(&mut live).unwrap();
    let (live_sink, live_table) = live.into_parts();
    let live_stream = live_sink.into_stream();
    // Via recorded block trace.
    let mut rec = TraceRecorder::new();
    Vm::new(&w.program).run(&mut rec).unwrap();
    let trace = rec.into_trace();
    let mut replay = PathExtractor::new(StreamingSink::new());
    trace.replay(&mut replay);
    let (replay_sink, replay_table) = replay.into_parts();
    let replay_stream = replay_sink.into_stream();

    assert_eq!(live_stream.len(), replay_stream.len());
    assert_eq!(live_table.len(), replay_table.len());
    for i in 0..live_stream.len() {
        assert_eq!(live_stream.path(i), replay_stream.path(i));
    }
}

#[test]
fn segmenter_boundaries_equal_extracted_paths_on_every_workload() {
    use hotpath::profiles::{Boundary, CollectSink, PathSegmenter, PathSpan, DEFAULT_PATH_CAP};
    for w in suite(Scale::Smoke) {
        let mut rec = TraceRecorder::new();
        Vm::new(&w.program).run(&mut rec).unwrap();
        let trace = rec.into_trace();
        for (cap, rule) in [
            (DEFAULT_PATH_CAP, BackwardRule::AllTransfers),
            (DEFAULT_PATH_CAP, BackwardRule::BranchesOnly),
            (16, BackwardRule::AllTransfers),
        ] {
            let mut ex = PathExtractor::with_options(CollectSink::default(), cap, rule);
            trace.replay(&mut ex);
            let extracted: Vec<PathSpan> =
                ex.sink().paths.iter().map(PathExecution::span).collect();

            let mut segmenter = PathSegmenter::new(cap, rule);
            let mut spans: Vec<PathSpan> = (0..trace.len())
                .filter_map(|i| match segmenter.on_block(&trace.event(i)) {
                    Boundary::Split(span) => Some(span),
                    Boundary::Extend | Boundary::Begin => None,
                })
                .collect();
            spans.extend(segmenter.on_halt());

            assert!(!spans.is_empty(), "{}: paths completed", w.name);
            assert_eq!(spans, extracted, "{} cap {cap} {rule:?}", w.name);
        }
    }
}
