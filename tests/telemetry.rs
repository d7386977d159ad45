//! Telemetry contract tests: the event stream is deterministic, and
//! recorders are observationally neutral — installing one (or none) never
//! changes what the pipeline computes.

use hotpath::prelude::*;
use hotpath::telemetry::{self, NullRecorder};

/// The pipeline under observation: record a workload's path stream,
/// evaluate NET at Dynamo's shipped τ, and run the full Dynamo engine.
fn run_pipeline(name: WorkloadName) -> (PredictionOutcome, DynamoOutcome) {
    let w = build(name, Scale::Smoke);
    let mut ex = PathExtractor::new(StreamingSink::new());
    Vm::new(&w.program).run(&mut ex).expect("workload runs");
    let (sink, table) = ex.into_parts();
    let stream = sink.into_stream();
    let hot = stream.to_profile().hot_set(0.001);
    let outcome = evaluate(&stream, &table, &hot, &mut NetPredictor::new(50));
    let dynamo = run_dynamo(&w.program, &DynamoConfig::new(Scheme::Net, 50)).expect("dynamo");
    (outcome, dynamo)
}

fn assert_outcomes_bit_identical(
    name: WorkloadName,
    (pa, da): &(PredictionOutcome, DynamoOutcome),
    (pb, db): &(PredictionOutcome, DynamoOutcome),
) {
    // PredictionOutcome is integral throughout: exact equality is exact.
    assert_eq!(pa.scheme, pb.scheme, "{name}");
    assert_eq!(pa.delay, pb.delay, "{name}");
    assert_eq!(pa.total_flow, pb.total_flow, "{name}");
    assert_eq!(pa.hot_flow, pb.hot_flow, "{name}");
    assert_eq!(pa.profiled_flow, pb.profiled_flow, "{name}");
    assert_eq!(pa.hits, pb.hits, "{name}");
    assert_eq!(pa.noise, pb.noise, "{name}");
    assert_eq!(pa.missed_opportunity, pb.missed_opportunity, "{name}");
    assert_eq!(pa.predictions, pb.predictions, "{name}");
    assert_eq!(pa.hot_predictions, pb.hot_predictions, "{name}");
    assert_eq!(pa.counter_space, pb.counter_space, "{name}");
    assert_eq!(pa.cost, pb.cost, "{name}");
    // DynamoOutcome carries floats: compare their bit patterns, not their
    // approximate values — "no recorder" and "null recorder" must take the
    // exact same arithmetic path.
    for (label, a, b) in [
        ("interp", da.cycles.interp, db.cycles.interp),
        ("trace", da.cycles.trace, db.cycles.trace),
        ("native", da.cycles.native, db.cycles.native),
        ("profiling", da.cycles.profiling, db.cycles.profiling),
        ("build", da.cycles.build, db.cycles.build),
        ("transitions", da.cycles.transitions, db.cycles.transitions),
        (
            "cached_block_fraction",
            da.cached_block_fraction,
            db.cached_block_fraction,
        ),
    ] {
        assert_eq!(a.to_bits(), b.to_bits(), "{name}: cycles.{label}");
    }
    assert_eq!(da.fragments_installed, db.fragments_installed, "{name}");
    assert_eq!(da.fragments_live, db.fragments_live, "{name}");
    assert_eq!(da.flushes, db.flushes, "{name}");
    assert_eq!(da.spike_flushes, db.spike_flushes, "{name}");
    assert_eq!(da.bailed_out, db.bailed_out, "{name}");
    assert_eq!(da.paths_completed, db.paths_completed, "{name}");
    assert_eq!(da.insts_executed, db.insts_executed, "{name}");
}

#[test]
fn null_recorder_leaves_outcomes_bit_identical() {
    for name in [WorkloadName::Compress, WorkloadName::Li, WorkloadName::Go] {
        let bare = run_pipeline(name);
        let guard = telemetry::install(Box::new(NullRecorder));
        let nulled = run_pipeline(name);
        drop(guard);
        assert_outcomes_bit_identical(name, &bare, &nulled);
    }
}

/// The linked-trace backend (real superblock execution, batched trace
/// events) under the same contract: a recorder — or none — never changes
/// the run.
fn run_linked_pipeline(name: WorkloadName) -> LinkedRun {
    let w = build(name, Scale::Smoke);
    run_dynamo_linked(&w.program, &DynamoConfig::new(Scheme::Net, 50)).expect("linked dynamo")
}

#[test]
fn null_recorder_leaves_linked_runs_bit_identical() {
    for name in [WorkloadName::Compress, WorkloadName::Li, WorkloadName::Go] {
        let bare = run_linked_pipeline(name);
        let guard = telemetry::install(Box::new(NullRecorder));
        let nulled = run_linked_pipeline(name);
        drop(guard);
        assert_eq!(bare.stats, nulled.stats, "{name}: RunStats");
        let (da, db) = (&bare.outcome, &nulled.outcome);
        for (label, a, b) in [
            ("interp", da.cycles.interp, db.cycles.interp),
            ("trace", da.cycles.trace, db.cycles.trace),
            ("native", da.cycles.native, db.cycles.native),
            ("profiling", da.cycles.profiling, db.cycles.profiling),
            ("build", da.cycles.build, db.cycles.build),
            ("transitions", da.cycles.transitions, db.cycles.transitions),
            (
                "cached_block_fraction",
                da.cached_block_fraction,
                db.cached_block_fraction,
            ),
        ] {
            assert_eq!(a.to_bits(), b.to_bits(), "{name}: cycles.{label}");
        }
        assert_eq!(da.fragments_installed, db.fragments_installed, "{name}");
        assert_eq!(da.flushes, db.flushes, "{name}");
        assert_eq!(da.bailed_out, db.bailed_out, "{name}");
        assert_eq!(da.paths_completed, db.paths_completed, "{name}");
        assert_eq!(da.insts_executed, db.insts_executed, "{name}");
    }
}

#[cfg(feature = "telemetry")]
mod recorded {
    use super::*;
    use hotpath::telemetry::{Event, JsonlRecorder, SummaryRecorder};

    /// One full pipeline run captured as a JSONL byte stream.
    fn capture(name: WorkloadName) -> Vec<u8> {
        let (recorder, buffer) = JsonlRecorder::to_shared_buffer();
        let guard = telemetry::install(Box::new(recorder));
        let _ = run_pipeline(name);
        drop(guard);
        let bytes = buffer.borrow().clone();
        bytes
    }

    #[test]
    fn identical_runs_emit_byte_identical_event_streams() {
        for name in [WorkloadName::Compress, WorkloadName::M88ksim] {
            let first = capture(name);
            let second = capture(name);
            assert!(!first.is_empty(), "{name}: pipeline emitted no events");
            assert_eq!(first, second, "{name}: event streams diverged");
        }
    }

    #[test]
    fn event_stream_is_valid_jsonl_with_known_kinds() {
        let bytes = capture(WorkloadName::Compress);
        let text = std::str::from_utf8(&bytes).expect("utf-8 stream");
        let mut kinds = std::collections::BTreeSet::new();
        for line in text.lines() {
            let value = hotpath::telemetry::json::JsonValue::parse(line)
                .unwrap_or_else(|e| panic!("bad line `{line}`: {e}"));
            kinds.insert(
                value
                    .get("ev")
                    .and_then(|v| v.as_str())
                    .expect("every event has an ev tag")
                    .to_string(),
            );
        }
        // The pipeline exercises the whole event model end to end.
        for expected in [
            "vm_halt",
            "path_completed",
            "tau_trigger",
            "fragment_install",
            "transition",
        ] {
            assert!(kinds.contains(expected), "missing {expected} in {kinds:?}");
        }
    }

    #[test]
    fn linked_runs_emit_trace_events_and_feed_the_entry_histogram() {
        let (recorder, handle) = SummaryRecorder::new();
        let guard = telemetry::install(Box::new(recorder));
        let run = run_linked_pipeline(WorkloadName::Compress);
        drop(guard);
        let summary = handle.snapshot();
        assert!(summary.count("trace_enter") > 0, "trace entries observed");
        assert_eq!(
            summary.count("trace_enter"),
            summary.count("trace_exit"),
            "every excursion enters and exits exactly once"
        );
        assert_eq!(
            summary.count("fragment_install"),
            run.outcome.fragments_installed
        );
        let per_entry = summary
            .blocks_per_trace_entry()
            .expect("linked runs feed the blocks-per-trace-entry histogram");
        assert_eq!(per_entry.total(), summary.count("trace_exit"));
    }

    /// A linked run under `scheme` on compress, with its recorded summary.
    fn linked_summary(scheme: Scheme) -> (LinkedEngine, hotpath::telemetry::TelemetrySummary) {
        let w = build(WorkloadName::Compress, Scale::Smoke);
        let (recorder, handle) = SummaryRecorder::new();
        let guard = telemetry::install(Box::new(recorder));
        let mut engine = LinkedEngine::new(DynamoConfig::new(scheme, 50));
        Vm::new(&w.program)
            .run_linked(&mut engine)
            .expect("linked run");
        drop(guard);
        (engine, handle.snapshot())
    }

    #[test]
    fn net_linked_runs_trigger_without_identifying_paths() {
        let (engine, summary) = linked_summary(Scheme::Net);
        assert!(engine.predictions() > 0, "NET predicted something");
        assert_eq!(summary.count("tau_trigger"), engine.predictions());
        assert!(engine.paths_completed() > 0);
        assert_eq!(
            summary.count("path_completed"),
            0,
            "NET counts heads, it does not identify paths"
        );

        let (engine, summary) = linked_summary(Scheme::PathProfile);
        assert_eq!(summary.count("tau_trigger"), engine.predictions());
        assert_eq!(
            summary.count("path_completed"),
            engine.paths_completed(),
            "path profiling identifies every completed path"
        );
        assert!(engine.paths_completed() > 0);
    }

    #[test]
    fn summary_counts_match_engine_outcome() {
        let (recorder, handle) = SummaryRecorder::new();
        let guard = telemetry::install(Box::new(recorder));
        let (_, dynamo) = run_pipeline(WorkloadName::Compress);
        drop(guard);
        let summary = handle.snapshot();
        assert_eq!(
            summary.count("fragment_install"),
            dynamo.fragments_installed,
            "every install is observed"
        );
        assert_eq!(summary.count("bailout"), u64::from(dynamo.bailed_out));
        assert!(summary.count("path_completed") > 0);
        let lengths = summary.path_length().expect("paths completed");
        assert!(lengths.total() >= dynamo.paths_completed);
    }

    /// An `io::Write` that appends into a shared buffer, so the bytes
    /// survive the recorder being moved into `telemetry::install`.
    #[derive(Clone)]
    struct SharedSink(std::rc::Rc<std::cell::RefCell<Vec<u8>>>);

    impl std::io::Write for SharedSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.borrow_mut().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn recorder_io_faults_drop_whole_events_and_never_perturb_the_run() {
        use hotpath::faultinject::{FaultPlan, FaultPoint, FaultWriter};

        let clean = run_pipeline(WorkloadName::Compress);

        // The same pipeline, recorded through a sink that fails a fixed
        // fraction of writes (deterministic seeded plan).
        let bytes = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let sink = FaultWriter::new(
            SharedSink(bytes.clone()),
            FaultPlan::new(9).with(FaultPoint::RecorderIo, 0.03),
        );
        let (recorder, dropped) = JsonlRecorder::to_writer_counting(Box::new(sink));
        let guard = telemetry::install(Box::new(recorder));
        let faulted = run_pipeline(WorkloadName::Compress);
        drop(guard);

        // Telemetry loss is counted, never silent — and never corrupts
        // the stream: every surviving line still parses, because a failed
        // write drops the whole event.
        assert!(dropped.get() > 0, "the I/O plan must actually fire");
        let text = String::from_utf8(bytes.borrow().clone()).expect("utf-8 stream");
        let mut survived = 0u64;
        for line in text.lines() {
            hotpath::telemetry::json::JsonValue::parse(line)
                .unwrap_or_else(|e| panic!("torn line `{line}`: {e}"));
            survived += 1;
        }
        assert!(survived > 0, "some events must still get through");

        // Observational neutrality holds even with a failing sink.
        assert_outcomes_bit_identical(WorkloadName::Compress, &clean, &faulted);
    }

    #[test]
    fn emit_is_lazy_without_a_recorder() {
        // The event expression must not be evaluated when nothing is
        // installed — this is the zero-overhead contract's observable half.
        let mut evaluated = false;
        telemetry::emit!({
            evaluated = true;
            Event::RunStart { label: "x" }
        });
        assert!(!evaluated, "emit! evaluated its argument with no recorder");
    }
}
