//! Small-scale regenerations of the paper's experiments, asserting the
//! qualitative claims each table/figure makes.

use hotpath::prelude::*;

fn record(w: &Workload) -> (PathStream, PathTable) {
    let mut ex = PathExtractor::new(StreamingSink::new());
    Vm::new(&w.program).run(&mut ex).expect("runs");
    let (sink, table) = ex.into_parts();
    (sink.into_stream(), table)
}

/// Table 1's spectrum: compress-like benchmarks concentrate their flow in
/// few hot paths; gcc spreads it across many weakly-weighted paths.
#[test]
fn table1_dominance_spectrum() {
    let compress = build(WorkloadName::Compress, Scale::Smoke);
    let gcc = build(WorkloadName::Gcc, Scale::Smoke);
    let (cs, _) = record(&compress);
    let (gs, gt) = record(&gcc);
    let c_hot = cs.to_profile().hot_set(0.001);
    let g_hot = gs.to_profile().hot_set(0.001);
    assert!(
        c_hot.flow_percentage() > 95.0,
        "compress hot flow {:.1}%",
        c_hot.flow_percentage()
    );
    assert!(
        g_hot.flow_percentage() < c_hot.flow_percentage(),
        "gcc must be less dominant than compress"
    );
    assert!(gt.len() > 500, "gcc has a large path population");
}

/// Table 2 / Figure 4: NET's counter space (unique heads) is a fraction of
/// the path count, for every benchmark.
#[test]
fn fig4_counter_space_reduction() {
    let mut ratios = Vec::new();
    for w in suite(Scale::Smoke) {
        let (_, table) = record(&w);
        let ratio = table.unique_heads() as f64 / table.len().max(1) as f64;
        assert!(
            ratio <= 1.0,
            "{}: heads {} cannot exceed paths {}",
            w.name,
            table.unique_heads(),
            table.len()
        );
        ratios.push(ratio);
    }
    let avg = ratios.iter().sum::<f64>() / ratios.len() as f64;
    assert!(
        avg < 0.9,
        "average counter-space ratio {avg:.2} must be < 1"
    );
}

/// Figure 2's headline: at practically relevant delays, NET's hit rate is
/// comparable to path-profile based prediction's.
#[test]
fn fig2_net_matches_path_profile_at_low_delay() {
    for name in [WorkloadName::Compress, WorkloadName::Deltablue] {
        let w = build(name, Scale::Smoke);
        let (stream, table) = record(&w);
        let hot = stream.to_profile().hot_set(0.001);
        let net = evaluate(&stream, &table, &hot, &mut NetPredictor::new(10));
        let pp = evaluate(&stream, &table, &hot, &mut PathProfilePredictor::new(10));
        assert!(
            (net.hit_rate() - pp.hit_rate()).abs() < 5.0,
            "{name}: NET {:.1}% vs PP {:.1}%",
            net.hit_rate(),
            pp.hit_rate()
        );
        assert!(
            net.hit_rate() > 85.0,
            "{name}: NET hit {:.1}%",
            net.hit_rate()
        );
    }
}

/// Figure 2's other headline: hit rate decays as the prediction delay
/// (profiled flow) grows — the missed-opportunity-cost argument.
#[test]
fn fig2_hit_rate_decays_with_delay() {
    let w = build(WorkloadName::Compress, Scale::Smoke);
    let (stream, table) = record(&w);
    let hot = stream.to_profile().hot_set(0.001);
    let pts = sweep(
        &stream,
        &table,
        &hot,
        SchemeKind::Net,
        &[10, 1_000, 100_000],
    );
    assert!(pts[0].outcome.hit_rate() > pts[1].outcome.hit_rate());
    assert!(pts[1].outcome.hit_rate() >= pts[2].outcome.hit_rate());
    assert!(pts[0].outcome.profiled_flow_pct() < pts[2].outcome.profiled_flow_pct());
}

/// Figure 3: noise decreases as the delay grows (longer profiling rules
/// out cold paths).
#[test]
fn fig3_noise_decays_with_delay() {
    let w = build(WorkloadName::Gcc, Scale::Smoke);
    let (stream, table) = record(&w);
    let hot = stream.to_profile().hot_set(0.001);
    for scheme in [SchemeKind::Net, SchemeKind::PathProfile] {
        let pts = sweep(&stream, &table, &hot, scheme, &[5, 500]);
        assert!(
            pts[0].outcome.noise_rate() >= pts[1].outcome.noise_rate(),
            "{scheme}: noise {:.1}% -> {:.1}%",
            pts[0].outcome.noise_rate(),
            pts[1].outcome.noise_rate()
        );
    }
}

/// Figure 5's mechanism: Dynamo with NET beats pure interpretation by a
/// wide margin on a trace-friendly benchmark, and NET's profiling op count
/// stays far below path-profile's.
#[test]
fn fig5_dynamo_net_beats_interpretation() {
    let w = build(WorkloadName::Deltablue, Scale::Smoke);
    let native = run_native(&w.program).unwrap();
    let net = run_dynamo(&w.program, &DynamoConfig::new(Scheme::Net, 50)).unwrap();
    // Pure interpretation = absurd delay (nothing ever cached).
    let interp = run_dynamo(&w.program, &DynamoConfig::new(Scheme::Net, u64::MAX)).unwrap();
    assert!(net.cycles.total() < interp.cycles.total() / 2.0);
    assert!(net.speedup_percent(native) > interp.speedup_percent(native));
    let pp = run_dynamo(&w.program, &DynamoConfig::new(Scheme::PathProfile, 50)).unwrap();
    assert!(
        pp.cycles.profiling > net.cycles.profiling * 5.0,
        "path profiling ops must dwarf NET's: {} vs {}",
        pp.cycles.profiling,
        net.cycles.profiling
    );
}

/// §6: gcc churns through fragments while compress settles into a handful;
/// under the same tight fragment budget the bail-out heuristic fires for
/// gcc and not for compress.
#[test]
fn dynamo_bails_out_on_gcc_like_workloads() {
    let tight = |w: &Workload| {
        let mut cfg = DynamoConfig::new(Scheme::Net, 50);
        cfg.bailout = Some(hotpath::dynamo::BailoutPolicy {
            check_every_paths: 5_000,
            max_installs: 50,
        });
        run_dynamo(&w.program, &cfg).unwrap()
    };
    let gcc = tight(&build(WorkloadName::Gcc, Scale::Small));
    assert!(gcc.bailed_out, "gcc should trigger the bail-out heuristic");
    let compress = tight(&build(WorkloadName::Compress, Scale::Small));
    assert!(!compress.bailed_out, "compress must stay under the budget");
}

/// Exits from existing traces are potential trace heads: the executed
/// engine counts every exit that leaves the cache, a trace's last
/// transfer as well as a failed guard, so the code control keeps leaving
/// traces for gets traced too. gcc and go leave their traces for one
/// dispatcher block tens of thousands of times; counted, it becomes a
/// trace head and nearly all of each run executes in traces.
#[test]
fn linked_engine_caches_nearly_all_of_gcc_and_go() {
    for name in [WorkloadName::Gcc, WorkloadName::Go] {
        let w = build(name, Scale::Small);
        let run = run_dynamo_linked(&w.program, &DynamoConfig::new(Scheme::Net, 50)).unwrap();
        let plain = Vm::new(&w.program)
            .run(&mut hotpath::vm::NullObserver)
            .unwrap();
        assert_eq!(run.stats, plain, "{name}");
        let cached = run.outcome.cached_block_fraction;
        assert!(cached >= 0.95, "{name} caches {cached:.3} of its blocks");
    }
}
