//! Differential fuzzing of the trace-execution engine.
//!
//! For each seed, generate a random structured program
//! ([`hotpath_ir::gen`]) and run it through four configurations that
//! must agree bit-for-bit on the final machine state:
//!
//! 1. **reference** — plain interpretation ([`Vm::run`], null observer);
//! 2. **observed** — plain interpretation with the simulated Dynamo
//!    [`Engine`] attached (an observer must not perturb execution);
//! 3. **linked / linked-guards / linked-full** — the real trace backend
//!    ([`Vm::run_linked`]) driven by a [`LinkedEngine`], once per
//!    [`OptLevel`]: the trace optimizer must be invisible in results;
//! 4. **faulted / faulted-guards / faulted-full** — the linked backend
//!    again at each [`OptLevel`], with a seeded [`FaultPlan`] injecting
//!    spurious guard failures, forced flushes, fuel starvation, and
//!    install rejections.
//!
//! Agreement means identical `Result<RunStats, VmError>`, data memory,
//! and global registers. One more stage, **ingest**, checks the path
//! boundary rules rather than machine state: the reference run's block
//! stream, replayed into a NET [`LinkedEngine`] as a serving ingest
//! session feeds one, must complete exactly as many paths as
//! [`PathExtractor`] finds in the same stream. Any mismatch is a
//! [`Divergence`]; the harness
//! then *shrinks* by replaying the seed under progressively smaller
//! generator configurations and reporting the smallest program that
//! still diverges.

use hotpath_dynamo::{DegradeConfig, DynamoConfig, Engine, LinkedEngine, Scheme};
use hotpath_ir::gen::{generate, GenConfig};
use hotpath_ir::Program;
use hotpath_profiles::{PathExecution, PathExtractor, PathSink, DEFAULT_PATH_CAP};
use hotpath_vm::{
    ExecutionObserver, FaultInjector, FaultPlan, FaultPoint, NullObserver, OptLevel, RecordedTrace,
    RunStats, TraceController, TraceRecorder, Vm, VmError,
};

/// The optimization levels every seed is cross-checked at, with the stage
/// names the clean and faulted runs report under.
pub const OPT_STAGES: [(OptLevel, &str, &str); 3] = [
    (OptLevel::None, "linked", "faulted"),
    (OptLevel::Guards, "linked-guards", "faulted-guards"),
    (OptLevel::Full, "linked-full", "faulted-full"),
];

/// The fault points difffuzz injects, with per-event probabilities tuned
/// so a typical program sees a handful of each without drowning in
/// flushes. (`TracePanic` is exercised by unit tests, not fuzzing — its
/// recovery path prints to stderr by design.)
pub const FAULT_RATES: [(FaultPoint, f64); 4] = [
    (FaultPoint::GuardFail, 0.01),
    (FaultPoint::Flush, 0.001),
    (FaultPoint::FuelStarve, 0.02),
    (FaultPoint::InstallReject, 0.25),
];

/// Generator configurations tried during shrinking, largest (the fuzzing
/// default) first. A divergence is re-checked down the ladder and
/// reported at the smallest configuration that still reproduces.
pub const SHRINK_LADDER: [GenConfig; 4] = [
    // The fuzzing default: loop-heavier than the generator's own default
    // so traces actually form and link. Trip counts stay small because
    // worst-case work is multiplicative: a max_depth nest in main times a
    // (max_depth - 1) nest in a called helper is trip^7 blocks at
    // max_depth 4 — trip 6 keeps that under ~300k blocks, trip 24 would
    // be billions.
    GenConfig {
        max_depth: 4,
        max_stmts: 4,
        max_trip: 6,
        helper_funcs: 2,
        loop_weight: 45,
        memory_words: 64,
    },
    GenConfig {
        max_depth: 3,
        max_stmts: 3,
        max_trip: 6,
        helper_funcs: 1,
        loop_weight: 45,
        memory_words: 32,
    },
    GenConfig {
        max_depth: 2,
        max_stmts: 2,
        max_trip: 8,
        helper_funcs: 0,
        loop_weight: 45,
        memory_words: 16,
    },
    GenConfig {
        max_depth: 1,
        max_stmts: 2,
        max_trip: 4,
        helper_funcs: 0,
        loop_weight: 60,
        memory_words: 8,
    },
];

/// Path caps the ingest stage cycles through by seed, so the cap rule
/// ends paths on random programs too.
pub const INGEST_CAPS: [u32; 3] = [DEFAULT_PATH_CAP, 16, 3];

/// Harness options.
#[derive(Clone, Copy, Debug)]
pub struct FuzzOptions {
    /// XORed into each seed to derive its fault-injection stream, so the
    /// same programs can be replayed under different fault schedules.
    pub fault_seed: u64,
    /// Run the faulted stage at all.
    pub faults: bool,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        FuzzOptions {
            fault_seed: 0xD1FF,
            faults: true,
        }
    }
}

/// Complete observable machine state after a run.
#[derive(Clone, PartialEq, Debug)]
pub struct FinalState {
    /// Run statistics, or the error the run failed with.
    pub result: Result<RunStats, VmError>,
    /// Data memory.
    pub memory: Vec<i64>,
    /// Global registers.
    pub globals: Vec<i64>,
}

impl FinalState {
    fn capture(vm: &Vm, result: Result<RunStats, VmError>) -> Self {
        FinalState {
            result,
            memory: vm.memory().to_vec(),
            globals: vm.globals().to_vec(),
        }
    }

    fn diff(&self, other: &Self) -> String {
        if self.result != other.result {
            return format!("result: {:?} vs {:?}", self.result, other.result);
        }
        if self.globals != other.globals {
            return format!("globals: {:?} vs {:?}", self.globals, other.globals);
        }
        for (i, (a, b)) in self.memory.iter().zip(&other.memory).enumerate() {
            if a != b {
                return format!("memory[{i}]: {a} vs {b}");
            }
        }
        "equal".to_owned()
    }
}

/// A cross-check failure: one stage disagreed with the reference.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// The failing seed.
    pub seed: u64,
    /// Which stage disagreed (`"observed"`, `"ingest"`, `"linked"`,
    /// `"faulted"`, or an opt-level variant like `"linked-full"`; see
    /// [`OPT_STAGES`]).
    pub stage: &'static str,
    /// First differing component, reference vs stage.
    pub detail: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "seed {:#x}: stage `{}` diverged ({})",
            self.seed, self.stage, self.detail
        )
    }
}

/// What one clean seed exercised; aggregated into the harness summary.
#[derive(Clone, Copy, Default, Debug)]
pub struct SeedReport {
    /// Blocks the reference run executed.
    pub blocks: u64,
    /// Faults injected across the faulted stages (summed over opt
    /// levels), per [`FAULT_RATES`] entry.
    pub injected: [u64; FAULT_RATES.len()],
    /// Whether the seed ran with the degradation ladder enabled.
    pub degraded_config: bool,
}

/// The engine configuration a seed runs under: scheme alternates by
/// parity, the prediction delay is short so traces form quickly, and
/// every fourth seed enables the degradation ladder with a window small
/// enough to actually step during a fuzz-sized run.
pub fn engine_config(seed: u64) -> DynamoConfig {
    let scheme = if seed % 2 == 0 {
        Scheme::Net
    } else {
        Scheme::PathProfile
    };
    let mut config = DynamoConfig::new(scheme, 5);
    if seed % 4 == 3 {
        config.degrade = Some(DegradeConfig {
            window_events: 512,
            max_flushes_per_window: 2,
            ..DegradeConfig::default()
        });
    }
    config
}

/// The seed's fault plan (rates from [`FAULT_RATES`], stream seeded by
/// `seed ^ fault_seed`).
pub fn fault_plan(seed: u64, fault_seed: u64) -> FaultPlan {
    let mut plan = FaultPlan::new(seed ^ fault_seed);
    for (point, rate) in FAULT_RATES {
        plan = plan.with(point, rate);
    }
    plan
}

fn reference(program: &Program) -> FinalState {
    let mut vm = Vm::new(program);
    let result = vm.run(&mut NullObserver);
    FinalState::capture(&vm, result)
}

/// Counts completed paths.
#[derive(Default)]
struct CountSink(u64);

impl PathSink for CountSink {
    fn on_path(&mut self, _: &PathExecution) {
        self.0 += 1;
    }
}

/// Completed paths in `trace` as `(LinkedEngine, PathExtractor)` counts:
/// the engine runs NET with bail-out off, so it observes every block, and
/// both cut paths at `cap` blocks.
fn ingest_paths(trace: &RecordedTrace, cap: u32) -> (u64, u64) {
    let mut config = DynamoConfig::new(Scheme::Net, 5);
    config.bailout = None;
    config.path_cap = cap;
    let mut engine = LinkedEngine::new(config);
    for i in 0..trace.len() {
        engine.on_block(&trace.event(i));
        while engine.poll_command().is_some() {}
    }
    if trace.halted() {
        engine.on_halt();
    }
    let mut extractor = PathExtractor::with_cap(CountSink::default(), cap);
    trace.replay(&mut extractor);
    (engine.paths_completed(), extractor.sink().0)
}

/// Cross-checks one generated program.
///
/// # Errors
///
/// Returns the first [`Divergence`] found.
pub fn check_program(
    seed: u64,
    program: &Program,
    options: &FuzzOptions,
) -> Result<SeedReport, Divergence> {
    let expect = reference(program);
    let config = engine_config(seed);
    let mut report = SeedReport {
        blocks: expect.result.map_or(0, |s| s.blocks_executed),
        degraded_config: config.degrade.is_some(),
        ..SeedReport::default()
    };

    let diverged = |stage: &'static str, got: &FinalState| Divergence {
        seed,
        stage,
        detail: expect.diff(got),
    };

    // Stage 2: the simulated engine observes but must not perturb.
    {
        let mut vm = Vm::new(program);
        let mut engine = Engine::new(config.clone());
        let result = vm.run(&mut engine);
        let got = FinalState::capture(&vm, result);
        if got != expect {
            return Err(diverged("observed", &got));
        }
    }

    // The ingest stage: the engine's path boundaries are the extractor's.
    {
        let mut recorder = TraceRecorder::new();
        // The reference already holds the run's result; the stream up to
        // a failure is still a stream.
        let _ = Vm::new(program).run(&mut recorder);
        let cap = INGEST_CAPS[(seed % INGEST_CAPS.len() as u64) as usize];
        let (engine, extractor) = ingest_paths(&recorder.into_trace(), cap);
        if engine != extractor {
            return Err(Divergence {
                seed,
                stage: "ingest",
                detail: format!(
                    "cap {cap}: engine completed {engine} paths, extractor {extractor}"
                ),
            });
        }
    }

    // Stage 3: the real trace backend, clean, at every optimization
    // level — the optimizer must be invisible in results.
    for (level, stage, _) in OPT_STAGES {
        let mut vm = Vm::new(program).with_opt_level(level);
        let mut engine = LinkedEngine::new(config.clone().with_opt_level(level));
        let result = vm.run_linked(&mut engine);
        let got = FinalState::capture(&vm, result);
        if got != expect {
            return Err(diverged(stage, &got));
        }
    }

    // Stage 4: the real trace backend under fault injection, again at
    // every level. Fault *draw sites* differ across levels (optimized
    // traces reach fewer guards), so each level sees its own schedule;
    // every injected fault is semantics-preserving, so each run must
    // still match the reference independently.
    if options.faults {
        for (level, _, stage) in OPT_STAGES {
            let mut vm = Vm::new(program)
                .with_opt_level(level)
                .with_faults(FaultInjector::new(fault_plan(seed, options.fault_seed)));
            let mut engine = LinkedEngine::new(config.clone().with_opt_level(level));
            let result = vm.run_linked(&mut engine);
            let got = FinalState::capture(&vm, result);
            for (i, (point, _)) in FAULT_RATES.iter().enumerate() {
                report.injected[i] += vm.faults().injected(*point);
            }
            if got != expect {
                return Err(diverged(stage, &got));
            }
        }
    }

    Ok(report)
}

/// Cross-checks one seed at the default (largest) generator
/// configuration.
///
/// # Errors
///
/// Returns the first [`Divergence`] found.
pub fn check_seed(seed: u64, options: &FuzzOptions) -> Result<SeedReport, Divergence> {
    check_program(seed, &generate(seed, &SHRINK_LADDER[0]), options)
}

/// Replays a failing seed down [`SHRINK_LADDER`] and returns the
/// divergence at the smallest configuration that still reproduces,
/// together with that configuration.
pub fn shrink(seed: u64, options: &FuzzOptions) -> (GenConfig, Divergence) {
    let mut best = None;
    for config in SHRINK_LADDER {
        if let Err(d) = check_program(seed, &generate(seed, &config), options) {
            best = Some((config, d));
        }
    }
    best.expect("shrink is only called on seeds that diverge")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seed_batch_is_divergence_free() {
        let options = FuzzOptions::default();
        let mut blocks = 0;
        for seed in 0..24 {
            let report = check_seed(seed, &options).unwrap_or_else(|d| panic!("{d}"));
            blocks += report.blocks;
        }
        assert!(blocks > 0, "generated programs must execute something");
    }

    #[test]
    fn faults_actually_fire_somewhere() {
        let options = FuzzOptions::default();
        let mut injected = [0u64; FAULT_RATES.len()];
        for seed in 0..48 {
            let report = check_seed(seed, &options).unwrap_or_else(|d| panic!("{d}"));
            for (total, n) in injected.iter_mut().zip(report.injected) {
                *total += n;
            }
        }
        // Install rejections are near-certain; the per-event points need
        // enough trace traffic, so only assert the aggregate.
        assert!(
            injected.iter().sum::<u64>() > 0,
            "no faults injected across 48 seeds: {injected:?}"
        );
    }

    #[test]
    fn ingest_stage_counts_paths_at_every_cap() {
        let mut recorder = TraceRecorder::new();
        Vm::new(&generate(4, &SHRINK_LADDER[0]))
            .run(&mut recorder)
            .unwrap();
        let trace = recorder.into_trace();
        let counts: Vec<(u64, u64)> = INGEST_CAPS
            .iter()
            .map(|&cap| ingest_paths(&trace, cap))
            .collect();
        for (engine, extractor) in &counts {
            assert_eq!(engine, extractor);
        }
        // A smaller cap cuts more paths: the cap rule is exercised.
        assert!(counts[0].0 > 0);
        assert!(counts[2].0 > counts[0].0, "{counts:?}");
    }

    #[test]
    fn every_ladder_rung_generates_valid_programs() {
        for config in SHRINK_LADDER {
            let state = reference(&generate(7, &config));
            assert!(state.result.is_ok());
        }
    }
}
