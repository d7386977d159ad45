//! Pins `LinkedEngine`'s own counts.
//!
//! Every cell hashes the whole [`DynamoOutcome`] (cycle charges by their
//! bit patterns) together with the engine's exported warm state, and the
//! digests are compared with the committed ones below. A change to how the
//! engine finds, counts, caches or flushes paths moves some digest; a
//! change that only makes the engine cheaper moves none.
//!
//! Cells: nine workloads × τ ∈ {10, 50, 100} × {NET, PathProfile} at
//! `Scale::Smoke`, in two modes:
//!
//! * **linked** — `run_dynamo_linked`: real trace execution, so paths are
//!   cut short by excursions and tails are recorded on trace exits;
//! * **ingest** — the plain run's recorded block stream fed to
//!   `on_block`, draining `poll_command` after every event as a serving
//!   ingest session does. No trace ever runs, so every later arrival at a
//!   cached head meets the cached-path exclusion.
//!
//! One more configuration per workload and scheme (τ = 10) turns on
//! spike flushing and a 32-fragment cache, so flushes clear the cached
//! set in the middle of a run. It must flush, from capacity or a spike,
//! in at least 6 of its 18 linked cells (8 do: gcc and go fill the cache,
//! m88ksim once, ijpeg and li spike under path profiling) and 15 of its
//! 18 ingest cells (17 do), so no single cell carries the check.
//!
//! On a mismatch the test prints every cell's digest in the table's own
//! format; a deliberate behaviour change replaces the table with it and
//! says in the change log which cells moved and why.

use hotpath::dynamo::{EngineWarmState, FlushPolicy, LinkedEngine};
use hotpath::prelude::*;

const TAUS: [u64; 3] = [10, 50, 100];

/// FNV-1a over little-endian words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn outcome(&mut self, o: &DynamoOutcome) {
        let c = &o.cycles;
        for f in [
            c.interp,
            c.trace,
            c.native,
            c.profiling,
            c.build,
            c.transitions,
            o.cached_block_fraction,
        ] {
            self.word(f.to_bits());
        }
        for n in [
            o.fragments_installed,
            o.fragments_live as u64,
            o.flushes,
            o.spike_flushes,
            u64::from(o.bailed_out),
            o.paths_completed,
            o.insts_executed,
            o.guard_execs,
        ] {
            self.word(n);
        }
    }

    fn warm(&mut self, w: &EngineWarmState) {
        self.word(w.fragments.len() as u64);
        for f in &w.fragments {
            self.word(f.blocks.len() as u64);
            for &b in &f.blocks {
                self.word(u64::from(b));
            }
            self.word(u64::from(f.insts));
        }
        for list in [&w.exit_counts, &w.net_counters] {
            self.word(list.len() as u64);
            for &(block, count) in list {
                self.word(u64::from(block));
                self.word(count);
            }
        }
        self.word(w.armed.len() as u64);
        for &t in &w.armed {
            self.word(u64::from(t));
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Mode {
    Linked,
    Ingest,
}

/// The churning configuration: a small spike window and a small cache,
/// so spike flushes and capacity flushes both fire within a smoke-sized
/// run.
fn churning(scheme: Scheme, delay: u64) -> DynamoConfig {
    let mut config = DynamoConfig::new(scheme, delay);
    config.max_fragments = 32;
    config.flush = FlushPolicy::OnSpike {
        window: 50,
        factor: 1.5,
        min_predictions: 2,
    };
    config
}

/// Runs one cell; returns its digest and outcome.
fn cell(program: &Program, config: &DynamoConfig, mode: Mode) -> (u64, DynamoOutcome) {
    let mut engine = LinkedEngine::new(config.clone());
    match mode {
        Mode::Linked => {
            let stats = Vm::new(program)
                .with_opt_level(config.opt_level)
                .run_linked(&mut engine)
                .expect("linked run");
            let plain = Vm::new(program)
                .run(&mut hotpath::vm::NullObserver)
                .expect("plain run");
            assert_eq!(stats, plain, "linked RunStats equal the plain run's");
        }
        Mode::Ingest => {
            let mut recorder = TraceRecorder::new();
            Vm::new(program).run(&mut recorder).expect("recorded run");
            let trace = recorder.into_trace();
            for i in 0..trace.len() {
                engine.on_block(&trace.event(i));
                while engine.poll_command().is_some() {}
            }
        }
    }
    let warm = engine.export_warm_state();
    let outcome = engine.finish();
    let mut d = Digest::new();
    d.outcome(&outcome);
    d.warm(&warm);
    (d.0, outcome)
}

/// Every cell of `mode` as `(label, digest)` lines, plus each churning
/// cell's label with its flushes (capacity and spike) and spike flushes.
fn digests(mode: Mode) -> (Vec<String>, Vec<(String, u64, u64)>) {
    let tag = match mode {
        Mode::Linked => "linked",
        Mode::Ingest => "ingest",
    };
    let mut lines = Vec::new();
    let mut churn = Vec::new();
    for w in suite(Scale::Smoke) {
        for scheme in [Scheme::Net, Scheme::PathProfile] {
            for tau in TAUS {
                let (d, _) = cell(&w.program, &DynamoConfig::new(scheme, tau), mode);
                lines.push(format!("{tag}/{}/{scheme}/{tau} {d:016x}", w.name));
            }
            let (d, o) = cell(&w.program, &churning(scheme, 10), mode);
            let label = format!("{tag}/{}/{scheme}/churn", w.name);
            lines.push(format!("{label} {d:016x}"));
            churn.push((label, o.flushes, o.spike_flushes));
        }
    }
    (lines, churn)
}

fn check(mode: Mode, pinned: &str, min_flushing_cells: usize) {
    let (got, churn) = digests(mode);
    // The churning configuration must churn in enough cells that one
    // cell's behaviour cannot carry the check alone.
    let flushing = churn.iter().filter(|c| c.1 > 0).count();
    let per_cell: Vec<String> = churn
        .iter()
        .map(|(label, flushes, spikes)| format!("  {label}: {flushes} flushes ({spikes} spike)"))
        .collect();
    assert!(
        flushing >= min_flushing_cells,
        "the churning configuration flushes in {flushing} of {} cells, below {min_flushing_cells}:\n{}",
        churn.len(),
        per_cell.join("\n")
    );
    let want: Vec<&str> = pinned
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .collect();
    let moved: Vec<String> = got
        .iter()
        .zip(want.iter().copied().chain(std::iter::repeat("")))
        .filter(|(g, w)| g.as_str() != *w)
        .map(|(g, w)| format!("  {g}   (pinned: {w})"))
        .collect();
    assert!(
        moved.is_empty() && got.len() == want.len(),
        "{} of {} cells moved:\n{}\nfull table:\n{}",
        moved.len(),
        got.len(),
        moved.join("\n"),
        got.join("\n")
    );
}

#[test]
fn linked_runs_match_the_pinned_digests() {
    check(Mode::Linked, LINKED, 6);
}

#[test]
fn ingest_replays_match_the_pinned_digests() {
    check(Mode::Ingest, INGEST, 15);
}

const LINKED: &str = "
linked/compress/NET/10 01b6aa92bc411886
linked/compress/NET/50 d1dfe84bfa0cc2fa
linked/compress/NET/100 18fb35894d4fb200
linked/compress/NET/churn 01b6aa92bc411886
linked/compress/PathProfile/10 d45866e755028716
linked/compress/PathProfile/50 c883258fc4ff3c38
linked/compress/PathProfile/100 04d4970837ba46f9
linked/compress/PathProfile/churn d45866e755028716
linked/gcc/NET/10 6939dceef96f1def
linked/gcc/NET/50 6fd76745a475e377
linked/gcc/NET/100 7f0954a1031a1013
linked/gcc/NET/churn a3b87d7cdfda82d9
linked/gcc/PathProfile/10 5c681ea0fbcc7ea6
linked/gcc/PathProfile/50 a569fa8263e9e9ae
linked/gcc/PathProfile/100 dc9ecdd359d01a67
linked/gcc/PathProfile/churn 223c380f4f79fc01
linked/go/NET/10 508657798b61b60b
linked/go/NET/50 3c2b1d49d3172dda
linked/go/NET/100 4a7278949fdf1270
linked/go/NET/churn e464845c07d6ec54
linked/go/PathProfile/10 c22a25353b32a5d6
linked/go/PathProfile/50 7705aa22c3ecb8f9
linked/go/PathProfile/100 d58121e77123b86b
linked/go/PathProfile/churn 1cc1b4d70b0c4089
linked/ijpeg/NET/10 12fb9cf0c128a818
linked/ijpeg/NET/50 ec0887de14591869
linked/ijpeg/NET/100 c01b7be4607b3ab6
linked/ijpeg/NET/churn 12fb9cf0c128a818
linked/ijpeg/PathProfile/10 ed94838091cd8ae7
linked/ijpeg/PathProfile/50 38b530afaa678ea1
linked/ijpeg/PathProfile/100 03021e8246205d4b
linked/ijpeg/PathProfile/churn 19139100c3dc170b
linked/li/NET/10 f3aa44e03884da18
linked/li/NET/50 0dd33e6e81445f85
linked/li/NET/100 fd5fadaffaaadc88
linked/li/NET/churn f3aa44e03884da18
linked/li/PathProfile/10 3cc42053952db268
linked/li/PathProfile/50 7c2def70f8c7d0aa
linked/li/PathProfile/100 e04174d217eb05e3
linked/li/PathProfile/churn 8aa7edf82bd50cda
linked/m88ksim/NET/10 65d59b6eddfc12f4
linked/m88ksim/NET/50 df4b7c78009b8811
linked/m88ksim/NET/100 fa498884f2d83e10
linked/m88ksim/NET/churn fb48cb305b0a798a
linked/m88ksim/PathProfile/10 3eb6c1fe709edb8e
linked/m88ksim/PathProfile/50 a8a21f8400e5d916
linked/m88ksim/PathProfile/100 36f6762c05532919
linked/m88ksim/PathProfile/churn c104c41c1f6cec32
linked/perl/NET/10 b7d110fed62c339b
linked/perl/NET/50 f6deebcb4cf2cc68
linked/perl/NET/100 fe2cdcabe5898bc1
linked/perl/NET/churn b7d110fed62c339b
linked/perl/PathProfile/10 0052e212b62bcfa5
linked/perl/PathProfile/50 130176fe65d0415f
linked/perl/PathProfile/100 73c9b2a95afdbf32
linked/perl/PathProfile/churn 0052e212b62bcfa5
linked/vortex/NET/10 2097a7dc71a331d7
linked/vortex/NET/50 64e704052cc51a58
linked/vortex/NET/100 4e8d7853b58ee472
linked/vortex/NET/churn 2097a7dc71a331d7
linked/vortex/PathProfile/10 2a5fe9d3116a4503
linked/vortex/PathProfile/50 18e6c56557854146
linked/vortex/PathProfile/100 56f0d115288762d2
linked/vortex/PathProfile/churn 2a5fe9d3116a4503
linked/deltablue/NET/10 3e4b2c994586760f
linked/deltablue/NET/50 c43dabd7ab48381a
linked/deltablue/NET/100 825d07fee5f36683
linked/deltablue/NET/churn 3e4b2c994586760f
linked/deltablue/PathProfile/10 bc5db8a911f24ea7
linked/deltablue/PathProfile/50 59632228e5f20d46
linked/deltablue/PathProfile/100 60beb9510cf30267
linked/deltablue/PathProfile/churn bc5db8a911f24ea7
";

const INGEST: &str = "
ingest/compress/NET/10 80163b6c1e88ff3a
ingest/compress/NET/50 cc35969da568393d
ingest/compress/NET/100 48acc99b67bffc99
ingest/compress/NET/churn 1a670bb6e435b426
ingest/compress/PathProfile/10 fb8a869e7d548188
ingest/compress/PathProfile/50 8684a1d4a1b75dfc
ingest/compress/PathProfile/100 2bf0731675d3d9cb
ingest/compress/PathProfile/churn b3ff4777f568b057
ingest/gcc/NET/10 ef51fed639c12d27
ingest/gcc/NET/50 ac7c5d613eaa2eb5
ingest/gcc/NET/100 1d65a1a328ab7d70
ingest/gcc/NET/churn ca23a18222fb55a7
ingest/gcc/PathProfile/10 f440dda9306bf925
ingest/gcc/PathProfile/50 4037815244203a68
ingest/gcc/PathProfile/100 a813dbd7e329699e
ingest/gcc/PathProfile/churn f440dda9306bf925
ingest/go/NET/10 0ea57fb8646519b1
ingest/go/NET/50 3950f0c304e2867b
ingest/go/NET/100 bed1d1e66255a47f
ingest/go/NET/churn 3c41321a479b03a9
ingest/go/PathProfile/10 8ef15cd1540356af
ingest/go/PathProfile/50 e66c7704f21a4d23
ingest/go/PathProfile/100 09793f2250a2f5e5
ingest/go/PathProfile/churn 382be6035c244cad
ingest/ijpeg/NET/10 54786d1627526387
ingest/ijpeg/NET/50 af4d16e44b0bf11f
ingest/ijpeg/NET/100 ebb19c09f68ed22c
ingest/ijpeg/NET/churn 7fefa7bb8236b1ed
ingest/ijpeg/PathProfile/10 bffe2e5474963e58
ingest/ijpeg/PathProfile/50 67c73cd0b8f94ac4
ingest/ijpeg/PathProfile/100 27c1e2421ffa4673
ingest/ijpeg/PathProfile/churn da1f2d886aa62753
ingest/li/NET/10 5a69e46dd554bca9
ingest/li/NET/50 e7863cb6fe20239f
ingest/li/NET/100 6e889c5ff5eb153c
ingest/li/NET/churn ea4d30b726d82c29
ingest/li/PathProfile/10 0abdb6e0cedfccdf
ingest/li/PathProfile/50 0220a3a571f96d01
ingest/li/PathProfile/100 756c174decf149ed
ingest/li/PathProfile/churn a45a9db417275b02
ingest/m88ksim/NET/10 9127d16f5bfc98d3
ingest/m88ksim/NET/50 871cdf425099d992
ingest/m88ksim/NET/100 275c81e879d55a5c
ingest/m88ksim/NET/churn 975d0f9aae6233a6
ingest/m88ksim/PathProfile/10 08b2159de7abc9ff
ingest/m88ksim/PathProfile/50 65d84a49af7f1a0b
ingest/m88ksim/PathProfile/100 cb50819ed7675561
ingest/m88ksim/PathProfile/churn 7fe6ab61fb0a72d5
ingest/perl/NET/10 55ffa6e8d5099fe4
ingest/perl/NET/50 b173f9df4e981e01
ingest/perl/NET/100 a79a4d5b6eb41b1f
ingest/perl/NET/churn f49815ff53507b98
ingest/perl/PathProfile/10 97ea0a010a448c74
ingest/perl/PathProfile/50 71ca6e8fd22a8ff1
ingest/perl/PathProfile/100 5b69a97e1cb3ff75
ingest/perl/PathProfile/churn 9d0e78f3e67c71fb
ingest/vortex/NET/10 6bc2d36edcf95546
ingest/vortex/NET/50 1e83f4f57a8e8c6a
ingest/vortex/NET/100 de23d5ae180b9c88
ingest/vortex/NET/churn fa00e9d65ec20b4e
ingest/vortex/PathProfile/10 791292359a4a51c0
ingest/vortex/PathProfile/50 b0eaab2608b44027
ingest/vortex/PathProfile/100 557da5f999918020
ingest/vortex/PathProfile/churn 788228646fd81257
ingest/deltablue/NET/10 2bd12a649223b5a5
ingest/deltablue/NET/50 d8b0aeb48df781d8
ingest/deltablue/NET/100 d753a5f1aa77fdcf
ingest/deltablue/NET/churn 16909be0efd6cfcc
ingest/deltablue/PathProfile/10 562cb49aca3f183f
ingest/deltablue/PathProfile/50 697fa1b9d76eacb4
ingest/deltablue/PathProfile/100 1ac74efe8da73191
ingest/deltablue/PathProfile/churn 92ce19e468eb516e
";
