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
//! spike flushing, a 32-fragment cache and the degradation ladder, so
//! flushes clear the cached set in the middle of a run and some runs end
//! on the ladder's interpret-only rung.
//!
//! On a mismatch the test prints every cell's digest in the table's own
//! format; a deliberate behaviour change replaces the table with it and
//! says in the change log which cells moved and why.

use hotpath::dynamo::{DegradeConfig, EngineWarmState, FlushPolicy, LinkedEngine};
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

/// The churning configuration: small windows and a small cache, so spike
/// flushes, capacity flushes and ladder steps all fire within a
/// smoke-sized run.
fn churning(scheme: Scheme, delay: u64) -> DynamoConfig {
    let mut config = DynamoConfig::new(scheme, delay);
    config.max_fragments = 32;
    config.flush = FlushPolicy::OnSpike {
        window: 100,
        factor: 1.5,
        min_predictions: 2,
    };
    config.degrade = Some(DegradeConfig {
        window_events: 1_000,
        max_flushes_per_window: 1,
        cooldown_windows: 2,
        ..DegradeConfig::default()
    });
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

/// Every cell of `mode` as `(label, digest)` lines, plus the summed spike
/// flushes of the churning configuration.
fn digests(mode: Mode) -> (Vec<String>, u64) {
    let tag = match mode {
        Mode::Linked => "linked",
        Mode::Ingest => "ingest",
    };
    let mut lines = Vec::new();
    let mut spike_flushes = 0;
    for w in suite(Scale::Smoke) {
        for scheme in [Scheme::Net, Scheme::PathProfile] {
            for tau in TAUS {
                let (d, _) = cell(&w.program, &DynamoConfig::new(scheme, tau), mode);
                lines.push(format!("{tag}/{}/{scheme}/{tau} {d:016x}", w.name));
            }
            let (d, o) = cell(&w.program, &churning(scheme, 10), mode);
            spike_flushes += o.spike_flushes;
            lines.push(format!("{tag}/{}/{scheme}/churn {d:016x}", w.name));
        }
    }
    (lines, spike_flushes)
}

fn check(mode: Mode, pinned: &str) {
    let (got, spike_flushes) = digests(mode);
    assert!(spike_flushes > 0, "the churning configuration must flush");
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
    check(Mode::Linked, LINKED);
}

#[test]
fn ingest_replays_match_the_pinned_digests() {
    check(Mode::Ingest, INGEST);
}

const LINKED: &str = "
linked/compress/NET/10 7d57b35dd39cd6c4
linked/compress/NET/50 466ae3b086cbcdf9
linked/compress/NET/100 f61baab5c306381b
linked/compress/NET/churn 7d57b35dd39cd6c4
linked/compress/PathProfile/10 e2eac3267788411a
linked/compress/PathProfile/50 64a5a4c42d00e3b5
linked/compress/PathProfile/100 66a0219ac816d346
linked/compress/PathProfile/churn e2eac3267788411a
linked/gcc/NET/10 944d3febc2a31bbf
linked/gcc/NET/50 734c79b8347c0730
linked/gcc/NET/100 527cf4e451ef97ff
linked/gcc/NET/churn 944d3febc2a31bbf
linked/gcc/PathProfile/10 b4f871a8e7ac2ed3
linked/gcc/PathProfile/50 9a3c68610edf10f2
linked/gcc/PathProfile/100 ca1fb793a42344f1
linked/gcc/PathProfile/churn b4f871a8e7ac2ed3
linked/go/NET/10 1c4f11661f74f65d
linked/go/NET/50 752a88b8eee17936
linked/go/NET/100 a3f812bfb3af7d0e
linked/go/NET/churn 1c4f11661f74f65d
linked/go/PathProfile/10 bf48d9adb516c09b
linked/go/PathProfile/50 082b279ba36d710d
linked/go/PathProfile/100 24637d7f4923774b
linked/go/PathProfile/churn bf48d9adb516c09b
linked/ijpeg/NET/10 9a3447d20aaa94e0
linked/ijpeg/NET/50 73c0667dfef146e2
linked/ijpeg/NET/100 c472ab7257515b6b
linked/ijpeg/NET/churn 9a3447d20aaa94e0
linked/ijpeg/PathProfile/10 37d848e0e1755048
linked/ijpeg/PathProfile/50 d26a671488cde656
linked/ijpeg/PathProfile/100 af96ce63512ff0be
linked/ijpeg/PathProfile/churn 37d848e0e1755048
linked/li/NET/10 bf5bc6d8a01bef15
linked/li/NET/50 13fbfb779c5a8cb8
linked/li/NET/100 aef5fc2cebf81fcd
linked/li/NET/churn 1def3b3a1868bdbd
linked/li/PathProfile/10 042d56b725748936
linked/li/PathProfile/50 ffabc5a161fda69d
linked/li/PathProfile/100 fb038bf10b08db79
linked/li/PathProfile/churn 1956c51be0b62f47
linked/m88ksim/NET/10 65d59b6eddfc12f4
linked/m88ksim/NET/50 df4b7c78009b8811
linked/m88ksim/NET/100 ac8f4898fad8af84
linked/m88ksim/NET/churn b54540e9afd80d79
linked/m88ksim/PathProfile/10 3eb6c1fe709edb8e
linked/m88ksim/PathProfile/50 a8a21f8400e5d916
linked/m88ksim/PathProfile/100 36f6762c05532919
linked/m88ksim/PathProfile/churn b77f4ab3d3c46e6c
linked/perl/NET/10 1250a5a40daca7ca
linked/perl/NET/50 4ff5cfd43e196ec0
linked/perl/NET/100 fe2cdcabe5898bc1
linked/perl/NET/churn 1250a5a40daca7ca
linked/perl/PathProfile/10 8b61aa85015fa727
linked/perl/PathProfile/50 6b3be3b1a2020059
linked/perl/PathProfile/100 73c9b2a95afdbf32
linked/perl/PathProfile/churn 8b61aa85015fa727
linked/vortex/NET/10 2f14d372b09235b7
linked/vortex/NET/50 0793e4874f63688d
linked/vortex/NET/100 eacb20eb977bd8e2
linked/vortex/NET/churn 2f14d372b09235b7
linked/vortex/PathProfile/10 4e6dc3d23e31851e
linked/vortex/PathProfile/50 98fd2bb6bd2c4a36
linked/vortex/PathProfile/100 fbf597d8cd27511f
linked/vortex/PathProfile/churn 4e6dc3d23e31851e
linked/deltablue/NET/10 c509872ca6a7de8f
linked/deltablue/NET/50 0a5edca8cdb31786
linked/deltablue/NET/100 825d07fee5f36683
linked/deltablue/NET/churn c509872ca6a7de8f
linked/deltablue/PathProfile/10 e6a3d0fa301ac917
linked/deltablue/PathProfile/50 ad3f9ae04b501829
linked/deltablue/PathProfile/100 0036474aeb826c4f
linked/deltablue/PathProfile/churn e6a3d0fa301ac917
";

const INGEST: &str = "
ingest/compress/NET/10 80163b6c1e88ff3a
ingest/compress/NET/50 cc35969da568393d
ingest/compress/NET/100 48acc99b67bffc99
ingest/compress/NET/churn 465d86c0af132207
ingest/compress/PathProfile/10 fb8a869e7d548188
ingest/compress/PathProfile/50 8684a1d4a1b75dfc
ingest/compress/PathProfile/100 2bf0731675d3d9cb
ingest/compress/PathProfile/churn 26f9193648d7e610
ingest/gcc/NET/10 ef51fed639c12d27
ingest/gcc/NET/50 ac7c5d613eaa2eb5
ingest/gcc/NET/100 1d65a1a328ab7d70
ingest/gcc/NET/churn 75cd0c9a0cc9c775
ingest/gcc/PathProfile/10 f440dda9306bf925
ingest/gcc/PathProfile/50 4037815244203a68
ingest/gcc/PathProfile/100 a813dbd7e329699e
ingest/gcc/PathProfile/churn f440dda9306bf925
ingest/go/NET/10 0ea57fb8646519b1
ingest/go/NET/50 3950f0c304e2867b
ingest/go/NET/100 bed1d1e66255a47f
ingest/go/NET/churn 0a4ebe72e098f20e
ingest/go/PathProfile/10 8ef15cd1540356af
ingest/go/PathProfile/50 e66c7704f21a4d23
ingest/go/PathProfile/100 09793f2250a2f5e5
ingest/go/PathProfile/churn 6a6c2410a1500744
ingest/ijpeg/NET/10 54786d1627526387
ingest/ijpeg/NET/50 af4d16e44b0bf11f
ingest/ijpeg/NET/100 ebb19c09f68ed22c
ingest/ijpeg/NET/churn 0643e76c18cc534d
ingest/ijpeg/PathProfile/10 bffe2e5474963e58
ingest/ijpeg/PathProfile/50 67c73cd0b8f94ac4
ingest/ijpeg/PathProfile/100 27c1e2421ffa4673
ingest/ijpeg/PathProfile/churn ec8f37a1d40f12e6
ingest/li/NET/10 5a69e46dd554bca9
ingest/li/NET/50 e7863cb6fe20239f
ingest/li/NET/100 6e889c5ff5eb153c
ingest/li/NET/churn 8afde1129d9f2cb3
ingest/li/PathProfile/10 0abdb6e0cedfccdf
ingest/li/PathProfile/50 0220a3a571f96d01
ingest/li/PathProfile/100 756c174decf149ed
ingest/li/PathProfile/churn 1b57fdbbb278beba
ingest/m88ksim/NET/10 9127d16f5bfc98d3
ingest/m88ksim/NET/50 871cdf425099d992
ingest/m88ksim/NET/100 275c81e879d55a5c
ingest/m88ksim/NET/churn 6c1b650fe12606b7
ingest/m88ksim/PathProfile/10 08b2159de7abc9ff
ingest/m88ksim/PathProfile/50 65d84a49af7f1a0b
ingest/m88ksim/PathProfile/100 cb50819ed7675561
ingest/m88ksim/PathProfile/churn 9daf680004daf28a
ingest/perl/NET/10 55ffa6e8d5099fe4
ingest/perl/NET/50 b173f9df4e981e01
ingest/perl/NET/100 a79a4d5b6eb41b1f
ingest/perl/NET/churn d750efc80baf7ede
ingest/perl/PathProfile/10 97ea0a010a448c74
ingest/perl/PathProfile/50 71ca6e8fd22a8ff1
ingest/perl/PathProfile/100 5b69a97e1cb3ff75
ingest/perl/PathProfile/churn 97ea0a010a448c74
ingest/vortex/NET/10 6bc2d36edcf95546
ingest/vortex/NET/50 1e83f4f57a8e8c6a
ingest/vortex/NET/100 de23d5ae180b9c88
ingest/vortex/NET/churn 20863fa45211a282
ingest/vortex/PathProfile/10 791292359a4a51c0
ingest/vortex/PathProfile/50 b0eaab2608b44027
ingest/vortex/PathProfile/100 557da5f999918020
ingest/vortex/PathProfile/churn 437c64b7a607363a
ingest/deltablue/NET/10 2bd12a649223b5a5
ingest/deltablue/NET/50 d8b0aeb48df781d8
ingest/deltablue/NET/100 d753a5f1aa77fdcf
ingest/deltablue/NET/churn 6bebaa4f863e8310
ingest/deltablue/PathProfile/10 562cb49aca3f183f
ingest/deltablue/PathProfile/50 697fa1b9d76eacb4
ingest/deltablue/PathProfile/100 1ac74efe8da73191
ingest/deltablue/PathProfile/churn 69adc49bde7b79e2
";
