//! Self-profiler integration: the subsystem must observe without
//! perturbing.
//!
//! Four claims, checked through the `hotpath` facade so every feature
//! chain (`selfprof`, `selfprof-alloc`, and the default disabled build)
//! is exercised exactly as downstream binaries link it:
//!
//! 1. **Attribution** (`selfprof` feature): nested stage scopes restore
//!    the outer stage, cross-thread work drains into one report, and —
//!    with the measuring allocator — bytes land on the innermost stage.
//! 2. **Zero-cost disabled** (default build): guards are ZSTs and
//!    [`report`] is the empty report, no matter how many scopes ran.
//! 3. **Sealed reports** (all builds): the versioned FNV-sealed encoding
//!    round-trips and rejects corrupt or stale bytes, exactly like
//!    serve's session snapshots.
//! 4. **Bit-identity**: running every workload inside stage scopes —
//!    plain and fuel-sliced linked execution, whose slice path carries
//!    its own internal `VmSlice` guard — produces [`RunStats`], memory,
//!    and globals identical to an unscoped run. Profiling the profiler
//!    must not move a single number.
//!
//! With the measuring allocator (`selfprof-alloc`), one more pin: the
//! serve path's heap bytes and allocator calls per served block stay
//! within 10% of the committed profile.
//!
//! Tests that enter serve stages hold [`serial`], so a concurrent test's
//! scopes never land in another's allocation totals.
//! [`report`]: hotpath::selfprof::report
//! [`RunStats`]: hotpath::vm::RunStats

use std::sync::{Mutex, MutexGuard};

use hotpath::selfprof::{self, ReportError, SelfProfReport, Stage};
use hotpath::vm::{NullObserver, StepOutcome, Vm};
use hotpath::workloads::{build, Scale, ALL_WORKLOADS};

/// Serializes the tests that enter stages, because the report is
/// process-wide.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

// ---------------------------------------------------------------------
// 1. Attribution (collecting builds only)
// ---------------------------------------------------------------------

#[cfg(feature = "selfprof")]
#[test]
fn nested_scopes_attribute_to_the_innermost_stage() {
    let _serial = serial();
    selfprof::stage!(Stage::ShardDispatch, {
        selfprof::stage!(Stage::SnapshotSave, {
            std::hint::black_box(vec![0u8; 4096]);
        });
        std::hint::black_box(1 + 1);
    });
    let report = selfprof::report();
    let outer = report.stage("shard_dispatch").expect("outer recorded");
    let inner = report.stage("snapshot_save").expect("inner recorded");
    assert!(outer.visits() >= 1);
    assert!(inner.visits() >= 1);
    if selfprof::alloc_tracking() {
        // The Vec bytes belong to the innermost scope, not the outer one.
        assert!(inner.alloc_bytes >= 4096, "{}", report.render_table());
        assert!(inner.bytes_max_visit >= 4096);
    }
}

#[cfg(feature = "selfprof")]
#[test]
fn cross_thread_scopes_drain_into_one_report() {
    let _serial = serial();
    let workers: Vec<_> = (0..4)
        .map(|i| {
            std::thread::spawn(move || {
                selfprof::stage!(Stage::Prewarm, {
                    std::hint::black_box(vec![i as u8; 256]);
                })
            })
        })
        .collect();
    for w in workers {
        w.join().expect("worker");
    }
    let report = selfprof::report();
    let stage = report.stage("prewarm").expect("prewarm recorded");
    assert!(stage.visits() >= 4);
    assert!(report.peak_rss_bytes > 0, "peak RSS sampled on linux");
    // The report must survive its own wire format.
    let decoded = SelfProfReport::decode(&report.encode()).expect("round-trip");
    assert_eq!(
        decoded.stage("prewarm").map(|s| s.visits()),
        Some(stage.visits())
    );
}

// ---------------------------------------------------------------------
// 2. Zero-cost disabled (default build only)
// ---------------------------------------------------------------------

#[cfg(not(feature = "selfprof"))]
#[test]
fn disabled_build_reports_no_events() {
    assert!(!selfprof::enabled());
    assert!(!selfprof::alloc_tracking());
    for _ in 0..100 {
        selfprof::stage!(Stage::VmSlice, {
            std::hint::black_box(vec![0u8; 64]);
        });
    }
    let report = selfprof::report();
    assert!(report.is_empty(), "disabled build recorded: {report:?}");
    // Peak RSS stays available even disabled — serve's `max_rss` reads
    // it on request with no collection machinery behind it.
    if cfg!(target_os = "linux") {
        assert!(report.peak_rss_bytes > 0);
    }
    // The ZST guard really is zero-sized — nothing to construct or drop.
    assert_eq!(std::mem::size_of::<selfprof::StageGuard>(), 0);
}

// ---------------------------------------------------------------------
// 3. Sealed reports (all builds)
// ---------------------------------------------------------------------

#[test]
fn sealed_encoding_rejects_corrupt_and_stale_bytes() {
    let report = SelfProfReport::empty();
    let bytes = report.encode();
    assert_eq!(
        SelfProfReport::decode(&bytes).expect("clean decode"),
        report
    );

    // A flipped payload byte breaks the FNV seal.
    let mut corrupt = bytes.clone();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0x40;
    assert_eq!(
        SelfProfReport::decode(&corrupt),
        Err(ReportError::ChecksumMismatch)
    );

    // A future version is stale-rejected before the seal is even read,
    // so a truncated-but-reversioned blob still names the real problem.
    let mut stale = bytes.clone();
    stale[4..8].copy_from_slice(&99u32.to_le_bytes());
    assert_eq!(
        SelfProfReport::decode(&stale),
        Err(ReportError::UnsupportedVersion(99))
    );

    // Wrong magic and truncation each get their own error.
    let mut wrong_magic = bytes.clone();
    wrong_magic[0] = b'X';
    assert_eq!(
        SelfProfReport::decode(&wrong_magic),
        Err(ReportError::BadMagic)
    );
    assert_eq!(
        SelfProfReport::decode(&bytes[..3]),
        Err(ReportError::TooShort)
    );
}

// ---------------------------------------------------------------------
// 4. Bit-identity under instrumentation
// ---------------------------------------------------------------------

/// One workload's observable outcome: everything a profiler could perturb.
#[derive(PartialEq, Debug)]
struct Outcome {
    stats: hotpath::vm::RunStats,
    memory: Vec<i64>,
    globals: Vec<i64>,
}

fn run_plain(name: hotpath::workloads::WorkloadName) -> Outcome {
    let w = build(name, Scale::Smoke);
    let mut vm = Vm::new(&w.program);
    let stats = vm.run(&mut NullObserver).expect("workload halts");
    Outcome {
        stats,
        memory: vm.memory().to_vec(),
        globals: vm.globals().to_vec(),
    }
}

fn run_scoped(name: hotpath::workloads::WorkloadName) -> Outcome {
    let w = build(name, Scale::Smoke);
    let mut vm = Vm::new(&w.program);
    let stats = selfprof::stage!(Stage::FrameDecode, {
        vm.run(&mut NullObserver).expect("workload halts")
    });
    Outcome {
        stats,
        memory: vm.memory().to_vec(),
        globals: vm.globals().to_vec(),
    }
}

/// Fuel-sliced linked execution: every slice passes through
/// `step_linked`'s internal `VmSlice` stage guard.
fn run_sliced_linked(name: hotpath::workloads::WorkloadName, fuel: u64) -> Outcome {
    let w = build(name, Scale::Smoke);
    let mut vm = Vm::new(&w.program);
    let mut state = vm.start_linked();
    let stats = loop {
        match vm
            .step_linked(&mut state, &mut NullObserver, Some(fuel))
            .expect("workload halts")
        {
            StepOutcome::Halted(stats) => break stats,
            StepOutcome::Yielded => continue,
        }
    };
    Outcome {
        stats,
        memory: vm.memory().to_vec(),
        globals: vm.globals().to_vec(),
    }
}

#[test]
fn stage_scopes_never_perturb_workload_execution() {
    let _serial = serial();
    assert_eq!(ALL_WORKLOADS.len(), 9, "the suite is nine workloads");
    for name in ALL_WORKLOADS {
        let plain = run_plain(name);
        let scoped = run_scoped(name);
        assert_eq!(plain, scoped, "{name}: stage scope changed the run");

        // Sliced linked execution (profiled from inside the VM) must
        // agree with itself across slice sizes and with one big slice.
        let unbounded = run_sliced_linked(name, u64::MAX);
        let sliced = run_sliced_linked(name, 1024);
        assert_eq!(unbounded, sliced, "{name}: slicing changed the run");
        assert_eq!(
            plain.memory, unbounded.memory,
            "{name}: linked memory diverged from the interpreter"
        );
        assert_eq!(
            plain.globals, unbounded.globals,
            "{name}: linked globals diverged from the interpreter"
        );
    }
    // In collecting builds the sliced runs above must actually have been
    // observed — otherwise this test proves nothing about the guards.
    if selfprof::enabled() {
        let report = selfprof::report();
        assert!(report.stage("vm_slice").is_some(), "slices were profiled");
        assert!(report.stage("frame_decode").is_some(), "scopes recorded");
    }
}

// ---------------------------------------------------------------------
// Satellite: steady-state telemetry recording is allocation-free-ish
// ---------------------------------------------------------------------

/// Pins the `SummaryRecorder` label-interning fix: 2,000 steady-state
/// `Timing` observations with already-interned labels must cost at most
/// a handful of allocations (Vec doublings), not one `String` per event.
/// Only the measuring-allocator build can count, so the pin lives behind
/// `selfprof-alloc`; the `ProfilePublish` stage is reserved for it in
/// this binary so no other visit can mask the measurement.
#[cfg(feature = "selfprof-alloc")]
#[test]
fn summary_recorder_timings_do_not_allocate_per_event() {
    let _serial = serial();
    use hotpath::telemetry::{Event, TelemetrySummary};

    let mut summary = TelemetrySummary::new();
    // Warm-up: intern both labels and give the timing Vec a footing.
    for i in 0..32u32 {
        summary.observe(&Event::Timing {
            label: if i % 2 == 0 { "record" } else { "sweep" },
            secs: f64::from(i),
        });
    }
    selfprof::stage!(Stage::ProfilePublish, {
        for i in 0..2_000u32 {
            summary.observe(&Event::Timing {
                label: if i % 2 == 0 { "record" } else { "sweep" },
                secs: f64::from(i),
            });
        }
    });
    let report = selfprof::report();
    let stage = report.stage("profile_publish").expect("visit recorded");
    assert!(
        stage.count_max_visit < 100,
        "steady-state Timing events must not allocate per event: \
         {} allocations over 2000 observes\n{}",
        stage.count_max_visit,
        report.render_table()
    );
}

// ---------------------------------------------------------------------
// 5. Serve-path allocation per block (measuring allocator only)
// ---------------------------------------------------------------------

/// Serve-path heap bytes per served block may not exceed the committed
/// profile's 5.2097 by more than 10%.
#[cfg(feature = "selfprof-alloc")]
const SERVE_BYTES_PER_BLOCK_MAX: f64 = 5.7307;

/// Serve-path allocator calls per served block may not exceed the
/// committed profile's 0.000741 by more than 10%.
#[cfg(feature = "selfprof-alloc")]
const SERVE_ALLOCS_PER_BLOCK_MAX: f64 = 0.000815;

/// Drives one exec session through `manager` to completion and closes
/// it; returns the blocks it executed.
#[cfg(feature = "selfprof-alloc")]
fn serve_session(
    manager: &hotpath::serve::SessionManager,
    name: hotpath::workloads::WorkloadName,
) -> u64 {
    use hotpath::serve::{Request, Response, SessionConfig};
    let patient = |request: Request| loop {
        match manager.request(request.clone()) {
            Response::Busy => std::thread::sleep(std::time::Duration::from_millis(1)),
            response => return response,
        }
    };
    let session = match patient(Request::Open {
        config: SessionConfig::exec(name, Scale::Small),
    }) {
        Response::Opened { session, .. } => session,
        other => panic!("open {name} failed: {other:?}"),
    };
    let blocks = match patient(Request::Run {
        session,
        fuel: None,
    }) {
        Response::Ran { done: true, stats } => stats.blocks_executed,
        other => panic!("run {name} failed: {other:?}"),
    };
    patient(Request::Close { session });
    blocks
}

/// Allocation is deterministic for a fixed build and session set, so
/// the bound holds on any host. The configuration is the committed
/// profile's: all nine workloads at small scale in a seeded order, first
/// one after another through a one-shard pool, then concurrently across
/// four shards, with the seven serve stages summed over the blocks both
/// passes served.
#[cfg(feature = "selfprof-alloc")]
#[test]
fn serve_path_allocation_per_block_stays_within_the_committed_profile() {
    use hotpath::ir::rng::Rng64;
    use hotpath::serve::{ServeConfig, SessionManager};
    use std::sync::Arc;

    let _serial = serial();
    let serve_stages = [
        Stage::FrameDecode,
        Stage::ShardDispatch,
        Stage::VmSlice,
        Stage::SnapshotSave,
        Stage::SnapshotRestore,
        Stage::ProfilePublish,
        Stage::Prewarm,
    ];
    let totals = || {
        let report = selfprof::report();
        serve_stages
            .iter()
            .filter_map(|stage| report.stage(stage.name()))
            .fold((0u64, 0u64), |(bytes, count), s| {
                (bytes + s.alloc_bytes, count + s.alloc_count)
            })
    };
    // The suite in a Fisher-Yates order under seed 42, dealt from the
    // end of the deck.
    let mut plan = ALL_WORKLOADS.to_vec();
    let mut rng = Rng64::seed_from_u64(42);
    for i in (1..plan.len()).rev() {
        let j = rng.gen_range(0..=i);
        plan.swap(i, j);
    }
    plan.reverse();
    let pool = |shards| {
        Arc::new(SessionManager::new(ServeConfig {
            shards,
            ..ServeConfig::default()
        }))
    };

    let (bytes0, count0) = totals();
    let single = pool(1);
    let mut served: u64 = plan.iter().map(|&name| serve_session(&single, name)).sum();
    let aggregate = pool(4);
    let drivers: Vec<_> = plan
        .iter()
        .map(|&name| {
            let aggregate = Arc::clone(&aggregate);
            std::thread::spawn(move || serve_session(&aggregate, name))
        })
        .collect();
    served += drivers
        .into_iter()
        .map(|d| d.join().expect("driver"))
        .sum::<u64>();
    let (bytes1, count1) = totals();

    let (bytes, count) = (bytes1 - bytes0, count1 - count0);
    let bytes_per_block = bytes as f64 / served as f64;
    let allocs_per_block = count as f64 / served as f64;
    println!(
        "serve-path alloc: {bytes} B / {count} allocs over {served} blocks \
         ({bytes_per_block:.4} B/blk, {allocs_per_block:.6} allocs/blk)"
    );
    assert!(bytes > 0 && count > 0, "the serve stages recorded nothing");
    assert!(
        bytes_per_block <= SERVE_BYTES_PER_BLOCK_MAX,
        "{bytes_per_block:.4} B/blk exceeds {SERVE_BYTES_PER_BLOCK_MAX}"
    );
    assert!(
        allocs_per_block <= SERVE_ALLOCS_PER_BLOCK_MAX,
        "{allocs_per_block:.6} allocs/blk exceeds {SERVE_ALLOCS_PER_BLOCK_MAX}"
    );
}
