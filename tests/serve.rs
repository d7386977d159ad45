//! Serving-layer contract tests: session isolation, admission control,
//! snapshot round-trips, and the TCP front-end.
//!
//! The load-bearing invariant throughout is the one the trace backend
//! already guarantees locally: final statistics, memory, and globals are
//! bit-identical to a plain interpreted run no matter how execution is
//! sliced, flushed, snapshotted, or multiplexed with other sessions.

use hotpath::prelude::*;
use hotpath::serve::{
    serve, Client, Request, Response, ServeConfig, SessionConfig, SessionManager, SessionSnapshot,
};
use hotpath::workloads::ALL_WORKLOADS;

/// A plain interpreted run: the reference every serving path must match.
fn plain(name: WorkloadName, scale: Scale) -> (hotpath::vm::RunStats, Vec<i64>, Vec<i64>) {
    let program = build(name, scale).program;
    let mut vm = Vm::new(&program);
    let mut observer = hotpath::vm::NullObserver;
    let stats = vm.run(&mut observer).expect("workload runs");
    (stats, vm.memory().to_vec(), vm.globals().to_vec())
}

fn open(manager: &SessionManager, config: SessionConfig) -> u64 {
    match manager.request(Request::Open { config }) {
        Response::Opened { session, .. } => session,
        other => panic!("open failed: {other:?}"),
    }
}

/// Drives an exec session to completion in `fuel`-block slices.
fn finish(manager: &SessionManager, session: u64, fuel: Option<u64>) -> hotpath::vm::RunStats {
    loop {
        match manager.request(Request::Run { session, fuel }) {
            Response::Ran { done: true, stats } => return stats,
            Response::Ran { done: false, .. } => {}
            Response::Busy => std::thread::sleep(std::time::Duration::from_millis(1)),
            other => panic!("run failed: {other:?}"),
        }
    }
}

/// Captures a session's exact machine state through the snapshot format.
fn machine_state(
    manager: &SessionManager,
    session: u64,
) -> (hotpath::vm::RunStats, Vec<i64>, Vec<i64>) {
    let Response::SnapshotBlob { blob } = manager.request(Request::Snapshot { session }) else {
        panic!("snapshot failed")
    };
    let saved = SessionSnapshot::decode(&blob)
        .expect("snapshot decodes")
        .vm
        .expect("exec session carries machine state");
    (saved.stats, saved.memory, saved.globals)
}

/// The acceptance criterion: for every workload, save at the midpoint,
/// restore into a fresh session, finish — and end bit-identical to both
/// an uninterrupted serving run and a plain interpreted run.
#[test]
fn snapshot_round_trip_is_bit_identical_for_every_workload() {
    let manager = SessionManager::new(ServeConfig {
        shards: 2,
        ..ServeConfig::default()
    });
    for name in ALL_WORKLOADS {
        let reference = plain(name, Scale::Smoke);
        let config = SessionConfig::exec(name, Scale::Smoke);

        // Uninterrupted serving run.
        let solo = open(&manager, config.clone());
        let solo_stats = finish(&manager, solo, None);
        assert_eq!(solo_stats, reference.0, "{name}: uninterrupted stats");
        assert_eq!(
            machine_state(&manager, solo).1,
            reference.1,
            "{name}: memory"
        );

        // Save at the midpoint, restore, finish.
        let interrupted = open(&manager, config);
        let midpoint = reference.0.blocks_executed / 2;
        match manager.request(Request::Run {
            session: interrupted,
            fuel: Some(midpoint),
        }) {
            Response::Ran { done, stats } => {
                assert!(!done, "{name}: midpoint must not complete the run");
                assert!(stats.blocks_executed <= midpoint, "{name}: fuel respected");
            }
            other => panic!("{name}: midpoint run failed: {other:?}"),
        }
        let Response::SnapshotBlob { blob } = manager.request(Request::Snapshot {
            session: interrupted,
        }) else {
            panic!("{name}: snapshot failed")
        };
        let restored = match manager.request(Request::Restore { blob }) {
            Response::Opened { session, .. } => session,
            other => panic!("{name}: restore failed: {other:?}"),
        };
        let restored_stats = finish(&manager, restored, Some(700));
        let (stats, memory, globals) = machine_state(&manager, restored);
        assert_eq!(restored_stats, reference.0, "{name}: restored stats");
        assert_eq!(stats, reference.0, "{name}: snapshot stats");
        assert_eq!(memory, reference.1, "{name}: restored memory");
        assert_eq!(globals, reference.2, "{name}: restored globals");

        for session in [solo, interrupted, restored] {
            manager.request(Request::Close { session });
        }
    }
}

/// Two sessions on the same shard never share trace state: forcing
/// flushes in one leaves the other bit-identical to a run that had the
/// shard to itself.
#[test]
fn same_shard_sessions_are_isolated_under_forced_flushes() {
    let name = WorkloadName::Compress;
    let reference = plain(name, Scale::Smoke);
    let single_shard = ServeConfig {
        shards: 1,
        ..ServeConfig::default()
    };

    // Solo reference through the serving layer, same slicing as below.
    let solo_manager = SessionManager::new(single_shard);
    let solo = open(&solo_manager, SessionConfig::exec(name, Scale::Smoke));
    finish(&solo_manager, solo, Some(500));
    let solo_machine = machine_state(&solo_manager, solo);

    // Interleaved run: victim advances in the same 500-block slices while
    // a noisy neighbour runs and has its cache flushed every slice.
    let manager = SessionManager::new(single_shard);
    let victim = open(&manager, SessionConfig::exec(name, Scale::Smoke));
    let noisy = open(&manager, SessionConfig::exec(name, Scale::Smoke));
    let mut victim_done = false;
    while !victim_done {
        match manager.request(Request::Run {
            session: victim,
            fuel: Some(500),
        }) {
            Response::Ran { done, .. } => victim_done = done,
            other => panic!("victim run failed: {other:?}"),
        }
        manager.request(Request::Run {
            session: noisy,
            fuel: Some(300),
        });
        let Response::Status(status) = manager.request(Request::Flush { session: noisy }) else {
            panic!("flush failed")
        };
        assert_eq!(status.session, noisy);
    }
    let victim_machine = machine_state(&manager, victim);
    assert_eq!(victim_machine, solo_machine, "flushes next door leaked");
    assert_eq!(victim_machine.0, reference.0, "serving diverged from plain");

    // The noisy neighbour still finishes correctly despite the flushes.
    let noisy_stats = finish(&manager, noisy, Some(300));
    assert_eq!(noisy_stats, reference.0, "flushed session diverged");
}

/// A full session table refuses new opens with `Busy` until a slot
/// frees; the refusal is explicit, not a queue that grows.
#[test]
fn full_session_table_answers_busy() {
    let manager = SessionManager::new(ServeConfig {
        shards: 1,
        max_sessions_per_shard: 2,
        ..ServeConfig::default()
    });
    let config = SessionConfig::exec(WorkloadName::Compress, Scale::Smoke);
    let first = open(&manager, config.clone());
    let _second = open(&manager, config.clone());
    assert_eq!(
        manager.request(Request::Open {
            config: config.clone()
        }),
        Response::Busy,
        "third open must be refused"
    );
    manager.request(Request::Close { session: first });
    open(&manager, config); // slot freed, admission resumes
}

/// A full shard queue surfaces as `Busy` — and the backpressure never
/// perturbs the sessions doing the work.
#[test]
fn full_queue_answers_busy_without_perturbing_runs() {
    let name = WorkloadName::Compress;
    let reference = plain(name, Scale::Small);
    let manager = std::sync::Arc::new(SessionManager::new(ServeConfig {
        shards: 1,
        queue_depth: 1,
        ..ServeConfig::default()
    }));
    let sessions: Vec<u64> = (0..3)
        .map(|_| open(&manager, SessionConfig::exec(name, Scale::Small)))
        .collect();

    // Three simultaneous unbounded runs against a depth-1 queue: one
    // occupies the worker, one its queue slot, so the third submission
    // must be refused. Each thread records the backpressure it absorbed.
    let barrier = std::sync::Arc::new(std::sync::Barrier::new(sessions.len()));
    let workers: Vec<_> = sessions
        .into_iter()
        .map(|session| {
            let manager = std::sync::Arc::clone(&manager);
            let barrier = std::sync::Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                let mut saw_busy = false;
                let stats = loop {
                    match manager.request(Request::Run {
                        session,
                        fuel: None,
                    }) {
                        Response::Ran { done: true, stats } => break stats,
                        Response::Ran { done: false, .. } => {}
                        Response::Busy => {
                            saw_busy = true;
                            std::thread::sleep(std::time::Duration::from_millis(1));
                        }
                        other => panic!("run failed: {other:?}"),
                    }
                };
                (stats, saw_busy)
            })
        })
        .collect();

    let mut any_busy = false;
    for worker in workers {
        let (stats, saw_busy) = worker.join().expect("worker run");
        assert_eq!(stats, reference.0, "backpressure changed a result");
        any_busy |= saw_busy;
    }
    assert!(any_busy, "never observed queue backpressure");
}

/// Per-session fuel budgets are the admission control's third layer:
/// once spent, further run requests fail loudly.
#[test]
fn fuel_budget_exhaustion_fails_run_requests() {
    let manager = SessionManager::new(ServeConfig::default());
    let session = open(
        &manager,
        SessionConfig {
            fuel_budget: Some(100),
            ..SessionConfig::exec(WorkloadName::Compress, Scale::Smoke)
        },
    );
    let mut spent = 0;
    loop {
        match manager.request(Request::Run {
            session,
            fuel: Some(40),
        }) {
            Response::Ran { done, stats } => {
                assert!(!done, "smoke compress far exceeds 100 blocks");
                assert!(stats.blocks_executed <= 100, "budget overrun");
                spent = stats.blocks_executed;
            }
            Response::Error { message } => {
                assert!(message.contains("budget"), "unexpected error: {message}");
                break;
            }
            other => panic!("run failed: {other:?}"),
        }
    }
    assert_eq!(spent, 100, "budget must be spendable to the last block");
}

/// Ingest sessions profile a client-streamed event batch exactly as a
/// local engine observing the same run would.
#[test]
fn ingest_sessions_match_a_local_engine() {
    struct Collect(Vec<BlockEvent>);
    impl ExecutionObserver for Collect {
        fn on_block(&mut self, event: &BlockEvent) {
            self.0.push(*event);
        }
    }
    let program = build(WorkloadName::Compress, Scale::Smoke).program;
    let mut collector = Collect(Vec::new());
    Vm::new(&program).run(&mut collector).expect("runs");
    let events = collector.0;

    // Local reference: an engine fed the same stream directly.
    let mut local = LinkedEngine::new(DynamoConfig::new(Scheme::Net, 50));
    for event in &events {
        local.on_block(event);
    }
    while local.poll_command().is_some() {}

    let manager = SessionManager::new(ServeConfig::default());
    let session = open(&manager, SessionConfig::ingest());
    let mut totals = (0, 0, 0);
    for batch in events.chunks(1000) {
        match manager.request(Request::Ingest {
            session,
            events: batch.to_vec(),
        }) {
            Response::Ingested {
                events,
                paths,
                fragments,
            } => totals = (events, paths, fragments),
            other => panic!("ingest failed: {other:?}"),
        }
    }
    assert_eq!(totals.0, events.len() as u64, "every event counted");
    assert_eq!(totals.1, local.paths_completed(), "paths diverged");
    assert_eq!(totals.2, local.cache().len() as u64, "fragments diverged");
    assert!(totals.1 > 0, "stream must complete paths");

    // Mode mixing is rejected, not silently tolerated.
    let exec = open(
        &manager,
        SessionConfig::exec(WorkloadName::Compress, Scale::Smoke),
    );
    assert!(matches!(
        manager.request(Request::Ingest {
            session: exec,
            events: events[..10].to_vec(),
        }),
        Response::Error { .. }
    ));
    assert!(matches!(
        manager.request(Request::Run {
            session,
            fuel: None
        }),
        Response::Error { .. }
    ));
}

/// N concurrent sessions across the shard pool each end bit-identical
/// to a plain run: zero cross-session divergence under real threads.
#[test]
fn concurrent_sessions_across_shards_never_diverge() {
    let names = [
        WorkloadName::Compress,
        WorkloadName::Go,
        WorkloadName::Li,
        WorkloadName::Perl,
    ];
    let manager = std::sync::Arc::new(SessionManager::new(ServeConfig {
        shards: 4,
        ..ServeConfig::default()
    }));
    let workers: Vec<_> = names
        .into_iter()
        .map(|name| {
            let manager = std::sync::Arc::clone(&manager);
            std::thread::spawn(move || {
                let session = open(&manager, SessionConfig::exec(name, Scale::Smoke));
                let stats = finish(&manager, session, Some(1000));
                (name, stats, machine_state(&manager, session))
            })
        })
        .collect();
    for worker in workers {
        let (name, stats, machine) = worker.join().expect("session thread");
        let reference = plain(name, Scale::Smoke);
        assert_eq!(stats, reference.0, "{name}: stats diverged");
        assert_eq!(machine.1, reference.1, "{name}: memory diverged");
        assert_eq!(machine.2, reference.2, "{name}: globals diverged");
    }
}

/// Aggregate throughput scales with the shard pool. Gated on real
/// parallelism: on a single-core box the ratio is meaningless.
#[test]
fn sharded_aggregate_scales_when_cores_allow() {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    if cores < 4 {
        eprintln!("skipping scaling assertion: only {cores} core(s)");
        return;
    }
    let name = WorkloadName::Compress;
    let sessions = 4u32;

    // Single-session baseline.
    let solo_manager = SessionManager::new(ServeConfig {
        shards: 1,
        ..ServeConfig::default()
    });
    let solo = open(&solo_manager, SessionConfig::exec(name, Scale::Small));
    let start = std::time::Instant::now();
    let solo_stats = finish(&solo_manager, solo, None);
    let solo_rate = solo_stats.blocks_executed as f64 / start.elapsed().as_secs_f64();

    // Four sessions across four shards, one driver thread each.
    let manager = std::sync::Arc::new(SessionManager::new(ServeConfig {
        shards: 4,
        ..ServeConfig::default()
    }));
    let start = std::time::Instant::now();
    let workers: Vec<_> = (0..sessions)
        .map(|_| {
            let manager = std::sync::Arc::clone(&manager);
            std::thread::spawn(move || {
                let session = open(&manager, SessionConfig::exec(name, Scale::Small));
                finish(&manager, session, None).blocks_executed
            })
        })
        .collect();
    let total: u64 = workers.into_iter().map(|w| w.join().expect("worker")).sum();
    let aggregate_rate = total as f64 / start.elapsed().as_secs_f64();

    let ratio = aggregate_rate / solo_rate;
    assert!(
        ratio >= 3.0,
        "4-shard aggregate only {ratio:.2}x the single-session rate"
    );
}

/// The TCP transport is byte-faithful to the in-process API, including
/// the protocol-level snapshot round trip.
#[test]
fn tcp_round_trip_matches_plain_execution() {
    let name = WorkloadName::Compress;
    let reference = plain(name, Scale::Smoke);
    let handle = serve("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let mut client = Client::connect(handle.addr()).expect("connect");

    let (session, _shard) = client
        .open(SessionConfig::exec(name, Scale::Smoke))
        .expect("open");
    let last = loop {
        let (done, stats) = client.run(session, Some(2000)).expect("run slice");
        if done {
            break stats;
        }
    };
    assert_eq!(last, reference.0, "TCP run diverged from plain");

    let status = client.query(session).expect("query");
    assert!(status.done);
    assert_eq!(status.workload, "compress");
    assert_eq!(status.stats, reference.0);

    // Snapshot over the wire, restore over the wire: the restored
    // session carries the exact finished machine state.
    let blob = client.snapshot(session).expect("snapshot");
    let saved = SessionSnapshot::decode(&blob).expect("blob decodes");
    assert_eq!(
        saved.vm.as_ref().expect("machine state").memory,
        reference.1
    );
    let (restored, _) = client.restore(blob).expect("restore");
    let (done, stats) = client.run(restored, None).expect("restored run");
    assert!(done, "restored-at-completion session is already done");
    assert_eq!(stats, reference.0);

    assert_eq!(
        client.close(session).expect("close"),
        reference.0.blocks_executed
    );
    client.close(restored).expect("close restored");
    client.shutdown_server().expect("shutdown");
    handle.wait();
}

/// Corrupt snapshot blobs are rejected by checksum before anything is
/// parsed — over the wire, not just in unit tests.
#[test]
fn tcp_restore_rejects_corrupt_blobs() {
    let handle = serve("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let (session, _) = client
        .open(SessionConfig::exec(WorkloadName::Compress, Scale::Smoke))
        .expect("open");
    let mut blob = client.snapshot(session).expect("snapshot");
    let mid = blob.len() / 2;
    blob[mid] ^= 0xFF;
    let err = client.restore(blob).expect_err("corrupt blob must fail");
    assert!(
        err.to_string().contains("checksum"),
        "unexpected error: {err}"
    );
    client.shutdown_server().expect("shutdown");
    handle.wait();
}

/// A resealed snapshot whose fragment block count is inflated to
/// `u32::MAX` — the FNV seal is a checksum anyone can recompute — is
/// answered with an error, and the same server keeps serving.
/// One TCP connection to a fresh server; `call` sends a request and
/// waits for its response.
struct Wire {
    stream: std::net::TcpStream,
    _handle: hotpath::serve::ServerHandle,
}

impl Wire {
    fn connect() -> Wire {
        let handle = serve("127.0.0.1:0", ServeConfig::default()).expect("bind");
        let stream = std::net::TcpStream::connect(handle.addr()).expect("connect");
        Wire {
            stream,
            _handle: handle,
        }
    }

    fn call(&mut self, request: Request) -> Response {
        use hotpath::serve::{read_frame, write_frame};
        write_frame(&mut self.stream, &request.encode()).expect("send");
        let payload = read_frame(&mut self.stream).expect("read").expect("reply");
        Response::decode(&payload).expect("decode")
    }
}

#[test]
fn tcp_restore_rejects_inflated_counts_and_stays_up() {
    use hotpath::dynamo::{EngineWarmState, FragmentRecord};
    use hotpath::ir::fasthash::fnv1a64;

    let mut blob = SessionSnapshot {
        config: SessionConfig::ingest(),
        warm: EngineWarmState {
            fragments: vec![FragmentRecord {
                blocks: vec![1],
                insts: 1,
            }],
            ..EngineWarmState::default()
        },
        vm: None,
        profile: None,
    }
    .encode();
    // Header (8 bytes) and config (20), then the fragment count and the
    // first fragment's insts: its block count follows.
    let count_at = 8 + 20 + 4 + 4;
    assert_eq!(&blob[count_at..count_at + 4], &1u32.to_le_bytes());
    blob[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    let len = blob.len();
    let seal = fnv1a64(&blob[..len - 8]);
    blob[len - 8..].copy_from_slice(&seal.to_le_bytes());

    let mut wire = Wire::connect();
    match wire.call(Request::Restore { blob }) {
        Response::Error { message } => assert!(
            message.contains("fragment block"),
            "unexpected error: {message}"
        ),
        other => panic!("inflated restore must fail, got {other:?}"),
    }
    match wire.call(Request::Stats) {
        Response::ServerStats(stats) => assert_eq!(stats.live_sessions, 0),
        other => panic!("server must keep serving, got {other:?}"),
    }
}

/// Ingest sessions index dense per-block tables by the client's block
/// ids, so a batch naming a huge id is refused whole instead of sizing
/// those tables by it, and the connection keeps serving.
#[test]
fn tcp_ingest_rejects_out_of_range_blocks_and_stays_up() {
    use hotpath::ir::BlockId;
    use hotpath::vm::TransferKind;

    let mut wire = Wire::connect();
    let Response::Opened { session, .. } = wire.call(Request::Open {
        config: SessionConfig::ingest(),
    }) else {
        panic!("ingest open failed")
    };
    let into_huge = BlockEvent {
        from: Some(BlockId::new(1)),
        block: BlockId::new(0x7FFF_FFF0),
        kind: TransferKind::Jump,
        backward: true,
        block_size: 1,
    };
    match wire.call(Request::Ingest {
        session,
        events: vec![into_huge; 4],
    }) {
        Response::Error { message } => assert!(
            message.contains("ingest space"),
            "unexpected error: {message}"
        ),
        other => panic!("out-of-range ingest must fail, got {other:?}"),
    }
    match wire.call(Request::Stats) {
        Response::ServerStats(stats) => assert_eq!(stats.live_sessions, 1),
        other => panic!("server must keep serving, got {other:?}"),
    }
}

/// The same bound holds for warm state restored into an ingest session:
/// a sealed snapshot whose exit-stub target lies outside the ingest
/// block space is refused, and the server keeps serving.
#[test]
fn tcp_restore_rejects_out_of_range_ingest_warm_state() {
    use hotpath::dynamo::EngineWarmState;

    let blob = SessionSnapshot {
        config: SessionConfig::ingest(),
        warm: EngineWarmState {
            exit_counts: vec![(0xFFFF_FFF0, 1)],
            ..EngineWarmState::default()
        },
        vm: None,
        profile: None,
    }
    .encode();
    let mut wire = Wire::connect();
    match wire.call(Request::Restore { blob }) {
        Response::Error { message } => assert!(
            message.contains("exit-stub target"),
            "unexpected error: {message}"
        ),
        other => panic!("out-of-range restore must fail, got {other:?}"),
    }
    match wire.call(Request::Stats) {
        Response::ServerStats(stats) => assert_eq!(stats.live_sessions, 0),
        other => panic!("server must keep serving, got {other:?}"),
    }
}

#[cfg(feature = "telemetry")]
mod telemetry_events {
    use super::*;
    use hotpath::telemetry::{self, SummaryRecorder};

    /// Session lifecycle and snapshot traffic surface as telemetry on
    /// the requesting thread.
    #[test]
    fn serving_emits_session_and_snapshot_events() {
        let (recorder, handle) = SummaryRecorder::new();
        let guard = telemetry::install(Box::new(recorder));
        let manager = SessionManager::new(ServeConfig::default());
        let session = open(
            &manager,
            SessionConfig::exec(WorkloadName::Compress, Scale::Smoke),
        );
        manager.request(Request::Run {
            session,
            fuel: Some(500),
        });
        let Response::SnapshotBlob { blob } = manager.request(Request::Snapshot { session }) else {
            panic!("snapshot failed")
        };
        let Response::Opened {
            session: restored, ..
        } = manager.request(Request::Restore { blob })
        else {
            panic!("restore failed")
        };
        manager.request(Request::Close { session });
        manager.request(Request::Close { session: restored });
        drop(manager);
        drop(guard);
        let summary = handle.snapshot();
        for (kind, at_least) in [
            ("session_opened", 2), // fresh open + restore
            ("snapshot_saved", 1),
            ("snapshot_restored", 1),
            ("session_closed", 2),
        ] {
            assert!(
                summary.count(kind) >= at_least,
                "expected {at_least}+ {kind}, saw {}",
                summary.count(kind)
            );
        }
    }
}
