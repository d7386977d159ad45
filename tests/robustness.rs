//! Robustness: every injectable fault must be *absorbed* — the run
//! recovers and finishes with bit-identical observable state (RunStats,
//! data memory, globals) to plain interpretation, because every fault
//! models a legal degradation (a trace missing, a cache flushed, a
//! compiled excursion denied), never a semantic change.
//!
//! Guards here:
//!
//! 1. **Per-fault-point recovery.** Each [`FaultPoint`] the VM hooks is
//!    driven by a seeded plan and proven to (a) actually fire and (b)
//!    leave the final state bit-identical.
//! 2. **Panic isolation.** An injected trace panic poisons the fragment
//!    (blacklisted across flushes) and the run continues interpreted.
//! 3. **Bail-out and ladder sweeps.** All nine workloads stay
//!    bit-identical under a hair-trigger bail-out and under the staged
//!    degradation ladder.
//! 4. **Re-promotion.** A phase-shift workload demonstrably walks the
//!    ladder down during cache churn and back up after the phase change
//!    (telemetry-gated).
//! 5. **Serve-layer faults.** The wire-fault matrix (torn writes,
//!    resets, corrupt frames, stalls, delayed reads) on both TCP
//!    front-ends, shard-panic supervision with snapshot re-admission,
//!    the client's bounded retry budget, the configurable drain
//!    deadline, and the whole suite at once under `FaultPlan::chaos`
//!    (an ignored test sweeps more seeds).

use hotpath::dynamo::{
    BailoutPolicy, DegradeConfig, DynamoConfig, LadderMode, LinkedEngine, Scheme,
};
use hotpath::ir::builder::{FunctionBuilder, ProgramBuilder};
use hotpath::ir::{CmpOp, Program};
use hotpath::vm::{
    FaultInjector, FaultPlan, FaultPoint, NullObserver, RunStats, ScriptedController, TraceCommand,
    TraceController, Vm,
};
use hotpath::workloads::{suite, Scale};

/// Block ids, in build order: 0 = implicit entry, then `new_block` order:
/// header=1, body=2, odd=3, even=4, latch=5, exit=6.
fn two_path_loop(trip: i64) -> Program {
    let mut fb = FunctionBuilder::new("main");
    let i = fb.reg();
    let header = fb.new_block();
    let body = fb.new_block();
    let odd = fb.new_block();
    let even = fb.new_block();
    let latch = fb.new_block();
    let exit = fb.new_block();
    fb.const_(i, 0);
    fb.jump(header);
    fb.switch_to(header);
    let c = fb.cmp_imm(CmpOp::Lt, i, trip);
    fb.branch(c, body, exit);
    fb.switch_to(body);
    let par = fb.reg();
    fb.and_imm(par, i, 1);
    fb.branch(par, odd, even);
    fb.switch_to(odd);
    fb.jump(latch);
    fb.switch_to(even);
    fb.jump(latch);
    fb.switch_to(latch);
    fb.add_imm(i, i, 1);
    fb.jump(header);
    fb.switch_to(exit);
    fb.halt();
    let mut pb = ProgramBuilder::new();
    pb.add_function(fb).unwrap();
    pb.finish().unwrap()
}

/// Runs `program` plain, then linked under `engine` with `plan` armed;
/// asserts bit-identical final state and returns the faulted VM (its
/// injector counters tell the caller what fired) plus the shared stats.
fn assert_faulted_identical<C: TraceController>(
    program: &Program,
    plan: FaultPlan,
    engine: &mut C,
    tag: &str,
) -> (Vm, RunStats) {
    let mut plain_vm = Vm::new(program);
    let plain = plain_vm.run(&mut NullObserver).unwrap();

    let mut linked_vm = Vm::new(program).with_faults(FaultInjector::new(plan));
    let linked = linked_vm.run_linked(engine).unwrap();

    assert_eq!(plain, linked, "{tag}: RunStats");
    assert_eq!(plain_vm.memory(), linked_vm.memory(), "{tag}: final memory");
    assert_eq!(plain_vm.globals(), linked_vm.globals(), "{tag}: globals");
    (linked_vm, linked)
}

#[test]
fn spurious_guard_failures_recover_bit_identically() {
    let p = two_path_loop(5_000);
    let plan = FaultPlan::new(11).with(FaultPoint::GuardFail, 0.05);
    let mut ctl = ScriptedController::new(vec![TraceCommand::Install(vec![1, 2, 4, 5])]);
    let (vm, _) = assert_faulted_identical(&p, plan, &mut ctl, "guard_fail");
    assert!(
        vm.faults().injected(FaultPoint::GuardFail) > 0,
        "the plan must actually fire"
    );
    // Spurious failures end excursions early but never corrupt them:
    // every excursion still accounted its blocks.
    assert!(!ctl.excursions.is_empty());
}

#[test]
fn forced_cache_flushes_recover_bit_identically() {
    let p = two_path_loop(5_000);
    let plan = FaultPlan::new(12).with(FaultPoint::Flush, 0.005);
    // A scripted single trace: after the injected flush evicts it the
    // rest of the run stays interpreted, so the dispatch loop (where the
    // fault point lives) keeps iterating and the plan keeps drawing.
    let mut ctl = ScriptedController::new(vec![TraceCommand::Install(vec![1, 2, 4, 5])]);
    let (vm, _) = assert_faulted_identical(&p, plan, &mut ctl, "flush");
    assert!(vm.faults().injected(FaultPoint::Flush) > 0);
}

#[test]
fn fuel_starvation_denials_recover_bit_identically() {
    let p = two_path_loop(5_000);
    let plan = FaultPlan::new(13).with(FaultPoint::FuelStarve, 0.2);
    let mut ctl = ScriptedController::new(vec![TraceCommand::Install(vec![1, 2, 4, 5])]);
    let (vm, stats) = assert_faulted_identical(&p, plan, &mut ctl, "fuel_starve");
    let denied = vm.faults().injected(FaultPoint::FuelStarve);
    assert!(denied > 0, "starvation must actually deny dispatches");
    // Denied entries fall back to interpretation: the block ledger still
    // balances between excursions and interpreted blocks.
    let trace_blocks: u64 = ctl.excursions.iter().map(|e| e.blocks).sum();
    assert_eq!(trace_blocks + ctl.interpreted, stats.blocks_executed);
}

#[test]
fn fragment_install_rejections_recover_bit_identically() {
    let p = two_path_loop(5_000);
    let plan = FaultPlan::new(14).with(FaultPoint::InstallReject, 0.9);
    let mut engine = LinkedEngine::new(DynamoConfig::new(Scheme::Net, 5));
    let (vm, _) = assert_faulted_identical(&p, plan, &mut engine, "install_reject");
    assert!(
        vm.faults().injected(FaultPoint::InstallReject) > 0,
        "rejections must actually drop installs"
    );
}

#[test]
fn injected_trace_panic_poisons_the_fragment_and_recovers() {
    let p = two_path_loop(2_000);
    let plan = FaultPlan::new(15).with(FaultPoint::TracePanic, 1.0);
    let mut ctl = ScriptedController::new(vec![
        TraceCommand::Install(vec![1, 2, 4, 5]),
        TraceCommand::Install(vec![3, 5]),
    ]);
    // The unwind is caught by the VM; silence the default hook's stderr
    // backtrace for the injected panic.
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        assert_faulted_identical(&p, plan, &mut ctl, "trace_panic")
    }));
    std::panic::set_hook(prev);
    let (vm, _) = result.expect("the VM absorbs the injected panic");
    assert!(vm.faults().injected(FaultPoint::TracePanic) >= 1);
    // The panicking excursion never completes: no excursion events, and
    // the poisoned head is blacklisted so execution stays interpreted.
    assert!(
        ctl.excursions.is_empty(),
        "panicked excursions must not surface: {:?}",
        ctl.excursions.len()
    );
}

#[test]
fn all_faults_together_recover_across_both_schemes() {
    let p = two_path_loop(4_000);
    for (seed, scheme) in [(21, Scheme::Net), (22, Scheme::PathProfile)] {
        let plan = FaultPlan::uniform(seed, 0.02);
        let mut engine = LinkedEngine::new(DynamoConfig::new(scheme, 5));
        let (vm, _) = assert_faulted_identical(&p, plan, &mut engine, &format!("uniform/{scheme}"));
        assert!(vm.faults().total_injected() > 0);
    }
}

#[test]
fn hair_trigger_bailout_is_bit_identical_across_the_suite() {
    for w in suite(Scale::Small) {
        let mut cfg = DynamoConfig::new(Scheme::Net, 10);
        cfg.bailout = Some(BailoutPolicy {
            check_every_paths: 1,
            max_installs: 0,
        });
        let mut engine = LinkedEngine::new(cfg);
        let tag = format!("{:?}/bailout", w.name);

        let mut plain_vm = Vm::new(&w.program);
        let plain = plain_vm.run(&mut NullObserver).unwrap();
        let mut linked_vm = Vm::new(&w.program);
        let linked = linked_vm.run_linked(&mut engine).unwrap();

        assert_eq!(plain, linked, "{tag}: RunStats");
        assert_eq!(plain_vm.memory(), linked_vm.memory(), "{tag}: memory");
        assert_eq!(plain_vm.globals(), linked_vm.globals(), "{tag}: globals");
        assert!(
            engine.bailed_out(),
            "{tag}: the first install must trip the hair trigger"
        );
    }
}

#[test]
fn degradation_ladder_is_bit_identical_across_the_suite() {
    for w in suite(Scale::Small) {
        let mut cfg = DynamoConfig::new(Scheme::Net, 10);
        // Aggressive ladder: a single flush in a window degrades.
        cfg.max_fragments = 4;
        cfg.degrade = Some(DegradeConfig {
            window_events: 2_000,
            max_flushes_per_window: 0,
            ..DegradeConfig::default()
        });
        let mut engine = LinkedEngine::new(cfg);
        let tag = format!("{:?}/ladder", w.name);

        let mut plain_vm = Vm::new(&w.program);
        let plain = plain_vm.run(&mut NullObserver).unwrap();
        let mut linked_vm = Vm::new(&w.program);
        let linked = linked_vm.run_linked(&mut engine).unwrap();

        assert_eq!(plain, linked, "{tag}: RunStats");
        assert_eq!(plain_vm.memory(), linked_vm.memory(), "{tag}: memory");
        assert_eq!(plain_vm.globals(), linked_vm.globals(), "{tag}: globals");
    }
}

/// Two phases. The storm phase rotates a 3-way switch (`i % 3`), so any
/// single trace — even with a linked tail — always has an uncovered
/// successor that exits back to the dispatch loop; against a 1-fragment
/// cache that keeps the install/capacity-flush storm (and the watchdog's
/// event clock) running. The hot phase is a straight 2-block loop that
/// caches as one healthy fragment. Block ids: entry=0, then h1=1,
/// body=2, c0=3, c1=4, c2=5, latch=6, h2=7, b2a=8, b2b=9, exit=10.
fn phase_shift_program(storm_trips: i64, hot_trips: i64) -> Program {
    let mut fb = FunctionBuilder::new("main");
    let i = fb.reg();
    let acc = fb.reg();
    let h1 = fb.new_block();
    let body = fb.new_block();
    let c0 = fb.new_block();
    let c1 = fb.new_block();
    let c2 = fb.new_block();
    let latch = fb.new_block();
    let h2 = fb.new_block();
    let b2a = fb.new_block();
    let b2b = fb.new_block();
    let exit = fb.new_block();
    fb.const_(i, 0);
    fb.const_(acc, 0);
    fb.jump(h1);
    fb.switch_to(h1);
    let c = fb.cmp_imm(CmpOp::Lt, i, storm_trips);
    fb.branch(c, body, h2);
    fb.switch_to(body);
    let m = fb.reg();
    fb.rem_imm(m, i, 3);
    fb.switch(m, vec![c0, c1], c2);
    fb.switch_to(c0);
    fb.add_imm(acc, acc, 1);
    fb.jump(latch);
    fb.switch_to(c1);
    fb.add_imm(acc, acc, 2);
    fb.jump(latch);
    fb.switch_to(c2);
    fb.add_imm(acc, acc, 3);
    fb.jump(latch);
    fb.switch_to(latch);
    fb.add_imm(i, i, 1);
    fb.jump(h1);
    fb.switch_to(h2);
    fb.const_(i, 0);
    fb.jump(b2a);
    fb.switch_to(b2a);
    let c2b = fb.cmp_imm(CmpOp::Lt, i, hot_trips);
    fb.branch(c2b, b2b, exit);
    fb.switch_to(b2b);
    fb.add_imm(i, i, 1);
    fb.add_imm(acc, acc, 1);
    fb.jump(b2a);
    fb.switch_to(exit);
    fb.halt();
    let mut pb = ProgramBuilder::new();
    pb.add_function(fb).unwrap();
    pb.finish().unwrap()
}

/// The ladder configuration the phase-shift tests run: tiny cache so the
/// alternating phase storms it with capacity flushes, small windows so
/// the ladder reacts within the run.
fn phase_shift_config() -> DynamoConfig {
    let mut cfg = DynamoConfig::new(Scheme::Net, 5);
    cfg.max_fragments = 1;
    cfg.degrade = Some(DegradeConfig {
        window_events: 400,
        max_flushes_per_window: 1,
        cooldown_windows: 2,
        ..DegradeConfig::default()
    });
    cfg
}

#[test]
fn phase_shift_walks_the_ladder_and_stays_bit_identical() {
    let p = phase_shift_program(8_000, 8_000);
    let mut engine = LinkedEngine::new(phase_shift_config());

    let mut plain_vm = Vm::new(&p);
    let plain = plain_vm.run(&mut NullObserver).unwrap();
    let mut linked_vm = Vm::new(&p);
    let linked = linked_vm.run_linked(&mut engine).unwrap();

    assert_eq!(plain, linked, "phase-shift: RunStats");
    assert_eq!(plain_vm.memory(), linked_vm.memory(), "phase-shift: memory");
    assert_eq!(
        plain_vm.globals(),
        linked_vm.globals(),
        "phase-shift: globals"
    );
    // The hot phase ends the run healthy: the engine climbed back off
    // the ladder's bottom rung.
    assert_ne!(
        engine.mode(),
        LadderMode::InterpOnly,
        "the clean second phase must re-promote the engine"
    );
}

/// Serve-layer fault model (DESIGN.md §15): the same absorb-and-recover
/// discipline extended over the wire and across shard workers. Every
/// injected wire fault either stays transparent to the client or
/// surfaces as a fast transport/decode error the retry engine absorbs;
/// injected shard panics are caught by the supervisor and the shard's
/// sessions re-admitted from their last sealed snapshots. In all cases
/// the session's final statistics stay bit-identical to a plain run.
mod serve_faults {
    use super::*;
    use hotpath::serve::{
        read_frame, serve, write_frame, Client, ClientError, Request, Response, RetryPolicy,
        ServeConfig, SessionConfig, SessionManager,
    };
    use hotpath::workloads::{build, WorkloadName, ALL_WORKLOADS};
    use std::time::{Duration, Instant};

    fn reference(scale: Scale) -> RunStats {
        let program = build(ALL_WORKLOADS[0], scale).program;
        Vm::new(&program).run(&mut NullObserver).unwrap()
    }

    /// Silences the default panic hook for injected shard panics only
    /// (the supervisor catches them; their backtraces are noise).
    fn hush_injected_panics() {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.contains("injected shard panic"));
            if !injected {
                default_hook(info);
            }
        }));
    }

    /// Drives the reference workload over TCP with a retrying client;
    /// returns final stats plus the client's retry/reconnect counters.
    fn drive_tcp(addr: std::net::SocketAddr, seed: u64) -> (RunStats, u64, u64) {
        let mut client =
            Client::connect_with(addr, RetryPolicy::default().with_seed(seed)).expect("connect");
        let (session, _) = client
            .open(SessionConfig::exec(ALL_WORKLOADS[0], Scale::Smoke))
            .expect("open");
        let stats = loop {
            match client.run(session, Some(512)) {
                Ok((true, stats)) => break stats,
                Ok((false, _)) => {}
                Err(e) => panic!("run under wire faults failed: {e}"),
            }
        };
        client.close(session).expect("close");
        (stats, client.retries(), client.reconnects())
    }

    /// The wire-fault matrix: every wire fault class, on the TCP
    /// front-end, at a rate that guarantees it fires many times over
    /// the run. Disruptive classes (resets, corrupt frames) must
    /// visibly cost retries or reconnects; transparent ones (torn
    /// writes, stalls, delayed reads) must not break anything either
    /// way. All must end bit-identical.
    #[test]
    fn wire_fault_matrix_is_bit_identical() {
        let expect = reference(Scale::Smoke);
        hush_injected_panics();
        let matrix = [
            (FaultPoint::WireTornWrite, 1.0, false),
            (FaultPoint::WireReset, 0.2, true),
            (FaultPoint::WireCorruptLen, 0.2, true),
            (FaultPoint::WireCorruptPayload, 0.2, true),
            (FaultPoint::WireStall, 1.0, false),
            (FaultPoint::WireDelayRead, 1.0, false),
        ];
        for (point, rate, disruptive) in matrix {
            let plan = FaultPlan::new(0xC4A05).with(point, rate);
            let config = ServeConfig {
                shards: 1,
                chaos: Some(plan),
                ..ServeConfig::default()
            };
            let mut handle = serve("127.0.0.1:0", config).expect("bind");
            let (stats, retries, reconnects) = drive_tcp(handle.addr(), 0xD21 ^ rate as u64);
            assert_eq!(stats, expect, "{point:?}: stats diverged");
            if disruptive {
                assert!(
                    retries + reconnects > 0,
                    "{point:?}: the fault never visibly bit"
                );
            }
            handle.stop();
        }
    }

    /// Shard supervision: a worker that keeps panicking mid-run is
    /// restarted each time, and its live session is re-admitted from
    /// its last sealed snapshot — the run completes with statistics
    /// bit-identical to a run never interrupted.
    #[test]
    fn shard_panics_readmit_the_session_bit_identically() {
        let expect = reference(Scale::Smoke);
        hush_injected_panics();
        let plan = FaultPlan::new(0x9A71C).with(FaultPoint::ShardPanic, 0.05);
        let manager = SessionManager::new(ServeConfig {
            shards: 1,
            chaos: Some(plan),
            ..ServeConfig::default()
        });
        let session = match manager.request(Request::Open {
            config: SessionConfig::exec(ALL_WORKLOADS[0], Scale::Smoke),
        }) {
            Response::Opened { session, .. } => session,
            other => panic!("open failed: {other:?}"),
        };
        let stats = loop {
            match manager.request(Request::Run {
                session,
                fuel: Some(256),
            }) {
                Response::Ran { done: true, stats } => break stats,
                Response::Ran { done: false, .. } => {}
                // A panicked slice answers Busy while the supervisor
                // restarts the worker; re-running the slice is safe.
                Response::Busy => std::thread::sleep(Duration::from_millis(1)),
                other => panic!("run failed: {other:?}"),
            }
        };
        assert_eq!(stats, expect, "re-admitted session diverged");
        let server = match manager.request(Request::Stats) {
            Response::ServerStats(stats) => stats,
            other => panic!("stats failed: {other:?}"),
        };
        assert!(
            server.shards_restarted >= 1,
            "the panic plan never fired; raise the rate or change the seed"
        );
        assert!(
            server.sessions_readmitted >= 1,
            "the surviving session must be re-admitted after each restart"
        );
        manager.request(Request::Close { session });
    }

    /// A persistently-Busy shard must exhaust the client's attempt
    /// budget into a typed error, not retry forever (the seed's client
    /// looped indefinitely here).
    #[test]
    fn persistent_busy_exhausts_the_attempt_budget() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        // A protocol-speaking peer that answers every request Busy.
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut reader = std::io::BufReader::new(stream.try_clone().expect("clone"));
            let mut writer = std::io::BufWriter::new(stream);
            while let Ok(Some(_)) = read_frame(&mut reader) {
                write_frame(&mut writer, &Response::Busy.encode()).expect("reply");
            }
        });
        let policy = RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_micros(100),
            max_backoff: Duration::from_millis(1),
            deadline: None,
            seed: 7,
        };
        let mut client = Client::connect_with(addr, policy).expect("connect");
        match client.open(SessionConfig::exec(ALL_WORKLOADS[0], Scale::Smoke)) {
            Err(ClientError::Exhausted { attempts, last }) => {
                assert_eq!(attempts, 4);
                assert!(
                    last.contains("Busy"),
                    "last error records the cause: {last}"
                );
            }
            other => panic!("expected Exhausted, got {other:?}"),
        }
        drop(client);
        server.join().expect("stub server");
    }

    /// `ServeConfig::drain_deadline_ms` bounds how long an idle
    /// connection can stall a drain (the seed hardcoded 5 s).
    #[test]
    fn drain_deadline_is_configurable() {
        assert_eq!(ServeConfig::default().drain_deadline_ms, 5_000);
        let config = ServeConfig {
            shards: 1,
            drain_deadline_ms: 50,
            ..ServeConfig::default()
        };
        let mut handle = serve("127.0.0.1:0", config).expect("bind");
        // An idle connection (no request in flight) holds the front open
        // until the drain deadline expires.
        let _idle = Client::connect(handle.addr()).expect("connect");
        let start = Instant::now();
        handle.stop();
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "drain took {:?}, the 50 ms deadline was not honored",
            start.elapsed()
        );
    }

    /// What one chaos driver saw of its session.
    struct ChaosDriver {
        stats: RunStats,
        quarantined: bool,
        retries: u64,
        reconnects: u64,
    }

    /// Drives `name` to completion in 256-block slices against a
    /// chaos-armed server with a retrying client, publishes its warm
    /// state and closes the session.
    fn chaos_drive(addr: std::net::SocketAddr, name: WorkloadName, seed: u64) -> ChaosDriver {
        let policy = RetryPolicy::default().with_seed(seed);
        let mut client =
            Client::connect_with(addr, policy).unwrap_or_else(|e| panic!("{name}: connect: {e}"));
        let (session, _) = client
            .open(SessionConfig::exec(name, Scale::Smoke))
            .unwrap_or_else(|e| panic!("{name}: open under chaos: {e}"));
        let stats = loop {
            match client.run(session, Some(256)) {
                Ok((true, stats)) => break stats,
                Ok((false, _)) => {}
                // An exhausted attempt budget is safe to retry as a fresh
                // call: re-running a slice only advances the session, and
                // `Run` on a finished session re-reports its statistics.
                Err(ClientError::Exhausted { .. }) => {}
                Err(e) => panic!("{name}: run under chaos failed: {e}"),
            }
        };
        let (_, _, _, quarantined) = client
            .publish_profile(session)
            .unwrap_or_else(|e| panic!("{name}: publish under chaos: {e}"));
        client
            .close(session)
            .unwrap_or_else(|e| panic!("{name}: close under chaos: {e}"));
        ChaosDriver {
            stats,
            quarantined,
            retries: client.retries(),
            reconnects: client.reconnects(),
        }
    }

    /// One chaos pass: all nine workloads concurrently over TCP against
    /// a four-shard server with every serve fault seam armed at `rate`
    /// (torn writes, resets, corrupt frames, stalls, shard panics,
    /// poisoned publishes). Every session must end bit-identical to
    /// plain interpretation, the session table must return to its size
    /// before the pass, re-sent opens must dedup through the replay
    /// cache (exactly nine opens), the quarantine bucket must hold
    /// exactly the publishes clients saw quarantined, and the pass must
    /// visibly absorb at least one fault.
    fn chaos_pass(seed: u64, rate: f64) {
        let reference: Vec<RunStats> = ALL_WORKLOADS
            .iter()
            .map(|&name| {
                let program = build(name, Scale::Smoke).program;
                Vm::new(&program).run(&mut NullObserver).unwrap()
            })
            .collect();
        let config = ServeConfig {
            shards: 4,
            chaos: Some(FaultPlan::chaos(seed, rate)),
            ..ServeConfig::default()
        };
        let mut handle = serve("127.0.0.1:0", config).expect("bind chaos server");
        let addr = handle.addr();
        let mut control =
            Client::connect_with(addr, RetryPolicy::default().with_seed(seed ^ 0xC0C0))
                .expect("control connect");
        let before = control.stats().expect("stats before");
        let drivers: Vec<_> = ALL_WORKLOADS
            .iter()
            .enumerate()
            .map(|(i, &name)| {
                let seed = seed ^ (i as u64 + 1);
                std::thread::spawn(move || chaos_drive(addr, name, seed))
            })
            .collect();
        let results: Vec<ChaosDriver> = drivers
            .into_iter()
            .map(|d| d.join().expect("chaos driver"))
            .collect();
        for ((result, expect), name) in results.iter().zip(&reference).zip(ALL_WORKLOADS) {
            assert_eq!(
                &result.stats, expect,
                "seed {seed}: {name} diverged under chaos"
            );
        }
        let after = control.stats().expect("stats after");
        assert_eq!(
            after.live_sessions, before.live_sessions,
            "seed {seed}: session leak under chaos"
        );
        assert_eq!(
            after.sessions_opened - before.sessions_opened,
            ALL_WORKLOADS.len() as u64,
            "seed {seed}: open count drifted under chaos (re-sent opens must dedup)"
        );
        let quarantined_seen = results.iter().filter(|r| r.quarantined).count() as u64;
        assert_eq!(
            after.profiles_quarantined, quarantined_seen,
            "seed {seed}: quarantine bucket disagrees with the publishes clients saw quarantined"
        );
        let absorbed = results
            .iter()
            .map(|r| r.retries + r.reconnects)
            .sum::<u64>()
            + control.retries()
            + control.reconnects()
            + (after.shards_restarted - before.shards_restarted)
            + after.profiles_quarantined;
        assert!(
            absorbed >= 1,
            "seed {seed}: the chaos pass absorbed no injected fault"
        );
        drop(control);
        handle.stop();
    }

    /// Two directed chaos passes for what the probabilistic pass cannot
    /// guarantee to hit: opens whose replies are lost must dedup through
    /// the replay cache, and `PublishPoison` at rate 1.0 must quarantine
    /// exactly one publish.
    fn chaos_directed(seed: u64) {
        // Directed replay coverage: with 30% of responses torn off
        // mid-frame after the server executed the request, some of
        // sixteen opens lose their reply, and each re-sent open must land
        // on the replay cache instead of opening a second session.
        let mut handle = serve(
            "127.0.0.1:0",
            ServeConfig {
                shards: 1,
                chaos: Some(FaultPlan::new(seed).with(FaultPoint::WireReset, 0.3)),
                ..ServeConfig::default()
            },
        )
        .expect("bind replay server");
        let mut client =
            Client::connect_with(handle.addr(), RetryPolicy::default().with_seed(seed))
                .expect("connect");
        let opens = 16;
        for _ in 0..opens {
            client
                .open(SessionConfig::exec(ALL_WORKLOADS[0], Scale::Smoke))
                .expect("open under resets");
        }
        assert!(
            client.reconnects() >= 1,
            "seed {seed}: no open lost its reply; the replay pass proved nothing"
        );
        assert_eq!(
            client.stats().expect("stats").sessions_opened,
            opens,
            "seed {seed}: re-sent opens must dedup through the replay cache"
        );
        drop(client);
        handle.stop();

        let manager = SessionManager::new(ServeConfig {
            shards: 1,
            chaos: Some(FaultPlan::new(seed).with(FaultPoint::PublishPoison, 1.0)),
            ..ServeConfig::default()
        });
        let session = match manager.request(Request::Open {
            config: SessionConfig::exec(ALL_WORKLOADS[0], Scale::Smoke),
        }) {
            Response::Opened { session, .. } => session,
            other => panic!("open failed: {other:?}"),
        };
        assert!(matches!(
            manager.request(Request::Run {
                session,
                fuel: None
            }),
            Response::Ran { done: true, .. }
        ));
        match manager.request(Request::PublishProfile { session }) {
            Response::ProfilePublished { quarantined, .. } => assert!(
                quarantined,
                "PublishPoison at rate 1.0 must quarantine the publish"
            ),
            other => panic!("poison publish failed: {other:?}"),
        }
        match manager.request(Request::Stats) {
            Response::ServerStats(stats) => assert_eq!(
                stats.profiles_quarantined, 1,
                "the quarantine bucket must hold the poisoned publish"
            ),
            other => panic!("stats failed: {other:?}"),
        }
        manager.request(Request::Close { session });
    }

    #[test]
    fn suite_under_chaos_is_bit_identical_with_no_leaks() {
        hush_injected_panics();
        chaos_pass(42, 0.05);
    }

    #[test]
    fn directed_chaos_dedups_lost_opens_and_quarantines_poison() {
        chaos_directed(42);
    }

    /// The long sweep: twenty seeds at the default rate plus one at a
    /// higher rate. Run with `cargo test --release -p hotpath --test
    /// robustness -- --ignored`.
    #[test]
    #[ignore = "seed sweep, about 20 s in release"]
    fn chaos_seed_sweep() {
        hush_injected_panics();
        for seed in 1..=20 {
            chaos_pass(seed, 0.05);
            chaos_directed(seed);
        }
        chaos_pass(99, 0.15);
    }
}

#[cfg(feature = "telemetry")]
mod recorded {
    use super::*;
    use hotpath::telemetry::{self, SummaryRecorder};

    #[test]
    fn phase_shift_emits_degrade_then_repromote() {
        let p = phase_shift_program(8_000, 8_000);
        let (recorder, handle) = SummaryRecorder::new();
        let guard = telemetry::install(Box::new(recorder));
        let mut engine = LinkedEngine::new(phase_shift_config());
        let stats = Vm::new(&p).run_linked(&mut engine).unwrap();
        drop(guard);
        let expect = Vm::new(&p).run(&mut NullObserver).unwrap();
        assert_eq!(stats, expect);

        let summary = handle.snapshot();
        let detail = format!(
            "degraded={} repromoted={} flushes={} installs={} enters={} mode={:?}",
            summary.count("mode_degraded"),
            summary.count("mode_repromoted"),
            summary.count("cache_flush"),
            summary.count("fragment_install"),
            summary.count("trace_enter"),
            engine.mode(),
        );
        assert!(
            summary.count("mode_degraded") >= 1,
            "the storm phase must step the ladder down ({detail})"
        );
        assert!(
            summary.count("mode_repromoted") >= 1,
            "the hot phase must step the ladder back up ({detail})"
        );
    }

    #[test]
    fn injected_panic_emits_poison_telemetry() {
        let p = two_path_loop(2_000);
        let plan = FaultPlan::new(15).with(FaultPoint::TracePanic, 1.0);
        let (recorder, handle) = SummaryRecorder::new();
        let guard = telemetry::install(Box::new(recorder));
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let mut ctl = ScriptedController::new(vec![TraceCommand::Install(vec![1, 2, 4, 5])]);
        let result = Vm::new(&p)
            .with_faults(FaultInjector::new(plan))
            .run_linked(&mut ctl);
        std::panic::set_hook(prev);
        drop(guard);
        assert!(result.is_ok());
        let summary = handle.snapshot();
        assert!(summary.count("fragment_poisoned") >= 1);
        assert!(summary.count("fault_injected") >= 1);
    }
}
