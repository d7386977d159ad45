//! `loadgen` — deterministic load generation for the serving layer.
//!
//! Drives N concurrent sessions (workloads drawn deterministically from
//! the nine-benchmark suite by a seeded shuffle) against a
//! `hotpath-serve` pool and measures aggregate blocks/sec for three
//! modes:
//!
//! * `native` — the same workload instances run sequentially on the bare
//!   VM (the floor, and the normalizer every `bench_compare` throughput
//!   check divides by),
//! * `serve-single` — the same instances run sequentially through a
//!   1-shard session pool (per-session serving overhead),
//! * `serve-aggregate` — all N sessions concurrently across `--shards`
//!   shards, one driver thread per session (the multiplexed throughput
//!   the serving layer exists for).
//!
//! All three modes execute the identical block total, so their
//! blocks/sec are directly comparable and append to the same
//! `BENCH_perf.json` document `perf_baseline` writes, under one
//! labelled run.
//!
//! With `--addr HOST:PORT` the serve modes go over TCP to an already
//! running `serve` process (one connection per session) instead of an
//! in-process pool; `--shutdown` then stops that server afterwards.
//! `--snapshot-check` additionally proves the snapshot contract for
//! every session before measuring: save at the midpoint, restore into a
//! fresh session, finish, and require statistics bit-identical to the
//! uninterrupted plain run.
//!
//! `--sweep N1,N2,...` switches to scale-sweep mode: for each point N,
//! `--connections C` driver threads each multiplex ~N/C concurrent
//! sessions over a single connection (all sessions open before any
//! runs, `Run` fuel slices round-robin across them), and the point is
//! appended as its own run labelled `LABEL-nN` with `native` and
//! `serve-aggregate` modes plus `rss_max_bytes` from the server's
//! `Stats` reply. Every point asserts a zero session-table leak: the
//! server's live-session count must return to its pre-point value after
//! the closes.
//!
//! `--warm-start` switches to fleet warm-start measurement: for every
//! workload in the suite, one cold session runs to completion and
//! publishes its warm state into the server's profile store, then one
//! pre-warmed session (`SessionConfig::prewarm`) runs the identical
//! workload seeded from the aggregate. The mode records
//! blocks-to-first-trace for both (the pre-warmed number must be
//! strictly lower), asserts the pre-warmed run's final statistics are
//! bit-identical to the cold run's, and appends one run with `native`,
//! `serve-cold`, and `serve-prewarmed` modes plus a per-workload
//! `warm_start` section — the document `bench_compare --warmstart`
//! gates.
//!
//! `--chaos` switches to fault-injection mode: the full suite runs
//! against the TCP front-end with every serve fault seam armed at
//! `--chaos-rate` — torn/short writes, mid-frame resets, corrupted
//! length prefixes and payloads, stalled peers, shard panics, poisoned
//! publishes — plus one directed `PublishPoison` pass. Clients retry
//! with the real `RetryPolicy`; the mode asserts zero session leaks,
//! exact open counts (re-sent opens must dedup through the replay
//! cache), and final statistics bit-identical to the native reference
//! on every session, then appends one run with a `chaos` section — the
//! document `bench_compare --chaos` gates.
//!
//! `--console` redraws the self-profiler's stage table on stderr every
//! ~400ms during the default three-mode measurement (build with
//! `--features selfprof-alloc` to see allocation columns; a default build
//! shows an empty table). In a selfprof-alloc build the default flow also
//! appends an `alloc` section — serve-path bytes/allocations per block,
//! per stage — which `bench_compare --alloc` gates.
//!
//! Usage: `loadgen [--sessions N] [--shards N] [--scale smoke|small|full]
//! [--seed S] [--fuel N] [--label NAME] [--json PATH] [--addr HOST:PORT]
//! [--snapshot-check] [--shutdown] [--sweep N1,N2,...] [--connections C]
//! [--warm-start] [--chaos] [--chaos-rate R] [--console]`

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use std::time::Instant;

use hotpath_core::rng::Rng64;
use hotpath_selfprof as selfprof;
use hotpath_serve::{
    serve, Client, ClientError, FaultPlan, FaultPoint, PrewarmOutcome, Request, Response,
    RetryPolicy, ServeConfig, ServerHandle, ServerStats, SessionConfig, SessionManager,
    SessionSnapshot,
};
use hotpath_vm::{NullObserver, RunStats, Vm};
use hotpath_workloads::{build, Scale, WorkloadName, ALL_WORKLOADS};

/// The measured modes, in report order.
const MODES: [&str; 3] = ["native", "serve-single", "serve-aggregate"];

struct Args {
    sessions: u32,
    shards: u32,
    scale: Scale,
    seed: u64,
    fuel: Option<u64>,
    label: String,
    json: PathBuf,
    addr: Option<String>,
    snapshot_check: bool,
    shutdown: bool,
    sweep: Option<Vec<u32>>,
    connections: u32,
    warm_start: bool,
    chaos: bool,
    chaos_rate: f64,
    console: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        sessions: 4,
        shards: 4,
        scale: Scale::Small,
        seed: 42,
        fuel: None,
        label: "serve".to_string(),
        json: PathBuf::from("BENCH_perf.json"),
        addr: None,
        snapshot_check: false,
        shutdown: false,
        sweep: None,
        connections: 16,
        warm_start: false,
        chaos: false,
        chaos_rate: 0.05,
        console: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |flag: &str| it.next().unwrap_or_else(|| panic!("{flag} needs a value"));
        match a.as_str() {
            "--sessions" => {
                args.sessions = value("--sessions").parse().expect("--sessions: number");
                assert!(args.sessions > 0, "--sessions must be positive");
            }
            "--shards" => {
                args.shards = value("--shards").parse().expect("--shards: number");
                assert!(args.shards > 0, "--shards must be positive");
            }
            "--scale" => {
                args.scale = match value("--scale").as_str() {
                    "smoke" => Scale::Smoke,
                    "small" => Scale::Small,
                    "full" => Scale::Full,
                    other => panic!("unknown scale `{other}` (smoke|small|full)"),
                }
            }
            "--seed" => args.seed = value("--seed").parse().expect("--seed: number"),
            "--fuel" => args.fuel = Some(value("--fuel").parse().expect("--fuel: number")),
            "--label" => args.label = value("--label"),
            "--json" => args.json = PathBuf::from(value("--json")),
            "--addr" => args.addr = Some(value("--addr")),
            "--snapshot-check" => args.snapshot_check = true,
            "--shutdown" => args.shutdown = true,
            "--sweep" => {
                let points: Vec<u32> = value("--sweep")
                    .split(',')
                    .map(|p| p.trim().parse().expect("--sweep: comma-separated numbers"))
                    .collect();
                assert!(!points.is_empty(), "--sweep needs at least one point");
                assert!(
                    points.iter().all(|&n| n > 0),
                    "--sweep points must be positive"
                );
                args.sweep = Some(points);
            }
            "--connections" => {
                args.connections = value("--connections")
                    .parse()
                    .expect("--connections: number");
                assert!(args.connections > 0, "--connections must be positive");
            }
            "--warm-start" => args.warm_start = true,
            "--console" => args.console = true,
            "--chaos" => args.chaos = true,
            "--chaos-rate" => {
                args.chaos_rate = value("--chaos-rate").parse().expect("--chaos-rate: number");
                assert!(
                    (0.0..=1.0).contains(&args.chaos_rate),
                    "--chaos-rate must be in [0, 1]"
                );
            }
            other => panic!(
                "unknown argument `{other}` (usage: [--sessions N] [--shards N] \
                 [--scale smoke|small|full] [--seed S] [--fuel N] [--label NAME] \
                 [--json PATH] [--addr HOST:PORT] [--snapshot-check] [--shutdown] \
                 [--sweep N1,N2,...] [--connections C] [--warm-start] \
                 [--chaos] [--chaos-rate R] [--console])"
            ),
        }
    }
    args
}

/// The deterministic session plan: session i runs `plan[i]`, a seeded
/// shuffle of the suite repeated as often as needed.
fn session_plan(sessions: u32, seed: u64) -> Vec<WorkloadName> {
    let mut rng = Rng64::seed_from_u64(seed);
    let mut plan = Vec::with_capacity(sessions as usize);
    let mut deck: Vec<WorkloadName> = Vec::new();
    for _ in 0..sessions {
        if deck.is_empty() {
            deck = ALL_WORKLOADS.to_vec();
            // Fisher–Yates, driven by the seeded generator.
            for i in (1..deck.len()).rev() {
                let j = rng.gen_range(0..=i);
                deck.swap(i, j);
            }
        }
        plan.push(deck.pop().expect("deck refilled above"));
    }
    plan
}

/// One serving endpoint: either the in-process pool or a TCP connection.
/// Each driver thread gets its own (threads never share a connection).
enum Endpoint {
    Local(Arc<SessionManager>),
    Remote(Box<Client>),
}

impl Endpoint {
    fn call(&mut self, request: Request) -> Response {
        match self {
            Endpoint::Local(manager) => manager.request(request),
            Endpoint::Remote(client) => client.request(&request).expect("server I/O"),
        }
    }

    /// Retries `Busy` — loadgen measures throughput under admission
    /// control, so waiting out backpressure is the workload's job.
    fn call_patient(&mut self, request: Request) -> Response {
        loop {
            match self.call(request.clone()) {
                Response::Busy => std::thread::sleep(std::time::Duration::from_millis(1)),
                response => return response,
            }
        }
    }
}

fn open(endpoint: &mut Endpoint, name: WorkloadName, scale: Scale) -> u64 {
    match endpoint.call_patient(Request::Open {
        config: SessionConfig::exec(name, scale),
    }) {
        Response::Opened { session, .. } => session,
        other => panic!("open {name} failed: {other:?}"),
    }
}

/// Runs a session to completion in `fuel` slices; returns final stats.
fn finish(endpoint: &mut Endpoint, session: u64, fuel: Option<u64>) -> RunStats {
    loop {
        match endpoint.call_patient(Request::Run { session, fuel }) {
            Response::Ran { done: true, stats } => return stats,
            Response::Ran { done: false, .. } => {}
            other => panic!("run failed: {other:?}"),
        }
    }
}

/// Opens, completes, and closes one session; returns its block count.
fn drive(endpoint: &mut Endpoint, name: WorkloadName, scale: Scale, fuel: Option<u64>) -> u64 {
    let session = open(endpoint, name, scale);
    let stats = finish(endpoint, session, fuel);
    endpoint.call_patient(Request::Close { session });
    stats.blocks_executed
}

/// The snapshot contract, proven end to end for one workload: run to the
/// midpoint, snapshot, restore into a fresh session, finish — final
/// statistics must be bit-identical to the uninterrupted plain run.
fn snapshot_check(endpoint: &mut Endpoint, name: WorkloadName, scale: Scale, reference: &RunStats) {
    let session = open(endpoint, name, scale);
    match endpoint.call_patient(Request::Run {
        session,
        fuel: Some(reference.blocks_executed / 2),
    }) {
        Response::Ran { done, .. } => assert!(!done, "{name}: midpoint completed the run"),
        other => panic!("{name}: midpoint run failed: {other:?}"),
    }
    let Response::SnapshotBlob { blob } = endpoint.call_patient(Request::Snapshot { session })
    else {
        panic!("{name}: snapshot failed")
    };
    SessionSnapshot::decode(&blob).unwrap_or_else(|e| panic!("{name}: bad blob: {e}"));
    let restored = match endpoint.call_patient(Request::Restore { blob }) {
        Response::Opened { session, .. } => session,
        other => panic!("{name}: restore failed: {other:?}"),
    };
    let stats = finish(endpoint, restored, None);
    assert_eq!(
        &stats, reference,
        "{name}: restored run diverged from the uninterrupted run"
    );
    endpoint.call_patient(Request::Close { session });
    endpoint.call_patient(Request::Close { session: restored });
}

fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Smoke => "smoke",
        Scale::Small => "small",
        Scale::Full => "full",
    }
}

/// Appends one rendered run object to the shared perf document, same
/// format as `perf_baseline` (creates the document when absent).
fn append_run(json: &PathBuf, run_json: &str, label: &str) {
    let existing = fs::read_to_string(json).ok();
    let doc = match existing {
        Some(prev) => {
            let trimmed = prev.trim_end();
            let body = trimmed
                .strip_suffix("\n  ]\n}")
                .or_else(|| trimmed.strip_suffix("]\n}"))
                .unwrap_or_else(|| {
                    panic!(
                        "{} exists but is not a perf_baseline document",
                        json.display()
                    )
                })
                .trim_end();
            format!("{body},\n{run_json}\n  ]\n}}\n")
        }
        None => format!("{{\n  \"runs\": [\n{run_json}\n  ]\n}}\n"),
    };
    fs::write(json, doc).expect("write json");
    eprintln!("[loadgen] appended run `{label}` to {}", json.display());
}

fn shutdown_remote(addr: &str) {
    let mut client = Client::connect(addr).expect("connect");
    client.shutdown_server().expect("shutdown");
    eprintln!("[loadgen] server at {addr} shut down");
}

/// The server's whole-pool counters (used for the sweep's leak check and
/// peak-RSS reading).
fn server_stats(endpoint: &mut Endpoint) -> ServerStats {
    match endpoint.call_patient(Request::Stats) {
        Response::ServerStats(stats) => stats,
        other => panic!("stats failed: {other:?}"),
    }
}

/// The sequential bare-VM reference for sweep mode, measured once per
/// invocation: per-workload block counts and the aggregate blocks/sec.
/// Sweep points reuse it instead of re-running N native executions —
/// the native rate is scale-invariant, only the block total grows.
struct NativeRef {
    blocks: Vec<u64>,
    rate: f64,
}

fn measure_native(scale: Scale) -> NativeRef {
    let programs: Vec<_> = ALL_WORKLOADS
        .iter()
        .map(|&name| build(name, scale).program)
        .collect();
    let start = Instant::now();
    let mut blocks = Vec::with_capacity(programs.len());
    for (program, name) in programs.iter().zip(ALL_WORKLOADS) {
        let stats = Vm::new(program)
            .run(&mut NullObserver)
            .unwrap_or_else(|e| panic!("{name} failed: {e}"));
        blocks.push(stats.blocks_executed);
    }
    let secs = start.elapsed().as_secs_f64();
    let total: u64 = blocks.iter().sum();
    NativeRef {
        blocks,
        rate: total as f64 / secs,
    }
}

impl NativeRef {
    /// Total dynamic blocks a plan of workloads will execute.
    fn plan_blocks(&self, plan: &[WorkloadName]) -> u64 {
        plan.iter()
            .map(|&name| {
                let i = ALL_WORKLOADS
                    .iter()
                    .position(|&n| n == name)
                    .expect("workload in suite");
                self.blocks[i]
            })
            .sum()
    }
}

/// One sweep driver: its share of the point's sessions, multiplexed
/// over a single connection. Opens everything up front, waits at the
/// barrier so all N sessions across all drivers are concurrently open
/// before any runs, then round-robins `Run` fuel slices and closes each
/// session as it finishes. Returns the blocks its sessions executed.
fn sweep_driver(
    endpoint: &mut Endpoint,
    names: &[WorkloadName],
    scale: Scale,
    fuel: Option<u64>,
    all_open: &Barrier,
) -> u64 {
    let mut live: Vec<u64> = names
        .iter()
        .map(|&name| open(endpoint, name, scale))
        .collect();
    all_open.wait();
    let mut blocks = 0u64;
    while !live.is_empty() {
        let mut still = Vec::with_capacity(live.len());
        for &session in &live {
            match endpoint.call_patient(Request::Run { session, fuel }) {
                Response::Ran { done: true, stats } => {
                    blocks += stats.blocks_executed;
                    endpoint.call_patient(Request::Close { session });
                }
                Response::Ran { done: false, .. } => still.push(session),
                other => panic!("run failed: {other:?}"),
            }
        }
        live = still;
    }
    blocks
}

struct SweepPoint {
    secs: f64,
    total_blocks: u64,
    rss_max_bytes: u64,
    connections: u32,
}

/// Runs one sweep point: N concurrent sessions over C connections.
/// Asserts the block total matches the native reference and that the
/// server's live-session count returns to its pre-point value (zero
/// session-table leak).
fn sweep_point(args: &Args, pool: &Option<Arc<SessionManager>>, n: u32) -> SweepPoint {
    let plan = session_plan(n, args.seed);
    let chunk = plan.len().div_ceil(args.connections.min(n) as usize);
    // The last chunk may absorb several drivers' worth of rounding, so
    // the real driver count is however many chunks fall out — sizing
    // the barrier off the request would deadlock it.
    let chunks: Vec<Vec<WorkloadName>> = plan.chunks(chunk).map(<[_]>::to_vec).collect();
    let drivers = chunks.len();
    let make_endpoint = || match (&args.addr, pool) {
        (Some(addr), _) => Endpoint::Remote(Box::new(Client::connect(addr).expect("connect"))),
        (None, Some(pool)) => Endpoint::Local(Arc::clone(pool)),
        (None, None) => unreachable!(),
    };

    let mut control = make_endpoint();
    let before = server_stats(&mut control);

    // All drivers (plus this thread, which starts the clock) rendezvous
    // once every session is open — the point measures N *concurrent*
    // sessions, not a staggered trickle.
    let all_open = Arc::new(Barrier::new(drivers + 1));
    let threads: Vec<_> = chunks
        .into_iter()
        .map(|names| {
            let (scale, fuel) = (args.scale, args.fuel);
            let barrier = Arc::clone(&all_open);
            let mut endpoint = make_endpoint();
            std::thread::spawn(move || sweep_driver(&mut endpoint, &names, scale, fuel, &barrier))
        })
        .collect();
    all_open.wait();
    let start = Instant::now();
    let total_blocks: u64 = threads
        .into_iter()
        .map(|t| t.join().expect("sweep driver"))
        .sum();
    let secs = start.elapsed().as_secs_f64();

    let after = server_stats(&mut control);
    assert_eq!(
        after.live_sessions, before.live_sessions,
        "session-table leak at n={n}: {} live before, {} after",
        before.live_sessions, after.live_sessions
    );
    assert_eq!(
        after.sessions_opened - before.sessions_opened,
        u64::from(n),
        "open count drifted at n={n}"
    );
    SweepPoint {
        secs,
        total_blocks,
        rss_max_bytes: after.rss_max_bytes,
        connections: drivers as u32,
    }
}

/// Sweep mode: one labelled run per point, `native` + `serve-aggregate`
/// modes, `LABEL-nN` labels — the curve `bench_compare --curve` gates.
fn run_sweep(args: &Args, points: &[u32]) {
    let native = measure_native(args.scale);
    eprintln!(
        "[loadgen] sweep {:?} connections={} scale={}: native reference {:.0} blocks/sec",
        points,
        args.connections,
        scale_name(args.scale),
        native.rate
    );
    // Local mode sizes one shared pool for the largest point; remote
    // mode trusts the server's own --max-sessions.
    let pool = args.addr.is_none().then(|| {
        let largest = *points.iter().max().expect("nonempty sweep") as usize;
        let per_shard = (largest / args.shards as usize + 1).max(64);
        Arc::new(SessionManager::new(ServeConfig {
            shards: args.shards,
            max_sessions_per_shard: per_shard,
            ..ServeConfig::default()
        }))
    });

    println!(
        "\n=== loadgen sweep: {} ({} connections, {} shards, scale {}) ===",
        args.label,
        args.connections,
        args.shards,
        scale_name(args.scale)
    );
    println!(
        "{:>9} {:>10} {:>16} {:>12}",
        "sessions", "secs", "blocks/sec", "peak rss"
    );
    for &n in points {
        let point = sweep_point(args, &pool, n);
        let expected = native.plan_blocks(&session_plan(n, args.seed));
        assert_eq!(
            point.total_blocks, expected,
            "n={n}: concurrent sessions diverged from the native block total"
        );
        let rate = point.total_blocks as f64 / point.secs;
        let native_secs = point.total_blocks as f64 / native.rate;
        println!(
            "{:>9} {:>10.3} {:>16.0} {:>9} MiB",
            n,
            point.secs,
            rate,
            point.rss_max_bytes >> 20
        );

        let label = format!("{}-n{}", args.label, n);
        let mut run_json = String::new();
        let _ = writeln!(run_json, "    {{");
        let _ = writeln!(run_json, "      \"label\": \"{label}\",");
        let _ = writeln!(run_json, "      \"scale\": \"{}\",", scale_name(args.scale));
        let _ = writeln!(run_json, "      \"sessions\": {n},");
        let _ = writeln!(run_json, "      \"shards\": {},", args.shards);
        let _ = writeln!(run_json, "      \"connections\": {},", point.connections);
        let _ = writeln!(run_json, "      \"seed\": {},", args.seed);
        let _ = writeln!(
            run_json,
            "      \"rss_max_bytes\": {},",
            point.rss_max_bytes
        );
        let _ = writeln!(run_json, "      \"total_blocks\": {},", point.total_blocks);
        let _ = writeln!(run_json, "      \"modes\": {{");
        let _ = writeln!(
            run_json,
            "        \"native\": {{\"secs\": {native_secs:.6}, \"blocks_per_sec\": {:.0}}},",
            native.rate
        );
        let _ = writeln!(
            run_json,
            "        \"serve-aggregate\": {{\"secs\": {:.6}, \"blocks_per_sec\": {rate:.0}}}",
            point.secs
        );
        let _ = writeln!(run_json, "      }}");
        let _ = write!(run_json, "    }}");
        append_run(&args.json, &run_json, &label);
    }
}

/// Fuel slice while hunting for a session's first fragment install:
/// fine enough to resolve blocks-to-first-trace, coarse enough that the
/// per-slice query round-trips do not dominate the measurement.
const FIRST_TRACE_SLICE: u64 = 256;

/// One session driven to completion while watching for its first trace.
struct WarmRun {
    /// `blocks_executed` at the first status showing an installed
    /// fragment (0 when the session was opened pre-warmed).
    first_trace: u64,
    /// Wall seconds from open to halt.
    secs: f64,
    /// Final execution statistics.
    stats: RunStats,
}

/// Opens one session (optionally pre-warmed from the fleet profile
/// store), records the blocks executed when the first fragment install
/// becomes visible, runs it to completion, optionally publishes its
/// warm state back into the store, and closes it.
fn warm_run(
    endpoint: &mut Endpoint,
    name: WorkloadName,
    scale: Scale,
    prewarm: bool,
    publish: bool,
) -> WarmRun {
    let config = SessionConfig::exec(name, scale).with_prewarm(prewarm);
    let start = Instant::now();
    let session = match endpoint.call_patient(Request::Open { config }) {
        Response::Opened {
            session,
            prewarm: outcome,
            ..
        } => {
            if prewarm {
                assert!(
                    matches!(outcome, PrewarmOutcome::Warmed { .. }),
                    "{name}: expected a pre-warmed session, got {outcome:?}"
                );
            }
            session
        }
        other => panic!("open {name} failed: {other:?}"),
    };
    let first_trace = loop {
        let status = match endpoint.call_patient(Request::Query { session }) {
            Response::Status(status) => status,
            other => panic!("query {name} failed: {other:?}"),
        };
        if status.installs >= 1 {
            break status.stats.blocks_executed;
        }
        assert!(
            !status.done,
            "{name}: session completed without installing a single fragment"
        );
        match endpoint.call_patient(Request::Run {
            session,
            fuel: Some(FIRST_TRACE_SLICE),
        }) {
            Response::Ran { .. } => {}
            other => panic!("run {name} failed: {other:?}"),
        }
    };
    let stats = finish(endpoint, session, None);
    let secs = start.elapsed().as_secs_f64();
    if publish {
        match endpoint.call_patient(Request::PublishProfile { session }) {
            Response::ProfilePublished { .. } => {}
            other => panic!("publish {name} failed: {other:?}"),
        }
    }
    endpoint.call_patient(Request::Close { session });
    WarmRun {
        first_trace,
        secs,
        stats,
    }
}

/// Warm-start mode: for every workload in the suite, run one cold
/// session (publishing its warm state into the fleet profile store) and
/// one pre-warmed session, and record blocks-to-first-trace plus
/// throughput for both passes. Asserts the contract end to end: the
/// pre-warmed session must reach its first trace strictly earlier, and
/// its final statistics must be bit-identical to the cold run's.
fn run_warm_start(args: &Args) {
    let native = measure_native(args.scale);
    let pool = args.addr.is_none().then(|| {
        Arc::new(SessionManager::new(ServeConfig {
            shards: args.shards,
            ..ServeConfig::default()
        }))
    });
    let mut endpoint = match (&args.addr, &pool) {
        (Some(addr), _) => Endpoint::Remote(Box::new(Client::connect(addr).expect("connect"))),
        (None, Some(pool)) => Endpoint::Local(Arc::clone(pool)),
        (None, None) => unreachable!(),
    };

    println!(
        "\n=== loadgen warm-start: {} ({} shards, scale {}) ===",
        args.label,
        args.shards,
        scale_name(args.scale)
    );
    println!(
        "{:<12} {:>16} {:>20} {:>12}",
        "workload", "cold 1st trace", "prewarmed 1st trace", "speedup"
    );
    let mut points: Vec<(WorkloadName, u64, u64)> = Vec::new();
    let (mut cold_secs, mut warm_secs, mut total_blocks) = (0.0f64, 0.0f64, 0u64);
    for (i, &name) in ALL_WORKLOADS.iter().enumerate() {
        let cold = warm_run(&mut endpoint, name, args.scale, false, true);
        let warm = warm_run(&mut endpoint, name, args.scale, true, false);
        assert_eq!(
            cold.stats.blocks_executed, native.blocks[i],
            "{name}: cold serve run diverged from the native block total"
        );
        assert_eq!(
            warm.stats, cold.stats,
            "{name}: pre-warmed run diverged from the cold run"
        );
        assert!(
            warm.first_trace < cold.first_trace,
            "{name}: pre-warmed first trace at {} blocks is not strictly \
             below the cold {} blocks",
            warm.first_trace,
            cold.first_trace
        );
        println!(
            "{:<12} {:>16} {:>20} {:>11.1}x",
            name.as_str(),
            cold.first_trace,
            warm.first_trace,
            cold.first_trace as f64 / (warm.first_trace as f64).max(1.0)
        );
        cold_secs += cold.secs;
        warm_secs += warm.secs;
        total_blocks += cold.stats.blocks_executed;
        points.push((name, cold.first_trace, warm.first_trace));
    }
    let (cold_rate, warm_rate) = (
        total_blocks as f64 / cold_secs,
        total_blocks as f64 / warm_secs,
    );
    println!("\n{:<16} {:>10} {:>16}", "mode", "secs", "blocks/sec");
    let native_secs = total_blocks as f64 / native.rate;
    for (mode, secs, rate) in [
        ("native", native_secs, native.rate),
        ("serve-cold", cold_secs, cold_rate),
        ("serve-prewarmed", warm_secs, warm_rate),
    ] {
        println!("{mode:<16} {secs:>10.3} {rate:>16.0}");
    }

    let mut run_json = String::new();
    let _ = writeln!(run_json, "    {{");
    let _ = writeln!(run_json, "      \"label\": \"{}\",", args.label);
    let _ = writeln!(run_json, "      \"scale\": \"{}\",", scale_name(args.scale));
    let _ = writeln!(run_json, "      \"sessions\": {},", ALL_WORKLOADS.len());
    let _ = writeln!(run_json, "      \"shards\": {},", args.shards);
    let _ = writeln!(run_json, "      \"seed\": {},", args.seed);
    let _ = writeln!(run_json, "      \"total_blocks\": {},", total_blocks);
    let _ = writeln!(run_json, "      \"warm_start\": {{");
    for (i, (name, cold, warm)) in points.iter().enumerate() {
        let comma = if i + 1 < points.len() { "," } else { "" };
        let _ = writeln!(
            run_json,
            "        \"{}\": {{\"cold_blocks_to_first_trace\": {cold}, \
             \"prewarmed_blocks_to_first_trace\": {warm}}}{comma}",
            name.as_str()
        );
    }
    let _ = writeln!(run_json, "      }},");
    let _ = writeln!(run_json, "      \"modes\": {{");
    for (i, (mode, secs, rate)) in [
        ("native", native_secs, native.rate),
        ("serve-cold", cold_secs, cold_rate),
        ("serve-prewarmed", warm_secs, warm_rate),
    ]
    .into_iter()
    .enumerate()
    {
        let comma = if i < 2 { "," } else { "" };
        let _ = writeln!(
            run_json,
            "        \"{mode}\": {{\"secs\": {secs:.6}, \"blocks_per_sec\": {rate:.0}}}{comma}"
        );
    }
    let _ = writeln!(run_json, "      }}");
    let _ = write!(run_json, "    }}");
    append_run(&args.json, &run_json, &args.label);
}

/// Fuel slice for chaos drivers: small enough that every session crosses
/// many request/response boundaries (each one a fault opportunity).
const CHAOS_FUEL: u64 = 256;

/// What one chaos driver observed for its session.
struct ChaosDriver {
    stats: RunStats,
    quarantined: bool,
    retries: u64,
    reconnects: u64,
}

/// Drives one workload to completion against a chaos-armed server with a
/// retrying client, publishes its warm state, and closes the session.
fn chaos_drive(
    addr: std::net::SocketAddr,
    name: WorkloadName,
    scale: Scale,
    seed: u64,
) -> ChaosDriver {
    let policy = RetryPolicy::default().with_seed(seed);
    let mut client =
        Client::connect_with(addr, policy).unwrap_or_else(|e| panic!("{name}: connect: {e}"));
    let (session, _) = client
        .open(SessionConfig::exec(name, scale))
        .unwrap_or_else(|e| panic!("{name}: open under chaos: {e}"));
    let stats = loop {
        match client.run(session, Some(CHAOS_FUEL)) {
            Ok((true, stats)) => break stats,
            Ok((false, _)) => {}
            // An exhausted attempt budget is safe to retry as a fresh
            // logical call: re-running a fuel slice only advances the
            // session (the slicing invariant), and `Run` on a finished
            // session re-reports its final statistics.
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

/// Aggregate outcome of one chaos pass.
struct ChaosOutcome {
    secs: f64,
    blocks: u64,
    retries: u64,
    reconnects: u64,
    shards_restarted: u64,
    sessions_readmitted: u64,
    profiles_quarantined: u64,
}

/// One chaos pass: the full suite against the server behind `handle`,
/// one driver thread per workload, every connection and shard
/// fault-armed. Asserts zero session leaks, an exact open count (the
/// replay cache must absorb every re-sent open), and per-workload final
/// statistics bit-identical to the native reference.
fn chaos_pass(mut handle: ServerHandle, args: &Args, reference: &[RunStats]) -> ChaosOutcome {
    let addr = handle.addr();
    let mut control =
        Client::connect_with(addr, RetryPolicy::default().with_seed(args.seed ^ 0xC0C0))
            .expect("control connect");
    let before = control.stats().expect("stats before");

    let start = Instant::now();
    let drivers: Vec<_> = ALL_WORKLOADS
        .iter()
        .enumerate()
        .map(|(i, &name)| {
            let (scale, seed) = (args.scale, args.seed ^ (i as u64 + 1));
            std::thread::spawn(move || chaos_drive(addr, name, scale, seed))
        })
        .collect();
    let results: Vec<ChaosDriver> = drivers
        .into_iter()
        .map(|d| d.join().expect("chaos driver"))
        .collect();
    let secs = start.elapsed().as_secs_f64();

    for ((result, expect), name) in results.iter().zip(reference).zip(ALL_WORKLOADS) {
        assert_eq!(
            &result.stats, expect,
            "{name} diverged from the native run under chaos"
        );
    }

    let after = control.stats().expect("stats after");
    assert_eq!(
        after.live_sessions, before.live_sessions,
        "session leak under chaos ({} live before, {} after)",
        before.live_sessions, after.live_sessions
    );
    assert_eq!(
        after.sessions_opened - before.sessions_opened,
        ALL_WORKLOADS.len() as u64,
        "open count drifted under chaos (re-sent opens must dedup)"
    );
    let quarantined_seen = results.iter().filter(|r| r.quarantined).count() as u64;
    assert_eq!(
        after.profiles_quarantined, quarantined_seen,
        "quarantine bucket disagrees with client-observed quarantined publishes"
    );
    let (retries, reconnects) = (control.retries(), control.reconnects());
    drop(control);
    handle.stop();

    ChaosOutcome {
        secs,
        blocks: results.iter().map(|r| r.stats.blocks_executed).sum(),
        retries: results.iter().map(|r| r.retries).sum::<u64>() + retries,
        reconnects: results.iter().map(|r| r.reconnects).sum::<u64>() + reconnects,
        shards_restarted: after.shards_restarted - before.shards_restarted,
        sessions_readmitted: after.sessions_readmitted - before.sessions_readmitted,
        profiles_quarantined: after.profiles_quarantined,
    }
}

/// Directed quarantine coverage: with `PublishPoison` firing at rate
/// 1.0, a publish must land in the quarantine bucket (and report so) —
/// the probabilistic passes cannot guarantee this class fires.
fn chaos_poison_check(args: &Args) -> u64 {
    let plan = FaultPlan::new(args.seed).with(FaultPoint::PublishPoison, 1.0);
    let pool = Arc::new(SessionManager::new(ServeConfig {
        shards: 1,
        chaos: Some(plan),
        ..ServeConfig::default()
    }));
    let mut endpoint = Endpoint::Local(Arc::clone(&pool));
    let name = ALL_WORKLOADS[0];
    let session = open(&mut endpoint, name, args.scale);
    finish(&mut endpoint, session, args.fuel);
    let quarantined = match endpoint.call_patient(Request::PublishProfile { session }) {
        Response::ProfilePublished { quarantined, .. } => quarantined,
        other => panic!("poison publish failed: {other:?}"),
    };
    assert!(
        quarantined,
        "PublishPoison at rate 1.0 must quarantine the publish"
    );
    let stats = server_stats(&mut endpoint);
    assert_eq!(
        stats.profiles_quarantined, 1,
        "the quarantine bucket must hold the poisoned publish"
    );
    endpoint.call_patient(Request::Close { session });
    stats.profiles_quarantined
}

/// Chaos mode: the full suite against the TCP front-end with every serve
/// fault seam armed (torn/short writes, mid-frame resets, corrupted
/// frames, stalled peers, shard panics, poisoned publishes), plus a
/// directed `PublishPoison` pass. Asserts zero session leaks, exact open
/// counts, and bit-identical final statistics on every session, then
/// appends one run with a `chaos` section — the document
/// `bench_compare --chaos` gates.
fn run_chaos(args: &Args) {
    assert!(
        args.addr.is_none(),
        "--chaos runs its own servers; drop --addr"
    );
    assert!(
        args.chaos_rate > 0.0,
        "--chaos needs a positive --chaos-rate"
    );

    // Per-workload native references: chaos asserts full bit-identity of
    // the final statistics, not just block totals.
    let mut reference: Vec<RunStats> = Vec::with_capacity(ALL_WORKLOADS.len());
    let native_start = Instant::now();
    for name in ALL_WORKLOADS {
        let program = build(name, args.scale).program;
        reference.push(
            Vm::new(&program)
                .run(&mut NullObserver)
                .unwrap_or_else(|e| panic!("{name} failed: {e}")),
        );
    }
    let native_secs = native_start.elapsed().as_secs_f64();
    let suite_blocks: u64 = reference.iter().map(|s| s.blocks_executed).sum();
    let native_rate = suite_blocks as f64 / native_secs;

    // Injected shard panics are expected here; keep their default-hook
    // backtraces out of the report. Every other panic keeps the default.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<&str>()
            .map(|s| s.contains("injected shard panic"))
            .or_else(|| {
                info.payload()
                    .downcast_ref::<String>()
                    .map(|s| s.contains("injected shard panic"))
            })
            .unwrap_or(false);
        if !injected {
            default_hook(info);
        }
    }));

    let plan = FaultPlan::chaos(args.seed, args.chaos_rate);
    let config = ServeConfig {
        shards: args.shards,
        chaos: Some(plan),
        ..ServeConfig::default()
    };
    eprintln!(
        "[loadgen] chaos: seed={} rate={} shards={} scale={}",
        args.seed,
        args.chaos_rate,
        args.shards,
        scale_name(args.scale)
    );
    let ChaosOutcome {
        secs,
        blocks,
        retries,
        reconnects,
        shards_restarted,
        sessions_readmitted,
        profiles_quarantined,
    } = chaos_pass(
        serve("127.0.0.1:0", config).expect("bind chaos server"),
        args,
        &reference,
    );
    let profiles_quarantined = profiles_quarantined + chaos_poison_check(args);
    let completed = ALL_WORKLOADS.len() as u64;
    assert_eq!(blocks, suite_blocks, "chaos block total drifted");
    assert!(
        retries + reconnects + shards_restarted + profiles_quarantined > 0,
        "chaos pass observed no injected faults — raise --chaos-rate"
    );

    println!(
        "\n=== loadgen chaos: {} ({} shards, scale {}, seed {}, rate {}) ===",
        args.label,
        args.shards,
        scale_name(args.scale),
        args.seed,
        args.chaos_rate
    );
    println!(
        "{:>8} {:>14} {:>8} {:>10} {:>9} {:>11}",
        "secs", "blocks/sec", "retries", "reconnects", "restarts", "readmitted"
    );
    println!(
        "{:>8.3} {:>14.0} {:>8} {:>10} {:>9} {:>11}",
        secs,
        blocks as f64 / secs,
        retries,
        reconnects,
        shards_restarted,
        sessions_readmitted
    );
    println!(
        "{} sessions completed bit-identical, 0 leaked, {} publish(es) quarantined",
        completed, profiles_quarantined
    );

    let mut run_json = String::new();
    let _ = writeln!(run_json, "    {{");
    let _ = writeln!(run_json, "      \"label\": \"{}\",", args.label);
    let _ = writeln!(run_json, "      \"scale\": \"{}\",", scale_name(args.scale));
    let _ = writeln!(run_json, "      \"sessions\": {completed},");
    let _ = writeln!(run_json, "      \"shards\": {},", args.shards);
    let _ = writeln!(run_json, "      \"seed\": {},", args.seed);
    let _ = writeln!(run_json, "      \"total_blocks\": {blocks},");
    let _ = writeln!(run_json, "      \"chaos\": {{");
    let _ = writeln!(run_json, "        \"rate\": {},", args.chaos_rate);
    let _ = writeln!(run_json, "        \"completed\": {completed},");
    let _ = writeln!(run_json, "        \"leaked\": 0,");
    let _ = writeln!(run_json, "        \"divergent\": 0,");
    let _ = writeln!(
        run_json,
        "        \"shards_restarted\": {shards_restarted},"
    );
    let _ = writeln!(
        run_json,
        "        \"sessions_readmitted\": {sessions_readmitted},"
    );
    let _ = writeln!(
        run_json,
        "        \"profiles_quarantined\": {profiles_quarantined},"
    );
    let _ = writeln!(run_json, "        \"client_retries\": {retries},");
    let _ = writeln!(run_json, "        \"client_reconnects\": {reconnects}");
    let _ = writeln!(run_json, "      }},");
    let _ = writeln!(run_json, "      \"modes\": {{");
    let _ = writeln!(
        run_json,
        "        \"native\": {{\"secs\": {:.6}, \"blocks_per_sec\": {native_rate:.0}}},",
        blocks as f64 / native_rate
    );
    let _ = writeln!(
        run_json,
        "        \"serve-chaos\": {{\"secs\": {secs:.6}, \"blocks_per_sec\": {:.0}}}",
        blocks as f64 / secs
    );
    let _ = writeln!(run_json, "      }}");
    let _ = write!(run_json, "    }}");
    append_run(&args.json, &run_json, &args.label);
}

fn main() {
    let args = parse_args();
    if args.chaos {
        run_chaos(&args);
        return;
    }
    if args.warm_start {
        run_warm_start(&args);
        if args.shutdown {
            shutdown_remote(args.addr.as_deref().expect("--shutdown needs --addr"));
        }
        return;
    }
    if let Some(points) = args.sweep.clone() {
        run_sweep(&args, &points);
        if args.shutdown {
            shutdown_remote(args.addr.as_deref().expect("--shutdown needs --addr"));
        }
        return;
    }
    let plan = session_plan(args.sessions, args.seed);
    eprintln!(
        "[loadgen] sessions={} shards={} scale={} seed={} fuel={:?} plan={:?}",
        args.sessions,
        args.shards,
        scale_name(args.scale),
        args.seed,
        args.fuel,
        plan.iter().map(|n| n.as_str()).collect::<Vec<_>>()
    );

    // Endpoint factories. Local mode builds one pool per measured mode so
    // every mode starts cold; remote mode opens one connection per thread
    // against the long-lived server.
    let make_local = |shards: u32| {
        Arc::new(SessionManager::new(ServeConfig {
            shards,
            ..ServeConfig::default()
        }))
    };
    let connect = |addr: &str| Endpoint::Remote(Box::new(Client::connect(addr).expect("connect")));

    // native: the same instances, bare VM, and the per-workload reference
    // stats the snapshot check needs.
    let mut reference: Vec<RunStats> = Vec::with_capacity(plan.len());
    let native_start = Instant::now();
    for &name in &plan {
        let program = build(name, args.scale).program;
        let stats = Vm::new(&program)
            .run(&mut NullObserver)
            .unwrap_or_else(|e| panic!("{name} failed: {e}"));
        reference.push(stats);
    }
    let native_secs = native_start.elapsed().as_secs_f64();
    let total_blocks: u64 = reference.iter().map(|s| s.blocks_executed).sum();

    if args.snapshot_check {
        let mut endpoint = match &args.addr {
            Some(addr) => connect(addr),
            None => Endpoint::Local(make_local(args.shards)),
        };
        for (&name, stats) in plan.iter().zip(&reference) {
            snapshot_check(&mut endpoint, name, args.scale, stats);
        }
        eprintln!(
            "[loadgen] snapshot-check: {} session(s) round-tripped bit-identical",
            plan.len()
        );
    }

    // Live console: redraw the self-profiler's stage table on stderr
    // while the serve modes run. Works in any build — a default build
    // just shows the empty table.
    let console_stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let console = args.console.then(|| {
        let stop = Arc::clone(&console_stop);
        std::thread::spawn(move || {
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                eprint!("\x1b[2J\x1b[H{}", selfprof::report().render_table());
                std::thread::sleep(std::time::Duration::from_millis(400));
            }
        })
    });

    // serve-single: sequential sessions through one shard.
    let single_pool = args.addr.is_none().then(|| make_local(1));
    let single_start = Instant::now();
    let mut single_blocks = 0u64;
    {
        let mut endpoint = match (&args.addr, &single_pool) {
            (Some(addr), _) => connect(addr),
            (None, Some(pool)) => Endpoint::Local(Arc::clone(pool)),
            (None, None) => unreachable!(),
        };
        for &name in &plan {
            single_blocks += drive(&mut endpoint, name, args.scale, args.fuel);
        }
    }
    let single_secs = single_start.elapsed().as_secs_f64();

    // serve-aggregate: all sessions concurrently, one driver thread each.
    let aggregate_pool = args.addr.is_none().then(|| make_local(args.shards));
    let aggregate_start = Instant::now();
    let drivers: Vec<_> = plan
        .iter()
        .map(|&name| {
            let endpoint = match (&args.addr, &aggregate_pool) {
                (Some(addr), _) => connect(addr),
                (None, Some(pool)) => Endpoint::Local(Arc::clone(pool)),
                (None, None) => unreachable!(),
            };
            let (scale, fuel) = (args.scale, args.fuel);
            std::thread::spawn(move || {
                let mut endpoint = endpoint;
                drive(&mut endpoint, name, scale, fuel)
            })
        })
        .collect();
    let aggregate_blocks: u64 = drivers
        .into_iter()
        .map(|d| d.join().expect("driver thread"))
        .sum();
    let aggregate_secs = aggregate_start.elapsed().as_secs_f64();
    assert_eq!(
        aggregate_blocks, total_blocks,
        "concurrent sessions diverged from the native block total"
    );

    console_stop.store(true, std::sync::atomic::Ordering::Relaxed);
    if let Some(redraw) = console {
        let _ = redraw.join();
        eprintln!("\n[selfprof] final stage table:");
        eprint!("{}", selfprof::report().render_table());
    }

    if args.shutdown {
        shutdown_remote(args.addr.as_deref().expect("--shutdown needs --addr"));
    }

    println!(
        "\n=== loadgen: {} ({} sessions, {} shards, scale {}) ===",
        args.label,
        args.sessions,
        args.shards,
        scale_name(args.scale)
    );
    println!("{:<16} {:>10} {:>16}", "mode", "secs", "blocks/sec");
    let mut run_json = String::new();
    let _ = writeln!(run_json, "    {{");
    let _ = writeln!(run_json, "      \"label\": \"{}\",", args.label);
    let _ = writeln!(run_json, "      \"scale\": \"{}\",", scale_name(args.scale));
    let _ = writeln!(run_json, "      \"sessions\": {},", args.sessions);
    let _ = writeln!(run_json, "      \"shards\": {},", args.shards);
    let _ = writeln!(run_json, "      \"seed\": {},", args.seed);
    let _ = writeln!(run_json, "      \"total_blocks\": {},", total_blocks);
    let _ = writeln!(run_json, "      \"modes\": {{");
    for (i, (mode, secs)) in MODES
        .iter()
        .zip([native_secs, single_secs, aggregate_secs])
        .enumerate()
    {
        let rate = total_blocks as f64 / secs;
        println!("{mode:<16} {secs:>10.3} {rate:>16.0}");
        let comma = if i + 1 < MODES.len() { "," } else { "" };
        let _ = writeln!(
            run_json,
            "        \"{mode}\": {{\"secs\": {secs:.6}, \"blocks_per_sec\": {rate:.0}}}{comma}"
        );
    }
    // Serve-path allocation profile (selfprof-alloc builds only): total
    // and per-stage bytes/allocations over the blocks the serve modes
    // executed (serve-single + serve-aggregate). `bench_compare --alloc`
    // gates the two per-block ratios.
    if selfprof::alloc_tracking() {
        let report = selfprof::report();
        let serve_stages = [
            selfprof::Stage::FrameDecode,
            selfprof::Stage::ShardDispatch,
            selfprof::Stage::VmSlice,
            selfprof::Stage::SnapshotSave,
            selfprof::Stage::SnapshotRestore,
            selfprof::Stage::ProfilePublish,
            selfprof::Stage::Prewarm,
        ];
        let mut alloc_bytes = 0u64;
        let mut alloc_count = 0u64;
        let mut stage_rows = Vec::new();
        for stage in serve_stages {
            if let Some(s) = report.stage(stage.name()) {
                alloc_bytes += s.alloc_bytes;
                alloc_count += s.alloc_count;
                stage_rows.push((stage.name(), s.alloc_bytes, s.alloc_count));
            }
        }
        let served_blocks = single_blocks + aggregate_blocks;
        let bytes_per_block = alloc_bytes as f64 / served_blocks.max(1) as f64;
        let allocs_per_block = alloc_count as f64 / served_blocks.max(1) as f64;
        println!(
            "serve-path alloc {alloc_bytes} bytes / {alloc_count} allocs over {served_blocks} \
             blocks ({bytes_per_block:.2} B/blk, {allocs_per_block:.4} allocs/blk)"
        );
        let _ = writeln!(run_json, "      }},");
        let _ = writeln!(run_json, "      \"alloc\": {{");
        let _ = writeln!(
            run_json,
            "        \"bytes_per_block\": {bytes_per_block:.4},"
        );
        let _ = writeln!(
            run_json,
            "        \"allocs_per_block\": {allocs_per_block:.6},"
        );
        let _ = writeln!(run_json, "        \"alloc_bytes\": {alloc_bytes},");
        let _ = writeln!(run_json, "        \"alloc_count\": {alloc_count},");
        let _ = writeln!(run_json, "        \"served_blocks\": {served_blocks},");
        let _ = writeln!(run_json, "        \"stages\": {{");
        for (i, (name, bytes, count)) in stage_rows.iter().enumerate() {
            let comma = if i + 1 < stage_rows.len() { "," } else { "" };
            let _ = writeln!(
                run_json,
                "          \"{name}\": {{\"bytes\": {bytes}, \"count\": {count}}}{comma}"
            );
        }
        let _ = writeln!(run_json, "        }}");
        let _ = writeln!(run_json, "      }}");
    } else {
        let _ = writeln!(run_json, "      }}");
    }
    let _ = write!(run_json, "    }}");

    // Append to the shared perf document, same format as perf_baseline.
    append_run(&args.json, &run_json, &args.label);
}
