//! Reactor front-end contract tests: frame reassembly over real
//! sockets, bounded-buffer backpressure, oversize rejection, and
//! graceful drain that hands warm sessions over bit-identical.
//!
//! The invariant carried over from `tests/serve.rs`: no matter how the
//! bytes are sliced, refused, or drained, every session that finishes —
//! before or after a snapshot/restore hop — ends bit-identical to a
//! plain interpreted run.
#![cfg(unix)]

use std::io::{Read, Write};
use std::net::TcpStream;

use hotpath::prelude::*;
use hotpath::serve::{
    read_frame, serve, write_frame, Client, ConnLimits, ConnState, PrewarmOutcome, Request,
    Response, ServeConfig, ServerHandle, SessionConfig, SessionManager, MAX_FRAME_BYTES,
};

/// A plain interpreted run: the reference every serving path must match.
fn plain(name: WorkloadName, scale: Scale) -> hotpath::vm::RunStats {
    let program = build(name, scale).program;
    Vm::new(&program)
        .run(&mut hotpath::vm::NullObserver)
        .expect("workload runs")
}

/// Sends one request over a raw stream and decodes the reply.
fn roundtrip(stream: &mut TcpStream, request: &Request) -> Response {
    write_frame(stream, &request.encode()).expect("write frame");
    let payload = read_frame(stream)
        .expect("read frame")
        .expect("server kept the connection");
    Response::decode(&payload).expect("reply decodes")
}

/// The reactor must reassemble frames however the bytes arrive: the
/// length prefix split from the payload, the payload dribbled one byte
/// at a time, and two frames glued into a single write.
#[test]
fn partial_frames_reassemble_across_split_reads() {
    let name = WorkloadName::Compress;
    let reference = plain(name, Scale::Smoke);
    let handle = serve("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");

    // Open, dribbled byte by byte with pauses so the reactor sees many
    // partial reads for one frame.
    let payload = Request::Open {
        config: SessionConfig::exec(name, Scale::Smoke),
    }
    .encode();
    let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&payload);
    for chunk in frame.chunks(3) {
        stream.write_all(chunk).expect("write chunk");
        stream.flush().expect("flush");
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let reply = read_frame(&mut stream)
        .expect("read")
        .expect("reply after reassembly");
    let Response::Opened { session, .. } = Response::decode(&reply).expect("decodes") else {
        panic!("open failed");
    };

    // Two frames in one write: a fuel slice and a query, answered in
    // order from a single read burst.
    let run = Request::Run {
        session,
        fuel: Some(100),
    }
    .encode();
    let query = Request::Query { session }.encode();
    let mut glued = Vec::new();
    for payload in [&run, &query] {
        glued.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        glued.extend_from_slice(payload);
    }
    stream.write_all(&glued).expect("write glued frames");
    let first = read_frame(&mut stream).expect("read").expect("run reply");
    assert!(matches!(
        Response::decode(&first).expect("decodes"),
        Response::Ran { .. }
    ));
    let second = read_frame(&mut stream).expect("read").expect("query reply");
    let Response::Status(status) = Response::decode(&second).expect("decodes") else {
        panic!("query failed");
    };
    assert_eq!(status.session, session);

    // The session still finishes bit-identical after all that slicing.
    let stats = loop {
        match roundtrip(
            &mut stream,
            &Request::Run {
                session,
                fuel: None,
            },
        ) {
            Response::Ran { done: true, stats } => break stats,
            Response::Ran { done: false, .. } => {}
            other => panic!("run failed: {other:?}"),
        }
    };
    assert_eq!(stats, reference, "sliced frames changed the execution");
    roundtrip(&mut stream, &Request::Close { session });
    roundtrip(&mut stream, &Request::Shutdown);
    handle.wait();
}

/// A length prefix over the 64 MiB cap is fatal for that connection —
/// no reply, no allocation, immediate close — while other connections
/// keep working.
#[test]
fn oversize_length_prefix_closes_only_that_connection() {
    let handle = serve("127.0.0.1:0", ServeConfig::default()).expect("bind");

    let mut attacker = TcpStream::connect(handle.addr()).expect("connect");
    let oversize = (MAX_FRAME_BYTES as u32 + 1).to_le_bytes();
    attacker.write_all(&oversize).expect("write prefix");
    attacker.flush().expect("flush");
    let mut buf = [0u8; 16];
    let n = attacker.read(&mut buf).expect("read after oversize");
    assert_eq!(n, 0, "oversize prefix must close the connection, not reply");

    // A well-behaved connection on the same server is unaffected.
    let mut client = Client::connect(handle.addr()).expect("connect");
    let (session, _) = client
        .open(SessionConfig::exec(WorkloadName::Compress, Scale::Smoke))
        .expect("open after oversize attack");
    client.close(session).expect("close");
    client.shutdown_server().expect("shutdown");
    handle.wait();
}

/// A burst of frames beyond the per-connection queue bound is refused
/// with `Busy` — in order, over the wire — and the connection stays
/// usable afterwards.
#[test]
fn frame_burst_beyond_queue_bound_answers_busy_in_order() {
    let handle = serve("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");

    let Response::Opened { session, .. } = roundtrip(
        &mut stream,
        &Request::Open {
            config: SessionConfig::exec(WorkloadName::Compress, Scale::Smoke),
        },
    ) else {
        panic!("open failed");
    };

    // 30 queries in a single write: the reactor ingests the burst in
    // one pass, queues up to its bound, and answers the overflow Busy.
    const BURST: usize = 30;
    let payload = Request::Query { session }.encode();
    let mut burst = Vec::new();
    for _ in 0..BURST {
        burst.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        burst.extend_from_slice(&payload);
    }
    stream.write_all(&burst).expect("write burst");
    let (mut served, mut busy) = (0, 0);
    for i in 0..BURST {
        let reply = read_frame(&mut stream)
            .expect("read")
            .unwrap_or_else(|| panic!("missing reply {i}"));
        match Response::decode(&reply).expect("decodes") {
            Response::Status(_) => served += 1,
            Response::Busy => busy += 1,
            other => panic!("unexpected reply {i}: {other:?}"),
        }
    }
    assert_eq!(served + busy, BURST);
    assert!(busy >= 1, "burst must overflow the queue bound");
    assert!(served >= 1, "some of the burst must be served");

    // Backpressure is refusal, not damage: the next request succeeds.
    let Response::Status(status) = roundtrip(&mut stream, &Request::Query { session }) else {
        panic!("connection unusable after backpressure");
    };
    assert_eq!(status.session, session);
    roundtrip(&mut stream, &Request::Close { session });
    roundtrip(&mut stream, &Request::Shutdown);
    handle.wait();
}

/// The soft write-buffer bound surfaces as `Busy` too: once unflushed
/// replies pile past it, new frames are refused until the buffer
/// drains. Driven through the exported state machine — the bound is
/// about an unread peer, which a same-process socket cannot simulate
/// deterministically.
#[test]
fn write_buffer_backpressure_refuses_frames_with_busy() {
    let limits = ConnLimits::with_write_soft(64);
    let mut conn = ConnState::new(limits);
    let frame = |payload: &[u8]| {
        let mut f = (payload.len() as u32).to_le_bytes().to_vec();
        f.extend_from_slice(payload);
        f
    };
    let query = Request::Query { session: 1 }.encode();

    conn.ingest(&frame(&query)).expect("ingest");
    let dispatched = conn.next_dispatch().expect("dispatches");
    assert_eq!(dispatched, query);
    // A reply bigger than the soft bound, not yet flushed to the socket.
    conn.respond(&[0u8; 128]).expect("respond");
    assert!(conn.buffered_write_bytes() > 64);

    // New frames are refused while the buffer is over the bound...
    conn.ingest(&frame(&query)).expect("ingest under pressure");
    assert!(
        conn.next_dispatch().is_none(),
        "refused frame must not dispatch"
    );
    let busy_at = conn.writable().len();
    assert!(
        busy_at > 128,
        "Busy reply must be queued behind the big one"
    );

    // ...and served again once the peer drains it.
    let flushed = conn.writable().len();
    conn.advance_write(flushed);
    assert_eq!(conn.buffered_write_bytes(), 0);
    conn.ingest(&frame(&query)).expect("ingest after drain");
    assert_eq!(conn.next_dispatch().expect("dispatches again"), query);
}

/// Opens `count` sessions over individual connections and advances each
/// to its midpoint, leaving the sessions warm on the server.
fn open_warm_sessions(
    addr: std::net::SocketAddr,
    count: usize,
    midpoint: u64,
) -> Vec<(Client, u64)> {
    (0..count)
        .map(|_| {
            let mut client = Client::connect(addr).expect("connect");
            let (session, _) = client
                .open(SessionConfig::exec(WorkloadName::Compress, Scale::Smoke))
                .expect("open");
            let (done, _) = client.run(session, Some(midpoint)).expect("midpoint");
            assert!(!done, "midpoint must not complete the run");
            (client, session)
        })
        .collect()
}

/// Drains a server under live load and proves the warm sessions survive:
/// snapshots taken after the drain restore into a fresh pool and finish
/// bit-identical to a plain run.
fn drain_and_restore(mut handle: ServerHandle, sessions: usize) -> Vec<hotpath::vm::RunStats> {
    let reference = plain(WorkloadName::Compress, Scale::Smoke);
    let midpoint = reference.blocks_executed / 2;
    let warm = open_warm_sessions(handle.addr(), sessions, midpoint);

    // Live load while the drain fires: one session keeps taking fuel
    // slices until the server tells it to go away.
    let addr = handle.addr();
    let load = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect");
        let (session, _) = client
            .open(SessionConfig::exec(WorkloadName::Go, Scale::Smoke))
            .expect("open");
        let mut slices = 0u64;
        while let Ok((done, _)) = client.run(session, Some(50)) {
            slices += 1;
            if done {
                break;
            }
        }
        slices
    });
    // Give the load loop time to get going, then pull the plug.
    std::thread::sleep(std::time::Duration::from_millis(50));
    handle.drain();
    let slices = load.join().expect("load thread");
    assert!(slices > 0, "load must make progress before the drain");
    handle.join_front();

    // The front is gone: new connections are refused, not accepted.
    assert!(
        Client::connect(addr).is_err(),
        "drained server must stop accepting"
    );

    // Warm sessions survived the drain; restore them elsewhere and
    // finish. Every one must land exactly where a plain run lands.
    let blobs = handle.manager().snapshot_all();
    assert!(
        blobs.len() >= sessions,
        "expected >= {sessions} warm sessions, snapshot found {}",
        blobs.len()
    );
    drop(warm);
    let fresh = SessionManager::new(ServeConfig::default());
    let mut finished = Vec::new();
    for (_, blob) in blobs {
        let Response::Opened { session, .. } = fresh.request(Request::Restore { blob }) else {
            panic!("restore failed");
        };
        let stats = loop {
            match fresh.request(Request::Run {
                session,
                fuel: Some(1000),
            }) {
                Response::Ran { done: true, stats } => break stats,
                Response::Ran { done: false, .. } => {}
                other => panic!("restored run failed: {other:?}"),
            }
        };
        finished.push(stats);
    }
    finished
}

/// Graceful drain under load: every warm session the drain leaves
/// behind restores elsewhere and finishes bit-identical.
#[test]
fn drain_under_load_restores_warm_sessions() {
    let compress = plain(WorkloadName::Compress, Scale::Smoke);
    let go = plain(WorkloadName::Go, Scale::Smoke);
    let handle = serve("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let finished = drain_and_restore(handle, 3);
    assert!(finished.len() >= 3, "lost warm sessions");
    for stats in &finished {
        assert!(
            *stats == compress || *stats == go,
            "restored session diverged from plain execution: {stats:?}"
        );
    }
    assert!(
        finished.iter().filter(|s| **s == compress).count() >= 3,
        "the midpoint sessions must all finish as compress"
    );
}

/// `Stats` counts sessions and connections truthfully — the invariant
/// the CI scale smoke leans on for its zero-leak assertion.
#[test]
fn server_stats_track_sessions_and_connections() {
    let handle = serve("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let before = client.stats().expect("stats");

    let config = SessionConfig::exec(WorkloadName::Compress, Scale::Smoke);
    let (a, _) = client.open(config.clone()).expect("open");
    let (b, _) = client.open(config).expect("open");
    let during = client.stats().expect("stats");
    assert_eq!(during.live_sessions, before.live_sessions + 2);
    assert_eq!(during.sessions_opened, before.sessions_opened + 2);
    assert!(during.connections >= 1, "this connection must be counted");

    client.close(a).expect("close");
    client.close(b).expect("close");
    let after = client.stats().expect("stats");
    assert_eq!(
        after.live_sessions, before.live_sessions,
        "session table leaked"
    );
    assert_eq!(after.sessions_closed, before.sessions_closed + 2);
    #[cfg(target_os = "linux")]
    assert!(
        after.rss_max_bytes > 0,
        "peak RSS must be reported on linux"
    );

    // Fleet profile-store counters ride the same reply: empty before
    // the first publish, populated after, and the pre-warm tally moves.
    assert_eq!(after.profiles_held, 0, "no profile published yet");
    assert_eq!(after.profile_bytes, 0, "empty store reports zero bytes");
    assert_eq!(after.sessions_prewarmed, 0);
    let config = SessionConfig::exec(WorkloadName::Compress, Scale::Smoke);
    let (publisher, _) = client.open(config.clone()).expect("open");
    while !client.run(publisher, None).expect("run").0 {}
    client.publish_profile(publisher).expect("publish");
    client.close(publisher).expect("close");
    let (warmed, _, outcome) = client
        .open_detailed(config.with_prewarm(true))
        .expect("open pre-warmed");
    assert!(
        matches!(outcome, PrewarmOutcome::Warmed { .. }),
        "expected a warmed admission, got {outcome:?}"
    );
    client.close(warmed).expect("close");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.profiles_held, 1, "one workload key aggregated");
    assert!(stats.profile_bytes > 0, "aggregate bytes reported");
    assert_eq!(stats.sessions_prewarmed, 1);
    assert!(
        stats.profile_refresh_age <= 1,
        "only shards that admitted a pre-warm have synced; the lag must \
         never exceed the single publish, got {}",
        stats.profile_refresh_age
    );

    client.shutdown_server().expect("shutdown");
    handle.wait();
}
