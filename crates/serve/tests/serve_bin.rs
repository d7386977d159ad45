//! End-to-end checks of the `serve` binary, spawned as a process and
//! driven over TCP the way an operator's client would:
//!
//! 1. a session survives a mid-run snapshot/restore bit-identically, and
//!    the `Shutdown` handshake stops the server with exit status 0;
//! 2. sessions multiplexed over four connections, all open before any
//!    runs, leave the session table as they found it after the closes;
//! 3. SIGTERM with warm sessions open drains, writes one
//!    `session-<id>.hpss` per open session into `--snapshot-dir` and
//!    exits 0 — and exits 1 when those snapshots cannot be written;
//! 4. for every workload, a session pre-warmed from a cold session's
//!    published profile reaches its first trace in strictly fewer blocks
//!    and still ends bit-identical to plain interpretation.
//!
//! Unix-only, like the TCP front-end the binary wraps.
#![cfg(unix)]

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, ExitStatus, Stdio};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use hotpath_serve::{Client, PrewarmOutcome, SessionConfig, SessionSnapshot};
use hotpath_vm::{NullObserver, RunStats, Vm};
use hotpath_workloads::{build, Scale, WorkloadName, ALL_WORKLOADS};

/// A running `serve` process and the address it announced.
struct Server {
    child: Child,
    addr: String,
    // Held open so a late write to stdout never meets a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

impl Server {
    /// Spawns `serve --addr 127.0.0.1:0 ARGS` and scrapes the
    /// `listening on HOST:PORT` line.
    fn spawn(args: &[&str]) -> Server {
        let mut child = Command::new(env!("CARGO_BIN_EXE_serve"))
            .args(["--addr", "127.0.0.1:0"])
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn serve");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        stdout.read_line(&mut line).expect("read serve stdout");
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("serve announced {line:?}, not an address"))
            .to_string();
        Server {
            child,
            addr,
            _stdout: stdout,
        }
    }

    fn client(&self) -> Client {
        Client::connect(&self.addr).expect("connect")
    }

    fn sigterm(&self) {
        let status = Command::new("kill")
            .args(["-TERM", &self.child.id().to_string()])
            .status()
            .expect("run kill");
        assert!(status.success(), "kill -TERM failed");
    }

    /// Waits up to 30 s for the process to exit.
    fn wait(&mut self) -> ExitStatus {
        let start = Instant::now();
        loop {
            if let Some(status) = self.child.try_wait().expect("poll serve") {
                return status;
            }
            assert!(
                start.elapsed() < Duration::from_secs(30),
                "serve did not exit within 30 s"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Plain interpretation of `name` at smoke scale: the reference every
/// served session must match.
fn reference(name: WorkloadName) -> RunStats {
    let program = build(name, Scale::Smoke).program;
    Vm::new(&program)
        .run(&mut NullObserver)
        .expect("workload runs")
}

fn finish(client: &mut Client, session: u64) -> RunStats {
    match client.run(session, None).expect("run") {
        (true, stats) => stats,
        (false, _) => panic!("an unbounded run did not finish"),
    }
}

/// A fresh, empty directory under the test target's scratch space.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(&dir);
    dir
}

#[test]
fn snapshot_restore_over_tcp_is_bit_identical_and_shutdown_exits_zero() {
    let mut server = Server::spawn(&[]);
    let mut client = server.client();
    for name in ALL_WORKLOADS {
        let expect = reference(name);
        let (session, _) = client
            .open(SessionConfig::exec(name, Scale::Smoke))
            .expect("open");
        let (done, _) = client
            .run(session, Some(expect.blocks_executed / 2))
            .expect("run to the midpoint");
        assert!(!done, "{name}: the midpoint completed the run");
        let blob = client.snapshot(session).expect("snapshot");
        SessionSnapshot::decode(&blob).unwrap_or_else(|e| panic!("{name}: bad blob: {e}"));
        let (restored, _) = client.restore(blob).expect("restore");
        assert_eq!(
            finish(&mut client, restored),
            expect,
            "{name}: the restored run diverged from plain interpretation"
        );
        client.close(session).expect("close");
        client.close(restored).expect("close restored");
    }
    client.shutdown_server().expect("shutdown");
    assert_eq!(server.wait().code(), Some(0), "Shutdown must exit 0");
}

/// One driver's share of a sweep point over its own connection: opens
/// every session, waits until all drivers have, then runs 2,048-block
/// slices round-robin, closing each session as it finishes. Returns the
/// blocks its sessions executed.
fn drive_multiplexed(addr: &str, names: &[WorkloadName], all_open: &Barrier) -> u64 {
    let mut client = Client::connect(addr).expect("connect");
    let mut live: Vec<u64> = names
        .iter()
        .map(|&name| {
            client
                .open(SessionConfig::exec(name, Scale::Smoke))
                .expect("open")
                .0
        })
        .collect();
    all_open.wait();
    let mut blocks = 0;
    while !live.is_empty() {
        live.retain(
            |&session| match client.run(session, Some(2048)).expect("run") {
                (true, stats) => {
                    blocks += stats.blocks_executed;
                    client.close(session).expect("close");
                    false
                }
                (false, _) => true,
            },
        );
    }
    blocks
}

#[test]
fn multiplexed_sweep_points_leave_no_session_behind() {
    let expect: Vec<u64> = ALL_WORKLOADS
        .iter()
        .map(|&name| reference(name).blocks_executed)
        .collect();
    let mut server = Server::spawn(&[]);
    let mut control = server.client();
    for n in [8, 32] {
        let plan: Vec<usize> = (0..n).map(|i| i % ALL_WORKLOADS.len()).collect();
        let before = control.stats().expect("stats before");
        let chunks: Vec<Vec<WorkloadName>> = plan
            .chunks(n.div_ceil(4))
            .map(|chunk| chunk.iter().map(|&i| ALL_WORKLOADS[i]).collect())
            .collect();
        assert_eq!(chunks.len(), 4, "n={n} spreads over four connections");
        let all_open = Arc::new(Barrier::new(chunks.len()));
        let drivers: Vec<_> = chunks
            .into_iter()
            .map(|names| {
                let (addr, all_open) = (server.addr.clone(), Arc::clone(&all_open));
                std::thread::spawn(move || drive_multiplexed(&addr, &names, &all_open))
            })
            .collect();
        let blocks: u64 = drivers.into_iter().map(|d| d.join().expect("driver")).sum();
        assert_eq!(
            blocks,
            plan.iter().map(|&i| expect[i]).sum::<u64>(),
            "n={n}: multiplexed sessions diverged from plain interpretation"
        );
        let after = control.stats().expect("stats after");
        assert_eq!(
            after.live_sessions, before.live_sessions,
            "session-table leak at n={n}"
        );
        assert_eq!(
            after.sessions_opened - before.sessions_opened,
            n as u64,
            "open count drifted at n={n}"
        );
    }
    control.shutdown_server().expect("shutdown");
    assert_eq!(server.wait().code(), Some(0), "Shutdown must exit 0");
}

/// Opens one session per workload in `names` and runs each part way, so
/// the server holds warm, unfinished sessions. Returns their ids.
fn open_warm(server: &Server, names: &[WorkloadName]) -> Vec<u64> {
    let mut client = server.client();
    names
        .iter()
        .map(|&name| {
            let (session, _) = client
                .open(SessionConfig::exec(name, Scale::Smoke))
                .expect("open");
            let (done, _) = client.run(session, Some(1000)).expect("run");
            assert!(!done, "{name} finished within 1,000 blocks");
            session
        })
        .collect()
}

#[test]
fn sigterm_drain_snapshots_every_open_session_and_exits_zero() {
    let dir = scratch("serve_bin_drain");
    let mut server = Server::spawn(&["--snapshot-dir", dir.to_str().expect("utf-8 path")]);
    let sessions = open_warm(&server, &ALL_WORKLOADS[..3]);
    server.sigterm();
    assert_eq!(server.wait().code(), Some(0), "a SIGTERM drain must exit 0");
    let mut written: Vec<String> = std::fs::read_dir(&dir)
        .expect("snapshot dir exists")
        .map(|entry| entry.expect("dir entry").file_name().into_string().unwrap())
        .collect();
    written.sort();
    let mut want: Vec<String> = sessions
        .iter()
        .map(|id| format!("session-{id}.hpss"))
        .collect();
    want.sort();
    assert_eq!(written, want, "one snapshot per open session");
    for file in &written {
        let blob = std::fs::read(dir.join(file)).expect("read snapshot");
        SessionSnapshot::decode(&blob).unwrap_or_else(|e| panic!("{file}: {e}"));
    }
}

#[test]
fn drain_that_cannot_write_snapshots_exits_one() {
    // A regular file where the snapshot directory should go: the drain
    // cannot save the open session, so warm state is lost and the exit
    // status must say so.
    let file = scratch("serve_bin_not_a_dir");
    std::fs::write(&file, b"").expect("create file");
    let mut server = Server::spawn(&["--snapshot-dir", file.to_str().expect("utf-8 path")]);
    open_warm(&server, &ALL_WORKLOADS[..1]);
    server.sigterm();
    assert_eq!(
        server.wait().code(),
        Some(1),
        "a drain that lost warm sessions must exit 1"
    );
}

/// Blocks a session has executed when its first fragment install
/// becomes visible, looking between 256-block slices.
fn blocks_to_first_trace(client: &mut Client, session: u64) -> u64 {
    loop {
        let status = client.query(session).expect("query");
        if status.installs >= 1 {
            return status.stats.blocks_executed;
        }
        assert!(!status.done, "session completed without a single install");
        client.run(session, Some(256)).expect("run a slice");
    }
}

#[test]
fn prewarmed_sessions_over_tcp_reach_their_first_trace_sooner_bit_identically() {
    let server = Server::spawn(&[]);
    let mut client = server.client();
    for name in ALL_WORKLOADS {
        let expect = reference(name);
        let config = SessionConfig::exec(name, Scale::Smoke);
        let (cold, _) = client.open(config.clone()).expect("open cold");
        let cold_first_trace = blocks_to_first_trace(&mut client, cold);
        assert_eq!(
            finish(&mut client, cold),
            expect,
            "{name}: cold run diverged"
        );
        client.publish_profile(cold).expect("publish");

        let (warmed, _, outcome) = client
            .open_detailed(config.with_prewarm(true))
            .expect("open pre-warmed");
        assert!(
            matches!(outcome, PrewarmOutcome::Warmed { .. }),
            "{name}: expected Warmed, got {outcome:?}"
        );
        let warm_first_trace = blocks_to_first_trace(&mut client, warmed);
        assert!(
            warm_first_trace < cold_first_trace,
            "{name}: pre-warmed first trace at {warm_first_trace} blocks is not \
             strictly below the cold {cold_first_trace}"
        );
        assert_eq!(
            finish(&mut client, warmed),
            expect,
            "{name}: pre-warmed run diverged from plain interpretation"
        );
        client.close(cold).expect("close cold");
        client.close(warmed).expect("close pre-warmed");
    }
}
