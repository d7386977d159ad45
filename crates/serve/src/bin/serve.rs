//! The `serve` binary: bind a TCP address and serve sessions until a
//! client sends Shutdown or the process receives SIGINT/SIGTERM.
//!
//! ```text
//! serve [--addr HOST:PORT] [--shards N] [--queue-depth N] [--max-sessions N]
//!       [--reactors N] [--write-buf BYTES] [--snapshot-dir DIR]
//!       [--drain-deadline-ms MS] [--chaos-seed SEED] [--chaos-rate RATE]
//!       [--selfprof-port PORT]
//! ```
//!
//! Prints `listening on HOST:PORT` on stdout once bound (port 0 resolves
//! to the OS-assigned port), so scripts can scrape the address.
//!
//! On SIGINT/SIGTERM the server drains instead of dying: it stops
//! accepting, answers queued requests with `ShuttingDown`, finishes
//! in-flight work, flushes replies, closes connections — and, when
//! `--snapshot-dir` is set, writes every still-open session's warm state
//! to `DIR/session-<id>.hpss` before exiting 0. If any of those
//! snapshots cannot be written, the warm state is lost and the exit
//! status is 1. The signal handlers are installed before the address is
//! printed, so a script may signal as soon as it has scraped it.
//!
//! `crates/serve/tests/serve_bin.rs` drives all of this end to end.
//!
//! Unix-only, like the crate's TCP front-end it wraps.

use hotpath_serve::{serve, FaultPlan, ServeConfig, ServerHandle};

fn usage() -> ! {
    eprintln!(
        "usage: serve [--addr HOST:PORT] [--shards N] [--queue-depth N] [--max-sessions N]\n\
         \x20            [--reactors N] [--write-buf BYTES] [--snapshot-dir DIR]\n\
         \x20            [--drain-deadline-ms MS] [--chaos-seed SEED] [--chaos-rate RATE]\n\
         \x20            [--selfprof-port PORT]"
    );
    std::process::exit(2);
}

fn parse<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
    let Some(value) = value else {
        eprintln!("{flag} needs a value");
        usage();
    };
    match value.parse() {
        Ok(v) => v,
        Err(_) => {
            eprintln!("bad value for {flag}: {value}");
            usage();
        }
    }
}

fn main() {
    let mut addr = "127.0.0.1:0".to_string();
    let mut config = ServeConfig::default();
    let mut snapshot_dir: Option<String> = None;
    let mut chaos_seed: Option<u64> = None;
    let mut chaos_rate: f64 = 0.02;
    let mut selfprof_port: Option<u16> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = parse(&arg, args.next()),
            "--shards" => config.shards = parse(&arg, args.next()),
            "--queue-depth" => config.queue_depth = parse(&arg, args.next()),
            "--max-sessions" => config.max_sessions_per_shard = parse(&arg, args.next()),
            "--reactors" => config.reactors = parse(&arg, args.next()),
            "--write-buf" => config.write_buf_limit = parse(&arg, args.next()),
            "--snapshot-dir" => snapshot_dir = Some(parse(&arg, args.next())),
            "--drain-deadline-ms" => config.drain_deadline_ms = parse(&arg, args.next()),
            "--chaos-seed" => chaos_seed = Some(parse(&arg, args.next())),
            "--chaos-rate" => chaos_rate = parse(&arg, args.next()),
            "--selfprof-port" => selfprof_port = Some(parse(&arg, args.next())),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage();
            }
        }
    }
    if config.shards == 0 || config.queue_depth == 0 || config.reactors == 0 {
        eprintln!("--shards, --queue-depth, and --reactors must be positive");
        usage();
    }
    if !(0.0..=1.0).contains(&chaos_rate) {
        eprintln!("--chaos-rate must be in [0, 1]");
        usage();
    }
    if let Some(seed) = chaos_seed {
        config.chaos = Some(FaultPlan::chaos(seed, chaos_rate));
        eprintln!("chaos armed: seed {seed}, rate {chaos_rate}");
    }
    let mut handle = match serve(&addr, config) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    spawn_signal_watcher(&handle);
    println!("listening on {}", handle.addr());
    if let Some(port) = selfprof_port {
        // Mounted next to the serve front-end; with the selfprof feature
        // off it still answers, with an empty report.
        match hotpath_selfprof::serve_http(&format!("127.0.0.1:{port}")) {
            Ok(bound) => println!("selfprof on http://{bound}/selfprof"),
            Err(e) => eprintln!("selfprof bind port {port}: {e}"),
        }
    }
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    // Block until the front-end exits (client Shutdown, signal drain, or
    // a stop); the shard pool stays up so warm sessions can be saved.
    handle.join_front();
    let saved = snapshot_dir.map_or(true, |dir| save_snapshots(&handle, &dir));
    drop(handle); // shuts the shard pool down
    if !saved {
        std::process::exit(1);
    }
}

/// Installs SIGINT/SIGTERM handlers and a watcher thread that fires a
/// graceful drain when either arrives.
fn spawn_signal_watcher(handle: &ServerHandle) {
    let trigger = handle.drain_trigger();
    match hotpath_serve::install_drain_signals() {
        Ok(fd) => {
            std::thread::Builder::new()
                .name("hotpath-signals".to_string())
                .spawn(move || {
                    hotpath_serve::block_until_signal(fd);
                    eprintln!("drain signal received, draining");
                    trigger.fire();
                })
                .expect("spawn signal watcher");
        }
        Err(e) => eprintln!("signal handlers unavailable ({e}); drain via Shutdown only"),
    }
}

/// Writes every still-open session to `dir/session-<id>.hpss`; returns
/// whether all of them were written.
fn save_snapshots(handle: &ServerHandle, dir: &str) -> bool {
    let blobs = handle.manager().snapshot_all();
    if blobs.is_empty() {
        return true;
    }
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!(
            "snapshot dir {dir}: {e}; {} warm session(s) lost",
            blobs.len()
        );
        return false;
    }
    let mut saved = 0usize;
    for (id, blob) in &blobs {
        let path = format!("{dir}/session-{id}.hpss");
        match std::fs::write(&path, blob) {
            Ok(()) => saved += 1,
            Err(e) => eprintln!("write {path}: {e}"),
        }
    }
    eprintln!("saved {saved} warm session snapshot(s) to {dir}");
    saved == blobs.len()
}
