//! The nonblocking reactor front-end: one epoll-style event loop per
//! reactor thread, multiplexing every connection it owns over a single
//! [`Poller`].
//!
//! Each connection is a pure state machine ([`ConnState`]): partial
//! reads accumulate until a whole u32-LE length-prefixed frame is
//! present, parsed frames queue in arrival order, and exactly one
//! request per connection is in flight on a shard at a time (so replies
//! leave in request order). Backpressure is explicit at every layer:
//!
//! * a frame arriving while [`ConnLimits::max_queued`] frames already
//!   wait — or while the write buffer is past its soft bound — is
//!   answered [`Response::Busy`] in order, without dispatching;
//! * a write buffer past its hard bound (4x soft) stops socket reads
//!   entirely until the peer drains it;
//! * shard-queue refusals surface as the same `Busy` the in-process API
//!   returns.
//!
//! Shard workers never block the loop: completions ride an mpsc queue
//! and a self-pipe ([`WakePipe`]) wake, tagged with a generation token
//! so a completion for a closed-and-recycled connection slot is
//! discarded instead of misdelivered.
//!
//! Drain (SIGINT/SIGTERM or the `Shutdown` opcode) stops accepting,
//! answers queued-but-undispatched requests with `ShuttingDown`, lets
//! in-flight shard work finish, flushes every write buffer, and closes —
//! with a deadline so a stalled peer cannot wedge process exit.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};

use hotpath_faultinject::{FaultInjector, FaultPoint};
use hotpath_selfprof as selfprof;
use hotpath_telemetry as telemetry;

use crate::manager::{Prepared, RequestNote, SessionManager};
use crate::protocol::{Request, Response, MAX_FRAME_BYTES};
use crate::shard::ReplyTo;
use crate::sys::{Interest, PollEvent, Poller, WakePipe};

/// Salt domain for per-connection wire-fault streams ("WIRE" in the high
/// half), disjoint from the shard ids the shard workers salt with.
const WIRE_CONN_SALT: u64 = 0x5749_5245 << 32;

/// Token reserved for the listening socket.
const LISTENER_TOKEN: u64 = u64::MAX;
/// Token reserved for the wake pipe.
const WAKE_TOKEN: u64 = u64::MAX - 1;
/// Read chunk size; frames larger than this reassemble across reads.
const READ_CHUNK: usize = 16 << 10;
/// Drain poll period (ms); the deadline in periods comes from
/// [`ServeConfig::drain_deadline_ms`](crate::ServeConfig::drain_deadline_ms)
/// — past it, connections still unflushed are force-closed.
const DRAIN_TICK_MS: i32 = 50;

/// A finished shard response on its way back to a reactor.
#[derive(Debug)]
pub(crate) struct Completion {
    pub(crate) token: u64,
    pub(crate) response: Response,
}

/// Control messages for a reactor thread.
#[derive(Debug)]
pub(crate) enum ReactorCtl {
    /// Stop accepting, finish in-flight work, flush, close, exit.
    Drain,
}

/// Connection counters shared across every reactor of one server.
#[derive(Debug, Default)]
pub(crate) struct ConnTotals {
    pub(crate) live: AtomicU64,
    pub(crate) accepted: AtomicU64,
}

/// Fan-out used to start a drain on every reactor at once: the
/// `Shutdown` opcode (from any reactor) and the signal watcher both fire
/// it. Firing is idempotent, and a reactor registered after the fact is
/// drained immediately, so there is no startup race.
#[derive(Clone, Debug, Default)]
pub(crate) struct DrainFanout {
    inner: Arc<FanoutInner>,
}

#[derive(Debug, Default)]
struct FanoutInner {
    fired: AtomicBool,
    targets: Mutex<Vec<(Sender<ReactorCtl>, Arc<WakePipe>)>>,
}

impl DrainFanout {
    /// Adds a reactor; if the fan-out already fired, drains it now.
    pub(crate) fn register(&self, ctl: Sender<ReactorCtl>, wake: Arc<WakePipe>) {
        let mut targets = self.inner.targets.lock().expect("fanout lock");
        if self.inner.fired.load(Ordering::Acquire) {
            let _ = ctl.send(ReactorCtl::Drain);
            wake.wake();
        }
        targets.push((ctl, wake));
    }

    /// Starts the drain everywhere. Idempotent.
    pub(crate) fn fire(&self) {
        let targets = self.inner.targets.lock().expect("fanout lock");
        if self.inner.fired.swap(true, Ordering::AcqRel) {
            return;
        }
        for (ctl, wake) in targets.iter() {
            let _ = ctl.send(ReactorCtl::Drain);
            wake.wake();
        }
    }
}

/// Bounds for one connection's state machine.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ConnLimits {
    /// Largest accepted frame payload; larger length prefixes kill the
    /// connection (mirrors [`read_frame`](crate::read_frame)).
    pub max_frame: usize,
    /// Parsed frames allowed to wait for dispatch before new ones are
    /// answered [`Response::Busy`].
    pub max_queued: usize,
    /// Soft write-buffer bound: above it, new requests answer `Busy`.
    pub write_soft: usize,
    /// Hard write-buffer bound: above it, socket reads stop entirely.
    pub write_hard: usize,
    /// Total pending entries (queued frames plus pending `Busy`
    /// refusals) before socket reads stop; bounds memory against a
    /// flood of tiny pipelined frames.
    pub max_pending: usize,
}

impl ConnLimits {
    /// Limits derived from a soft write-buffer bound (the server's
    /// [`ServeConfig::write_buf_limit`](crate::ServeConfig::write_buf_limit)).
    pub fn with_write_soft(write_soft: usize) -> ConnLimits {
        let write_soft = write_soft.max(1);
        ConnLimits {
            max_frame: MAX_FRAME_BYTES,
            max_queued: 8,
            write_soft,
            write_hard: write_soft.saturating_mul(4),
            max_pending: 64,
        }
    }
}

impl Default for ConnLimits {
    fn default() -> Self {
        ConnLimits::with_write_soft(256 << 10)
    }
}

/// Why a connection must be closed by its owner.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ConnError {
    /// A frame length prefix exceeded [`ConnLimits::max_frame`].
    Oversize {
        /// The advertised payload length.
        len: usize,
    },
    /// A response payload exceeded [`ConnLimits::max_frame`] (mirrors
    /// [`write_frame`](crate::write_frame)'s refusal).
    ResponseOversize {
        /// The response payload length.
        len: usize,
    },
}

impl std::fmt::Display for ConnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConnError::Oversize { len } => {
                write!(f, "frame length {len} exceeds the cap")
            }
            ConnError::ResponseOversize { len } => {
                write!(f, "response of {len} bytes exceeds the cap")
            }
        }
    }
}

impl std::error::Error for ConnError {}

#[derive(Debug)]
enum Pending {
    /// A parsed frame payload awaiting dispatch.
    Frame(Vec<u8>),
    /// A refusal decided at ingest time; answers `Busy` in order.
    Reject,
}

/// One connection's pure state machine: frame reassembly, ordered
/// dispatch, write buffering, and the backpressure/drain policy. No I/O
/// — the owner feeds bytes in, takes dispatchable payloads out, and
/// moves [`writable`](ConnState::writable) bytes to the socket — so the
/// whole policy is testable without a socket.
#[derive(Debug)]
pub struct ConnState {
    limits: ConnLimits,
    read_buf: Vec<u8>,
    pending: VecDeque<Pending>,
    frames_queued: usize,
    in_flight: bool,
    write_buf: Vec<u8>,
    write_pos: usize,
    draining: bool,
    peer_closed: bool,
}

impl ConnState {
    /// A fresh connection with the given bounds.
    pub fn new(limits: ConnLimits) -> ConnState {
        ConnState {
            limits,
            read_buf: Vec::new(),
            pending: VecDeque::new(),
            frames_queued: 0,
            in_flight: false,
            write_buf: Vec::new(),
            write_pos: 0,
            draining: false,
            peer_closed: false,
        }
    }

    /// Feeds bytes read from the socket. Complete frames move to the
    /// pending queue (or become ordered `Busy` refusals when over the
    /// queue or soft-write bound); a partial frame waits for more bytes.
    ///
    /// # Errors
    ///
    /// [`ConnError::Oversize`] when a length prefix exceeds the cap —
    /// the connection must be closed, mirroring [`read_frame`](crate::read_frame).
    pub fn ingest(&mut self, bytes: &[u8]) -> Result<(), ConnError> {
        self.read_buf.extend_from_slice(bytes);
        let mut consumed = 0;
        loop {
            let buf = &self.read_buf[consumed..];
            if buf.len() < 4 {
                break;
            }
            let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
            if len > self.limits.max_frame {
                return Err(ConnError::Oversize { len });
            }
            if buf.len() < 4 + len {
                break;
            }
            let payload = buf[4..4 + len].to_vec();
            consumed += 4 + len;
            if self.frames_queued >= self.limits.max_queued
                || self.buffered_write_bytes() >= self.limits.write_soft
            {
                self.pending.push_back(Pending::Reject);
            } else {
                self.pending.push_back(Pending::Frame(payload));
                self.frames_queued += 1;
            }
        }
        self.read_buf.drain(..consumed);
        Ok(())
    }

    /// Takes the next frame to dispatch, marking the connection
    /// in-flight. Pending `Busy` refusals ahead of it are answered (in
    /// order) as a side effect; while draining, queued frames are
    /// answered `ShuttingDown` instead of dispatched. Returns `None`
    /// while a dispatch is already in flight or nothing is queued.
    pub fn next_dispatch(&mut self) -> Option<Vec<u8>> {
        while !self.in_flight {
            match self.pending.pop_front() {
                Some(Pending::Reject) => self.push_response_frame(&Response::Busy.encode()),
                Some(Pending::Frame(payload)) => {
                    self.frames_queued -= 1;
                    if self.draining {
                        self.push_response_frame(&Response::ShuttingDown.encode());
                    } else {
                        self.in_flight = true;
                        return Some(payload);
                    }
                }
                None => break,
            }
        }
        None
    }

    /// Completes the in-flight dispatch: frames the response into the
    /// write buffer and clears the in-flight mark.
    ///
    /// # Errors
    ///
    /// [`ConnError::ResponseOversize`] when the payload exceeds the cap
    /// — the connection must be closed ([`write_frame`](crate::write_frame)
    /// refuses identically).
    pub fn respond(&mut self, payload: &[u8]) -> Result<(), ConnError> {
        debug_assert!(self.in_flight, "respond without a dispatch in flight");
        if payload.len() > self.limits.max_frame {
            return Err(ConnError::ResponseOversize { len: payload.len() });
        }
        self.in_flight = false;
        self.push_response_frame(payload);
        Ok(())
    }

    fn push_response_frame(&mut self, payload: &[u8]) {
        self.write_buf
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.write_buf.extend_from_slice(payload);
    }

    /// Enters drain mode: stop reading, answer queued frames with
    /// `ShuttingDown` (in order, after any in-flight reply), flush,
    /// close.
    pub fn begin_drain(&mut self) {
        self.draining = true;
    }

    /// Whether drain mode is active.
    pub fn draining(&self) -> bool {
        self.draining
    }

    /// Marks the peer's read side closed (EOF observed).
    pub fn set_peer_closed(&mut self) {
        self.peer_closed = true;
    }

    /// Bytes ready to write to the socket.
    pub fn writable(&self) -> &[u8] {
        &self.write_buf[self.write_pos..]
    }

    /// Records `n` bytes as written.
    pub fn advance_write(&mut self, n: usize) {
        self.write_pos += n;
        debug_assert!(self.write_pos <= self.write_buf.len());
        if self.write_pos == self.write_buf.len() {
            self.write_buf.clear();
            self.write_pos = 0;
        }
    }

    /// Unflushed response bytes.
    pub fn buffered_write_bytes(&self) -> usize {
        self.write_buf.len() - self.write_pos
    }

    /// Whether the owner should keep reading from the socket.
    pub fn wants_read(&self) -> bool {
        !self.draining
            && !self.peer_closed
            && self.pending.len() < self.limits.max_pending
            && self.buffered_write_bytes() < self.limits.write_hard
    }

    /// Whether unflushed response bytes remain.
    pub fn wants_write(&self) -> bool {
        self.buffered_write_bytes() > 0
    }

    /// Whether a dispatch is in flight on a shard.
    pub fn in_flight(&self) -> bool {
        self.in_flight
    }

    /// Frames (and pending refusals) awaiting dispatch.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// True once the connection has nothing left to do and should be
    /// closed: every reply flushed, nothing queued or in flight, and
    /// either the peer hung up or a drain is in progress.
    pub fn finished(&self) -> bool {
        (self.draining || self.peer_closed)
            && !self.in_flight
            && self.pending.is_empty()
            && self.buffered_write_bytes() == 0
    }
}

struct Conn {
    stream: TcpStream,
    state: ConnState,
    token: u64,
    /// Shard + telemetry note for the in-flight dispatch.
    in_flight_meta: Option<(u32, RequestNote)>,
    /// Interest currently registered with the poller.
    registered: Interest,
    requests: u64,
    /// This connection's wire-fault stream (disabled outside chaos).
    injector: FaultInjector,
    /// One-shot cap on the next flush pass (an injected torn write).
    torn_cap: Option<usize>,
}

/// Everything one reactor thread owns.
pub(crate) struct Reactor {
    index: u32,
    poller: Poller,
    listener: Option<TcpListener>,
    manager: Arc<SessionManager>,
    totals: Arc<ConnTotals>,
    fanout: DrainFanout,
    wake: Arc<WakePipe>,
    comp_tx: Sender<Completion>,
    comp_rx: Receiver<Completion>,
    ctl_rx: Receiver<ReactorCtl>,
    limits: ConnLimits,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    next_gen: u32,
    accepted_here: u64,
    draining: bool,
    drain_ticks: u32,
    drain_deadline_ticks: u32,
}

/// A spawned reactor thread (reachable through the [`DrainFanout`] it
/// registered with).
pub(crate) struct ReactorHandle {
    pub(crate) join: std::thread::JoinHandle<()>,
}

/// Spawns one reactor thread over its own clone of the listener.
pub(crate) fn spawn_reactor(
    index: u32,
    listener: TcpListener,
    manager: Arc<SessionManager>,
    totals: Arc<ConnTotals>,
    fanout: &DrainFanout,
    limits: ConnLimits,
) -> std::io::Result<ReactorHandle> {
    listener.set_nonblocking(true)?;
    let poller = Poller::new()?;
    let wake = Arc::new(WakePipe::new()?);
    let (comp_tx, comp_rx) = channel();
    let (ctl_tx, ctl_rx) = channel();
    fanout.register(ctl_tx.clone(), Arc::clone(&wake));
    let drain_deadline_ticks =
        (manager.config().drain_deadline_ms / DRAIN_TICK_MS as u64).max(1) as u32;
    let mut reactor = Reactor {
        index,
        poller,
        listener: Some(listener),
        manager,
        totals,
        fanout: fanout.clone(),
        wake: Arc::clone(&wake),
        comp_tx,
        comp_rx,
        ctl_rx,
        limits,
        conns: Vec::new(),
        free: Vec::new(),
        next_gen: 0,
        accepted_here: 0,
        draining: false,
        drain_ticks: 0,
        drain_deadline_ticks,
    };
    let join = std::thread::Builder::new()
        .name(format!("hotpath-reactor-{index}"))
        .spawn(move || reactor.run())
        .expect("spawn reactor thread");
    Ok(ReactorHandle { join })
}

impl Reactor {
    fn run(&mut self) {
        if let Some(listener) = &self.listener {
            if self
                .poller
                .add(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ)
                .is_err()
            {
                return;
            }
        }
        if self
            .poller
            .add(self.wake.read_fd(), WAKE_TOKEN, Interest::READ)
            .is_err()
        {
            return;
        }
        let mut events: Vec<PollEvent> = Vec::new();
        loop {
            events.clear();
            let timeout = if self.draining { DRAIN_TICK_MS } else { -1 };
            if self.poller.wait(&mut events, timeout).is_err() {
                break;
            }
            telemetry::emit!(telemetry::Event::ReactorWakeup {
                reactor: self.index,
                events: events.len() as u64,
            });
            for &event in &events {
                match event.token {
                    LISTENER_TOKEN => self.accept_all(),
                    WAKE_TOKEN => self.wake.drain(),
                    token => self.conn_event(token, event.readable, event.writable),
                }
            }
            // Completions and control arrive via the wake pipe, but are
            // drained unconditionally: a wake edge can coalesce with any
            // other readiness.
            while let Ok(completion) = self.comp_rx.try_recv() {
                self.complete(completion);
            }
            while let Ok(ReactorCtl::Drain) = self.ctl_rx.try_recv() {
                self.begin_drain();
            }
            if self.draining {
                self.drain_ticks += 1;
                let force = self.drain_ticks > self.drain_deadline_ticks;
                if force {
                    let open: Vec<usize> = self.open_slots();
                    for idx in open {
                        self.close_conn(idx);
                    }
                }
                if self.conns.iter().all(Option::is_none) {
                    break;
                }
            }
        }
    }

    fn open_slots(&self) -> Vec<usize> {
        self.conns
            .iter()
            .enumerate()
            .filter_map(|(idx, slot)| slot.as_ref().map(|_| idx))
            .collect()
    }

    fn accept_all(&mut self) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _peer)) => self.install_conn(stream),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    fn install_conn(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        let idx = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.conns.len() - 1
        });
        let gen = self.next_gen;
        self.next_gen = self.next_gen.wrapping_add(1);
        let token = (u64::from(gen) << 32) | idx as u64;
        if self
            .poller
            .add(stream.as_raw_fd(), token, Interest::READ)
            .is_err()
        {
            self.free.push(idx);
            return;
        }
        // Salt mixes the reactor index and a per-reactor accept counter
        // into the wire domain, so every connection in the process draws
        // from its own fault stream.
        let injector = match self.manager.config().chaos {
            Some(plan) => FaultInjector::new(plan.derive(
                WIRE_CONN_SALT
                    ^ u64::from(self.index).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    ^ self.accepted_here,
            )),
            None => FaultInjector::disabled(),
        };
        self.accepted_here += 1;
        self.conns[idx] = Some(Conn {
            stream,
            state: ConnState::new(self.limits),
            token,
            in_flight_meta: None,
            registered: Interest::READ,
            requests: 0,
            injector,
            torn_cap: None,
        });
        self.totals.live.fetch_add(1, Ordering::Relaxed);
        self.totals.accepted.fetch_add(1, Ordering::Relaxed);
        telemetry::emit!(telemetry::Event::ConnAccepted {
            reactor: self.index,
            conn: token,
        });
        // A drain that began before this connection registered must
        // still cover it.
        if self.draining {
            if let Some(conn) = self.conns[idx].as_mut() {
                conn.state.begin_drain();
            }
        }
    }

    fn conn_event(&mut self, token: u64, readable: bool, writable: bool) {
        let idx = (token & 0xFFFF_FFFF) as usize;
        match self.conns.get(idx) {
            Some(Some(conn)) if conn.token == token => {}
            _ => return, // stale event for a recycled slot
        }
        if readable && !self.read_ready(idx) {
            return; // connection closed during the read
        }
        if writable {
            self.flush_writes(idx);
        }
        self.settle(idx);
    }

    /// Reads until `WouldBlock`, EOF, or the state machine stops wanting
    /// bytes. Returns false when the connection was closed.
    fn read_ready(&mut self, idx: usize) -> bool {
        let mut buf = [0u8; READ_CHUNK];
        loop {
            let Some(conn) = self.conns[idx].as_mut() else {
                return false;
            };
            if !conn.state.wants_read() {
                break;
            }
            match conn.stream.read(&mut buf) {
                Ok(0) => {
                    conn.state.set_peer_closed();
                    break;
                }
                Ok(n) => {
                    if conn.state.ingest(&buf[..n]).is_err() {
                        // Oversize frame: kill the connection, exactly
                        // like read_frame's error.
                        self.close_conn(idx);
                        return false;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(idx);
                    return false;
                }
            }
        }
        self.pump(idx)
    }

    /// Dispatches queued frames until one is in flight on a shard (or
    /// the queue empties). Immediate responses — decode errors, `Busy`
    /// refusals, `Stats`, `Shutdown` — are answered inline. Returns
    /// false when the connection was closed.
    fn pump(&mut self, idx: usize) -> bool {
        loop {
            let Some(conn) = self.conns[idx].as_mut() else {
                return false;
            };
            let Some(payload) = conn.state.next_dispatch() else {
                return true;
            };
            let token = conn.token;
            let decoded = selfprof::stage!(selfprof::Stage::FrameDecode, Request::decode(&payload));
            let immediate = match decoded {
                Err(e) => Some(Response::Error {
                    message: e.to_string(),
                }),
                Ok(Request::Shutdown) => {
                    // Reply first, then drain every reactor: the client
                    // sees the acknowledgement before its socket closes.
                    self.fanout.fire();
                    Some(Response::ShuttingDown)
                }
                Ok(Request::Stats) => {
                    let mut stats = self.manager.server_stats();
                    stats.connections = self.totals.live.load(Ordering::Relaxed);
                    stats.conns_accepted = self.totals.accepted.load(Ordering::Relaxed);
                    Some(Response::ServerStats(stats))
                }
                Ok(request) => match self.manager.prepare(request) {
                    Prepared::Immediate(response) => Some(response),
                    Prepared::Route {
                        session,
                        shard_request,
                        note,
                    } => {
                        let shard = self.manager.shard_of(session);
                        let reply = ReplyTo::Reactor {
                            token,
                            tx: self.comp_tx.clone(),
                            wake: Arc::clone(&self.wake),
                        };
                        match self.manager.submit(session, shard_request, reply) {
                            Ok(()) => {
                                let conn = self.conns[idx]
                                    .as_mut()
                                    .expect("conn vanished mid-dispatch");
                                conn.in_flight_meta = Some((shard, note));
                                return true;
                            }
                            Err(refused) => {
                                self.manager.finish(shard, &note, &refused);
                                Some(refused)
                            }
                        }
                    }
                },
            };
            if let Some(response) = immediate {
                if !self.respond_with_faults(idx, &response) {
                    return false;
                }
            }
        }
    }

    /// Frames `response` into the connection's write buffer, applying
    /// the connection's wire-fault plan on the way. Returns false when
    /// the connection was closed (oversize response or injected fault).
    fn respond_with_faults(&mut self, idx: usize, response: &Response) -> bool {
        let Some(conn) = self.conns[idx].as_mut() else {
            return false;
        };
        conn.requests += 1;
        let mut payload = response.encode();
        if !conn.injector.armed() {
            if conn.state.respond(&payload).is_err() {
                self.close_conn(idx);
                return false;
            }
            return true;
        }
        // Draw every outbound point in fixed order so the per-point
        // fault streams stay aligned no matter which fault wins
        // precedence.
        let reset = conn.injector.fire(FaultPoint::WireReset);
        let corrupt_len = conn.injector.fire(FaultPoint::WireCorruptLen);
        let corrupt_payload = conn.injector.fire(FaultPoint::WireCorruptPayload);
        let torn = conn.injector.fire(FaultPoint::WireTornWrite);
        let stall = conn.injector.fire(FaultPoint::WireStall);
        let delay = conn.injector.fire(FaultPoint::WireDelayRead);
        let token = conn.token;
        if stall {
            note_wire_fault(FaultPoint::WireStall, token);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        if delay {
            // One thread owns every connection here, so a short sleep
            // also delays this connection's subsequent reads.
            note_wire_fault(FaultPoint::WireDelayRead, token);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        if reset || corrupt_len {
            let mut frame = Vec::with_capacity(4 + payload.len());
            frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            frame.extend_from_slice(&payload);
            if reset {
                note_wire_fault(FaultPoint::WireReset, token);
                let _ = conn.stream.write(&frame[..frame.len() / 2]);
            } else {
                note_wire_fault(FaultPoint::WireCorruptLen, token);
                // Bit 30 pushes the length past the frame cap, so the
                // client rejects it instantly; the stream is desynced
                // for good either way, so the connection drops.
                frame[3] ^= 0x40;
                let _ = conn.stream.write(&frame);
            }
            self.close_conn(idx);
            return false;
        }
        if corrupt_payload {
            note_wire_fault(FaultPoint::WireCorruptPayload, token);
            // Flip a high bit of the opcode: every response opcode is in
            // 0x80..=0x8B, so the result is always invalid and the
            // client sees a decode error — never silently wrong data.
            payload[0] ^= 0x40;
        }
        if conn.state.respond(&payload).is_err() {
            self.close_conn(idx);
            return false;
        }
        if torn {
            note_wire_fault(FaultPoint::WireTornWrite, token);
            if let Some(conn) = self.conns[idx].as_mut() {
                conn.torn_cap = Some((conn.state.buffered_write_bytes() / 2).max(1));
            }
        }
        true
    }

    /// Applies a shard completion to its connection (or discards it if
    /// the slot was recycled).
    fn complete(&mut self, completion: Completion) {
        let idx = (completion.token & 0xFFFF_FFFF) as usize;
        let meta = match self.conns.get_mut(idx) {
            Some(Some(conn)) if conn.token == completion.token => conn.in_flight_meta.take(),
            _ => return,
        };
        if let Some((shard, note)) = meta {
            self.manager.finish(shard, &note, &completion.response);
        }
        if !self.respond_with_faults(idx, &completion.response) {
            return;
        }
        if self.pump(idx) {
            self.settle(idx);
        }
    }

    /// Writes buffered bytes until `WouldBlock` or empty.
    fn flush_writes(&mut self, idx: usize) {
        loop {
            let Some(conn) = self.conns[idx].as_mut() else {
                return;
            };
            let pending = conn.state.writable();
            if pending.is_empty() {
                return;
            }
            // An injected torn write caps this pass, leaving the tail
            // buffered for the next writable event.
            let cap = conn.torn_cap.take();
            let n_max = cap.map_or(pending.len(), |c| c.min(pending.len()));
            match conn.stream.write(&pending[..n_max]) {
                Ok(0) => {
                    self.close_conn(idx);
                    return;
                }
                Ok(n) => {
                    conn.state.advance_write(n);
                    if cap.is_some() {
                        return;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    telemetry::emit!(telemetry::Event::WriteStalled {
                        reactor: self.index,
                        conn: conn.token,
                        buffered: conn.state.buffered_write_bytes() as u64,
                    });
                    return;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(idx);
                    return;
                }
            }
        }
    }

    /// Post-event bookkeeping: flush what can be flushed, close a
    /// finished connection, re-register interest if it changed.
    fn settle(&mut self, idx: usize) {
        self.flush_writes(idx);
        let Some(conn) = self.conns[idx].as_mut() else {
            return;
        };
        if conn.state.finished() {
            self.close_conn(idx);
            return;
        }
        let desired = Interest {
            readable: conn.state.wants_read(),
            writable: conn.state.wants_write(),
        };
        if desired != conn.registered {
            let fd = conn.stream.as_raw_fd();
            let token = conn.token;
            if self.poller.modify(fd, token, desired).is_ok() {
                if let Some(conn) = self.conns[idx].as_mut() {
                    conn.registered = desired;
                }
            }
        }
    }

    fn close_conn(&mut self, idx: usize) {
        let Some(conn) = self.conns[idx].take() else {
            return;
        };
        let _ = self.poller.remove(conn.stream.as_raw_fd());
        self.totals.live.fetch_sub(1, Ordering::Relaxed);
        telemetry::emit!(telemetry::Event::ConnClosed {
            reactor: self.index,
            conn: conn.token,
            requests: conn.requests,
        });
        self.free.push(idx);
    }

    fn begin_drain(&mut self) {
        if self.draining {
            return;
        }
        self.draining = true;
        self.drain_ticks = 0;
        if let Some(listener) = self.listener.take() {
            let _ = self.poller.remove(listener.as_raw_fd());
        }
        for idx in self.open_slots() {
            if let Some(conn) = self.conns[idx].as_mut() {
                conn.state.begin_drain();
            }
            if self.pump(idx) {
                self.settle(idx);
            }
        }
    }
}

fn note_wire_fault(point: FaultPoint, conn: u64) {
    telemetry::emit!(telemetry::Event::WireFaultInjected {
        point: point.as_str(),
        conn,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut out = (payload.len() as u32).to_le_bytes().to_vec();
        out.extend_from_slice(payload);
        out
    }

    #[test]
    fn reassembles_frames_across_arbitrary_splits() {
        let payload = Request::Query { session: 42 }.encode();
        let wire = frame(&payload);
        for split in 0..wire.len() {
            let mut state = ConnState::new(ConnLimits::default());
            state.ingest(&wire[..split]).unwrap();
            assert!(state.next_dispatch().is_none(), "split at {split}");
            state.ingest(&wire[split..]).unwrap();
            assert_eq!(state.next_dispatch(), Some(payload.clone()));
        }
    }

    #[test]
    fn oversize_length_prefix_is_fatal() {
        let mut state = ConnState::new(ConnLimits::default());
        let bad = ((MAX_FRAME_BYTES + 1) as u32).to_le_bytes();
        assert_eq!(
            state.ingest(&bad),
            Err(ConnError::Oversize {
                len: MAX_FRAME_BYTES + 1
            })
        );
    }

    #[test]
    fn queue_overflow_answers_busy_in_order() {
        let limits = ConnLimits {
            max_queued: 2,
            ..ConnLimits::default()
        };
        let mut state = ConnState::new(limits);
        let payload = Request::Query { session: 1 }.encode();
        for _ in 0..3 {
            state.ingest(&frame(&payload)).unwrap();
        }
        // Two queued, third refused. Dispatch the first...
        let first = state.next_dispatch().expect("first dispatch");
        assert_eq!(first, payload);
        state.respond(&Response::Busy.encode()).unwrap();
        // ...and the second; popping past it must emit the ordered Busy.
        let second = state.next_dispatch().expect("second dispatch");
        assert_eq!(second, payload);
        state.respond(&Response::Busy.encode()).unwrap();
        assert!(state.next_dispatch().is_none());
        // Write buffer now holds three frames: two responses + one Busy.
        let mut frames = 0;
        let mut buf = state.writable();
        while buf.len() >= 4 {
            let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
            buf = &buf[4 + len..];
            frames += 1;
        }
        assert_eq!(frames, 3);
    }

    #[test]
    fn soft_write_bound_refuses_new_requests() {
        let limits = ConnLimits::with_write_soft(8);
        let mut state = ConnState::new(limits);
        let payload = Request::Query { session: 1 }.encode();
        state.ingest(&frame(&payload)).unwrap();
        let _ = state.next_dispatch().expect("dispatch");
        // A response larger than the soft bound leaves the buffer hot.
        state.respond(&[0u8; 32]).unwrap();
        assert!(state.buffered_write_bytes() >= limits.write_soft);
        state.ingest(&frame(&payload)).unwrap();
        assert!(
            state.next_dispatch().is_none(),
            "request over the soft bound must not dispatch"
        );
        // Draining the peer side clears the pressure; the refusal was
        // already queued as Busy though.
        let buffered = state.buffered_write_bytes();
        state.advance_write(buffered);
        assert_eq!(state.buffered_write_bytes(), 0);
    }

    #[test]
    fn hard_write_bound_stops_reading() {
        let limits = ConnLimits::with_write_soft(4);
        let mut state = ConnState::new(limits);
        assert!(state.wants_read());
        let payload = Request::Query { session: 1 }.encode();
        state.ingest(&frame(&payload)).unwrap();
        let _ = state.next_dispatch().unwrap();
        state.respond(&vec![0u8; limits.write_hard + 1]).unwrap();
        assert!(!state.wants_read(), "hard bound must gate reads");
        let buffered = state.buffered_write_bytes();
        state.advance_write(buffered);
        assert!(state.wants_read(), "flushing reopens the read side");
    }

    #[test]
    fn drain_answers_queued_frames_with_shutting_down() {
        let mut state = ConnState::new(ConnLimits::default());
        let payload = Request::Query { session: 1 }.encode();
        state.ingest(&frame(&payload)).unwrap();
        state.ingest(&frame(&payload)).unwrap();
        let _ = state.next_dispatch().expect("in-flight dispatch");
        state.begin_drain();
        assert!(!state.wants_read());
        // In-flight reply lands first; the queued frame then resolves to
        // ShuttingDown without dispatching.
        state.respond(&Response::Busy.encode()).unwrap();
        assert!(state.next_dispatch().is_none());
        let written = state.writable().to_vec();
        // Parse both frames back out.
        let first_len = u32::from_le_bytes(written[..4].try_into().unwrap()) as usize;
        let second = &written[4 + first_len..];
        let second_len = u32::from_le_bytes(second[..4].try_into().unwrap()) as usize;
        let second_payload = &second[4..4 + second_len];
        assert_eq!(Response::decode(second_payload), Ok(Response::ShuttingDown));
        let buffered = state.buffered_write_bytes();
        state.advance_write(buffered);
        assert!(state.finished(), "drained connection closes");
    }

    #[test]
    fn peer_close_finishes_after_replies_flush() {
        let mut state = ConnState::new(ConnLimits::default());
        let payload = Request::Query { session: 9 }.encode();
        state.ingest(&frame(&payload)).unwrap();
        state.set_peer_closed();
        assert!(!state.finished(), "queued work must finish first");
        let dispatched = state.next_dispatch().expect("dispatch");
        assert_eq!(dispatched, payload);
        state.respond(&Response::Busy.encode()).unwrap();
        let buffered = state.buffered_write_bytes();
        state.advance_write(buffered);
        assert!(state.finished());
    }
}
