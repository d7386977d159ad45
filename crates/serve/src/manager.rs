//! The [`SessionManager`]: routes requests to a sharded pool of worker
//! threads and is itself the in-process serving API.
//!
//! Sessions are assigned round-robin-by-id (`shard = id % shards`), so
//! routing is a pure function of the session id and every request for a
//! session lands on the thread that owns it. Admission control is
//! layered:
//!
//! * **queue bound** — each shard's queue holds at most
//!   [`ServeConfig::queue_depth`] jobs; a full queue returns
//!   [`Response::Busy`] immediately (`try_send`, never blocking the
//!   caller);
//! * **session table bound** — a shard at
//!   [`ServeConfig::max_sessions_per_shard`] refuses new opens with
//!   `Busy`;
//! * **fuel budgets** — per-session block budgets fail `run` requests
//!   once exhausted (see [`SessionConfig::fuel_budget`]).
//!
//! Request handling is split into three phases so both front-ends share
//! one code path: [`prepare`](SessionManager::prepare) resolves routing
//! and pre-dispatch work on the caller's thread,
//! [`submit`](SessionManager::submit) enqueues without ever blocking,
//! and [`finish`](SessionManager::finish) emits the response-dependent
//! telemetry. The blocking in-process API ([`request`]) strings the
//! three together around a rendezvous channel; the reactor front-end
//! runs `prepare`/`submit` at dispatch and `finish` when the completion
//! comes back, never parking its event loop.
//!
//! [`request`]: SessionManager::request
//! [`SessionConfig::fuel_budget`]: crate::SessionConfig::fuel_budget

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};

use hotpath_faultinject::FaultPlan;
use hotpath_selfprof as selfprof;
use hotpath_telemetry as telemetry;

use crate::profile_store::{ProfileKey, ProfileStore, ProfileStoreConfig, SessionProfile};
use crate::protocol::{PrewarmOutcome, Request, Response, ServerStats};
use crate::shard::{spawn, Job, ReplyTo, ShardCounters, ShardRequest};
use crate::snapshot::SessionSnapshot;

/// Pool shape and admission-control bounds.
// `FaultPlan` holds per-point `f64` rates, so `chaos` rules out `Eq`.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ServeConfig {
    /// Worker threads; sessions are partitioned across them by id.
    pub shards: u32,
    /// Jobs a shard queues before refusing with `Busy`.
    pub queue_depth: usize,
    /// Live sessions a shard holds before refusing opens with `Busy`.
    pub max_sessions_per_shard: usize,
    /// Reactor event-loop threads for the TCP front-end (ignored by the
    /// in-process API).
    pub reactors: u32,
    /// Soft per-connection write-buffer bound: a connection holding more
    /// than this many unflushed response bytes answers new requests with
    /// [`Response::Busy`] until the peer drains it. The hard bound (4x)
    /// stops reading from the socket entirely.
    pub write_buf_limit: usize,
    /// How long a draining TCP front-end waits for in-flight work before
    /// closing connections that still owe responses (the reactor counts
    /// it off in drain ticks).
    pub drain_deadline_ms: u64,
    /// Fault plan armed across the serve stack (the TCP front-end's wire
    /// seams, shard panic injection, publish poisoning). `None` — the
    /// default — compiles the hooks in but leaves every probe one
    /// untaken branch.
    pub chaos: Option<FaultPlan>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: 4,
            queue_depth: 32,
            max_sessions_per_shard: 64,
            reactors: 1,
            write_buf_limit: 256 << 10,
            drain_deadline_ms: 5_000,
            chaos: None,
        }
    }
}

/// Pre-dispatch outcome: either the response is already known, or the
/// request routes to a shard.
#[derive(Debug)]
pub(crate) enum Prepared {
    /// No shard involved — answer immediately.
    Immediate(Response),
    /// Routed: submit `shard_request` for `session`, then pass `note`
    /// to [`SessionManager::finish`] with the eventual response.
    Route {
        session: u64,
        shard_request: ShardRequest,
        note: RequestNote,
    },
}

/// What [`SessionManager::finish`] needs to emit response-dependent
/// telemetry once a routed request completes. Carried by the caller
/// (blocking API: on the stack; reactor: in the connection's in-flight
/// slot) so completion handling stays thread-agnostic.
#[derive(Debug)]
pub(crate) enum RequestNote {
    /// Nothing to emit beyond the generic busy accounting.
    Plain,
    /// A fresh open: emit `SessionOpened` on success.
    Open { workload: &'static str },
    /// A restore: emit `SessionOpened` + `SnapshotRestored` on success.
    Restore {
        workload: &'static str,
        bytes: u64,
        fragments: u64,
    },
    /// A snapshot capture: emit `SnapshotSaved` with the blob's size.
    Snapshot { session: u64 },
    /// A close: emit `SessionClosed` on success.
    Close { session: u64 },
    /// A profile publish: emit `ProfilePublished` + `ProfileMerged` on
    /// success.
    Publish { session: u64 },
    /// A sequenced (idempotent) mutation: run the wrapped note, then
    /// record the outcome in the replay cache under `key`.
    Sequenced {
        seq: u64,
        key: DedupKey,
        inner: Box<RequestNote>,
    },
}

/// Where a sequenced request's outcome is cached for replay.
#[derive(Clone, Copy, Debug)]
pub(crate) enum DedupKey {
    /// Sequenced `Open`/`Restore`: the sequence number doubles as a
    /// client-chosen nonce, so a re-sent open lands on the cached
    /// `Opened` instead of leaking a second session.
    Nonce(u64),
    /// Session-scoped mutation: dedup on the session's last sequence
    /// number.
    Session(u64),
}

/// Replay cache for sequenced requests. Only sequenced traffic touches
/// it — clients that never wrap requests never take the lock, keeping
/// the hot unsequenced path cost-free. Both maps are FIFO-bounded so a
/// long-lived server cannot grow without bound.
#[derive(Debug, Default)]
struct DedupState {
    /// Nonce → cached `Opened` (or deterministic failure) response.
    opens: HashMap<u64, Response>,
    open_order: VecDeque<u64>,
    /// Session → (last seq, cached response for that seq).
    sessions: HashMap<u64, (u64, Response)>,
    session_order: VecDeque<u64>,
}

/// Distinct open nonces remembered for replay.
const DEDUP_OPEN_CAP: usize = 1024;
/// Distinct sessions with a remembered last-seq outcome.
const DEDUP_SESSION_CAP: usize = 4096;

/// The sharded session pool. Cheap to share (`Arc`) across connection
/// threads; every method takes `&self`.
#[derive(Debug)]
pub struct SessionManager {
    config: ServeConfig,
    shards: Vec<SyncSender<Job>>,
    counters: Vec<Arc<ShardCounters>>,
    store: Arc<ProfileStore>,
    next_id: AtomicU64,
    down: AtomicBool,
    /// Replay cache for sequenced requests; untouched by unsequenced
    /// traffic.
    dedup: Mutex<DedupState>,
    /// Join handles drained at shutdown (kept apart from the senders so
    /// `request` never takes a lock).
    joins: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl SessionManager {
    /// Spawns the shard pool with the default profile-store shape.
    ///
    /// # Panics
    ///
    /// Panics if `config.shards` is zero or a queue depth of zero is
    /// requested (a rendezvous queue would make every request `Busy`).
    pub fn new(config: ServeConfig) -> SessionManager {
        SessionManager::with_profile_config(config, ProfileStoreConfig::default())
    }

    /// Spawns the shard pool with an explicit profile-store shape
    /// (merge policies, decay quantum, tie-break seed).
    ///
    /// # Panics
    ///
    /// As [`SessionManager::new`], plus a zero epoch quantum.
    pub fn with_profile_config(
        config: ServeConfig,
        profile_config: ProfileStoreConfig,
    ) -> SessionManager {
        assert!(config.shards > 0, "need at least one shard");
        assert!(config.queue_depth > 0, "queue depth must be positive");
        let store = Arc::new(ProfileStore::new(profile_config));
        let mut shards = Vec::with_capacity(config.shards as usize);
        let mut counters = Vec::with_capacity(config.shards as usize);
        let mut joins = Vec::with_capacity(config.shards as usize);
        for shard_id in 0..config.shards {
            let (sender, shard_counters, thread) = spawn(
                shard_id,
                config.queue_depth,
                config.max_sessions_per_shard,
                Arc::clone(&store),
                // Each shard gets its own deterministic sub-stream so
                // panic schedules differ per shard but replay per seed.
                config.chaos.map(|plan| plan.derive(u64::from(shard_id))),
            );
            shards.push(sender);
            counters.push(shard_counters);
            joins.push(thread);
        }
        SessionManager {
            config,
            shards,
            counters,
            store,
            next_id: AtomicU64::new(1),
            down: AtomicBool::new(false),
            dedup: Mutex::new(DedupState::default()),
            joins: Mutex::new(joins),
        }
    }

    /// The fleet profile store shared by every shard.
    pub fn profile_store(&self) -> &ProfileStore {
        &self.store
    }

    /// Number of shards in the pool.
    pub fn shards(&self) -> u32 {
        self.config.shards
    }

    /// The pool configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Serves one request — the in-process API's single entry point.
    /// Never blocks on a full queue: backpressure surfaces as
    /// [`Response::Busy`].
    pub fn request(&self, request: Request) -> Response {
        match self.prepare(request) {
            Prepared::Immediate(response) => response,
            Prepared::Route {
                session,
                shard_request,
                note,
            } => {
                let shard = self.shard_of(session);
                let (reply_tx, reply_rx) = sync_channel(1);
                let response = match self.submit(session, shard_request, ReplyTo::Sync(reply_tx)) {
                    Ok(()) => reply_rx.recv().unwrap_or(Response::ShuttingDown),
                    Err(refused) => refused,
                };
                self.finish(shard, &note, &response);
                response
            }
        }
    }

    /// Phase one: resolve routing and pre-dispatch work (id assignment,
    /// snapshot decoding) on the caller's thread.
    pub(crate) fn prepare(&self, request: Request) -> Prepared {
        if self.down.load(Ordering::Acquire) {
            return Prepared::Immediate(Response::ShuttingDown);
        }
        match request {
            Request::Open { config } => {
                let workload = config.label();
                self.route_open(
                    |id| ShardRequest::Open { id, config },
                    RequestNote::Open { workload },
                )
            }
            Request::Restore { blob } => match selfprof::stage!(
                selfprof::Stage::SnapshotRestore,
                SessionSnapshot::decode(&blob)
            ) {
                Ok(snapshot) => {
                    let note = RequestNote::Restore {
                        workload: snapshot.config.label(),
                        bytes: blob.len() as u64,
                        fragments: snapshot.warm.fragments.len() as u64,
                    };
                    self.route_open(
                        |id| ShardRequest::Restore {
                            id,
                            snapshot: Box::new(snapshot),
                        },
                        note,
                    )
                }
                Err(e) => Prepared::Immediate(Response::Error {
                    message: e.to_string(),
                }),
            },
            Request::Run { session, fuel } => Prepared::Route {
                session,
                shard_request: ShardRequest::Run { id: session, fuel },
                note: RequestNote::Plain,
            },
            Request::Ingest { session, events } => Prepared::Route {
                session,
                shard_request: ShardRequest::Ingest {
                    id: session,
                    events,
                },
                note: RequestNote::Plain,
            },
            Request::Query { session } => Prepared::Route {
                session,
                shard_request: ShardRequest::Query { id: session },
                note: RequestNote::Plain,
            },
            Request::Snapshot { session } => Prepared::Route {
                session,
                shard_request: ShardRequest::Snapshot { id: session },
                note: RequestNote::Snapshot { session },
            },
            Request::Flush { session } => Prepared::Route {
                session,
                shard_request: ShardRequest::Flush { id: session },
                note: RequestNote::Plain,
            },
            Request::Close { session } => Prepared::Route {
                session,
                shard_request: ShardRequest::Close { id: session },
                note: RequestNote::Close { session },
            },
            Request::Stats => Prepared::Immediate(Response::ServerStats(self.server_stats())),
            Request::PublishProfile { session } => Prepared::Route {
                session,
                shard_request: ShardRequest::Publish { id: session },
                note: RequestNote::Publish { session },
            },
            // Pure store read — answered on the caller's thread, no
            // shard involved.
            Request::FetchProfile { config } => {
                let key = ProfileKey::of(&config);
                Prepared::Immediate(match self.store.fetch(&key) {
                    Some(aggregate) => Response::ProfileBlob {
                        blob: SessionProfile {
                            key,
                            epoch: aggregate.epoch,
                            warm: aggregate.warm.clone(),
                        }
                        .encode(),
                    },
                    None => Response::Error {
                        message: format!("no aggregate profile for {}", key.label()),
                    },
                })
            }
            Request::Sequenced { seq, inner } => {
                let key = match inner.sequenced_session() {
                    Some(session) => Some(DedupKey::Session(session)),
                    None => match *inner {
                        Request::Open { .. } | Request::Restore { .. } => {
                            Some(DedupKey::Nonce(seq))
                        }
                        _ => None,
                    },
                };
                // Sequencing a read adds nothing — serve it as if
                // unwrapped.
                let Some(key) = key else {
                    return self.prepare(*inner);
                };
                if let Some(cached) = self.replay(key, seq) {
                    return Prepared::Immediate(cached);
                }
                match self.prepare(*inner) {
                    Prepared::Route {
                        session,
                        shard_request,
                        note,
                    } => Prepared::Route {
                        session,
                        shard_request,
                        note: RequestNote::Sequenced {
                            seq,
                            key,
                            inner: Box::new(note),
                        },
                    },
                    immediate => immediate,
                }
            }
            // Process lifecycle belongs to the host (TCP server or the
            // owner of this manager), not to a shard.
            Request::Shutdown => Prepared::Immediate(Response::ShuttingDown),
        }
    }

    /// Checks the replay cache for a sequenced request. A hit means the
    /// mutation already executed and the client merely lost the
    /// response; a stale sequence number (client went backwards) is
    /// answered with an error rather than re-executed.
    fn replay(&self, key: DedupKey, seq: u64) -> Option<Response> {
        let dedup = self.dedup.lock().expect("dedup cache poisoned");
        match key {
            DedupKey::Nonce(nonce) => dedup.opens.get(&nonce).cloned(),
            DedupKey::Session(session) => {
                let &(last, ref cached) = dedup.sessions.get(&session)?;
                if seq == last {
                    Some(cached.clone())
                } else if seq < last {
                    Some(Response::Error {
                        message: format!(
                            "stale sequence number {seq} for session {session} (last {last})"
                        ),
                    })
                } else {
                    None
                }
            }
        }
    }

    /// Records a sequenced request's outcome for replay. Refusals
    /// (`Busy`/`ShuttingDown`) and errors are not outcomes: the shard
    /// either never executed the mutation or rejected it without
    /// mutating, so a retried seq must re-execute.
    fn record(&self, key: DedupKey, seq: u64, response: &Response) {
        if matches!(
            response,
            Response::Busy | Response::ShuttingDown | Response::Error { .. }
        ) {
            return;
        }
        let mut dedup = self.dedup.lock().expect("dedup cache poisoned");
        match key {
            DedupKey::Nonce(nonce) => {
                if dedup.opens.insert(nonce, response.clone()).is_none() {
                    dedup.open_order.push_back(nonce);
                    if dedup.open_order.len() > DEDUP_OPEN_CAP {
                        if let Some(evicted) = dedup.open_order.pop_front() {
                            dedup.opens.remove(&evicted);
                        }
                    }
                }
            }
            DedupKey::Session(session) => {
                if dedup
                    .sessions
                    .insert(session, (seq, response.clone()))
                    .is_none()
                {
                    dedup.session_order.push_back(session);
                    if dedup.session_order.len() > DEDUP_SESSION_CAP {
                        if let Some(evicted) = dedup.session_order.pop_front() {
                            dedup.sessions.remove(&evicted);
                        }
                    }
                }
            }
        }
    }

    fn route_open(&self, make: impl FnOnce(u64) -> ShardRequest, note: RequestNote) -> Prepared {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        Prepared::Route {
            session: id,
            shard_request: make(id),
            note,
        }
    }

    pub(crate) fn shard_of(&self, session: u64) -> u32 {
        (session % u64::from(self.config.shards)) as u32
    }

    /// Phase two: enqueue a routed request without blocking. `Err` is
    /// the refusal to hand straight back (`Busy` on a full queue,
    /// `ShuttingDown` on a dead shard); `Ok` means `reply` will
    /// eventually receive the response.
    // The `Err` is a ready-to-send refusal `Response`; boxing it would
    // push an allocation onto the backpressure path, which must stay
    // allocation-free.
    #[allow(clippy::result_large_err)]
    pub(crate) fn submit(
        &self,
        session: u64,
        shard_request: ShardRequest,
        reply: ReplyTo,
    ) -> Result<(), Response> {
        let shard = self.shard_of(session);
        let job = Job::Request {
            request: shard_request,
            reply,
        };
        match self.shards[shard as usize].try_send(job) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(_)) => {
                telemetry::emit!(telemetry::Event::ShardBusy { shard });
                Err(Response::Busy)
            }
            Err(TrySendError::Disconnected(_)) => Err(Response::ShuttingDown),
        }
    }

    /// Phase three: response-dependent accounting, on whichever thread
    /// observed the completion.
    pub(crate) fn finish(&self, shard: u32, note: &RequestNote, response: &Response) {
        if matches!(response, Response::Busy) {
            telemetry::emit!(telemetry::Event::ShardBusy { shard });
        }
        match note {
            RequestNote::Plain => {}
            RequestNote::Open { workload } => {
                if let Response::Opened {
                    session,
                    shard,
                    prewarm,
                } = response
                {
                    telemetry::emit!(telemetry::Event::SessionOpened {
                        session: *session,
                        shard: *shard,
                        workload,
                    });
                    match prewarm {
                        PrewarmOutcome::NotRequested => {}
                        PrewarmOutcome::Warmed {
                            fragments,
                            counters,
                        } => {
                            telemetry::emit!(telemetry::Event::SessionPrewarmed {
                                session: *session,
                                fragments: *fragments,
                                counters: *counters,
                            });
                        }
                        PrewarmOutcome::Rejected { reason } => {
                            telemetry::emit!(telemetry::Event::PrewarmRejected {
                                session: *session,
                                reason,
                            });
                        }
                    }
                }
            }
            RequestNote::Restore {
                workload,
                bytes,
                fragments,
            } => {
                if let Response::Opened { session, shard, .. } = response {
                    telemetry::emit!(telemetry::Event::SessionOpened {
                        session: *session,
                        shard: *shard,
                        workload,
                    });
                    telemetry::emit!(telemetry::Event::SnapshotRestored {
                        session: *session,
                        bytes: *bytes,
                        fragments: *fragments,
                    });
                }
            }
            RequestNote::Snapshot { session } => {
                if let Response::SnapshotBlob { blob } = response {
                    if let Ok(snapshot) = SessionSnapshot::decode(blob) {
                        telemetry::emit!(telemetry::Event::SnapshotSaved {
                            session: *session,
                            bytes: blob.len() as u64,
                            fragments: snapshot.warm.fragments.len() as u64,
                        });
                    }
                }
            }
            RequestNote::Close { session } => {
                if let Response::Closed { blocks } = response {
                    telemetry::emit!(telemetry::Event::SessionClosed {
                        session: *session,
                        shard,
                        blocks: *blocks,
                    });
                }
            }
            RequestNote::Publish { session } => {
                if let Response::ProfilePublished {
                    workload,
                    publishers,
                    generation,
                    fragments,
                    epoch,
                    quarantined,
                } = response
                {
                    if *quarantined {
                        telemetry::emit!(telemetry::Event::ProfileQuarantined {
                            session: *session,
                            workload,
                            fragments: *fragments,
                        });
                    } else {
                        telemetry::emit!(telemetry::Event::ProfilePublished {
                            session: *session,
                            fragments: *fragments,
                            epoch: *epoch,
                        });
                        telemetry::emit!(telemetry::Event::ProfileMerged {
                            workload,
                            publishers: *publishers,
                            generation: *generation,
                        });
                    }
                }
            }
            RequestNote::Sequenced { seq, key, inner } => {
                self.finish(shard, inner, response);
                self.record(*key, *seq, response);
            }
        }
    }

    /// Whole-server counters, summed across shards. The connection
    /// fields are zero here; the reactor front-end overlays its own
    /// counts before answering [`Request::Stats`] over TCP.
    pub fn server_stats(&self) -> ServerStats {
        let store_stats = self.store.stats();
        let mut stats = ServerStats {
            rss_max_bytes: max_rss(),
            profiles_held: store_stats.profiles_held,
            profile_bytes: store_stats.bytes,
            profiles_quarantined: store_stats.quarantined,
            ..ServerStats::default()
        };
        for counters in &self.counters {
            stats.live_sessions += counters.live.load(Ordering::Relaxed);
            stats.sessions_opened += counters.opened.load(Ordering::Relaxed);
            stats.sessions_closed += counters.closed.load(Ordering::Relaxed);
            stats.sessions_prewarmed += counters.prewarmed.load(Ordering::Relaxed);
            stats.shards_restarted += counters.restarted.load(Ordering::Relaxed);
            stats.sessions_readmitted += counters.readmitted.load(Ordering::Relaxed);
            // Refresh age: how many merges behind the store the
            // staleness-worst shard cache is. Shards that have never
            // consulted the store report the full generation lag.
            let shard_gen = counters.profile_gen.load(Ordering::Acquire);
            stats.profile_refresh_age = stats
                .profile_refresh_age
                .max(store_stats.generation.saturating_sub(shard_gen));
        }
        stats
    }

    /// Snapshots every resident session across every shard, sorted by
    /// session id. Used by the drain path to park warm state on disk;
    /// returns empty once the pool is shut down.
    pub fn snapshot_all(&self) -> Vec<(u64, Vec<u8>)> {
        if self.down.load(Ordering::Acquire) {
            return Vec::new();
        }
        let mut replies = Vec::with_capacity(self.shards.len());
        for sender in &self.shards {
            let (reply_tx, reply_rx) = sync_channel(1);
            // Blocking send: drain must not be droppable by a full
            // queue; the shard processes queued work ahead of it.
            if sender.send(Job::SnapshotAll { reply: reply_tx }).is_ok() {
                replies.push(reply_rx);
            }
        }
        let mut blobs: Vec<(u64, Vec<u8>)> = replies
            .into_iter()
            .filter_map(|rx| rx.recv().ok())
            .flatten()
            .collect();
        blobs.sort_by_key(|&(id, _)| id);
        blobs
    }

    /// Stops every shard and joins its thread. Idempotent; requests
    /// arriving afterwards get [`Response::ShuttingDown`].
    pub fn shutdown(&self) {
        if self.down.swap(true, Ordering::AcqRel) {
            return;
        }
        for sender in &self.shards {
            // Blocking send: shutdown must not be droppable by a full
            // queue; the shard drains ahead of it and then exits.
            let _ = sender.send(Job::Shutdown);
        }
        let joins = std::mem::take(&mut *self.joins.lock().expect("join set poisoned"));
        for handle in joins {
            let _ = handle.join();
        }
    }
}

impl Drop for SessionManager {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Peak RSS of this process; zero where the platform offers no cheap
/// readout. Goes through the self-profiler's cached high-water mark, so
/// with the selfprof feature on the aggregator keeps it fresh between
/// stats requests.
fn max_rss() -> u64 {
    selfprof::peak_rss_bytes()
}
