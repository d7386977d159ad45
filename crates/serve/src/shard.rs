//! One shard: a worker thread owning a private session table, fed
//! through a bounded queue.
//!
//! Sessions are partitioned across shards by id, so a session's entire
//! lifetime runs on one thread — no locks around engine or VM state, and
//! isolation between sessions is structural (each [`Session`] owns its
//! state outright). Backpressure is the queue bound itself: the manager
//! uses `try_send`, and a full queue surfaces as an explicit
//! [`Response::Busy`] instead of unbounded buffering.

use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use hotpath_faultinject::{FaultInjector, FaultPlan, FaultPoint};
use hotpath_selfprof as selfprof;
use hotpath_telemetry as telemetry;
use hotpath_vm::BlockEvent;

use crate::profile_store::{PrewarmProfile, ProfileKey, ProfileStore, SessionProfile};
use crate::protocol::{PrewarmOutcome, Response};
use crate::session::{Session, SessionConfig};
use crate::snapshot::SessionSnapshot;

/// Where a shard delivers a finished response.
///
/// The in-process API parks the caller on a rendezvous channel; the
/// reactor front-end must never block, so its completions ride a plain
/// queue paired with a self-pipe wake of the owning event loop.
#[derive(Debug)]
pub(crate) enum ReplyTo {
    /// Blocking caller: one rendezvous slot, receiver waits.
    Sync(SyncSender<Response>),
    /// Reactor completion: enqueue and wake the event loop.
    #[cfg(unix)]
    Reactor {
        /// Connection token the response belongs to (generation-tagged;
        /// the reactor discards completions for recycled slots).
        token: u64,
        /// The owning reactor's completion queue.
        tx: std::sync::mpsc::Sender<crate::reactor::Completion>,
        /// Self-pipe that unparks the reactor's poller.
        wake: Arc<crate::sys::WakePipe>,
    },
}

impl ReplyTo {
    /// Delivers the response; a dead receiver means the requester gave
    /// up, which is never an error for the shard.
    pub(crate) fn send(self, response: Response) {
        match self {
            ReplyTo::Sync(reply) => {
                let _ = reply.send(response);
            }
            #[cfg(unix)]
            ReplyTo::Reactor { token, tx, wake } => {
                let _ = tx.send(crate::reactor::Completion { token, response });
                wake.wake();
            }
        }
    }
}

/// Lifetime counters a shard worker maintains; the manager sums them
/// across shards to answer [`Request::Stats`](crate::Request::Stats).
#[derive(Debug, Default)]
pub(crate) struct ShardCounters {
    /// Sessions currently resident in the shard's table.
    pub live: AtomicU64,
    /// Sessions ever opened (including restores).
    pub opened: AtomicU64,
    /// Sessions ever closed.
    pub closed: AtomicU64,
    /// Sessions pre-warmed from the fleet profile store.
    pub prewarmed: AtomicU64,
    /// Store generation the shard's read-mostly profile cache last
    /// synced at; the manager reports the worst lag as refresh age.
    pub profile_gen: AtomicU64,
    /// Times the shard's worker recovered from a panic (its session
    /// table rebuilt from seeds).
    pub restarted: AtomicU64,
    /// Sessions re-admitted after worker panics, warm or cold.
    pub readmitted: AtomicU64,
}

/// A request already routed to a shard (session ids resolved by the
/// manager).
#[derive(Debug)]
pub(crate) enum ShardRequest {
    Open {
        id: u64,
        config: SessionConfig,
    },
    Restore {
        id: u64,
        snapshot: Box<SessionSnapshot>,
    },
    Run {
        id: u64,
        fuel: Option<u64>,
    },
    Ingest {
        id: u64,
        events: Vec<BlockEvent>,
    },
    Query {
        id: u64,
    },
    Snapshot {
        id: u64,
    },
    Flush {
        id: u64,
    },
    Close {
        id: u64,
    },
    /// Publish the session's warm state into the fleet profile store.
    Publish {
        id: u64,
    },
}

/// One queued unit of work: a routed request plus the reply slot.
#[derive(Debug)]
pub(crate) enum Job {
    Request {
        request: ShardRequest,
        reply: ReplyTo,
    },
    /// Snapshot every resident session (used by the drain path to park
    /// warm state on disk before the process exits).
    SnapshotAll {
        reply: SyncSender<Vec<(u64, Vec<u8>)>>,
    },
    /// Drain and exit; sent once by the manager at shutdown.
    Shutdown,
}

/// Spawns a shard worker; returns its queue sender, lifetime counters,
/// and join handle. `chaos` (already derived per shard by the manager)
/// arms the worker's fault injector; `None` leaves every probe one
/// untaken branch.
pub(crate) fn spawn(
    shard_id: u32,
    queue_depth: usize,
    max_sessions: usize,
    store: Arc<ProfileStore>,
    chaos: Option<FaultPlan>,
) -> (SyncSender<Job>, Arc<ShardCounters>, JoinHandle<()>) {
    let (sender, receiver) = sync_channel(queue_depth);
    let counters = Arc::new(ShardCounters::default());
    let thread = {
        let counters = Arc::clone(&counters);
        std::thread::Builder::new()
            .name(format!("hotpath-shard-{shard_id}"))
            .spawn(move || worker(shard_id, &receiver, max_sessions, &counters, &store, chaos))
            .expect("spawn shard thread")
    };
    (sender, counters, thread)
}

/// One slot of the shard's read-mostly profile cache: the aggregate (or
/// confirmed absence of one) as of a store generation.
struct CachedProfile {
    generation: u64,
    profile: Option<Arc<PrewarmProfile>>,
}

/// Shard-thread-local worker state beyond the session table.
struct Worker<'a> {
    shard_id: u32,
    max_sessions: usize,
    counters: &'a ShardCounters,
    store: &'a ProfileStore,
    /// Read-mostly cache of store aggregates. Admission consults this
    /// after one lock-free generation check; the store mutex is only
    /// touched when the cache is behind, so opening a session never
    /// contends with other shards in steady state.
    profiles: BTreeMap<ProfileKey, CachedProfile>,
    /// Seeded fault injector (shard-panic and publish-poison points).
    /// Disabled unless the pool was configured with a chaos plan.
    injector: FaultInjector,
}

/// Everything the supervisor needs to bring a session back after a
/// worker panic: its opening configuration always, plus — only while the
/// injector is armed — the last sealed snapshot. An unsealed seed
/// re-admits cold (prewarmed when the config asks for it), which is
/// slower but bit-identical for deterministic workloads.
struct SessionSeed {
    config: SessionConfig,
    sealed: Option<Vec<u8>>,
}

/// Seed-table maintenance derived from a request before it is handled
/// (the request itself is consumed — possibly by a panic — inside the
/// unwind boundary).
enum SeedUpdate {
    None,
    /// Open or restore: record the seed on success.
    Open {
        id: u64,
        config: SessionConfig,
    },
    /// Run/ingest/flush: re-seal the session's snapshot on success
    /// (armed injector only — unarmed shards skip the capture cost).
    Mutate {
        id: u64,
    },
    /// Snapshot: the response already carries a sealed blob; keep it.
    Seal {
        id: u64,
    },
    /// Close: drop the seed on success.
    Close {
        id: u64,
    },
}

/// Consecutive panics before the circuit breaker trips and the worker
/// exits for good (requests then surface `ShuttingDown`).
const PANIC_BREAKER: u32 = 8;
/// Base restart backoff; doubles per consecutive panic, capped at
/// [`PANIC_BACKOFF_CAP_MS`].
const PANIC_BACKOFF_BASE_MS: u64 = 1;
const PANIC_BACKOFF_CAP_MS: u64 = 100;

impl Worker<'_> {
    /// The store aggregate for `key`, through the shard-local cache.
    fn cached_aggregate(&mut self, key: ProfileKey) -> Option<Arc<PrewarmProfile>> {
        let generation = self.store.generation();
        let hit = self
            .profiles
            .get(&key)
            .is_some_and(|c| c.generation == generation);
        if !hit {
            self.profiles.insert(
                key,
                CachedProfile {
                    generation,
                    profile: self.store.fetch(&key),
                },
            );
        }
        self.counters
            .profile_gen
            .store(generation, Ordering::Release);
        self.profiles.get(&key).unwrap().profile.clone()
    }

    /// A session snapshot with the fleet aggregate for its key attached,
    /// so restoring the snapshot can re-seed the store.
    fn snapshot_with_profile(&mut self, session: &Session) -> SessionSnapshot {
        let mut snapshot = session.snapshot();
        snapshot.profile = self
            .cached_aggregate(ProfileKey::of(session.config()))
            .map(|p| SessionProfile {
                key: p.key,
                epoch: p.epoch,
                warm: p.warm.clone(),
            });
        snapshot
    }
}

fn worker(
    shard_id: u32,
    receiver: &Receiver<Job>,
    max_sessions: usize,
    counters: &ShardCounters,
    store: &ProfileStore,
    chaos: Option<FaultPlan>,
) {
    let mut sessions: HashMap<u64, Session> = HashMap::new();
    let mut seeds: HashMap<u64, SessionSeed> = HashMap::new();
    let mut worker = Worker {
        shard_id,
        max_sessions,
        counters,
        store,
        profiles: BTreeMap::new(),
        injector: chaos.map_or_else(FaultInjector::disabled, FaultInjector::new),
    };
    let mut consecutive_panics = 0u32;
    while let Ok(job) = receiver.recv() {
        let (request, reply) = match job {
            Job::Request { request, reply } => (request, reply),
            Job::SnapshotAll { reply } => {
                let mut blobs: Vec<(u64, Vec<u8>)> = sessions
                    .iter()
                    .map(|(&id, session)| (id, worker.snapshot_with_profile(session).encode()))
                    .collect();
                blobs.sort_by_key(|&(id, _)| id);
                let _ = reply.send(blobs);
                continue;
            }
            Job::Shutdown => break,
        };
        // Seed-table bookkeeping is decided before the request crosses
        // the unwind boundary (a panic consumes it).
        let update = seed_update(&request);
        // Supervision: the session table crosses the boundary (`handle`
        // mutates it), but the seed table and reply slot stay out here,
        // so a panicked request is always answered and recovery always
        // has clean state to rebuild from.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            handle(&mut worker, &mut sessions, request)
        }));
        match outcome {
            Ok(response) => {
                consecutive_panics = 0;
                apply_seed_update(&mut worker, &sessions, &mut seeds, update, &response);
                // A dead reply slot means the requester gave up.
                reply.send(response);
            }
            Err(_) => {
                // The mutation may have half-applied; everything in the
                // table is now suspect. Answer `Busy` — the honest
                // "retry later" — then rebuild from seeds.
                reply.send(Response::Busy);
                consecutive_panics += 1;
                if consecutive_panics >= PANIC_BREAKER {
                    // Panic storm: stop flapping. The pool surfaces
                    // `ShuttingDown` for this shard from here on.
                    counters.live.store(0, Ordering::Relaxed);
                    return;
                }
                let backoff =
                    (PANIC_BACKOFF_BASE_MS << (consecutive_panics - 1)).min(PANIC_BACKOFF_CAP_MS);
                std::thread::sleep(Duration::from_millis(backoff));
                readmit(&mut worker, &mut sessions, &seeds);
                counters.restarted.fetch_add(1, Ordering::Relaxed);
                telemetry::emit!(telemetry::Event::ShardRestarted {
                    shard: shard_id,
                    consecutive: u64::from(consecutive_panics),
                    readmitted: sessions.len() as u64,
                });
            }
        }
    }
}

/// What the seed table should do once `request` completes successfully.
fn seed_update(request: &ShardRequest) -> SeedUpdate {
    match request {
        ShardRequest::Open { id, config } => SeedUpdate::Open {
            id: *id,
            config: config.clone(),
        },
        ShardRequest::Restore { id, snapshot } => SeedUpdate::Open {
            id: *id,
            config: snapshot.config.clone(),
        },
        ShardRequest::Run { id, .. }
        | ShardRequest::Ingest { id, .. }
        | ShardRequest::Flush { id } => SeedUpdate::Mutate { id: *id },
        ShardRequest::Snapshot { id } => SeedUpdate::Seal { id: *id },
        ShardRequest::Close { id } => SeedUpdate::Close { id: *id },
        ShardRequest::Query { .. } | ShardRequest::Publish { .. } => SeedUpdate::None,
    }
}

/// Applies a [`SeedUpdate`] after a successful (non-panicking) request.
/// Sealing is gated on an armed injector: unarmed shards keep only the
/// cheap config seed (cold-but-correct re-admission), never paying
/// snapshot-capture cost on the hot path.
fn apply_seed_update(
    worker: &mut Worker<'_>,
    sessions: &HashMap<u64, Session>,
    seeds: &mut HashMap<u64, SessionSeed>,
    update: SeedUpdate,
    response: &Response,
) {
    match update {
        SeedUpdate::None => {}
        SeedUpdate::Open { id, config } => {
            if matches!(response, Response::Opened { .. }) {
                let sealed = if worker.injector.armed() {
                    sessions
                        .get(&id)
                        .map(|s| worker.snapshot_with_profile(s).encode())
                } else {
                    None
                };
                seeds.insert(id, SessionSeed { config, sealed });
            }
        }
        SeedUpdate::Mutate { id } => {
            if worker.injector.armed() && !matches!(response, Response::Error { .. }) {
                if let Some(session) = sessions.get(&id) {
                    let sealed = worker.snapshot_with_profile(session).encode();
                    if let Some(seed) = seeds.get_mut(&id) {
                        seed.sealed = Some(sealed);
                    }
                }
            }
        }
        SeedUpdate::Seal { id } => {
            if let Response::SnapshotBlob { blob } = response {
                if worker.injector.armed() {
                    if let Some(seed) = seeds.get_mut(&id) {
                        seed.sealed = Some(blob.clone());
                    }
                }
            }
        }
        SeedUpdate::Close { id } => {
            if matches!(response, Response::Closed { .. }) {
                seeds.remove(&id);
            }
        }
    }
}

/// Rebuilds the session table from seeds after a panic: sealed seeds
/// restore to their exact snapshotted state; unsealed ones re-open cold
/// (prewarmed when the config asks), which costs warm-up time but — the
/// engine contract — never changes results.
fn readmit(
    worker: &mut Worker<'_>,
    sessions: &mut HashMap<u64, Session>,
    seeds: &HashMap<u64, SessionSeed>,
) {
    sessions.clear();
    let shard_id = worker.shard_id;
    // Deterministic rebuild order (telemetry and prewarm cache touches).
    let mut ids: Vec<u64> = seeds.keys().copied().collect();
    ids.sort_unstable();
    for id in ids {
        let seed = &seeds[&id];
        let restored = seed
            .sealed
            .as_deref()
            .and_then(|blob| SessionSnapshot::decode(blob).ok())
            .and_then(|snapshot| Session::restore(id, shard_id, &snapshot).ok());
        let warm = restored.is_some();
        let session = restored.unwrap_or_else(|| {
            let mut cold = Session::open(id, shard_id, seed.config.clone());
            if seed.config.prewarm {
                if let Some(aggregate) = worker.cached_aggregate(ProfileKey::of(&seed.config)) {
                    let _ = cold.prewarm(&aggregate.warm);
                }
            }
            cold
        });
        sessions.insert(id, session);
        worker.counters.readmitted.fetch_add(1, Ordering::Relaxed);
        telemetry::emit!(telemetry::Event::SessionReadmitted {
            session: id,
            shard: shard_id,
            warm,
        });
    }
    worker
        .counters
        .live
        .store(sessions.len() as u64, Ordering::Relaxed);
}

fn handle(
    worker: &mut Worker<'_>,
    sessions: &mut HashMap<u64, Session>,
    request: ShardRequest,
) -> Response {
    let _selfprof_dispatch = selfprof::StageGuard::enter(selfprof::Stage::ShardDispatch);
    let shard_id = worker.shard_id;
    let missing = |id: u64| Response::Error {
        message: format!("no session {id} on shard {shard_id}"),
    };
    match request {
        ShardRequest::Open { id, config } => {
            if sessions.len() >= worker.max_sessions {
                return Response::Busy;
            }
            let mut session = Session::open(id, shard_id, config.clone());
            let prewarm = if config.prewarm {
                let _selfprof_prewarm = selfprof::StageGuard::enter(selfprof::Stage::Prewarm);
                match worker.cached_aggregate(ProfileKey::of(&config)) {
                    Some(aggregate) => match session.prewarm(&aggregate.warm) {
                        Ok((fragments, counters)) => {
                            worker.counters.prewarmed.fetch_add(1, Ordering::Relaxed);
                            PrewarmOutcome::Warmed {
                                fragments,
                                counters,
                            }
                        }
                        Err(reason) => PrewarmOutcome::Rejected { reason },
                    },
                    None => PrewarmOutcome::Rejected {
                        reason: "no aggregate profile for this key yet".to_string(),
                    },
                }
            } else {
                PrewarmOutcome::NotRequested
            };
            sessions.insert(id, session);
            worker.counters.live.fetch_add(1, Ordering::Relaxed);
            worker.counters.opened.fetch_add(1, Ordering::Relaxed);
            Response::Opened {
                session: id,
                shard: shard_id,
                prewarm,
            }
        }
        ShardRequest::Restore { id, snapshot } => {
            if sessions.len() >= worker.max_sessions {
                return Response::Busy;
            }
            let restored = selfprof::stage!(
                selfprof::Stage::SnapshotRestore,
                Session::restore(id, shard_id, &snapshot)
            );
            match restored {
                Ok(session) => {
                    // A snapshot saved with a fleet aggregate re-seeds
                    // the store (one publisher's worth); a fleet
                    // restarted from parked snapshots warms its store
                    // back up without waiting for live publishes.
                    if let Some(profile) = &snapshot.profile {
                        let _ = selfprof::stage!(
                            selfprof::Stage::ProfilePublish,
                            worker.store.publish(profile)
                        );
                    }
                    sessions.insert(id, session);
                    worker.counters.live.fetch_add(1, Ordering::Relaxed);
                    worker.counters.opened.fetch_add(1, Ordering::Relaxed);
                    Response::Opened {
                        session: id,
                        shard: shard_id,
                        prewarm: PrewarmOutcome::NotRequested,
                    }
                }
                Err(message) => Response::Error { message },
            }
        }
        ShardRequest::Run { id, fuel } => match sessions.get_mut(&id) {
            Some(session) => {
                // Injected before the slice mutates anything, so the
                // re-admitted session replays from exactly this point.
                if worker.injector.armed() && worker.injector.fire(FaultPoint::ShardPanic) {
                    panic!("injected shard panic (run, session {id})");
                }
                match session.run(fuel) {
                    Ok((done, stats)) => Response::Ran { done, stats },
                    Err(message) => Response::Error { message },
                }
            }
            None => missing(id),
        },
        ShardRequest::Ingest { id, events } => match sessions.get_mut(&id) {
            Some(session) => {
                if worker.injector.armed() && worker.injector.fire(FaultPoint::ShardPanic) {
                    panic!("injected shard panic (ingest, session {id})");
                }
                match session.ingest(&events) {
                    Ok((events, paths, fragments)) => Response::Ingested {
                        events,
                        paths,
                        fragments,
                    },
                    Err(message) => Response::Error { message },
                }
            }
            None => missing(id),
        },
        ShardRequest::Query { id } => match sessions.get(&id) {
            Some(session) => Response::Status(session.status()),
            None => missing(id),
        },
        ShardRequest::Snapshot { id } => match sessions.get(&id) {
            Some(session) => Response::SnapshotBlob {
                blob: selfprof::stage!(
                    selfprof::Stage::SnapshotSave,
                    worker.snapshot_with_profile(session).encode()
                ),
            },
            None => missing(id),
        },
        ShardRequest::Flush { id } => match sessions.get_mut(&id) {
            Some(session) => {
                session.force_flush();
                Response::Status(session.status())
            }
            None => missing(id),
        },
        ShardRequest::Close { id } => match sessions.remove(&id) {
            Some(session) => {
                worker.counters.live.fetch_sub(1, Ordering::Relaxed);
                worker.counters.closed.fetch_add(1, Ordering::Relaxed);
                Response::Closed {
                    blocks: session.stats().blocks_executed,
                }
            }
            None => missing(id),
        },
        ShardRequest::Publish { id } => match sessions.get(&id) {
            Some(session) => {
                let profile = SessionProfile {
                    key: ProfileKey::of(session.config()),
                    epoch: session.epoch(),
                    warm: session.engine().export_warm_state(),
                };
                // Unhealthy sessions (bailed out, poisoned trace
                // heads) — or an injected poison — must
                // not feed the fleet aggregate; their warm state goes
                // to quarantine until an operator re-promotes the key.
                let quarantined = !session.healthy()
                    || (worker.injector.armed() && worker.injector.fire(FaultPoint::PublishPoison));
                let published = selfprof::stage!(
                    selfprof::Stage::ProfilePublish,
                    if quarantined {
                        worker.store.publish_quarantined(&profile)
                    } else {
                        worker.store.publish(&profile)
                    }
                );
                match published {
                    Ok(info) => Response::ProfilePublished {
                        workload: profile.key.label().to_string(),
                        publishers: info.publishers,
                        generation: info.generation,
                        fragments: info.fragments,
                        epoch: profile.epoch,
                        quarantined,
                    },
                    Err(message) => Response::Error { message },
                }
            }
            None => missing(id),
        },
    }
}
