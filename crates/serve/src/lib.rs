//! `hotpath-serve`: a sharded, session-multiplexed serving layer for the
//! hot-path prediction engines.
//!
//! The paper's pipeline — profile, predict (NET), compile, link — runs
//! per process. This crate turns it into a service: a
//! [`SessionManager`] owns a pool of worker shards, each a thread with a
//! private table of [`Session`]s, and multiplexes many concurrent
//! sessions over them. Two front-ends share one request enum:
//!
//! * **in-process** — call [`SessionManager::request`] directly;
//! * **TCP** (unix only) — `serve` binds a listener and speaks the same
//!   [`Request`]/[`Response`] pairs as length-prefixed binary frames
//!   ([`protocol`]) from a nonblocking reactor; [`Client`] is the
//!   matching blocking client.
//!
//! Admission control is explicit rather than elastic: bounded shard
//! queues and session tables answer [`Response::Busy`] instead of
//! buffering without limit, and per-session fuel budgets
//! ([`SessionConfig::fuel_budget`]) bound how much execution a session
//! may consume.
//!
//! Sessions can be captured into persistent snapshots
//! ([`SessionSnapshot`]) — a versioned, checksummed binary image of the
//! engine's warm state (fragments, exit counters, NET counters) plus,
//! for workload-executing sessions, the exact machine state. Restoring
//! one resumes with a warm fragment cache, and the run's final
//! statistics, memory, and globals are bit-identical to a run that was
//! never interrupted: the same invariant the trace backend already
//! guarantees for flushes and slicing, extended across process
//! boundaries.

#![warn(missing_docs)]

mod client;
mod manager;
pub mod profile_store;
pub mod protocol;
mod session;
mod shard;
pub mod snapshot;
mod wire;

// The TCP front-end (server, its reactor, and their OS bindings) is
// unix-only; everything else, the in-process `SessionManager` API
// included, builds anywhere.
#[cfg(unix)]
mod reactor;
#[cfg(unix)]
mod server;
#[cfg(unix)]
mod sys;

pub use client::{Client, ClientError, RetryPolicy};
pub use hotpath_faultinject::{FaultPlan, FaultPoint};
pub use manager::{ServeConfig, SessionManager};
pub use profile_store::{
    MergePolicy, PrewarmProfile, ProfileError, ProfileKey, ProfileStore, ProfileStoreConfig,
    ProfileStoreStats, PublishInfo, SessionProfile, PROFILE_MAGIC, PROFILE_VERSION,
};
pub use protocol::{
    read_frame, write_frame, PrewarmOutcome, ProtocolError, Request, Response, ServerStats,
    MAX_FRAME_BYTES,
};
#[cfg(unix)]
pub use reactor::{ConnError, ConnLimits, ConnState};
#[cfg(unix)]
pub use server::{serve, DrainTrigger, ServerHandle};
pub use session::{Session, SessionConfig, SessionStatus};
pub use snapshot::{SessionSnapshot, SnapshotError, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
#[cfg(unix)]
pub use sys::{block_until_signal, install_drain_signals};
