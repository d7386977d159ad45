//! The serving protocol: length-prefixed frames carrying a fixed binary
//! encoding of requests and responses.
//!
//! # Frame layout
//!
//! Every message — both directions — is one frame:
//!
//! ```text
//! length:  u32 LE    payload byte count (opcode included)
//! opcode:  u8        message discriminator (see below)
//! body:    ...       opcode-specific fields, little-endian
//! ```
//!
//! Requests use opcodes `0x01..=0x0C`, responses `0x80..=0x8B`; the high
//! bit tells the two apart on the wire. Variable-length fields (strings,
//! event batches, snapshot blobs) are `u32`-length-prefixed; batched
//! control-flow events use the VM's 14-byte
//! [`encode_events`] wire form. Frames are
//! capped at [`MAX_FRAME_BYTES`] so a corrupt length prefix cannot make
//! the server allocate unboundedly.
//!
//! The same [`Request`]/[`Response`] enums are the in-process API: the
//! TCP front-end is a byte-faithful transport for them, nothing more.

use std::io::{self, Read, Write};

use hotpath_vm::{decode_events, encode_events, BlockEvent, RunStats};

use crate::session::{SessionConfig, SessionStatus};
use crate::wire::{
    put_bytes, put_config, put_stats, put_str, put_u32, put_u64, read_config, ReadError, Reader,
    NO_FUEL,
};

/// Largest accepted frame payload (64 MiB) — far above any legitimate
/// message, small enough to bound a malicious length prefix.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// A client-to-server message.
#[derive(Clone, PartialEq, Debug)]
pub enum Request {
    /// Open a session (opcode `0x01`).
    Open {
        /// Session configuration.
        config: SessionConfig,
    },
    /// Advance an exec session by at most `fuel` blocks (`0x02`);
    /// `fuel: None` runs to completion.
    Run {
        /// Target session.
        session: u64,
        /// Block budget for this slice; `None` is unbounded.
        fuel: Option<u64>,
    },
    /// Stream a batch of control-flow events into an ingest session
    /// (`0x03`).
    Ingest {
        /// Target session.
        session: u64,
        /// The batched events.
        events: Vec<BlockEvent>,
    },
    /// Query a session's status (`0x04`).
    Query {
        /// Target session.
        session: u64,
    },
    /// Capture a session into a snapshot blob (`0x05`).
    Snapshot {
        /// Target session.
        session: u64,
    },
    /// Open a new session restored from a snapshot blob (`0x06`).
    Restore {
        /// A blob produced by a prior `Snapshot`.
        blob: Vec<u8>,
    },
    /// Close a session, releasing its shard slot (`0x07`).
    Close {
        /// Target session.
        session: u64,
    },
    /// Stop the server after replying (`0x08`). TCP only; the in-process
    /// API shuts down by dropping the manager.
    Shutdown,
    /// Flush a session's fragment cache (`0x09`).
    Flush {
        /// Target session.
        session: u64,
    },
    /// Query whole-server counters (`0x0A`) — live sessions, lifetime
    /// open/close totals, connection counts, and peak RSS. The scale
    /// sweep and the CI leak check read these to prove the session table
    /// drains to zero and memory stays bounded.
    Stats,
    /// Publish a session's warm state into the fleet profile store
    /// (`0x0B`). The store merges it into the per-key aggregate under the
    /// key's merge policy; later sessions opened with
    /// [`SessionConfig::prewarm`] import that aggregate at admission.
    PublishProfile {
        /// Session whose warm state is published.
        session: u64,
    },
    /// Fetch the store's aggregate profile for a configuration (`0x0C`)
    /// as a sealed blob — offline inspection and the `profile_sim`
    /// harness read these.
    FetchProfile {
        /// Configuration whose aggregate is wanted (only the profile-key
        /// fields — workload, scale, scheme, delay — select it).
        config: SessionConfig,
    },
    /// A request stamped with a client-chosen sequence number (`0x0D`),
    /// making a re-send after connection loss idempotent at the shard.
    ///
    /// For session-scoped mutations the number is a per-session sequence
    /// the shard deduplicates on (a replayed number returns the cached
    /// response instead of re-executing). For `Open`/`Restore` it is a
    /// client nonce: a replayed open returns the already-opened session
    /// instead of leaking a second one. `seq` must be nonzero and the
    /// inner request must not itself be `Sequenced`.
    Sequenced {
        /// Nonzero sequence number / open nonce.
        seq: u64,
        /// The wrapped request.
        inner: Box<Request>,
    },
}

impl Request {
    /// The session a sequenced mutation targets, if it is session-scoped
    /// (`None` for opens, restores, and non-mutating requests).
    pub(crate) fn sequenced_session(&self) -> Option<u64> {
        match *self {
            Request::Run { session, .. }
            | Request::Ingest { session, .. }
            | Request::Flush { session }
            | Request::Close { session }
            | Request::PublishProfile { session } => Some(session),
            _ => None,
        }
    }
}

/// What pre-warming did at admission, carried in [`Response::Opened`].
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub enum PrewarmOutcome {
    /// The session did not ask to be pre-warmed.
    #[default]
    NotRequested,
    /// The session imported the fleet aggregate before its first block.
    Warmed {
        /// Fragments imported into the session's cache.
        fragments: u64,
        /// Counter-table entries (exit + NET) imported.
        counters: u64,
    },
    /// Pre-warming was requested but refused; the session opened cold.
    /// Results are unaffected either way — this costs warm-up time only.
    Rejected {
        /// Why (no aggregate yet, warm state failed validation, …).
        reason: String,
    },
}

/// Whole-server counters carried by [`Response::ServerStats`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ServerStats {
    /// Sessions currently resident across every shard.
    pub live_sessions: u64,
    /// Sessions opened (including restores) over the server's lifetime.
    pub sessions_opened: u64,
    /// Sessions closed over the server's lifetime.
    pub sessions_closed: u64,
    /// Connections currently open on the TCP front-end (0 for the
    /// in-process API).
    pub connections: u64,
    /// Connections accepted over the server's lifetime.
    pub conns_accepted: u64,
    /// Peak resident set size of the serving process in bytes (0 where
    /// the platform offers no cheap readout).
    pub rss_max_bytes: u64,
    /// Per-key aggregate profiles held by the fleet profile store.
    pub profiles_held: u64,
    /// Canonical encoded size of the profile store in bytes.
    pub profile_bytes: u64,
    /// How far behind the store the staleness-worst shard's read-mostly
    /// profile cache is, in store generations (0 = fully refreshed).
    pub profile_refresh_age: u64,
    /// Sessions pre-warmed from the store over the server's lifetime.
    pub sessions_prewarmed: u64,
    /// Shard workers restarted by their supervisor after a panic.
    pub shards_restarted: u64,
    /// Sessions re-admitted (from a sealed snapshot or cold) after their
    /// shard worker panicked.
    pub sessions_readmitted: u64,
    /// Profiles currently held in the store's quarantine bucket (pending
    /// re-promotion; never merged into the fleet aggregate).
    pub profiles_quarantined: u64,
}

/// A server-to-client message.
#[derive(Clone, PartialEq, Debug)]
pub enum Response {
    /// Session opened (`0x80`).
    Opened {
        /// Assigned session id.
        session: u64,
        /// Shard the session landed on.
        shard: u32,
        /// What pre-warming did (NotRequested for ordinary opens).
        prewarm: PrewarmOutcome,
    },
    /// A run slice finished (`0x81`).
    Ran {
        /// True once the program halted.
        done: bool,
        /// Statistics so far (final when `done`).
        stats: RunStats,
    },
    /// An event batch was ingested (`0x82`); totals after the batch.
    Ingested {
        /// Events ingested over the session's lifetime.
        events: u64,
        /// Completed profiled paths.
        paths: u64,
        /// Live fragments in the engine cache.
        fragments: u64,
    },
    /// Session status (`0x83`). Body: `session` u64, `shard` u32,
    /// `workload` string, `done` u8 (0/1), `stats`, then `fragments`,
    /// `installs`, `flushes` and `paths` as u64, and `bailed_out` u8
    /// (0/1).
    Status(SessionStatus),
    /// A snapshot blob (`0x84`).
    SnapshotBlob {
        /// The sealed snapshot bytes.
        blob: Vec<u8>,
    },
    /// Session closed (`0x85`).
    Closed {
        /// Blocks the session executed over its lifetime.
        blocks: u64,
    },
    /// The shard's queue or session table is full; retry later (`0x86`).
    Busy,
    /// The request failed (`0x87`).
    Error {
        /// Human-readable cause.
        message: String,
    },
    /// The server acknowledged a shutdown request (`0x88`).
    ShuttingDown,
    /// Whole-server counters (`0x89`), answering [`Request::Stats`].
    ServerStats(ServerStats),
    /// A profile publish was merged into the store (`0x8A`).
    ProfilePublished {
        /// Workload label the profile aggregates under.
        workload: String,
        /// Publishers folded into the key's aggregate so far.
        publishers: u64,
        /// Store generation after the merge.
        generation: u64,
        /// Fragments in the rebuilt aggregate.
        fragments: u64,
        /// The publisher's logical epoch at capture.
        epoch: u64,
        /// True when the publish landed in the quarantine bucket (the
        /// session bailed out or was poisoned) instead of the fleet
        /// aggregate.
        quarantined: bool,
    },
    /// The store's sealed aggregate profile blob (`0x8B`), answering
    /// [`Request::FetchProfile`].
    ProfileBlob {
        /// A sealed `HPFP` blob (see
        /// [`SessionProfile`](crate::SessionProfile)).
        blob: Vec<u8>,
    },
}

/// Why a payload failed to decode.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ProtocolError {
    /// The payload was empty or the opcode is not assigned.
    BadOpcode(u8),
    /// A field was truncated or failed validation; names the field.
    Malformed(&'static str),
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::BadOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            ProtocolError::Malformed(field) => write!(f, "malformed field `{field}`"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<ReadError> for ProtocolError {
    fn from(e: ReadError) -> Self {
        ProtocolError::Malformed(e.0)
    }
}

fn put_prewarm(out: &mut Vec<u8>, outcome: &PrewarmOutcome) {
    match outcome {
        PrewarmOutcome::NotRequested => out.push(0),
        PrewarmOutcome::Warmed {
            fragments,
            counters,
        } => {
            out.push(1);
            put_u64(out, *fragments);
            put_u64(out, *counters);
        }
        PrewarmOutcome::Rejected { reason } => {
            out.push(2);
            put_str(out, reason);
        }
    }
}

fn read_prewarm(r: &mut Reader<'_>) -> Result<PrewarmOutcome, ProtocolError> {
    Ok(match r.u8("prewarm outcome")? {
        0 => PrewarmOutcome::NotRequested,
        1 => PrewarmOutcome::Warmed {
            fragments: r.u64("prewarm fragments")?,
            counters: r.u64("prewarm counters")?,
        },
        2 => PrewarmOutcome::Rejected {
            reason: r.str("prewarm reason")?.to_string(),
        },
        _ => return Err(ProtocolError::Malformed("prewarm outcome")),
    })
}

impl Request {
    /// Encodes the request as a frame payload (opcode + body).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::Open { config } => {
                out.push(0x01);
                put_config(&mut out, config);
            }
            Request::Run { session, fuel } => {
                out.push(0x02);
                put_u64(&mut out, *session);
                put_u64(&mut out, fuel.unwrap_or(NO_FUEL));
            }
            Request::Ingest { session, events } => {
                out.push(0x03);
                put_u64(&mut out, *session);
                let mut wire = Vec::new();
                encode_events(events, &mut wire);
                put_bytes(&mut out, &wire);
            }
            Request::Query { session } => {
                out.push(0x04);
                put_u64(&mut out, *session);
            }
            Request::Snapshot { session } => {
                out.push(0x05);
                put_u64(&mut out, *session);
            }
            Request::Restore { blob } => {
                out.push(0x06);
                put_bytes(&mut out, blob);
            }
            Request::Close { session } => {
                out.push(0x07);
                put_u64(&mut out, *session);
            }
            Request::Shutdown => out.push(0x08),
            Request::Flush { session } => {
                out.push(0x09);
                put_u64(&mut out, *session);
            }
            Request::Stats => out.push(0x0A),
            Request::PublishProfile { session } => {
                out.push(0x0B);
                put_u64(&mut out, *session);
            }
            Request::FetchProfile { config } => {
                out.push(0x0C);
                put_config(&mut out, config);
            }
            Request::Sequenced { seq, inner } => {
                out.push(0x0D);
                put_u64(&mut out, *seq);
                out.extend_from_slice(&inner.encode());
            }
        }
        out
    }

    /// Decodes a frame payload into a request.
    ///
    /// # Errors
    ///
    /// See [`ProtocolError`]; trailing bytes are rejected.
    pub fn decode(payload: &[u8]) -> Result<Request, ProtocolError> {
        let (&opcode, body) = payload.split_first().ok_or(ProtocolError::BadOpcode(0))?;
        let mut r = Reader::new(body);
        let request = match opcode {
            0x01 => Request::Open {
                config: read_config(&mut r)?,
            },
            0x02 => Request::Run {
                session: r.u64("session")?,
                fuel: match r.u64("fuel")? {
                    NO_FUEL => None,
                    f => Some(f),
                },
            },
            0x03 => {
                let session = r.u64("session")?;
                let wire = r.bytes("events")?;
                let events = decode_events(wire).map_err(|_| ProtocolError::Malformed("events"))?;
                Request::Ingest { session, events }
            }
            0x04 => Request::Query {
                session: r.u64("session")?,
            },
            0x05 => Request::Snapshot {
                session: r.u64("session")?,
            },
            0x06 => Request::Restore {
                blob: r.bytes("blob")?.to_vec(),
            },
            0x07 => Request::Close {
                session: r.u64("session")?,
            },
            0x08 => Request::Shutdown,
            0x09 => Request::Flush {
                session: r.u64("session")?,
            },
            0x0A => Request::Stats,
            0x0B => Request::PublishProfile {
                session: r.u64("session")?,
            },
            0x0C => Request::FetchProfile {
                config: read_config(&mut r)?,
            },
            0x0D => {
                let seq = r.u64("seq")?;
                if seq == 0 {
                    return Err(ProtocolError::Malformed("seq"));
                }
                let rest = r.take(r.remaining(), "sequenced inner")?;
                let inner = Request::decode(rest)?;
                if matches!(inner, Request::Sequenced { .. }) {
                    return Err(ProtocolError::Malformed("nested sequenced"));
                }
                Request::Sequenced {
                    seq,
                    inner: Box::new(inner),
                }
            }
            op => return Err(ProtocolError::BadOpcode(op)),
        };
        if r.remaining() != 0 {
            return Err(ProtocolError::Malformed("trailing bytes"));
        }
        Ok(request)
    }
}

impl Response {
    /// Encodes the response as a frame payload (opcode + body).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Response::Opened {
                session,
                shard,
                prewarm,
            } => {
                out.push(0x80);
                put_u64(&mut out, *session);
                put_u32(&mut out, *shard);
                put_prewarm(&mut out, prewarm);
            }
            Response::Ran { done, stats } => {
                out.push(0x81);
                out.push(u8::from(*done));
                put_stats(&mut out, stats);
            }
            Response::Ingested {
                events,
                paths,
                fragments,
            } => {
                out.push(0x82);
                put_u64(&mut out, *events);
                put_u64(&mut out, *paths);
                put_u64(&mut out, *fragments);
            }
            Response::Status(status) => {
                out.push(0x83);
                put_u64(&mut out, status.session);
                put_u32(&mut out, status.shard);
                put_str(&mut out, &status.workload);
                out.push(u8::from(status.done));
                put_stats(&mut out, &status.stats);
                put_u64(&mut out, status.fragments);
                put_u64(&mut out, status.installs);
                put_u64(&mut out, status.flushes);
                put_u64(&mut out, status.paths);
                out.push(u8::from(status.bailed_out));
            }
            Response::SnapshotBlob { blob } => {
                out.push(0x84);
                put_bytes(&mut out, blob);
            }
            Response::Closed { blocks } => {
                out.push(0x85);
                put_u64(&mut out, *blocks);
            }
            Response::Busy => out.push(0x86),
            Response::Error { message } => {
                out.push(0x87);
                put_str(&mut out, message);
            }
            Response::ShuttingDown => out.push(0x88),
            Response::ServerStats(stats) => {
                out.push(0x89);
                put_u64(&mut out, stats.live_sessions);
                put_u64(&mut out, stats.sessions_opened);
                put_u64(&mut out, stats.sessions_closed);
                put_u64(&mut out, stats.connections);
                put_u64(&mut out, stats.conns_accepted);
                put_u64(&mut out, stats.rss_max_bytes);
                put_u64(&mut out, stats.profiles_held);
                put_u64(&mut out, stats.profile_bytes);
                put_u64(&mut out, stats.profile_refresh_age);
                put_u64(&mut out, stats.sessions_prewarmed);
                put_u64(&mut out, stats.shards_restarted);
                put_u64(&mut out, stats.sessions_readmitted);
                put_u64(&mut out, stats.profiles_quarantined);
            }
            Response::ProfilePublished {
                workload,
                publishers,
                generation,
                fragments,
                epoch,
                quarantined,
            } => {
                out.push(0x8A);
                put_str(&mut out, workload);
                put_u64(&mut out, *publishers);
                put_u64(&mut out, *generation);
                put_u64(&mut out, *fragments);
                put_u64(&mut out, *epoch);
                out.push(u8::from(*quarantined));
            }
            Response::ProfileBlob { blob } => {
                out.push(0x8B);
                put_bytes(&mut out, blob);
            }
        }
        out
    }

    /// Decodes a frame payload into a response.
    ///
    /// # Errors
    ///
    /// See [`ProtocolError`]; trailing bytes are rejected.
    pub fn decode(payload: &[u8]) -> Result<Response, ProtocolError> {
        let (&opcode, body) = payload.split_first().ok_or(ProtocolError::BadOpcode(0))?;
        let mut r = Reader::new(body);
        let flag = |r: &mut Reader<'_>, field| match r.u8(field)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(ProtocolError::Malformed(field)),
        };
        let response = match opcode {
            0x80 => Response::Opened {
                session: r.u64("session")?,
                shard: r.u32("shard")?,
                prewarm: read_prewarm(&mut r)?,
            },
            0x81 => Response::Ran {
                done: flag(&mut r, "done")?,
                stats: r.stats("stats")?,
            },
            0x82 => Response::Ingested {
                events: r.u64("events")?,
                paths: r.u64("paths")?,
                fragments: r.u64("fragments")?,
            },
            0x83 => Response::Status(SessionStatus {
                session: r.u64("session")?,
                shard: r.u32("shard")?,
                workload: r.str("workload")?.to_string(),
                done: flag(&mut r, "done")?,
                stats: r.stats("stats")?,
                fragments: r.u64("fragments")?,
                installs: r.u64("installs")?,
                flushes: r.u64("flushes")?,
                paths: r.u64("paths")?,
                bailed_out: flag(&mut r, "bailed_out")?,
            }),
            0x84 => Response::SnapshotBlob {
                blob: r.bytes("blob")?.to_vec(),
            },
            0x85 => Response::Closed {
                blocks: r.u64("blocks")?,
            },
            0x86 => Response::Busy,
            0x87 => Response::Error {
                message: r.str("message")?.to_string(),
            },
            0x88 => Response::ShuttingDown,
            0x89 => Response::ServerStats(ServerStats {
                live_sessions: r.u64("live_sessions")?,
                sessions_opened: r.u64("sessions_opened")?,
                sessions_closed: r.u64("sessions_closed")?,
                connections: r.u64("connections")?,
                conns_accepted: r.u64("conns_accepted")?,
                rss_max_bytes: r.u64("rss_max_bytes")?,
                profiles_held: r.u64("profiles_held")?,
                profile_bytes: r.u64("profile_bytes")?,
                profile_refresh_age: r.u64("profile_refresh_age")?,
                sessions_prewarmed: r.u64("sessions_prewarmed")?,
                shards_restarted: r.u64("shards_restarted")?,
                sessions_readmitted: r.u64("sessions_readmitted")?,
                profiles_quarantined: r.u64("profiles_quarantined")?,
            }),
            0x8A => Response::ProfilePublished {
                workload: r.str("workload")?.to_string(),
                publishers: r.u64("publishers")?,
                generation: r.u64("generation")?,
                fragments: r.u64("fragments")?,
                epoch: r.u64("epoch")?,
                quarantined: flag(&mut r, "quarantined")?,
            },
            0x8B => Response::ProfileBlob {
                blob: r.bytes("blob")?.to_vec(),
            },
            op => return Err(ProtocolError::BadOpcode(op)),
        };
        if r.remaining() != 0 {
            return Err(ProtocolError::Malformed("trailing bytes"));
        }
        Ok(response)
    }
}

/// Writes one frame (length prefix + payload) to `w`.
///
/// # Errors
///
/// Propagates I/O failures; rejects payloads over [`MAX_FRAME_BYTES`].
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "frame of {} bytes exceeds the {MAX_FRAME_BYTES}-byte cap",
                payload.len()
            ),
        ));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame from `r`. Returns `None` on a clean end-of-stream
/// (the peer closed between frames).
///
/// # Errors
///
/// Propagates I/O failures; rejects length prefixes over
/// [`MAX_FRAME_BYTES`] and streams that end mid-frame.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<Vec<u8>>> {
    let mut len_bytes = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_bytes[filled..])? {
            0 if filled == 0 => return Ok(None),
            0 => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "stream ended inside a frame length prefix",
                ))
            }
            n => filled += n,
        }
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds the {MAX_FRAME_BYTES}-byte cap"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotpath_ir::BlockId;
    use hotpath_vm::TransferKind;
    use hotpath_workloads::{Scale, WorkloadName};

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Open {
                config: SessionConfig::exec(WorkloadName::Compress, Scale::Smoke),
            },
            Request::Open {
                config: SessionConfig {
                    fuel_budget: Some(123_456),
                    ..SessionConfig::ingest()
                },
            },
            Request::Run {
                session: 7,
                fuel: Some(10_000),
            },
            Request::Run {
                session: 7,
                fuel: None,
            },
            Request::Ingest {
                session: 9,
                events: vec![
                    BlockEvent {
                        from: None,
                        block: BlockId::new(0),
                        kind: TransferKind::Start,
                        backward: false,
                        block_size: 3,
                    },
                    BlockEvent {
                        from: Some(BlockId::new(0)),
                        block: BlockId::new(1),
                        kind: TransferKind::BranchTaken,
                        backward: true,
                        block_size: 5,
                    },
                ],
            },
            Request::Query { session: 1 },
            Request::Snapshot { session: 2 },
            Request::Restore {
                blob: vec![1, 2, 3, 4],
            },
            Request::Close { session: 3 },
            Request::Shutdown,
            Request::Flush { session: 4 },
            Request::Stats,
            Request::PublishProfile { session: 5 },
            Request::FetchProfile {
                config: SessionConfig::exec(WorkloadName::Li, Scale::Small).with_prewarm(true),
            },
            Request::Sequenced {
                seq: 17,
                inner: Box::new(Request::Run {
                    session: 7,
                    fuel: Some(4_096),
                }),
            },
            Request::Sequenced {
                seq: u64::MAX,
                inner: Box::new(Request::Open {
                    config: SessionConfig::exec(WorkloadName::Compress, Scale::Smoke),
                }),
            },
        ]
    }

    fn sample_responses() -> Vec<Response> {
        vec![
            Response::Opened {
                session: 11,
                shard: 2,
                prewarm: PrewarmOutcome::NotRequested,
            },
            Response::Opened {
                session: 12,
                shard: 0,
                prewarm: PrewarmOutcome::Warmed {
                    fragments: 9,
                    counters: 40,
                },
            },
            Response::Opened {
                session: 13,
                shard: 1,
                prewarm: PrewarmOutcome::Rejected {
                    reason: "no aggregate profile for this key yet".to_string(),
                },
            },
            Response::Ran {
                done: true,
                stats: RunStats {
                    blocks_executed: 100,
                    insts_executed: 400,
                    cond_branches: 50,
                    indirect_branches: 2,
                    calls: 7,
                    backward_transfers: 49,
                    max_call_depth: 3,
                    halted: true,
                },
            },
            Response::Ingested {
                events: 280,
                paths: 40,
                fragments: 3,
            },
            Response::Status(SessionStatus {
                session: 11,
                shard: 2,
                workload: "compress".to_string(),
                done: false,
                stats: RunStats::default(),
                fragments: 4,
                installs: 6,
                flushes: 1,
                paths: 123,
                bailed_out: true,
            }),
            Response::SnapshotBlob {
                blob: vec![0xAB; 37],
            },
            Response::Closed { blocks: 999 },
            Response::Busy,
            Response::Error {
                message: "no such session".to_string(),
            },
            Response::ShuttingDown,
            Response::ServerStats(ServerStats {
                live_sessions: 10_000,
                sessions_opened: 20_000,
                sessions_closed: 10_000,
                connections: 64,
                conns_accepted: 128,
                rss_max_bytes: 1 << 30,
                profiles_held: 9,
                profile_bytes: 48_000,
                profile_refresh_age: 2,
                sessions_prewarmed: 5_000,
                shards_restarted: 3,
                sessions_readmitted: 17,
                profiles_quarantined: 2,
            }),
            Response::ProfilePublished {
                workload: "compress".to_string(),
                publishers: 4,
                generation: 7,
                fragments: 12,
                epoch: 250_000,
                quarantined: false,
            },
            Response::ProfilePublished {
                workload: "li".to_string(),
                publishers: 1,
                generation: 0,
                fragments: 3,
                epoch: 9_000,
                quarantined: true,
            },
            Response::ProfileBlob {
                blob: vec![0xCD; 21],
            },
        ]
    }

    #[test]
    fn every_request_round_trips() {
        for request in sample_requests() {
            let payload = request.encode();
            assert_eq!(
                Request::decode(&payload),
                Ok(request.clone()),
                "{request:?}"
            );
        }
    }

    #[test]
    fn every_response_round_trips() {
        for response in sample_responses() {
            let payload = response.encode();
            assert_eq!(
                Response::decode(&payload),
                Ok(response.clone()),
                "{response:?}"
            );
        }
    }

    #[test]
    fn rejects_bad_opcodes_and_trailing_bytes() {
        assert_eq!(Request::decode(&[]), Err(ProtocolError::BadOpcode(0)));
        assert_eq!(
            Request::decode(&[0x7E]),
            Err(ProtocolError::BadOpcode(0x7E))
        );
        assert_eq!(
            Response::decode(&[0x01]),
            Err(ProtocolError::BadOpcode(0x01))
        );
        let mut payload = Request::Shutdown.encode();
        payload.push(0);
        assert_eq!(
            Request::decode(&payload),
            Err(ProtocolError::Malformed("trailing bytes"))
        );
    }

    /// `Open` (and `FetchProfile`) frames in the layout that still
    /// carried an opt-level byte ahead of the prewarm bit: whatever the
    /// two bytes hold, the decoder refuses the frame instead of reading
    /// the opt byte as the prewarm bit.
    #[test]
    fn config_frames_with_the_old_opt_level_byte_are_malformed() {
        for opt in 0..=2u8 {
            for prewarm in [false, true] {
                let config =
                    SessionConfig::exec(WorkloadName::Compress, Scale::Smoke).with_prewarm(prewarm);
                let open = Request::Open {
                    config: config.clone(),
                };
                for request in [open, Request::FetchProfile { config }] {
                    let mut old = request.encode();
                    old.insert(old.len() - 1, opt);
                    assert!(
                        matches!(Request::decode(&old), Err(ProtocolError::Malformed(_))),
                        "opt {opt} prewarm {prewarm}: old-layout {request:?} decoded"
                    );
                }
            }
        }
    }

    /// `Status` frames in the layout that ended with a ladder-mode string
    /// where the `bailed_out` byte now goes: the string's length prefix
    /// is no flag, so the decoder refuses the frame without panicking.
    #[test]
    fn status_frames_with_the_old_mode_string_are_malformed() {
        let status = SessionStatus {
            session: 11,
            shard: 2,
            workload: "compress".to_string(),
            done: false,
            stats: RunStats::default(),
            fragments: 4,
            installs: 6,
            flushes: 1,
            paths: 123,
            bailed_out: false,
        };
        for mode in ["full_linking", "no_link", "interp_only"] {
            let mut old = Response::Status(status.clone()).encode();
            old.pop();
            put_str(&mut old, mode);
            assert_eq!(
                Response::decode(&old),
                Err(ProtocolError::Malformed("bailed_out")),
                "old-layout status with mode {mode}"
            );
        }
    }

    #[test]
    fn sequenced_rejects_zero_seq_and_nesting() {
        let zero = Request::Sequenced {
            seq: 0,
            inner: Box::new(Request::Stats),
        };
        assert_eq!(
            Request::decode(&zero.encode()),
            Err(ProtocolError::Malformed("seq"))
        );
        let nested = Request::Sequenced {
            seq: 1,
            inner: Box::new(Request::Sequenced {
                seq: 2,
                inner: Box::new(Request::Stats),
            }),
        };
        assert_eq!(
            Request::decode(&nested.encode()),
            Err(ProtocolError::Malformed("nested sequenced"))
        );
    }

    #[test]
    fn frames_round_trip_over_a_byte_stream() {
        let mut stream = Vec::new();
        for request in sample_requests() {
            write_frame(&mut stream, &request.encode()).unwrap();
        }
        let mut cursor = io::Cursor::new(stream);
        for expected in sample_requests() {
            let payload = read_frame(&mut cursor).unwrap().expect("frame present");
            assert_eq!(Request::decode(&payload), Ok(expected));
        }
        assert_eq!(read_frame(&mut cursor).unwrap(), None, "clean EOF");
    }

    #[test]
    fn read_frame_rejects_oversized_and_truncated() {
        let huge = ((MAX_FRAME_BYTES + 1) as u32).to_le_bytes();
        let err = read_frame(&mut io::Cursor::new(huge.to_vec())).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // A frame whose payload never arrives is an error, not a None.
        let mut truncated = 10u32.to_le_bytes().to_vec();
        truncated.extend_from_slice(&[1, 2, 3]);
        assert!(read_frame(&mut io::Cursor::new(truncated)).is_err());
    }
}
