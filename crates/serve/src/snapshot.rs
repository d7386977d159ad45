//! Persistent session snapshots: a versioned, checksummed binary format
//! for warm-starting a restarted server past the τ-warm-up phase.
//!
//! A snapshot carries up to four sections:
//!
//! 1. the [`SessionConfig`] (so a restore rebuilds the same workload and
//!    engine policy),
//! 2. the engine's [`EngineWarmState`] — installed fragments (which imply
//!    the link graph: linking is re-derived from guard-exit adjacency as
//!    the traces re-install), exit-stub counters, armed targets, and NET
//!    head counters,
//! 3. optionally, the VM's exact paused machine state
//!    ([`SavedLinkedState`]) for exec sessions, so the restored run
//!    finishes with bit-identical `RunStats`, memory, and globals,
//! 4. optionally (v3), the fleet profile-store aggregate for the
//!    session's configuration ([`SessionProfile`]), so restoring a
//!    parked snapshot also re-seeds the cross-session profile store.
//!
//! # Format
//!
//! Little-endian throughout. The layout is:
//!
//! ```text
//! "HPSS"            magic, 4 bytes
//! version: u16      currently 4
//! flags:   u16      bit 0 = machine-state section present
//!                   bit 1 = profile-store section present
//! config  section   workload u8 (0xFF = ingest) · scale u8 · scheme u8 ·
//!                   delay u64 · fuel_budget u64 (u64::MAX = none) ·
//!                   prewarm u8
//! warm    section   counted arrays: fragments (insts u32, blocks [u32]),
//!                   exit counters (u32, u64), armed targets u32,
//!                   NET counters (u32, u64)
//! machine section   stats · regs [i64] · frames (ret u32, base u64,
//! (iff flag bit 0)  func u32) · frame_base u64 · pending event (14 B) ·
//!                   cur u32 · memory [i64] · globals [i64] · done u8
//! profile section   length-prefixed sealed "HPFP" profile blob (the
//! (iff flag bit 1)  aggregate the store held for this key at save time)
//! checksum: u64     FNV-1a 64 over every preceding byte
//! ```
//!
//! # Version & checksum rules
//!
//! * The version bumps on any layout change; decoders reject versions
//!   they don't know rather than guess (`UnsupportedVersion`).
//! * The checksum seals the whole image including the header; it is
//!   verified *before* any field is parsed, so a truncated or corrupted
//!   blob fails closed (`ChecksumMismatch`) instead of restoring a
//!   half-read session.
//! * Unknown flag bits are rejected: a future writer's extension must not
//!   be silently dropped by an old reader.

use hotpath_dynamo::EngineWarmState;
use hotpath_vm::{decode_events, encode_event, SavedFrame, SavedLinkedState, EVENT_WIRE_BYTES};

use crate::profile_store::SessionProfile;
use crate::session::SessionConfig;
use crate::wire::{
    fnv1a64, put_bytes, put_config, put_i64, put_stats, put_u32, put_u64, put_warm, read_config,
    read_warm, ReadError, Reader,
};

/// Magic bytes opening every snapshot ("Hot Path Session Snapshot").
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"HPSS";

/// The format version this build writes and the only one it reads.
/// Version 2 added the config's trace optimization level; version 3
/// added the config's prewarm bit and the profile-store section;
/// version 4 dropped the optimization level again (sessions always run
/// the full trace optimizer).
pub const SNAPSHOT_VERSION: u16 = 4;

/// Flag bit: the machine-state section is present.
const FLAG_MACHINE: u16 = 1;

/// Flag bit: the profile-store section is present.
const FLAG_PROFILE: u16 = 2;

/// Why a snapshot failed to decode.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SnapshotError {
    /// The blob is too short to hold even the header and seal.
    TooShort,
    /// The magic bytes are not `HPSS`.
    BadMagic,
    /// The version is not one this build understands.
    UnsupportedVersion(u16),
    /// The blob carries flag bits this build does not understand.
    UnknownFlags(u16),
    /// The FNV-1a seal does not match the content.
    ChecksumMismatch {
        /// Checksum stored in the blob.
        stored: u64,
        /// Checksum computed over the blob's content.
        computed: u64,
    },
    /// A field was truncated or failed validation; names the field.
    Malformed(&'static str),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::TooShort => write!(f, "snapshot too short for header and checksum"),
            SnapshotError::BadMagic => write!(f, "not a session snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v} (this build reads {SNAPSHOT_VERSION})"
                )
            }
            SnapshotError::UnknownFlags(flags) => {
                write!(f, "snapshot carries unknown flag bits {flags:#06x}")
            }
            SnapshotError::ChecksumMismatch { stored, computed } => write!(
                f,
                "snapshot checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            SnapshotError::Malformed(field) => write!(f, "malformed snapshot field `{field}`"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<ReadError> for SnapshotError {
    fn from(e: ReadError) -> Self {
        SnapshotError::Malformed(e.0)
    }
}

/// A decoded session snapshot. Produced by
/// [`Session::snapshot`](crate::Session::snapshot), consumed by
/// [`Session::restore`](crate::Session::restore).
#[derive(Clone, PartialEq, Debug)]
pub struct SessionSnapshot {
    /// The configuration the session was opened with.
    pub config: SessionConfig,
    /// Engine warm state: fragments, exit counters, armed targets, NET
    /// counters.
    pub warm: EngineWarmState,
    /// Exact paused machine state; `None` for ingest sessions.
    pub vm: Option<SavedLinkedState>,
    /// Fleet profile-store aggregate for the session's key at save time;
    /// restoring a snapshot that carries one re-publishes it, so a fleet
    /// restarted from parked snapshots warms its store back up too.
    pub profile: Option<SessionProfile>,
}

impl SessionSnapshot {
    /// Encodes the snapshot into its sealed binary form.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(256);
        out.extend_from_slice(&SNAPSHOT_MAGIC);
        out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        let mut flags: u16 = 0;
        if self.vm.is_some() {
            flags |= FLAG_MACHINE;
        }
        if self.profile.is_some() {
            flags |= FLAG_PROFILE;
        }
        out.extend_from_slice(&flags.to_le_bytes());

        // Config section.
        put_config(&mut out, &self.config);

        // Warm section.
        put_warm(&mut out, &self.warm);

        // Machine section.
        if let Some(vm) = &self.vm {
            put_stats(&mut out, &vm.stats);
            put_u32(&mut out, vm.regs.len() as u32);
            for &r in &vm.regs {
                put_i64(&mut out, r);
            }
            put_u32(&mut out, vm.frames.len() as u32);
            for frame in &vm.frames {
                put_u32(&mut out, frame.ret_global);
                put_u64(&mut out, frame.frame_base);
                put_u32(&mut out, frame.func);
            }
            put_u64(&mut out, vm.frame_base);
            encode_event(&vm.pending, &mut out);
            put_u32(&mut out, vm.cur);
            put_u32(&mut out, vm.memory.len() as u32);
            for &w in &vm.memory {
                put_i64(&mut out, w);
            }
            put_u32(&mut out, vm.globals.len() as u32);
            for &g in &vm.globals {
                put_i64(&mut out, g);
            }
            out.push(u8::from(vm.done));
        }

        // Profile section: the sealed blob verbatim, length-prefixed.
        if let Some(profile) = &self.profile {
            put_bytes(&mut out, &profile.encode());
        }

        let seal = fnv1a64(&out);
        put_u64(&mut out, seal);
        out
    }

    /// Decodes a sealed snapshot blob.
    ///
    /// # Errors
    ///
    /// See [`SnapshotError`]; the checksum is verified before any field
    /// is interpreted.
    pub fn decode(blob: &[u8]) -> Result<SessionSnapshot, SnapshotError> {
        if blob.len() < SNAPSHOT_MAGIC.len() + 2 + 2 + 8 {
            return Err(SnapshotError::TooShort);
        }
        let (content, seal_bytes) = blob.split_at(blob.len() - 8);
        let stored = u64::from_le_bytes(seal_bytes.try_into().unwrap());
        let computed = fnv1a64(content);
        if stored != computed {
            return Err(SnapshotError::ChecksumMismatch { stored, computed });
        }
        let mut r = Reader::new(content);
        if r.take(4, "magic")? != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = u16::from_le_bytes(r.take(2, "version")?.try_into().unwrap());
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let flags = u16::from_le_bytes(r.take(2, "flags")?.try_into().unwrap());
        if flags & !(FLAG_MACHINE | FLAG_PROFILE) != 0 {
            return Err(SnapshotError::UnknownFlags(flags));
        }

        let config = read_config(&mut r)?;

        let warm = read_warm(&mut r)?;

        let vm = if flags & FLAG_MACHINE != 0 {
            let stats = r.stats("stats")?;
            let mut regs = Vec::new();
            for _ in 0..r.u32("reg count")? {
                regs.push(r.i64("reg")?);
            }
            let mut frames = Vec::new();
            for _ in 0..r.u32("frame count")? {
                frames.push(SavedFrame {
                    ret_global: r.u32("frame ret")?,
                    frame_base: r.u64("frame base")?,
                    func: r.u32("frame func")?,
                });
            }
            let frame_base = r.u64("frame_base")?;
            let pending = decode_events(r.take(EVENT_WIRE_BYTES, "pending event")?)
                .map_err(|_| SnapshotError::Malformed("pending event"))?
                .pop()
                .ok_or(SnapshotError::Malformed("pending event"))?;
            let cur = r.u32("cur")?;
            let mut memory = Vec::new();
            for _ in 0..r.u32("memory words")? {
                memory.push(r.i64("memory word")?);
            }
            let mut globals = Vec::new();
            for _ in 0..r.u32("global count")? {
                globals.push(r.i64("global")?);
            }
            let done = match r.u8("done")? {
                0 => false,
                1 => true,
                _ => return Err(SnapshotError::Malformed("done")),
            };
            Some(SavedLinkedState {
                stats,
                regs,
                frames,
                frame_base,
                pending,
                cur,
                memory,
                globals,
                done,
            })
        } else {
            None
        };

        let profile = if flags & FLAG_PROFILE != 0 {
            let blob = r.bytes("profile blob")?;
            Some(
                SessionProfile::decode(blob)
                    .map_err(|_| SnapshotError::Malformed("profile blob"))?,
            )
        } else {
            None
        };

        if r.remaining() != 0 {
            return Err(SnapshotError::Malformed("trailing bytes"));
        }
        Ok(SessionSnapshot {
            config,
            warm,
            vm,
            profile,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::warm_count_offsets;
    use hotpath_dynamo::FragmentRecord;
    use hotpath_workloads::{Scale, WorkloadName};

    /// Header (magic, version, flags) plus the config section.
    const WARM_AT: usize = 4 + 2 + 2 + 3 + 8 + 8 + 1;

    fn reseal(mut blob: Vec<u8>) -> Vec<u8> {
        let len = blob.len();
        let seal = fnv1a64(&blob[..len - 8]);
        blob[len - 8..].copy_from_slice(&seal.to_le_bytes());
        blob
    }

    fn sample() -> SessionSnapshot {
        SessionSnapshot {
            config: SessionConfig {
                workload: Some(WorkloadName::Compress),
                scale: Scale::Smoke,
                scheme: hotpath_dynamo::Scheme::Net,
                delay: 50,
                fuel_budget: Some(1_000_000),
                prewarm: false,
            },
            warm: EngineWarmState {
                fragments: vec![
                    FragmentRecord {
                        blocks: vec![3, 4, 5],
                        insts: 17,
                    },
                    FragmentRecord {
                        blocks: vec![9],
                        insts: 2,
                    },
                ],
                exit_counts: vec![(6, 41), (8, 3)],
                armed: vec![6],
                net_counters: vec![(3, 12)],
            },
            vm: None,
            profile: None,
        }
    }

    #[test]
    fn round_trips_without_machine_state() {
        let snap = sample();
        let blob = snap.encode();
        assert_eq!(SessionSnapshot::decode(&blob).unwrap(), snap);
    }

    #[test]
    fn rejects_corruption_truncation_and_bad_headers() {
        let blob = sample().encode();

        // Any flipped bit fails the seal.
        let mut corrupt = blob.clone();
        corrupt[10] ^= 0x40;
        assert!(matches!(
            SessionSnapshot::decode(&corrupt),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));

        // Truncation fails the seal too (the seal moves).
        assert!(SessionSnapshot::decode(&blob[..blob.len() - 3]).is_err());
        assert_eq!(SessionSnapshot::decode(&[]), Err(SnapshotError::TooShort));

        // Wrong magic and future version are rejected with their own
        // errors — re-sealed so the checksum passes and the header check
        // is actually reached.
        let reseal = |mut b: Vec<u8>| {
            let len = b.len();
            let seal = fnv1a64(&b[..len - 8]);
            b[len - 8..].copy_from_slice(&seal.to_le_bytes());
            b
        };
        let mut bad_magic = blob.clone();
        bad_magic[0] = b'X';
        assert_eq!(
            SessionSnapshot::decode(&reseal(bad_magic)),
            Err(SnapshotError::BadMagic)
        );
        let mut future = blob.clone();
        future[4] = 9;
        assert_eq!(
            SessionSnapshot::decode(&reseal(future)),
            Err(SnapshotError::UnsupportedVersion(9))
        );
        let mut flags = blob;
        flags[6] |= 0x80;
        assert_eq!(
            SessionSnapshot::decode(&reseal(flags)),
            Err(SnapshotError::UnknownFlags(0x80))
        );
    }

    #[test]
    fn v3_profile_section_and_prewarm_bit_round_trip() {
        use crate::profile_store::ProfileKey;
        let mut snap = sample();
        snap.config.prewarm = true;
        snap.profile = Some(SessionProfile {
            key: ProfileKey::of(&snap.config),
            epoch: 9_000,
            warm: snap.warm.clone(),
        });
        let decoded = SessionSnapshot::decode(&snap.encode()).unwrap();
        assert_eq!(decoded, snap);

        // A corrupted inner profile blob is caught even when the outer
        // seal is recomputed over it.
        let mut blob = snap.encode();
        let profile_at = blob.len() - 8 - 12;
        blob[profile_at] ^= 0x01;
        let len = blob.len();
        let seal = fnv1a64(&blob[..len - 8]);
        blob[len - 8..].copy_from_slice(&seal.to_le_bytes());
        assert_eq!(
            SessionSnapshot::decode(&blob),
            Err(SnapshotError::Malformed("profile blob"))
        );
    }

    #[test]
    fn stale_v2_snapshots_are_refused() {
        let mut blob = sample().encode();
        blob[4] = 2;
        let len = blob.len();
        let seal = fnv1a64(&blob[..len - 8]);
        blob[len - 8..].copy_from_slice(&seal.to_le_bytes());
        assert_eq!(
            SessionSnapshot::decode(&blob),
            Err(SnapshotError::UnsupportedVersion(2))
        );
    }

    #[test]
    fn v3_snapshots_with_the_opt_level_byte_are_refused() {
        // A genuine v3 image: version 3 and the opt-level byte (Full)
        // ahead of the prewarm bit.
        let mut blob = sample().encode();
        blob[4] = 3;
        blob.insert(WARM_AT - 1, 2);
        assert_eq!(
            SessionSnapshot::decode(&reseal(blob)),
            Err(SnapshotError::UnsupportedVersion(3))
        );
    }

    /// Every count in a real exec session's snapshot — warm section and
    /// machine section — inflated to `u32::MAX` and resealed is refused
    /// as malformed, never a huge allocation.
    #[test]
    fn inflated_counts_are_malformed_not_allocated() {
        let mut session = crate::Session::open(
            1,
            0,
            SessionConfig::exec(WorkloadName::Compress, Scale::Smoke),
        );
        session.run(Some(20_000)).unwrap();
        let snap = session.snapshot();
        let blob = snap.encode();
        assert_eq!(SessionSnapshot::decode(&blob).unwrap(), snap);
        let vm = snap.vm.as_ref().unwrap();
        assert!(
            !snap.warm.fragments.is_empty(),
            "run long enough to install traces"
        );

        let mut offsets: Vec<usize> = warm_count_offsets(&snap.warm)
            .into_iter()
            .map(|at| WARM_AT + at)
            .collect();
        let mut warm = Vec::new();
        put_warm(&mut warm, &snap.warm);
        let regs_at = WARM_AT + warm.len() + 57;
        let frames_at = regs_at + 4 + 8 * vm.regs.len();
        let memory_at = frames_at + 4 + 16 * vm.frames.len() + 8 + EVENT_WIRE_BYTES + 4;
        let globals_at = memory_at + 4 + 8 * vm.memory.len();
        let count_at = |at: usize| u32::from_le_bytes(blob[at..at + 4].try_into().unwrap());
        assert_eq!(count_at(regs_at) as usize, vm.regs.len());
        assert_eq!(count_at(frames_at) as usize, vm.frames.len());
        assert_eq!(count_at(memory_at) as usize, vm.memory.len());
        assert_eq!(count_at(globals_at) as usize, vm.globals.len());
        offsets.extend([regs_at, frames_at, memory_at, globals_at]);
        for at in offsets {
            let mut inflated = blob.clone();
            inflated[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            assert!(
                matches!(
                    SessionSnapshot::decode(&reseal(inflated)),
                    Err(SnapshotError::Malformed(_))
                ),
                "count at byte {at} inflated to u32::MAX was not refused as malformed"
            );
        }
    }

    /// The predictors assert τ > 0, so a restored zero delay would panic
    /// the shard that opened it; decode refuses it like the `Open` frame.
    #[test]
    fn zero_delay_is_malformed() {
        let mut snap = sample();
        snap.config.delay = 0;
        assert_eq!(
            SessionSnapshot::decode(&snap.encode()),
            Err(SnapshotError::Malformed("delay"))
        );
    }

    #[test]
    fn ingest_config_and_no_budget_encode_distinctly() {
        let mut snap = sample();
        snap.config.workload = None;
        snap.config.fuel_budget = None;
        let decoded = SessionSnapshot::decode(&snap.encode()).unwrap();
        assert_eq!(decoded.config.workload, None);
        assert_eq!(decoded.config.fuel_budget, None);
    }
}
