//! The cross-session profile store: fleet-level aggregation of engine
//! warm state, so a new session starts past the τ-warm-up phase its
//! siblings already paid for.
//!
//! Per-session profiling (the paper's thesis: a little profiling buys a
//! lot of prediction) leaves every session paying the same warm-up cost
//! for the same hot paths. The store closes that loop at the fleet
//! level: sessions **publish** their [`EngineWarmState`] (fragments,
//! exit-stub counters, armed targets, NET counters) keyed by workload
//! configuration; the store folds publishes into a per-key aggregate;
//! and new sessions opened with [`SessionConfig::prewarm`] import the
//! aggregate at admission. Warm state is policy only — pre-warming
//! changes *when* traces install, never *what* executes — so results
//! stay bit-identical to a cold session (pinned by
//! `tests/profile_store.rs`).
//!
//! # Order independence
//!
//! Raw per-key state is kept in commutative form — publisher counts,
//! counter sums, and epoch maxima in ordered maps — so merging the same
//! set of publishes in **any order or interleaving** produces
//! byte-identical store contents ([`ProfileStore::encode`]) and an
//! identical derived aggregate. The aggregate itself is a pure function
//! of the raw state and the key's [`MergePolicy`], rebuilt on the
//! publish path (rare, off the admission hot path); admission only
//! checks an atomic generation counter and swaps an `Arc` when a shard's
//! read-mostly cache is behind (see `shard.rs`).
//!
//! # Merge policies
//!
//! * **union** — every fragment any publisher installed; counters are
//!   summed. Maximum coverage, aggressive counter warm-up.
//! * **frequency-weighted** — keeps fragments and armed targets seen by
//!   at least `min_percent` of publishers; counters are per-publisher
//!   means. Filters one-session noise, calibrated counters.
//! * **exponential-decay** — weights each publish by its age in epoch
//!   buckets (publisher's logical clock, quantized by
//!   [`ProfileStoreConfig::epoch_quantum`]): weight halves every
//!   `half_life` buckets behind the newest publish, and entries decayed
//!   to zero drop out. Tracks phase shifts without a wall clock, so it
//!   stays deterministic.
//!
//! All three are deterministic and seeded: equal-weight fragments are
//! ordered by a seeded FNV tie-break so aggregate install order never
//! depends on map iteration or publish arrival. The offline
//! `profile_sim` harness (crates/bench) replays recorded suites against
//! all three to pick a per-workload policy before it touches serve.
//!
//! [`SessionConfig::prewarm`]: crate::SessionConfig::prewarm

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use hotpath_dynamo::{EngineWarmState, FragmentRecord, Scheme};
use hotpath_workloads::{Scale, WorkloadName, ALL_WORKLOADS};

use crate::session::SessionConfig;
use crate::wire::{fnv1a64, put_u32, put_u64, put_warm, read_warm, ReadError, Reader};

/// Magic bytes opening every published profile blob ("Hot Path Fleet
/// Profile").
pub const PROFILE_MAGIC: [u8; 4] = *b"HPFP";

/// The profile-blob format version this build writes and the only one it
/// reads.
pub const PROFILE_VERSION: u16 = 1;

/// The configuration coordinates profiles aggregate under. Two sessions
/// share an aggregate iff their workload, scale, scheme, and delay all
/// match; the fuel budget and prewarm bit are admission knobs that never
/// change what the engine learns, so they are deliberately excluded.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ProfileKey {
    /// Workload the sessions execute; `None` groups ingest sessions.
    pub workload: Option<WorkloadName>,
    /// Scale the workload is built at.
    pub scale: Scale,
    /// Prediction scheme.
    pub scheme: Scheme,
    /// Prediction delay τ.
    pub delay: u64,
}

impl ProfileKey {
    /// The key a session configuration aggregates under.
    pub fn of(config: &SessionConfig) -> ProfileKey {
        ProfileKey {
            workload: config.workload,
            scale: config.scale,
            scheme: config.scheme,
            delay: config.delay,
        }
    }

    /// The workload label (`"ingest"` for event-stream sessions).
    pub fn label(&self) -> &'static str {
        self.workload.map_or("ingest", WorkloadName::as_str)
    }

    /// Canonical ordering rank; also the key's wire form.
    fn rank(&self) -> (u8, u8, u8, u64) {
        let workload = self.workload.map_or(0xFF, |w| {
            ALL_WORKLOADS.iter().position(|&x| x == w).unwrap() as u8
        });
        let scale = match self.scale {
            Scale::Smoke => 0,
            Scale::Small => 1,
            Scale::Full => 2,
        };
        let scheme = match self.scheme {
            Scheme::Net => 0,
            Scheme::PathProfile => 1,
        };
        (workload, scale, scheme, self.delay)
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        let (workload, scale, scheme, delay) = self.rank();
        out.push(workload);
        out.push(scale);
        out.push(scheme);
        put_u64(out, delay);
    }

    fn read(r: &mut Reader<'_>) -> Result<ProfileKey, ProfileError> {
        let workload = match r.u8("workload")? {
            0xFF => None,
            idx => Some(
                ALL_WORKLOADS
                    .get(idx as usize)
                    .copied()
                    .ok_or(ProfileError::Malformed("workload"))?,
            ),
        };
        let scale = match r.u8("scale")? {
            0 => Scale::Smoke,
            1 => Scale::Small,
            2 => Scale::Full,
            _ => return Err(ProfileError::Malformed("scale")),
        };
        let scheme = match r.u8("scheme")? {
            0 => Scheme::Net,
            1 => Scheme::PathProfile,
            _ => return Err(ProfileError::Malformed("scheme")),
        };
        let delay = r.u64("delay")?;
        if delay == 0 {
            return Err(ProfileError::Malformed("delay"));
        }
        Ok(ProfileKey {
            workload,
            scale,
            scheme,
            delay,
        })
    }
}

impl PartialOrd for ProfileKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ProfileKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.rank().cmp(&other.rank())
    }
}

/// How a per-key aggregate is derived from the raw publish history.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum MergePolicy {
    /// Keep everything any publisher learned; sum the counters.
    #[default]
    Union,
    /// Keep fragments and armed targets carried by at least
    /// `min_percent` of publishers; counters become per-publisher means.
    FrequencyWeighted {
        /// Inclusion threshold as a percentage of publishers (0–100).
        min_percent: u8,
    },
    /// Weight each publish by its epoch-bucket age: weight halves every
    /// `half_life` buckets behind the newest publish, and entries whose
    /// decayed weight reaches zero drop out of the aggregate.
    ExponentialDecay {
        /// Half-life in epoch buckets (≥ 1; see
        /// [`ProfileStoreConfig::epoch_quantum`]).
        half_life: u64,
    },
}

impl MergePolicy {
    /// Stable snake_case tag (CLI flags, sim output, telemetry labels).
    pub fn as_str(&self) -> &'static str {
        match self {
            MergePolicy::Union => "union",
            MergePolicy::FrequencyWeighted { .. } => "frequency_weighted",
            MergePolicy::ExponentialDecay { .. } => "exponential_decay",
        }
    }

    /// Parses a CLI spelling: `union`, `freq` / `frequency_weighted`,
    /// `decay` / `exponential_decay` (with shipped parameters).
    pub fn parse(s: &str) -> Option<MergePolicy> {
        match s {
            "union" => Some(MergePolicy::Union),
            "freq" | "frequency_weighted" => {
                Some(MergePolicy::FrequencyWeighted { min_percent: 50 })
            }
            "decay" | "exponential_decay" => Some(MergePolicy::ExponentialDecay { half_life: 4 }),
            _ => None,
        }
    }
}

/// Store shape: policy selection and determinism parameters. Fixed at
/// store construction so every derived aggregate is a pure function of
/// the published profiles.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ProfileStoreConfig {
    /// Policy for keys without an override.
    pub default_policy: MergePolicy,
    /// Per-workload policy overrides (picked offline by `profile_sim`).
    pub overrides: Vec<(WorkloadName, MergePolicy)>,
    /// Epoch quantization: publishes are bucketed by
    /// `epoch / epoch_quantum` before any decay arithmetic, so the raw
    /// state stays bounded by distinct buckets rather than distinct
    /// publish instants.
    pub epoch_quantum: u64,
    /// Salt for the deterministic fragment tie-break hash.
    pub seed: u64,
    /// Most fragments a derived aggregate may carry; the lowest-weight
    /// tail is dropped (deterministically) past this.
    pub max_fragments: usize,
}

impl Default for ProfileStoreConfig {
    fn default() -> Self {
        ProfileStoreConfig {
            default_policy: MergePolicy::Union,
            overrides: Vec::new(),
            epoch_quantum: 4096,
            seed: 0x9E37_79B9_7F4A_7C15,
            max_fragments: 4096,
        }
    }
}

/// One session's published profile: its key, the publisher's logical
/// epoch (blocks executed / events ingested at capture), and its warm
/// state. Sealed on the wire like a snapshot: magic + version + payload
/// + FNV-1a-64 checksum, verified before any field is parsed.
#[derive(Clone, PartialEq, Debug)]
pub struct SessionProfile {
    /// Configuration coordinates the profile aggregates under.
    pub key: ProfileKey,
    /// The publisher's logical clock at capture; drives decay bucketing.
    pub epoch: u64,
    /// The published warm state.
    pub warm: EngineWarmState,
}

impl SessionProfile {
    /// Encodes the profile into its sealed binary form.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(128);
        out.extend_from_slice(&PROFILE_MAGIC);
        out.extend_from_slice(&PROFILE_VERSION.to_le_bytes());
        self.key.encode_into(&mut out);
        put_u64(&mut out, self.epoch);
        put_warm(&mut out, &self.warm);
        let seal = fnv1a64(&out);
        put_u64(&mut out, seal);
        out
    }

    /// Decodes a sealed profile blob.
    ///
    /// # Errors
    ///
    /// See [`ProfileError`]; the checksum is verified before any field
    /// is interpreted, mirroring the snapshot seal rules.
    pub fn decode(blob: &[u8]) -> Result<SessionProfile, ProfileError> {
        if blob.len() < PROFILE_MAGIC.len() + 2 + 8 {
            return Err(ProfileError::TooShort);
        }
        let (content, seal_bytes) = blob.split_at(blob.len() - 8);
        let stored = u64::from_le_bytes(seal_bytes.try_into().unwrap());
        let computed = fnv1a64(content);
        if stored != computed {
            return Err(ProfileError::ChecksumMismatch { stored, computed });
        }
        let mut r = Reader::new(content);
        if r.take(4, "magic")? != PROFILE_MAGIC {
            return Err(ProfileError::BadMagic);
        }
        let version = u16::from_le_bytes(r.take(2, "version")?.try_into().unwrap());
        if version != PROFILE_VERSION {
            return Err(ProfileError::UnsupportedVersion(version));
        }
        let key = ProfileKey::read(&mut r)?;
        let epoch = r.u64("epoch")?;
        let warm = read_warm(&mut r)?;
        if r.remaining() != 0 {
            return Err(ProfileError::Malformed("trailing bytes"));
        }
        Ok(SessionProfile { key, epoch, warm })
    }
}

/// Why a profile blob failed to decode. Mirrors
/// [`SnapshotError`](crate::SnapshotError): seal first, then header,
/// then fields.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ProfileError {
    /// The blob is too short to hold even the header and seal.
    TooShort,
    /// The magic bytes are not `HPFP`.
    BadMagic,
    /// The version is not one this build understands (stale or future).
    UnsupportedVersion(u16),
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

impl std::fmt::Display for ProfileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProfileError::TooShort => write!(f, "profile too short for header and checksum"),
            ProfileError::BadMagic => write!(f, "not a session profile (bad magic)"),
            ProfileError::UnsupportedVersion(v) => write!(
                f,
                "unsupported profile version {v} (this build reads {PROFILE_VERSION})"
            ),
            ProfileError::ChecksumMismatch { stored, computed } => write!(
                f,
                "profile checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            ProfileError::Malformed(field) => write!(f, "malformed profile field `{field}`"),
        }
    }
}

impl std::error::Error for ProfileError {}

impl From<ReadError> for ProfileError {
    fn from(e: ReadError) -> Self {
        ProfileError::Malformed(e.0)
    }
}

/// A derived, ready-to-import aggregate for one key: what admission
/// hands to [`Session::prewarm`](crate::Session::prewarm). Shards hold
/// these behind `Arc` in their read-mostly caches.
#[derive(Clone, PartialEq, Debug)]
pub struct PrewarmProfile {
    /// The key the aggregate covers.
    pub key: ProfileKey,
    /// Policy the aggregate was derived under.
    pub policy: MergePolicy,
    /// The merged warm state, in deterministic install order.
    pub warm: EngineWarmState,
    /// Publishers folded into the aggregate.
    pub publishers: u64,
    /// Newest publish epoch folded in.
    pub epoch: u64,
    /// Store generation when the aggregate was rebuilt.
    pub generation: u64,
}

/// What a publish did; carried back to the client and into telemetry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PublishInfo {
    /// Publishers merged into the key's aggregate, this one included.
    pub publishers: u64,
    /// Store generation after the merge.
    pub generation: u64,
    /// Fragments in the rebuilt aggregate.
    pub fragments: u64,
}

/// Store-level counters surfaced through `Response::ServerStats`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ProfileStoreStats {
    /// Per-key aggregates currently held.
    pub profiles_held: u64,
    /// Canonical encoded size of the whole store in bytes.
    pub bytes: u64,
    /// Current store generation (bumped on every merge).
    pub generation: u64,
    /// Publishes held in the quarantine bucket (never merged into any
    /// fleet aggregate until re-promoted).
    pub quarantined: u64,
}

/// Raw commutative per-fragment state: every operation on it is a sum
/// or a max, so fold order cannot matter.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
struct FragAgg {
    /// Straight-line instruction count (identical across publishers of
    /// the same block sequence; max keeps the fold commutative anyway).
    insts: u32,
    /// Publishers carrying the fragment, per epoch bucket.
    by_bucket: BTreeMap<u64, u64>,
}

/// Raw commutative state for one key.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
struct KeyAggregate {
    publishers: u64,
    max_epoch: u64,
    max_bucket: u64,
    /// Fragment block sequence → per-bucket publisher counts.
    fragments: BTreeMap<Vec<u32>, FragAgg>,
    /// Exit-stub target → per-bucket summed arrivals.
    exits: BTreeMap<u32, BTreeMap<u64, u64>>,
    /// NET head → per-bucket summed counts.
    nets: BTreeMap<u32, BTreeMap<u64, u64>>,
    /// Armed target → per-bucket publisher counts.
    armed: BTreeMap<u32, BTreeMap<u64, u64>>,
}

impl KeyAggregate {
    fn fold(&mut self, profile: &SessionProfile, quantum: u64) {
        let bucket = profile.epoch / quantum;
        self.publishers += 1;
        self.max_epoch = self.max_epoch.max(profile.epoch);
        self.max_bucket = self.max_bucket.max(bucket);
        for fragment in &profile.warm.fragments {
            let entry = self.fragments.entry(fragment.blocks.clone()).or_default();
            entry.insts = entry.insts.max(fragment.insts);
            *entry.by_bucket.entry(bucket).or_insert(0) += 1;
        }
        for &(target, count) in &profile.warm.exit_counts {
            *self
                .exits
                .entry(target)
                .or_default()
                .entry(bucket)
                .or_insert(0) += count;
        }
        for &(head, count) in &profile.warm.net_counters {
            *self
                .nets
                .entry(head)
                .or_default()
                .entry(bucket)
                .or_insert(0) += count;
        }
        for &target in &profile.warm.armed {
            *self
                .armed
                .entry(target)
                .or_default()
                .entry(bucket)
                .or_insert(0) += 1;
        }
    }

    /// Folds another raw aggregate into this one — the re-promotion
    /// path, where a whole quarantine bucket rejoins the fleet
    /// aggregate. Every operation is a sum or a max, so merging a
    /// bucket is equivalent to having folded its publishes directly.
    fn merge(&mut self, other: &KeyAggregate) {
        self.publishers += other.publishers;
        self.max_epoch = self.max_epoch.max(other.max_epoch);
        self.max_bucket = self.max_bucket.max(other.max_bucket);
        for (blocks, frag) in &other.fragments {
            let entry = self.fragments.entry(blocks.clone()).or_default();
            entry.insts = entry.insts.max(frag.insts);
            for (&bucket, &v) in &frag.by_bucket {
                *entry.by_bucket.entry(bucket).or_insert(0) += v;
            }
        }
        for (ours, theirs) in [
            (&mut self.exits, &other.exits),
            (&mut self.nets, &other.nets),
            (&mut self.armed, &other.armed),
        ] {
            for (&id, buckets) in theirs {
                let entry = ours.entry(id).or_default();
                for (&bucket, &v) in buckets {
                    *entry.entry(bucket).or_insert(0) += v;
                }
            }
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    keys: BTreeMap<ProfileKey, KeyAggregate>,
    aggregates: BTreeMap<ProfileKey, Arc<PrewarmProfile>>,
    /// Publishes from unhealthy sessions (degraded ladder, bail-out,
    /// poisoned trace heads). Held apart from `keys`: nothing here
    /// reaches a derived aggregate or bumps the generation until the
    /// key is explicitly re-promoted.
    quarantine: BTreeMap<ProfileKey, KeyAggregate>,
    encoded_bytes: u64,
}

/// The store itself: one per [`SessionManager`](crate::SessionManager),
/// shared with every shard. Publishes (rare) take the mutex and rebuild
/// one key's aggregate; admission never touches the mutex unless the
/// lock-free generation check says a shard's cache is behind.
#[derive(Debug)]
pub struct ProfileStore {
    config: ProfileStoreConfig,
    generation: AtomicU64,
    inner: Mutex<Inner>,
}

impl ProfileStore {
    /// Creates an empty store.
    ///
    /// # Panics
    ///
    /// Panics on a zero epoch quantum (bucketing would divide by zero).
    pub fn new(config: ProfileStoreConfig) -> ProfileStore {
        assert!(config.epoch_quantum > 0, "epoch quantum must be positive");
        ProfileStore {
            config,
            generation: AtomicU64::new(0),
            inner: Mutex::new(Inner::default()),
        }
    }

    /// The store configuration.
    pub fn config(&self) -> &ProfileStoreConfig {
        &self.config
    }

    /// The merge policy in force for a key.
    pub fn policy_for(&self, key: &ProfileKey) -> MergePolicy {
        key.workload
            .and_then(|w| {
                self.config
                    .overrides
                    .iter()
                    .find(|&&(o, _)| o == w)
                    .map(|&(_, p)| p)
            })
            .unwrap_or(self.config.default_policy)
    }

    /// Current generation — bumped on every merge. Lock-free; shards
    /// compare it against their cached generation at admission and only
    /// refresh (briefly locking) when behind.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Folds a published profile into its key's aggregate and rebuilds
    /// the derived pre-warm image.
    ///
    /// # Errors
    ///
    /// Rejects empty profiles and structurally invalid warm state (a
    /// fragment with no blocks) — the same class of state
    /// [`EngineWarmState::validate`] would refuse at import.
    pub fn publish(&self, profile: &SessionProfile) -> Result<PublishInfo, String> {
        validate_publish(profile)?;
        let mut inner = self.inner.lock().expect("profile store poisoned");
        let agg = inner.keys.entry(profile.key).or_default();
        agg.fold(profile, self.config.epoch_quantum);
        let publishers = agg.publishers;
        let generation = self.generation.fetch_add(1, Ordering::AcqRel) + 1;
        let derived = Arc::new(self.derive(
            profile.key,
            inner.keys.get(&profile.key).unwrap(),
            generation,
        ));
        let fragments = derived.warm.fragments.len() as u64;
        inner.aggregates.insert(profile.key, derived);
        inner.encoded_bytes = self.encode_locked(&inner).len() as u64;
        Ok(PublishInfo {
            publishers,
            generation,
            fragments,
        })
    }

    /// Folds a profile into the key's **quarantine** bucket instead of
    /// the fleet aggregate. Quarantined state is structurally validated
    /// and retained (it may be perfectly good warm state from a session
    /// that merely tripped the degradation ladder), but it never reaches
    /// a derived aggregate — and never bumps the store generation — until
    /// [`ProfileStore::repromote`] clears the key.
    ///
    /// # Errors
    ///
    /// Same rejection rules as [`ProfileStore::publish`].
    pub fn publish_quarantined(&self, profile: &SessionProfile) -> Result<PublishInfo, String> {
        validate_publish(profile)?;
        let mut inner = self.inner.lock().expect("profile store poisoned");
        let agg = inner.quarantine.entry(profile.key).or_default();
        agg.fold(profile, self.config.epoch_quantum);
        let publishers = agg.publishers;
        let fragments = agg.fragments.len() as u64;
        inner.encoded_bytes = self.encode_locked(&inner).len() as u64;
        Ok(PublishInfo {
            publishers,
            generation: self.generation(),
            fragments,
        })
    }

    /// Re-admits a key's quarantine bucket into the fleet aggregate —
    /// the operator (or a health policy) has decided the quarantined
    /// publishes are trustworthy after all. The whole bucket merges as
    /// if its publishes had arrived directly, the generation bumps, and
    /// the derived aggregate rebuilds.
    ///
    /// # Errors
    ///
    /// Fails when the key has nothing in quarantine.
    pub fn repromote(&self, key: &ProfileKey) -> Result<PublishInfo, String> {
        let mut inner = self.inner.lock().expect("profile store poisoned");
        let quarantined = inner
            .quarantine
            .remove(key)
            .ok_or_else(|| format!("no quarantined profiles for {}", key.label()))?;
        inner.keys.entry(*key).or_default().merge(&quarantined);
        let agg = inner.keys.get(key).unwrap();
        let publishers = agg.publishers;
        let generation = self.generation.fetch_add(1, Ordering::AcqRel) + 1;
        let derived = Arc::new(self.derive(*key, agg, generation));
        let fragments = derived.warm.fragments.len() as u64;
        inner.aggregates.insert(*key, derived);
        inner.encoded_bytes = self.encode_locked(&inner).len() as u64;
        Ok(PublishInfo {
            publishers,
            generation,
            fragments,
        })
    }

    /// The derived aggregate for a key, if any publisher has fed it.
    pub fn fetch(&self, key: &ProfileKey) -> Option<Arc<PrewarmProfile>> {
        self.inner
            .lock()
            .expect("profile store poisoned")
            .aggregates
            .get(key)
            .cloned()
    }

    /// Store-level counters for `Response::ServerStats`.
    pub fn stats(&self) -> ProfileStoreStats {
        let inner = self.inner.lock().expect("profile store poisoned");
        ProfileStoreStats {
            profiles_held: inner.keys.len() as u64,
            bytes: inner.encoded_bytes,
            generation: self.generation(),
            quarantined: inner.quarantine.values().map(|a| a.publishers).sum(),
        }
    }

    /// Canonical serialization of the whole store: raw commutative state
    /// plus each key's derived aggregate, in key order, sealed like the
    /// snapshot format. Two stores fed the same publishes in any order
    /// encode byte-identically — the merge-determinism tests pin exactly
    /// this.
    pub fn encode(&self) -> Vec<u8> {
        let inner = self.inner.lock().expect("profile store poisoned");
        self.encode_locked(&inner)
    }

    fn encode_locked(&self, inner: &Inner) -> Vec<u8> {
        let mut out = Vec::with_capacity(256);
        out.extend_from_slice(b"HPFS");
        out.extend_from_slice(&PROFILE_VERSION.to_le_bytes());
        put_u32(&mut out, inner.keys.len() as u32);
        for (key, agg) in &inner.keys {
            key.encode_into(&mut out);
            put_key_aggregate(&mut out, agg);
            match inner.aggregates.get(key) {
                Some(derived) => {
                    out.push(1);
                    put_warm(&mut out, &derived.warm);
                }
                None => out.push(0),
            }
        }
        // Quarantine rides along in raw form (no derived image — nothing
        // quarantined is ever importable), keeping the order-independence
        // guarantee over quarantined publishes too.
        put_u32(&mut out, inner.quarantine.len() as u32);
        for (key, agg) in &inner.quarantine {
            key.encode_into(&mut out);
            put_key_aggregate(&mut out, agg);
        }
        let seal = fnv1a64(&out);
        put_u64(&mut out, seal);
        out
    }

    /// Derives the pre-warm image for one key under its policy. Pure
    /// function of the raw aggregate + config; every ordering below is
    /// canonical (weight-descending with a seeded tie-break for
    /// fragments, id-ascending for counters), never map arrival order.
    fn derive(&self, key: ProfileKey, agg: &KeyAggregate, generation: u64) -> PrewarmProfile {
        let policy = self.policy_for(&key);
        let decayed = |by_bucket: &BTreeMap<u64, u64>, half_life: u64| -> u64 {
            by_bucket
                .iter()
                .map(|(&bucket, &v)| {
                    let age = (agg.max_bucket - bucket) / half_life.max(1);
                    if age >= 64 {
                        0
                    } else {
                        v >> age
                    }
                })
                .sum()
        };
        let total = |by_bucket: &BTreeMap<u64, u64>| -> u64 { by_bucket.values().sum() };
        // Keep-weight for set-valued entries (fragments, armed targets),
        // where per-bucket values are publisher counts.
        let keep_weight = |by_bucket: &BTreeMap<u64, u64>| -> u64 {
            match policy {
                MergePolicy::Union => total(by_bucket),
                MergePolicy::FrequencyWeighted { min_percent } => {
                    let seen = total(by_bucket);
                    if seen * 100 >= u64::from(min_percent) * agg.publishers {
                        seen
                    } else {
                        0
                    }
                }
                MergePolicy::ExponentialDecay { half_life } => decayed(by_bucket, half_life),
            }
        };
        // Counter value for sum-valued entries (exit/NET counters).
        let counter_value = |by_bucket: &BTreeMap<u64, u64>| -> u64 {
            match policy {
                MergePolicy::Union => total(by_bucket),
                MergePolicy::FrequencyWeighted { .. } => total(by_bucket) / agg.publishers.max(1),
                MergePolicy::ExponentialDecay { half_life } => decayed(by_bucket, half_life),
            }
        };

        let mut picked: Vec<(u64, u64, &Vec<u32>, u32)> = agg
            .fragments
            .iter()
            .filter_map(|(blocks, frag)| {
                let weight = keep_weight(&frag.by_bucket);
                (weight > 0).then(|| (weight, self.tiebreak(blocks), blocks, frag.insts))
            })
            .collect();
        picked.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(b.2)));
        picked.truncate(self.config.max_fragments);
        let fragments = picked
            .into_iter()
            .map(|(_, _, blocks, insts)| FragmentRecord {
                blocks: blocks.clone(),
                insts,
            })
            .collect();

        let counters = |table: &BTreeMap<u32, BTreeMap<u64, u64>>| -> Vec<(u32, u64)> {
            table
                .iter()
                .filter_map(|(&id, buckets)| {
                    let v = counter_value(buckets);
                    (v > 0).then_some((id, v))
                })
                .collect()
        };
        let armed = agg
            .armed
            .iter()
            .filter_map(|(&target, buckets)| (keep_weight(buckets) > 0).then_some(target))
            .collect();

        PrewarmProfile {
            key,
            policy,
            warm: EngineWarmState {
                fragments,
                exit_counts: counters(&agg.exits),
                armed,
                net_counters: counters(&agg.nets),
            },
            publishers: agg.publishers,
            epoch: agg.max_epoch,
            generation,
        }
    }

    /// Seeded deterministic tie-break for equal-weight fragments.
    fn tiebreak(&self, blocks: &[u32]) -> u64 {
        let mut bytes = Vec::with_capacity(8 + blocks.len() * 4);
        bytes.extend_from_slice(&self.config.seed.to_le_bytes());
        for &b in blocks {
            bytes.extend_from_slice(&b.to_le_bytes());
        }
        fnv1a64(&bytes)
    }
}

fn put_bucket_map(out: &mut Vec<u8>, map: &BTreeMap<u64, u64>) {
    put_u32(out, map.len() as u32);
    for (&bucket, &v) in map {
        put_u64(out, bucket);
        put_u64(out, v);
    }
}

/// Canonical encoding of one raw aggregate (shared by the fleet and
/// quarantine sections).
fn put_key_aggregate(out: &mut Vec<u8>, agg: &KeyAggregate) {
    put_u64(out, agg.publishers);
    put_u64(out, agg.max_epoch);
    put_u32(out, agg.fragments.len() as u32);
    for (blocks, frag) in &agg.fragments {
        put_u32(out, blocks.len() as u32);
        for &b in blocks {
            put_u32(out, b);
        }
        put_u32(out, frag.insts);
        put_bucket_map(out, &frag.by_bucket);
    }
    for table in [&agg.exits, &agg.nets, &agg.armed] {
        put_u32(out, table.len() as u32);
        for (&id, buckets) in table {
            put_u32(out, id);
            put_bucket_map(out, buckets);
        }
    }
}

/// Shared admission checks for both publish paths: non-empty warm state
/// and structural validity (the per-program block-range check happens at
/// import, where the program is known).
fn validate_publish(profile: &SessionProfile) -> Result<(), String> {
    if profile.warm.is_empty() {
        return Err("profile carries no warm state; nothing to publish".into());
    }
    profile.warm.validate(u32::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn warm(fragments: &[(&[u32], u32)], nets: &[(u32, u64)]) -> EngineWarmState {
        EngineWarmState {
            fragments: fragments
                .iter()
                .map(|&(blocks, insts)| FragmentRecord {
                    blocks: blocks.to_vec(),
                    insts,
                })
                .collect(),
            exit_counts: Vec::new(),
            armed: Vec::new(),
            net_counters: nets.to_vec(),
        }
    }

    fn key() -> ProfileKey {
        ProfileKey {
            workload: Some(hotpath_workloads::WorkloadName::Compress),
            scale: Scale::Smoke,
            scheme: Scheme::Net,
            delay: 50,
        }
    }

    fn profile(epoch: u64, w: EngineWarmState) -> SessionProfile {
        SessionProfile {
            key: key(),
            epoch,
            warm: w,
        }
    }

    fn store(policy: MergePolicy) -> ProfileStore {
        ProfileStore::new(ProfileStoreConfig {
            default_policy: policy,
            epoch_quantum: 100,
            ..ProfileStoreConfig::default()
        })
    }

    #[test]
    fn profile_blob_round_trips() {
        let p = profile(12_345, warm(&[(&[3, 4, 5], 17)], &[(3, 12)]));
        assert_eq!(SessionProfile::decode(&p.encode()).unwrap(), p);
    }

    #[test]
    fn profile_blob_rejection_mirrors_snapshot_seal_checks() {
        let blob = profile(1, warm(&[(&[1], 2)], &[])).encode();

        // Any flipped bit fails the seal before parsing.
        let mut corrupt = blob.clone();
        corrupt[9] ^= 0x10;
        assert!(matches!(
            SessionProfile::decode(&corrupt),
            Err(ProfileError::ChecksumMismatch { .. })
        ));
        assert!(SessionProfile::decode(&blob[..blob.len() - 2]).is_err());
        assert_eq!(SessionProfile::decode(&[]), Err(ProfileError::TooShort));

        let reseal = |mut b: Vec<u8>| {
            let len = b.len();
            let seal = fnv1a64(&b[..len - 8]);
            b[len - 8..].copy_from_slice(&seal.to_le_bytes());
            b
        };
        let mut bad_magic = blob.clone();
        bad_magic[0] = b'X';
        assert_eq!(
            SessionProfile::decode(&reseal(bad_magic)),
            Err(ProfileError::BadMagic)
        );
        // A stale (or future) version is refused outright rather than
        // half-parsed.
        let mut stale = blob.clone();
        stale[4] = 0;
        assert_eq!(
            SessionProfile::decode(&reseal(stale)),
            Err(ProfileError::UnsupportedVersion(0))
        );
        let mut trailing = blob;
        trailing.truncate(trailing.len() - 8);
        trailing.push(0);
        let trailing = {
            let seal = fnv1a64(&trailing);
            let mut t = trailing;
            t.extend_from_slice(&seal.to_le_bytes());
            t
        };
        assert_eq!(
            SessionProfile::decode(&trailing),
            Err(ProfileError::Malformed("trailing bytes"))
        );
    }

    #[test]
    fn inflated_counts_are_malformed_not_allocated() {
        let mut w = warm(&[(&[3, 4, 5], 17), (&[9], 2)], &[(3, 12)]);
        w.exit_counts = vec![(6, 41)];
        w.armed = vec![6];
        let p = profile(7, w);
        let blob = p.encode();
        // Magic, version, key (workload, scale, scheme, delay), epoch.
        let warm_at = 4 + 2 + 3 + 8 + 8;
        for at in crate::wire::warm_count_offsets(&p.warm) {
            let mut inflated = blob.clone();
            let at = warm_at + at;
            inflated[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            let len = inflated.len();
            let seal = fnv1a64(&inflated[..len - 8]);
            inflated[len - 8..].copy_from_slice(&seal.to_le_bytes());
            assert!(
                matches!(
                    SessionProfile::decode(&inflated),
                    Err(ProfileError::Malformed(_))
                ),
                "count at byte {at} inflated to u32::MAX was not refused as malformed"
            );
        }
    }

    #[test]
    fn union_keeps_everything_and_sums_counters() {
        let s = store(MergePolicy::Union);
        s.publish(&profile(10, warm(&[(&[1, 2], 5)], &[(1, 40)])))
            .unwrap();
        s.publish(&profile(20, warm(&[(&[7], 2)], &[(1, 10), (7, 3)])))
            .unwrap();
        let agg = s.fetch(&key()).unwrap();
        assert_eq!(agg.warm.fragments.len(), 2);
        assert_eq!(agg.warm.net_counters, vec![(1, 50), (7, 3)]);
        assert_eq!(agg.publishers, 2);
    }

    #[test]
    fn frequency_weighted_drops_minority_fragments_and_averages() {
        let s = store(MergePolicy::FrequencyWeighted { min_percent: 50 });
        for epoch in [10, 20, 30] {
            s.publish(&profile(epoch, warm(&[(&[1, 2], 5)], &[(1, 30)])))
                .unwrap();
        }
        s.publish(&profile(40, warm(&[(&[9], 1)], &[(1, 10)])))
            .unwrap();
        let agg = s.fetch(&key()).unwrap();
        // [1,2] seen by 3/4 publishers (≥50%); [9] by 1/4 (<50%).
        assert_eq!(agg.warm.fragments.len(), 1);
        assert_eq!(agg.warm.fragments[0].blocks, vec![1, 2]);
        // Mean of (30+30+30+10)/4.
        assert_eq!(agg.warm.net_counters, vec![(1, 25)]);
    }

    #[test]
    fn exponential_decay_forgets_stale_publishes() {
        let s = store(MergePolicy::ExponentialDecay { half_life: 1 });
        // Bucket 0 (epoch 0) vs bucket 70 (epoch 7000, quantum 100):
        // 70 half-lives decay any single-publisher weight to zero.
        s.publish(&profile(0, warm(&[(&[1, 2], 5)], &[(1, 1000)])))
            .unwrap();
        s.publish(&profile(7000, warm(&[(&[7], 2)], &[(7, 8)])))
            .unwrap();
        let agg = s.fetch(&key()).unwrap();
        assert_eq!(agg.warm.fragments.len(), 1);
        assert_eq!(agg.warm.fragments[0].blocks, vec![7]);
        assert_eq!(agg.warm.net_counters, vec![(7, 8)]);
    }

    #[test]
    fn publish_rejects_empty_and_structurally_invalid_profiles() {
        let s = store(MergePolicy::Union);
        assert!(s
            .publish(&profile(1, warm(&[], &[])))
            .unwrap_err()
            .contains("nothing to publish"));
        let bad = profile(
            1,
            EngineWarmState {
                fragments: vec![FragmentRecord {
                    blocks: vec![],
                    insts: 1,
                }],
                ..EngineWarmState::default()
            },
        );
        assert!(s.publish(&bad).is_err());
        assert_eq!(s.generation(), 0, "rejected publishes do not merge");
    }

    #[test]
    fn merges_are_order_independent_for_every_policy() {
        let profiles = [
            profile(10, warm(&[(&[1, 2], 5), (&[3], 1)], &[(1, 40)])),
            profile(250, warm(&[(&[1, 2], 5)], &[(1, 7), (3, 2)])),
            profile(520, warm(&[(&[9, 10, 11], 9)], &[(9, 60)])),
        ];
        for policy in [
            MergePolicy::Union,
            MergePolicy::FrequencyWeighted { min_percent: 50 },
            MergePolicy::ExponentialDecay { half_life: 2 },
        ] {
            let forward = store(policy);
            let reverse = store(policy);
            for p in &profiles {
                forward.publish(p).unwrap();
            }
            for p in profiles.iter().rev() {
                reverse.publish(p).unwrap();
            }
            assert_eq!(
                forward.encode(),
                reverse.encode(),
                "store bytes diverge under {policy:?}"
            );
            assert_eq!(
                forward.fetch(&key()).unwrap().warm,
                reverse.fetch(&key()).unwrap().warm,
                "derived aggregate diverges under {policy:?}"
            );
        }
    }

    #[test]
    fn quarantine_never_merges_until_repromoted() {
        let s = store(MergePolicy::Union);
        s.publish(&profile(10, warm(&[(&[1, 2], 5)], &[(1, 40)])))
            .unwrap();
        let gen_before = s.generation();

        // Quarantined publishes are held apart: no generation bump, no
        // change to the derived aggregate, but counted in stats.
        s.publish_quarantined(&profile(20, warm(&[(&[7], 2)], &[(7, 9)])))
            .unwrap();
        s.publish_quarantined(&profile(30, warm(&[(&[7], 2)], &[(7, 1)])))
            .unwrap();
        assert_eq!(s.generation(), gen_before);
        assert_eq!(s.stats().quarantined, 2);
        let agg = s.fetch(&key()).unwrap();
        assert_eq!(agg.publishers, 1);
        assert!(agg.warm.fragments.iter().all(|f| f.blocks != vec![7]));

        // Re-promotion merges the bucket as if its publishes had
        // arrived directly, and empties the quarantine.
        let info = s.repromote(&key()).unwrap();
        assert_eq!(info.publishers, 3);
        assert!(s.generation() > gen_before);
        assert_eq!(s.stats().quarantined, 0);
        let agg = s.fetch(&key()).unwrap();
        assert!(agg.warm.fragments.iter().any(|f| f.blocks == vec![7]));
        assert!(agg.warm.net_counters.contains(&(7, 10)), "sums merged");
        assert!(s.repromote(&key()).is_err(), "bucket now empty");

        // Merged-via-quarantine equals published-directly, byte for byte.
        let direct = store(MergePolicy::Union);
        direct
            .publish(&profile(10, warm(&[(&[1, 2], 5)], &[(1, 40)])))
            .unwrap();
        direct
            .publish(&profile(20, warm(&[(&[7], 2)], &[(7, 9)])))
            .unwrap();
        direct
            .publish(&profile(30, warm(&[(&[7], 2)], &[(7, 1)])))
            .unwrap();
        assert_eq!(s.encode(), direct.encode());
    }

    #[test]
    fn per_workload_policy_overrides_take_precedence() {
        let s = ProfileStore::new(ProfileStoreConfig {
            default_policy: MergePolicy::Union,
            overrides: vec![(
                hotpath_workloads::WorkloadName::Compress,
                MergePolicy::ExponentialDecay { half_life: 3 },
            )],
            ..ProfileStoreConfig::default()
        });
        assert_eq!(
            s.policy_for(&key()),
            MergePolicy::ExponentialDecay { half_life: 3 }
        );
        let ingest = ProfileKey {
            workload: None,
            ..key()
        };
        assert_eq!(s.policy_for(&ingest), MergePolicy::Union);
    }
}
