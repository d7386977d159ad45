//! Fleet profile-store contract tests.
//!
//! The store shares warm state across sessions, so the invariant it
//! must never bend is the one every other serving path already holds:
//! pre-warming changes *when* traces exist, never *what* the program
//! computes. A pre-warmed run's final statistics, memory, and globals
//! are bit-identical to a cold run, merges are order-independent down to
//! the byte, and corrupt or stale profiles are refused exactly like
//! corrupt snapshots.

use hotpath::dynamo::{EngineWarmState, FragmentRecord};
use hotpath::prelude::*;
use hotpath::serve::{
    MergePolicy, PrewarmOutcome, ProfileError, ProfileKey, ProfileStore, ProfileStoreConfig,
    Request, Response, ServeConfig, Session, SessionConfig, SessionManager, SessionProfile,
    SessionSnapshot,
};
use hotpath::workloads::ALL_WORKLOADS;

/// A plain interpreted run: the reference every serving path must match.
fn plain(name: WorkloadName, scale: Scale) -> (hotpath::vm::RunStats, Vec<i64>, Vec<i64>) {
    let program = build(name, scale).program;
    let mut vm = Vm::new(&program);
    let stats = vm
        .run(&mut hotpath::vm::NullObserver)
        .expect("workload runs");
    (stats, vm.memory().to_vec(), vm.globals().to_vec())
}

/// Opens a session and returns `(id, prewarm outcome)`.
fn open(manager: &SessionManager, config: SessionConfig) -> (u64, PrewarmOutcome) {
    match manager.request(Request::Open { config }) {
        Response::Opened {
            session, prewarm, ..
        } => (session, prewarm),
        other => panic!("open failed: {other:?}"),
    }
}

/// Drives an exec session to completion.
fn finish(manager: &SessionManager, session: u64) -> hotpath::vm::RunStats {
    loop {
        match manager.request(Request::Run {
            session,
            fuel: None,
        }) {
            Response::Ran { done: true, stats } => return stats,
            Response::Ran { done: false, .. } => {}
            Response::Busy => std::thread::sleep(std::time::Duration::from_millis(1)),
            other => panic!("run failed: {other:?}"),
        }
    }
}

/// Captures a session's exact machine state through the snapshot format.
fn machine_state(
    manager: &SessionManager,
    session: u64,
) -> (hotpath::vm::RunStats, Vec<i64>, Vec<i64>) {
    let Response::SnapshotBlob { blob } = manager.request(Request::Snapshot { session }) else {
        panic!("snapshot failed")
    };
    let saved = SessionSnapshot::decode(&blob)
        .expect("snapshot decodes")
        .vm
        .expect("exec session carries machine state");
    (saved.stats, saved.memory, saved.globals)
}

fn status(manager: &SessionManager, session: u64) -> hotpath::serve::SessionStatus {
    match manager.request(Request::Query { session }) {
        Response::Status(status) => status,
        other => panic!("query failed: {other:?}"),
    }
}

/// Blocks a session has executed when its first fragment install
/// becomes visible, looking between 256-block slices: fine enough to
/// resolve a cold start, coarse enough to stay cheap.
fn blocks_to_first_trace(manager: &SessionManager, session: u64) -> u64 {
    loop {
        let status = status(manager, session);
        if status.installs >= 1 {
            return status.stats.blocks_executed;
        }
        assert!(!status.done, "session completed without a single install");
        match manager.request(Request::Run {
            session,
            fuel: Some(256),
        }) {
            Response::Ran { .. } => {}
            Response::Busy => std::thread::sleep(std::time::Duration::from_millis(1)),
            other => panic!("run failed: {other:?}"),
        }
    }
}

/// The acceptance criterion: for every workload, a session pre-warmed
/// from a published profile starts with installed fragments before
/// executing a single block (strictly ahead of any cold session, whose
/// first install necessarily costs blocks) and still ends bit-identical
/// to the cold run and to plain interpretation. Sessions run at the one
/// shipped optimizer level; `tests/trace_opt.rs` covers every level.
#[test]
fn prewarmed_runs_are_bit_identical_for_every_workload() {
    let manager = SessionManager::new(ServeConfig {
        shards: 2,
        ..ServeConfig::default()
    });
    for name in ALL_WORKLOADS {
        let reference = plain(name, Scale::Smoke);
        let config = SessionConfig::exec(name, Scale::Smoke);

        // Cold run: no installs at admission, publish at the end.
        let (cold, outcome) = open(&manager, config.clone());
        assert_eq!(outcome, PrewarmOutcome::NotRequested);
        assert_eq!(
            status(&manager, cold).installs,
            0,
            "{name}: a cold session cannot have installs at admission"
        );
        let cold_stats = finish(&manager, cold);
        assert_eq!(cold_stats, reference.0, "{name}: cold stats");
        match manager.request(Request::PublishProfile { session: cold }) {
            Response::ProfilePublished { fragments, .. } => {
                assert!(fragments >= 1, "{name}: nothing aggregated")
            }
            other => panic!("{name}: publish failed: {other:?}"),
        }

        // Pre-warmed run: fragments installed before any block runs —
        // blocks-to-first-trace is strictly below any cold number.
        let (warmed, outcome) = open(&manager, config.with_prewarm(true));
        match outcome {
            PrewarmOutcome::Warmed { fragments, .. } => {
                assert!(fragments >= 1, "{name}: empty pre-warm")
            }
            other => panic!("{name}: expected Warmed, got {other:?}"),
        }
        let warm_status = status(&manager, warmed);
        assert_eq!(warm_status.stats.blocks_executed, 0);
        assert!(
            warm_status.installs >= 1,
            "{name}: pre-warm must install fragments at admission"
        );
        let warm_stats = finish(&manager, warmed);
        assert_eq!(warm_stats, cold_stats, "{name}: stats diverged");
        let machine = machine_state(&manager, warmed);
        assert_eq!(machine.1, reference.1, "{name}: memory diverged");
        assert_eq!(machine.2, reference.2, "{name}: globals diverged");

        for session in [cold, warmed] {
            manager.request(Request::Close { session });
        }
    }
}

/// The warm-start bound on its own: for every workload, a pre-warmed
/// session reaches its first installed fragment in strictly fewer
/// blocks than the cold session whose published profile warmed it.
/// Equal counts fail — a pre-warm that saves nothing is not a pre-warm.
#[test]
fn prewarmed_sessions_reach_their_first_trace_in_strictly_fewer_blocks() {
    let manager = SessionManager::new(ServeConfig::default());
    for name in ALL_WORKLOADS {
        let config = SessionConfig::exec(name, Scale::Smoke);
        let (cold, _) = open(&manager, config.clone());
        let cold_first_trace = blocks_to_first_trace(&manager, cold);
        assert!(
            cold_first_trace > 0,
            "{name}: a cold session installed a fragment before running a block"
        );
        finish(&manager, cold);
        match manager.request(Request::PublishProfile { session: cold }) {
            Response::ProfilePublished { .. } => {}
            other => panic!("{name}: publish failed: {other:?}"),
        }
        let (warmed, outcome) = open(&manager, config.with_prewarm(true));
        assert!(
            matches!(outcome, PrewarmOutcome::Warmed { .. }),
            "{name}: expected Warmed, got {outcome:?}"
        );
        let warm_first_trace = blocks_to_first_trace(&manager, warmed);
        assert!(
            warm_first_trace < cold_first_trace,
            "{name}: pre-warmed first trace at {warm_first_trace} blocks is not \
             strictly below the cold {cold_first_trace}"
        );
        for session in [cold, warmed] {
            manager.request(Request::Close { session });
        }
    }
}

/// Real publisher profiles for one workload: K sessions run staggered
/// prefixes of the program and export their warm state.
fn staggered_profiles(name: WorkloadName, publishers: u64) -> Vec<SessionProfile> {
    let total = plain(name, Scale::Smoke).0.blocks_executed;
    (0..publishers)
        .map(|i| {
            let config = SessionConfig::exec(name, Scale::Smoke);
            let mut session = Session::open(i + 1, 0, config.clone());
            let budget = (total * (i + 1) / (publishers + 1)).max(1);
            session.run(Some(budget)).expect("publisher run");
            SessionProfile {
                key: ProfileKey::of(&config),
                epoch: session.epoch(),
                warm: session.engine().export_warm_state(),
            }
        })
        .filter(|p| !p.warm.is_empty())
        .collect()
}

/// Merging is commutative for every policy: any publish order or
/// interleaving across workloads yields byte-identical store contents.
#[test]
fn merges_are_order_independent_for_every_policy_and_interleaving() {
    let mut profiles: Vec<SessionProfile> = Vec::new();
    for name in [WorkloadName::Compress, WorkloadName::Li] {
        profiles.extend(staggered_profiles(name, 4));
    }
    assert!(profiles.len() >= 6, "publishers learned too little to test");
    for policy in [
        MergePolicy::Union,
        MergePolicy::FrequencyWeighted { min_percent: 50 },
        MergePolicy::ExponentialDecay { half_life: 4 },
    ] {
        let store = |order: &[usize]| {
            let s = ProfileStore::new(ProfileStoreConfig {
                default_policy: policy,
                ..ProfileStoreConfig::default()
            });
            for &i in order {
                s.publish(&profiles[i]).expect("publish");
            }
            s.encode()
        };
        let forward: Vec<usize> = (0..profiles.len()).collect();
        let reverse: Vec<usize> = forward.iter().rev().copied().collect();
        // An interleaving that alternates workloads and epochs.
        let mut shuffled = forward.clone();
        shuffled.rotate_left(3);
        shuffled.swap(0, profiles.len() - 1);
        let baseline = store(&forward);
        assert_eq!(
            baseline,
            store(&reverse),
            "{policy:?}: reverse order changed the store bytes"
        );
        assert_eq!(
            baseline,
            store(&shuffled),
            "{policy:?}: interleaved order changed the store bytes"
        );
    }
}

/// FNV-1a 64 over a byte slice — the profile blob's seal, reimplemented
/// here so the test can re-seal deliberately corrupted payloads and
/// prove the deeper validation layers fire.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn reseal(blob: &mut [u8]) {
    let body = blob.len() - 8;
    let seal = fnv1a64(&blob[..body]).to_le_bytes();
    blob[body..].copy_from_slice(&seal);
}

/// Profile blobs are refused exactly like snapshots: bit corruption
/// fails the seal, truncation fails fast, and a stale version is
/// rejected even when correctly sealed.
#[test]
fn corrupt_and_stale_profiles_are_rejected() {
    let profile = staggered_profiles(WorkloadName::Compress, 3)
        .pop()
        .expect("publisher learned something");
    let blob = profile.encode();
    assert_eq!(SessionProfile::decode(&blob).expect("round-trips"), profile);

    // Bit corruption anywhere in the body fails the seal check.
    let mut corrupt = blob.clone();
    corrupt[9] ^= 0x40;
    assert!(matches!(
        SessionProfile::decode(&corrupt),
        Err(ProfileError::ChecksumMismatch { .. })
    ));

    // Truncation fails before any field is interpreted.
    assert!(SessionProfile::decode(&blob[..blob.len() - 3]).is_err());
    assert!(matches!(
        SessionProfile::decode(&[]),
        Err(ProfileError::TooShort)
    ));

    // A stale version is refused even with a valid seal — mirror of the
    // snapshot format's stale-v2 refusal.
    let mut stale = blob.clone();
    stale[4] = 0;
    stale[5] = 0;
    reseal(&mut stale);
    assert!(matches!(
        SessionProfile::decode(&stale),
        Err(ProfileError::UnsupportedVersion(0))
    ));

    // Resealed trailing garbage is structurally malformed, not ignored.
    let mut padded = blob;
    padded.insert(padded.len() - 8, 0xAB);
    reseal(&mut padded);
    assert!(matches!(
        SessionProfile::decode(&padded),
        Err(ProfileError::Malformed(_))
    ));
}

/// A rejected pre-warm is advisory, never fatal: the session admits
/// cold and still completes bit-identical to plain interpretation.
#[test]
fn rejected_prewarms_leave_the_session_cold_but_correct() {
    let name = WorkloadName::Compress;
    let reference = plain(name, Scale::Smoke);

    // Store empty: admission reports the rejection and proceeds.
    let manager = SessionManager::new(ServeConfig::default());
    let (session, outcome) = open(
        &manager,
        SessionConfig::exec(name, Scale::Smoke).with_prewarm(true),
    );
    match outcome {
        PrewarmOutcome::Rejected { reason } => {
            assert!(
                reason.contains("no aggregate"),
                "unexpected reason: {reason}"
            )
        }
        other => panic!("expected Rejected on an empty store, got {other:?}"),
    }
    assert_eq!(finish(&manager, session), reference.0);
    manager.request(Request::Close { session });

    // Structurally invalid warm state: the direct import is refused and
    // the untouched session still runs to the identical result.
    let mut session = Session::open(7, 0, SessionConfig::exec(name, Scale::Smoke));
    let bogus = EngineWarmState {
        fragments: vec![FragmentRecord {
            blocks: vec![u32::MAX - 1],
            insts: 1,
        }],
        ..EngineWarmState::default()
    };
    assert!(
        session.prewarm(&bogus).is_err(),
        "out-of-range block accepted"
    );
    let (done, stats) = session.run(None).expect("run");
    assert!(done);
    assert_eq!(stats, reference.0, "rejected pre-warm perturbed execution");
}

/// The store refuses profiles that validation rejects, and publishing
/// never mixes keys: an aggregate only answers for its own workload.
#[test]
fn store_rejects_invalid_publishes_and_keeps_keys_apart() {
    let store = ProfileStore::new(ProfileStoreConfig::default());
    let profile = staggered_profiles(WorkloadName::Compress, 3)
        .pop()
        .expect("publisher learned something");

    // Empty warm state has nothing to merge.
    let empty = SessionProfile {
        key: profile.key,
        epoch: 1,
        warm: EngineWarmState::default(),
    };
    assert!(store.publish(&empty).is_err());

    // Structurally broken fragments are refused before aggregation.
    let broken = SessionProfile {
        key: profile.key,
        epoch: 1,
        warm: EngineWarmState {
            fragments: vec![FragmentRecord {
                blocks: Vec::new(),
                insts: 0,
            }],
            ..EngineWarmState::default()
        },
    };
    assert!(store.publish(&broken).is_err());

    store.publish(&profile).expect("valid publish");
    assert!(store.fetch(&profile.key).is_some());
    let other = ProfileKey::of(&SessionConfig::exec(WorkloadName::Li, Scale::Smoke));
    assert!(
        store.fetch(&other).is_none(),
        "an aggregate leaked across workload keys"
    );
}
