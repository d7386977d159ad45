//! Path interning is pinned against an independent recomputation.
//!
//! `PathTable` interns through a fixed-width key built from the live
//! signature, and falls back to a hashed key for signatures that do not
//! fit it. These tests check that the ids it hands out are exactly those of
//! a plain `HashMap<PathSignature, PathId>` assigning ids in first-sight
//! order:
//!
//! 1. **All nine workloads.** Each `Scale::Smoke` run is extracted with a
//!    `CollectSink` while the block stream is recorded alongside. The
//!    recorded stream is cut into the extracted paths, each path's
//!    signature and `PathInfo` are rebuilt from its blocks, and ids are
//!    recomputed from a plain `HashMap`. Every `PathExecution`, every
//!    `PathInfo` and every `PathTable::signature(id)` must match, and a
//!    digest of all three must equal the one recorded before the inline
//!    key existed.
//! 2. **Key boundaries.** 64 vs 65 history bits, 3 vs 4 indirect targets,
//!    and signatures differing only in an indirect target or only in
//!    history length intern to distinct ids.
//! 3. **Persistence.** `save_run` → `load_run` → `save_run` is
//!    byte-identical on every workload.

use std::collections::HashMap;

use hotpath::ir::BlockId;
use hotpath::prelude::*;
use hotpath::profiles::{CollectSink, PathId, PathInfo, PathSignature};
use hotpath::vm::{Tee, TransferKind};
use hotpath::workloads::ALL_WORKLOADS;

fn mix(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x0000_0100_0000_01B3)
}

const FNV: u64 = 0xCBF2_9CE4_8422_2325;

/// Digest of every execution, info and signature of one extraction, in
/// order. Recorded from the extractor as it was before interning went
/// through fixed-width keys.
const SMOKE_DIGESTS: [(WorkloadName, u64); 9] = [
    (WorkloadName::Compress, 0x1C34_BEDF_14DC_5E3A),
    (WorkloadName::Gcc, 0x8B1E_807C_347B_525C),
    (WorkloadName::Go, 0x0844_B5B5_65F1_D387),
    (WorkloadName::Ijpeg, 0x4536_32A8_1ABE_FCD4),
    (WorkloadName::Li, 0xAC70_D265_60A1_2EEF),
    (WorkloadName::M88ksim, 0x5086_8AE2_E6EC_9C1F),
    (WorkloadName::Perl, 0x73BB_3FD1_714E_1EC9),
    (WorkloadName::Vortex, 0x8AAD_65C7_331B_8516),
    (WorkloadName::Deltablue, 0x9B86_9A40_D1AA_3B33),
];

fn digest(paths: &[PathExecution], table: &PathTable) -> u64 {
    let mut h = FNV;
    for e in paths {
        for v in [
            e.path.index() as u64,
            e.head.as_u32() as u64,
            e.start.tag() as u64,
            e.end as u64,
            e.blocks as u64,
            e.insts as u64,
        ] {
            h = mix(h, v);
        }
    }
    for (id, info) in table.iter() {
        let sig = table.signature(id).expect("interned id has a signature");
        for v in [
            info.head.as_u32() as u64,
            info.blocks as u64,
            info.insts as u64,
            info.cond_branches as u64,
            info.indirects as u64,
            sig.start().as_u32() as u64,
            sig.history_len() as u64,
            sig.indirect_len() as u64,
        ] {
            h = mix(h, v);
        }
        for w in 0..sig.history_len().div_ceil(64) {
            h = mix(h, sig.history_word(w as usize));
        }
        for i in 0..sig.indirect_len() {
            h = mix(h, sig.indirect_target(i).expect("in range").as_u32() as u64);
        }
    }
    h
}

/// Rebuilds one path's signature and info from its recorded blocks with
/// the bit-tracing rule: a bit per conditional branch, the target of every
/// indirect transfer and of every return that does not end the path.
fn rebuild(events: &[BlockEvent]) -> (PathSignature, PathInfo) {
    let mut sig = PathSignature::new(events[0].block);
    for e in &events[1..] {
        match e.kind {
            TransferKind::BranchTaken => sig.push_bit(true),
            TransferKind::BranchNotTaken => sig.push_bit(false),
            TransferKind::Indirect | TransferKind::Return => sig.push_indirect(e.block),
            TransferKind::Jump | TransferKind::Call | TransferKind::Start => {}
        }
    }
    let info = PathInfo {
        head: events[0].block,
        blocks: events.len() as u32,
        insts: events.iter().map(|e| e.block_size).sum(),
        cond_branches: sig.history_len(),
        indirects: sig.indirect_len() as u32,
    };
    (sig, info)
}

#[test]
fn interned_ids_match_a_plain_hashmap_on_every_workload() {
    let mut digests = Vec::new();
    let mut spilled_total = 0;
    for &name in ALL_WORKLOADS.iter() {
        let w = build(name, Scale::Smoke);
        let mut observer = Tee(
            PathExtractor::new(CollectSink::default()),
            TraceRecorder::new(),
        );
        Vm::new(&w.program).run(&mut observer).unwrap();
        let Tee(extractor, recorder) = observer;
        let (sink, table) = extractor.into_parts();
        let events: Vec<BlockEvent> = recorder.into_trace().iter().collect();
        assert!(sink.ended, "{name:?}");

        let mut reference: HashMap<PathSignature, PathId> = HashMap::new();
        let mut infos: Vec<PathInfo> = Vec::new();
        let mut at = 0;
        let mut spilled = 0;
        for (i, exec) in sink.paths.iter().enumerate() {
            let path_events = &events[at..at + exec.blocks as usize];
            at += exec.blocks as usize;
            let (sig, info) = rebuild(path_events);
            spilled += usize::from(sig.history_len() > 64 || sig.indirect_len() > 3);
            let next = PathId::new(reference.len() as u32);
            let id = *reference.entry(sig.clone()).or_insert_with(|| {
                infos.push(info);
                next
            });
            let expected = PathExecution {
                path: id,
                head: info.head,
                start: exec.start,
                end: exec.end,
                blocks: info.blocks,
                insts: info.insts,
            };
            assert_eq!(*exec, expected, "{name:?} execution {i}");
            assert_eq!(table.get(&sig), Some(id), "{name:?} execution {i}");
        }
        assert_eq!(at, events.len(), "{name:?}: paths partition the run");

        assert_eq!(table.len(), reference.len(), "{name:?}");
        for (sig, &id) in &reference {
            assert_eq!(table.signature(id), Some(sig), "{name:?} {id}");
            assert_eq!(*table.info(id), infos[id.index()], "{name:?} {id}");
        }
        digests.push((name, digest(&sink.paths, &table)));
        spilled_total += spilled;
    }
    assert_eq!(digests, SMOKE_DIGESTS);
    // Some executed paths are too long for the inline key, so the hashed
    // fallback is exercised by real runs too.
    assert!(spilled_total > 0);
}

fn sig(start: u32, bits: &[bool], indirects: &[u32]) -> PathSignature {
    let mut s = PathSignature::new(BlockId::new(start));
    for &b in bits {
        s.push_bit(b);
    }
    for &t in indirects {
        s.push_indirect(BlockId::new(t));
    }
    s
}

fn info_of(s: &PathSignature) -> PathInfo {
    PathInfo {
        head: s.start(),
        blocks: 1,
        insts: 1,
        cond_branches: s.history_len(),
        indirects: s.indirect_len() as u32,
    }
}

/// Interns every signature twice, checking both rounds give one distinct
/// id per distinct signature and that every lookup and stored signature
/// agrees.
fn assert_distinct_ids(sigs: &[PathSignature]) {
    let mut table = PathTable::new();
    let ids: Vec<PathId> = sigs.iter().map(|s| table.intern(s, info_of(s))).collect();
    for (i, s) in sigs.iter().enumerate() {
        assert_eq!(ids[i], PathId::new(i as u32), "first sight of {s}");
        assert_eq!(table.intern(s, info_of(s)), ids[i], "second sight of {s}");
        assert_eq!(table.get(s), Some(ids[i]), "{s}");
        assert_eq!(table.signature(ids[i]), Some(s));
    }
    assert_eq!(table.len(), sigs.len());
}

#[test]
fn history_length_boundary_interns_distinct_paths() {
    let bits: Vec<bool> = (0..130).map(|i| i % 3 == 1).collect();
    let sigs: Vec<PathSignature> = [0, 1, 63, 64, 65, 127, 128, 129, 130]
        .iter()
        .map(|&n| sig(4, &bits[..n], &[]))
        .collect();
    assert_distinct_ids(&sigs);
}

#[test]
fn indirect_count_boundary_interns_distinct_paths() {
    let targets = [7, 0, 9, 3, 5];
    let sigs: Vec<PathSignature> = (0..=targets.len())
        .map(|n| sig(4, &[true, false], &targets[..n]))
        .collect();
    assert_distinct_ids(&sigs);
}

#[test]
fn one_differing_indirect_target_gives_distinct_ids() {
    // Inside the inline key (three targets) and past it (four and five).
    for n in [1, 3, 4, 5] {
        let base: Vec<u32> = (10..10 + n).collect();
        let mut sigs = vec![sig(2, &[true], &base)];
        for i in 0..base.len() {
            let mut other = base.clone();
            other[i] += 100;
            sigs.push(sig(2, &[true], &other));
        }
        assert_distinct_ids(&sigs);
    }
    // A target of block 0 is not an absent target.
    assert_distinct_ids(&[sig(2, &[], &[]), sig(2, &[], &[0]), sig(2, &[], &[0, 0])]);
}

#[test]
fn history_length_alone_gives_distinct_ids() {
    // Equal history words, different lengths: trailing not-taken bits.
    for n in [1, 62, 63, 64, 65, 100, 127, 128, 129] {
        let mut bits = vec![false; n];
        bits[0] = true;
        let shorter = sig(5, &bits, &[3]);
        bits.push(false);
        let longer = sig(5, &bits, &[3]);
        assert_eq!(shorter.history_word(0), longer.history_word(0));
        assert_distinct_ids(&[shorter, longer]);
    }
    // Equal words and lengths under 64, no indirects: only the start
    // differs.
    assert_distinct_ids(&[sig(0, &[true], &[]), sig(1, &[true], &[])]);
}

#[test]
fn save_load_save_is_byte_identical_on_every_workload() {
    for &name in ALL_WORKLOADS.iter() {
        let w = build(name, Scale::Smoke);
        let mut ex = PathExtractor::new(StreamingSink::new());
        Vm::new(&w.program).run(&mut ex).unwrap();
        let (sink, table) = ex.into_parts();
        let stream = sink.into_stream();
        let mut first = Vec::new();
        save_run(&mut first, &stream, &table).unwrap();
        let (stream2, table2) = load_run(&mut first.as_slice()).unwrap();
        let mut second = Vec::new();
        save_run(&mut second, &stream2, &table2).unwrap();
        assert!(first == second, "{name:?}: reloaded run saves differently");
        for (id, info) in table.iter() {
            assert_eq!(table2.info(id), info, "{name:?} {id}");
            assert_eq!(table2.signature(id), table.signature(id), "{name:?} {id}");
            let sig = table.signature(id).unwrap();
            assert_eq!(table2.get(sig), Some(id), "{name:?} {id}");
        }
    }
}
