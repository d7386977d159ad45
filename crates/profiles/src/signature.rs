//! Bit-tracing path signatures and the interning path table.
//!
//! The paper (§2) identifies a path by the signature
//! `<start_address>.<history>,<indirect_branch_target_list>`: one history
//! bit per conditional branch on the path (1 = taken) and the dynamic
//! target of every indirect transfer. Signatures are built on the fly as
//! the program executes — no preparatory static analysis — which is why
//! Dynamo used this scheme, and why we use it as the canonical path
//! identity.

use std::fmt;
use std::hash::{BuildHasher, Hash, Hasher};

use hotpath_ir::fasthash::{FxBuildHasher, FxHashMap};
use hotpath_ir::BlockId;

/// Dense identifier for an interned path.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PathId(u32);

impl PathId {
    /// Creates a path id from a raw index (mainly for tests).
    pub fn new(index: u32) -> Self {
        PathId(index)
    }

    /// The raw dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PathId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// A bit-tracing path signature.
///
/// Signatures are built incrementally: [`push_bit`](PathSignature::push_bit)
/// per conditional branch, [`push_indirect`](PathSignature::push_indirect)
/// per indirect transfer. Given a program, equal signatures imply equal
/// block sequences: the start block plus the branch decisions determine the
/// walk.
#[derive(Clone, PartialEq, Eq, Hash, Default, Debug)]
pub struct PathSignature {
    start: u32,
    /// History bits, 64 per word, oldest bit first (LSB-first within each
    /// word).
    history: Vec<u64>,
    history_len: u32,
    /// Dynamic targets of indirect transfers (switches, cross-frame
    /// returns), in path order.
    indirect: Vec<u32>,
}

impl PathSignature {
    /// Starts a signature at `start`, clearing previous contents. Reusing
    /// one signature buffer avoids per-path allocation in the extractor.
    pub fn reset(&mut self, start: BlockId) {
        self.start = start.as_u32();
        self.history.clear();
        self.history_len = 0;
        self.indirect.clear();
    }

    /// Creates a signature starting at `start`.
    pub fn new(start: BlockId) -> Self {
        let mut s = PathSignature::default();
        s.reset(start);
        s
    }

    /// The path's starting block.
    pub fn start(&self) -> BlockId {
        BlockId::new(self.start)
    }

    /// Shifts one branch-outcome bit into the history.
    pub fn push_bit(&mut self, taken: bool) {
        let word = (self.history_len / 64) as usize;
        let bit = self.history_len % 64;
        if word == self.history.len() {
            self.history.push(0);
        }
        if taken {
            self.history[word] |= 1u64 << bit;
        }
        self.history_len += 1;
    }

    /// Appends an indirect-transfer target.
    pub fn push_indirect(&mut self, target: BlockId) {
        self.indirect.push(target.as_u32());
    }

    /// Number of history bits recorded.
    pub fn history_len(&self) -> u32 {
        self.history_len
    }

    /// Number of indirect targets recorded.
    pub fn indirect_len(&self) -> usize {
        self.indirect.len()
    }

    /// The `i`-th history bit, if recorded.
    pub fn bit(&self, i: u32) -> Option<bool> {
        if i >= self.history_len {
            return None;
        }
        Some(self.history[(i / 64) as usize] >> (i % 64) & 1 == 1)
    }

    /// The `i`-th 64-bit history word (LSB-first packing); zero past the
    /// recorded range.
    pub fn history_word(&self, i: usize) -> u64 {
        self.history.get(i).copied().unwrap_or(0)
    }

    /// The `i`-th indirect-transfer target, if recorded.
    pub fn indirect_target(&self, i: usize) -> Option<BlockId> {
        self.indirect.get(i).map(|&t| BlockId::new(t))
    }
}

impl fmt::Display for PathSignature {
    /// Renders in the paper's `<start>.<history>,<indirects>` notation.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "B{}.", self.start)?;
        for i in 0..self.history_len {
            write!(f, "{}", u8::from(self.bit(i).expect("in range")))?;
        }
        if !self.indirect.is_empty() {
            write!(f, ",")?;
            for (i, t) in self.indirect.iter().enumerate() {
                if i > 0 {
                    write!(f, ";")?;
                }
                write!(f, "B{t}")?;
            }
        }
        Ok(())
    }
}

/// Static facts about one interned path, captured at first execution.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PathInfo {
    /// First block of the path (the *path head* in NET terminology).
    pub head: BlockId,
    /// Number of blocks on the path.
    pub blocks: u32,
    /// Total instruction slots on the path.
    pub insts: u32,
    /// Conditional branches on the path (= history bits in the signature).
    pub cond_branches: u32,
    /// Indirect transfers on the path (= indirect-list entries).
    pub indirects: u32,
}

/// Fixed-width interning key of a [`PathSignature`] (see [`PathTable`]).
///
/// A signature with at most [`KEY_BITS`] history bits and [`KEY_INDIRECTS`]
/// indirect targets is its key exactly: word 0 holds the start block, the
/// history length and the indirect count, word 1 the history bits, words 2
/// and 3 the indirect targets. Any other signature's key sets [`SPILLED`]
/// in word 0 and holds a hash of the whole signature in word 1; a probe
/// counter in word 3 steps past hash collisions.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Key([u64; 4]);

/// History bits an exact [`Key`] holds.
const KEY_BITS: u32 = 64;

/// Indirect targets an exact [`Key`] holds.
const KEY_INDIRECTS: usize = 3;

/// Flag in key word 0 of a signature that does not fit a key exactly.
const SPILLED: u64 = 1 << 63;

impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let [a, b, c, d] = self.0;
        // One word into the table's hasher, folded so that every key bit
        // reaches the low bits the table indexes by.
        let h = FxBuildHasher::default().hash_one((a, b, c, d));
        state.write_u64(h ^ (h >> 32));
    }
}

impl PathSignature {
    /// This signature's interning key.
    fn key(&self) -> Key {
        let shape = u64::from(self.start)
            | u64::from(self.history_len) << 32
            | (self.indirect.len() as u64) << 48;
        if self.history_len > KEY_BITS || self.indirect.len() > KEY_INDIRECTS {
            let hash = FxBuildHasher::default().hash_one(self);
            return Key([shape | SPILLED, hash, 0, 0]);
        }
        let target = |i: usize| self.indirect.get(i).map_or(0, |&t| u64::from(t));
        Key([
            shape,
            self.history_word(0),
            target(0) | target(1) << 32,
            target(2),
        ])
    }
}

/// Interns [`PathSignature`]s to dense [`PathId`]s.
///
/// The table is the "path table" of the paper's bit-tracing scheme: upon
/// reaching the end of a path, the signature indexes the table to bump the
/// path's counter. Here the table also records [`PathInfo`] for metrics.
///
/// Lookups go through a fixed-width key built from the live signature, so
/// a path that has been seen before costs one hash of four words, with no
/// allocation and no visit to a stored signature. Nearly every executed
/// path fits a key exactly; the rest are keyed by a hash and compared with
/// the stored signature. Each signature is stored once, on first sight.
#[derive(Clone, Default, Debug)]
pub struct PathTable {
    map: FxHashMap<Key, PathId>,
    infos: Vec<PathInfo>,
    sigs: Vec<PathSignature>,
}

impl PathTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the id for `sig`, interning it with `info` if new. The
    /// signature is only cloned on first sight.
    pub fn intern(&mut self, sig: &PathSignature, info: PathInfo) -> PathId {
        match self.find(sig) {
            Ok(id) => id,
            Err(key) => {
                let id = PathId(self.infos.len() as u32);
                self.map.insert(key, id);
                self.infos.push(info);
                self.sigs.push(sig.clone());
                id
            }
        }
    }

    /// The id of `sig`, or the free key to file it under if it is new.
    fn find(&self, sig: &PathSignature) -> Result<PathId, Key> {
        let mut key = sig.key();
        while let Some(&id) = self.map.get(&key) {
            if key.0[0] & SPILLED == 0 || self.sigs[id.index()] == *sig {
                return Ok(id);
            }
            key.0[3] += 1;
        }
        Err(key)
    }

    /// The signature behind an interned id, if produced by this table.
    pub fn signature(&self, id: PathId) -> Option<&PathSignature> {
        self.sigs.get(id.index())
    }

    /// Looks up a signature without interning.
    pub fn get(&self, sig: &PathSignature) -> Option<PathId> {
        self.find(sig).ok()
    }

    /// Info for an interned path.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this table.
    pub fn info(&self, id: PathId) -> &PathInfo {
        &self.infos[id.index()]
    }

    /// Number of distinct paths seen.
    pub fn len(&self) -> usize {
        self.infos.len()
    }

    /// True if no path has been interned.
    pub fn is_empty(&self) -> bool {
        self.infos.is_empty()
    }

    /// Iterates over `(PathId, &PathInfo)`.
    pub fn iter(&self) -> impl Iterator<Item = (PathId, &PathInfo)> {
        self.infos
            .iter()
            .enumerate()
            .map(|(i, info)| (PathId(i as u32), info))
    }

    /// Number of distinct path heads across all interned paths — the
    /// counter-space requirement of NET prediction (Table 2).
    pub fn unique_heads(&self) -> usize {
        let mut heads: Vec<u32> = self.infos.iter().map(|i| i.head.as_u32()).collect();
        heads.sort_unstable();
        heads.dedup();
        heads.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(i: u32) -> BlockId {
        BlockId::new(i)
    }

    #[test]
    fn signature_bits_roundtrip() {
        let mut s = PathSignature::new(b(7));
        let pattern = [true, false, false, true, true];
        for &bit in &pattern {
            s.push_bit(bit);
        }
        assert_eq!(s.history_len(), 5);
        for (i, &bit) in pattern.iter().enumerate() {
            assert_eq!(s.bit(i as u32), Some(bit));
        }
        assert_eq!(s.bit(5), None);
        assert_eq!(s.start(), b(7));
    }

    #[test]
    fn signature_crosses_word_boundary() {
        let mut s = PathSignature::new(b(0));
        for i in 0..130 {
            s.push_bit(i % 3 == 0);
        }
        assert_eq!(s.history_len(), 130);
        for i in 0..130u32 {
            assert_eq!(s.bit(i), Some(i % 3 == 0), "bit {i}");
        }
    }

    #[test]
    fn display_matches_paper_notation() {
        // Paper Figure 1: path ABDG has signature A.0101 — we render our
        // own ids but the same shape.
        let mut s = PathSignature::new(b(0));
        for bit in [false, true, false, true] {
            s.push_bit(bit);
        }
        assert_eq!(s.to_string(), "B0.0101");
        s.push_indirect(b(9));
        s.push_indirect(b(4));
        assert_eq!(s.to_string(), "B0.0101,B9;B4");
    }

    #[test]
    fn distinct_histories_are_distinct() {
        let mut a = PathSignature::new(b(1));
        a.push_bit(true);
        let mut c = PathSignature::new(b(1));
        c.push_bit(false);
        assert_ne!(a, c);
        // Same bits, different start.
        let mut d = PathSignature::new(b(2));
        d.push_bit(true);
        assert_ne!(a, d);
        // Bits vs indirect are not confusable.
        let mut e = PathSignature::new(b(1));
        e.push_indirect(b(1));
        assert_ne!(a, e);
    }

    #[test]
    fn reset_clears_everything() {
        let mut s = PathSignature::new(b(1));
        s.push_bit(true);
        s.push_indirect(b(2));
        s.reset(b(3));
        assert_eq!(s, PathSignature::new(b(3)));
        assert_eq!(s.history_len(), 0);
        assert_eq!(s.indirect_len(), 0);
    }

    #[test]
    fn interning_dedups() {
        let mut table = PathTable::new();
        let info = PathInfo {
            head: b(1),
            blocks: 3,
            insts: 9,
            cond_branches: 1,
            indirects: 0,
        };
        let mut s = PathSignature::new(b(1));
        s.push_bit(true);
        let id1 = table.intern(&s, info);
        let id2 = table.intern(&s, info);
        assert_eq!(id1, id2);
        assert_eq!(table.len(), 1);
        let mut s2 = PathSignature::new(b(1));
        s2.push_bit(false);
        let id3 = table.intern(&s2, info);
        assert_ne!(id1, id3);
        assert_eq!(table.len(), 2);
        assert_eq!(table.get(&s), Some(id1));
        assert_eq!(table.info(id1).blocks, 3);
    }

    #[test]
    fn unique_heads_counts_distinct_heads() {
        let mut table = PathTable::new();
        for (start, bit) in [(1u32, true), (1, false), (2, true)] {
            let mut s = PathSignature::new(b(start));
            s.push_bit(bit);
            table.intern(
                &s,
                PathInfo {
                    head: b(start),
                    blocks: 1,
                    insts: 1,
                    cond_branches: 1,
                    indirects: 0,
                },
            );
        }
        assert_eq!(table.len(), 3);
        assert_eq!(table.unique_heads(), 2);
    }

    #[test]
    fn colliding_spilled_keys_probe_to_distinct_ids() {
        let long = |last: bool| {
            let mut s = PathSignature::new(b(1));
            for i in 0..70 {
                s.push_bit(i == 69 && last);
            }
            s
        };
        let (a, c) = (long(true), long(false));
        let info = PathInfo {
            head: b(1),
            blocks: 70,
            insts: 70,
            cond_branches: 70,
            indirects: 0,
        };
        let mut table = PathTable::new();
        let ia = table.intern(&a, info);
        // Make `c`'s hashed key collide with `a`'s entry.
        table.map.insert(c.key(), ia);
        let ic = table.intern(&c, info);
        assert_ne!(ia, ic);
        assert_eq!(table.intern(&c, info), ic);
        assert_eq!(table.get(&c), Some(ic));
        assert_eq!(table.get(&a), Some(ia));
        assert_eq!(table.signature(ic), Some(&c));
        assert_eq!(table.len(), 2);
    }
}
