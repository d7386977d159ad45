//! Little-endian byte codec helpers shared by the protocol and snapshot
//! formats, plus the FNV-1a checksum the snapshot format seals itself
//! with. Everything is explicit-width and little-endian; there is no
//! varint cleverness to get wrong.

use hotpath_dynamo::{EngineWarmState, FragmentRecord, Scheme};
use hotpath_vm::RunStats;
use hotpath_workloads::{Scale, ALL_WORKLOADS};

use crate::session::SessionConfig;

/// `None` for a fuel budget or a run's fuel on the wire.
pub(crate) const NO_FUEL: u64 = u64::MAX;

/// Appends a `u32` (little-endian).
pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64` (little-endian).
pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `i64` (little-endian).
pub(crate) fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a length-prefixed (`u32`) byte string.
pub(crate) fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(out, bytes.len() as u32);
    out.extend_from_slice(bytes);
}

/// Appends a length-prefixed UTF-8 string.
pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

/// Appends a [`RunStats`] in fixed field order.
pub(crate) fn put_stats(out: &mut Vec<u8>, stats: &RunStats) {
    put_u64(out, stats.blocks_executed);
    put_u64(out, stats.insts_executed);
    put_u64(out, stats.cond_branches);
    put_u64(out, stats.indirect_branches);
    put_u64(out, stats.calls);
    put_u64(out, stats.backward_transfers);
    put_u64(out, stats.max_call_depth as u64);
    out.push(u8::from(stats.halted));
}

/// Appends a [`SessionConfig`] in the layout shared by the `Open` and
/// `FetchProfile` frames and the snapshot's config section: workload
/// index (0xFF = ingest), scale, scheme, delay, fuel budget
/// ([`NO_FUEL`] = none), prewarm bit.
pub(crate) fn put_config(out: &mut Vec<u8>, config: &SessionConfig) {
    out.push(config.workload.map_or(0xFF, |w| {
        ALL_WORKLOADS.iter().position(|&x| x == w).unwrap() as u8
    }));
    out.push(match config.scale {
        Scale::Smoke => 0,
        Scale::Small => 1,
        Scale::Full => 2,
    });
    out.push(match config.scheme {
        Scheme::Net => 0,
        Scheme::PathProfile => 1,
    });
    put_u64(out, config.delay);
    put_u64(out, config.fuel_budget.unwrap_or(NO_FUEL));
    out.push(u8::from(config.prewarm));
}

/// Reads a [`SessionConfig`] written by [`put_config`]. A zero delay is
/// refused here: the predictors assert a positive τ, so a config that
/// reached a shard with one would panic it.
pub(crate) fn read_config(r: &mut Reader<'_>) -> Result<SessionConfig, ReadError> {
    let workload = match r.u8("workload")? {
        0xFF => None,
        idx => Some(
            ALL_WORKLOADS
                .get(idx as usize)
                .copied()
                .ok_or(ReadError("workload"))?,
        ),
    };
    let scale = match r.u8("scale")? {
        0 => Scale::Smoke,
        1 => Scale::Small,
        2 => Scale::Full,
        _ => return Err(ReadError("scale")),
    };
    let scheme = match r.u8("scheme")? {
        0 => Scheme::Net,
        1 => Scheme::PathProfile,
        _ => return Err(ReadError("scheme")),
    };
    let delay = r.u64("delay")?;
    if delay == 0 {
        return Err(ReadError("delay"));
    }
    let fuel_budget = match r.u64("fuel_budget")? {
        NO_FUEL => None,
        budget => Some(budget),
    };
    let prewarm = match r.u8("prewarm")? {
        0 => false,
        1 => true,
        _ => return Err(ReadError("prewarm")),
    };
    Ok(SessionConfig {
        workload,
        scale,
        scheme,
        delay,
        fuel_budget,
        prewarm,
    })
}

/// Appends an [`EngineWarmState`] as the counted arrays shared by the
/// snapshot and profile formats: fragments (insts, blocks), exit-stub
/// counters, armed targets, NET counters.
pub(crate) fn put_warm(out: &mut Vec<u8>, warm: &EngineWarmState) {
    put_u32(out, warm.fragments.len() as u32);
    for fragment in &warm.fragments {
        put_u32(out, fragment.insts);
        put_u32(out, fragment.blocks.len() as u32);
        for &b in &fragment.blocks {
            put_u32(out, b);
        }
    }
    put_u32(out, warm.exit_counts.len() as u32);
    for &(target, count) in &warm.exit_counts {
        put_u32(out, target);
        put_u64(out, count);
    }
    put_u32(out, warm.armed.len() as u32);
    for &target in &warm.armed {
        put_u32(out, target);
    }
    put_u32(out, warm.net_counters.len() as u32);
    for &(head, count) in &warm.net_counters {
        put_u32(out, head);
        put_u64(out, count);
    }
}

/// Reads an [`EngineWarmState`] written by [`put_warm`].
pub(crate) fn read_warm(r: &mut Reader<'_>) -> Result<EngineWarmState, ReadError> {
    let mut fragments = Vec::new();
    for _ in 0..r.u32("fragment count")? {
        let insts = r.u32("fragment insts")?;
        let n = r.u32("fragment block count")?;
        // `n` comes straight from the blob: reserve no more than the
        // bytes left could hold, so an inflated count fails on the read
        // below instead of aborting on the allocation.
        let mut blocks = Vec::with_capacity((n as usize).min(r.remaining() / 4));
        for _ in 0..n {
            blocks.push(r.u32("fragment block")?);
        }
        fragments.push(FragmentRecord { blocks, insts });
    }
    let mut exit_counts = Vec::new();
    for _ in 0..r.u32("exit counter count")? {
        exit_counts.push((r.u32("exit target")?, r.u64("exit count")?));
    }
    let mut armed = Vec::new();
    for _ in 0..r.u32("armed count")? {
        armed.push(r.u32("armed target")?);
    }
    let mut net_counters = Vec::new();
    for _ in 0..r.u32("net counter count")? {
        net_counters.push((r.u32("net head")?, r.u64("net count")?));
    }
    Ok(EngineWarmState {
        fragments,
        exit_counts,
        armed,
        net_counters,
    })
}

/// A bounds-checked little-endian reader over a byte slice. Every read
/// names the field it was after, so a malformed buffer produces a
/// diagnosable error instead of a panic or a silent misparse.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

/// A read ran off the end of the buffer (or a field failed validation);
/// carries the field name being read.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct ReadError(pub &'static str);

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub(crate) fn take(&mut self, n: usize, field: &'static str) -> Result<&'a [u8], ReadError> {
        if self.remaining() < n {
            return Err(ReadError(field));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn u8(&mut self, field: &'static str) -> Result<u8, ReadError> {
        Ok(self.take(1, field)?[0])
    }

    pub(crate) fn u32(&mut self, field: &'static str) -> Result<u32, ReadError> {
        Ok(u32::from_le_bytes(self.take(4, field)?.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self, field: &'static str) -> Result<u64, ReadError> {
        Ok(u64::from_le_bytes(self.take(8, field)?.try_into().unwrap()))
    }

    pub(crate) fn i64(&mut self, field: &'static str) -> Result<i64, ReadError> {
        Ok(i64::from_le_bytes(self.take(8, field)?.try_into().unwrap()))
    }

    /// A length-prefixed byte string written by [`put_bytes`].
    pub(crate) fn bytes(&mut self, field: &'static str) -> Result<&'a [u8], ReadError> {
        let len = self.u32(field)? as usize;
        self.take(len, field)
    }

    /// A length-prefixed UTF-8 string written by [`put_str`].
    pub(crate) fn str(&mut self, field: &'static str) -> Result<&'a str, ReadError> {
        std::str::from_utf8(self.bytes(field)?).map_err(|_| ReadError(field))
    }

    /// A [`RunStats`] written by [`put_stats`].
    pub(crate) fn stats(&mut self, field: &'static str) -> Result<RunStats, ReadError> {
        Ok(RunStats {
            blocks_executed: self.u64(field)?,
            insts_executed: self.u64(field)?,
            cond_branches: self.u64(field)?,
            indirect_branches: self.u64(field)?,
            calls: self.u64(field)?,
            backward_transfers: self.u64(field)?,
            max_call_depth: self.u64(field)? as usize,
            halted: match self.u8(field)? {
                0 => false,
                1 => true,
                _ => return Err(ReadError(field)),
            },
        })
    }
}

/// FNV-1a 64-bit — the snapshot format's integrity seal, shared with the
/// self-profiler report format via `hotpath-ir`.
pub(crate) use hotpath_ir::fasthash::fnv1a64;

/// Byte offsets, relative to the start of the section, of every `u32`
/// count [`put_warm`] writes for `warm` — the fields a hostile blob
/// inflates.
#[cfg(test)]
pub(crate) fn warm_count_offsets(warm: &EngineWarmState) -> Vec<usize> {
    let mut offsets = vec![0];
    let mut at = 4;
    for fragment in &warm.fragments {
        offsets.push(at + 4);
        at += 8 + 4 * fragment.blocks.len();
    }
    offsets.push(at);
    at += 4 + 12 * warm.exit_counts.len();
    offsets.push(at);
    at += 4 + 4 * warm.armed.len();
    offsets.push(at);
    offsets
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inflated_block_count_fails_the_read_instead_of_allocating() {
        // One fragment, zero insts, then a block count of u32::MAX with
        // no blocks behind it: a 16 GiB reservation if taken at face
        // value.
        let mut blob = Vec::new();
        put_u32(&mut blob, 1);
        put_u32(&mut blob, 0);
        put_u32(&mut blob, u32::MAX);
        assert_eq!(blob.len(), 12);
        assert_eq!(
            read_warm(&mut Reader::new(&blob)),
            Err(ReadError("fragment block"))
        );
    }

    #[test]
    fn reader_round_trips_primitives() {
        let mut out = Vec::new();
        put_u32(&mut out, 7);
        put_u64(&mut out, u64::MAX - 1);
        put_i64(&mut out, -42);
        put_str(&mut out, "compress");
        let mut r = Reader::new(&out);
        assert_eq!(r.u32("a").unwrap(), 7);
        assert_eq!(r.u64("b").unwrap(), u64::MAX - 1);
        assert_eq!(r.i64("c").unwrap(), -42);
        assert_eq!(r.str("d").unwrap(), "compress");
        assert_eq!(r.remaining(), 0);
        assert_eq!(r.u8("past-end"), Err(ReadError("past-end")));
    }

    #[test]
    fn stats_round_trip() {
        let stats = RunStats {
            blocks_executed: 1,
            insts_executed: 2,
            cond_branches: 3,
            indirect_branches: 4,
            calls: 5,
            backward_transfers: 6,
            max_call_depth: 7,
            halted: true,
        };
        let mut out = Vec::new();
        put_stats(&mut out, &stats);
        assert_eq!(Reader::new(&out).stats("s").unwrap(), stats);
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
