//! Saving and loading recorded runs.
//!
//! Recording a full-scale workload takes seconds to minutes; analyses
//! (sweeps, ablations) are replay-only. [`save_run`] writes a
//! `(PathStream, PathTable)` pair in a compact binary format so analyses
//! can run in separate processes without re-executing the VM.
//!
//! The format is versioned by magic number and makes no cross-platform
//! promises beyond little-endian integers.

use std::io::{self, Read, Write};

use hotpath_ir::BlockId;

use crate::path::PathStartKind;
use crate::signature::{PathInfo, PathSignature, PathTable};
use crate::stream::PathStream;

const MAGIC: &[u8; 8] = b"HPRUN01\n";

fn w_u32<W: Write>(w: &mut W, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn w_u64<W: Write>(w: &mut W, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn r_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn r_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

/// Writes a recorded run.
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn save_run<W: Write>(w: &mut W, stream: &PathStream, table: &PathTable) -> io::Result<()> {
    w.write_all(MAGIC)?;
    // Stream.
    w_u64(w, stream.len() as u64)?;
    w.write_all(&[u8::from(stream.ended())])?;
    for i in 0..stream.len() {
        w_u32(w, stream.path(i).index() as u32)?;
    }
    for i in 0..stream.len() {
        w.write_all(&[stream.raw_kind(i)])?;
    }
    // Table: infos + signatures, in id order.
    w_u64(w, table.len() as u64)?;
    for (id, info) in table.iter() {
        let sig = table
            .signature(id)
            .expect("every interned id has a signature");
        w_u32(w, info.head.as_u32())?;
        w_u32(w, info.blocks)?;
        w_u32(w, info.insts)?;
        w_u32(w, info.cond_branches)?;
        w_u32(w, info.indirects)?;
        w_u32(w, sig.start().as_u32())?;
        w_u32(w, sig.history_len())?;
        for i in 0..sig.history_len().div_ceil(64) {
            w_u64(w, sig.history_word(i as usize))?;
        }
        w_u32(w, sig.indirect_len() as u32)?;
        for i in 0..sig.indirect_len() {
            w_u32(w, sig.indirect_target(i).expect("in range").as_u32())?;
        }
    }
    Ok(())
}

/// Entries [`load_run`] reserves room for up front; longer runs grow as
/// they are read, so a corrupt count cannot demand memory the file does
/// not back.
const MAX_RESERVE: usize = 1 << 16;

fn invalid(msg: &'static str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Reads a recorded run written by [`save_run`].
///
/// # Errors
///
/// Returns `InvalidData` on a bad magic number, malformed contents, or a
/// file that ends before the entries it declares, and propagates other I/O
/// errors.
pub fn load_run<R: Read>(r: &mut R) -> io::Result<(PathStream, PathTable)> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(invalid("not a hotpath run file (bad magic)"));
    }
    load_body(r).map_err(|e| match e.kind() {
        io::ErrorKind::UnexpectedEof => invalid("run file ends before its declared entries"),
        _ => e,
    })
}

fn load_body<R: Read>(r: &mut R) -> io::Result<(PathStream, PathTable)> {
    let n = usize::try_from(r_u64(r)?).map_err(|_| invalid("stream length overflows"))?;
    let mut ended_b = [0u8; 1];
    r.read_exact(&mut ended_b)?;
    let mut ids = Vec::with_capacity(n.min(MAX_RESERVE));
    for _ in 0..n {
        ids.push(r_u32(r)?);
    }
    let mut kinds = Vec::with_capacity(n.min(MAX_RESERVE));
    for _ in 0..n {
        let mut b = [0u8; 1];
        r.read_exact(&mut b)?;
        if PathStartKind::from_tag(b[0] & 0b11).is_none() {
            return Err(invalid("bad path start kind in run file"));
        }
        kinds.push(b[0]);
    }
    let stream = PathStream::from_raw(ids, kinds, ended_b[0] != 0);

    let paths = r_u64(r)?;
    let mut table = PathTable::new();
    for k in 0..paths {
        let head = BlockId::new(r_u32(r)?);
        let blocks = r_u32(r)?;
        let insts = r_u32(r)?;
        let cond_branches = r_u32(r)?;
        let indirects = r_u32(r)?;
        let start = BlockId::new(r_u32(r)?);
        let hlen = r_u32(r)?;
        let mut sig = PathSignature::new(start);
        for w in 0..hlen.div_ceil(64) {
            let word = r_u64(r)?;
            for i in 0..(hlen - w * 64).min(64) {
                sig.push_bit(word >> i & 1 == 1);
            }
        }
        let ilen = r_u32(r)?;
        for _ in 0..ilen {
            sig.push_indirect(BlockId::new(r_u32(r)?));
        }
        let id = table.intern(
            &sig,
            PathInfo {
                head,
                blocks,
                insts,
                cond_branches,
                indirects,
            },
        );
        if id.index() as u64 != k {
            return Err(invalid("duplicate signature in run file"));
        }
    }
    // All stream ids must be covered by the table.
    for i in 0..stream.len() {
        if stream.path(i).index() >= table.len() {
            return Err(invalid("stream references a path missing from the table"));
        }
    }
    Ok((stream, table))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::PathExtractor;
    use crate::stream::StreamingSink;
    use hotpath_ir::builder::{FunctionBuilder, ProgramBuilder};
    use hotpath_ir::CmpOp;
    use hotpath_vm::Vm;

    fn record() -> (PathStream, PathTable) {
        let mut fb = FunctionBuilder::new("main");
        let i = fb.reg();
        let header = fb.new_block();
        let body = fb.new_block();
        let odd = fb.new_block();
        let even = fb.new_block();
        let latch = fb.new_block();
        let exit = fb.new_block();
        fb.const_(i, 0);
        fb.jump(header);
        fb.switch_to(header);
        let c = fb.cmp_imm(CmpOp::Lt, i, 100);
        fb.branch(c, body, exit);
        fb.switch_to(body);
        let par = fb.reg();
        fb.and_imm(par, i, 1);
        fb.branch(par, odd, even);
        fb.switch_to(odd);
        fb.jump(latch);
        fb.switch_to(even);
        fb.jump(latch);
        fb.switch_to(latch);
        fb.add_imm(i, i, 1);
        fb.jump(header);
        fb.switch_to(exit);
        fb.halt();
        let mut pb = ProgramBuilder::new();
        pb.add_function(fb).unwrap();
        let p = pb.finish().unwrap();
        let mut ex = PathExtractor::new(StreamingSink::new());
        Vm::new(&p).run(&mut ex).unwrap();
        let (sink, table) = ex.into_parts();
        (sink.into_stream(), table)
    }

    #[test]
    fn save_load_round_trip() {
        let (stream, table) = record();
        let mut buf = Vec::new();
        save_run(&mut buf, &stream, &table).unwrap();
        let (s2, t2) = load_run(&mut buf.as_slice()).unwrap();
        assert_eq!(s2.len(), stream.len());
        assert_eq!(s2.ended(), stream.ended());
        assert_eq!(t2.len(), table.len());
        for i in 0..stream.len() {
            assert_eq!(s2.path(i), stream.path(i), "id at {i}");
            assert_eq!(s2.start_kind(i), stream.start_kind(i), "kind at {i}");
            assert_eq!(s2.end_kind(i), stream.end_kind(i), "end at {i}");
        }
        for (id, info) in table.iter() {
            assert_eq!(t2.info(id), info, "{id}");
        }
        // Profiles derived from both are identical.
        assert_eq!(s2.to_profile().flow(), stream.to_profile().flow());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let err = load_run(&mut &b"NOTARUN!"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn bad_start_kind_is_invalid_data() {
        let (stream, table) = record();
        let mut buf = Vec::new();
        save_run(&mut buf, &stream, &table).unwrap();
        // The first kind byte follows the magic, the length, the ended
        // flag and the ids.
        buf[17 + 4 * stream.len()] = 0b11;
        let err = load_run(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }

    #[test]
    fn truncated_file_is_an_error() {
        let (stream, table) = record();
        let mut buf = Vec::new();
        save_run(&mut buf, &stream, &table).unwrap();
        buf.truncate(buf.len() / 2);
        assert!(load_run(&mut buf.as_slice()).is_err());
    }

    /// A run file with an empty stream and one table entry per signature.
    fn run_file(sigs: &[PathSignature]) -> Vec<u8> {
        let mut buf = MAGIC.to_vec();
        buf.extend_from_slice(&0u64.to_le_bytes());
        buf.push(1);
        buf.extend_from_slice(&(sigs.len() as u64).to_le_bytes());
        for sig in sigs {
            let fields = [
                sig.start().as_u32(),
                1,
                1,
                sig.history_len(),
                sig.indirect_len() as u32,
                sig.start().as_u32(),
                sig.history_len(),
            ];
            for v in fields {
                buf.extend_from_slice(&v.to_le_bytes());
            }
            for i in 0..sig.history_len().div_ceil(64) {
                buf.extend_from_slice(&sig.history_word(i as usize).to_le_bytes());
            }
            buf.extend_from_slice(&(sig.indirect_len() as u32).to_le_bytes());
            for i in 0..sig.indirect_len() {
                let t = sig.indirect_target(i).unwrap().as_u32();
                buf.extend_from_slice(&t.to_le_bytes());
            }
        }
        buf
    }

    #[test]
    fn inflated_counts_are_invalid_data() {
        // Stream length.
        let mut buf = MAGIC.to_vec();
        buf.extend_from_slice(&(u64::MAX / 2).to_le_bytes());
        buf.push(0);
        buf.extend_from_slice(&[0; 64]);
        let err = load_run(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        // Table length.
        let mut buf = run_file(&[PathSignature::new(BlockId::new(3))]);
        buf[17..25].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
        let err = load_run(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        // History length.
        let mut buf = run_file(&[PathSignature::new(BlockId::new(3))]);
        let hlen_at = buf.len() - 8;
        buf[hlen_at..hlen_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = load_run(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }

    #[test]
    fn duplicate_signatures_are_rejected() {
        let short = {
            let mut s = PathSignature::new(BlockId::new(2));
            s.push_bit(true);
            s.push_indirect(BlockId::new(5));
            s
        };
        let long = {
            let mut s = PathSignature::new(BlockId::new(2));
            for i in 0..100 {
                s.push_bit(i % 7 == 0);
            }
            for t in 0..5 {
                s.push_indirect(BlockId::new(t));
            }
            s
        };
        // Distinct signatures load; a repeat of either, inline-keyed or
        // not, is rejected.
        let (_, table) =
            load_run(&mut run_file(&[short.clone(), long.clone()]).as_slice()).unwrap();
        assert_eq!(table.len(), 2);
        for dup in [&short, &long] {
            let buf = run_file(&[short.clone(), long.clone(), dup.clone()]);
            let err = load_run(&mut buf.as_slice()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("duplicate signature"), "{err}");
        }
    }
}
