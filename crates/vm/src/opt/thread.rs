//! Direct-threaded dispatch: predecoding and step merging.
//!
//! The interpreter's [`Inst`] enum nests operator enums inside operand
//! variants, so executing one instruction costs two levels of dispatch
//! plus `Reg` unwrapping. Predecoding flattens each instruction into a
//! [`MicroOp`] — one fully-specialized [`Code`] per (operation,
//! operand-shape) pair with raw indices and the immediate pre-extracted —
//! so [`exec_op`]'s single `match` compiles to one jump-table dispatch
//! per instruction.
//!
//! Merging then collapses runs of steps ending in [`EndOp::Next`]
//! (unconditional jumps and elided/hoisted guards) into single steps:
//! one per-step accounting prologue instead of one per block. The
//! surviving step is the *last* of its group — it carries the group's
//! guard/exit and link slots (exit-stub identity preserved) — while its
//! `entry` field names the group's *first* block, which is what a
//! following guard must compare a dynamic target against. The
//! `d_blocks`/`d_cond`/`d_backward` deltas keep `RunStats` exact, and
//! `CompiledTrace::blocks` keeps the fuel precheck counting original
//! blocks.
//!
//! Predecoding runs *before* merging, while steps are still 1:1 with
//! blocks, so every micro-op carries its own block id for error
//! attribution. Ops share index ranges with `insts`, so the merge's
//! range arithmetic covers both.
//!
//! Last, a step whose final micro-op is the compare its conditional end
//! op branches on hands that compare to the end op (see
//! [`fused_compare`]): the step's range stops just before it.

use hotpath_ir::{BinOp, BlockId, CmpOp, GlobalReg, Inst, UnOp};

use crate::error::VmError;
use crate::trace_exec::{CompiledTrace, EndOp, TraceStep};

/// Fully-specialized operation code; one variant per (operation,
/// operand-shape) pair so dispatch is a single jump.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Code {
    Const,
    Mov,
    Neg,
    Not,
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    Min,
    Max,
    AddImm,
    SubImm,
    MulImm,
    DivImm,
    RemImm,
    AndImm,
    OrImm,
    XorImm,
    ShlImm,
    ShrImm,
    MinImm,
    MaxImm,
    CmpLt,
    CmpLe,
    CmpEq,
    CmpNe,
    CmpGt,
    CmpGe,
    CmpLtImm,
    CmpLeImm,
    CmpEqImm,
    CmpNeImm,
    CmpGtImm,
    CmpGeImm,
    Load,
    Store,
    GetGlobal,
    SetGlobal,
}

/// One predecoded instruction: raw operand indices, pre-extracted
/// immediate, and the owning block for error attribution.
#[derive(Clone, Copy, Debug)]
pub(crate) struct MicroOp {
    pub(crate) code: Code,
    /// Destination register (frame-relative).
    pub(crate) dst: u16,
    /// First source: register, or global index for `GetGlobal`.
    pub(crate) a: u16,
    /// Second source: register, or global index for `SetGlobal`.
    pub(crate) b: u16,
    /// Immediate / constant / memory offset.
    pub(crate) imm: i64,
    /// Global block id of the originating block.
    pub(crate) block: u32,
}

fn bin_code(op: BinOp, imm: bool) -> Code {
    match (op, imm) {
        (BinOp::Add, false) => Code::Add,
        (BinOp::Sub, false) => Code::Sub,
        (BinOp::Mul, false) => Code::Mul,
        (BinOp::Div, false) => Code::Div,
        (BinOp::Rem, false) => Code::Rem,
        (BinOp::And, false) => Code::And,
        (BinOp::Or, false) => Code::Or,
        (BinOp::Xor, false) => Code::Xor,
        (BinOp::Shl, false) => Code::Shl,
        (BinOp::Shr, false) => Code::Shr,
        (BinOp::Min, false) => Code::Min,
        (BinOp::Max, false) => Code::Max,
        (BinOp::Add, true) => Code::AddImm,
        (BinOp::Sub, true) => Code::SubImm,
        (BinOp::Mul, true) => Code::MulImm,
        (BinOp::Div, true) => Code::DivImm,
        (BinOp::Rem, true) => Code::RemImm,
        (BinOp::And, true) => Code::AndImm,
        (BinOp::Or, true) => Code::OrImm,
        (BinOp::Xor, true) => Code::XorImm,
        (BinOp::Shl, true) => Code::ShlImm,
        (BinOp::Shr, true) => Code::ShrImm,
        (BinOp::Min, true) => Code::MinImm,
        (BinOp::Max, true) => Code::MaxImm,
    }
}

fn cmp_code(op: CmpOp, imm: bool) -> Code {
    match (op, imm) {
        (CmpOp::Lt, false) => Code::CmpLt,
        (CmpOp::Le, false) => Code::CmpLe,
        (CmpOp::Eq, false) => Code::CmpEq,
        (CmpOp::Ne, false) => Code::CmpNe,
        (CmpOp::Gt, false) => Code::CmpGt,
        (CmpOp::Ge, false) => Code::CmpGe,
        (CmpOp::Lt, true) => Code::CmpLtImm,
        (CmpOp::Le, true) => Code::CmpLeImm,
        (CmpOp::Eq, true) => Code::CmpEqImm,
        (CmpOp::Ne, true) => Code::CmpNeImm,
        (CmpOp::Gt, true) => Code::CmpGtImm,
        (CmpOp::Ge, true) => Code::CmpGeImm,
    }
}

fn decode(inst: &Inst, block: u32) -> MicroOp {
    let mut op = MicroOp {
        code: Code::Const,
        dst: 0,
        a: 0,
        b: 0,
        imm: 0,
        block,
    };
    match *inst {
        Inst::Const { dst, value } => {
            op.dst = dst.index() as u16;
            op.imm = value;
        }
        Inst::Mov { dst, src } => {
            op.code = Code::Mov;
            op.dst = dst.index() as u16;
            op.a = src.index() as u16;
        }
        Inst::Un { op: un, dst, src } => {
            op.code = match un {
                UnOp::Neg => Code::Neg,
                UnOp::Not => Code::Not,
            };
            op.dst = dst.index() as u16;
            op.a = src.index() as u16;
        }
        Inst::Bin {
            op: b,
            dst,
            lhs,
            rhs,
        } => {
            op.code = bin_code(b, false);
            op.dst = dst.index() as u16;
            op.a = lhs.index() as u16;
            op.b = rhs.index() as u16;
        }
        Inst::BinImm {
            op: b,
            dst,
            lhs,
            imm,
        } => {
            op.code = bin_code(b, true);
            op.dst = dst.index() as u16;
            op.a = lhs.index() as u16;
            op.imm = imm;
        }
        Inst::Cmp {
            op: c,
            dst,
            lhs,
            rhs,
        } => {
            op.code = cmp_code(c, false);
            op.dst = dst.index() as u16;
            op.a = lhs.index() as u16;
            op.b = rhs.index() as u16;
        }
        Inst::CmpImm {
            op: c,
            dst,
            lhs,
            imm,
        } => {
            op.code = cmp_code(c, true);
            op.dst = dst.index() as u16;
            op.a = lhs.index() as u16;
            op.imm = imm;
        }
        Inst::Load { dst, addr, offset } => {
            op.code = Code::Load;
            op.dst = dst.index() as u16;
            op.a = addr.index() as u16;
            op.imm = offset;
        }
        Inst::Store { src, addr, offset } => {
            op.code = Code::Store;
            op.a = src.index() as u16;
            op.b = addr.index() as u16;
            op.imm = offset;
        }
        Inst::GetGlobal { dst, global } => {
            op.code = Code::GetGlobal;
            op.dst = dst.index() as u16;
            op.a = global.index() as u16;
        }
        Inst::SetGlobal { src, global } => {
            op.code = Code::SetGlobal;
            op.a = src.index() as u16;
            op.b = global.index() as u16;
        }
    }
    op
}

/// Executes one predecoded micro-op, bit-identical to
/// [`exec_inst`](crate::vm::exec_inst) on the originating instruction.
#[inline]
pub(crate) fn exec_op(
    op: &MicroOp,
    regs: &mut [i64],
    memory: &mut [i64],
    globals: &mut [i64; GlobalReg::COUNT],
) -> Result<(), VmError> {
    let d = op.dst as usize;
    let a = op.a as usize;
    let b = op.b as usize;
    match op.code {
        Code::Const => regs[d] = op.imm,
        Code::Mov => regs[d] = regs[a],
        Code::Neg => regs[d] = regs[a].wrapping_neg(),
        Code::Not => regs[d] = !regs[a],
        Code::Add => regs[d] = regs[a].wrapping_add(regs[b]),
        Code::Sub => regs[d] = regs[a].wrapping_sub(regs[b]),
        Code::Mul => regs[d] = regs[a].wrapping_mul(regs[b]),
        Code::Div => {
            let rhs = regs[b];
            if rhs == 0 {
                return Err(VmError::DivisionByZero {
                    block: BlockId::new(op.block),
                });
            }
            regs[d] = regs[a].wrapping_div(rhs);
        }
        Code::Rem => {
            let rhs = regs[b];
            if rhs == 0 {
                return Err(VmError::DivisionByZero {
                    block: BlockId::new(op.block),
                });
            }
            regs[d] = regs[a].wrapping_rem(rhs);
        }
        Code::And => regs[d] = regs[a] & regs[b],
        Code::Or => regs[d] = regs[a] | regs[b],
        Code::Xor => regs[d] = regs[a] ^ regs[b],
        Code::Shl => regs[d] = regs[a].wrapping_shl(regs[b] as u32 & 63),
        Code::Shr => regs[d] = regs[a].wrapping_shr(regs[b] as u32 & 63),
        Code::Min => regs[d] = regs[a].min(regs[b]),
        Code::Max => regs[d] = regs[a].max(regs[b]),
        Code::AddImm => regs[d] = regs[a].wrapping_add(op.imm),
        Code::SubImm => regs[d] = regs[a].wrapping_sub(op.imm),
        Code::MulImm => regs[d] = regs[a].wrapping_mul(op.imm),
        Code::DivImm => {
            if op.imm == 0 {
                return Err(VmError::DivisionByZero {
                    block: BlockId::new(op.block),
                });
            }
            regs[d] = regs[a].wrapping_div(op.imm);
        }
        Code::RemImm => {
            if op.imm == 0 {
                return Err(VmError::DivisionByZero {
                    block: BlockId::new(op.block),
                });
            }
            regs[d] = regs[a].wrapping_rem(op.imm);
        }
        Code::AndImm => regs[d] = regs[a] & op.imm,
        Code::OrImm => regs[d] = regs[a] | op.imm,
        Code::XorImm => regs[d] = regs[a] ^ op.imm,
        Code::ShlImm => regs[d] = regs[a].wrapping_shl(op.imm as u32 & 63),
        Code::ShrImm => regs[d] = regs[a].wrapping_shr(op.imm as u32 & 63),
        Code::MinImm => regs[d] = regs[a].min(op.imm),
        Code::MaxImm => regs[d] = regs[a].max(op.imm),
        Code::CmpLt => regs[d] = (regs[a] < regs[b]) as i64,
        Code::CmpLe => regs[d] = (regs[a] <= regs[b]) as i64,
        Code::CmpEq => regs[d] = (regs[a] == regs[b]) as i64,
        Code::CmpNe => regs[d] = (regs[a] != regs[b]) as i64,
        Code::CmpGt => regs[d] = (regs[a] > regs[b]) as i64,
        Code::CmpGe => regs[d] = (regs[a] >= regs[b]) as i64,
        Code::CmpLtImm => regs[d] = (regs[a] < op.imm) as i64,
        Code::CmpLeImm => regs[d] = (regs[a] <= op.imm) as i64,
        Code::CmpEqImm => regs[d] = (regs[a] == op.imm) as i64,
        Code::CmpNeImm => regs[d] = (regs[a] != op.imm) as i64,
        Code::CmpGtImm => regs[d] = (regs[a] > op.imm) as i64,
        Code::CmpGeImm => regs[d] = (regs[a] >= op.imm) as i64,
        Code::Load => {
            let at = regs[a].wrapping_add(op.imm);
            match usize::try_from(at).ok().and_then(|i| memory.get(i)) {
                Some(&v) => regs[d] = v,
                None => return Err(out_of_bounds(op, at, memory.len())),
            }
        }
        Code::Store => {
            let at = regs[b].wrapping_add(op.imm);
            let words = memory.len();
            match usize::try_from(at).ok().and_then(|i| memory.get_mut(i)) {
                Some(slot) => *slot = regs[a],
                None => return Err(out_of_bounds(op, at, words)),
            }
        }
        Code::GetGlobal => regs[d] = globals[a],
        Code::SetGlobal => globals[b] = regs[a],
    }
    Ok(())
}

/// The error a load or store at `address` raises, built only on the
/// failing path.
#[cold]
fn out_of_bounds(op: &MicroOp, address: i64, memory_words: usize) -> VmError {
    VmError::MemoryOutOfBounds {
        block: BlockId::new(op.block),
        address,
        memory_words,
    }
}

/// Predecodes the instruction stream, then merges straight-line steps.
pub(super) fn run(tr: &mut CompiledTrace) {
    // Predecode while steps are 1:1 with blocks, so each op carries the
    // right block for error attribution.
    let mut ops = Vec::with_capacity(tr.insts.len());
    for step in &tr.steps {
        for inst in &tr.insts[step.inst_start as usize..step.inst_end as usize] {
            ops.push(decode(inst, step.block));
        }
    }
    tr.ops = ops;
    merge(tr);
    fuse_compares(tr);
}

/// Truth table of a compare code over the outcome of `lhs` against
/// `rhs`: bit 0 is the result when less, bit 1 when equal, bit 2 when
/// greater. Zero for every other code.
fn cmp_mask(code: Code) -> u8 {
    match code {
        Code::CmpLt | Code::CmpLtImm => 0b001,
        Code::CmpLe | Code::CmpLeImm => 0b011,
        Code::CmpEq | Code::CmpEqImm => 0b010,
        Code::CmpNe | Code::CmpNeImm => 0b101,
        Code::CmpGt | Code::CmpGtImm => 0b100,
        Code::CmpGe | Code::CmpGeImm => 0b110,
        _ => 0,
    }
}

/// Whether a compare code takes its right-hand side from the immediate.
fn cmp_imm(code: Code) -> bool {
    matches!(
        code,
        Code::CmpLtImm
            | Code::CmpLeImm
            | Code::CmpEqImm
            | Code::CmpNeImm
            | Code::CmpGtImm
            | Code::CmpGeImm
    )
}

/// Hands each conditional end op the compare that feeds it: when a
/// step's last micro-op is a compare writing the branch's condition
/// register, the op leaves the step's range (it stays in `ops`, just
/// past the range) and the end op evaluates it through
/// [`fused_compare`]. One dispatch fewer per guarded step, and the guard
/// reads the condition without a round trip through the register file.
fn fuse_compares(tr: &mut CompiledTrace) {
    for step in &mut tr.steps {
        let (EndOp::BranchNext { cond, .. } | EndOp::BranchExit { cond, .. }) = step.end else {
            continue;
        };
        if step.inst_end == step.inst_start {
            continue;
        }
        let last = &tr.ops[step.inst_end as usize - 1];
        if cmp_mask(last.code) != 0 && last.dst == cond {
            step.inst_end -= 1;
            step.fused = true;
        }
    }
}

/// Executes a compare micro-op fused into a conditional end op: writes
/// the result register exactly as [`exec_op`] would and returns whether
/// the branch is taken.
#[inline]
pub(crate) fn fused_compare(op: &MicroOp, regs: &mut [i64]) -> bool {
    let lhs = regs[op.a as usize];
    let rhs = if cmp_imm(op.code) {
        op.imm
    } else {
        regs[op.b as usize]
    };
    let outcome = u8::from(lhs > rhs) * 2 + u8::from(lhs == rhs);
    let taken = (cmp_mask(op.code) >> outcome) & 1 != 0;
    regs[op.dst as usize] = i64::from(taken);
    taken
}

/// Accumulated prefix of a straight-line group, folded into the step
/// that finally carries a guard or exit.
struct Group {
    entry: u32,
    inst_start: u32,
    size: u32,
    d_blocks: u32,
    d_cond: u32,
    d_backward: u32,
}

fn merge(tr: &mut CompiledTrace) {
    if !tr.steps.iter().any(|s| matches!(s.end, EndOp::Next)) {
        return;
    }
    let mut merged: Vec<TraceStep> = Vec::with_capacity(tr.steps.len());
    let mut acc: Option<Group> = None;
    for mut step in tr.steps.drain(..) {
        if let Some(g) = acc.take() {
            step.entry = g.entry;
            step.inst_start = g.inst_start;
            step.size += g.size;
            step.d_blocks += g.d_blocks;
            step.d_cond += g.d_cond;
            step.d_backward += g.d_backward;
        }
        if matches!(step.end, EndOp::Next) {
            // The final step always carries an exit, so a `Next` step
            // always has a successor to fold into.
            acc = Some(Group {
                entry: step.entry,
                inst_start: step.inst_start,
                size: step.size,
                d_blocks: step.d_blocks,
                d_cond: step.d_cond,
                d_backward: step.d_backward + step.next_backward as u32,
            });
        } else {
            merged.push(step);
        }
    }
    debug_assert!(acc.is_none(), "a trailing step cannot end in Next");
    tr.steps = merged;
}
