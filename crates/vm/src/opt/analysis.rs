//! Shared dataflow machinery for the trace optimizer passes.

use hotpath_ir::{BinOp, BlockId, Inst, UnOp};

use crate::trace_exec::{CompiledTrace, EndOp};
use crate::vm::eval_bin;

/// True when the trace never crosses a frame boundary: no call or return
/// appears in any step's end op, so the frame base — and therefore the
/// meaning of every frame-relative register index — is constant for a
/// whole traversal. Register-level passes require this.
pub(super) fn call_free(tr: &CompiledTrace) -> bool {
    tr.steps.iter().all(|s| {
        !matches!(
            s.end,
            EndOp::CallNext { .. } | EndOp::ReturnNext | EndOp::CallExit { .. } | EndOp::ReturnExit
        )
    })
}

/// True when some statically-known exit target is the trace's own head,
/// i.e. the trace can re-enter itself (directly, or via a self-link once
/// patched). Guard hoisting only pays off on such traces.
pub(super) fn cyclic(tr: &CompiledTrace) -> bool {
    let head = tr.head;
    tr.steps.iter().any(|s| match &s.end {
        EndOp::BranchNext { fail_target, .. } => *fail_target == head,
        EndOp::SwitchNext {
            targets,
            arms,
            default,
            ..
        }
        | EndOp::SwitchExit {
            targets,
            arms,
            default,
            ..
        } => tr.arms(*targets, *arms).contains(&head) || *default == head,
        EndOp::JumpExit { target, .. } | EndOp::CallExit { target, .. } => *target == head,
        EndOp::BranchExit {
            taken, fallthrough, ..
        } => *taken == head || *fallthrough == head,
        EndOp::Next | EndOp::CallNext { .. } | EndOp::ReturnNext => false,
        EndOp::ReturnExit | EndOp::HaltExit => false,
    })
}

/// The frame-relative register an instruction defines, if any.
pub(super) fn def(inst: &Inst) -> Option<u16> {
    match *inst {
        Inst::Const { dst, .. }
        | Inst::Mov { dst, .. }
        | Inst::Un { dst, .. }
        | Inst::Bin { dst, .. }
        | Inst::BinImm { dst, .. }
        | Inst::Cmp { dst, .. }
        | Inst::CmpImm { dst, .. }
        | Inst::Load { dst, .. }
        | Inst::GetGlobal { dst, .. } => Some(dst.index() as u16),
        Inst::Store { .. } | Inst::SetGlobal { .. } => None,
    }
}

/// Calls `f` for every frame-relative register the instruction reads.
pub(super) fn for_each_read(inst: &Inst, mut f: impl FnMut(u16)) {
    match *inst {
        Inst::Const { .. } | Inst::GetGlobal { .. } => {}
        Inst::Mov { src, .. } | Inst::Un { src, .. } | Inst::SetGlobal { src, .. } => {
            f(src.index() as u16)
        }
        Inst::Bin { lhs, rhs, .. } | Inst::Cmp { lhs, rhs, .. } => {
            f(lhs.index() as u16);
            f(rhs.index() as u16);
        }
        Inst::BinImm { lhs, .. } | Inst::CmpImm { lhs, .. } => f(lhs.index() as u16),
        Inst::Load { addr, .. } => f(addr.index() as u16),
        Inst::Store { src, addr, .. } => {
            f(src.index() as u16);
            f(addr.index() as u16);
        }
    }
}

/// Exclusive upper bound on register indices the trace touches (via
/// instructions, guards, or entry guards) — the table size for dense
/// per-register state.
pub(super) fn reg_bound(tr: &CompiledTrace) -> usize {
    let mut bound = 0usize;
    for inst in &tr.insts {
        if let Some(d) = def(inst) {
            bound = bound.max(d as usize + 1);
        }
        for_each_read(inst, |r| bound = bound.max(r as usize + 1));
    }
    for step in &tr.steps {
        match step.end {
            EndOp::BranchNext { cond, .. } | EndOp::BranchExit { cond, .. } => {
                bound = bound.max(cond as usize + 1)
            }
            EndOp::SwitchNext { index, .. } | EndOp::SwitchExit { index, .. } => {
                bound = bound.max(index as usize + 1)
            }
            _ => {}
        }
    }
    for g in &tr.entry_guards {
        bound = bound.max(g.reg as usize + 1);
    }
    bound
}

/// Folds a binary operation, mirroring the VM's runtime semantics
/// exactly; `None` when the operation would be a runtime error (division
/// or remainder by zero), in which case the instruction must stay.
pub(super) fn fold_bin(op: BinOp, a: i64, b: i64) -> Option<i64> {
    eval_bin(op, a, b, BlockId::new(0)).ok()
}

/// Folds a unary operation (never errors).
pub(super) fn fold_un(op: UnOp, v: i64) -> i64 {
    match op {
        UnOp::Neg => v.wrapping_neg(),
        UnOp::Not => !v,
    }
}

/// Per-register facts accumulated along the superblock, in a single
/// forward scan: known constant values, known truthiness (`!= 0`), and
/// copy aliases. Sound because a superblock has no join points — a fact
/// established at step *k* holds for the rest of the same traversal.
pub(super) struct Facts {
    konst: Vec<Option<i64>>,
    truth: Vec<Option<bool>>,
    /// `alias[d] = (s, gen)`: `d` was copied from `s` while `s` had
    /// generation `gen`; valid only while `gen[s]` still matches.
    alias: Vec<Option<(u16, u32)>>,
    gen: Vec<u32>,
}

impl Facts {
    pub(super) fn new(bound: usize) -> Self {
        Facts {
            konst: vec![None; bound],
            truth: vec![None; bound],
            alias: vec![None; bound],
            gen: vec![0; bound],
        }
    }

    fn kill(&mut self, r: u16) {
        let r = r as usize;
        self.gen[r] = self.gen[r].wrapping_add(1);
        self.konst[r] = None;
        self.truth[r] = None;
        self.alias[r] = None;
    }

    /// Register redefined with an unknown value.
    pub(super) fn def(&mut self, r: u16) {
        self.kill(r);
    }

    /// Register redefined with a known constant.
    pub(super) fn set_const(&mut self, r: u16, v: i64) {
        self.kill(r);
        self.konst[r as usize] = Some(v);
        self.truth[r as usize] = Some(v != 0);
    }

    /// Register copied from another: facts carry over and an alias edge
    /// is recorded so later guard observations flow both ways.
    pub(super) fn mov(&mut self, dst: u16, src: u16) {
        if dst == src {
            return;
        }
        let k = self.konst(src);
        let t = self.truth(src);
        let g = self.gen[src as usize];
        self.kill(dst);
        self.konst[dst as usize] = k;
        self.truth[dst as usize] = t;
        self.alias[dst as usize] = Some((src, g));
    }

    fn alias_src(&self, r: u16) -> Option<u16> {
        self.alias[r as usize]
            .filter(|&(s, g)| self.gen[s as usize] == g)
            .map(|(s, _)| s)
    }

    /// Known constant value of `r`, through one alias hop.
    pub(super) fn konst(&self, r: u16) -> Option<i64> {
        self.konst[r as usize].or_else(|| self.alias_src(r).and_then(|s| self.konst[s as usize]))
    }

    /// Known truthiness of `r`, through one alias hop.
    pub(super) fn truth(&self, r: u16) -> Option<bool> {
        self.truth[r as usize].or_else(|| self.alias_src(r).and_then(|s| self.truth[s as usize]))
    }

    /// A guard on `r` passed in the expected direction: its truthiness is
    /// now known (and, for false, its value — the only falsy `i64` is 0).
    /// The fact propagates to a still-valid copy source.
    pub(super) fn observe_truth(&mut self, r: u16, t: bool) {
        self.truth[r as usize] = Some(t);
        if !t && self.konst[r as usize].is_none() {
            self.konst[r as usize] = Some(0);
        }
        if let Some(s) = self.alias_src(r) {
            self.truth[s as usize] = Some(t);
            if !t && self.konst[s as usize].is_none() {
                self.konst[s as usize] = Some(0);
            }
        }
    }

    /// Transfers facts across one instruction (no rewriting).
    pub(super) fn apply(&mut self, inst: &Inst) {
        match *inst {
            Inst::Const { dst, value } => self.set_const(dst.index() as u16, value),
            Inst::Mov { dst, src } => self.mov(dst.index() as u16, src.index() as u16),
            Inst::Un { op, dst, src } => match self.konst(src.index() as u16) {
                Some(v) => self.set_const(dst.index() as u16, fold_un(op, v)),
                None => self.def(dst.index() as u16),
            },
            Inst::Bin { op, dst, lhs, rhs } => {
                let v = match (
                    self.konst(lhs.index() as u16),
                    self.konst(rhs.index() as u16),
                ) {
                    (Some(a), Some(b)) => fold_bin(op, a, b),
                    _ => None,
                };
                match v {
                    Some(v) => self.set_const(dst.index() as u16, v),
                    None => self.def(dst.index() as u16),
                }
            }
            Inst::BinImm { op, dst, lhs, imm } => {
                match self
                    .konst(lhs.index() as u16)
                    .and_then(|a| fold_bin(op, a, imm))
                {
                    Some(v) => self.set_const(dst.index() as u16, v),
                    None => self.def(dst.index() as u16),
                }
            }
            Inst::Cmp { op, dst, lhs, rhs } => {
                let v = match (
                    self.konst(lhs.index() as u16),
                    self.konst(rhs.index() as u16),
                ) {
                    (Some(a), Some(b)) => Some(op.eval(a, b) as i64),
                    _ => None,
                };
                match v {
                    Some(v) => self.set_const(dst.index() as u16, v),
                    None => self.def(dst.index() as u16),
                }
            }
            Inst::CmpImm { op, dst, lhs, imm } => match self.konst(lhs.index() as u16) {
                Some(a) => self.set_const(dst.index() as u16, op.eval(a, imm) as i64),
                None => self.def(dst.index() as u16),
            },
            Inst::Load { dst, .. } | Inst::GetGlobal { dst, .. } => self.def(dst.index() as u16),
            Inst::Store { .. } | Inst::SetGlobal { .. } => {}
        }
    }
}
