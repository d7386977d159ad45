//! The interprocedural forward-path extractor (paper §3).
//!
//! > *An interprocedural forward path starts at the target of a backward
//! > taken branch and extends up to the next backward taken branch. The
//! > path may extend across procedure call or return statements unless the
//! > call or return is a backward branch. If a path includes a (forward)
//! > procedure call it will terminate at the corresponding return branch,
//! > if not earlier.*
//!
//! [`PathExtractor`] implements that definition as an
//! [`ExecutionObserver`]: it segments the dynamic block stream into paths,
//! interns each path's bit-tracing signature, and hands one
//! [`PathExecution`] per completed path to a [`PathSink`].
//!
//! ## What counts as a "backward taken branch"?
//!
//! With function-contiguous code layout (ours, PA-RISC's, everyone's),
//! *returns* are backward transfers whenever the callee sits at a higher
//! address than the caller — i.e. almost always after a forward call. The
//! paper's definition reads literally: paths may cross calls and returns
//! "unless the call or return is a backward branch". Table 2's head
//! counts corroborate the literal reading — compress has 143 unique heads
//! for only 230 paths, far more than its loop headers alone — so:
//!
//! * [`BackwardRule::AllTransfers`] (default): any backward transfer,
//!   including calls and returns, ends the path and its target is a
//!   NET-countable head. Under contiguous layout this is also what makes
//!   the "terminate at the corresponding return" clause fire: a forward
//!   call's matching return is backward.
//! * [`BackwardRule::BranchesOnly`]: only backward jumps, conditional
//!   branches, and indirect branches end paths; calls and returns never
//!   do, and an in-path call's matching return ends the path with
//!   [`PathEndKind::CallReturn`]. Offered for the ablation benches.
//!
//! Two practical extensions Dynamo also needed: a safety **length cap**
//! ([`PathEndKind::Capped`]), and *continuation* starts
//! ([`PathStartKind::Continuation`]) for paths that begin where a previous
//! path ended without a backward branch.

use hotpath_ir::BlockId;
use hotpath_vm::{BlockEvent, ExecutionObserver, TransferKind};

use crate::signature::{PathId, PathInfo, PathSignature, PathTable};

/// Which control transfers end paths when backward. See the module docs.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, Debug)]
pub enum BackwardRule {
    /// Only branch instructions (jump, conditional, indirect) end paths.
    BranchesOnly,
    /// Any backward transfer ends paths, including calls and returns.
    #[default]
    AllTransfers,
}

/// Why a path began.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PathStartKind {
    /// Program entry (the very first path).
    Entry,
    /// Target of a backward taken branch — the starts NET maintains
    /// counters for.
    BackwardTarget,
    /// Continuation after a path that ended without a backward branch
    /// (call-return termination or the length cap).
    Continuation,
}

impl PathStartKind {
    /// True for starts that NET profiles (targets of backward taken
    /// branches).
    pub fn is_net_countable(self) -> bool {
        matches!(self, PathStartKind::BackwardTarget)
    }

    /// Compact tag for stream encodings; inverse of
    /// [`from_tag`](PathStartKind::from_tag).
    pub fn tag(self) -> u8 {
        match self {
            PathStartKind::Entry => 0,
            PathStartKind::BackwardTarget => 1,
            PathStartKind::Continuation => 2,
        }
    }

    /// Decodes a tag.
    pub fn from_tag(tag: u8) -> Option<Self> {
        Some(match tag {
            0 => PathStartKind::Entry,
            1 => PathStartKind::BackwardTarget,
            2 => PathStartKind::Continuation,
            _ => return None,
        })
    }

    /// Stable snake_case name (telemetry and reports).
    pub fn as_str(self) -> &'static str {
        match self {
            PathStartKind::Entry => "entry",
            PathStartKind::BackwardTarget => "backward",
            PathStartKind::Continuation => "continuation",
        }
    }
}

/// Why a path ended.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PathEndKind {
    /// A backward taken control transfer (the normal case).
    BackwardBranch,
    /// The return matching a call made inside the path.
    CallReturn,
    /// The safety length cap.
    Capped,
    /// The program halted.
    ProgramEnd,
}

impl PathEndKind {
    /// Stable snake_case name (telemetry and reports).
    pub fn as_str(self) -> &'static str {
        match self {
            PathEndKind::BackwardBranch => "backward",
            PathEndKind::CallReturn => "call_return",
            PathEndKind::Capped => "capped",
            PathEndKind::ProgramEnd => "program_end",
        }
    }
}

/// One dynamic execution of a path.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PathExecution {
    /// The interned path identity.
    pub path: PathId,
    /// First block of the path.
    pub head: BlockId,
    /// Why the path began.
    pub start: PathStartKind,
    /// Why the path ended.
    pub end: PathEndKind,
    /// Blocks on this execution of the path.
    pub blocks: u32,
    /// Instruction slots on this execution of the path.
    pub insts: u32,
}

/// Receives completed paths from a [`PathExtractor`].
pub trait PathSink {
    /// Called once per completed path execution.
    fn on_path(&mut self, exec: &PathExecution);

    /// Called when the underlying program run ends.
    fn on_end(&mut self) {}
}

impl<S: PathSink + ?Sized> PathSink for &mut S {
    fn on_path(&mut self, exec: &PathExecution) {
        (**self).on_path(exec);
    }

    fn on_end(&mut self) {
        (**self).on_end();
    }
}

/// A [`PathSink`] that collects executions into a vector (tests and small
/// experiments).
#[derive(Clone, Default, Debug)]
pub struct CollectSink {
    /// All completed path executions, in order.
    pub paths: Vec<PathExecution>,
    /// True once the run ended.
    pub ended: bool,
}

impl PathSink for CollectSink {
    fn on_path(&mut self, exec: &PathExecution) {
        self.paths.push(*exec);
    }

    fn on_end(&mut self) {
        self.ended = true;
    }
}

/// Default safety cap on path length, in blocks (Dynamo bounds trace
/// length the same way).
pub const DEFAULT_PATH_CAP: u32 = 1024;

/// Segments a block-event stream into interprocedural forward paths.
///
/// Use as the observer of a [`Vm`](hotpath_vm::Vm) run (or of a
/// [`RecordedTrace`](hotpath_vm::RecordedTrace) replay). After the run,
/// [`into_parts`](PathExtractor::into_parts) yields the sink and the
/// interned [`PathTable`].
#[derive(Debug)]
pub struct PathExtractor<S> {
    sink: S,
    table: PathTable,
    sig: PathSignature,
    start_kind: PathStartKind,
    /// Calls made inside the current path that have not returned yet.
    pending_calls: u32,
    blocks: u32,
    insts: u32,
    cap: u32,
    rule: BackwardRule,
    active: bool,
}

impl<S: PathSink> PathExtractor<S> {
    /// Creates an extractor feeding `sink` with the default cap and the
    /// default rule, [`BackwardRule::AllTransfers`].
    pub fn new(sink: S) -> Self {
        Self::with_options(sink, DEFAULT_PATH_CAP, BackwardRule::default())
    }

    /// Creates an extractor with an explicit length cap (in blocks).
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0`.
    pub fn with_cap(sink: S, cap: u32) -> Self {
        Self::with_options(sink, cap, BackwardRule::default())
    }

    /// Creates an extractor with explicit cap and backward rule.
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0`.
    pub fn with_options(sink: S, cap: u32, rule: BackwardRule) -> Self {
        assert!(cap > 0, "path cap must be positive");
        PathExtractor {
            sink,
            table: PathTable::new(),
            sig: PathSignature::default(),
            start_kind: PathStartKind::Entry,
            pending_calls: 0,
            blocks: 0,
            insts: 0,
            cap,
            rule,
            active: false,
        }
    }

    /// The sink (e.g. to read collected results mid-run).
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// Mutable access to the sink (e.g. to drain per-event results while
    /// embedding the extractor in a larger observer, as the Dynamo engine
    /// does).
    pub fn sink_mut(&mut self) -> &mut S {
        &mut self.sink
    }

    /// Consumes the extractor, returning the sink and the path table.
    pub fn into_parts(self) -> (S, PathTable) {
        (self.sink, self.table)
    }

    /// Consumes the extractor, returning only the path table.
    pub fn into_table(self) -> PathTable {
        self.table
    }

    /// The interned paths so far.
    pub fn table(&self) -> &PathTable {
        &self.table
    }

    fn begin(&mut self, block: BlockId, kind: PathStartKind, block_size: u32) {
        self.sig.reset(block);
        self.start_kind = kind;
        self.pending_calls = 0;
        self.blocks = 1;
        self.insts = block_size;
        self.active = true;
    }

    fn finish(&mut self, end: PathEndKind) {
        if !self.active {
            return;
        }
        let head = self.sig.start();
        let id = self.table.intern(
            &self.sig,
            PathInfo {
                head,
                blocks: self.blocks,
                insts: self.insts,
                cond_branches: self.sig.history_len(),
                indirects: self.sig.indirect_len() as u32,
            },
        );
        let exec = PathExecution {
            path: id,
            head,
            start: self.start_kind,
            end,
            blocks: self.blocks,
            insts: self.insts,
        };
        self.active = false;
        hotpath_telemetry::emit!(hotpath_telemetry::Event::PathCompleted {
            path: id.index() as u32,
            head: head.as_u32(),
            blocks: exec.blocks,
            insts: exec.insts,
            start: exec.start.as_str(),
            end: exec.end.as_str(),
        });
        self.sink.on_path(&exec);
    }

    fn extend(&mut self, event: &BlockEvent) {
        match event.kind {
            TransferKind::BranchTaken => self.sig.push_bit(true),
            TransferKind::BranchNotTaken => self.sig.push_bit(false),
            TransferKind::Indirect => self.sig.push_indirect(event.block),
            // A return that does not terminate the path crosses out of the
            // frame the path started in; like an indirect branch, its
            // dynamic target is part of the path identity.
            TransferKind::Return => self.sig.push_indirect(event.block),
            TransferKind::Jump | TransferKind::Call | TransferKind::Start => {}
        }
        self.blocks += 1;
        self.insts += event.block_size;
    }
}

impl<S: PathSink> ExecutionObserver for PathExtractor<S> {
    fn on_block(&mut self, event: &BlockEvent) {
        if event.kind == TransferKind::Start {
            self.begin(event.block, PathStartKind::Entry, event.block_size);
            return;
        }

        // Decide whether the incoming transfer ends the current path.
        let is_branch = !matches!(event.kind, TransferKind::Call | TransferKind::Return);
        let backward_ends =
            event.backward && (is_branch || self.rule == BackwardRule::AllTransfers);
        let mut end: Option<PathEndKind> = None;
        match event.kind {
            TransferKind::Call => self.pending_calls += 1,
            TransferKind::Return if self.pending_calls > 0 => {
                self.pending_calls -= 1;
                if self.pending_calls == 0 {
                    // The return matching the first in-path call.
                    end = Some(PathEndKind::CallReturn);
                }
            }
            _ => {}
        }
        if backward_ends {
            end = Some(PathEndKind::BackwardBranch);
        } else if end.is_none() && self.blocks >= self.cap {
            end = Some(PathEndKind::Capped);
        }

        match end {
            Some(reason) => {
                self.finish(reason);
                let kind = if backward_ends {
                    PathStartKind::BackwardTarget
                } else {
                    PathStartKind::Continuation
                };
                self.begin(event.block, kind, event.block_size);
            }
            None => self.extend(event),
        }
    }

    fn on_halt(&mut self) {
        self.finish(PathEndKind::ProgramEnd);
        self.sink.on_end();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotpath_ir::builder::{FunctionBuilder, ProgramBuilder};
    use hotpath_ir::{CmpOp, GlobalReg, Program};
    use hotpath_vm::Vm;

    /// Counted loop with an if/else body, blocks created in layout order:
    /// entry(b0), header(b1), body(b2), odd(b3), even(b4), latch(b5),
    /// exit(b6). Two distinct loop-iteration paths.
    fn loop_program(trip: i64) -> Program {
        let mut fb = FunctionBuilder::new("main");
        let i = fb.reg();
        let header = fb.new_block();
        let body = fb.new_block();
        let odd_b = fb.new_block();
        let even_b = fb.new_block();
        let latch = fb.new_block();
        let exit = fb.new_block();
        fb.const_(i, 0);
        fb.jump(header);
        fb.switch_to(header);
        let c = fb.cmp_imm(CmpOp::Lt, i, trip);
        fb.branch(c, body, exit);
        fb.switch_to(body);
        let par = fb.reg();
        fb.and_imm(par, i, 1);
        fb.branch(par, odd_b, even_b);
        fb.switch_to(odd_b);
        fb.jump(latch);
        fb.switch_to(even_b);
        fb.jump(latch);
        fb.switch_to(latch);
        fb.add_imm(i, i, 1);
        fb.jump(header);
        fb.switch_to(exit);
        fb.halt();
        let mut pb = ProgramBuilder::new();
        pb.add_function(fb).unwrap();
        pb.finish().unwrap()
    }

    fn extract(p: &Program) -> (CollectSink, PathTable) {
        let mut ex = PathExtractor::new(CollectSink::default());
        Vm::new(p).run(&mut ex).unwrap();
        ex.into_parts()
    }

    #[test]
    fn loop_paths_partition_the_run() {
        let p = loop_program(10);
        let mut ex = PathExtractor::new(CollectSink::default());
        let stats = Vm::new(&p).run(&mut ex).unwrap();
        let (sink, table) = ex.into_parts();
        assert!(sink.ended);
        // Paths partition the block stream exactly.
        let total_blocks: u64 = sink.paths.iter().map(|e| e.blocks as u64).sum();
        assert_eq!(total_blocks, stats.blocks_executed);
        let total_insts: u64 = sink.paths.iter().map(|e| e.insts as u64).sum();
        assert_eq!(total_insts, stats.insts_executed);
        // Distinct paths: entry prefix (even iter 0), odd iteration, even
        // iteration, final header->exit.
        assert_eq!(table.len(), 4);
        // Executions: entry path + 9 further iterations + final exit path.
        assert_eq!(sink.paths.len(), 11);
        assert_eq!(
            sink.paths
                .iter()
                .filter(|e| e.end == PathEndKind::BackwardBranch)
                .count(),
            10
        );
        assert_eq!(sink.paths[0].start, PathStartKind::Entry);
        assert!(sink.paths[1..]
            .iter()
            .all(|e| e.start == PathStartKind::BackwardTarget));
        assert_eq!(sink.paths.last().unwrap().end, PathEndKind::ProgramEnd);
    }

    #[test]
    fn alternating_iterations_intern_two_loop_paths() {
        let p = loop_program(8);
        let (sink, table) = extract(&p);
        let iter_ids: Vec<PathId> = sink
            .paths
            .iter()
            .filter(|e| {
                e.end == PathEndKind::BackwardBranch && e.start == PathStartKind::BackwardTarget
            })
            .map(|e| e.path)
            .collect();
        let mut unique = iter_ids.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), 2, "odd and even iteration paths");
        assert_ne!(iter_ids[0], iter_ids[1]);
        assert_eq!(iter_ids[0], iter_ids[2]);
        // Both loop paths share the loop header as their head; the NET
        // counter space for this loop is a single counter (paper §4.1).
        let heads: Vec<_> = unique.iter().map(|&id| table.info(id).head).collect();
        assert_eq!(heads[0], heads[1]);
        // Heads across all interned paths: the program entry block and the
        // loop header (the final header->exit path also starts at the
        // header).
        assert_eq!(table.unique_heads(), 2);
    }

    /// A loop body that calls a helper: under the BranchesOnly rule the
    /// path extends into the callee and ends at the matching return, and
    /// the continuation is NOT a NET-countable head.
    #[test]
    fn in_path_call_terminates_at_matching_return() {
        let mut pb = ProgramBuilder::new();
        let helper = pb.declare("helper");

        // Helper declared (and laid out) first: the call is backward, the
        // return forward — the default rule ignores both.
        let mut hb = FunctionBuilder::new("helper");
        let x = hb.reg();
        hb.get_global(x, GlobalReg::new(0));
        hb.add_imm(x, x, 1);
        hb.set_global(GlobalReg::new(0), x);
        hb.ret();
        pb.add_function(hb).unwrap();

        let mut fb = FunctionBuilder::new("main");
        let i = fb.reg();
        let header = fb.new_block();
        let body = fb.new_block();
        let after_call = fb.new_block();
        let exit = fb.new_block();
        fb.const_(i, 0);
        fb.jump(header);
        fb.switch_to(header);
        let c = fb.cmp_imm(CmpOp::Lt, i, 5);
        fb.branch(c, body, exit);
        fb.switch_to(body);
        fb.add_imm(i, i, 1);
        fb.call(helper, after_call);
        fb.switch_to(after_call);
        fb.jump(header);
        fb.switch_to(exit);
        fb.halt();
        pb.add_function(fb).unwrap();

        let p = pb.finish().unwrap();
        let mut ex = PathExtractor::with_options(
            CollectSink::default(),
            DEFAULT_PATH_CAP,
            BackwardRule::BranchesOnly,
        );
        let stats = Vm::new(&p).run(&mut ex).unwrap();
        let (sink, table) = ex.into_parts();
        let total_blocks: u64 = sink.paths.iter().map(|e| e.blocks as u64).sum();
        assert_eq!(total_blocks, stats.blocks_executed, "paths partition run");
        // One CallReturn termination per loop iteration.
        assert_eq!(
            sink.paths
                .iter()
                .filter(|e| e.end == PathEndKind::CallReturn)
                .count(),
            5
        );
        // Each is followed by a continuation, which is not NET-countable.
        for w in sink.paths.windows(2) {
            if w[0].end == PathEndKind::CallReturn {
                assert_eq!(w[1].start, PathStartKind::Continuation);
                assert!(!w[1].start.is_net_countable());
            }
        }
        // Unique heads: main entry, loop header, after_call continuation.
        assert_eq!(table.unique_heads(), 3);
    }

    /// Under the (default) `AllTransfers` rule the backward call ends
    /// paths and the callee entry becomes a head.
    #[test]
    fn all_transfers_rule_makes_callee_entry_a_head() {
        let mut pb = ProgramBuilder::new();
        let helper = pb.declare("helper");
        let mut hb = FunctionBuilder::new("helper");
        hb.ret();
        pb.add_function(hb).unwrap();

        let mut fb = FunctionBuilder::new("main");
        let i = fb.reg();
        let header = fb.new_block();
        let body = fb.new_block();
        let after_call = fb.new_block();
        let exit = fb.new_block();
        fb.const_(i, 0);
        fb.jump(header);
        fb.switch_to(header);
        let c = fb.cmp_imm(CmpOp::Lt, i, 3);
        fb.branch(c, body, exit);
        fb.switch_to(body);
        fb.add_imm(i, i, 1);
        fb.call(helper, after_call);
        fb.switch_to(after_call);
        fb.jump(header);
        fb.switch_to(exit);
        fb.halt();
        pb.add_function(fb).unwrap();
        let p = pb.finish().unwrap();

        let mut ex = PathExtractor::with_options(
            CollectSink::default(),
            DEFAULT_PATH_CAP,
            BackwardRule::AllTransfers,
        );
        let stats = Vm::new(&p).run(&mut ex).unwrap();
        let (sink, _) = ex.into_parts();
        let total_blocks: u64 = sink.paths.iter().map(|e| e.blocks as u64).sum();
        assert_eq!(total_blocks, stats.blocks_executed);
        // The backward call ends a path whose successor path starts at the
        // helper's entry (global block 0: helper is laid out first) as a
        // BackwardTarget.
        let helper_entry = hotpath_ir::BlockId::new(0);
        let helper_entry_head_paths = sink
            .paths
            .iter()
            .filter(|e| e.start == PathStartKind::BackwardTarget && e.head == helper_entry)
            .count();
        assert!(helper_entry_head_paths >= 3, "callee entry became a head");
    }

    #[test]
    fn cap_splits_long_paths() {
        // A long straight-line chain of blocks, then halt.
        let mut fb = FunctionBuilder::new("main");
        for _ in 0..20 {
            let nb = fb.new_block();
            fb.jump(nb);
            fb.switch_to(nb);
        }
        fb.halt();
        let mut pb = ProgramBuilder::new();
        pb.add_function(fb).unwrap();
        let p = pb.finish().unwrap();

        let mut ex = PathExtractor::with_cap(CollectSink::default(), 4);
        let stats = Vm::new(&p).run(&mut ex).unwrap();
        let (sink, _) = ex.into_parts();
        let total: u64 = sink.paths.iter().map(|e| e.blocks as u64).sum();
        assert_eq!(total, stats.blocks_executed);
        assert!(sink.paths.iter().any(|e| e.end == PathEndKind::Capped));
        assert!(sink.paths.iter().all(|e| e.blocks <= 4));
        for w in sink.paths.windows(2) {
            if w[0].end == PathEndKind::Capped {
                assert_eq!(w[1].start, PathStartKind::Continuation);
            }
        }
    }

    #[test]
    #[should_panic(expected = "path cap must be positive")]
    fn zero_cap_panics() {
        let _ = PathExtractor::with_cap(CollectSink::default(), 0);
    }

    #[test]
    fn start_kind_tags_roundtrip() {
        for k in [
            PathStartKind::Entry,
            PathStartKind::BackwardTarget,
            PathStartKind::Continuation,
        ] {
            assert_eq!(PathStartKind::from_tag(k.tag()), Some(k));
        }
        assert_eq!(PathStartKind::from_tag(9), None);
    }

    #[test]
    fn replayed_trace_extracts_identical_paths() {
        let p = loop_program(6);
        // Live extraction.
        let (live, _) = extract(&p);
        // Trace, then replay through a fresh extractor.
        let mut rec = hotpath_vm::TraceRecorder::new();
        Vm::new(&p).run(&mut rec).unwrap();
        let trace = rec.into_trace();
        let mut ex = PathExtractor::new(CollectSink::default());
        trace.replay(&mut ex);
        let (replayed, _) = ex.into_parts();
        assert_eq!(live.paths, replayed.paths);
        assert!(replayed.ended);
    }
}
