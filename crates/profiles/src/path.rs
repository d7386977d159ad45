//! The interprocedural forward-path extractor (paper §3).
//!
//! > *An interprocedural forward path starts at the target of a backward
//! > taken branch and extends up to the next backward taken branch. The
//! > path may extend across procedure call or return statements unless the
//! > call or return is a backward branch. If a path includes a (forward)
//! > procedure call it will terminate at the corresponding return branch,
//! > if not earlier.*
//!
//! [`PathSegmenter`] implements that definition's boundary rules alone: fed
//! one block event at a time, it says whether the block extends the open
//! path or ends it and begins the next. [`PathExtractor`] wraps it as an
//! [`ExecutionObserver`] that also interns each path's bit-tracing
//! signature and hands one [`PathExecution`] per completed path to a
//! [`PathSink`]. NET needs only the boundaries (paper §4.1), so the linked
//! Dynamo engine drives a bare segmenter under NET and the full extractor
//! under path profiling.
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

impl PathExecution {
    /// The execution without its interned identity.
    pub fn span(&self) -> PathSpan {
        PathSpan {
            head: self.head,
            start: self.start,
            end: self.end,
            blocks: self.blocks,
            insts: self.insts,
        }
    }
}

/// One completed path as its boundaries alone: where and why it began,
/// why it ended, and how long it ran. Everything a [`PathExecution`]
/// carries except the interned identity.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PathSpan {
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

impl PathSpan {
    /// The execution of the interned path `path` with these boundaries.
    pub fn with_path(self, path: PathId) -> PathExecution {
        PathExecution {
            path,
            head: self.head,
            start: self.start,
            end: self.end,
            blocks: self.blocks,
            insts: self.insts,
        }
    }
}

/// What one block event does to the open path (see [`PathSegmenter`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Boundary {
    /// The block extends the open path.
    Extend,
    /// The block begins a path and no path completes: a
    /// [`TransferKind::Start`], or a boundary met while no path was open.
    Begin,
    /// The open path ended before the block, which begins the next path.
    Split(PathSpan),
}

/// The path boundary rules of §3, without path identities.
///
/// Decides per block event whether the incoming transfer ends the open
/// path: a backward transfer (which transfers count is the
/// [`BackwardRule`]), the return matching the first call made inside the
/// path, or the length cap. A [`TransferKind::Start`] begins a new
/// [`PathStartKind::Entry`] path and silently drops the open one — a
/// consumer restarts segmentation that way when it loses sight of the
/// stream (the linked Dynamo engine does after every trace excursion).
///
/// [`PathExtractor`] is this plus signature interning; both see exactly
/// the same boundaries.
#[derive(Clone, Debug)]
pub struct PathSegmenter {
    head: BlockId,
    start: PathStartKind,
    /// Calls made inside the current path that have not returned yet.
    pending_calls: u32,
    blocks: u32,
    insts: u32,
    cap: u32,
    rule: BackwardRule,
    active: bool,
}

impl PathSegmenter {
    /// Creates a segmenter with a length cap (in blocks) and a backward
    /// rule.
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0`.
    pub fn new(cap: u32, rule: BackwardRule) -> Self {
        assert!(cap > 0, "path cap must be positive");
        PathSegmenter {
            head: BlockId::new(0),
            start: PathStartKind::Entry,
            pending_calls: 0,
            blocks: 0,
            insts: 0,
            cap,
            rule,
            active: false,
        }
    }

    /// Feeds one block event.
    #[inline]
    pub fn on_block(&mut self, event: &BlockEvent) -> Boundary {
        if event.kind == TransferKind::Start {
            self.begin(event.block, PathStartKind::Entry, event.block_size);
            return Boundary::Begin;
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
                let done = self.finish(reason);
                let kind = if backward_ends {
                    PathStartKind::BackwardTarget
                } else {
                    PathStartKind::Continuation
                };
                self.begin(event.block, kind, event.block_size);
                done.map_or(Boundary::Begin, Boundary::Split)
            }
            None => {
                self.blocks += 1;
                self.insts += event.block_size;
                Boundary::Extend
            }
        }
    }

    /// Ends the run: the open path, if any, completes with
    /// [`PathEndKind::ProgramEnd`].
    pub fn on_halt(&mut self) -> Option<PathSpan> {
        self.finish(PathEndKind::ProgramEnd)
    }

    fn begin(&mut self, block: BlockId, kind: PathStartKind, block_size: u32) {
        self.head = block;
        self.start = kind;
        self.pending_calls = 0;
        self.blocks = 1;
        self.insts = block_size;
        self.active = true;
    }

    fn finish(&mut self, end: PathEndKind) -> Option<PathSpan> {
        if !self.active {
            return None;
        }
        self.active = false;
        Some(PathSpan {
            head: self.head,
            start: self.start,
            end,
            blocks: self.blocks,
            insts: self.insts,
        })
    }
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
    segmenter: PathSegmenter,
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
        PathExtractor {
            sink,
            table: PathTable::new(),
            sig: PathSignature::default(),
            segmenter: PathSegmenter::new(cap, rule),
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

    fn finish(&mut self, span: PathSpan) {
        let id = self.table.intern(
            &self.sig,
            PathInfo {
                head: span.head,
                blocks: span.blocks,
                insts: span.insts,
                cond_branches: self.sig.history_len(),
                indirects: self.sig.indirect_len() as u32,
            },
        );
        let exec = span.with_path(id);
        hotpath_telemetry::emit!(hotpath_telemetry::Event::PathCompleted {
            path: id.index() as u32,
            head: span.head.as_u32(),
            blocks: span.blocks,
            insts: span.insts,
            start: span.start.as_str(),
            end: span.end.as_str(),
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
    }
}

impl<S: PathSink> ExecutionObserver for PathExtractor<S> {
    fn on_block(&mut self, event: &BlockEvent) {
        match self.segmenter.on_block(event) {
            Boundary::Extend => self.extend(event),
            Boundary::Begin => self.sig.reset(event.block),
            Boundary::Split(span) => {
                self.finish(span);
                self.sig.reset(event.block);
            }
        }
    }

    fn on_halt(&mut self) {
        if let Some(span) = self.segmenter.on_halt() {
            self.finish(span);
        }
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

    /// A synthetic event entering block `block` by `kind`.
    fn ev(block: u32, kind: TransferKind, backward: bool) -> BlockEvent {
        BlockEvent {
            from: (kind != TransferKind::Start).then(|| BlockId::new(block.saturating_sub(1))),
            block: BlockId::new(block),
            kind,
            backward,
            block_size: 2,
        }
    }

    /// Feeds `events` to a segmenter and collects the completed spans,
    /// the halt's included.
    fn segment(cap: u32, rule: BackwardRule, events: &[BlockEvent]) -> Vec<PathSpan> {
        let mut seg = PathSegmenter::new(cap, rule);
        let mut spans: Vec<PathSpan> = events
            .iter()
            .filter_map(|e| match seg.on_block(e) {
                Boundary::Split(span) => Some(span),
                Boundary::Extend | Boundary::Begin => None,
            })
            .collect();
        spans.extend(seg.on_halt());
        spans
    }

    /// Start, then `n - 1` forward jumps: one straight run of `n` blocks.
    fn straight(n: u32) -> Vec<BlockEvent> {
        (0..n)
            .map(|b| {
                let kind = if b == 0 {
                    TransferKind::Start
                } else {
                    TransferKind::Jump
                };
                ev(b, kind, false)
            })
            .collect()
    }

    #[test]
    fn segmenter_cap_boundaries() {
        let cap = 4;
        let rule = BackwardRule::AllTransfers;
        // cap - 1 and cap blocks fit in one path, ended by the halt.
        for n in [cap - 1, cap] {
            let spans = segment(cap, rule, &straight(n));
            assert_eq!(spans.len(), 1, "{n} blocks");
            assert_eq!(spans[0].blocks, n);
            assert_eq!(spans[0].insts, 2 * n);
            assert_eq!(spans[0].start, PathStartKind::Entry);
            assert_eq!(spans[0].end, PathEndKind::ProgramEnd);
        }
        // cap + 1 blocks: the cap ends the first path at exactly `cap`
        // blocks and the last block continues.
        let spans = segment(cap, rule, &straight(cap + 1));
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].blocks, spans[0].end), (cap, PathEndKind::Capped));
        assert_eq!(spans[1].head, BlockId::new(cap));
        assert_eq!(spans[1].start, PathStartKind::Continuation);
        assert_eq!(
            (spans[1].blocks, spans[1].end),
            (1, PathEndKind::ProgramEnd)
        );
    }

    #[test]
    fn segmenter_backward_call_ends_only_under_all_transfers() {
        // Blocks 5, 6, then a backward call into 1, its return forward to 7.
        let events = [
            ev(5, TransferKind::Start, false),
            ev(6, TransferKind::Jump, false),
            ev(1, TransferKind::Call, true),
            ev(7, TransferKind::Return, false),
        ];
        let all = segment(DEFAULT_PATH_CAP, BackwardRule::AllTransfers, &events);
        assert_eq!(all.len(), 2);
        assert_eq!((all[0].head, all[0].blocks), (BlockId::new(5), 2));
        assert_eq!(all[0].end, PathEndKind::BackwardBranch);
        // The callee entry is a NET-countable head, and its path does not
        // end at the return: the call was made before the path began.
        assert_eq!(all[1].head, BlockId::new(1));
        assert_eq!(all[1].start, PathStartKind::BackwardTarget);
        assert_eq!((all[1].blocks, all[1].end), (2, PathEndKind::ProgramEnd));
        // Under BranchesOnly the call is crossed and its matching return
        // ends the path.
        let branches = segment(DEFAULT_PATH_CAP, BackwardRule::BranchesOnly, &events);
        assert_eq!(branches.len(), 2);
        assert_eq!(
            (branches[0].blocks, branches[0].end),
            (3, PathEndKind::CallReturn)
        );
        assert_eq!(branches[1].head, BlockId::new(7));
        assert_eq!(branches[1].start, PathStartKind::Continuation);
    }

    #[test]
    fn segmenter_in_path_call_ends_at_its_matching_return() {
        // A forward call (2 -> 8) that makes a nested call (8 -> 9 -> back
        // to 8's continuation 10), then returns to 3: only the outer
        // call's return ends the path.
        let events = [
            ev(1, TransferKind::Start, false),
            ev(2, TransferKind::Jump, false),
            ev(8, TransferKind::Call, false),
            ev(9, TransferKind::Call, false),
            ev(10, TransferKind::Return, false),
            ev(3, TransferKind::Return, false),
            ev(4, TransferKind::Jump, false),
        ];
        let spans = segment(DEFAULT_PATH_CAP, BackwardRule::AllTransfers, &events);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].head, BlockId::new(1));
        assert_eq!(
            (spans[0].blocks, spans[0].end),
            (5, PathEndKind::CallReturn)
        );
        assert_eq!(spans[1].head, BlockId::new(3));
        assert_eq!(spans[1].start, PathStartKind::Continuation);
        assert_eq!(
            (spans[1].blocks, spans[1].end),
            (2, PathEndKind::ProgramEnd)
        );
    }

    #[test]
    fn segmenter_start_drops_the_open_path() {
        // A Start mid-stream begins an Entry path and completes nothing.
        let mut seg = PathSegmenter::new(DEFAULT_PATH_CAP, BackwardRule::default());
        assert_eq!(
            seg.on_block(&ev(1, TransferKind::Start, false)),
            Boundary::Begin
        );
        assert_eq!(
            seg.on_block(&ev(2, TransferKind::Jump, false)),
            Boundary::Extend
        );
        assert_eq!(
            seg.on_block(&ev(7, TransferKind::Start, false)),
            Boundary::Begin
        );
        let Boundary::Split(span) = seg.on_block(&ev(7, TransferKind::Jump, true)) else {
            panic!("a backward jump ends the open path");
        };
        assert_eq!(
            (span.head, span.start, span.blocks),
            (BlockId::new(7), PathStartKind::Entry, 1)
        );
        assert_eq!(
            seg.on_halt().map(|s| s.start),
            Some(PathStartKind::BackwardTarget)
        );
        assert_eq!(seg.on_halt(), None, "nothing is open after the halt");
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
