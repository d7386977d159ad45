//! Execution events and the observer interface.

use std::fmt;

use hotpath_ir::BlockId;

/// How control reached a block.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TransferKind {
    /// The first block of the run; no incoming transfer.
    Start,
    /// An unconditional `Jump`.
    Jump,
    /// A conditional branch whose condition held.
    BranchTaken,
    /// A conditional branch whose condition did not hold.
    BranchNotTaken,
    /// An indirect branch (`Switch`); the dynamic target is the event's
    /// block.
    Indirect,
    /// A procedure call; the block is the callee's entry.
    Call,
    /// A procedure return; the block is the caller's continuation.
    Return,
}

impl TransferKind {
    /// True for transfers produced by a conditional branch. Bit tracing
    /// shifts one history bit exactly for these.
    pub fn is_conditional(self) -> bool {
        matches!(
            self,
            TransferKind::BranchTaken | TransferKind::BranchNotTaken
        )
    }

    /// A compact tag used by trace encodings; inverse of [`from_tag`].
    ///
    /// [`from_tag`]: TransferKind::from_tag
    pub fn tag(self) -> u8 {
        match self {
            TransferKind::Start => 0,
            TransferKind::Jump => 1,
            TransferKind::BranchTaken => 2,
            TransferKind::BranchNotTaken => 3,
            TransferKind::Indirect => 4,
            TransferKind::Call => 5,
            TransferKind::Return => 6,
        }
    }

    /// Decodes a [`tag`](TransferKind::tag); returns `None` for invalid
    /// tags.
    pub fn from_tag(tag: u8) -> Option<Self> {
        Some(match tag {
            0 => TransferKind::Start,
            1 => TransferKind::Jump,
            2 => TransferKind::BranchTaken,
            3 => TransferKind::BranchNotTaken,
            4 => TransferKind::Indirect,
            5 => TransferKind::Call,
            6 => TransferKind::Return,
            _ => return None,
        })
    }
}

impl fmt::Display for TransferKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TransferKind::Start => "start",
            TransferKind::Jump => "jump",
            TransferKind::BranchTaken => "taken",
            TransferKind::BranchNotTaken => "not-taken",
            TransferKind::Indirect => "indirect",
            TransferKind::Call => "call",
            TransferKind::Return => "return",
        })
    }
}

/// One entry of the dynamic block stream: a block was entered.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BlockEvent {
    /// The block control came from; `None` for the first event.
    pub from: Option<BlockId>,
    /// The block being entered.
    pub block: BlockId,
    /// The kind of control transfer that led here.
    pub kind: TransferKind,
    /// True if the transfer was backward in the address layout (target
    /// address not greater than source address). Always `false` for
    /// [`TransferKind::Start`].
    pub backward: bool,
    /// Number of straight-line instructions plus terminator in the entered
    /// block; lets cost models account instructions without touching the
    /// program.
    pub block_size: u32,
}

/// Why one batched trace excursion ended.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TraceExitReason {
    /// The final step's terminator left the cache normally (no trace at
    /// the target).
    TraceEnd,
    /// A guard failed mid-trace: a conditional or indirect transfer left
    /// the predicted path.
    GuardFail,
    /// The excursion's block budget could not cover another traversal.
    /// When the budget was the run's or the slice's, control falls back to
    /// block-by-block interpretation so fuel exhaustion hits the exact
    /// same block as plain interpretation. When it was the per-excursion
    /// cap ([`EXCURSION_BLOCKS`](crate::EXCURSION_BLOCKS)), the target is
    /// a trace head and dispatch re-enters its trace straight away.
    Fuel,
    /// The program halted on a trace.
    Halt,
}

impl TraceExitReason {
    /// Stable snake_case tag, used in telemetry.
    pub fn as_str(self) -> &'static str {
        match self {
            TraceExitReason::TraceEnd => "trace_end",
            TraceExitReason::GuardFail => "guard_fail",
            TraceExitReason::Fuel => "fuel",
            TraceExitReason::Halt => "halt",
        }
    }
}

/// One batched pass through trace-land: everything that happened between
/// the VM dispatching into a compiled trace and control returning to the
/// interpreter (or the program halting).
///
/// This is the trace backend's replacement for per-block [`BlockEvent`]s:
/// the excursion's blocks produce *no* observer calls, only this summary.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TraceExcursion {
    /// Head block of the first trace entered.
    pub head: BlockId,
    /// Block the excursion exited from (`None` only if it never ran, which
    /// the dispatch loop prevents).
    pub from: Option<BlockId>,
    /// Block control transferred to. Meaningless when [`halted`] is set.
    ///
    /// [`halted`]: TraceExcursion::halted
    pub target: BlockId,
    /// How control reaches `target` (the exiting terminator's kind).
    pub kind: TransferKind,
    /// Whether the exit transfer is backward in the layout.
    pub backward: bool,
    /// Size of the target block (straight-line instructions plus
    /// terminator), mirroring [`BlockEvent::block_size`].
    pub target_size: u32,
    /// Why the excursion ended.
    pub reason: TraceExitReason,
    /// Blocks executed inside the excursion.
    pub blocks: u64,
    /// Instruction slots executed inside the excursion.
    pub insts: u64,
    /// Trace traversals started (1 without linking; each link transfer
    /// adds one).
    pub entries: u64,
    /// Trace-to-trace link transfers taken (patched or head-lookup).
    pub links: u64,
    /// Guards that failed. A failing guard ends the excursion unless its
    /// target is itself a trace head, in which case control chains there.
    pub guard_fails: u64,
    /// Guard checks *executed* inside the excursion: one per inline guard
    /// reached (branch, switch, or return guard) plus one per entry guard
    /// evaluated at trace entry or on a cross-trace chain. The trace
    /// optimizer exists to shrink this number.
    pub guard_execs: u64,
    /// The program halted inside the excursion.
    pub halted: bool,
}

/// A request from the profiling engine to the VM's trace backend, polled
/// by [`Vm::run_linked`](crate::Vm::run_linked) after every interpreted
/// block and every excursion.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TraceCommand {
    /// Compile the given block sequence (global ids, an executed path) and
    /// install it keyed by its first block. First install per head wins,
    /// exactly like the engine-side fragment cache.
    Install(Vec<u32>),
    /// Drop every compiled trace and sever all links.
    Flush,
}

/// Drives [`Vm::run_linked`](crate::Vm::run_linked): observes interpreted
/// blocks (as an [`ExecutionObserver`]), receives batched
/// [`TraceExcursion`]s, and feeds [`TraceCommand`]s back to the VM.
pub trait TraceController: ExecutionObserver {
    /// Called once per trace excursion, in place of the per-block events
    /// the excursion's blocks would have produced.
    fn on_trace_exit(&mut self, _excursion: &TraceExcursion) {}

    /// Polled repeatedly after each interpreted block and each excursion
    /// until it returns `None`.
    fn poll_command(&mut self) -> Option<TraceCommand> {
        None
    }
}

impl TraceController for NullObserver {}

/// A [`TraceController`] that replays a fixed command sequence, one
/// command per poll; useful for tests that script installs and flushes
/// without a profiling engine.
#[derive(Default, Debug)]
pub struct ScriptedController {
    commands: std::collections::VecDeque<TraceCommand>,
    /// Excursions received, in order.
    pub excursions: Vec<TraceExcursion>,
    /// Interpreted-block events received (traces produce none).
    pub interpreted: u64,
}

impl ScriptedController {
    /// A controller that will hand out `commands` one poll at a time.
    pub fn new(commands: Vec<TraceCommand>) -> Self {
        ScriptedController {
            commands: commands.into(),
            excursions: Vec::new(),
            interpreted: 0,
        }
    }

    /// Queues another command for a later poll.
    pub fn push(&mut self, command: TraceCommand) {
        self.commands.push_back(command);
    }
}

impl ExecutionObserver for ScriptedController {
    fn on_block(&mut self, _event: &BlockEvent) {
        self.interpreted += 1;
    }
}

impl TraceController for ScriptedController {
    fn on_trace_exit(&mut self, excursion: &TraceExcursion) {
        self.excursions.push(*excursion);
    }

    fn poll_command(&mut self) -> Option<TraceCommand> {
        self.commands.pop_front()
    }
}

/// Receives the dynamic block stream from a [`Vm`](crate::Vm) run.
///
/// Implementations must be cheap: `on_block` runs once per executed basic
/// block, i.e. tens of millions of times per experiment.
pub trait ExecutionObserver {
    /// Called for every basic block entered, including the entry block.
    fn on_block(&mut self, event: &BlockEvent);

    /// Called once when the program halts normally (not on errors).
    fn on_halt(&mut self) {}
}

/// An observer that ignores everything; useful for measuring raw VM
/// throughput.
#[derive(Clone, Copy, Default, Debug)]
pub struct NullObserver;

impl ExecutionObserver for NullObserver {
    #[inline]
    fn on_block(&mut self, _event: &BlockEvent) {}
}

impl<O: ExecutionObserver + ?Sized> ExecutionObserver for &mut O {
    #[inline]
    fn on_block(&mut self, event: &BlockEvent) {
        (**self).on_block(event);
    }

    fn on_halt(&mut self) {
        (**self).on_halt();
    }
}

/// Fans one event stream out to two observers.
#[derive(Debug)]
pub struct Tee<A, B>(pub A, pub B);

impl<A: ExecutionObserver, B: ExecutionObserver> ExecutionObserver for Tee<A, B> {
    #[inline]
    fn on_block(&mut self, event: &BlockEvent) {
        self.0.on_block(event);
        self.1.on_block(event);
    }

    fn on_halt(&mut self) {
        self.0.on_halt();
        self.1.on_halt();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_roundtrip() {
        for tag in 0..7u8 {
            let k = TransferKind::from_tag(tag).unwrap();
            assert_eq!(k.tag(), tag);
        }
        assert_eq!(TransferKind::from_tag(7), None);
    }

    #[test]
    fn conditional_classification() {
        assert!(TransferKind::BranchTaken.is_conditional());
        assert!(TransferKind::BranchNotTaken.is_conditional());
        assert!(!TransferKind::Jump.is_conditional());
        assert!(!TransferKind::Indirect.is_conditional());
    }

    #[test]
    fn tee_delivers_to_both() {
        #[derive(Default)]
        struct Count(u64);
        impl ExecutionObserver for Count {
            fn on_block(&mut self, _: &BlockEvent) {
                self.0 += 1;
            }
        }
        let mut tee = Tee(Count::default(), Count::default());
        let ev = BlockEvent {
            from: None,
            block: BlockId::new(0),
            kind: TransferKind::Start,
            backward: false,
            block_size: 1,
        };
        tee.on_block(&ev);
        tee.on_block(&ev);
        assert_eq!(tee.0 .0, 2);
        assert_eq!(tee.1 .0, 2);
    }
}
