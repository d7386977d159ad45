//! Compiled superblock traces with guard exits and fragment linking.
//!
//! When the Dynamo engine predicts a hot path, the block sequence is
//! *compiled* into a [`CompiledTrace`]: every block's straight-line
//! instructions are copied into one contiguous stream, local branch
//! targets are pre-resolved to global block ids, and each on-trace control
//! transfer becomes a [`EndOp`] guard that either falls through to the
//! next step or exits through a stub. Executing a trace touches no
//! per-block `FlatBlock` entry and makes no per-block observer call — the
//! whole excursion through trace-land is reported as one batched
//! [`TraceExcursion`](crate::TraceExcursion).
//!
//! Exits model Dynamo's *exit stubs*: a guard whose target turns out to be
//! another trace head is patched into a direct link (once), so hot loop
//! nests run trace→trace without ever returning to the dispatch loop.
//! Flushing the cache drops every trace and thereby severs all links.
//!
//! Installed traces live in one flat arena inside [`TraceCache`], and
//! [`run_excursion`] runs a whole excursion as one loop over its steps:
//! following a link moves the step cursor to the target trace's first
//! step, and counters are settled once per traversal (from per-step
//! cumulative tallies) and once per excursion.
//!
//! Bit-identity with plain interpretation is load-bearing: `RunStats`,
//! memory, globals, and error behavior must be indistinguishable from
//! [`Vm::run`](crate::Vm::run) with a `NullObserver`. Terminator counters
//! (`cond_branches`, `indirect_branches`, `calls`) increment when the
//! terminator executes regardless of where it lands; `backward_transfers`
//! increments when the *entered* block's incoming edge is backward, with
//! on-trace edge backwardness precomputed at compile time.

use hotpath_faultinject::{FaultInjector, FaultPoint};
use hotpath_ir::{BlockId, GlobalReg, Inst, Layout, Terminator};
use hotpath_telemetry as telemetry;

use crate::error::VmError;
use crate::event::{BlockEvent, TraceExcursion, TraceExitReason, TransferKind};
use crate::opt::{exec_op, fused_compare, MicroOp};
use crate::vm::{exec_inst, CallFrame, FlatBlock, RunStats};

/// Sentinel for "no trace here" / "link not patched".
const NONE: u32 = u32::MAX;

/// Set in a link (see [`TraceHeader::link`]) whose target trace has
/// hoisted entry guards.
const GUARDED: u32 = 1 << 31;

/// Guard/terminator operation ending one trace step.
///
/// `*Next` variants belong to non-final steps: the expected successor is
/// the next step of the same trace, and a mismatch exits through the
/// recorded stub. `*Exit` variants belong to the final step, whose
/// terminator always leaves the trace (possibly straight into another —
/// that is what linking patches).
#[derive(Clone, Copy, Debug)]
pub(crate) enum EndOp {
    /// Unconditional jump whose target is the next step (verified at
    /// compile time); no runtime guard.
    Next,
    /// Conditional branch; the `expect_taken` arm is the next step, the
    /// other arm exits to the pre-resolved `fail_target`.
    BranchNext {
        cond: u16,
        expect_taken: bool,
        fail_target: u32,
        fail_backward: bool,
    },
    /// Indirect branch; the computed target must be the next step's block.
    /// The case targets are `targets..targets + arms` in the owning
    /// trace's (once installed, the cache's) target pool.
    SwitchNext {
        index: u16,
        targets: u32,
        arms: u32,
        default: u32,
    },
    /// Call whose callee entry is the next step; pushes a frame with the
    /// pre-resolved return continuation and opens the callee's register
    /// window.
    CallNext { ret_global: u32, callee_regs: u32 },
    /// Return whose continuation must be the next step's block.
    ReturnNext,
    /// Final step: unconditional jump out of the trace.
    JumpExit { target: u32, backward: bool },
    /// Final step: conditional branch out of the trace (either arm).
    BranchExit {
        cond: u16,
        taken: u32,
        taken_backward: bool,
        fallthrough: u32,
        fallthrough_backward: bool,
    },
    /// Final step: indirect branch out of the trace; targets as in
    /// [`EndOp::SwitchNext`].
    SwitchExit {
        index: u16,
        targets: u32,
        arms: u32,
        default: u32,
    },
    /// Final step: call out of the trace (the callee entry is the exit
    /// target).
    CallExit {
        ret_global: u32,
        callee_regs: u32,
        target: u32,
        backward: bool,
    },
    /// Final step: return out of the trace (dynamic target).
    ReturnExit,
    /// Final step: the program halts inside the trace.
    HaltExit,
}

/// One step of a compiled trace: originally one block; after the
/// optimizer's merge pass, possibly a whole straight-line group of
/// blocks executed under a single accounting prologue.
///
/// The fields a traversal reads at every step come first (`repr(C)`), so
/// they share a cache line.
#[repr(C)]
#[derive(Clone, Debug)]
pub(crate) struct TraceStep {
    /// Range of this step's straight-line instructions inside
    /// [`CompiledTrace::insts`] (and, once predecoded, the identical
    /// range inside [`CompiledTrace::ops`]). Once installed, the range
    /// indexes the cache's `ops` when `threaded`, its `insts` otherwise.
    pub(crate) inst_start: u32,
    pub(crate) inst_end: u32,
    /// The guard/terminator ending this step.
    pub(crate) end: EndOp,
    /// Global id of the step's *last* block — the one whose terminator
    /// is `end` (error attribution, exit bookkeeping).
    pub(crate) block: u32,
    /// Global id of the step's *first* block — what a preceding guard
    /// compares a dynamic target against. Equals `block` until merging.
    pub(crate) entry: u32,
    /// Whether the step runs predecoded micro-ops (set at install).
    pub(crate) threaded: bool,
    /// Whether the step's conditional end op evaluates the compare that
    /// feeds it itself: the compare is the micro-op just past the step's
    /// range (see [`fused_compare`]).
    pub(crate) fused: bool,
    /// Backwardness of the on-trace edge into the next step; `false` on
    /// the final step.
    pub(crate) next_backward: bool,
    /// Patched links for this step's up-to-two statically-known exit
    /// targets ([`NONE`] = unpatched): the branch-fail stub or the final
    /// jump/call/branch-taken target uses `link_a`, the final
    /// branch-fallthrough target uses `link_b`. A link holds the target
    /// trace's [`TraceHeader::link`].
    pub(crate) link_a: u32,
    pub(crate) link_b: u32,
    /// Exit stub: range into [`CompiledTrace::stubs`] of the constants
    /// to materialize when a traversal leaves the trace at this step.
    pub(crate) stub_start: u32,
    pub(crate) stub_end: u32,
    /// Original straight-line instructions plus terminators of every
    /// block in the step (drives `insts_executed`; the optimizer may
    /// execute fewer).
    pub(crate) size: u32,
    /// Owning function index (callers' frames record it).
    pub(crate) func: u32,
    /// Blocks this step accounts for (1 until merging).
    pub(crate) d_blocks: u32,
    /// Conditional branches executed by the step *besides* its own end
    /// op — guards the optimizer elided or hoisted, whose `cond_branches`
    /// accounting must survive.
    pub(crate) d_cond: u32,
    /// Backward transfers on intra-step edges (merged-away `Next` edges
    /// that were backward).
    pub(crate) d_backward: u32,
}

/// Counts toward `RunStats` and an excursion's guard executions.
///
/// Each installed step carries one: what a traversal has counted by the
/// time it leaves its trace at that step — sums over the trace's steps
/// up to and including it of their blocks, instruction slots, `d_*`
/// deltas, on-trace backward edges, and every end op reached (passed
/// guards and the leaving op alike). Only the traversal's entry edge is
/// added at run time. An excursion sums the tallies of its traversals.
#[derive(Clone, Copy, Default, Debug)]
struct Tally {
    blocks: u64,
    insts: u64,
    cond: u64,
    indirect: u64,
    calls: u64,
    backward: u64,
    guards: u64,
}

impl Tally {
    /// What `step` counts before its code runs.
    fn prologue(step: &TraceStep, entered_backward: bool) -> Tally {
        Tally {
            blocks: u64::from(step.d_blocks),
            insts: u64::from(step.size),
            cond: u64::from(step.d_cond),
            backward: u64::from(step.d_backward) + u64::from(entered_backward),
            ..Tally::default()
        }
    }

    /// What `step`'s end op counts once reached.
    fn end_op(step: &TraceStep) -> Tally {
        let mut t = Tally::default();
        match step.end {
            EndOp::BranchNext { .. } => (t.cond, t.guards) = (1, 1),
            EndOp::SwitchNext { .. } => (t.indirect, t.guards) = (1, 1),
            EndOp::ReturnNext => t.guards = 1,
            EndOp::BranchExit { .. } => t.cond = 1,
            EndOp::SwitchExit { .. } => t.indirect = 1,
            EndOp::CallNext { .. } | EndOp::CallExit { .. } => t.calls = 1,
            EndOp::Next | EndOp::JumpExit { .. } | EndOp::ReturnExit | EndOp::HaltExit => {}
        }
        t
    }

    /// What a traversal counted before failing inside step `si` of the
    /// trace whose first step is `first`: the steps before it, and what
    /// the failing step counted up front.
    #[cold]
    fn partial(cache: &TraceCache, first: usize, si: usize) -> Tally {
        let (before, into) = if si > first {
            (cache.tallies[si - 1], cache.steps[si - 1].next_backward)
        } else {
            (Tally::default(), false)
        };
        before.add(Tally::prologue(&cache.steps[si], into))
    }

    fn add(self, o: Tally) -> Tally {
        Tally {
            blocks: self.blocks + o.blocks,
            insts: self.insts + o.insts,
            cond: self.cond + o.cond,
            indirect: self.indirect + o.indirect,
            calls: self.calls + o.calls,
            backward: self.backward + o.backward,
            guards: self.guards + o.guards,
        }
    }
}

/// Which static link slot an exit goes through.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Slot {
    /// No slot: a dynamic (switch/return) or injected exit.
    None,
    A,
    B,
}

/// A loop-invariant guard hoisted to the trace entry: entry (from the
/// dispatcher or a cross-trace chain) requires
/// `(regs[frame_base + reg] != 0) == expect`; a failing check refuses
/// entry exactly as if no trace were installed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct EntryGuard {
    /// Frame-relative register the guard tests.
    pub(crate) reg: u16,
    /// Required truthiness.
    pub(crate) expect: bool,
}

/// A predicted hot path compiled for direct execution: the unit the
/// compiler and optimizer work on. [`TraceCache::install`] moves it into
/// the cache's arena.
#[derive(Clone, Debug)]
pub(crate) struct CompiledTrace {
    pub(crate) head: u32,
    /// Original block count (fuel prechecks must count blocks, not
    /// post-merge steps).
    pub(crate) blocks: u32,
    pub(crate) steps: Vec<TraceStep>,
    /// All steps' straight-line instructions, contiguous.
    pub(crate) insts: Vec<Inst>,
    /// Predecoded direct-threaded stream, 1:1 with `insts`; empty until
    /// the optimizer's thread pass runs, in which case it is executed
    /// instead of `insts`.
    pub(crate) ops: Vec<MicroOp>,
    /// Sunk-constant pool for per-step exit stubs (`(reg, value)`
    /// pairs); see [`TraceStep::stub_start`].
    pub(crate) stubs: Vec<(u16, i64)>,
    /// Hoisted loop-invariant guards, checked at entry.
    pub(crate) entry_guards: Vec<EntryGuard>,
    /// Case-target pool of the steps' switch ops.
    pub(crate) targets: Vec<u32>,
}

impl CompiledTrace {
    /// The case targets of a switch op's `targets`/`arms` range.
    pub(crate) fn arms(&self, targets: u32, arms: u32) -> &[u32] {
        &self.targets[targets as usize..(targets + arms) as usize]
    }
}

/// Read-only view of a [`Vm`](crate::Vm)'s flattened program, enough to
/// compile traces.
pub(crate) struct ProgramView<'a> {
    pub(crate) flat: &'a [FlatBlock],
    pub(crate) insts: &'a [Inst],
    pub(crate) terms: &'a [Terminator],
    pub(crate) layout: &'a Layout,
    pub(crate) num_regs: &'a [u32],
}

/// Compiles an executed block sequence into a trace.
///
/// Returns `None` when the sequence cannot have been a single executed
/// path (a terminator cannot reach the recorded successor, or a halt
/// appears before the end) — installs are driven by observed executions,
/// so this is defensive, not expected.
pub(crate) fn compile_trace(view: &ProgramView<'_>, blocks: &[u32]) -> Option<CompiledTrace> {
    if blocks.is_empty() {
        return None;
    }
    let mut steps = Vec::with_capacity(blocks.len());
    let mut insts: Vec<Inst> = Vec::new();
    let mut pool: Vec<u32> = Vec::new();
    for (i, &b) in blocks.iter().enumerate() {
        let fb = view.flat.get(b as usize)?;
        let inst_start = insts.len() as u32;
        insts.extend_from_slice(&view.insts[fb.inst_start as usize..fb.inst_end as usize]);
        let inst_end = insts.len() as u32;
        let next = blocks.get(i + 1).copied();
        let from = BlockId::new(b);
        let is_back = |to: u32| view.layout.is_backward(from, BlockId::new(to));
        let (end, next_backward) = match (&view.terms[b as usize], next) {
            (Terminator::Jump(t), next) => {
                let target = fb.func_base + t.index() as u32;
                match next {
                    Some(n) if n == target => (EndOp::Next, is_back(n)),
                    Some(_) => return None,
                    None => (
                        EndOp::JumpExit {
                            target,
                            backward: is_back(target),
                        },
                        false,
                    ),
                }
            }
            (
                Terminator::Branch {
                    cond,
                    taken,
                    fallthrough,
                },
                next,
            ) => {
                let tk = fb.func_base + taken.index() as u32;
                let ft = fb.func_base + fallthrough.index() as u32;
                let cond = cond.index() as u16;
                match next {
                    Some(n) => {
                        let expect_taken = if n == tk {
                            true
                        } else if n == ft {
                            false
                        } else {
                            return None;
                        };
                        let fail_target = if expect_taken { ft } else { tk };
                        (
                            EndOp::BranchNext {
                                cond,
                                expect_taken,
                                fail_target,
                                fail_backward: is_back(fail_target),
                            },
                            is_back(n),
                        )
                    }
                    None => (
                        EndOp::BranchExit {
                            cond,
                            taken: tk,
                            taken_backward: is_back(tk),
                            fallthrough: ft,
                            fallthrough_backward: is_back(ft),
                        },
                        false,
                    ),
                }
            }
            (
                Terminator::Switch {
                    index,
                    targets,
                    default,
                },
                next,
            ) => {
                let first = pool.len() as u32;
                pool.extend(targets.iter().map(|t| fb.func_base + t.index() as u32));
                let cases = &pool[first as usize..];
                let arms = cases.len() as u32;
                let default = fb.func_base + default.index() as u32;
                let index = index.index() as u16;
                match next {
                    Some(n) => {
                        // The recorded successor must be reachable at all.
                        if n != default && !cases.contains(&n) {
                            return None;
                        }
                        (
                            EndOp::SwitchNext {
                                index,
                                targets: first,
                                arms,
                                default,
                            },
                            is_back(n),
                        )
                    }
                    None => (
                        EndOp::SwitchExit {
                            index,
                            targets: first,
                            arms,
                            default,
                        },
                        false,
                    ),
                }
            }
            (Terminator::Call { callee, ret_to }, next) => {
                let target = view.layout.func_entry(*callee).as_u32();
                let ret_global = fb.func_base + ret_to.index() as u32;
                let callee_regs = view.num_regs[callee.index()];
                match next {
                    Some(n) if n == target => (
                        EndOp::CallNext {
                            ret_global,
                            callee_regs,
                        },
                        is_back(n),
                    ),
                    Some(_) => return None,
                    None => (
                        EndOp::CallExit {
                            ret_global,
                            callee_regs,
                            target,
                            backward: is_back(target),
                        },
                        false,
                    ),
                }
            }
            (Terminator::Return, next) => match next {
                // The continuation is only known dynamically; guard it.
                Some(_) => (EndOp::ReturnNext, false),
                None => (EndOp::ReturnExit, false),
            },
            (Terminator::Halt, Some(_)) => return None,
            (Terminator::Halt, None) => (EndOp::HaltExit, false),
        };
        // A return into the next step: its backwardness depends on the
        // dynamic continuation; when the guard passes, the continuation IS
        // the next block, so precompute against it.
        let next_backward = match (&end, next) {
            (EndOp::ReturnNext, Some(n)) => is_back(n),
            _ => next_backward,
        };
        steps.push(TraceStep {
            inst_start,
            inst_end,
            block: b,
            entry: b,
            size: fb.size,
            func: fb.func,
            next_backward,
            threaded: false,
            fused: false,
            end,
            link_a: NONE,
            link_b: NONE,
            d_blocks: 1,
            d_cond: 0,
            d_backward: 0,
            stub_start: 0,
            stub_end: 0,
        });
    }
    Some(CompiledTrace {
        head: blocks[0],
        blocks: blocks.len() as u32,
        steps,
        insts,
        ops: Vec::new(),
        stubs: Vec::new(),
        entry_guards: Vec::new(),
        targets: pool,
    })
}

/// An installed trace's header in the cache's arena.
#[derive(Clone, Copy, Debug)]
struct TraceHeader {
    head: u32,
    /// Original block count: what one traversal costs in fuel.
    blocks: u32,
    /// The trace's first step in [`TraceCache::steps`]; its steps are
    /// contiguous and the last one ends in an `*Exit` op.
    first_step: u32,
    /// The trace's hoisted entry guards in [`TraceCache::guards`].
    guards_start: u32,
    guards_end: u32,
    /// What a link into this trace holds: `first_step`, with [`GUARDED`]
    /// set when the trace has entry guards. A chain moves the step
    /// cursor there without reading the header unless the bit is set.
    link: u32,
}

/// The VM-side trace cache: one trace per head block (the primary
/// fragment; tail fragments live at their own heads), all held in one
/// flat arena.
///
/// Installing a trace appends its steps, code, stubs, entry guards and
/// switch targets to shared vectors and rebases the step ranges, so
/// running a trace — and chaining into another — only moves a step
/// cursor through one `steps` vector. A flush clears the vectors and
/// keeps their capacity.
#[derive(Debug)]
pub(crate) struct TraceCache {
    traces: Vec<TraceHeader>,
    steps: Vec<TraceStep>,
    /// Per step, what leaving the trace there adds (parallel to `steps`).
    tallies: Vec<Tally>,
    /// Straight-line code of unthreaded steps.
    insts: Vec<Inst>,
    /// Predecoded code of threaded steps.
    ops: Vec<MicroOp>,
    stubs: Vec<(u16, i64)>,
    guards: Vec<EntryGuard>,
    targets: Vec<u32>,
    /// Trace id per head block ([`NONE`] = no trace), indexed by global
    /// block id.
    at_head: Vec<u32>,
    /// The largest block count of an installed trace: an excursion that
    /// has that many blocks of budget left can chain into any trace
    /// without reading the target's header.
    longest_trace: u32,
    /// Links currently patched (for `LinkSevered` accounting on flush).
    patched_links: u64,
    /// Heads blacklisted after a trace panicked there; installs at a
    /// poisoned head are refused for the rest of the run (flushes do not
    /// forgive).
    poisoned: Vec<bool>,
}

impl TraceCache {
    pub(crate) fn new(block_count: usize) -> Self {
        TraceCache {
            traces: Vec::new(),
            steps: Vec::new(),
            tallies: Vec::new(),
            insts: Vec::new(),
            ops: Vec::new(),
            stubs: Vec::new(),
            guards: Vec::new(),
            targets: Vec::new(),
            at_head: vec![NONE; block_count],
            longest_trace: 0,
            patched_links: 0,
            poisoned: vec![false; block_count],
        }
    }

    /// The trace anchored at `block`, if any.
    #[inline]
    pub(crate) fn entry(&self, block: u32) -> Option<u32> {
        match self.at_head[block as usize] {
            NONE => None,
            tid => Some(tid),
        }
    }

    #[inline]
    pub(crate) fn trace_len(&self, tid: u32) -> usize {
        self.traces[tid as usize].blocks as usize
    }

    /// Whether `tid`'s hoisted entry guards all pass in the current
    /// register frame. A failing guard means the trace would divert
    /// off-path mid-traversal, so entering is pointless — the dispatcher
    /// treats the head as uncached and interprets instead (re-checking at
    /// the next dispatch, since the registers may have changed by then).
    #[inline]
    pub(crate) fn entry_ok(&self, tid: u32, regs: &[i64], frame_base: usize) -> bool {
        self.guards_hold(&self.traces[tid as usize], &regs[frame_base..])
    }

    /// Whether every hoisted entry guard of `t` holds in `frame`.
    #[inline]
    fn guards_hold(&self, t: &TraceHeader, frame: &[i64]) -> bool {
        self.guards[t.guards_start as usize..t.guards_end as usize]
            .iter()
            .all(|g| (frame[g.reg as usize] != 0) == g.expect)
    }

    /// Installs a compiled trace; the first trace at a head wins (exactly
    /// like the engine-side `FragmentCache`'s primary fragment). Installs
    /// at a poisoned head are refused.
    pub(crate) fn install(&mut self, trace: CompiledTrace) -> bool {
        let head = trace.head as usize;
        if self.at_head[head] != NONE || self.poisoned[head] {
            return false;
        }
        let threaded = !trace.ops.is_empty();
        let code = if threaded {
            self.ops.len()
        } else {
            self.insts.len()
        } as u32;
        let stubs = self.stubs.len() as u32;
        let targets = self.targets.len() as u32;
        let guards_start = self.guards.len() as u32;
        let first_step = self.steps.len() as u32;
        assert!(
            first_step < GUARDED,
            "step index collides with the link flag"
        );
        let guarded = if trace.entry_guards.is_empty() {
            0
        } else {
            GUARDED
        };
        self.at_head[head] = self.traces.len() as u32;
        self.longest_trace = self.longest_trace.max(trace.blocks);
        self.traces.push(TraceHeader {
            head: trace.head,
            blocks: trace.blocks,
            first_step,
            guards_start,
            guards_end: guards_start + trace.entry_guards.len() as u32,
            link: first_step | guarded,
        });
        let mut sum = Tally::default();
        let mut entered_backward = false;
        for step in &trace.steps {
            sum = sum
                .add(Tally::prologue(step, entered_backward))
                .add(Tally::end_op(step));
            self.tallies.push(sum);
            entered_backward = step.next_backward;
        }
        self.steps.extend(trace.steps.into_iter().map(|mut step| {
            step.threaded = threaded;
            step.inst_start += code;
            step.inst_end += code;
            step.stub_start += stubs;
            step.stub_end += stubs;
            if let EndOp::SwitchNext { targets: t, .. } | EndOp::SwitchExit { targets: t, .. } =
                &mut step.end
            {
                *t += targets;
            }
            step
        }));
        if threaded {
            self.ops.extend_from_slice(&trace.ops);
        } else {
            self.insts.extend_from_slice(&trace.insts);
        }
        self.stubs.extend_from_slice(&trace.stubs);
        self.guards.extend_from_slice(&trace.entry_guards);
        self.targets.extend_from_slice(&trace.targets);
        true
    }

    /// Drops every trace, severing all patched links; returns how many
    /// links were severed. Poisoned heads stay poisoned.
    pub(crate) fn flush(&mut self) -> u64 {
        self.traces.clear();
        self.steps.clear();
        self.tallies.clear();
        self.insts.clear();
        self.ops.clear();
        self.stubs.clear();
        self.guards.clear();
        self.targets.clear();
        self.at_head.fill(NONE);
        self.longest_trace = 0;
        std::mem::take(&mut self.patched_links)
    }

    /// Blacklists `head` after a trace panicked there, then flushes: the
    /// panicking trace must never run again, and any trace that may have
    /// linked into it must not reach it either. Returns severed links.
    pub(crate) fn poison(&mut self, head: u32) -> u64 {
        self.poisoned[head as usize] = true;
        self.flush()
    }

    /// How many heads are blacklisted after trace panics.
    pub(crate) fn poisoned_heads(&self) -> u64 {
        self.poisoned.iter().filter(|&&p| p).count() as u64
    }

    /// The header of the trace anchored at `block`, if any.
    #[inline]
    fn at(&self, block: u32) -> Option<&TraceHeader> {
        self.traces.get(self.at_head[block as usize] as usize)
    }

    /// Patches a static exit stub of arena step `si` to transfer directly
    /// into the trace headed at `to_head`, whose header's link is `link`.
    fn patch(&mut self, si: usize, slot: Slot, link: u32, to_head: u32) {
        let step = &mut self.steps[si];
        let cell = match slot {
            Slot::A => &mut step.link_a,
            Slot::B => &mut step.link_b,
            Slot::None => unreachable!("dynamic exits have no stub to patch"),
        };
        debug_assert_eq!(*cell, NONE, "patching an already-linked stub");
        *cell = link;
        let from = step.block;
        self.patched_links += 1;
        telemetry::emit!(telemetry::Event::LinkPatched { from, to: to_head });
    }
}

/// Machine state and limits an excursion works on, borrowed from the
/// dispatcher.
pub(crate) struct Machine<'a> {
    pub(crate) memory: &'a mut [i64],
    pub(crate) globals: &'a mut [i64; GlobalReg::COUNT],
    pub(crate) regs: &'a mut Vec<i64>,
    pub(crate) frames: &'a mut Vec<CallFrame>,
    pub(crate) frame_base: &'a mut usize,
    /// The run's counts; an excursion adds its own once, at exit.
    pub(crate) stats: &'a mut RunStats,
    pub(crate) faults: &'a mut FaultInjector,
    /// Block budget (the slice's or the run's): a traversal starts only
    /// when all its blocks fit.
    pub(crate) max_blocks: u64,
    pub(crate) max_call_depth: usize,
}

/// Panic payload for an injected [`FaultPoint::TracePanic`]; carries the
/// head so a catcher could attribute it (the dispatch loop recovers on
/// *any* payload and does not inspect it).
pub(crate) struct InjectedTracePanic {
    #[allow(dead_code)]
    pub(crate) head: u32,
}

/// Draws the spurious-guard-failure fault: true means "pretend this
/// passing guard failed". Emits the injection event before returning.
#[inline]
fn spurious_guard(faults: &mut FaultInjector, at_block: u64) -> bool {
    if faults.fire(FaultPoint::GuardFail) {
        telemetry::emit!(telemetry::Event::FaultInjected {
            point: "guard_fail",
            at_block,
        });
        return true;
    }
    false
}

/// Whether a transfer from block `from` to block `to` is backward in
/// the program's [`Layout`]. The layout places blocks at strictly
/// increasing addresses in global id order (every block holds at least
/// its terminator), so comparing ids answers [`Layout::is_backward`]
/// without its two address lookups.
#[inline]
fn backward(from: u32, to: u32) -> bool {
    to <= from
}

/// The switch target for index value `v`, exactly as the interpreter
/// picks it.
#[inline]
fn switch_target(cases: &[u32], v: i64, default: u32) -> u32 {
    usize::try_from(v)
        .ok()
        .and_then(|i| cases.get(i).copied())
        .unwrap_or(default)
}

/// Executes one whole excursion through trace-land, starting at trace
/// `start`, chasing links until control leaves the cache (or the program
/// halts, or fuel denies the next traversal), mirroring the interpreter's
/// semantics exactly. `entry` is the event that announced the start
/// trace's head.
///
/// One loop moves a step cursor through the cache's arena. A guard that
/// passes advances the cursor; leaving a trace at a step resolves the
/// target (patched link, else head lookup) and either points the cursor
/// at the target trace's first step or ends the excursion. Steps do no
/// accounting: leaving a trace adds the leaving step's [`Tally`], and the
/// totals reach the run's stats and the returned [`TraceExcursion`]
/// once, at the end. A patched link holds the target's first step, so a
/// chain reads the target's header only when the target has entry guards
/// or the budget runs low.
///
/// Fault injection: after a guard *passes*, [`FaultPoint::GuardFail`] may
/// fire; the trace is then left toward the block it would have continued
/// at (the correct next step), with the passing transfer kind — so the
/// interpreter resumes at exactly the right block and bit-identity is
/// preserved while the exit machinery takes the adversarial path.
///
/// The excursion is written to `exit`, with `target_size` 0: the
/// caller, which owns the program, fills it in.
///
/// # Errors
///
/// Exactly the interpreter's errors. The run's stats then hold what
/// plain interpretation would have counted up to the failing block.
///
/// # Panics
///
/// Panics (via `panic_any`) when the injector's
/// [`FaultPoint::TracePanic`] fires — deliberately *before* any step
/// executes, so the dispatch loop's `catch_unwind` recovers with program
/// state exactly as it was at dispatch.
pub(crate) fn run_excursion(
    cache: &mut TraceCache,
    start: u32,
    entry: &BlockEvent,
    m: &mut Machine<'_>,
    exit: &mut TraceExcursion,
) -> Result<(), VmError> {
    let hdr = cache.traces[start as usize];
    let head = hdr.head;
    let armed = m.faults.armed();
    if armed && m.faults.fire(FaultPoint::TracePanic) {
        telemetry::emit!(telemetry::Event::FaultInjected {
            point: "trace_panic",
            at_block: m.stats.blocks_executed,
        });
        std::panic::panic_any(InjectedTracePanic { head });
    }
    // No recorder can come or go while the excursion runs.
    let recording = telemetry::enabled();
    // The run's count before the excursion; `m.stats` takes the
    // excursion's counts at the end.
    let base = m.stats.blocks_executed;
    // Fuel: a traversal is entered only when all its blocks fit, so
    // `OutOfFuel` fires at exactly the block a plain interpretation
    // would have stopped at. The dispatcher checked the first traversal;
    // while at most `roomy` blocks are done, any trace fits.
    let budget = m.max_blocks.saturating_sub(base);
    debug_assert!(u64::from(hdr.blocks) <= budget, "dispatch prechecks fuel");
    let roomy = budget.saturating_sub(u64::from(cache.longest_trace));
    // What the traversals that have left their trace so far counted.
    // The dispatcher already checked `start`'s entry guards; count them.
    let mut done = Tally {
        guards: u64::from(hdr.guards_end - hdr.guards_start),
        ..Tally::default()
    };
    let mut max_depth = m.stats.max_call_depth;
    let (mut links, mut guard_fails) = (0u64, 0u64);
    let mut in_backward = entry.backward;
    let mut frame: &mut [i64] = &mut m.regs[*m.frame_base..];
    // The current trace's first step, and the step running.
    let mut first = hdr.first_step as usize;
    let mut si = first;

    // The loop ends with where control goes: `(target, kind, backward,
    // reason)`.
    let end: Result<(u32, TransferKind, bool, TraceExitReason), VmError> = 'run: loop {
        // Run steps until one leaves the trace: `(target, kind, backward,
        // guard failed, static link slot, its link)`.
        let (target, kind, to_backward, fail, slot, link) = loop {
            let step = &cache.steps[si];
            let code = step.inst_start as usize..step.inst_end as usize;
            let ran = if step.threaded {
                cache.ops[code]
                    .iter()
                    .try_for_each(|op| exec_op(op, frame, m.memory, m.globals))
            } else {
                let block_id = BlockId::new(step.block);
                cache.insts[code]
                    .iter()
                    .try_for_each(|inst| exec_inst(inst, frame, m.memory, m.globals, block_id))
            };
            if let Err(e) = ran {
                break 'run Err(e);
            }
            match step.end {
                EndOp::Next => {}
                EndOp::BranchNext {
                    cond,
                    expect_taken,
                    fail_target,
                    fail_backward,
                } => {
                    let taken = if step.fused {
                        fused_compare(&cache.ops[step.inst_end as usize], frame)
                    } else {
                        frame[cond as usize] != 0
                    };
                    let kind = if taken {
                        TransferKind::BranchTaken
                    } else {
                        TransferKind::BranchNotTaken
                    };
                    if taken != expect_taken {
                        break (fail_target, kind, fail_backward, true, Slot::A, step.link_a);
                    }
                    if armed
                        && spurious_guard(m.faults, base + done.blocks + cache.tallies[si].blocks)
                    {
                        let next = cache.steps[si + 1].entry;
                        break (next, kind, step.next_backward, true, Slot::None, NONE);
                    }
                }
                EndOp::SwitchNext {
                    index,
                    targets,
                    arms,
                    default,
                } => {
                    let cases = &cache.targets[targets as usize..(targets + arms) as usize];
                    let t = switch_target(cases, frame[index as usize], default);
                    if t != cache.steps[si + 1].entry {
                        let back = backward(step.block, t);
                        break (t, TransferKind::Indirect, back, true, Slot::None, NONE);
                    }
                    if armed
                        && spurious_guard(m.faults, base + done.blocks + cache.tallies[si].blocks)
                    {
                        let back = step.next_backward;
                        break (t, TransferKind::Indirect, back, true, Slot::None, NONE);
                    }
                }
                EndOp::CallNext {
                    ret_global,
                    callee_regs,
                } => {
                    if let Err(e) = call(m, ret_global, callee_regs, step.func) {
                        break 'run Err(e);
                    }
                    max_depth = max_depth.max(m.frames.len());
                    frame = &mut m.regs[*m.frame_base..];
                }
                EndOp::ReturnNext => {
                    let Some(t) = ret(m) else {
                        break 'run Err(VmError::ReturnWithoutCaller {
                            block: BlockId::new(step.block),
                        });
                    };
                    frame = &mut m.regs[*m.frame_base..];
                    if t != cache.steps[si + 1].entry {
                        let back = backward(step.block, t);
                        break (t, TransferKind::Return, back, true, Slot::None, NONE);
                    }
                    if armed
                        && spurious_guard(m.faults, base + done.blocks + cache.tallies[si].blocks)
                    {
                        let back = step.next_backward;
                        break (t, TransferKind::Return, back, true, Slot::None, NONE);
                    }
                }
                EndOp::JumpExit { target, backward } => {
                    break (
                        target,
                        TransferKind::Jump,
                        backward,
                        false,
                        Slot::A,
                        step.link_a,
                    );
                }
                EndOp::BranchExit {
                    cond,
                    taken,
                    taken_backward,
                    fallthrough,
                    fallthrough_backward,
                } => {
                    let holds = if step.fused {
                        fused_compare(&cache.ops[step.inst_end as usize], frame)
                    } else {
                        frame[cond as usize] != 0
                    };
                    break if holds {
                        let kind = TransferKind::BranchTaken;
                        (taken, kind, taken_backward, false, Slot::A, step.link_a)
                    } else {
                        let kind = TransferKind::BranchNotTaken;
                        let back = fallthrough_backward;
                        (fallthrough, kind, back, false, Slot::B, step.link_b)
                    };
                }
                EndOp::SwitchExit {
                    index,
                    targets,
                    arms,
                    default,
                } => {
                    let cases = &cache.targets[targets as usize..(targets + arms) as usize];
                    let t = switch_target(cases, frame[index as usize], default);
                    let back = backward(step.block, t);
                    break (t, TransferKind::Indirect, back, false, Slot::None, NONE);
                }
                EndOp::CallExit {
                    ret_global,
                    callee_regs,
                    target,
                    backward,
                } => {
                    if let Err(e) = call(m, ret_global, callee_regs, step.func) {
                        break 'run Err(e);
                    }
                    max_depth = max_depth.max(m.frames.len());
                    frame = &mut m.regs[*m.frame_base..];
                    break (
                        target,
                        TransferKind::Call,
                        backward,
                        false,
                        Slot::A,
                        step.link_a,
                    );
                }
                EndOp::ReturnExit => {
                    let Some(t) = ret(m) else {
                        break 'run Err(VmError::ReturnWithoutCaller {
                            block: BlockId::new(step.block),
                        });
                    };
                    frame = &mut m.regs[*m.frame_base..];
                    let back = backward(step.block, t);
                    break (t, TransferKind::Return, back, false, Slot::None, NONE);
                }
                EndOp::HaltExit => {
                    // Halting keeps the excursion's entry transfer.
                    break (
                        step.block,
                        entry.kind,
                        entry.backward,
                        false,
                        Slot::None,
                        NONE,
                    );
                }
            }
            si += 1;
        };

        // Leaving the trace at step `si` (including a chain into another
        // trace or back into this one).
        done = done.add(cache.tallies[si]);
        done.backward += u64::from(in_backward);
        let step = &cache.steps[si];
        // Materialize the constants sunk out of the executed prefix, so
        // the register frame is exactly what block-by-block
        // interpretation would have produced. Only call-free traces sink
        // constants, so `frame` is still the frame the trace ran in.
        // Error paths skip this — registers are unobservable after a
        // `VmError`.
        for &(r, v) in &cache.stubs[step.stub_start as usize..step.stub_end as usize] {
            frame[r as usize] = v;
        }
        if fail {
            guard_fails += 1;
            if recording {
                telemetry::emit!(telemetry::Event::GuardFail {
                    block: step.block,
                    target,
                    at_block: base + done.blocks,
                });
            }
        }
        let reason = if fail {
            TraceExitReason::GuardFail
        } else {
            TraceExitReason::TraceEnd
        };
        let next = if link != NONE {
            link
        } else if matches!(step.end, EndOp::HaltExit) {
            break 'run Ok((step.block, kind, to_backward, TraceExitReason::Halt));
        } else if let Some(h) = cache.at(target) {
            h.link
        } else {
            break 'run Ok((target, kind, to_backward, reason));
        };
        let next_first = (next & !GUARDED) as usize;
        // Chaining into a *different* trace must re-establish that
        // trace's hoisted entry guards; the register frame here is
        // whatever this traversal left behind, not what the dispatcher
        // checked at excursion start. Self-chains skip the check: the
        // traversal just proved every hoisted guard on the invariant
        // registers it never writes. On failure, fall back to the
        // interpreter at the target's head, leaving the link unpatched —
        // a link that did not transfer control was never taken.
        if next & GUARDED != 0 && next_first != first {
            let to = cache.at(target).expect("a link targets an installed head");
            done.guards += u64::from(to.guards_end - to.guards_start);
            if !cache.guards_hold(to, frame) {
                break 'run Ok((target, kind, to_backward, reason));
            }
        }
        if link == NONE && slot != Slot::None {
            cache.patch(si, slot, next, target);
        }
        links += 1;
        in_backward = to_backward;
        // The target's head is `target`; enter it if its blocks fit.
        if done.blocks > roomy {
            let to = cache.at(target).expect("a link targets an installed head");
            if done.blocks + u64::from(to.blocks) > budget {
                break 'run Ok((target, kind, to_backward, TraceExitReason::Fuel));
            }
        }
        first = next_first;
        si = first;
    };

    if let Err(e) = &end {
        // The failing step counted up front, and a call op its call,
        // before failing, exactly as block-by-block accounting would.
        done = done.add(Tally::partial(cache, first, si));
        done.backward += u64::from(in_backward);
        done.calls += u64::from(matches!(e, VmError::StackOverflow { .. }));
    }
    let stats = &mut *m.stats;
    stats.blocks_executed += done.blocks;
    stats.insts_executed += done.insts;
    stats.cond_branches += done.cond;
    stats.indirect_branches += done.indirect;
    stats.calls += done.calls;
    stats.backward_transfers += done.backward;
    stats.max_call_depth = max_depth;
    let (target, kind, backward, reason) = end?;
    // Every traversal but one that fuel refused was entered.
    let entries = links + 1 - u64::from(reason == TraceExitReason::Fuel);
    *exit = TraceExcursion {
        head: BlockId::new(head),
        // Control left through step `si`.
        from: Some(BlockId::new(cache.steps[si].block)),
        target: BlockId::new(target),
        kind,
        backward,
        target_size: 0,
        reason,
        blocks: done.blocks,
        insts: done.insts,
        entries,
        links,
        guard_fails,
        guard_execs: done.guards,
        halted: reason == TraceExitReason::Halt,
    };
    Ok(())
}

/// Pushes a call frame for a trace's call op, exactly as the interpreter
/// does; the caller counts the call.
#[inline]
fn call(m: &mut Machine<'_>, ret_global: u32, callee_regs: u32, func: u32) -> Result<(), VmError> {
    if m.frames.len() >= m.max_call_depth {
        return Err(VmError::StackOverflow {
            limit: m.max_call_depth,
        });
    }
    m.frames.push(CallFrame {
        ret_global,
        frame_base: *m.frame_base,
        func,
    });
    *m.frame_base = m.regs.len();
    m.regs.resize(*m.frame_base + callee_regs as usize, 0);
    Ok(())
}

/// Pops the current frame for a trace's return op; returns the
/// continuation, or `None` without a caller.
#[inline]
fn ret(m: &mut Machine<'_>) -> Option<u32> {
    let frame = m.frames.pop()?;
    m.regs.truncate(*m.frame_base);
    *m.frame_base = frame.frame_base;
    Some(frame.ret_global)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::NullObserver;
    use crate::vm::Vm;
    use hotpath_ir::builder::{FunctionBuilder, ProgramBuilder};
    use hotpath_ir::{CmpOp, Program};

    fn loop_program(trip: i64) -> Program {
        let mut fb = FunctionBuilder::new("main");
        let i = fb.reg();
        let header = fb.new_block();
        let body = fb.new_block();
        let exit = fb.new_block();
        fb.const_(i, 0);
        fb.jump(header);
        fb.switch_to(header);
        let c = fb.cmp_imm(CmpOp::Lt, i, trip);
        fb.branch(c, body, exit);
        fb.switch_to(body);
        fb.add_imm(i, i, 1);
        fb.jump(header);
        fb.switch_to(exit);
        fb.halt();
        let mut pb = ProgramBuilder::new();
        pb.add_function(fb).unwrap();
        pb.finish().unwrap()
    }

    #[test]
    fn compile_resolves_a_loop_body() {
        let p = loop_program(4);
        let vm = Vm::new(&p);
        // header(1) -> body(2) -> header(1) is the hot path.
        let tr = compile_trace(&vm.view(), &[1, 2]).expect("compiles");
        assert_eq!(tr.head, 1);
        assert_eq!(tr.blocks, 2);
        assert!(matches!(tr.steps[0].end, EndOp::BranchNext { .. }));
        assert!(matches!(tr.steps[1].end, EndOp::JumpExit { target: 1, .. }));
        assert!(!tr.steps[1].next_backward);
    }

    #[test]
    fn compile_rejects_impossible_sequences() {
        let p = loop_program(4);
        let vm = Vm::new(&p);
        // body(2) jumps to header(1), never to exit(3).
        assert!(compile_trace(&vm.view(), &[2, 3]).is_none());
        // Nothing follows a halt.
        assert!(compile_trace(&vm.view(), &[3, 1]).is_none());
        assert!(compile_trace(&vm.view(), &[]).is_none());
    }

    #[test]
    fn id_order_is_layout_order() {
        // Two functions, blocks of differing sizes (one holds only its
        // terminator): comparing ids must agree with the layout's
        // addresses for every pair.
        let mut pb = ProgramBuilder::new();
        let helper = pb.declare("helper");
        let mut fb = FunctionBuilder::new("main");
        let i = fb.imm(3);
        let next = fb.new_block();
        let done = fb.new_block();
        fb.call(helper, next);
        fb.switch_to(next);
        fb.jump(done);
        fb.switch_to(done);
        fb.add_imm(i, i, 1);
        fb.add_imm(i, i, 1);
        fb.halt();
        pb.add_function(fb).unwrap();
        let mut fb = FunctionBuilder::new("helper");
        fb.ret();
        pb.add_function(fb).unwrap();
        let p = pb.finish().unwrap();
        let layout = Layout::new(&p);
        let n = layout.block_count() as u32;
        for from in 0..n {
            for to in 0..n {
                let expect = layout.is_backward(BlockId::new(from), BlockId::new(to));
                assert_eq!(backward(from, to), expect, "{from} -> {to}");
            }
        }
    }

    #[test]
    fn cache_keeps_first_trace_per_head() {
        let p = loop_program(4);
        let vm = Vm::new(&p);
        let mut cache = TraceCache::new(4);
        assert!(cache.install(compile_trace(&vm.view(), &[1, 2]).unwrap()));
        assert!(!cache.install(compile_trace(&vm.view(), &[1]).unwrap()));
        assert_eq!(cache.entry(1), Some(0));
        assert_eq!(cache.entry(2), None);
        assert_eq!(cache.flush(), 0);
        assert_eq!(cache.entry(1), None);
    }

    #[test]
    fn linked_loop_runs_bit_identical_to_interpretation() {
        let p = loop_program(1_000);
        let expect = Vm::new(&p).run(&mut NullObserver).unwrap();
        let mut ctl = crate::event::ScriptedController::new(vec![
            crate::event::TraceCommand::Install(vec![1, 2]),
        ]);
        let got = Vm::new(&p).run_linked(&mut ctl).unwrap();
        assert_eq!(got, expect);
        // The loop self-links: after the first excursion patches the
        // latch's jump stub back to its own head, the remaining
        // iterations run in a single excursion.
        assert!(!ctl.excursions.is_empty());
        let total: u64 = ctl.excursions.iter().map(|e| e.blocks).sum();
        assert!(total > 1_000, "most blocks should run in trace-land");
    }
}
