//! The interpreter.

use hotpath_faultinject::{FaultInjector, FaultPoint};
use hotpath_ir::{BinOp, BlockId, GlobalReg, Inst, Layout, Program, Reg, Terminator, UnOp};

use crate::error::VmError;
use crate::event::{BlockEvent, ExecutionObserver, TraceCommand, TraceController, TransferKind};
use crate::trace_exec::{compile_trace, run_excursion, Machine, ProgramView, TraceCache};

/// Limits for one [`Vm::run`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RunConfig {
    /// Maximum number of basic blocks to execute before aborting with
    /// [`VmError::OutOfFuel`].
    pub max_blocks: u64,
    /// Maximum call-stack depth before aborting with
    /// [`VmError::StackOverflow`].
    pub max_call_depth: usize,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            max_blocks: 2_000_000_000,
            max_call_depth: 4096,
        }
    }
}

/// Summary of a completed run.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct RunStats {
    /// Basic blocks executed (equals the number of observer events).
    pub blocks_executed: u64,
    /// Straight-line instructions plus terminators executed.
    pub insts_executed: u64,
    /// Conditional branches executed.
    pub cond_branches: u64,
    /// Indirect branches executed.
    pub indirect_branches: u64,
    /// Calls executed.
    pub calls: u64,
    /// Backward control transfers (any kind).
    pub backward_transfers: u64,
    /// Deepest call stack observed.
    pub max_call_depth: usize,
    /// True if the program reached `Halt` (always true on `Ok`).
    pub halted: bool,
}

/// A frame on the call stack.
#[derive(Clone, Copy, Debug)]
pub(crate) struct CallFrame {
    /// Global block id to continue at after the matching return.
    pub(crate) ret_global: u32,
    /// Saved register-stack base of the caller.
    pub(crate) frame_base: usize,
    /// Function index of the caller.
    pub(crate) func: u32,
}

/// Resumable machine state for a linked run: everything
/// [`Vm::run_linked`] used to keep on its stack, lifted into a value so a
/// run can be advanced in bounded fuel slices ([`Vm::step_linked`]),
/// paused, exported ([`Vm::export_linked`]) and resumed later — possibly
/// in a different process ([`Vm::import_linked`]).
///
/// The trace cache lives here too: pausing never loses installed traces.
#[derive(Debug)]
pub struct LinkedState {
    pub(crate) cache: TraceCache,
    pub(crate) stats: RunStats,
    pub(crate) regs: Vec<i64>,
    pub(crate) frames: Vec<CallFrame>,
    pub(crate) frame_base: usize,
    pub(crate) pending: BlockEvent,
    pub(crate) cur: u32,
    pub(crate) done: bool,
}

impl LinkedState {
    /// Statistics accumulated so far (final once [`LinkedState::done`]).
    pub fn stats(&self) -> RunStats {
        self.stats
    }

    /// True once the program halted; further steps are no-ops.
    pub fn done(&self) -> bool {
        self.done
    }

    /// Heads blacklisted by trace panics so far. A serving layer treats
    /// any non-zero count as a health signal: the session's published
    /// profiles carry fragments that misbehaved at least once.
    pub fn poisoned_heads(&self) -> u64 {
        self.cache.poisoned_heads()
    }
}

/// What a bounded [`Vm::step_linked`] call ended with.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StepOutcome {
    /// The fuel slice was exhausted; call again to continue.
    Yielded,
    /// The program halted; the stats are final.
    Halted(RunStats),
}

/// A call frame in exportable form (see [`SavedLinkedState`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SavedFrame {
    /// Global block id to continue at after the matching return.
    pub ret_global: u32,
    /// Saved register-stack base of the caller.
    pub frame_base: u64,
    /// Function index of the caller.
    pub func: u32,
}

/// Plain-data image of a paused linked run, fit for external persistence.
///
/// Captures exactly the execution state that determines the remainder of
/// the run — registers, call stack, pending event, memory, globals, stats
/// — and deliberately **not** the trace cache: trace availability never
/// changes observable results (the backend's bit-identity contract), so a
/// restored run re-warms its cache from engine-side commands instead.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SavedLinkedState {
    /// Statistics at the pause point.
    pub stats: RunStats,
    /// Live registers of every frame, current frame last.
    pub regs: Vec<i64>,
    /// The call stack, outermost first.
    pub frames: Vec<SavedFrame>,
    /// Register-stack base of the current frame.
    pub frame_base: u64,
    /// The block event about to be executed/observed next.
    pub pending: BlockEvent,
    /// Global id of the block about to execute.
    pub cur: u32,
    /// Data memory at the pause point.
    pub memory: Vec<i64>,
    /// Machine-global registers at the pause point.
    pub globals: Vec<i64>,
    /// True if the run had already halted.
    pub done: bool,
}

/// Flattened per-block execution info, indexed by global block id.
#[derive(Clone, Debug)]
pub(crate) struct FlatBlock {
    pub(crate) inst_start: u32,
    pub(crate) inst_end: u32,
    pub(crate) size: u32,
    /// Function index owning this block.
    pub(crate) func: u32,
    /// Global id of the owning function's block 0; local targets resolve as
    /// `func_base + local_index`.
    pub(crate) func_base: u32,
}

/// The virtual machine.
///
/// Construction flattens the program and computes its [`Layout`]; memory is
/// initialized from the program's data segment and can be adjusted through
/// [`Vm::memory_mut`] / [`Vm::set_global`] before [`Vm::run`]. A run mutates
/// machine state; build a fresh `Vm` for a fresh run.
///
/// The VM owns everything it executes (the program is flattened at
/// construction and not borrowed afterwards), so long-lived holders — e.g.
/// a serving session that owns both the workload and its VM — need no
/// lifetime plumbing.
#[derive(Debug)]
pub struct Vm {
    entry: hotpath_ir::FuncId,
    layout: Layout,
    flat: Vec<FlatBlock>,
    insts: Vec<Inst>,
    /// Terminator of each global block (cloned out of the program so the
    /// hot loop avoids double indirection).
    terms: Vec<Terminator>,
    num_regs: Vec<u32>,
    memory: Vec<i64>,
    globals: [i64; GlobalReg::COUNT],
    config: RunConfig,
    /// Fault injector consulted by [`Vm::run_linked`]'s hook sites;
    /// disabled by default (one predictable branch per site).
    faults: FaultInjector,
    /// Optimization applied to traces at install time (see
    /// [`crate::OptLevel`]); [`OptLevel::Full`] by default.
    opt_level: crate::opt::OptLevel,
}

impl Vm {
    /// Creates a VM for `program` with the default [`RunConfig`].
    ///
    /// The program must be valid (see [`hotpath_ir::validate`]); builders
    /// validate automatically.
    pub fn new(program: &Program) -> Self {
        let layout = Layout::new(program);
        let total = layout.block_count();
        let mut flat = Vec::with_capacity(total);
        let mut insts = Vec::new();
        let mut terms = Vec::with_capacity(total);
        for (fi, func) in program.functions.iter().enumerate() {
            let func_base = layout
                .func_entry(hotpath_ir::FuncId::new(fi as u32))
                .as_u32();
            for block in &func.blocks {
                let inst_start = insts.len() as u32;
                insts.extend(block.insts.iter().cloned());
                flat.push(FlatBlock {
                    inst_start,
                    inst_end: insts.len() as u32,
                    size: block.size() as u32,
                    func: fi as u32,
                    func_base,
                });
                terms.push(block.terminator.clone());
            }
        }
        let num_regs = program
            .functions
            .iter()
            .map(|f| f.num_regs as u32)
            .collect();
        let mut memory = vec![0i64; program.memory_words];
        for &(addr, val) in &program.data {
            memory[addr] = val;
        }
        Vm {
            entry: program.entry,
            layout,
            flat,
            insts,
            terms,
            num_regs,
            memory,
            globals: [0; GlobalReg::COUNT],
            config: RunConfig::default(),
            faults: FaultInjector::disabled(),
            opt_level: crate::opt::OptLevel::Full,
        }
    }

    /// Replaces the run limits.
    pub fn with_config(mut self, config: RunConfig) -> Self {
        self.config = config;
        self
    }

    /// Arms fault injection for [`Vm::run_linked`] (see
    /// [`hotpath_faultinject`]). Plain [`Vm::run`] has no fault points —
    /// it *is* the reference semantics the faulted backend is checked
    /// against.
    pub fn with_faults(mut self, faults: FaultInjector) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the optimization level applied to traces when they are
    /// installed; [`OptLevel::Full`] by default. Every level is
    /// bit-identical to [`OptLevel::None`] in observable results; higher
    /// levels execute fewer guards and instructions to get there.
    ///
    /// [`OptLevel::None`]: crate::OptLevel::None
    /// [`OptLevel::Full`]: crate::OptLevel::Full
    pub fn with_opt_level(mut self, level: crate::opt::OptLevel) -> Self {
        self.opt_level = level;
        self
    }

    /// The fault injector (its counters tell tests what actually fired).
    pub fn faults(&self) -> &FaultInjector {
        &self.faults
    }

    /// The run limits currently in force.
    pub fn config(&self) -> &RunConfig {
        &self.config
    }

    /// The address layout computed for the program.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Data memory (word-addressed).
    pub fn memory(&self) -> &[i64] {
        &self.memory
    }

    /// Mutable data memory, e.g. for writing workload inputs before a run.
    pub fn memory_mut(&mut self) -> &mut [i64] {
        &mut self.memory
    }

    /// Reads a machine-global register.
    pub fn global(&self, g: GlobalReg) -> i64 {
        self.globals[g.index()]
    }

    /// All machine-global registers, e.g. for whole-state comparison.
    pub fn globals(&self) -> &[i64] {
        &self.globals
    }

    /// Writes a machine-global register.
    pub fn set_global(&mut self, g: GlobalReg, value: i64) {
        self.globals[g.index()] = value;
    }

    /// Executes the program from its entry, streaming events to `observer`.
    ///
    /// # Errors
    ///
    /// Returns a [`VmError`] on division by zero, out-of-bounds memory
    /// access, return without caller, call-stack overflow, or fuel
    /// exhaustion.
    pub fn run<O: ExecutionObserver>(&mut self, observer: &mut O) -> Result<RunStats, VmError> {
        let mut stats = RunStats::default();
        let mut regs: Vec<i64> = Vec::with_capacity(1024);
        let mut frames: Vec<CallFrame> = Vec::with_capacity(64);
        let mut frame_base = 0usize;

        let entry_func = self.entry;
        let mut cur = self.layout.func_entry(entry_func).as_u32();
        regs.resize(self.num_regs[entry_func.index()] as usize, 0);

        let mut pending = BlockEvent {
            from: None,
            block: BlockId::new(cur),
            kind: TransferKind::Start,
            backward: false,
            block_size: self.flat[cur as usize].size,
        };

        loop {
            if stats.blocks_executed >= self.config.max_blocks {
                return Err(VmError::OutOfFuel {
                    budget: self.config.max_blocks,
                });
            }
            stats.blocks_executed += 1;
            if pending.backward {
                stats.backward_transfers += 1;
            }
            observer.on_block(&pending);

            let fb = &self.flat[cur as usize];
            let func = fb.func as usize;
            let func_base = fb.func_base;
            stats.insts_executed += fb.size as u64;
            let block_id = BlockId::new(cur);

            // Straight-line instructions.
            for inst in &self.insts[fb.inst_start as usize..fb.inst_end as usize] {
                exec_inst(
                    inst,
                    &mut regs[frame_base..],
                    &mut self.memory,
                    &mut self.globals,
                    block_id,
                )?;
            }

            // Terminator.
            let (next, kind) = match &self.terms[cur as usize] {
                Terminator::Jump(t) => (func_base + t.index() as u32, TransferKind::Jump),
                Terminator::Branch {
                    cond,
                    taken,
                    fallthrough,
                } => {
                    stats.cond_branches += 1;
                    if regs[frame_base + cond.index()] != 0 {
                        (func_base + taken.index() as u32, TransferKind::BranchTaken)
                    } else {
                        (
                            func_base + fallthrough.index() as u32,
                            TransferKind::BranchNotTaken,
                        )
                    }
                }
                Terminator::Switch {
                    index,
                    targets,
                    default,
                } => {
                    stats.indirect_branches += 1;
                    let v = regs[frame_base + index.index()];
                    let t = usize::try_from(v)
                        .ok()
                        .and_then(|i| targets.get(i).copied())
                        .unwrap_or(*default);
                    (func_base + t.index() as u32, TransferKind::Indirect)
                }
                Terminator::Call { callee, ret_to } => {
                    stats.calls += 1;
                    if frames.len() >= self.config.max_call_depth {
                        return Err(VmError::StackOverflow {
                            limit: self.config.max_call_depth,
                        });
                    }
                    frames.push(CallFrame {
                        ret_global: func_base + ret_to.index() as u32,
                        frame_base,
                        func: func as u32,
                    });
                    stats.max_call_depth = stats.max_call_depth.max(frames.len());
                    frame_base = regs.len();
                    regs.resize(frame_base + self.num_regs[callee.index()] as usize, 0);
                    (self.layout.func_entry(*callee).as_u32(), TransferKind::Call)
                }
                Terminator::Return => match frames.pop() {
                    Some(frame) => {
                        regs.truncate(frame_base);
                        frame_base = frame.frame_base;
                        let _ = frame.func;
                        (frame.ret_global, TransferKind::Return)
                    }
                    None => {
                        return Err(VmError::ReturnWithoutCaller { block: block_id });
                    }
                },
                Terminator::Halt => {
                    observer.on_halt();
                    stats.halted = true;
                    hotpath_telemetry::emit!(hotpath_telemetry::Event::VmHalt {
                        blocks: stats.blocks_executed,
                        insts: stats.insts_executed,
                    });
                    return Ok(stats);
                }
            };

            let backward = self.layout.is_backward(block_id, BlockId::new(next));
            pending = BlockEvent {
                from: Some(block_id),
                block: BlockId::new(next),
                kind,
                backward,
                block_size: self.flat[next as usize].size,
            };
            cur = next;
        }
    }

    /// Read-only view of the flattened program for the trace compiler.
    #[cfg(test)]
    pub(crate) fn view(&self) -> ProgramView<'_> {
        ProgramView {
            flat: &self.flat,
            insts: &self.insts,
            terms: &self.terms,
            layout: &self.layout,
            num_regs: &self.num_regs,
        }
    }

    /// Executes the program with the compiled-trace backend enabled.
    ///
    /// Semantically identical to [`Vm::run`]: same [`RunStats`], same final
    /// memory and globals, same errors at the same execution points. The
    /// difference is purely in dispatch and observation. Blocks covered by
    /// installed traces execute out of contiguous compiled instruction
    /// streams — no per-block `FlatBlock` lookup, no per-block observer
    /// call — and each pass through trace-land is reported as one batched
    /// [`TraceExcursion`](crate::TraceExcursion) via
    /// [`TraceController::on_trace_exit`]. Guard exits whose targets are
    /// other trace heads are patched into direct links, so hot loop nests
    /// run trace→trace without returning here.
    ///
    /// The `controller` observes interpreted blocks exactly as an
    /// [`ExecutionObserver`] would under [`Vm::run`] and supplies
    /// [`TraceCommand`]s (install / flush), polled after every interpreted
    /// block and every excursion.
    ///
    /// # Errors
    ///
    /// Exactly the errors [`Vm::run`] produces, at the same points.
    pub fn run_linked<C: TraceController>(
        &mut self,
        controller: &mut C,
    ) -> Result<RunStats, VmError> {
        let mut state = self.start_linked();
        match self.step_linked(&mut state, controller, None)? {
            StepOutcome::Halted(stats) => Ok(stats),
            StepOutcome::Yielded => unreachable!("an unbounded step cannot yield"),
        }
    }

    /// Initial [`LinkedState`] for this VM: positioned at the program
    /// entry with an empty trace cache.
    pub fn start_linked(&self) -> LinkedState {
        let entry_func = self.entry;
        let cur = self.layout.func_entry(entry_func).as_u32();
        let mut regs: Vec<i64> = Vec::with_capacity(1024);
        regs.resize(self.num_regs[entry_func.index()] as usize, 0);
        LinkedState {
            cache: TraceCache::new(self.flat.len()),
            stats: RunStats::default(),
            regs,
            frames: Vec::with_capacity(64),
            frame_base: 0,
            pending: BlockEvent {
                from: None,
                block: BlockId::new(cur),
                kind: TransferKind::Start,
                backward: false,
                block_size: self.flat[cur as usize].size,
            },
            cur,
            done: false,
        }
    }

    /// Advances a linked run by at most `fuel` blocks (`None` = until
    /// halt or error), exactly as [`Vm::run_linked`] would execute them.
    ///
    /// Slicing is invisible to the program: the slice boundary reuses the
    /// trace backend's fuel precheck (a trace whose first traversal would
    /// overshoot falls back to block-by-block interpretation), so the
    /// sequence of executed blocks — and therefore [`RunStats`], memory
    /// and globals — is bit-identical to one unbounded call. Only the
    /// overall `RunConfig::max_blocks` budget produces
    /// [`VmError::OutOfFuel`]; exhausting a slice yields instead.
    ///
    /// Once the program halts the state is final and further calls return
    /// [`StepOutcome::Halted`] immediately.
    ///
    /// # Errors
    ///
    /// Exactly the errors [`Vm::run`] produces, at the same points. After
    /// an error the state must not be stepped again.
    pub fn step_linked<C: TraceController>(
        &mut self,
        state: &mut LinkedState,
        controller: &mut C,
        fuel: Option<u64>,
    ) -> Result<StepOutcome, VmError> {
        if state.done {
            return Ok(StepOutcome::Halted(state.stats));
        }
        let _selfprof_slice = hotpath_selfprof::StageGuard::enter(hotpath_selfprof::Stage::VmSlice);
        let limit = match fuel {
            None => self.config.max_blocks,
            Some(f) => state
                .stats
                .blocks_executed
                .saturating_add(f)
                .min(self.config.max_blocks),
        };
        let slice_config = RunConfig {
            max_blocks: limit,
            ..self.config
        };
        let LinkedState {
            cache,
            stats,
            regs,
            frames,
            frame_base,
            pending,
            cur,
            done,
        } = state;

        loop {
            // Slice boundary: yield (resumable) rather than error. When
            // the slice cap coincides with the real budget, fall through
            // so `OutOfFuel` fires at exactly the block an unbounded run
            // would have stopped at.
            if stats.blocks_executed >= limit && limit < self.config.max_blocks {
                return Ok(StepOutcome::Yielded);
            }
            // Fault point: a forced cache flush at the top of a dispatch
            // iteration (models asynchronous invalidation).
            if self.faults.armed() && self.faults.fire(FaultPoint::Flush) {
                hotpath_telemetry::emit!(hotpath_telemetry::Event::FaultInjected {
                    point: "flush",
                    at_block: stats.blocks_executed,
                });
                let severed = cache.flush();
                hotpath_telemetry::emit!(hotpath_telemetry::Event::LinkSevered { links: severed });
            }

            // Trace dispatch: a trace anchored at the current block runs a
            // whole excursion — provided the remaining budget (slice or
            // fuel) covers its first traversal. When it does not, fall
            // back to block-by-block interpretation so the run stops at
            // exactly the block plain interpretation would have.
            // Hoisted entry guards must hold before dispatching into an
            // optimized trace; when one fails, fall through and interpret
            // this block (the trace would have bailed on its first guard
            // anyway, and interpreting makes progress so dispatch cannot
            // spin on the same head).
            let mut enter = cache
                .entry(*cur)
                .filter(|&tid| stats.blocks_executed + cache.trace_len(tid) as u64 <= limit)
                .filter(|&tid| cache.entry_ok(tid, regs, *frame_base));
            // Fault point: fuel starvation — deny this dispatch as if the
            // precheck had failed; the block interprets instead (exactly
            // the fallback the real precheck takes, hence bit-identical).
            if enter.is_some() && self.faults.armed() && self.faults.fire(FaultPoint::FuelStarve) {
                hotpath_telemetry::emit!(hotpath_telemetry::Event::FaultInjected {
                    point: "fuel_starve",
                    at_block: stats.blocks_executed,
                });
                enter = None;
            }
            if let Some(tid) = enter {
                hotpath_telemetry::emit!(hotpath_telemetry::Event::TraceEnter {
                    head: *cur,
                    at_block: stats.blocks_executed,
                });
                // `catch_unwind` isolates a panicking trace: execution
                // recovers to the interpreter instead of taking the
                // process down. An injected TracePanic fires at excursion
                // entry, before any step runs, so recovery resumes at
                // `cur` with state untouched; for a genuine mid-trace
                // panic (a trace-compiler bug) this is best-effort — the
                // committed prefix matches what interpretation would have
                // done, but counters may sit mid-excursion.
                let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let mut machine = Machine {
                        memory: &mut self.memory,
                        globals: &mut self.globals,
                        regs: &mut *regs,
                        frames: &mut *frames,
                        frame_base: &mut *frame_base,
                        layout: &self.layout,
                    };
                    run_excursion(
                        &mut *cache,
                        tid,
                        pending.kind,
                        pending.backward,
                        &mut machine,
                        &mut *stats,
                        &slice_config,
                        &mut self.faults,
                    )
                }));
                let mut exc = match caught {
                    Ok(result) => result?,
                    Err(_payload) => {
                        // Poison the head (installs there are refused for
                        // the rest of the run) and drop the whole cache:
                        // a trace that may link into the poisoned one
                        // must not reach it.
                        let severed = cache.poison(*cur);
                        hotpath_telemetry::emit!(hotpath_telemetry::Event::FragmentPoisoned {
                            head: *cur,
                            at_block: stats.blocks_executed,
                        });
                        hotpath_telemetry::emit!(hotpath_telemetry::Event::LinkSevered {
                            links: severed,
                        });
                        continue;
                    }
                };
                if !exc.halted {
                    exc.target_size = self.flat[exc.target.as_u32() as usize].size;
                }
                hotpath_telemetry::emit!(hotpath_telemetry::Event::TraceExit {
                    reason: exc.reason.as_str(),
                    target: exc.target.as_u32(),
                    blocks: exc.blocks,
                    entries: exc.entries,
                    links: exc.links,
                    guards: exc.guard_execs,
                    at_block: stats.blocks_executed,
                });
                controller.on_trace_exit(&exc);
                let view = ProgramView {
                    flat: &self.flat,
                    insts: &self.insts,
                    terms: &self.terms,
                    layout: &self.layout,
                    num_regs: &self.num_regs,
                };
                drain_commands(
                    controller,
                    &mut *cache,
                    &view,
                    &mut self.faults,
                    self.opt_level,
                    stats.blocks_executed,
                );
                if exc.halted {
                    controller.on_halt();
                    stats.halted = true;
                    *done = true;
                    hotpath_telemetry::emit!(hotpath_telemetry::Event::VmHalt {
                        blocks: stats.blocks_executed,
                        insts: stats.insts_executed,
                    });
                    return Ok(StepOutcome::Halted(*stats));
                }
                let next = exc.target.as_u32();
                *pending = BlockEvent {
                    from: exc.from,
                    block: exc.target,
                    kind: exc.kind,
                    backward: exc.backward,
                    block_size: exc.target_size,
                };
                *cur = next;
                continue;
            }

            // Interpretation: one block, exactly as in `run`.
            if stats.blocks_executed >= self.config.max_blocks {
                return Err(VmError::OutOfFuel {
                    budget: self.config.max_blocks,
                });
            }
            stats.blocks_executed += 1;
            if pending.backward {
                stats.backward_transfers += 1;
            }
            controller.on_block(pending);

            let fb = &self.flat[*cur as usize];
            let func = fb.func as usize;
            let func_base = fb.func_base;
            stats.insts_executed += fb.size as u64;
            let block_id = BlockId::new(*cur);

            for inst in &self.insts[fb.inst_start as usize..fb.inst_end as usize] {
                exec_inst(
                    inst,
                    &mut regs[*frame_base..],
                    &mut self.memory,
                    &mut self.globals,
                    block_id,
                )?;
            }

            let (next, kind) = match &self.terms[*cur as usize] {
                Terminator::Jump(t) => (func_base + t.index() as u32, TransferKind::Jump),
                Terminator::Branch {
                    cond,
                    taken,
                    fallthrough,
                } => {
                    stats.cond_branches += 1;
                    if regs[*frame_base + cond.index()] != 0 {
                        (func_base + taken.index() as u32, TransferKind::BranchTaken)
                    } else {
                        (
                            func_base + fallthrough.index() as u32,
                            TransferKind::BranchNotTaken,
                        )
                    }
                }
                Terminator::Switch {
                    index,
                    targets,
                    default,
                } => {
                    stats.indirect_branches += 1;
                    let v = regs[*frame_base + index.index()];
                    let t = usize::try_from(v)
                        .ok()
                        .and_then(|i| targets.get(i).copied())
                        .unwrap_or(*default);
                    (func_base + t.index() as u32, TransferKind::Indirect)
                }
                Terminator::Call { callee, ret_to } => {
                    stats.calls += 1;
                    if frames.len() >= self.config.max_call_depth {
                        return Err(VmError::StackOverflow {
                            limit: self.config.max_call_depth,
                        });
                    }
                    frames.push(CallFrame {
                        ret_global: func_base + ret_to.index() as u32,
                        frame_base: *frame_base,
                        func: func as u32,
                    });
                    stats.max_call_depth = stats.max_call_depth.max(frames.len());
                    *frame_base = regs.len();
                    regs.resize(*frame_base + self.num_regs[callee.index()] as usize, 0);
                    (self.layout.func_entry(*callee).as_u32(), TransferKind::Call)
                }
                Terminator::Return => match frames.pop() {
                    Some(frame) => {
                        regs.truncate(*frame_base);
                        *frame_base = frame.frame_base;
                        (frame.ret_global, TransferKind::Return)
                    }
                    None => {
                        return Err(VmError::ReturnWithoutCaller { block: block_id });
                    }
                },
                Terminator::Halt => {
                    controller.on_halt();
                    stats.halted = true;
                    *done = true;
                    hotpath_telemetry::emit!(hotpath_telemetry::Event::VmHalt {
                        blocks: stats.blocks_executed,
                        insts: stats.insts_executed,
                    });
                    return Ok(StepOutcome::Halted(*stats));
                }
            };

            let view = ProgramView {
                flat: &self.flat,
                insts: &self.insts,
                terms: &self.terms,
                layout: &self.layout,
                num_regs: &self.num_regs,
            };
            drain_commands(
                controller,
                &mut *cache,
                &view,
                &mut self.faults,
                self.opt_level,
                stats.blocks_executed,
            );
            let backward = self.layout.is_backward(block_id, BlockId::new(next));
            *pending = BlockEvent {
                from: Some(block_id),
                block: BlockId::new(next),
                kind,
                backward,
                block_size: self.flat[next as usize].size,
            };
            *cur = next;
        }
    }

    /// Extracts a paused linked run's execution state for persistence.
    ///
    /// Pair with [`Vm::import_linked`] on a VM built from the same
    /// program to continue the run — the continuation executes the same
    /// block sequence and finishes with bit-identical [`RunStats`],
    /// memory, and globals as the uninterrupted run would have.
    pub fn export_linked(&self, state: &LinkedState) -> SavedLinkedState {
        SavedLinkedState {
            stats: state.stats,
            regs: state.regs.clone(),
            frames: state
                .frames
                .iter()
                .map(|f| SavedFrame {
                    ret_global: f.ret_global,
                    frame_base: f.frame_base as u64,
                    func: f.func,
                })
                .collect(),
            frame_base: state.frame_base as u64,
            pending: state.pending,
            cur: state.cur,
            memory: self.memory.clone(),
            globals: self.globals.to_vec(),
            done: state.done,
        }
    }

    /// Rebuilds a paused linked run on this VM from an exported image,
    /// overwriting memory and globals. The trace cache starts empty — a
    /// restored engine re-installs its fragments via [`TraceCommand`]s,
    /// which only affects speed, never results.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency when the image
    /// does not fit this VM's program (wrong memory size, out-of-range
    /// block ids or frame bases).
    pub fn import_linked(&mut self, saved: &SavedLinkedState) -> Result<LinkedState, String> {
        if saved.memory.len() != self.memory.len() {
            return Err(format!(
                "memory size mismatch: image {} words, program {}",
                saved.memory.len(),
                self.memory.len()
            ));
        }
        if saved.globals.len() != GlobalReg::COUNT {
            return Err(format!(
                "global register count mismatch: image {}, machine {}",
                saved.globals.len(),
                GlobalReg::COUNT
            ));
        }
        if saved.cur as usize >= self.flat.len() {
            return Err(format!("current block {} out of range", saved.cur));
        }
        let frame_base =
            usize::try_from(saved.frame_base).map_err(|_| "frame base does not fit".to_string())?;
        if frame_base > saved.regs.len() {
            return Err(format!(
                "frame base {frame_base} past the register stack ({})",
                saved.regs.len()
            ));
        }
        let mut frames = Vec::with_capacity(saved.frames.len());
        for f in &saved.frames {
            if f.ret_global as usize >= self.flat.len() {
                return Err(format!("frame return block {} out of range", f.ret_global));
            }
            if f.frame_base > saved.frame_base {
                return Err("frame bases must not exceed the current base".to_string());
            }
            frames.push(CallFrame {
                ret_global: f.ret_global,
                frame_base: f.frame_base as usize,
                func: f.func,
            });
        }
        self.memory.copy_from_slice(&saved.memory);
        self.globals.copy_from_slice(&saved.globals);
        let mut pending = saved.pending;
        // The pending event must describe the block we resume at; its
        // size is program-derived, so recompute rather than trust it.
        pending.block = BlockId::new(saved.cur);
        pending.block_size = self.flat[saved.cur as usize].size;
        Ok(LinkedState {
            cache: TraceCache::new(self.flat.len()),
            stats: saved.stats,
            regs: saved.regs.clone(),
            frames,
            frame_base,
            pending,
            cur: saved.cur,
            done: saved.done,
        })
    }
}

/// Applies every queued controller command to the trace cache.
///
/// Fault point: [`FaultPoint::InstallReject`] drops an `Install` command
/// before compilation — indistinguishable from `compile_trace` declining
/// the sequence, so the run proceeds (bit-identically) without the trace.
fn drain_commands<C: TraceController>(
    controller: &mut C,
    cache: &mut TraceCache,
    view: &ProgramView<'_>,
    faults: &mut FaultInjector,
    level: crate::opt::OptLevel,
    at_block: u64,
) {
    while let Some(command) = controller.poll_command() {
        match command {
            TraceCommand::Install(blocks) => {
                if faults.armed() && faults.fire(FaultPoint::InstallReject) {
                    hotpath_telemetry::emit!(hotpath_telemetry::Event::FaultInjected {
                        point: "install_reject",
                        at_block,
                    });
                    continue;
                }
                if let Some(mut trace) = compile_trace(view, &blocks) {
                    crate::opt::optimize(&mut trace, level);
                    cache.install(trace);
                }
            }
            TraceCommand::Flush => {
                let severed = cache.flush();
                hotpath_telemetry::emit!(hotpath_telemetry::Event::LinkSevered { links: severed });
            }
            TraceCommand::SetLinking(on) => {
                let severed = cache.set_linking(on);
                if severed > 0 {
                    hotpath_telemetry::emit!(hotpath_telemetry::Event::LinkSevered {
                        links: severed
                    });
                }
            }
        }
    }
}

#[inline]
pub(crate) fn exec_inst(
    inst: &Inst,
    regs: &mut [i64],
    memory: &mut [i64],
    globals: &mut [i64; GlobalReg::COUNT],
    block: BlockId,
) -> Result<(), VmError> {
    #[inline]
    fn get(regs: &[i64], r: Reg) -> i64 {
        regs[r.index()]
    }
    match *inst {
        Inst::Const { dst, value } => regs[dst.index()] = value,
        Inst::Mov { dst, src } => regs[dst.index()] = get(regs, src),
        Inst::Un { op, dst, src } => {
            let v = get(regs, src);
            regs[dst.index()] = match op {
                UnOp::Neg => v.wrapping_neg(),
                UnOp::Not => !v,
            };
        }
        Inst::Bin { op, dst, lhs, rhs } => {
            let a = get(regs, lhs);
            let b = get(regs, rhs);
            regs[dst.index()] = eval_bin(op, a, b, block)?;
        }
        Inst::BinImm { op, dst, lhs, imm } => {
            let a = get(regs, lhs);
            regs[dst.index()] = eval_bin(op, a, imm, block)?;
        }
        Inst::Cmp { op, dst, lhs, rhs } => {
            regs[dst.index()] = op.eval(get(regs, lhs), get(regs, rhs)) as i64;
        }
        Inst::CmpImm { op, dst, lhs, imm } => {
            regs[dst.index()] = op.eval(get(regs, lhs), imm) as i64;
        }
        Inst::Load { dst, addr, offset } => {
            let a = get(regs, addr).wrapping_add(offset);
            let idx = usize::try_from(a)
                .ok()
                .filter(|&i| i < memory.len())
                .ok_or(VmError::MemoryOutOfBounds {
                    block,
                    address: a,
                    memory_words: memory.len(),
                })?;
            regs[dst.index()] = memory[idx];
        }
        Inst::Store { src, addr, offset } => {
            let a = get(regs, addr).wrapping_add(offset);
            let idx = usize::try_from(a)
                .ok()
                .filter(|&i| i < memory.len())
                .ok_or(VmError::MemoryOutOfBounds {
                    block,
                    address: a,
                    memory_words: memory.len(),
                })?;
            memory[idx] = get(regs, src);
        }
        Inst::GetGlobal { dst, global } => regs[dst.index()] = globals[global.index()],
        Inst::SetGlobal { src, global } => globals[global.index()] = get(regs, src),
    }
    Ok(())
}

#[inline]
pub(crate) fn eval_bin(op: BinOp, a: i64, b: i64, block: BlockId) -> Result<i64, VmError> {
    Ok(match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Div => {
            if b == 0 {
                return Err(VmError::DivisionByZero { block });
            }
            a.wrapping_div(b)
        }
        BinOp::Rem => {
            if b == 0 {
                return Err(VmError::DivisionByZero { block });
            }
            a.wrapping_rem(b)
        }
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        BinOp::Shl => a.wrapping_shl(b as u32 & 63),
        BinOp::Shr => a.wrapping_shr(b as u32 & 63),
        BinOp::Min => a.min(b),
        BinOp::Max => a.max(b),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::NullObserver;
    use hotpath_ir::builder::{FunctionBuilder, ProgramBuilder};
    use hotpath_ir::CmpOp;

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
    fn counting_loop_halts_with_expected_stats() {
        let p = loop_program(5);
        let mut vm = Vm::new(&p);
        let stats = vm.run(&mut NullObserver).unwrap();
        assert!(stats.halted);
        // entry + 6 header visits + 5 bodies + exit = 13 blocks.
        assert_eq!(stats.blocks_executed, 13);
        assert_eq!(stats.cond_branches, 6);
        // 5 backward jumps from the latch.
        assert_eq!(stats.backward_transfers, 5);
    }

    #[test]
    fn fuel_exhaustion_errors() {
        let p = loop_program(1_000_000);
        let mut vm = Vm::new(&p).with_config(RunConfig {
            max_blocks: 100,
            ..RunConfig::default()
        });
        assert_eq!(
            vm.run(&mut NullObserver).unwrap_err(),
            VmError::OutOfFuel { budget: 100 }
        );
    }

    #[test]
    fn division_by_zero_errors() {
        let mut fb = FunctionBuilder::new("main");
        let a = fb.imm(1);
        let b = fb.imm(0);
        fb.bin(BinOp::Div, a, a, b);
        fb.halt();
        let mut pb = ProgramBuilder::new();
        pb.add_function(fb).unwrap();
        let p = pb.finish().unwrap();
        let mut vm = Vm::new(&p);
        assert!(matches!(
            vm.run(&mut NullObserver).unwrap_err(),
            VmError::DivisionByZero { .. }
        ));
    }

    #[test]
    fn memory_bounds_checked() {
        let mut fb = FunctionBuilder::new("main");
        let addr = fb.imm(99);
        let v = fb.reg();
        fb.load(v, addr, 0);
        fb.halt();
        let mut pb = ProgramBuilder::new();
        pb.add_function(fb).unwrap();
        pb.memory_words(4);
        let p = pb.finish().unwrap();
        let mut vm = Vm::new(&p);
        assert!(matches!(
            vm.run(&mut NullObserver).unwrap_err(),
            VmError::MemoryOutOfBounds { address: 99, .. }
        ));
    }

    #[test]
    fn negative_address_is_out_of_bounds() {
        let mut fb = FunctionBuilder::new("main");
        let addr = fb.imm(0);
        let v = fb.reg();
        fb.load(v, addr, -1);
        fb.halt();
        let mut pb = ProgramBuilder::new();
        pb.add_function(fb).unwrap();
        pb.memory_words(4);
        let p = pb.finish().unwrap();
        let mut vm = Vm::new(&p);
        assert!(matches!(
            vm.run(&mut NullObserver).unwrap_err(),
            VmError::MemoryOutOfBounds { address: -1, .. }
        ));
    }

    #[test]
    fn calls_pass_values_through_globals() {
        let mut pb = ProgramBuilder::new();
        let double = pb.declare("double");

        let mut fb = FunctionBuilder::new("double");
        let x = fb.reg();
        fb.get_global(x, GlobalReg::new(0));
        fb.add(x, x, x);
        fb.set_global(GlobalReg::new(0), x);
        fb.ret();
        pb.add_function(fb).unwrap();

        let mut fb = FunctionBuilder::new("main");
        let v = fb.imm(21);
        fb.set_global(GlobalReg::new(0), v);
        let cont = fb.new_block();
        fb.call(double, cont);
        fb.switch_to(cont);
        fb.halt();
        pb.add_function(fb).unwrap();

        let p = pb.finish().unwrap();
        let mut vm = Vm::new(&p);
        let stats = vm.run(&mut NullObserver).unwrap();
        assert!(stats.halted);
        assert_eq!(stats.calls, 1);
        assert_eq!(vm.global(GlobalReg::new(0)), 42);
    }

    #[test]
    fn return_without_caller_errors() {
        let mut fb = FunctionBuilder::new("main");
        fb.ret();
        let mut pb = ProgramBuilder::new();
        pb.add_function(fb).unwrap();
        let p = pb.finish().unwrap();
        let mut vm = Vm::new(&p);
        assert!(matches!(
            vm.run(&mut NullObserver).unwrap_err(),
            VmError::ReturnWithoutCaller { .. }
        ));
    }

    #[test]
    fn recursion_hits_stack_limit() {
        let mut pb = ProgramBuilder::new();
        let me = pb.declare("main");
        let mut fb = FunctionBuilder::new("main");
        let cont = fb.new_block();
        fb.call(me, cont);
        fb.switch_to(cont);
        fb.ret();
        pb.add_function(fb).unwrap();
        let p = pb.finish().unwrap();
        let mut vm = Vm::new(&p).with_config(RunConfig {
            max_call_depth: 10,
            ..RunConfig::default()
        });
        assert_eq!(
            vm.run(&mut NullObserver).unwrap_err(),
            VmError::StackOverflow { limit: 10 }
        );
    }

    #[test]
    fn switch_selects_targets_and_default() {
        // Memory cell 0 selects the arm; record the arm in global 1.
        let build = |sel: i64| {
            let mut fb = FunctionBuilder::new("main");
            let s = fb.reg();
            let a0 = fb.new_block();
            let a1 = fb.new_block();
            let dflt = fb.new_block();
            let out = fb.new_block();
            fb.const_(s, sel);
            fb.switch(s, vec![a0, a1], dflt);
            for (b, v) in [(a0, 100i64), (a1, 101), (dflt, 999)] {
                fb.switch_to(b);
                let t = fb.imm(v);
                fb.set_global(GlobalReg::new(1), t);
                fb.jump(out);
            }
            fb.switch_to(out);
            fb.halt();
            let mut pb = ProgramBuilder::new();
            pb.add_function(fb).unwrap();
            pb.finish().unwrap()
        };
        for (sel, expect) in [(0i64, 100i64), (1, 101), (2, 999), (-1, 999)] {
            let p = build(sel);
            let mut vm = Vm::new(&p);
            vm.run(&mut NullObserver).unwrap();
            assert_eq!(vm.global(GlobalReg::new(1)), expect, "selector {sel}");
        }
    }

    #[test]
    fn initial_data_is_applied() {
        let mut fb = FunctionBuilder::new("main");
        let addr = fb.imm(2);
        let v = fb.reg();
        fb.load(v, addr, 0);
        fb.set_global(GlobalReg::new(0), v);
        fb.halt();
        let mut pb = ProgramBuilder::new();
        pb.add_function(fb).unwrap();
        pb.memory_words(4).datum(2, 77);
        let p = pb.finish().unwrap();
        let mut vm = Vm::new(&p);
        vm.run(&mut NullObserver).unwrap();
        assert_eq!(vm.global(GlobalReg::new(0)), 77);
    }

    #[test]
    fn wrapping_arithmetic_and_shifts() {
        let mut fb = FunctionBuilder::new("main");
        let a = fb.imm(i64::MAX);
        fb.add_imm(a, a, 1);
        fb.set_global(GlobalReg::new(0), a);
        let b = fb.imm(1);
        fb.bin_imm(BinOp::Shl, b, b, 70); // masked to 6
        fb.set_global(GlobalReg::new(1), b);
        let c = fb.imm(i64::MIN);
        let m1 = fb.imm(-1);
        fb.bin(BinOp::Div, c, c, m1); // wrapping: stays MIN
        fb.set_global(GlobalReg::new(2), c);
        fb.halt();
        let mut pb = ProgramBuilder::new();
        pb.add_function(fb).unwrap();
        let p = pb.finish().unwrap();
        let mut vm = Vm::new(&p);
        vm.run(&mut NullObserver).unwrap();
        assert_eq!(vm.global(GlobalReg::new(0)), i64::MIN);
        assert_eq!(vm.global(GlobalReg::new(1)), 1 << 6);
        assert_eq!(vm.global(GlobalReg::new(2)), i64::MIN);
    }
}
