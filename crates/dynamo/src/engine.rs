//! The Dynamo engine: interpret, profile, predict, record, cache, link,
//! flush, bail out.

use hotpath_core::{HotPathPredictor, NetPredictor, PathProfilePredictor};
use hotpath_ir::dense::CounterTable;
use hotpath_ir::Program;
use hotpath_profiles::{PathExecution, PathExtractor, PathSink, DEFAULT_PATH_CAP};
use hotpath_telemetry as telemetry;
use hotpath_vm::{BlockEvent, ExecutionObserver, Vm, VmError};

use crate::cost::{CostModel, CycleBreakdown};
use crate::fragment::{FragmentCache, FragmentId};
use crate::phases::{FlushPolicy, SpikeDetector};

/// A completed path's carry-over state: `(blocks, insts, touched_cache,
/// diverged, diverged_at)`.
type FinishedPath = (Vec<u32>, u32, bool, bool, Option<usize>);

/// Which prediction scheme drives the engine (the two bars of Figure 5).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Scheme {
    /// Next Executing Tail prediction.
    Net,
    /// Path-profile based prediction.
    PathProfile,
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Scheme::Net => "NET",
            Scheme::PathProfile => "PathProfile",
        })
    }
}

/// When the engine gives up and falls back to native execution
/// (Dynamo's bail-out on gcc/go: "excessively high numbers of dynamic
/// paths and no dominant reuse").
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct BailoutPolicy {
    /// Evaluate the condition every this many completed paths.
    pub check_every_paths: u64,
    /// Bail once more fragments than this have been installed — the
    /// "excessively high numbers of dynamic paths" churn signal.
    pub max_installs: u64,
}

impl Default for BailoutPolicy {
    fn default() -> Self {
        BailoutPolicy {
            check_every_paths: 50_000,
            max_installs: 1_500,
        }
    }
}

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct DynamoConfig {
    /// Prediction scheme.
    pub scheme: Scheme,
    /// Prediction delay τ (the paper runs 10, 50, 100).
    pub delay: u64,
    /// Cycle cost model.
    pub cost: CostModel,
    /// Fragment-count limit; exceeding it flushes the cache (Dynamo
    /// flushes when the cache fills).
    pub max_fragments: usize,
    /// Phase-change flush heuristic (§6.1).
    pub flush: FlushPolicy,
    /// Bail-out policy; `None` never bails.
    pub bailout: Option<BailoutPolicy>,
    /// Staged degradation ladder for the linked engine; `None` disables
    /// it. When set, the ladder supersedes `bailout` in
    /// [`LinkedEngine`](crate::LinkedEngine) (the simulated [`Engine`]
    /// ignores it — it has no linking to degrade).
    pub degrade: Option<crate::degrade::DegradeConfig>,
    /// Path length cap in blocks.
    pub path_cap: u32,
    /// Optimization level applied to traces at install time by the linked
    /// engine (the simulated [`Engine`] executes no traces and ignores
    /// it); [`OptLevel::Full`](hotpath_vm::OptLevel::Full) by default.
    /// Every level is bit-identical in observable results.
    pub opt_level: hotpath_vm::OptLevel,
}

impl DynamoConfig {
    /// A configuration with experiment defaults for `scheme` at delay τ.
    pub fn new(scheme: Scheme, delay: u64) -> Self {
        DynamoConfig {
            scheme,
            delay,
            cost: CostModel::default(),
            max_fragments: 8_192,
            flush: FlushPolicy::Never,
            bailout: Some(BailoutPolicy::default()),
            degrade: None,
            path_cap: DEFAULT_PATH_CAP,
            opt_level: hotpath_vm::OptLevel::Full,
        }
    }

    /// Returns the configuration with `opt_level` set.
    pub fn with_opt_level(mut self, level: hotpath_vm::OptLevel) -> Self {
        self.opt_level = level;
        self
    }
}

/// Summary of one Dynamo run.
#[derive(Clone, Debug)]
pub struct DynamoOutcome {
    /// Where the cycles went.
    pub cycles: CycleBreakdown,
    /// Fragments installed over the run (across flushes).
    pub fragments_installed: u64,
    /// Live fragments at the end.
    pub fragments_live: usize,
    /// Cache flushes (capacity + phase).
    pub flushes: u64,
    /// Phase-spike flushes only.
    pub spike_flushes: u64,
    /// True if the engine bailed out to native execution.
    pub bailed_out: bool,
    /// Completed paths.
    pub paths_completed: u64,
    /// Fraction of blocks executed from the fragment cache.
    pub cached_block_fraction: f64,
    /// Total instruction slots executed.
    pub insts_executed: u64,
    /// Guard checks executed in trace-land (zero for the simulated
    /// engine, which runs no traces). The trace optimizer's target: fewer
    /// guards per cached block at higher [`OptLevel`]s.
    ///
    /// [`OptLevel`]: hotpath_vm::OptLevel
    pub guard_execs: u64,
}

impl DynamoOutcome {
    /// Speedup over native execution, in percent; negative is a slowdown.
    pub fn speedup_percent(&self, native_cycles: f64) -> f64 {
        (native_cycles / self.cycles.total() - 1.0) * 100.0
    }
}

/// Execution mode of the engine.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Mode {
    /// Interpreting (profiled).
    Interp,
    /// Executing inside a fragment at the given position.
    Cached { frag: FragmentId, pos: usize },
    /// A fragment finished on the previous event; the next event decides
    /// between a linked transfer, an extension into a longer sibling, and
    /// a cache exit.
    FragmentEnd {
        /// The fragment that just completed.
        frag: FragmentId,
        /// Its length (the position the next block would extend at).
        pos: usize,
    },
}

/// Sink keeping only the most recent completed path.
#[derive(Default, Debug)]
pub(crate) struct LastSink(pub(crate) Option<PathExecution>);

impl PathSink for LastSink {
    fn on_path(&mut self, exec: &PathExecution) {
        debug_assert!(self.0.is_none(), "one completion per event");
        self.0 = Some(*exec);
    }
}

pub(crate) enum Predictor {
    Net(NetPredictor),
    PathProfile(PathProfilePredictor),
}

impl Predictor {
    /// The predictor for `scheme` at delay τ.
    pub(crate) fn for_scheme(scheme: Scheme, delay: u64) -> Self {
        match scheme {
            Scheme::Net => Predictor::Net(NetPredictor::new(delay)),
            Scheme::PathProfile => Predictor::PathProfile(PathProfilePredictor::new(delay)),
        }
    }

    /// Clears all counters (on a cache flush).
    pub(crate) fn reset(&mut self) {
        match self {
            Predictor::Net(p) => p.reset(),
            Predictor::PathProfile(p) => p.reset(),
        }
    }
}

impl std::fmt::Debug for Predictor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Predictor::Net(_) => f.write_str("Predictor::Net"),
            Predictor::PathProfile(_) => f.write_str("Predictor::PathProfile"),
        }
    }
}

/// The Dynamo engine; drive it as the observer of a [`Vm`] run, then call
/// [`Engine::finish`].
#[derive(Debug)]
pub struct Engine {
    config: DynamoConfig,
    predictor: Predictor,
    extractor: PathExtractor<LastSink>,
    cache: FragmentCache,
    cycles: CycleBreakdown,
    mode: Mode,
    detector: Option<SpikeDetector>,
    /// Blocks of the path currently being executed.
    cur_blocks: Vec<u32>,
    cur_insts: u32,
    /// True if any block of the current path ran from the cache.
    cur_touched_cache: bool,
    /// True if the current path entered a fragment and exited early
    /// (through an exit stub) — the situation Dynamo's secondary trace
    /// heads exist for.
    cur_diverged: bool,
    /// Where the current path diverged from its fragment: the block index
    /// of the first off-trace block (tail fragments start there).
    cur_diverged_at: Option<usize>,
    /// Exit-stub counters: per exit-target block, arrivals through an
    /// unlinked stub. At τ the tail from that block becomes a fragment —
    /// Dynamo's "exits from existing traces are potential trace heads".
    exit_counts: CounterTable,
    /// Paths that already have a fragment (indexed by PathId).
    cached_paths: Vec<bool>,
    bailed: bool,
    spike_flushes: u64,
    paths_completed: u64,
    blocks_total: u64,
    blocks_cached: u64,
    insts_total: u64,
    started: bool,
}

impl Engine {
    /// Creates an engine.
    pub fn new(config: DynamoConfig) -> Self {
        let predictor = Predictor::for_scheme(config.scheme, config.delay);
        let detector = match config.flush {
            FlushPolicy::Never => None,
            FlushPolicy::OnSpike {
                window,
                factor,
                min_predictions,
            } => Some(SpikeDetector::new(window, factor, min_predictions)),
        };
        let cap = config.path_cap;
        Engine {
            config,
            predictor,
            extractor: PathExtractor::with_cap(LastSink::default(), cap),
            cache: FragmentCache::new(),
            cycles: CycleBreakdown::default(),
            mode: Mode::Interp,
            detector,
            cur_blocks: Vec::with_capacity(64),
            cur_insts: 0,
            cur_touched_cache: false,
            cur_diverged: false,
            cur_diverged_at: None,
            exit_counts: CounterTable::new(),
            cached_paths: Vec::new(),
            bailed: false,
            spike_flushes: 0,
            paths_completed: 0,
            blocks_total: 0,
            blocks_cached: 0,
            insts_total: 0,
            started: false,
        }
    }

    /// The fragment cache (inspection).
    pub fn cache(&self) -> &FragmentCache {
        &self.cache
    }

    /// True once the engine has bailed out.
    pub fn bailed_out(&self) -> bool {
        self.bailed
    }

    /// Finalizes the run into an outcome.
    pub fn finish(self) -> DynamoOutcome {
        if telemetry::enabled() {
            for (target, count) in self.exit_counts.iter() {
                if count > 0 {
                    telemetry::emit!(telemetry::Event::ExitStubHotness { target, count });
                }
            }
        }
        DynamoOutcome {
            cycles: self.cycles,
            fragments_installed: self.cache.installs(),
            fragments_live: self.cache.len(),
            flushes: self.cache.flushes(),
            spike_flushes: self.spike_flushes,
            bailed_out: self.bailed,
            paths_completed: self.paths_completed,
            cached_block_fraction: if self.blocks_total == 0 {
                0.0
            } else {
                self.blocks_cached as f64 / self.blocks_total as f64
            },
            insts_executed: self.insts_total,
            guard_execs: 0,
        }
    }

    fn is_cached_path(&self, exec: &PathExecution) -> bool {
        self.cached_paths
            .get(exec.path.index())
            .copied()
            .unwrap_or(false)
    }

    fn mark_cached(&mut self, exec: &PathExecution) {
        let i = exec.path.index();
        if i >= self.cached_paths.len() {
            self.cached_paths.resize(i + 1, false);
        }
        self.cached_paths[i] = true;
    }

    fn install_fragment(&mut self, blocks: &[u32], insts: u32) {
        if matches!(self.cache.install(blocks, insts), Ok(Some(_))) {
            self.cycles.build +=
                self.config.cost.build_fixed + self.config.cost.build_per_inst * insts as f64;
            telemetry::emit!(telemetry::Event::FragmentInstall {
                head: blocks[0],
                blocks: blocks.len() as u32,
                insts,
                installs: self.cache.installs(),
                at_path: self.paths_completed,
            });
        }
    }

    fn flush(&mut self, kind: &'static str) {
        telemetry::emit!(telemetry::Event::CacheFlush {
            kind,
            evicted: self.cache.len() as u64,
            at_path: self.paths_completed,
        });
        self.cache.flush();
        self.predictor.reset();
        self.cached_paths.clear();
        self.exit_counts.clear();
        self.mode = Mode::Interp;
    }

    /// Handles a completed, fully-interpreted path: profile, predict,
    /// install.
    fn on_interpreted_path(&mut self, exec: &PathExecution, blocks: &[u32], insts: u32) -> bool {
        let cost = self.config.cost;
        let predicted = match &mut self.predictor {
            Predictor::Net(p) => {
                if exec.start.is_net_countable() {
                    self.cycles.profiling += cost.counter_op;
                }
                p.observe(exec)
            }
            Predictor::PathProfile(p) => {
                self.cycles.profiling +=
                    cost.shift_op * exec.blocks.saturating_sub(1) as f64 + cost.table_op;
                p.observe(exec)
            }
        };
        if predicted.is_some() {
            self.install_fragment(blocks, insts);
            self.mark_cached(exec);
            return true;
        }
        false
    }
}

impl ExecutionObserver for Engine {
    fn on_block(&mut self, event: &BlockEvent) {
        let cost = self.config.cost;
        let size = event.block_size as f64;
        self.insts_total += event.block_size as u64;
        if self.bailed {
            self.cycles.native += size * cost.native_per_inst;
            return;
        }
        self.blocks_total += 1;
        let first = !self.started;
        self.started = true;

        // ---- 1. path bookkeeping --------------------------------------
        self.extractor.on_block(event);
        let completed = self.extractor.sink_mut().0.take();
        let path_started = completed.is_some() || first;
        let mut finished: Option<FinishedPath> = None;
        if completed.is_some() {
            finished = Some((
                std::mem::take(&mut self.cur_blocks),
                self.cur_insts,
                self.cur_touched_cache,
                self.cur_diverged,
                self.cur_diverged_at,
            ));
            self.cur_insts = 0;
            self.cur_touched_cache = false;
            self.cur_diverged = false;
            self.cur_diverged_at = None;
        }
        self.cur_blocks.push(event.block.as_u32());
        self.cur_insts += event.block_size;

        // ---- 2. prediction / flush / bail-out on completion ------------
        if let (Some(exec), Some((blocks, insts, touched, diverged, diverged_at))) =
            (completed, finished.as_ref())
        {
            self.paths_completed += 1;
            let mut was_prediction = false;
            // A path is observable if it ran interpreted, or if it entered
            // a fragment at its head and exited early — sibling paths
            // always look like that, and they are exactly what Dynamo's
            // exit-stub trace selection (and the path-profile scheme's own
            // counters) must keep seeing.
            if (!touched || *diverged) && !self.is_cached_path(&exec) {
                was_prediction = self.on_interpreted_path(&exec, blocks, *insts);
            }
            // Exit-stub trace heads: count arrivals at the off-trace block
            // of a divergence; at τ the executed tail from that block
            // becomes its own fragment, so the stub can be patched.
            if !was_prediction {
                if let Some(at) = diverged_at {
                    if *at < blocks.len() {
                        let target = blocks[*at];
                        self.cycles.profiling += cost.counter_op;
                        let c = self.exit_counts.slot(target);
                        *c += 1;
                        if *c >= self.config.delay {
                            *c = 0;
                            let tail = &blocks[*at..];
                            // Instruction count of the tail is approximated
                            // proportionally; exact per-block sizes are not
                            // retained.
                            let tail_insts = (*insts as u64 * tail.len() as u64
                                / blocks.len().max(1) as u64)
                                as u32;
                            self.install_fragment(tail, tail_insts.max(1));
                            was_prediction = true;
                        }
                    }
                }
            }
            if let Some(det) = &mut self.detector {
                if det.observe(was_prediction) {
                    self.spike_flushes += 1;
                    self.flush("spike");
                }
            }
            if self.cache.len() > self.config.max_fragments {
                self.flush("capacity");
            }
            if let Some(bp) = self.config.bailout {
                if self.paths_completed % bp.check_every_paths == 0
                    && self.cache.installs() > bp.max_installs
                {
                    self.bailed = true;
                    telemetry::emit!(telemetry::Event::Bailout {
                        at_path: self.paths_completed,
                        installs: self.cache.installs(),
                    });
                    self.cycles.native += size * cost.native_per_inst;
                    return;
                }
            }
        }

        // ---- 3. execution-mode simulation ------------------------------
        match self.mode {
            Mode::Cached { frag, pos } => {
                let matches = match self.cache.fragment(frag) {
                    Ok(f) => pos < f.len() && f.blocks()[pos] == event.block.as_u32(),
                    Err(_) => false,
                };
                if matches {
                    self.cycles.trace += size * cost.trace_per_inst;
                    self.blocks_cached += 1;
                    self.cur_touched_cache = true;
                    let done = self
                        .cache
                        .fragment(frag)
                        .map_or(true, |f| pos + 1 == f.len());
                    if done {
                        self.cache.note_completion(frag);
                        self.mode = Mode::FragmentEnd { frag, pos: pos + 1 };
                    } else {
                        self.mode = Mode::Cached { frag, pos: pos + 1 };
                    }
                    return;
                }
                // Divergence: try a linked sibling fragment first.
                if let Some(sib) = self.cache.divert(frag, pos, event.block.as_u32()) {
                    self.cycles.transitions += cost.link_transfer;
                    telemetry::emit!(telemetry::Event::Transition {
                        kind: "link_sibling",
                        at_block: self.blocks_total,
                    });
                    self.cache.note_entry(sib);
                    self.cycles.trace += size * cost.trace_per_inst;
                    self.blocks_cached += 1;
                    self.cur_touched_cache = true;
                    let done = self
                        .cache
                        .fragment(sib)
                        .map_or(true, |f| pos + 1 == f.len());
                    self.mode = if done {
                        self.cache.note_completion(sib);
                        Mode::FragmentEnd {
                            frag: sib,
                            pos: pos + 1,
                        }
                    } else {
                        Mode::Cached {
                            frag: sib,
                            pos: pos + 1,
                        }
                    };
                    return;
                }
                // A patched stub may jump straight into a tail fragment
                // starting at the off-trace block.
                if let Some(tf) = self.cache.entry_for(event.block) {
                    self.cycles.transitions += cost.link_transfer;
                    telemetry::emit!(telemetry::Event::Transition {
                        kind: "link_stub",
                        at_block: self.blocks_total,
                    });
                    self.cache.note_entry(tf);
                    self.cycles.trace += size * cost.trace_per_inst;
                    self.blocks_cached += 1;
                    self.cur_touched_cache = true;
                    self.mode = if self.cache.fragment(tf).map_or(true, |f| f.len() == 1) {
                        self.cache.note_completion(tf);
                        Mode::FragmentEnd { frag: tf, pos: 1 }
                    } else {
                        Mode::Cached { frag: tf, pos: 1 }
                    };
                    return;
                }
                // Exit through an unlinked stub; the block is handled
                // below and the exit target is counted at completion. The
                // off-trace block is the one just pushed onto the current
                // path.
                self.cycles.transitions += cost.early_exit;
                telemetry::emit!(telemetry::Event::Transition {
                    kind: "early_exit",
                    at_block: self.blocks_total,
                });
                self.cur_diverged = true;
                self.cur_diverged_at = Some(self.cur_blocks.len() - 1);
                self.mode = Mode::Interp;
            }
            Mode::FragmentEnd { frag, pos } => {
                if path_started {
                    if let Some(next) = self.cache.entry_for(event.block) {
                        // Fragment linking: direct transfer, no context
                        // switch; a fragment looping back to itself is the
                        // trace's own backward branch and costs nothing.
                        if next != frag {
                            self.cycles.transitions += cost.link_transfer;
                            telemetry::emit!(telemetry::Event::Transition {
                                kind: "link_next",
                                at_block: self.blocks_total,
                            });
                        }
                        self.cache.note_entry(next);
                        self.cycles.trace += size * cost.trace_per_inst;
                        self.blocks_cached += 1;
                        self.cur_touched_cache = true;
                        self.mode = if self.cache.fragment(next).map_or(true, |f| f.len() == 1) {
                            self.cache.note_completion(next);
                            Mode::FragmentEnd { frag: next, pos: 1 }
                        } else {
                            Mode::Cached { frag: next, pos: 1 }
                        };
                        return;
                    }
                } else if let Some(ext) = self.cache.divert(frag, pos, event.block.as_u32()) {
                    // The current path extends past this fragment's end; a
                    // longer sibling continues with the next block.
                    self.cycles.transitions += cost.link_transfer;
                    telemetry::emit!(telemetry::Event::Transition {
                        kind: "link_extend",
                        at_block: self.blocks_total,
                    });
                    self.cache.note_entry(ext);
                    self.cycles.trace += size * cost.trace_per_inst;
                    self.blocks_cached += 1;
                    self.cur_touched_cache = true;
                    self.mode = if self
                        .cache
                        .fragment(ext)
                        .map_or(true, |f| f.len() == pos + 1)
                    {
                        self.cache.note_completion(ext);
                        Mode::FragmentEnd {
                            frag: ext,
                            pos: pos + 1,
                        }
                    } else {
                        Mode::Cached {
                            frag: ext,
                            pos: pos + 1,
                        }
                    };
                    return;
                } else {
                    // The path runs off the cached prefix: an exit stub —
                    // observable, so a longer fragment (or a tail fragment
                    // at this block) can be selected.
                    self.cur_diverged = true;
                    self.cur_diverged_at = Some(self.cur_blocks.len() - 1);
                }
                self.cycles.transitions += cost.cache_exit;
                telemetry::emit!(telemetry::Event::Transition {
                    kind: "cache_exit",
                    at_block: self.blocks_total,
                });
                self.mode = Mode::Interp;
            }
            Mode::Interp => {}
        }

        // ---- 4. interpreted execution of this block --------------------
        if path_started {
            if let Some(fid) = self.cache.entry_for(event.block) {
                self.cycles.transitions += cost.cache_entry;
                telemetry::emit!(telemetry::Event::Transition {
                    kind: "cache_enter",
                    at_block: self.blocks_total,
                });
                self.cache.note_entry(fid);
                self.cycles.trace += size * cost.trace_per_inst;
                self.blocks_cached += 1;
                self.cur_touched_cache = true;
                self.mode = if self.cache.fragment(fid).map_or(true, |f| f.len() == 1) {
                    self.cache.note_completion(fid);
                    Mode::FragmentEnd { frag: fid, pos: 1 }
                } else {
                    Mode::Cached { frag: fid, pos: 1 }
                };
                return;
            }
        }
        self.cycles.interp += size * cost.interp_per_inst;
    }

    fn on_halt(&mut self) {
        if self.bailed {
            return;
        }
        self.extractor.on_halt();
        if self.extractor.sink_mut().0.take().is_some() {
            self.paths_completed += 1;
        }
    }
}

/// Cycles for a plain native run of `program` (the Figure 5 baseline).
///
/// # Errors
///
/// Propagates VM failures.
pub fn run_native(program: &Program) -> Result<f64, VmError> {
    let mut counter = hotpath_vm::CountingObserver::default();
    let stats = Vm::new(program).run(&mut counter)?;
    Ok(stats.insts_executed as f64 * CostModel::default().native_per_inst)
}

/// Runs `program` under the Dynamo engine.
///
/// # Errors
///
/// Propagates VM failures.
pub fn run_dynamo(program: &Program, config: &DynamoConfig) -> Result<DynamoOutcome, VmError> {
    let mut engine = Engine::new(config.clone());
    Vm::new(program).run(&mut engine)?;
    Ok(engine.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotpath_ir::builder::{FunctionBuilder, ProgramBuilder};
    use hotpath_ir::CmpOp;

    /// Tight single-path loop: the best case for trace caching.
    fn hot_loop(trip: i64) -> Program {
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
        fb.add_imm(i, i, 0);
        fb.add_imm(i, i, 0);
        fb.add_imm(i, i, 0);
        fb.jump(header);
        fb.switch_to(exit);
        fb.halt();
        let mut pb = ProgramBuilder::new();
        pb.add_function(fb).unwrap();
        pb.finish().unwrap()
    }

    /// Loop alternating between two paths: exercises secondary traces and
    /// sibling linking.
    fn two_path_loop(trip: i64) -> Program {
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
        let c = fb.cmp_imm(CmpOp::Lt, i, trip);
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
        pb.finish().unwrap()
    }

    #[test]
    fn hot_loop_net_gets_a_speedup() {
        let p = hot_loop(200_000);
        let native = run_native(&p).unwrap();
        let out = run_dynamo(&p, &DynamoConfig::new(Scheme::Net, 50)).unwrap();
        assert!(!out.bailed_out);
        assert!(out.fragments_installed >= 1);
        assert!(
            out.cached_block_fraction > 0.95,
            "cached fraction {}",
            out.cached_block_fraction
        );
        let s = out.speedup_percent(native);
        assert!(s > 5.0, "speedup {s:.1}% should be clearly positive");
    }

    #[test]
    fn two_path_loop_caches_both_siblings() {
        let p = two_path_loop(200_000);
        let out = run_dynamo(&p, &DynamoConfig::new(Scheme::Net, 50)).unwrap();
        // Primary + secondary fragments for the two loop paths.
        assert!(
            out.fragments_installed >= 2,
            "installed {}",
            out.fragments_installed
        );
        assert!(
            out.cached_block_fraction > 0.9,
            "cached fraction {}",
            out.cached_block_fraction
        );
        let native = run_native(&p).unwrap();
        assert!(out.speedup_percent(native) > 0.0);
    }

    #[test]
    fn sibling_paths_both_reach_the_cache() {
        // NET's head counter resets after each prediction (exit-stub
        // counting), so the second loop path is installed after another
        // tau uncovered arrivals and steady state runs fully cached.
        let p = two_path_loop(200_000);
        let out = run_dynamo(&p, &DynamoConfig::new(Scheme::Net, 50)).unwrap();
        assert!(out.fragments_installed >= 2);
        assert!(out.cached_block_fraction > 0.95);
    }

    #[test]
    fn path_profile_pays_more_profiling_overhead() {
        let p = two_path_loop(100_000);
        let net = run_dynamo(&p, &DynamoConfig::new(Scheme::Net, 50)).unwrap();
        let pp = run_dynamo(&p, &DynamoConfig::new(Scheme::PathProfile, 50)).unwrap();
        assert!(
            pp.cycles.profiling > net.cycles.profiling,
            "pp {} vs net {}",
            pp.cycles.profiling,
            net.cycles.profiling
        );
    }

    #[test]
    fn native_baseline_counts_instructions() {
        let p = hot_loop(1_000);
        let native = run_native(&p).unwrap();
        assert!(native > 1_000.0);
    }

    #[test]
    fn interp_only_when_cache_empty() {
        // With an absurd delay nothing is ever predicted: all interpreted.
        let p = hot_loop(5_000);
        let out = run_dynamo(&p, &DynamoConfig::new(Scheme::Net, u64::MAX)).unwrap();
        assert_eq!(out.fragments_installed, 0);
        assert_eq!(out.cached_block_fraction, 0.0);
        assert!(out.cycles.trace == 0.0);
        assert!(out.cycles.interp > 0.0);
        let native = run_native(&p).unwrap();
        assert!(out.speedup_percent(native) < -80.0, "pure interpretation");
    }

    /// Regression: a path that runs an entire fragment and then continues
    /// (the fragment is a strict prefix) must still reach full cache
    /// coverage via an exit-stub tail fragment — early builds interpreted
    /// such tails forever.
    #[test]
    fn prefix_fragment_grows_a_tail() {
        // A loop whose iterations alternate between a short path and a
        // long path sharing the short one as a prefix: the inner loop
        // usually runs one iteration (short), but every other outer
        // iteration runs two (the long variant).
        let mut fb = FunctionBuilder::new("main");
        let i = fb.reg();
        let j = fb.reg();
        let header = fb.new_block();
        let body = fb.new_block();
        let inner_hdr = fb.new_block();
        let inner_body = fb.new_block();
        let exit_inner = fb.new_block();
        let exit = fb.new_block();
        fb.const_(i, 0);
        fb.jump(header);
        fb.switch_to(header);
        let c = fb.cmp_imm(CmpOp::Lt, i, 100_000);
        fb.branch(c, body, exit);
        fb.switch_to(body);
        fb.and_imm(j, i, 1);
        fb.add_imm(j, j, 1); // 1 or 2 inner trips
        fb.jump(inner_hdr);
        fb.switch_to(inner_hdr);
        let more = fb.cmp_imm(CmpOp::Gt, j, 0);
        fb.branch(more, inner_body, exit_inner);
        fb.switch_to(inner_body);
        fb.add_imm(j, j, -1);
        fb.jump(inner_hdr);
        fb.switch_to(exit_inner);
        fb.add_imm(i, i, 1);
        fb.jump(header);
        fb.switch_to(exit);
        fb.halt();
        let mut pb = ProgramBuilder::new();
        pb.add_function(fb).unwrap();
        let p = pb.finish().unwrap();

        let out = run_dynamo(&p, &DynamoConfig::new(Scheme::Net, 50)).unwrap();
        assert!(
            out.cached_block_fraction > 0.95,
            "tail fragments must cover the long variant: cached {}",
            out.cached_block_fraction
        );
        let native = run_native(&p).unwrap();
        assert!(out.speedup_percent(native) > 0.0);
    }

    /// Regression: mid-fragment divergence toward a block that heads a
    /// tail fragment must transfer into it (patched exit stub), not exit
    /// to the interpreter.
    #[test]
    fn divergence_enters_tail_fragments() {
        let p = two_path_loop(300_000);
        let out = run_dynamo(&p, &DynamoConfig::new(Scheme::Net, 50)).unwrap();
        // In steady state nearly everything runs cached; the transitions
        // bucket stays small relative to trace cycles (no perpetual
        // early-exit churn).
        assert!(
            out.cycles.transitions < out.cycles.trace * 0.2,
            "transitions {} vs trace {}",
            out.cycles.transitions,
            out.cycles.trace
        );
        assert!(out.cached_block_fraction > 0.95);
    }

    #[test]
    fn flush_policy_resets_cache() {
        let p = two_path_loop(50_000);
        let mut cfg = DynamoConfig::new(Scheme::Net, 10);
        // Tiny cache: constant capacity flushes.
        cfg.max_fragments = 1;
        let out = run_dynamo(&p, &cfg).unwrap();
        assert!(out.flushes >= 1);
    }
}
