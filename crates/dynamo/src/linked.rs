//! The linked-trace Dynamo engine: profiling and policy identical to the
//! simulated [`Engine`](crate::Engine), execution real.
//!
//! [`Engine`](crate::Engine) *simulates* fragment-cache execution with the
//! cycle cost model: every block still flows through the interpreter's
//! per-block dispatch and observer call, which is why the `dynamo` bench
//! mode cannot beat `native` in wall-clock terms. [`LinkedEngine`] drives
//! [`Vm::run_linked`] instead: when the predictor fires, the engine
//! commands the VM to compile the predicted path into a contiguous trace,
//! and subsequent arrivals at the head execute the whole superblock with
//! no per-block dispatch and no per-block observer call — one batched
//! [`TraceExcursion`] per entry. Guard exits whose targets head other
//! traces are patched into direct links, so hot loop nests run
//! trace→trace (Dynamo's fragment linking); a cache flush severs every
//! link.
//!
//! Trace selection follows the simulated engine's policy: NET or
//! path-profile prediction over interpreted paths installs primary
//! fragments, and guard-fail exits are counted per target exactly like
//! Dynamo's exit stubs — at τ arrivals the target is *armed* and the next
//! interpreted path from it installs as a tail fragment, which linking
//! then stitches to its parent. The cycle model is charged from the real
//! counts the trace backend reports ([`CostModel::excursion_transitions`]),
//! so the simulated and executed backends can be cross-checked.
//!
//! The two schemes profile as the paper says they do. Under NET the engine
//! runs only the path boundary rules ([`PathSegmenter`]) and one counter
//! per head: the tail it installs is the block list it records anyway, and
//! a tail already cached is recognized by comparing that list with the
//! lists cached for its head. No path is ever given an identity. Under
//! path profiling every interpreted path is extracted and interned
//! ([`PathExtractor`]), and its counter is the interned path's — the
//! per-branch and per-path cost NET avoids.
//!
//! [`CostModel::excursion_transitions`]: crate::CostModel::excursion_transitions

use std::collections::VecDeque;

use hotpath_core::{HotPathPredictor, NetPredictor, PathProfilePredictor};
use hotpath_ir::dense::CounterTable;
use hotpath_ir::fasthash::FxHashSet;
use hotpath_ir::Program;
use hotpath_profiles::{BackwardRule, Boundary, PathExtractor, PathId, PathSegmenter, PathSpan};
use hotpath_telemetry as telemetry;
use hotpath_vm::{
    BlockEvent, ExecutionObserver, RunStats, TraceCommand, TraceController, TraceExcursion,
    TraceExitReason, TransferKind, Vm, VmError,
};

use crate::cost::CycleBreakdown;
use crate::degrade::{LadderMode, LadderStep, Watchdog};
use crate::engine::{DynamoConfig, DynamoOutcome, LastSink, Scheme};
use crate::fragment::FragmentCache;
use crate::phases::{FlushPolicy, SpikeDetector};

/// Result of one linked-trace Dynamo run.
#[derive(Clone, Debug)]
pub struct LinkedRun {
    /// Engine-side outcome: cycle breakdown, fragments, flushes, paths.
    pub outcome: DynamoOutcome,
    /// The VM's run statistics — bit-identical to a plain interpreted run
    /// of the same program.
    pub stats: RunStats,
}

/// One installed fragment in exportable form: its block sequence and
/// instruction count — everything needed to re-install it after a restart.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FragmentRecord {
    /// Global block ids, head first.
    pub blocks: Vec<u32>,
    /// Straight-line instructions covered by the fragment.
    pub insts: u32,
}

/// Engine-side warm state extracted for persistence: what a restarted
/// engine needs to skip the τ-warm-up phase.
///
/// This is policy state, not execution state — restoring it (or not)
/// never changes a run's `RunStats`, memory, or globals, only how soon
/// traces execute again. Arrival statistics (fragment entry/completion
/// counts, cycle charges, path totals) restart at zero: they describe the
/// process that ran, not the knowledge worth carrying across a restart.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct EngineWarmState {
    /// Installed fragments, in install order.
    pub fragments: Vec<FragmentRecord>,
    /// Exit-stub arrival counters: (guard-fail target, arrivals).
    pub exit_counts: Vec<(u32, u64)>,
    /// Targets whose stub counter already reached τ.
    pub armed: Vec<u32>,
    /// NET per-head counters (empty for the path-profile scheme, whose
    /// table-based state is rebuilt by observation instead).
    pub net_counters: Vec<(u32, u64)>,
}

impl EngineWarmState {
    /// True when there is nothing to import: no fragments, counters, or
    /// armed targets.
    pub fn is_empty(&self) -> bool {
        self.fragments.is_empty()
            && self.exit_counts.is_empty()
            && self.armed.is_empty()
            && self.net_counters.is_empty()
    }

    /// Checks the warm state against a program's block-id space before it
    /// is imported into a live engine. Snapshots exported by the same
    /// program always pass; the check exists for state that arrives from
    /// elsewhere — a cross-session profile store, a snapshot taken on a
    /// different build — where a dangling block id would otherwise panic
    /// the install path or, worse, silently install a trace for the wrong
    /// blocks. Warm state is policy only, so rejecting it is always safe:
    /// the session just starts cold.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violation:
    /// an empty fragment, or any block/target/head id at or beyond
    /// `block_limit`.
    pub fn validate(&self, block_limit: u32) -> Result<(), String> {
        for fragment in &self.fragments {
            if fragment.blocks.is_empty() {
                return Err("warm state carries a fragment with no blocks".into());
            }
            for &b in &fragment.blocks {
                if b >= block_limit {
                    return Err(format!(
                        "fragment block {b} outside the program's {block_limit}-block space"
                    ));
                }
            }
        }
        for &(target, _) in &self.exit_counts {
            if target >= block_limit {
                return Err(format!(
                    "exit-stub target {target} outside the program's {block_limit}-block space"
                ));
            }
        }
        for &target in &self.armed {
            if target >= block_limit {
                return Err(format!(
                    "armed target {target} outside the program's {block_limit}-block space"
                ));
            }
        }
        for &(head, _) in &self.net_counters {
            if head >= block_limit {
                return Err(format!(
                    "NET counter head {head} outside the program's {block_limit}-block space"
                ));
            }
        }
        Ok(())
    }
}

/// How the engine finds, counts and remembers interpreted paths.
#[derive(Debug)]
enum Profiler {
    /// NET (§4.1): boundaries straight from the block events, one counter
    /// per head.
    Net {
        predictor: NetPredictor,
        segmenter: PathSegmenter,
        /// The block lists of the tails marked cached (see
        /// [`Profiler::mark`]), head first: a completed path whose list is
        /// here is not profiled again. Hashed, not scanned per head: in an
        /// ingest replay a head of go or gcc collects hundreds of tails.
        marked: FxHashSet<Box<[u32]>>,
    },
    /// Path profiling (§4): every path extracted, interned and counted.
    PathProfile {
        predictor: PathProfilePredictor,
        extractor: PathExtractor<LastSink>,
        /// Paths marked cached (indexed by PathId).
        marked: Vec<bool>,
    },
}

impl Profiler {
    fn new(config: &DynamoConfig) -> Self {
        match config.scheme {
            Scheme::Net => Profiler::Net {
                predictor: NetPredictor::new(config.delay),
                segmenter: PathSegmenter::new(config.path_cap, BackwardRule::default()),
                marked: FxHashSet::default(),
            },
            Scheme::PathProfile => Profiler::PathProfile {
                predictor: PathProfilePredictor::new(config.delay),
                extractor: PathExtractor::with_cap(LastSink::default(), config.path_cap),
                marked: Vec::new(),
            },
        }
    }

    /// Feeds one interpreted block; returns the path it completed, with
    /// its interned identity under path profiling.
    #[inline]
    fn on_block(&mut self, event: &BlockEvent) -> Option<(PathSpan, Option<PathId>)> {
        match self {
            Profiler::Net { segmenter, .. } => match segmenter.on_block(event) {
                Boundary::Split(span) => Some((span, None)),
                Boundary::Extend | Boundary::Begin => None,
            },
            Profiler::PathProfile { extractor, .. } => Self::extract(extractor, event),
        }
    }

    /// Path profiling's per-block work, kept out of NET's inlined path.
    #[inline(never)]
    fn extract(
        extractor: &mut PathExtractor<LastSink>,
        event: &BlockEvent,
    ) -> Option<(PathSpan, Option<PathId>)> {
        extractor.on_block(event);
        let exec = extractor.sink_mut().0.take()?;
        Some((exec.span(), Some(exec.path)))
    }

    /// Ends the run; true when an open path completed.
    fn on_halt(&mut self) -> bool {
        match self {
            Profiler::Net { segmenter, .. } => segmenter.on_halt().is_some(),
            Profiler::PathProfile { extractor, .. } => {
                extractor.on_halt();
                extractor.sink_mut().0.take().is_some()
            }
        }
    }

    /// True when a completed path is profiled: it is not marked cached
    /// and, under NET, it starts at a backward-branch target (the only
    /// heads with counters).
    fn profiles(&self, span: &PathSpan, path: Option<PathId>, blocks: &[u32]) -> bool {
        match self {
            Profiler::Net { marked, .. } => {
                span.start.is_net_countable() && !marked.contains(blocks)
            }
            Profiler::PathProfile { marked, .. } => {
                let path = path.expect("path profiling interns every path");
                !marked.get(path.index()).copied().unwrap_or(false)
            }
        }
    }

    /// Marks a completed path cached: it is not profiled again until the
    /// next flush.
    fn mark(&mut self, path: Option<PathId>, blocks: &[u32]) {
        match self {
            Profiler::Net { marked, .. } => {
                marked.insert(blocks.into());
            }
            Profiler::PathProfile { marked, .. } => {
                let i = path.expect("path profiling interns every path").index();
                if i >= marked.len() {
                    marked.resize(i + 1, false);
                }
                marked[i] = true;
            }
        }
    }

    /// Clears counters and marks (on a cache flush).
    fn reset(&mut self) {
        match self {
            Profiler::Net {
                predictor, marked, ..
            } => {
                predictor.reset();
                marked.clear();
            }
            Profiler::PathProfile {
                predictor, marked, ..
            } => {
                predictor.reset();
                marked.clear();
            }
        }
    }
}

/// The Dynamo engine for [`Vm::run_linked`]: observes interpreted blocks,
/// receives batched trace excursions, and feeds install/flush commands
/// back to the VM's trace backend.
#[derive(Debug)]
pub struct LinkedEngine {
    config: DynamoConfig,
    profiler: Profiler,
    /// Engine-side mirror of the VM's trace cache: idempotent installs,
    /// sibling bookkeeping, capacity policy, outcome statistics.
    mirror: FragmentCache,
    /// Commands awaiting the VM's next poll.
    pending: VecDeque<TraceCommand>,
    cycles: CycleBreakdown,
    detector: Option<SpikeDetector>,
    /// Exit-stub counters: arrivals per guard-fail target (Dynamo counts
    /// arrivals through unlinked exit stubs the same way).
    exit_counts: CounterTable,
    /// Guard-fail targets whose stub counter reached τ: the next completed
    /// interpreted path starting there installs as a tail fragment.
    armed: Vec<u32>,
    /// Degradation-ladder health monitor; `None` when the ladder is off.
    watchdog: Option<Watchdog>,
    /// Blocks of the interpreted path currently being accumulated.
    cur_blocks: Vec<u32>,
    /// An empty buffer that replaces `cur_blocks` when a path completes,
    /// so completing a path allocates nothing.
    spare_blocks: Vec<u32>,
    cur_insts: u32,
    /// Set after every excursion: the next interpreted block restarts path
    /// segmentation (the pre-excursion path tail ran in trace-land,
    /// unobserved, so it cannot be completed honestly).
    resume_pending: bool,
    bailed: bool,
    spike_flushes: u64,
    paths_completed: u64,
    /// τ triggers over the whole run (the predictor's own count restarts at
    /// every flush).
    predictions: u64,
    blocks_total: u64,
    blocks_cached: u64,
    insts_total: u64,
    guard_execs: u64,
}

impl LinkedEngine {
    /// Creates an engine.
    pub fn new(config: DynamoConfig) -> Self {
        let profiler = Profiler::new(&config);
        let detector = match config.flush {
            FlushPolicy::Never => None,
            FlushPolicy::OnSpike {
                window,
                factor,
                min_predictions,
            } => Some(SpikeDetector::new(window, factor, min_predictions)),
        };
        let watchdog = config.degrade.map(Watchdog::new);
        LinkedEngine {
            config,
            profiler,
            mirror: FragmentCache::new(),
            pending: VecDeque::new(),
            cycles: CycleBreakdown::default(),
            detector,
            exit_counts: CounterTable::new(),
            armed: Vec::new(),
            watchdog,
            cur_blocks: Vec::with_capacity(64),
            spare_blocks: Vec::with_capacity(64),
            cur_insts: 0,
            resume_pending: false,
            bailed: false,
            spike_flushes: 0,
            paths_completed: 0,
            predictions: 0,
            blocks_total: 0,
            blocks_cached: 0,
            insts_total: 0,
            guard_execs: 0,
        }
    }

    /// The engine-side fragment cache (inspection).
    pub fn cache(&self) -> &FragmentCache {
        &self.mirror
    }

    /// True once the engine has bailed out.
    pub fn bailed_out(&self) -> bool {
        self.bailed
    }

    /// The degradation ladder's current rung. [`LadderMode::FullLinking`]
    /// when the ladder is disabled.
    pub fn mode(&self) -> LadderMode {
        self.watchdog
            .as_ref()
            .map_or(LadderMode::FullLinking, Watchdog::mode)
    }

    /// Completed interpreted paths observed so far.
    pub fn paths_completed(&self) -> u64 {
        self.paths_completed
    }

    /// Predictions (τ triggers) over the run so far, across flushes.
    pub fn predictions(&self) -> u64 {
        self.predictions
    }

    /// The configuration the engine was built with.
    pub fn config(&self) -> &DynamoConfig {
        &self.config
    }

    /// Requests a full cache flush (engine mirror and, via the command
    /// queue, the VM's trace cache). A serving front-end uses this to
    /// evict a session's traces on demand; like any flush it affects
    /// speed only, never results.
    pub fn request_flush(&mut self) {
        self.flush("external");
    }

    /// Extracts the warm state worth persisting across a restart:
    /// installed fragments, exit-stub counters, armed targets, and NET
    /// head counters.
    pub fn export_warm_state(&self) -> EngineWarmState {
        let net_counters = match &self.profiler {
            Profiler::Net { predictor, .. } => predictor.export_counters(),
            Profiler::PathProfile { .. } => Vec::new(),
        };
        EngineWarmState {
            fragments: self
                .mirror
                .iter()
                .map(|(_, f)| FragmentRecord {
                    blocks: f.blocks().to_vec(),
                    insts: f.insts(),
                })
                .collect(),
            exit_counts: self
                .exit_counts
                .iter()
                .filter(|&(_, count)| count > 0)
                .collect(),
            armed: self.armed.clone(),
            net_counters,
        }
    }

    /// Re-installs warm state exported by
    /// [`LinkedEngine::export_warm_state`] into a fresh engine. Fragments
    /// re-enter through the normal install path, so the VM's trace cache
    /// is rebuilt by the queued [`TraceCommand::Install`]s the next time
    /// it polls. Path segmentation restarts at the next observed block (as
    /// after an excursion), because the interrupted path's prefix was not
    /// carried across the restart.
    pub fn import_warm_state(&mut self, warm: &EngineWarmState) {
        for fragment in &warm.fragments {
            self.install(&fragment.blocks, fragment.insts.max(1));
        }
        for &(target, count) in &warm.exit_counts {
            *self.exit_counts.slot(target) = count;
        }
        // First occurrence wins, so an exported list round-trips in order;
        // the set keeps a list of millions of entries linear.
        let mut seen: FxHashSet<u32> = self.armed.iter().copied().collect();
        self.armed
            .extend(warm.armed.iter().copied().filter(|&t| seen.insert(t)));
        if let Profiler::Net { predictor, .. } = &mut self.profiler {
            predictor.import_counters(&warm.net_counters);
        }
        self.resume_pending = true;
    }

    fn interp_only(&self) -> bool {
        self.mode() == LadderMode::InterpOnly
    }

    /// Applies a watchdog decision: telemetry plus the commands that
    /// realize the new rung in the VM's trace cache.
    fn apply_step(&mut self, step: LadderStep) {
        match step {
            LadderStep::Down { from, to } => {
                telemetry::emit!(telemetry::Event::ModeDegraded {
                    from: from.as_str(),
                    to: to.as_str(),
                    at_path: self.paths_completed,
                });
                match to {
                    LadderMode::NoLink => {
                        self.pending.push_back(TraceCommand::SetLinking(false));
                    }
                    LadderMode::InterpOnly => self.flush("degrade"),
                    LadderMode::FullLinking => {}
                }
            }
            LadderStep::Up { from, to } => {
                telemetry::emit!(telemetry::Event::ModeRepromoted {
                    from: from.as_str(),
                    to: to.as_str(),
                    at_path: self.paths_completed,
                });
                if to == LadderMode::FullLinking {
                    self.pending.push_back(TraceCommand::SetLinking(true));
                }
            }
        }
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
        // Ending at the ladder's bottom rung is reported as a bail-out:
        // the run finished without trace execution, the same observable
        // condition the wholesale bail-out reports.
        let degraded_out = self.mode() == LadderMode::InterpOnly;
        DynamoOutcome {
            cycles: self.cycles,
            fragments_installed: self.mirror.installs(),
            fragments_live: self.mirror.len(),
            flushes: self.mirror.flushes(),
            spike_flushes: self.spike_flushes,
            bailed_out: self.bailed || degraded_out,
            paths_completed: self.paths_completed,
            cached_block_fraction: if self.blocks_total == 0 {
                0.0
            } else {
                self.blocks_cached as f64 / self.blocks_total as f64
            },
            insts_executed: self.insts_total,
            guard_execs: self.guard_execs,
        }
    }

    /// Installs a fragment in the mirror and, when it anchors a new head,
    /// commands the VM to compile it into a trace.
    fn install(&mut self, blocks: &[u32], insts: u32) {
        if self.interp_only() {
            // Bottom rung: no new traces until the watchdog re-promotes.
            return;
        }
        let Ok((id, new_head)) = self.mirror.install_anchoring(blocks, insts) else {
            // An unrecordable path (defensively: empty) is simply not
            // cached; the run continues interpreted.
            return;
        };
        if id.is_some() {
            self.cycles.build +=
                self.config.cost.build_fixed + self.config.cost.build_per_inst * insts as f64;
            telemetry::emit!(telemetry::Event::FragmentInstall {
                head: blocks[0],
                blocks: blocks.len() as u32,
                insts,
                installs: self.mirror.installs(),
                at_path: self.paths_completed,
            });
            if new_head {
                self.pending
                    .push_back(TraceCommand::Install(blocks.to_vec()));
            }
        }
    }

    fn flush(&mut self, kind: &'static str) {
        telemetry::emit!(telemetry::Event::CacheFlush {
            kind,
            evicted: self.mirror.len() as u64,
            at_path: self.paths_completed,
        });
        if kind != "degrade" {
            // The ladder's own flush must not count against the next
            // window's flush budget.
            if let Some(w) = &mut self.watchdog {
                w.observe_flush();
            }
        }
        self.mirror.flush();
        self.profiler.reset();
        self.exit_counts.clear();
        self.armed.clear();
        self.pending.push_back(TraceCommand::Flush);
    }

    /// Counts a profiled path (see [`Profiler::profiles`]); true when it is
    /// predicted hot. Identical charging to the simulated engine.
    fn predicts(&mut self, span: &PathSpan, path: Option<PathId>) -> bool {
        let cost = self.config.cost;
        match &mut self.profiler {
            Profiler::Net { predictor, .. } => {
                self.cycles.profiling += cost.counter_op;
                predictor.observe_head(span.head)
            }
            Profiler::PathProfile { predictor, .. } => {
                self.cycles.profiling +=
                    cost.shift_op * span.blocks.saturating_sub(1) as f64 + cost.table_op;
                let exec = span.with_path(path.expect("path profiling interns every path"));
                predictor.observe(&exec).is_some()
            }
        }
    }

    /// After an excursion the open interpreted path is stale (its tail ran
    /// in trace-land, unobserved): restarts segmentation at `event`'s block
    /// by feeding a synthetic Start, which begins a path without completing
    /// the stale one.
    #[inline(never)]
    fn restart(&mut self, event: &BlockEvent) {
        self.resume_pending = false;
        self.cur_blocks.clear();
        self.cur_insts = 0;
        let completed = self.profiler.on_block(&BlockEvent {
            from: None,
            kind: TransferKind::Start,
            backward: false,
            ..*event
        });
        debug_assert!(completed.is_none(), "a Start completes no path");
    }

    /// `event` ended the open path `span`: hands the recorded blocks to
    /// [`LinkedEngine::on_completed_path`] and starts recording the next
    /// path at `event`'s block.
    #[inline(never)]
    fn complete(&mut self, span: &PathSpan, path: Option<PathId>, event: &BlockEvent) {
        let spare = std::mem::take(&mut self.spare_blocks);
        let mut blocks = std::mem::replace(&mut self.cur_blocks, spare);
        let insts = std::mem::replace(&mut self.cur_insts, event.block_size);
        self.cur_blocks.push(event.block.as_u32());
        self.on_completed_path(span, path, &blocks, insts);
        blocks.clear();
        self.spare_blocks = blocks;
    }

    fn on_completed_path(
        &mut self,
        span: &PathSpan,
        path: Option<PathId>,
        blocks: &[u32],
        insts: u32,
    ) {
        self.paths_completed += 1;
        let mut was_prediction = false;
        if self.profiler.profiles(span, path, blocks) && self.predicts(span, path) {
            self.predictions += 1;
            self.install(blocks, insts);
            self.profiler.mark(path, blocks);
            was_prediction = true;
        }
        // Armed exit-stub targets: the first interpreted path from a hot
        // guard-fail target becomes the tail fragment Dynamo would record
        // from that exit stub.
        if !was_prediction {
            let head = span.head.as_u32();
            if let Some(i) = self.armed.iter().position(|&h| h == head) {
                if blocks.first() == Some(&head) {
                    self.armed.swap_remove(i);
                    self.install(blocks, insts.max(1));
                    self.profiler.mark(path, blocks);
                    was_prediction = true;
                }
            }
        }
        if let Some(det) = &mut self.detector {
            if det.observe(was_prediction) {
                self.spike_flushes += 1;
                self.flush("spike");
            }
        }
        if self.mirror.len() > self.config.max_fragments {
            self.flush("capacity");
        }
        if self.watchdog.is_some() {
            // The ladder supersedes the wholesale bail-out: step down and
            // recover instead of abandoning the run.
            let step = self.watchdog.as_mut().and_then(Watchdog::observe_path);
            if let Some(s) = step {
                self.apply_step(s);
            }
            return;
        }
        if let Some(bp) = self.config.bailout {
            if self.paths_completed % bp.check_every_paths == 0
                && self.mirror.installs() > bp.max_installs
            {
                self.bailed = true;
                telemetry::emit!(telemetry::Event::Bailout {
                    at_path: self.paths_completed,
                    installs: self.mirror.installs(),
                });
                // Sever the VM's traces: the rest of the run executes as
                // plain (native-charged) interpretation.
                self.pending.push_back(TraceCommand::Flush);
            }
        }
    }
}

impl ExecutionObserver for LinkedEngine {
    /// Inlined into the interpreter loop: a block that extends the open
    /// path costs a few counter updates and one push. Restarts and path
    /// completions run out of line.
    #[inline]
    fn on_block(&mut self, event: &BlockEvent) {
        let size = event.block_size as f64;
        self.insts_total += event.block_size as u64;
        if self.bailed {
            self.cycles.native += size * self.config.cost.native_per_inst;
            return;
        }
        self.blocks_total += 1;
        let completed = if self.resume_pending {
            self.restart(event);
            None
        } else {
            self.profiler.on_block(event)
        };
        match completed {
            None => {
                self.cur_blocks.push(event.block.as_u32());
                self.cur_insts += event.block_size;
            }
            Some((span, path)) => {
                self.complete(&span, path, event);
                if self.bailed {
                    self.cycles.native += size * self.config.cost.native_per_inst;
                    return;
                }
            }
        }
        self.cycles.interp += size * self.config.cost.interp_per_inst;
    }

    fn on_halt(&mut self) {
        if self.bailed || self.resume_pending {
            // After a bail-out the run is native; after an excursion there
            // is no open interpreted path (the program halted in
            // trace-land).
            return;
        }
        if self.profiler.on_halt() {
            self.paths_completed += 1;
        }
    }
}

impl TraceController for LinkedEngine {
    fn on_trace_exit(&mut self, exc: &TraceExcursion) {
        let cost = self.config.cost;
        // Dynamo's second end-of-trace condition: recording from an armed
        // exit stub stops when it reaches an existing trace head. The
        // interpreted blocks accumulated since the last excursion are that
        // recording — this excursion starting is the trace head being hit —
        // so install them as the tail fragment; linking then stitches the
        // parent's guard exit straight into it.
        if let Some(&head) = self.cur_blocks.first() {
            if let Some(i) = self.armed.iter().position(|&h| h == head) {
                self.armed.swap_remove(i);
                let blocks = std::mem::take(&mut self.cur_blocks);
                let insts = self.cur_insts;
                self.install(&blocks, insts.max(1));
                // Capacity is enforced here as well as on completed paths:
                // once tails link the working set into a closed complex,
                // excursion exits may be the only safe points left — a
                // flush decided only at the next interpreted path would
                // never drain.
                if self.mirror.len() > self.config.max_fragments {
                    self.flush("capacity");
                }
            }
        }
        self.blocks_total += exc.blocks;
        self.blocks_cached += exc.blocks;
        self.insts_total += exc.insts;
        self.guard_execs += exc.guard_execs;
        self.cycles.trace += exc.insts as f64 * cost.trace_per_inst;
        let guard_failed = exc.reason == TraceExitReason::GuardFail;
        self.cycles.transitions += cost.excursion_transitions(exc.links, guard_failed);
        if guard_failed {
            // Exit-stub counting on the real exit: arrivals at the
            // off-trace target; at τ the target is armed and the next
            // interpreted path from it installs as a tail fragment.
            self.cycles.profiling += cost.counter_op;
            let target = exc.target.as_u32();
            let c = self.exit_counts.slot(target);
            *c += 1;
            if *c >= self.config.delay {
                *c = 0;
                if !self.armed.contains(&target) {
                    self.armed.push(target);
                }
            }
        }
        let step = self
            .watchdog
            .as_mut()
            .and_then(|w| w.observe_excursion(exc.entries, exc.guard_fails, exc.blocks));
        if let Some(s) = step {
            self.apply_step(s);
        }
        self.resume_pending = true;
    }

    fn poll_command(&mut self) -> Option<TraceCommand> {
        self.pending.pop_front()
    }
}

/// Runs `program` under the linked-trace Dynamo engine.
///
/// # Errors
///
/// Propagates VM failures.
pub fn run_dynamo_linked(program: &Program, config: &DynamoConfig) -> Result<LinkedRun, VmError> {
    let mut engine = LinkedEngine::new(config.clone());
    let stats = Vm::new(program)
        .with_opt_level(config.opt_level)
        .run_linked(&mut engine)?;
    Ok(LinkedRun {
        outcome: engine.finish(),
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run_dynamo, Scheme};
    use hotpath_ir::builder::{FunctionBuilder, ProgramBuilder};
    use hotpath_ir::CmpOp;
    use hotpath_vm::NullObserver;

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

    /// Loop alternating between two paths: exercises guard failures,
    /// exit-stub arming, tail fragments, and linking.
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
    fn linked_hot_loop_matches_interpreted_stats() {
        let p = hot_loop(100_000);
        let expect = Vm::new(&p).run(&mut NullObserver).unwrap();
        let run = run_dynamo_linked(&p, &DynamoConfig::new(Scheme::Net, 50)).unwrap();
        assert_eq!(run.stats, expect);
        assert!(run.outcome.fragments_installed >= 1);
        assert!(
            run.outcome.cached_block_fraction > 0.95,
            "cached fraction {}",
            run.outcome.cached_block_fraction
        );
    }

    #[test]
    fn guard_failures_arm_tail_fragments_and_link() {
        let p = two_path_loop(200_000);
        let expect = Vm::new(&p).run(&mut NullObserver).unwrap();
        let run = run_dynamo_linked(&p, &DynamoConfig::new(Scheme::Net, 50)).unwrap();
        assert_eq!(run.stats, expect);
        // The primary trace covers one parity; the other parity's guard
        // failure at the body branch arms its target, installing a tail
        // fragment that linking stitches back into the loop.
        assert!(
            run.outcome.fragments_installed >= 2,
            "installed {}",
            run.outcome.fragments_installed
        );
        assert!(
            run.outcome.cached_block_fraction > 0.9,
            "cached fraction {}",
            run.outcome.cached_block_fraction
        );
    }

    #[test]
    fn linked_outcome_agrees_with_simulated_engine_shape() {
        // The two backends share selection logic, so on a single-path
        // loop their fragment counts match and both spend most cycles in
        // trace-land.
        let p = hot_loop(100_000);
        let sim = run_dynamo(&p, &DynamoConfig::new(Scheme::Net, 50)).unwrap();
        let real = run_dynamo_linked(&p, &DynamoConfig::new(Scheme::Net, 50)).unwrap();
        assert_eq!(real.outcome.fragments_installed, sim.fragments_installed);
        assert!(real.outcome.cycles.trace > real.outcome.cycles.interp);
        assert!(sim.cycles.trace > sim.cycles.interp);
    }

    #[test]
    fn errors_propagate_identically() {
        // A program that divides by zero fails the same way under both
        // entry points.
        let mut fb = FunctionBuilder::new("main");
        let a = fb.imm(1);
        let b = fb.imm(0);
        fb.bin(hotpath_ir::BinOp::Div, a, a, b);
        fb.halt();
        let mut pb = ProgramBuilder::new();
        pb.add_function(fb).unwrap();
        let p = pb.finish().unwrap();
        let plain = Vm::new(&p).run(&mut NullObserver).unwrap_err();
        let linked = run_dynamo_linked(&p, &DynamoConfig::new(Scheme::Net, 50)).unwrap_err();
        assert_eq!(plain, linked);
    }

    #[test]
    fn large_armed_lists_import_in_first_occurrence_order() {
        // 200k distinct targets, then every one of them again: the
        // duplicates are dropped and the first occurrences keep their
        // order, so an export re-imports to the same list.
        let distinct: Vec<u32> = (0..200_000u32).rev().collect();
        let warm = EngineWarmState {
            armed: distinct
                .iter()
                .chain(distinct.iter().rev())
                .copied()
                .collect(),
            ..EngineWarmState::default()
        };
        let mut engine = LinkedEngine::new(DynamoConfig::new(Scheme::Net, 50));
        engine.import_warm_state(&warm);
        let exported = engine.export_warm_state();
        assert_eq!(exported.armed, distinct);
        let mut again = LinkedEngine::new(DynamoConfig::new(Scheme::Net, 50));
        again.import_warm_state(&exported);
        assert_eq!(again.export_warm_state(), exported);
        // Targets already armed stay first and are not repeated.
        let mut armed = LinkedEngine::new(DynamoConfig::new(Scheme::Net, 50));
        armed.import_warm_state(&EngineWarmState {
            armed: vec![7, 3],
            ..EngineWarmState::default()
        });
        armed.import_warm_state(&EngineWarmState {
            armed: vec![3, 9, 7, 9],
            ..EngineWarmState::default()
        });
        assert_eq!(armed.export_warm_state().armed, [7, 3, 9]);
    }
}
