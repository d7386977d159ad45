//! One serving session: a [`LinkedEngine`] plus, for workload-executing
//! sessions, the [`Vm`] and resumable [`LinkedState`] it drives.
//!
//! A session comes in two modes, chosen at open time by
//! [`SessionConfig::workload`]:
//!
//! * **exec** — the server owns the workload program and advances it in
//!   bounded fuel slices ([`Session::run`]); results are bit-identical to
//!   a plain interpreted run regardless of slicing, flushes, or
//!   snapshot/restore (the trace backend's contract);
//! * **ingest** — no server-side program: the client streams batched
//!   [`BlockEvent`]s from its own runtime ([`Session::ingest`]) and the
//!   engine profiles them, predicts hot paths, and accumulates fragments
//!   exactly as it would for a local run.
//!
//! Sessions never share state: each owns its engine, cache mirror, and
//! (in exec mode) machine state outright, so anything one session does —
//! including a forced flush — cannot perturb another's results.

use hotpath_dynamo::{DynamoConfig, LinkedEngine, Scheme};
use hotpath_vm::{BlockEvent, ExecutionObserver, RunStats, StepOutcome, TraceController, Vm};
use hotpath_workloads::{build, Scale, WorkloadName};

use crate::snapshot::SessionSnapshot;

/// The block-id space of an ingest session: every id a client streams,
/// and every id in warm state restored or pre-warmed into an ingest
/// session, must lie below it. The engine keeps dense per-block counter
/// tables, so an unbounded client id would size those tables by the id
/// itself; the largest suite program has a few thousand blocks, far
/// below this.
pub const INGEST_BLOCK_LIMIT: u32 = 1 << 20;

/// Everything needed to (re)create a session.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SessionConfig {
    /// Workload the server executes; `None` opens an ingest session fed
    /// by client-streamed event batches instead.
    pub workload: Option<WorkloadName>,
    /// Scale the workload is built at (ignored for ingest sessions).
    pub scale: Scale,
    /// Prediction scheme the session's engine runs.
    pub scheme: Scheme,
    /// Prediction delay τ.
    pub delay: u64,
    /// Total blocks this session may execute across all [`Session::run`]
    /// calls; `None` is unlimited. Exhausting the budget fails further
    /// `run` requests — the per-session half of admission control.
    pub fuel_budget: Option<u64>,
    /// Ask admission to pre-warm the session from the fleet profile
    /// store's aggregate for this configuration. Warm state is policy
    /// only, so pre-warming affects warm-up speed, never results.
    pub prewarm: bool,
}

impl SessionConfig {
    /// A workload-executing session at Dynamo's shipped τ=50.
    pub fn exec(workload: WorkloadName, scale: Scale) -> Self {
        SessionConfig {
            workload: Some(workload),
            scale,
            scheme: Scheme::Net,
            delay: 50,
            fuel_budget: None,
            prewarm: false,
        }
    }

    /// An event-ingest session at Dynamo's shipped τ=50.
    pub fn ingest() -> Self {
        SessionConfig {
            workload: None,
            scale: Scale::Smoke,
            scheme: Scheme::Net,
            delay: 50,
            fuel_budget: None,
            prewarm: false,
        }
    }

    /// Returns the configuration with pre-warm-at-admission set.
    pub fn with_prewarm(mut self, prewarm: bool) -> Self {
        self.prewarm = prewarm;
        self
    }

    /// The label used for telemetry and status reports: the workload name,
    /// or `"ingest"` for event-stream sessions.
    pub fn label(&self) -> &'static str {
        self.workload.map_or("ingest", WorkloadName::as_str)
    }

    fn dynamo(&self) -> DynamoConfig {
        DynamoConfig::new(self.scheme, self.delay)
    }
}

/// Point-in-time view of a session, served by query requests.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SessionStatus {
    /// Session id.
    pub session: u64,
    /// Shard the session lives on.
    pub shard: u32,
    /// Workload name, or `"ingest"`.
    pub workload: String,
    /// True once an exec session halted (always false for ingest).
    pub done: bool,
    /// Execution statistics so far (zeros for ingest sessions).
    pub stats: RunStats,
    /// Live fragments in the engine's cache mirror.
    pub fragments: u64,
    /// Cumulative fragment installs.
    pub installs: u64,
    /// Cache flushes so far.
    pub flushes: u64,
    /// Completed profiled paths.
    pub paths: u64,
    /// Degradation-ladder rung (`full_linking` when the ladder is off).
    pub mode: String,
}

/// Exec-mode machine state: the VM and its resumable linked run.
#[derive(Debug)]
struct Exec {
    vm: Vm,
    state: hotpath_vm::LinkedState,
}

/// One live session. See the module docs for the two modes.
#[derive(Debug)]
pub struct Session {
    id: u64,
    shard: u32,
    config: SessionConfig,
    engine: LinkedEngine,
    exec: Option<Exec>,
    /// Blocks executed against the fuel budget.
    spent: u64,
    /// Events accepted by [`Session::ingest`].
    ingested: u64,
}

impl Session {
    /// Opens a fresh session.
    pub fn open(id: u64, shard: u32, config: SessionConfig) -> Session {
        let engine = LinkedEngine::new(config.dynamo());
        let exec = config.workload.map(|name| {
            let program = build(name, config.scale).program;
            let vm = Vm::new(&program);
            let state = vm.start_linked();
            Exec { vm, state }
        });
        Session {
            id,
            shard,
            config,
            engine,
            exec,
            spent: 0,
            ingested: 0,
        }
    }

    /// Rebuilds a session from a decoded snapshot: the engine re-warms
    /// from the persisted fragment/counter state and, for exec sessions,
    /// the VM resumes from the exact saved machine state.
    ///
    /// # Errors
    ///
    /// Rejects snapshots whose machine image does not fit the rebuilt
    /// program (wrong memory size, dangling block ids, …).
    pub fn restore(id: u64, shard: u32, snapshot: &SessionSnapshot) -> Result<Session, String> {
        let mut session = Session::open(id, shard, snapshot.config.clone());
        snapshot.warm.validate(session.block_limit())?;
        session.engine.import_warm_state(&snapshot.warm);
        if let Some(saved) = &snapshot.vm {
            let exec = session
                .exec
                .as_mut()
                .ok_or("snapshot carries machine state but no workload")?;
            exec.state = exec.vm.import_linked(saved)?;
        }
        Ok(session)
    }

    /// Session id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The configuration the session was opened with.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// True once an exec session's program halted.
    pub fn done(&self) -> bool {
        self.exec.as_ref().is_some_and(|e| e.state.done())
    }

    /// Execution statistics so far (final once [`Session::done`]).
    pub fn stats(&self) -> RunStats {
        self.exec
            .as_ref()
            .map_or_else(RunStats::default, |e| e.state.stats())
    }

    /// Final data memory (exec sessions; empty for ingest).
    pub fn memory(&self) -> &[i64] {
        self.exec.as_ref().map_or(&[], |e| e.vm.memory())
    }

    /// Machine-global registers (exec sessions; empty for ingest).
    pub fn globals(&self) -> &[i64] {
        self.exec.as_ref().map_or(&[], |e| e.vm.globals())
    }

    /// The session's engine (inspection).
    pub fn engine(&self) -> &LinkedEngine {
        &self.engine
    }

    /// True while the session's optimization machinery is unblemished:
    /// the degradation ladder still at full linking, no bail-out, and no
    /// trace heads poisoned by panics. Unhealthy sessions publish into
    /// the profile store's quarantine bucket instead of the fleet
    /// aggregate — their warm state is suspect until re-promoted.
    pub fn healthy(&self) -> bool {
        self.engine.mode() == hotpath_dynamo::LadderMode::FullLinking
            && !self.engine.bailed_out()
            && self
                .exec
                .as_ref()
                .map_or(true, |e| e.state.poisoned_heads() == 0)
    }

    /// The session's logical clock: blocks executed for exec sessions,
    /// events accepted for ingest sessions. Profile publishes are
    /// stamped with this, which drives exponential-decay bucketing.
    pub fn epoch(&self) -> u64 {
        if self.exec.is_some() {
            self.stats().blocks_executed
        } else {
            self.ingested
        }
    }

    /// Exclusive bound on the session's block ids: the program's block
    /// count for exec sessions, [`INGEST_BLOCK_LIMIT`] for ingest.
    fn block_limit(&self) -> u32 {
        self.exec
            .as_ref()
            .map_or(INGEST_BLOCK_LIMIT, |e| e.vm.layout().block_count() as u32)
    }

    /// Imports fleet warm state into the session's engine at admission.
    /// Returns `(fragments, counters)` imported. Policy state only:
    /// RunStats, memory, and globals stay bit-identical to a cold run —
    /// only *when* traces install changes.
    ///
    /// # Errors
    ///
    /// Rejects empty warm state and warm state referencing block ids the
    /// session's program does not have (same checks as restore).
    pub fn prewarm(
        &mut self,
        warm: &hotpath_dynamo::EngineWarmState,
    ) -> Result<(u64, u64), String> {
        if warm.is_empty() {
            return Err("aggregate profile carries no warm state".into());
        }
        warm.validate(self.block_limit())?;
        self.engine.import_warm_state(warm);
        let counters = (warm.exit_counts.len() + warm.net_counters.len()) as u64;
        Ok((warm.fragments.len() as u64, counters))
    }

    /// Advances an exec session by at most `fuel` blocks (`None` runs to
    /// completion, still bounded by the session's fuel budget). Returns
    /// whether the program has halted plus the statistics so far.
    ///
    /// # Errors
    ///
    /// Fails for ingest sessions, on budget exhaustion, and on VM errors.
    pub fn run(&mut self, fuel: Option<u64>) -> Result<(bool, RunStats), String> {
        let exec = self
            .exec
            .as_mut()
            .ok_or("ingest sessions execute nothing; stream events instead")?;
        if exec.state.done() {
            return Ok((true, exec.state.stats()));
        }
        let slice = match self.config.fuel_budget {
            Some(budget) => {
                let remaining = budget.saturating_sub(self.spent);
                if remaining == 0 {
                    return Err(format!("session fuel budget of {budget} blocks exhausted"));
                }
                Some(fuel.map_or(remaining, |f| f.min(remaining)))
            }
            None => fuel,
        };
        let before = exec.state.stats().blocks_executed;
        let outcome = exec
            .vm
            .step_linked(&mut exec.state, &mut self.engine, slice)
            .map_err(|e| e.to_string())?;
        self.spent += exec.state.stats().blocks_executed - before;
        match outcome {
            StepOutcome::Yielded => Ok((false, exec.state.stats())),
            StepOutcome::Halted(stats) => Ok((true, stats)),
        }
    }

    /// Feeds a batch of client-streamed control-flow events through the
    /// engine's profiling path. Returns the totals after the batch:
    /// events ingested, paths completed, live fragments.
    ///
    /// # Errors
    ///
    /// Fails for exec sessions — their event stream comes from the
    /// server-side VM — and rejects a batch naming any block at or beyond
    /// [`INGEST_BLOCK_LIMIT`] whole, before the engine sees any of it.
    pub fn ingest(&mut self, events: &[BlockEvent]) -> Result<(u64, u64, u64), String> {
        if self.exec.is_some() {
            return Err("exec sessions generate their own events; use run".into());
        }
        let limit = self.block_limit();
        if let Some(block) = events
            .iter()
            .flat_map(|e| [Some(e.block), e.from])
            .flatten()
            .find(|b| b.as_u32() >= limit)
        {
            return Err(format!(
                "ingest batch names block {} outside the {limit}-block ingest space",
                block.as_u32()
            ));
        }
        for event in events {
            self.engine.on_block(event);
        }
        // No VM polls this engine, so drain the command queue here; the
        // mirror cache already reflects every install.
        while self.engine.poll_command().is_some() {}
        self.ingested += events.len() as u64;
        Ok((
            self.ingested,
            self.engine.paths_completed(),
            self.engine.cache().len() as u64,
        ))
    }

    /// Flushes the session's fragment cache (engine mirror now, the VM's
    /// trace cache at the next run slice). Affects warm-up only — results
    /// stay bit-identical, which the isolation tests assert.
    pub fn force_flush(&mut self) {
        self.engine.request_flush();
        if self.exec.is_none() {
            while self.engine.poll_command().is_some() {}
        }
    }

    /// The session's current status.
    pub fn status(&self) -> SessionStatus {
        let cache = self.engine.cache();
        SessionStatus {
            session: self.id,
            shard: self.shard,
            workload: self.config.label().to_string(),
            done: self.done(),
            stats: self.stats(),
            fragments: cache.len() as u64,
            installs: cache.installs(),
            flushes: cache.flushes(),
            paths: self.engine.paths_completed(),
            mode: self.engine.mode().as_str().to_string(),
        }
    }

    /// Captures the session into a persistable snapshot: config, engine
    /// warm state, and (exec sessions) the exact machine state.
    pub fn snapshot(&self) -> SessionSnapshot {
        SessionSnapshot {
            config: self.config.clone(),
            warm: self.engine.export_warm_state(),
            vm: self.exec.as_ref().map(|e| e.vm.export_linked(&e.state)),
            // The shard attaches the fleet aggregate; the session itself
            // only knows its own warm state.
            profile: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotpath_ir::BlockId;
    use hotpath_vm::TransferKind;
    use hotpath_workloads::ALL_WORKLOADS;

    /// A backward jump from `from` into `block`.
    fn event(from: u32, block: u32) -> BlockEvent {
        BlockEvent {
            from: Some(BlockId::new(from)),
            block: BlockId::new(block),
            kind: TransferKind::Jump,
            backward: true,
            block_size: 1,
        }
    }

    #[test]
    fn out_of_range_ingest_batches_are_rejected_whole() {
        let mut session = Session::open(1, 0, SessionConfig::ingest());
        let last = INGEST_BLOCK_LIMIT - 1;
        let accepted = session.ingest(&[event(0, last), event(last, 0)]).unwrap();
        assert_eq!(accepted.0, 2);
        for bad in [
            vec![event(1, 2), event(2, INGEST_BLOCK_LIMIT)],
            vec![event(u32::MAX, 1)],
            vec![event(1, 0x7FFF_FFF0); 4],
        ] {
            let err = session.ingest(&bad).unwrap_err();
            assert!(
                err.contains("outside the 1048576-block ingest space"),
                "{err}"
            );
        }
        // Nothing of a rejected batch reached the engine.
        assert_eq!(session.ingest(&[]), Ok(accepted));
    }

    #[test]
    fn every_suite_program_fits_the_ingest_block_space() {
        for name in ALL_WORKLOADS {
            let blocks = Vm::new(&build(name, Scale::Full).program)
                .layout()
                .block_count();
            assert!(
                blocks * 64 <= INGEST_BLOCK_LIMIT as usize,
                "{name:?} has {blocks} blocks"
            );
        }
    }
}
