//! Next Executing Tail (NET) prediction — paper §4.1.
//!
//! NET splits a path into its *head* (the starting block, a target of a
//! backward taken branch) and its *tail* (everything after). Profiling is
//! reduced to a single execution counter per head; tails are never
//! profiled. When a head's counter reaches the prediction delay τ, the
//! program is evidently executing in a hot region, and the *next executing
//! tail* — the path running at that very moment — is speculatively
//! predicted as the region's hot path.
//!
//! A head's counter does not retire after its first prediction: it resets
//! and keeps counting the arrivals that are *not* covered by an existing
//! prediction, so a head whose flow splits over a few paths predicts its
//! next-hottest tail after another τ uncovered arrivals. This is exactly
//! how deployed NET behaves — in Dynamo, once a trace is installed, the
//! counting moves to the trace's exit stubs, which are reached precisely
//! by the uncovered arrivals. (The evaluation protocol feeds predictors
//! only executions of not-yet-predicted paths, so "uncovered" falls out
//! naturally.)
//!
//! Compared to path-profile based prediction this removes the per-branch
//! history shifts and the per-path table updates entirely: the only runtime
//! operation is one counter increment per backward-taken-branch target, and
//! the only state is one counter per head (Table 2 / Figure 4).

use hotpath_ir::dense::CounterTable;
use hotpath_ir::BlockId;
use hotpath_profiles::{PathExecution, PathId, ProfilingCost};

use crate::predictor::{HotPathPredictor, SchemeKind};

/// The NET predictor.
///
/// # Example
///
/// ```
/// use hotpath_core::{HotPathPredictor, NetPredictor};
/// let mut net = NetPredictor::new(50);
/// assert_eq!(net.delay(), 50);
/// assert_eq!(net.counter_space(), 0);
/// ```
#[derive(Clone, Debug)]
pub struct NetPredictor {
    delay: u64,
    /// Head counters, dense by block id: every executed block's head is a
    /// small integer, so this is the per-arrival hot loop the paper wants
    /// down to "one counter increment" — no hashing.
    heads: CounterTable,
    cost: ProfilingCost,
    predictions: usize,
}

impl NetPredictor {
    /// Creates a NET predictor with prediction delay `delay` (the paper
    /// sweeps 10..10⁶; Dynamo ships with 50).
    ///
    /// # Panics
    ///
    /// Panics if `delay == 0`; use
    /// [`FirstExecutionPredictor`](crate::FirstExecutionPredictor) for the
    /// τ=0 degenerate.
    pub fn new(delay: u64) -> Self {
        assert!(delay > 0, "prediction delay must be positive");
        NetPredictor {
            delay,
            heads: CounterTable::new(),
            cost: ProfilingCost::new(),
            predictions: 0,
        }
    }

    /// Number of predictions made so far.
    pub fn predictions(&self) -> usize {
        self.predictions
    }

    /// Snapshot of the live per-head counters (non-zero only), for
    /// persisting a warmed predictor across a restart.
    pub fn export_counters(&self) -> Vec<(u32, u64)> {
        self.heads.iter().filter(|&(_, count)| count > 0).collect()
    }

    /// Restores counters saved by [`NetPredictor::export_counters`],
    /// overwriting any current count for the same head.
    pub fn import_counters(&mut self, counters: &[(u32, u64)]) {
        for &(head, count) in counters {
            *self.heads.slot(head) = count;
        }
    }

    /// The execution count of a head's counter (testing and diagnostics).
    pub fn head_count(&self, head: BlockId) -> u64 {
        self.heads.get(head.as_u32())
    }

    /// Counts one arrival at `head`, the target of a backward taken branch,
    /// and returns true when the arrival reaches τ: the tail executing now
    /// is predicted hot. This is all of NET's runtime profiling; the caller
    /// knows the tail (a Dynamo engine records it as it runs), so the path
    /// needs no identity.
    pub fn observe_head(&mut self, head: BlockId) -> bool {
        let counter = self.heads.slot(head.as_u32());
        *counter += 1;
        self.cost.counter_increments += 1;
        if *counter < self.delay {
            return false;
        }
        // Reset and keep counting uncovered arrivals (the counter moves to
        // the installed trace's exit stubs in Dynamo terms).
        *counter = 0;
        self.predictions += 1;
        hotpath_telemetry::emit!(hotpath_telemetry::Event::TauTrigger {
            scheme: "net",
            head: head.as_u32(),
            tau: self.delay,
            observed: self.cost.counter_increments,
        });
        true
    }
}

impl HotPathPredictor for NetPredictor {
    fn observe(&mut self, exec: &PathExecution) -> Option<PathId> {
        // Only targets of backward taken branches carry counters (§4.1);
        // the next executing tail is the path executing right now.
        (exec.start.is_net_countable() && self.observe_head(exec.head)).then_some(exec.path)
    }

    fn scheme(&self) -> SchemeKind {
        SchemeKind::Net
    }

    fn delay(&self) -> u64 {
        self.delay
    }

    fn counter_space(&self) -> usize {
        self.heads.live()
    }

    fn cost(&self) -> ProfilingCost {
        self.cost
    }

    fn reset(&mut self) {
        self.heads.clear();
        self.cost = ProfilingCost::new();
        self.predictions = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotpath_profiles::{PathEndKind, PathStartKind};

    fn exec(path: u32, head: u32, start: PathStartKind) -> PathExecution {
        PathExecution {
            path: PathId::new(path),
            head: BlockId::new(head),
            start,
            end: PathEndKind::BackwardBranch,
            blocks: 2,
            insts: 4,
        }
    }

    #[test]
    fn predicts_the_path_running_when_threshold_hits() {
        let mut net = NetPredictor::new(3);
        let a = exec(0, 7, PathStartKind::BackwardTarget);
        let b = exec(1, 7, PathStartKind::BackwardTarget);
        // Arrivals at head 7: a, b, then b again triggers at count 3 and
        // predicts the path executing at that moment (b).
        assert_eq!(net.observe(&a), None);
        assert_eq!(net.observe(&b), None);
        assert_eq!(net.observe(&b), Some(PathId::new(1)));
        // The counter resets and keeps counting the arrivals that are not
        // yet covered by a prediction (exit-stub behavior): after another
        // three uncovered arrivals the sibling is predicted too.
        assert_eq!(net.observe(&a), None);
        assert_eq!(net.observe(&a), None);
        assert_eq!(net.observe(&a), Some(PathId::new(0)));
        assert_eq!(net.head_count(BlockId::new(7)), 0);
        assert_eq!(net.predictions(), 2);
    }

    #[test]
    fn counts_all_paths_through_a_shared_head() {
        // Counter accumulates across different paths with the same head —
        // the whole point of head-only profiling (Figure 1's loop needs one
        // counter for five paths).
        let mut net = NetPredictor::new(5);
        for i in 0..4 {
            let e = exec(i % 2, 3, PathStartKind::BackwardTarget);
            assert_eq!(net.observe(&e), None);
        }
        let trigger = exec(0, 3, PathStartKind::BackwardTarget);
        assert_eq!(net.observe(&trigger), Some(PathId::new(0)));
        assert_eq!(net.counter_space(), 1);
    }

    #[test]
    fn ignores_non_backward_starts() {
        let mut net = NetPredictor::new(1);
        assert_eq!(net.observe(&exec(0, 1, PathStartKind::Entry)), None);
        assert_eq!(net.observe(&exec(0, 1, PathStartKind::Continuation)), None);
        assert_eq!(net.counter_space(), 0, "no counters for non-head starts");
        assert_eq!(net.cost().counter_increments, 0);
    }

    #[test]
    fn delay_one_predicts_first_arrival() {
        let mut net = NetPredictor::new(1);
        let e = exec(9, 2, PathStartKind::BackwardTarget);
        assert_eq!(net.observe(&e), Some(PathId::new(9)));
    }

    #[test]
    fn distinct_heads_have_distinct_counters() {
        let mut net = NetPredictor::new(2);
        net.observe(&exec(0, 1, PathStartKind::BackwardTarget));
        net.observe(&exec(1, 2, PathStartKind::BackwardTarget));
        assert_eq!(net.counter_space(), 2);
        assert_eq!(net.head_count(BlockId::new(1)), 1);
        assert_eq!(net.head_count(BlockId::new(2)), 1);
        // Neither has reached τ=2.
        assert_eq!(net.predictions(), 0);
    }

    #[test]
    fn reset_clears_state() {
        let mut net = NetPredictor::new(1);
        net.observe(&exec(0, 1, PathStartKind::BackwardTarget));
        assert_eq!(net.predictions(), 1);
        net.reset();
        assert_eq!(net.counter_space(), 0);
        assert_eq!(net.predictions(), 0);
        // After reset the head counter starts over and can predict again.
        assert_eq!(
            net.observe(&exec(0, 1, PathStartKind::BackwardTarget)),
            Some(PathId::new(0))
        );
    }

    #[test]
    fn head_entry_point_predicts_and_costs_like_observe() {
        // The same arrival sequence through both entry points: identical
        // predictions at identical arrivals, identical counters and cost.
        let arrivals: Vec<PathExecution> = (0..200u32)
            .map(|i| {
                let start = if i % 7 == 3 {
                    PathStartKind::Continuation
                } else {
                    PathStartKind::BackwardTarget
                };
                exec(i % 5, (i * 13) % 4, start)
            })
            .collect();
        let mut by_path = NetPredictor::new(4);
        let mut by_head = NetPredictor::new(4);
        for e in &arrivals {
            let predicted = by_path.observe(e).is_some();
            let counted = e.start.is_net_countable() && by_head.observe_head(e.head);
            assert_eq!(predicted, counted);
        }
        assert!(by_path.predictions() > 0);
        assert_eq!(by_path.predictions(), by_head.predictions());
        assert_eq!(by_path.cost(), by_head.cost());
        assert_eq!(by_path.export_counters(), by_head.export_counters());
    }

    #[test]
    #[should_panic(expected = "prediction delay")]
    fn zero_delay_panics() {
        let _ = NetPredictor::new(0);
    }

    #[test]
    fn cost_is_one_increment_per_counted_arrival() {
        let mut net = NetPredictor::new(100);
        for _ in 0..10 {
            net.observe(&exec(0, 1, PathStartKind::BackwardTarget));
        }
        for _ in 0..5 {
            net.observe(&exec(1, 1, PathStartKind::Continuation));
        }
        assert_eq!(net.cost().counter_increments, 10);
        assert_eq!(net.cost().history_shifts, 0, "NET never shifts history");
        assert_eq!(net.cost().table_updates, 0, "NET has no path table");
    }
}
