//! Zero-cost-when-disabled self-profiling for the hot-path engine.
//!
//! The paper's thesis is that cheap, well-placed profiling beats
//! heavyweight instrumentation; this crate turns that discipline on the
//! engine itself. It answers two questions about the serve/bench pipeline
//! — *where does wall time go* and *where does allocation pressure come
//! from* — with near-zero overhead when enabled and literally zero when
//! disabled (no features: stage guards are ZSTs, the system allocator is
//! linked directly, and every call site compiles out).
//!
//! Four pieces:
//!
//! * **Stage scopes** — [`StageGuard`] / the [`stage!`](crate::stage)
//!   macro wrap the pipeline's hot sections ([`Stage`] names them). Each
//!   guard records wall time into a per-thread power-of-two histogram
//!   (p50/p95/p99 in reports) and snapshots the thread's allocation
//!   counters for per-visit maxima.
//! * **The measuring allocator** (`alloc` feature) — a
//!   `#[global_allocator]` wrapper over `System` attributing every
//!   allocation's size to the innermost active stage on the allocating
//!   thread via destructor-free thread-local cells. See [`MeasuringAlloc`].
//! * **The background aggregator** — a detached thread that every ~200ms
//!   drains per-thread counter slots into a global accumulator (hot paths
//!   never contend a shared line) and refreshes the cached peak-RSS
//!   high-water mark ([`peak_rss_bytes`]).
//! * **Reports** — [`report`] snapshots everything into a
//!   [`SelfProfReport`]: versioned, FNV-sealed binary encoding (magic
//!   `HPSP`, like serve's `HPSS` snapshots), JSON for the [`serve_http`]
//!   `GET /selfprof` endpoint, and a fixed-width table for terminals and
//!   test failure messages.
//!
//! # Example
//!
//! ```
//! use hotpath_selfprof as selfprof;
//!
//! let sum: u64 = selfprof::stage!(selfprof::Stage::VmSlice, {
//!     (0..100u64).sum()
//! });
//! assert_eq!(sum, 4950);
//! let report = selfprof::report();
//! # #[cfg(feature = "enabled")]
//! assert!(report.stage("vm_slice").is_some());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

#[cfg(feature = "alloc")]
mod alloc;
mod http;
mod report;
mod rss;
#[cfg(feature = "enabled")]
mod slots;
mod stage;

#[cfg(feature = "alloc")]
pub use alloc::MeasuringAlloc;
pub use http::serve_http;
pub use report::{
    ReportError, SelfProfReport, StageReport, BUCKET_COUNT, NS_BOUNDS, REPORT_VERSION,
};
pub use rss::peak_rss_bytes;
pub use stage::{Stage, STAGE_COUNT};

/// True when this build collects stage data (`enabled` feature).
pub const fn enabled() -> bool {
    cfg!(feature = "enabled")
}

/// True when this build attributes allocations (`alloc` feature).
pub const fn alloc_tracking() -> bool {
    cfg!(feature = "alloc")
}

/// Runs `$body` inside a stage scope: wall time and (with the `alloc`
/// feature) allocation pressure are attributed to `$stage` until the
/// expression finishes. Scopes nest; allocations go to the innermost.
#[macro_export]
macro_rules! stage {
    ($stage:expr, $body:expr) => {{
        let _selfprof_stage_guard = $crate::StageGuard::enter($stage);
        $body
    }};
}

#[cfg(feature = "enabled")]
pub use enabled_impl::{report, StageGuard};

#[cfg(feature = "enabled")]
mod enabled_impl {
    use std::sync::atomic::Ordering::Relaxed;
    use std::time::Instant;

    use hotpath_telemetry::Histogram;

    use crate::report::{SelfProfReport, StageReport, REPORT_VERSION};
    use crate::slots;
    use crate::stage::Stage;
    use crate::NS_BOUNDS;

    /// RAII scope attributing wall time and allocations to one [`Stage`].
    ///
    /// Holds a raw pointer into this thread's slot, so it is `!Send` by
    /// construction — a guard must drop on the thread that entered it.
    #[derive(Debug)]
    pub struct StageGuard {
        slot: *const slots::ThreadSlot,
        stage: Stage,
        prev_stage: u8,
        visit_bytes0: u64,
        visit_count0: u64,
        start: Instant,
    }

    impl StageGuard {
        /// Enters `stage` on the current thread, registering the thread
        /// with the aggregator on first use.
        #[inline]
        pub fn enter(stage: Stage) -> StageGuard {
            let slot = slots::slot_ptr();
            let prev_stage = slots::swap_current_stage(stage as u8);
            let (visit_bytes0, visit_count0) = slots::visit_marks();
            StageGuard {
                slot,
                stage,
                prev_stage,
                visit_bytes0,
                visit_count0,
                start: Instant::now(),
            }
        }
    }

    impl Drop for StageGuard {
        fn drop(&mut self) {
            let ns = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            slots::swap_current_stage(self.prev_stage);
            // SAFETY: the pointer was handed out by `slot_ptr` on this
            // thread and the guard is `!Send`; the registry keeps the
            // slot alive at least until this thread's holder drops.
            let slot = unsafe { &*self.slot };
            let s = &slot.stages[self.stage as usize];
            s.visits.fetch_add(1, Relaxed);
            s.wall_ns_sum.fetch_add(ns, Relaxed);
            s.wall_ns_max.fetch_max(ns, Relaxed);
            let idx = NS_BOUNDS.partition_point(|&b| b < ns).min(NS_BOUNDS.len());
            s.wall_buckets[idx].fetch_add(1, Relaxed);
            let (bytes_now, count_now) = slots::visit_marks();
            s.bytes_max_visit
                .fetch_max(bytes_now.wrapping_sub(self.visit_bytes0), Relaxed);
            s.count_max_visit
                .fetch_max(count_now.wrapping_sub(self.visit_count0), Relaxed);
        }
    }

    /// Snapshots the current self-profile: drains every thread slot
    /// synchronously, then renders the accumulated totals. Stages with no
    /// visits and no allocations are omitted.
    pub fn report() -> SelfProfReport {
        slots::drain();
        let accum = slots::accum_lock();
        let mut stages = Vec::new();
        for (stage, acc) in Stage::ALL.iter().zip(accum.stages.iter()) {
            if acc.visits == 0 && acc.alloc_count == 0 {
                continue;
            }
            let wall = Histogram::from_parts(
                &NS_BOUNDS,
                acc.wall_buckets.to_vec(),
                acc.wall_ns_sum,
                acc.wall_ns_max,
            )
            .expect("accumulator bucket layout matches NS_BOUNDS");
            stages.push(StageReport {
                name: stage.name().to_string(),
                wall,
                alloc_bytes: acc.alloc_bytes,
                alloc_count: acc.alloc_count,
                bytes_max_single: acc.bytes_max_single,
                bytes_max_visit: acc.bytes_max_visit,
                count_max_visit: acc.count_max_visit,
            });
        }
        drop(accum);
        SelfProfReport {
            version: REPORT_VERSION,
            peak_rss_bytes: crate::rss::peak_rss_bytes(),
            stages,
        }
    }
}

#[cfg(not(feature = "enabled"))]
pub use disabled_impl::{report, StageGuard};

#[cfg(not(feature = "enabled"))]
mod disabled_impl {
    use crate::report::SelfProfReport;
    use crate::stage::Stage;

    /// No-op stand-in when the `enabled` feature is off: a ZST whose
    /// construction and drop compile to nothing.
    #[derive(Debug)]
    pub struct StageGuard;

    impl StageGuard {
        /// Does nothing.
        #[inline(always)]
        pub fn enter(_stage: Stage) -> StageGuard {
            StageGuard
        }
    }

    /// Always the empty report in a disabled build.
    pub fn report() -> SelfProfReport {
        SelfProfReport::empty()
    }
}

#[cfg(all(test, feature = "enabled"))]
mod tests {
    use super::*;

    #[test]
    fn guards_record_visits_into_the_report() {
        for _ in 0..3 {
            stage!(Stage::SnapshotSave, {
                std::hint::black_box(vec![0u8; 512]);
            });
        }
        let report = report();
        let stage = report.stage("snapshot_save").expect("stage present");
        assert!(stage.visits() >= 3);
        assert!(stage.wall.sum() > 0, "elapsed time recorded");
        if alloc_tracking() {
            assert!(stage.alloc_bytes >= 3 * 512);
            assert!(stage.bytes_max_visit >= 512);
        }
    }

    #[test]
    fn nested_scopes_restore_the_outer_stage() {
        stage!(Stage::ShardDispatch, {
            stage!(Stage::VmSlice, {
                std::hint::black_box(1 + 1);
            });
            // Inner guard dropped: further work belongs to the outer
            // stage again, which the visit counts below prove.
            std::hint::black_box(2 + 2);
        });
        let report = report();
        assert!(report.stage("shard_dispatch").expect("outer").visits() >= 1);
        assert!(report.stage("vm_slice").expect("inner").visits() >= 1);
    }

    #[test]
    fn cross_thread_slots_drain_into_one_report() {
        let threads: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    stage!(Stage::Prewarm, {
                        std::hint::black_box(String::from("warm"));
                    })
                })
            })
            .collect();
        for t in threads {
            t.join().expect("join");
        }
        let report = report();
        assert!(report.stage("prewarm").expect("stage").visits() >= 4);
    }
}
