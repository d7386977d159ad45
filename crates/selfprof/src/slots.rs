//! Per-thread counter slots and the background aggregator.
//!
//! Each instrumented thread owns a [`ThreadSlot`]: a flat array of relaxed
//! atomics, one [`StageSlot`] per [`Stage`]. Stage guards and the measuring
//! allocator bump only their own thread's slot, so the hot path never takes
//! a lock and never contends a shared cache line with another thread. A
//! background aggregator periodically *drains* every slot — swapping the
//! counters back to zero and folding the deltas into the global
//! accumulator — so reports are cheap to produce and short-lived threads
//! (per-session client drivers) do not pin memory: once a thread exits, its slot is
//! drained one last time and dropped from the registry.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use crate::report::BUCKET_COUNT;
use crate::stage::{NO_STAGE, STAGE_COUNT};

/// Per-stage counters for one thread. All atomics are accessed with
/// relaxed ordering: each is an independent monotonic counter and the
/// drain only needs eventual, not instantaneous, consistency.
pub(crate) struct StageSlot {
    /// Completed visits (bumped once per guard drop, with the bucket).
    pub(crate) visits: AtomicU64,
    pub(crate) wall_ns_sum: AtomicU64,
    pub(crate) wall_ns_max: AtomicU64,
    pub(crate) wall_buckets: [AtomicU64; BUCKET_COUNT],
    pub(crate) alloc_bytes: AtomicU64,
    pub(crate) alloc_count: AtomicU64,
    /// Largest single allocation attributed to this stage.
    pub(crate) bytes_max_single: AtomicU64,
    /// Most bytes allocated during one visit (nested stages included).
    pub(crate) bytes_max_visit: AtomicU64,
    /// Most allocations made during one visit (nested stages included).
    pub(crate) count_max_visit: AtomicU64,
}

impl StageSlot {
    fn new() -> Self {
        StageSlot {
            visits: AtomicU64::new(0),
            wall_ns_sum: AtomicU64::new(0),
            wall_ns_max: AtomicU64::new(0),
            wall_buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            alloc_bytes: AtomicU64::new(0),
            alloc_count: AtomicU64::new(0),
            bytes_max_single: AtomicU64::new(0),
            bytes_max_visit: AtomicU64::new(0),
            count_max_visit: AtomicU64::new(0),
        }
    }
}

/// One thread's complete counter block, shared with the registry via
/// `Arc` so the aggregator can drain it while the thread runs.
pub(crate) struct ThreadSlot {
    pub(crate) stages: [StageSlot; STAGE_COUNT],
}

impl ThreadSlot {
    fn new() -> Self {
        ThreadSlot {
            stages: std::array::from_fn(|_| StageSlot::new()),
        }
    }
}

/// Plain (non-atomic) per-stage totals: the drained, merged view.
#[derive(Clone, Copy)]
pub(crate) struct StageAccum {
    pub(crate) visits: u64,
    pub(crate) wall_ns_sum: u64,
    pub(crate) wall_ns_max: u64,
    pub(crate) wall_buckets: [u64; BUCKET_COUNT],
    pub(crate) alloc_bytes: u64,
    pub(crate) alloc_count: u64,
    pub(crate) bytes_max_single: u64,
    pub(crate) bytes_max_visit: u64,
    pub(crate) count_max_visit: u64,
}

impl StageAccum {
    const fn new() -> Self {
        StageAccum {
            visits: 0,
            wall_ns_sum: 0,
            wall_ns_max: 0,
            wall_buckets: [0; BUCKET_COUNT],
            alloc_bytes: 0,
            alloc_count: 0,
            bytes_max_single: 0,
            bytes_max_visit: 0,
            count_max_visit: 0,
        }
    }
}

/// The global accumulator all slots drain into.
pub(crate) struct Accum {
    pub(crate) stages: [StageAccum; STAGE_COUNT],
}

impl Accum {
    const fn new() -> Self {
        Accum {
            stages: [StageAccum::new(); STAGE_COUNT],
        }
    }
}

/// Every live (and recently dead, not-yet-drained) thread slot.
static REGISTRY: Mutex<Vec<Arc<ThreadSlot>>> = Mutex::new(Vec::new());

/// Drained totals. Locked only by drains and report snapshots.
static ACCUM: Mutex<Accum> = Mutex::new(Accum::new());

thread_local! {
    /// Raw pointer to this thread's slot, null until registered. A plain
    /// const-initialized `Cell` with no destructor: reading it never
    /// allocates and never fails, which the allocator hook relies on.
    /// The pointee is kept alive by HOLDER (and the registry), and HOLDER's
    /// destructor nulls this cell before releasing its `Arc`.
    static SLOT_PTR: Cell<*const ThreadSlot> = const { Cell::new(std::ptr::null()) };

    /// Discriminant of the innermost active stage, `NO_STAGE` outside any
    /// guard. The allocator attributes to this stage.
    static CURRENT_STAGE: Cell<u8> = const { Cell::new(NO_STAGE) };

    /// Monotonic bytes/count allocated on this thread, bumped by the
    /// measuring allocator regardless of stage. Guards snapshot these at
    /// entry and diff at exit for the per-visit maxima, so the values are
    /// immune to concurrent drain swaps of the slot atomics.
    static VISIT_BYTES: Cell<u64> = const { Cell::new(0) };
    static VISIT_COUNT: Cell<u64> = const { Cell::new(0) };

    /// Owns this thread's registry `Arc`; its destructor nulls `SLOT_PTR`
    /// first so allocator callbacks during TLS teardown skip attribution.
    static HOLDER: RefCell<Option<SlotHolder>> = const { RefCell::new(None) };
}

struct SlotHolder(#[allow(dead_code)] Arc<ThreadSlot>);

impl Drop for SlotHolder {
    fn drop(&mut self) {
        let _ = SLOT_PTR.try_with(|c| c.set(std::ptr::null()));
    }
}

/// This thread's slot pointer, registering the thread on first use.
/// Registration runs in guard-entry context (never inside the allocator
/// hook), so the allocations it makes are safe.
pub(crate) fn slot_ptr() -> *const ThreadSlot {
    let existing = SLOT_PTR.with(|c| c.get());
    if !existing.is_null() {
        return existing;
    }
    let arc = Arc::new(ThreadSlot::new());
    let ptr = Arc::as_ptr(&arc);
    registry_lock().push(arc.clone());
    HOLDER.with(|h| *h.borrow_mut() = Some(SlotHolder(arc)));
    SLOT_PTR.with(|c| c.set(ptr));
    ensure_aggregator();
    ptr
}

/// Swaps the current-stage cell, returning the previous value.
pub(crate) fn swap_current_stage(stage: u8) -> u8 {
    CURRENT_STAGE.with(|c| c.replace(stage))
}

/// Current values of the monotonic per-thread allocation counters.
pub(crate) fn visit_marks() -> (u64, u64) {
    (VISIT_BYTES.with(Cell::get), VISIT_COUNT.with(Cell::get))
}

/// Attribution entry point for the measuring allocator. Must not
/// allocate: it touches only const-initialized, destructor-free TLS cells
/// and the pre-allocated slot atomics.
#[cfg(feature = "alloc")]
pub(crate) fn note_alloc(bytes: u64) {
    let _ = VISIT_BYTES.try_with(|c| c.set(c.get().wrapping_add(bytes)));
    let _ = VISIT_COUNT.try_with(|c| c.set(c.get().wrapping_add(1)));
    let ptr = match SLOT_PTR.try_with(|c| c.get()) {
        Ok(p) if !p.is_null() => p,
        _ => return,
    };
    let stage = match CURRENT_STAGE.try_with(|c| c.get()) {
        Ok(s) if (s as usize) < STAGE_COUNT => s as usize,
        _ => return,
    };
    // SAFETY: SLOT_PTR is non-null only between registration and the
    // holder's destructor, and the registry keeps the pointee alive for
    // that whole window (drains only free slots once the holder is gone).
    let slot = unsafe { &*ptr };
    let s = &slot.stages[stage];
    s.alloc_bytes.fetch_add(bytes, Relaxed);
    s.alloc_count.fetch_add(1, Relaxed);
    s.bytes_max_single.fetch_max(bytes, Relaxed);
}

fn registry_lock() -> std::sync::MutexGuard<'static, Vec<Arc<ThreadSlot>>> {
    REGISTRY.lock().unwrap_or_else(|p| p.into_inner())
}

pub(crate) fn accum_lock() -> std::sync::MutexGuard<'static, Accum> {
    ACCUM.lock().unwrap_or_else(|p| p.into_inner())
}

/// Drains every registered slot into the accumulator: counters swap back
/// to zero (deltas add), maxima fold with `max`. Slots whose owning
/// thread has exited (registry holds the last `Arc`) are dropped after
/// this final drain, bounding memory under thread churn.
pub(crate) fn drain() {
    let mut registry = registry_lock();
    let mut accum = accum_lock();
    registry.retain(|slot| {
        for (acc, live) in accum.stages.iter_mut().zip(&slot.stages) {
            acc.visits += live.visits.swap(0, Relaxed);
            acc.wall_ns_sum += live.wall_ns_sum.swap(0, Relaxed);
            acc.wall_ns_max = acc.wall_ns_max.max(live.wall_ns_max.swap(0, Relaxed));
            for (a, b) in acc.wall_buckets.iter_mut().zip(&live.wall_buckets) {
                *a += b.swap(0, Relaxed);
            }
            acc.alloc_bytes += live.alloc_bytes.swap(0, Relaxed);
            acc.alloc_count += live.alloc_count.swap(0, Relaxed);
            acc.bytes_max_single = acc
                .bytes_max_single
                .max(live.bytes_max_single.swap(0, Relaxed));
            acc.bytes_max_visit = acc
                .bytes_max_visit
                .max(live.bytes_max_visit.swap(0, Relaxed));
            acc.count_max_visit = acc
                .count_max_visit
                .max(live.count_max_visit.swap(0, Relaxed));
        }
        Arc::strong_count(slot) > 1
    });
}

/// Spawns the background aggregator once per process: every ~200ms it
/// drains the slots and refreshes the cached peak-RSS high-water mark.
pub(crate) fn ensure_aggregator() {
    static AGGREGATOR: OnceLock<()> = OnceLock::new();
    AGGREGATOR.get_or_init(|| {
        let _ = std::thread::Builder::new()
            .name("selfprof-aggregator".into())
            .spawn(|| loop {
                std::thread::park_timeout(Duration::from_millis(200));
                drain();
                crate::rss::refresh_cache();
            });
    });
}
