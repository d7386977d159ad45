//! Lightweight observability for the hot-path prediction pipeline.
//!
//! The paper's thesis is that profiling *overhead* — not profile quality —
//! decides a dynamic optimizer's fate, so this reproduction measures its
//! own cycles the same way it measures the schemes it studies: with
//! near-zero-cost instrumentation that can be compiled out entirely.
//!
//! The crate provides four layers:
//!
//! * [`Event`] — structured, deterministic descriptions of what the
//!   pipeline did: path completions, τ-triggers, fragment installs, cache
//!   flushes, mode transitions, counter-table growth. Events carry only
//!   *logical* clocks (paths completed, blocks executed, observations
//!   made), never wall-clock time, so two identical runs emit byte-identical
//!   streams. The one exception is [`Event::Timing`], which reports measured
//!   wall seconds and is documented as nondeterministic.
//! * [`Recorder`] — the consumer interface. [`NullRecorder`] discards
//!   everything (and is verified to leave results bit-identical),
//!   [`JsonlRecorder`] writes one JSON object per line, and
//!   [`SummaryRecorder`] folds the stream into a [`TelemetrySummary`] of
//!   counts and fixed-bucket [`Histogram`]s.
//! * The thread-local emit path — [`install`], [`enabled`], and the
//!   [`emit!`](crate::emit) macro. Producers call `emit!` unconditionally;
//!   the event expression is only evaluated while a recorder is installed
//!   on the current thread. With the `enabled` feature off (build with
//!   `--no-default-features`), [`enabled`] is a constant `false` and every
//!   call site compiles out.
//! * [`json`] — a minimal JSON value parser (the workspace has no external
//!   dependencies), used by `bench_compare` to read hotbench result
//!   lines.
//!
//! # Example
//!
//! ```
//! use hotpath_telemetry as telemetry;
//! use telemetry::{Event, JsonlRecorder};
//!
//! let (recorder, buffer) = JsonlRecorder::to_shared_buffer();
//! let guard = telemetry::install(Box::new(recorder));
//! telemetry::emit!(Event::TauTrigger {
//!     scheme: "net",
//!     head: 7,
//!     tau: 50,
//!     observed: 50,
//! });
//! drop(guard);
//! let bytes = buffer.borrow();
//! # #[cfg(feature = "enabled")]
//! assert!(std::str::from_utf8(&bytes).unwrap().contains("\"tau_trigger\""));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod event;
mod histogram;
pub mod json;
mod recorder;
mod summary;

pub use event::Event;
pub use histogram::{Histogram, POW2_BOUNDS};
pub use recorder::{
    emit_event, enabled, install, JsonlRecorder, NullRecorder, Recorder, RecorderGuard,
};
pub use summary::{SummaryHandle, SummaryRecorder, TelemetrySummary};

/// Emits an event to the recorder installed on the current thread, if any.
///
/// The event expression is evaluated lazily: when no recorder is installed
/// (or the `enabled` feature is off) the argument is never constructed, so
/// call sites in hot loops cost one thread-local flag check.
#[macro_export]
macro_rules! emit {
    ($event:expr) => {
        if $crate::enabled() {
            $crate::emit_event(&$event);
        }
    };
}
