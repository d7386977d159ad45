//! A Dynamo-style dynamic optimizer simulation (paper §6).
//!
//! Dynamo interprets a native binary, profiles it with a hot-path
//! prediction scheme, and compiles predicted paths into a software
//! *fragment cache* where they run faster than native thanks to trace
//! straightening and linking. The performance question of Figure 5 —
//! NET vs. path-profile based prediction inside such a system — is about
//! *relative* costs: cycles spent interpreting, profiling, and building
//! traces against cycles saved by cached execution.
//!
//! This crate reproduces that system over the `hotpath-vm` event stream
//! with an explicit [`CostModel`] measured in abstract machine cycles:
//!
//! * [`Engine`] — the optimizer: interprets (charging interpretation and
//!   per-scheme profiling costs), predicts hot paths with a
//!   [`NetPredictor`](hotpath_core::NetPredictor) or
//!   [`PathProfilePredictor`](hotpath_core::PathProfilePredictor), records
//!   them into [`FragmentCache`] fragments, executes matching paths from
//!   the cache (cheaper than native), pays entry/exit/divergence
//!   penalties, links fragment-to-fragment transitions, installs
//!   *secondary* fragments for sibling paths of retired NET heads (Dynamo's
//!   exit-stub trace heads), detects phase changes by prediction-rate
//!   spikes and flushes ([`FlushPolicy`]), and bails out to native
//!   execution when the cache churns without reuse (as Dynamo does on
//!   gcc/go);
//! * [`run_native`] / [`run_dynamo`] — the Figure 5 harness: speedup of
//!   Dynamo over native execution per scheme and prediction delay;
//! * [`LinkedEngine`] / [`run_dynamo_linked`] — the same selection policy
//!   driving the VM's *real* trace-execution backend
//!   ([`Vm::run_linked`](hotpath_vm::Vm::run_linked)): predicted paths are
//!   compiled into contiguous guarded traces, guard exits that reach other
//!   trace heads are patched into direct links, and whole superblock
//!   excursions execute with no per-block dispatch — bit-identical results
//!   at interpreter-beating wall-clock speed.
//!
//! # Example
//!
//! ```
//! use hotpath_dynamo::{run_dynamo, run_native, DynamoConfig, Scheme};
//! use hotpath_workloads::{build, Scale, WorkloadName};
//!
//! let w = build(WorkloadName::Compress, Scale::Smoke);
//! let native = run_native(&w.program)?;
//! let outcome = run_dynamo(&w.program, &DynamoConfig::new(Scheme::Net, 50))?;
//! assert!(outcome.cycles.total() > 0.0);
//! // Speedup is (native - dynamo) / dynamo, as a percentage.
//! let _ = outcome.speedup_percent(native);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cost;
mod engine;
mod fragment;
mod linked;
mod phases;

pub use cost::{CostModel, CycleBreakdown};
pub use engine::{
    run_dynamo, run_native, BailoutPolicy, DynamoConfig, DynamoOutcome, Engine, Scheme,
};
pub use fragment::{Fragment, FragmentCache, FragmentError, FragmentId};
pub use linked::{run_dynamo_linked, EngineWarmState, FragmentRecord, LinkedEngine, LinkedRun};
pub use phases::{FlushPolicy, SpikeDetector};
