//! Path profiling substrates for the hot-path prediction reproduction.
//!
//! Implements everything §2–3 of Duesterwald & Bala (ASPLOS 2000) builds on:
//!
//! * [`PathSignature`] — *bit tracing*: a path is identified by
//!   `<start>.<branch-history-bits>,<indirect-target-list>`, constructed on
//!   the fly as the program executes (paper §2, Figure 1);
//! * [`PathExtractor`] — the paper's **interprocedural forward path**
//!   definition (§3): a path starts at the target of a backward taken
//!   branch, extends to the next backward taken branch, may cross calls and
//!   returns unless they are backward, and terminates at the return matching
//!   an in-path call, if not earlier. Its boundary rules alone are
//!   [`PathSegmenter`], which is all NET needs;
//! * [`PathTable`] / [`PathProfile`] / [`HotPathSet`] — interning, frequency
//!   distributions, flow, and the 0.1% `HotPath` set of Table 1;
//! * [`PathStream`] — a compact recording of every path execution so τ-sweeps
//!   replay without re-running the VM;
//! * [`BallLarusProfiler`] — runtime path profiling via the Ball–Larus
//!   numbering (spanning-tree instrumented edges), the paper's offline
//!   baseline;
//! * [`KBoundedProfiler`] — Young & Smith k-bounded general paths via a
//!   FIFO of the most recent branches (paper §2);
//! * [`ProfilingCost`] — counts of the runtime profiling operations
//!   (history shifts, counter increments, table updates) that the paper's
//!   overhead argument is about.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod ball_larus_profile;
mod cost;
mod edge;
mod kbounded;
mod path;
mod persist;
mod profile;
mod sequences;
mod signature;
mod stream;

pub use ball_larus_profile::BallLarusProfiler;
pub use cost::ProfilingCost;
pub use edge::{estimate_path_freq, showdown, EdgeProfiler, ShowdownReport};
pub use kbounded::KBoundedProfiler;
pub use path::{
    BackwardRule, Boundary, CollectSink, PathEndKind, PathExecution, PathExtractor, PathSegmenter,
    PathSink, PathSpan, PathStartKind, DEFAULT_PATH_CAP,
};
pub use persist::{load_run, save_run};
pub use profile::{HotPathSet, PathProfile};
pub use sequences::SequenceRecorder;
pub use signature::{PathId, PathInfo, PathSignature, PathTable};
pub use stream::{PathStream, StreamingSink};
