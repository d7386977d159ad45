//! Fragment-install-time trace optimizer.
//!
//! A [`CompiledTrace`] is a single-entry, single-path superblock: every
//! step has exactly one on-trace successor, and every divergence leaves
//! through an exit stub. That shape makes classic forward dataflow
//! trivially sound — facts established by an instruction or by a passing
//! guard hold for the *rest of the same traversal*, because there is no
//! join point that could invalidate them (the abstract-interpretation
//! framing of tracing-JIT optimization, Dissegna et al.).
//!
//! [`optimize`] runs at install time, between `compile_trace` and
//! `TraceCache::install`, controlled by an [`OptLevel`]:
//!
//! * [`OptLevel::None`] — install the trace exactly as compiled; the
//!   reference the optimized level is tested against.
//! * [`OptLevel::Full`] — hoist loop-invariant guards to the trace entry
//!   ([`hoist`]), fold constants and propagate copies across the
//!   pre-resolved stream ([`constfold`]), drop guards implied by earlier
//!   facts on the same superblock ([`guard_elim`]), sink dead constants
//!   into exit stubs ([`sink`]), and predecode the stream into
//!   direct-threaded [`MicroOp`]s with straight-line steps merged and
//!   each guard's feeding compare fused into it ([`thread`]). The default
//!   for [`crate::Vm`] and the Dynamo engine.
//!
//! Invariants every pass preserves:
//!
//! * **Bit-identity.** `RunStats`, memory, globals, and errors are
//!   indistinguishable from the unoptimized trace (and therefore from
//!   plain interpretation). Removed guards and merged steps account
//!   their stats through the per-step `d_cond`/`d_blocks`/`d_backward`
//!   deltas; sunk constants materialize through per-step exit stubs on
//!   every path that leaves the trace.
//! * **Exit-stub identity.** A surviving guard keeps its step's
//!   `link_a`/`link_b` slots and its pre-resolved fail target, so
//!   fragment linking and link severing work unchanged at every level.
//! * **Dataflow gating.** Passes that reason about registers only run on
//!   call-free traces (one function, constant frame base). Threading and
//!   merging are shape-only and run on any trace.

mod analysis;
mod constfold;
mod guard_elim;
mod hoist;
mod sink;
mod thread;

pub(crate) use thread::{exec_op, fused_compare, MicroOp};

use hotpath_telemetry as telemetry;

use crate::trace_exec::CompiledTrace;

/// How aggressively traces are optimized at fragment-install time.
///
/// Every level is bit-identical to every other in `RunStats`, memory,
/// globals, and errors; levels differ only in how much work each trace
/// traversal performs.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub enum OptLevel {
    /// Install traces exactly as compiled.
    None,
    /// All passes: redundant-guard elimination and loop-invariant guard
    /// hoisting, constant folding and copy propagation, dead constant
    /// sinking into exit stubs, and direct-threaded dispatch with
    /// straight-line step merging and fused compares.
    #[default]
    Full,
}

impl OptLevel {
    /// Stable lower-case name (`"none"` / `"full"`), e.g.
    /// for CLI flags and serve session specs.
    pub fn as_str(self) -> &'static str {
        match self {
            OptLevel::None => "none",
            OptLevel::Full => "full",
        }
    }

    /// Parses [`OptLevel::as_str`] output (case-sensitive).
    pub fn parse(s: &str) -> Option<OptLevel> {
        match s {
            "none" => Some(OptLevel::None),
            "full" => Some(OptLevel::Full),
            _ => None,
        }
    }
}

/// Runs a wall-clock-timed optimizer pass, emitting its duration as an
/// `opt_pass_ns` event (nondeterministic, like `timing`).
fn timed<T>(pass: &'static str, f: impl FnOnce() -> T) -> T {
    let start = std::time::Instant::now();
    let out = f();
    telemetry::emit!(telemetry::Event::OptPass {
        pass,
        ns: start.elapsed().as_nanos() as u64,
    });
    out
}

/// Optimizes a freshly compiled trace in place.
///
/// Runs between `compile_trace` and `TraceCache::install`, so links are
/// still unpatched and nothing has executed the trace yet.
pub(crate) fn optimize(tr: &mut CompiledTrace, level: OptLevel) {
    if level == OptLevel::None {
        return;
    }
    let mut folded = 0;
    let mut sunk = 0;
    if analysis::call_free(tr) {
        timed("hoist", || hoist::run(tr));
        folded = timed("constfold", || constfold::run(tr));
        timed("guard_elim", || guard_elim::run(tr));
        sunk = timed("sink", || sink::run(tr));
    }
    timed("thread", || thread::run(tr));
    if folded > 0 || sunk > 0 {
        telemetry::emit!(telemetry::Event::ConstFolded {
            head: tr.head,
            folded,
            sunk,
        });
    }
}
