//! Deterministic interpreter for the hot-path virtual ISA.
//!
//! The VM executes a validated [`hotpath_ir::Program`] and emits one
//! [`BlockEvent`] per basic block entered, tagged with how control arrived
//! (jump, taken/not-taken branch, indirect branch, call, return) and whether
//! the transfer was *backward* in the address [`Layout`](hotpath_ir::Layout).
//! That event stream is exactly the information the paper's software
//! profiling schemes observe: NET counts backward-taken-branch targets,
//! bit tracing shifts one bit per conditional branch and records indirect
//! targets, and the interprocedural path extractor segments the stream into
//! forward paths.
//!
//! Determinism is load-bearing: given the same program, initial memory, and
//! globals, every run produces the identical event stream, so experiments
//! can record a trace once and replay prediction schemes over it.
//!
//! # Example
//!
//! ```
//! use hotpath_ir::builder::{FunctionBuilder, ProgramBuilder};
//! use hotpath_ir::CmpOp;
//! use hotpath_vm::{CountingObserver, Vm};
//!
//! let mut fb = FunctionBuilder::new("main");
//! let i = fb.reg();
//! let header = fb.new_block();
//! let body = fb.new_block();
//! let exit = fb.new_block();
//! fb.const_(i, 0);
//! fb.jump(header);
//! fb.switch_to(header);
//! let c = fb.cmp_imm(CmpOp::Lt, i, 4);
//! fb.branch(c, body, exit);
//! fb.switch_to(body);
//! fb.add_imm(i, i, 1);
//! fb.jump(header);
//! fb.switch_to(exit);
//! fb.halt();
//! let mut pb = ProgramBuilder::new();
//! pb.add_function(fb)?;
//! let program = pb.finish()?;
//!
//! let mut vm = Vm::new(&program);
//! let mut counter = CountingObserver::default();
//! let stats = vm.run(&mut counter)?;
//! assert!(stats.halted);
//! assert_eq!(counter.blocks, stats.blocks_executed);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod batch;
mod error;
mod event;
mod opt;
mod trace;
mod trace_exec;
mod vm;

pub use batch::{decode_events, encode_event, encode_events, BatchDecodeError, EVENT_WIRE_BYTES};
pub use error::VmError;
pub use event::{
    BlockEvent, ExecutionObserver, NullObserver, ScriptedController, Tee, TraceCommand,
    TraceController, TraceExcursion, TraceExitReason, TransferKind,
};
pub use opt::OptLevel;
pub use trace::{CountingObserver, RecordedTrace, TraceRecorder};
pub use vm::{
    LinkedState, RunConfig, RunStats, SavedFrame, SavedLinkedState, StepOutcome, Vm,
    EXCURSION_BLOCKS,
};

pub use hotpath_faultinject::{FaultInjector, FaultPlan, FaultPoint};
