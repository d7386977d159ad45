//! Trace-optimizer equivalence: every optimization level must be an
//! *invisible* transformation. Guard elision, entry-guard hoisting,
//! constant folding, exit-stub sinking, and direct-threaded dispatch all
//! rewrite the installed fragment — and none of it may change a single
//! observable bit relative to plain interpretation, at any level.
//!
//! Layers of coverage:
//!
//! 1. **Workload sweep.** All nine benchmarks at Small scale, at every
//!    [`OptLevel`]: `RunStats`, final memory, and every global register
//!    bit-identical between `Vm::run` and the optimized linked backend.
//! 2. **Pass corners.** Crafted programs pin each mechanism: aliased
//!    guards eliding through a `Mov` chain, an entry guard hoisted out
//!    of a loop that still takes its guard-fail exit, links severed by a
//!    flush mid-optimized-complex, and re-optimization after a flush.
//! 3. **Accounting.** Fuel exhaustion stays position-exact under block
//!    merging, and end-to-end guard executions never increase with the
//!    optimizer on, nor rise above the suite totals recorded per level.

use hotpath::dynamo::{run_dynamo_linked, DynamoConfig, LinkedEngine, Scheme};
use hotpath::ir::builder::{FunctionBuilder, ProgramBuilder};
use hotpath::ir::{CmpOp, GlobalReg, Program};
use hotpath::vm::{
    BlockEvent, ExecutionObserver, NullObserver, OptLevel, RunConfig, RunStats, ScriptedController,
    TraceCommand, TraceController, TraceExcursion, Vm, VmError,
};
use hotpath::workloads::{suite, Scale};

const LEVELS: [OptLevel; 3] = [OptLevel::None, OptLevel::Guards, OptLevel::Full];

/// Runs `program` plain and linked-at-`level` (under `engine`), asserting
/// stats, memory, and globals are bit-identical; returns the shared stats.
fn assert_bit_identical_at<C: TraceController>(
    program: &Program,
    level: OptLevel,
    engine: &mut C,
    tag: &str,
) -> RunStats {
    let mut plain_vm = Vm::new(program);
    let plain = plain_vm.run(&mut NullObserver).unwrap();

    let mut linked_vm = Vm::new(program).with_opt_level(level);
    let linked = linked_vm.run_linked(engine).unwrap();

    assert_eq!(plain, linked, "{tag}/{}: RunStats", level.as_str());
    assert_eq!(
        plain_vm.memory(),
        linked_vm.memory(),
        "{tag}/{}: final memory",
        level.as_str()
    );
    for g in 0..GlobalReg::COUNT {
        let g = GlobalReg::new(g as u8);
        assert_eq!(
            plain_vm.global(g),
            linked_vm.global(g),
            "{tag}/{}: global {g:?}",
            level.as_str()
        );
    }
    linked
}

#[test]
fn all_nine_workloads_bit_identical_at_every_level() {
    for level in LEVELS {
        for w in suite(Scale::Small) {
            let mut engine =
                LinkedEngine::new(DynamoConfig::new(Scheme::Net, 50).with_opt_level(level));
            assert_bit_identical_at(&w.program, level, &mut engine, &format!("{:?}", w.name));
        }
    }
}

/// Block ids, in build order: 0 = implicit entry, then `new_block` order:
/// header=1, body=2, hot=3, latch=4, exit=5. The loop condition `c` is
/// `Mov`-copied in the body and the copy is guarded again — on-trace the
/// second guard is always satisfied by the first, so `OptLevel::Guards`
/// must elide it through the alias.
fn aliased_guard_loop(trip: i64) -> Program {
    let mut fb = FunctionBuilder::new("main");
    let i = fb.reg();
    let x = fb.reg();
    let header = fb.new_block();
    let body = fb.new_block();
    let hot = fb.new_block();
    let latch = fb.new_block();
    let exit = fb.new_block();
    fb.const_(i, 0);
    fb.const_(x, 0);
    fb.jump(header);
    fb.switch_to(header);
    let c = fb.cmp_imm(CmpOp::Lt, i, trip);
    fb.branch(c, body, exit);
    fb.switch_to(body);
    let c2 = fb.reg();
    fb.mov(c2, c);
    fb.branch(c2, hot, exit);
    fb.switch_to(hot);
    fb.add_imm(x, x, 3);
    fb.jump(latch);
    fb.switch_to(latch);
    fb.add_imm(i, i, 1);
    fb.jump(header);
    fb.switch_to(exit);
    fb.set_global(GlobalReg::new(0), x);
    fb.halt();
    let mut pb = ProgramBuilder::new();
    pb.add_function(fb).unwrap();
    pb.finish().unwrap()
}

/// A guard on a `Mov` alias of an already-guarded register is redundant:
/// `OptLevel::Guards` elides it, strictly reducing per-iteration guard
/// executions while staying bit-identical.
#[test]
fn aliased_guards_elide_through_copies() {
    let p = aliased_guard_loop(1_000);
    let trace = vec![1, 2, 3, 4];

    let mut guard_execs = Vec::new();
    for level in LEVELS {
        let mut ctl = ScriptedController::new(vec![TraceCommand::Install(trace.clone())]);
        assert_bit_identical_at(&p, level, &mut ctl, "aliased");
        assert!(!ctl.excursions.is_empty(), "trace must run at {level:?}");
        guard_execs.push(ctl.excursions.iter().map(|e| e.guard_execs).sum::<u64>());
    }
    assert!(
        guard_execs[1] < guard_execs[0],
        "Guards must elide the aliased guard: {} vs {} at None",
        guard_execs[1],
        guard_execs[0]
    );
    assert!(
        guard_execs[2] <= guard_execs[1],
        "Full must not reintroduce guards: {guard_execs:?}"
    );
}

/// Block ids, in build order: 0 = implicit entry, then outer_header=1,
/// outer_body=2, inner_header=3, inner_body=4, fast=5, slow=6,
/// inner_latch=7, outer_latch=8, exit=9.
///
/// Two phases of an outer loop run the same inner loop with `flag` = 1
/// then `flag` = 0. A trace over [3, 4, 5, 7] guards `flag` every
/// iteration, but `flag` is never defined inside the (cyclic, call-free)
/// trace — so `OptLevel::Guards` hoists it to a single entry guard. The
/// trip-count guard stays inline and takes its guard-fail exit at the
/// end of each phase; phase two then fails the hoisted entry guard at
/// dispatch and must fall back to interpretation, bit-identically.
fn phased_flag_loop(trip: i64) -> Program {
    let mut fb = FunctionBuilder::new("main");
    let g = fb.reg();
    let x = fb.reg();
    let i = fb.reg();
    let flag = fb.reg();
    let outer_header = fb.new_block();
    let outer_body = fb.new_block();
    let inner_header = fb.new_block();
    let inner_body = fb.new_block();
    let fast = fb.new_block();
    let slow = fb.new_block();
    let inner_latch = fb.new_block();
    let outer_latch = fb.new_block();
    let exit = fb.new_block();
    fb.const_(g, 0);
    fb.const_(x, 0);
    fb.jump(outer_header);
    fb.switch_to(outer_header);
    let oc = fb.cmp_imm(CmpOp::Lt, g, 2);
    fb.branch(oc, outer_body, exit);
    fb.switch_to(outer_body);
    let fc = fb.cmp_imm(CmpOp::Eq, g, 0);
    fb.mov(flag, fc);
    fb.const_(i, 0);
    fb.jump(inner_header);
    fb.switch_to(inner_header);
    let c = fb.cmp_imm(CmpOp::Lt, i, trip);
    fb.branch(c, inner_body, outer_latch);
    fb.switch_to(inner_body);
    fb.branch(flag, fast, slow);
    fb.switch_to(fast);
    fb.add_imm(x, x, 1);
    fb.jump(inner_latch);
    fb.switch_to(slow);
    fb.add_imm(x, x, 2);
    fb.jump(inner_latch);
    fb.switch_to(inner_latch);
    fb.add_imm(i, i, 1);
    fb.jump(inner_header);
    fb.switch_to(outer_latch);
    fb.add_imm(g, g, 1);
    fb.jump(outer_header);
    fb.switch_to(exit);
    fb.set_global(GlobalReg::new(0), x);
    fb.halt();
    let mut pb = ProgramBuilder::new();
    pb.add_function(fb).unwrap();
    pb.finish().unwrap()
}

/// Hoisting a loop-invariant guard to the trace entry survives the
/// guard-fail exit of the *remaining* inline guard, and a later dispatch
/// with the invariant flipped is rejected at entry (interpreting instead
/// of entering a trace whose guard would fail every time).
#[test]
fn hoisted_entry_guard_survives_guard_fail_exit_and_rejects_at_dispatch() {
    let trip = 500;
    let p = phased_flag_loop(trip);
    // The fast-path inner-loop trace; `flag` is loop-invariant inside it.
    let trace = vec![3, 4, 5, 7];

    let mut excursions = Vec::new();
    let mut interpreted = Vec::new();
    for level in LEVELS {
        let mut ctl = ScriptedController::new(vec![TraceCommand::Install(trace.clone())]);
        assert_bit_identical_at(&p, level, &mut ctl, "phased-flag");
        excursions.push(ctl.excursions.len());
        interpreted.push(ctl.interpreted);
    }

    // Without hoisting, phase two enters the trace every iteration and
    // fails the flag guard mid-trace. With the guard hoisted, dispatch
    // rejects the trace up front — far fewer excursions, more
    // interpretation, identical results.
    assert!(
        excursions[0] > trip as usize / 2,
        "at None phase two should re-enter and guard-fail repeatedly: {excursions:?}"
    );
    assert!(
        excursions[1] < 10,
        "at Guards phase two should be rejected at dispatch: {excursions:?}"
    );
    assert!(
        interpreted[1] > interpreted[0],
        "rejected dispatches interpret instead: {interpreted:?}"
    );
}

/// A controller that installs fragments up front, flushes after a fixed
/// number of excursions, and optionally reinstalls afterwards.
struct FlushAfter {
    after: usize,
    reinstall: Vec<Vec<u32>>,
    pending: Vec<TraceCommand>,
    excursions: Vec<TraceExcursion>,
    interpreted: u64,
}

impl ExecutionObserver for FlushAfter {
    fn on_block(&mut self, _event: &BlockEvent) {
        self.interpreted += 1;
    }
}

impl TraceController for FlushAfter {
    fn on_trace_exit(&mut self, excursion: &TraceExcursion) {
        self.excursions.push(*excursion);
        if self.excursions.len() == self.after {
            for blocks in self.reinstall.drain(..) {
                self.pending.push(TraceCommand::Install(blocks));
            }
            self.pending.push(TraceCommand::Flush);
        }
    }

    fn poll_command(&mut self) -> Option<TraceCommand> {
        self.pending.pop()
    }
}

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

/// Block ids, in build order: 0 = implicit entry, then outer_header=1,
/// outer_body=2, inner_header=3, inner_body=4, odd=5, even=6,
/// inner_latch=7, outer_latch=8, exit=9. The inner parity loop restarts
/// once per outer iteration, so a fully-linked inner complex produces one
/// excursion per outer iteration (entered at the inner header, exited
/// when the inner trip guard fails toward the uncovered outer latch).
fn nested_two_path_loop(outer_trip: i64, inner_trip: i64) -> Program {
    let mut fb = FunctionBuilder::new("main");
    let o = fb.reg();
    let i = fb.reg();
    let outer_header = fb.new_block();
    let outer_body = fb.new_block();
    let inner_header = fb.new_block();
    let inner_body = fb.new_block();
    let odd = fb.new_block();
    let even = fb.new_block();
    let inner_latch = fb.new_block();
    let outer_latch = fb.new_block();
    let exit = fb.new_block();
    fb.const_(o, 0);
    fb.jump(outer_header);
    fb.switch_to(outer_header);
    let oc = fb.cmp_imm(CmpOp::Lt, o, outer_trip);
    fb.branch(oc, outer_body, exit);
    fb.switch_to(outer_body);
    fb.const_(i, 0);
    fb.jump(inner_header);
    fb.switch_to(inner_header);
    let c = fb.cmp_imm(CmpOp::Lt, i, inner_trip);
    fb.branch(c, inner_body, outer_latch);
    fb.switch_to(inner_body);
    let par = fb.reg();
    fb.and_imm(par, i, 1);
    fb.branch(par, odd, even);
    fb.switch_to(odd);
    fb.jump(inner_latch);
    fb.switch_to(even);
    fb.jump(inner_latch);
    fb.switch_to(inner_latch);
    fb.add_imm(i, i, 1);
    fb.jump(inner_header);
    fb.switch_to(outer_latch);
    fb.add_imm(o, o, 1);
    fb.jump(outer_header);
    fb.switch_to(exit);
    fb.halt();
    let mut pb = ProgramBuilder::new();
    pb.add_function(fb).unwrap();
    pb.finish().unwrap()
}

/// Flushing a linked, fully-optimized complex (primary + tail fragment,
/// chains patched, blocks merged) severs everything mid-run without
/// perturbing execution; the block ledger still balances because merged
/// steps report their original block counts.
#[test]
fn links_severed_mid_optimized_complex_is_bit_identical() {
    let p = nested_two_path_loop(20, 100);
    // Primary through the even parity, tail fragment for the odd one:
    // once linked, each outer iteration is one chained excursion.
    let mut ctl = FlushAfter {
        after: 5,
        reinstall: Vec::new(),
        pending: vec![
            TraceCommand::Install(vec![5, 7]),
            TraceCommand::Install(vec![3, 4, 6, 7]),
        ],
        excursions: Vec::new(),
        interpreted: 0,
    };
    let stats = assert_bit_identical_at(&p, OptLevel::Full, &mut ctl, "flush-optimized");
    assert_eq!(ctl.excursions.len(), 5, "no excursions after the flush");
    let links: u64 = ctl.excursions.iter().map(|e| e.links).sum();
    assert!(links > 100, "the complex must actually chain: {links}");
    let trace_blocks: u64 = ctl.excursions.iter().map(|e| e.blocks).sum();
    assert_eq!(
        trace_blocks + ctl.interpreted,
        stats.blocks_executed,
        "every block is either in an excursion or interpreted"
    );
}

/// After a flush, a reinstalled trace goes through the optimizer again
/// from scratch and keeps running correctly — re-optimization does not
/// depend on any state from the flushed incarnation.
#[test]
fn reinstall_after_flush_reoptimizes_cleanly() {
    let p = nested_two_path_loop(20, 100);
    let mut ctl = FlushAfter {
        after: 5,
        reinstall: vec![vec![3, 4, 6, 7], vec![5, 7]],
        pending: vec![
            TraceCommand::Install(vec![5, 7]),
            TraceCommand::Install(vec![3, 4, 6, 7]),
        ],
        excursions: Vec::new(),
        interpreted: 0,
    };
    let stats = assert_bit_identical_at(&p, OptLevel::Full, &mut ctl, "reinstall");
    assert!(
        ctl.excursions.len() > 5,
        "the reinstalled traces must run after the flush: {}",
        ctl.excursions.len()
    );
    let trace_blocks: u64 = ctl.excursions.iter().map(|e| e.blocks).sum();
    assert_eq!(trace_blocks + ctl.interpreted, stats.blocks_executed);
}

/// Fuel exhaustion is position-exact even when block merging collapses
/// several trace steps into one dispatch: the per-traversal fuel
/// precheck uses the original block count, so `OutOfFuel` fires at the
/// very same block as plain interpretation.
#[test]
fn fuel_exhaustion_is_exact_under_block_merging() {
    let p = two_path_loop(1_000);
    let config = RunConfig {
        max_blocks: 777,
        ..RunConfig::default()
    };

    let plain = Vm::new(&p)
        .with_config(config)
        .run(&mut NullObserver)
        .unwrap_err();
    for level in LEVELS {
        let mut ctl = ScriptedController::new(vec![TraceCommand::Install(vec![1, 2, 4, 5])]);
        let linked = Vm::new(&p)
            .with_config(config)
            .with_opt_level(level)
            .run_linked(&mut ctl)
            .unwrap_err();
        assert_eq!(plain, linked, "at {level:?}");
    }
    assert_eq!(plain, VmError::OutOfFuel { budget: 777 });
}

/// End to end through the full engine (NET prediction, real installs,
/// linking), optimization never *increases* guard executions and never
/// changes results.
#[test]
fn full_engine_guard_execs_never_increase() {
    let p = aliased_guard_loop(20_000);
    let mut baseline = None;
    for level in LEVELS {
        let config = DynamoConfig::new(Scheme::Net, 50).with_opt_level(level);
        let run = run_dynamo_linked(&p, &config).unwrap();
        match &baseline {
            None => baseline = Some(run.clone()),
            Some(base) => {
                assert_eq!(base.stats, run.stats, "stats at {level:?}");
                assert!(
                    run.outcome.guard_execs <= base.outcome.guard_execs,
                    "guard execs increased at {level:?}: {} vs {}",
                    run.outcome.guard_execs,
                    base.outcome.guard_execs
                );
            }
        }
    }
}

/// Guard executions summed over the nine workloads at `Scale::Smoke`
/// through the full engine (NET, τ=50), recorded per level. The counts
/// are deterministic, so a rise is an optimizer that stopped optimizing.
const RECORDED_SMOKE_GUARD_EXECS: [(OptLevel, u64); 3] = [
    (OptLevel::None, 219_173),
    (OptLevel::Guards, 218_733),
    (OptLevel::Full, 218_733),
];

/// Every level gives the same `RunStats` on every workload, executes no
/// more guards than its recorded total, and `Full` executes no more than
/// `None`.
#[test]
fn suite_guard_execs_stay_at_or_below_the_recorded_totals() {
    let suite = suite(Scale::Smoke);
    let mut reference: Option<Vec<RunStats>> = None;
    let mut totals = Vec::new();
    for (level, recorded) in RECORDED_SMOKE_GUARD_EXECS {
        let config = DynamoConfig::new(Scheme::Net, 50).with_opt_level(level);
        let runs: Vec<_> = suite
            .iter()
            .map(|w| run_dynamo_linked(&w.program, &config).unwrap())
            .collect();
        let stats: Vec<RunStats> = runs.iter().map(|r| r.stats).collect();
        match &reference {
            None => reference = Some(stats),
            Some(base) => assert_eq!(base, &stats, "RunStats at {level:?}"),
        }
        let total: u64 = runs.iter().map(|r| r.outcome.guard_execs).sum();
        assert!(
            total <= recorded,
            "{level:?} executes {total} guards over the suite, above the recorded {recorded}"
        );
        totals.push(total);
    }
    assert!(
        totals[2] <= totals[0],
        "Full executes more guards than None: {totals:?}"
    );
}
