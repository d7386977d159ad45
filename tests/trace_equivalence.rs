//! Trace-execution equivalence: the compiled-trace backend must be an
//! *invisible* optimization. `Vm::run_linked` executes whole superblocks
//! with pre-resolved targets, inline guards, and patched trace-to-trace
//! links — and none of that may change a single observable bit relative
//! to plain block-by-block interpretation.
//!
//! Three layers of guards:
//!
//! 1. **Workload sweep.** All nine benchmarks at Small scale, under both
//!    prediction schemes: `RunStats`, final data memory, and every global
//!    register bit-identical between `Vm::run` and `Vm::run_linked`
//!    driven by the full `LinkedEngine`.
//! 2. **Scripted corners.** A `ScriptedController` pins the mechanisms:
//!    guard failure mid-trace, link severing on flush, divergence
//!    chaining into a tail fragment.
//! 3. **Error equivalence.** Fuel exhaustion aborts at the exact same
//!    block with the exact same error, trace cache or not.
//! 4. **Boundary sweep.** Every budget from one block to past the end of
//!    a small looping program, at several fuel-slice sizes, with and
//!    without injected faults: each sliced linked run ends like plain
//!    interpretation at that budget, and the controller sees the same
//!    calls it saw before the dispatcher learned to interpret whole runs
//!    of blocks between trace heads.
//! 5. **Cap sweep.** Slices and budgets around the per-excursion cap
//!    (`EXCURSION_BLOCKS`) on a closed hot loop whose trace chain the cap
//!    splits, faults off and on, end like plain interpretation; and the
//!    loop reaches its controller at least once per cap plus longest
//!    trace.

use hotpath::dynamo::{DynamoConfig, LinkedEngine, Scheme};
use hotpath::ir::builder::{FunctionBuilder, ProgramBuilder};
use hotpath::ir::{CmpOp, GlobalReg, Program};
use hotpath::vm::{
    BlockEvent, ExecutionObserver, FaultInjector, FaultPlan, FaultPoint, NullObserver, RunConfig,
    RunStats, ScriptedController, StepOutcome, TraceCommand, TraceController, TraceExcursion,
    TraceExitReason, TransferKind, Vm, VmError, EXCURSION_BLOCKS,
};
use hotpath::workloads::{suite, Scale};

/// Runs `program` plain and linked (under `engine`), asserting stats,
/// memory, and globals are bit-identical; returns the shared stats.
fn assert_bit_identical<C: TraceController>(
    program: &Program,
    engine: &mut C,
    tag: &str,
) -> hotpath::vm::RunStats {
    let mut plain_vm = Vm::new(program);
    let plain = plain_vm.run(&mut NullObserver).unwrap();

    let mut linked_vm = Vm::new(program);
    let linked = linked_vm.run_linked(engine).unwrap();

    assert_eq!(plain, linked, "{tag}: RunStats");
    assert_eq!(plain_vm.memory(), linked_vm.memory(), "{tag}: final memory");
    for g in 0..GlobalReg::COUNT {
        let g = GlobalReg::new(g as u8);
        assert_eq!(
            plain_vm.global(g),
            linked_vm.global(g),
            "{tag}: global {g:?}"
        );
    }
    linked
}

#[test]
fn all_nine_workloads_bit_identical_under_net() {
    for w in suite(Scale::Small) {
        let mut engine = LinkedEngine::new(DynamoConfig::new(Scheme::Net, 50));
        assert_bit_identical(&w.program, &mut engine, &format!("{:?}/net", w.name));
    }
}

#[test]
fn all_nine_workloads_bit_identical_under_path_profile() {
    for w in suite(Scale::Small) {
        let mut engine = LinkedEngine::new(DynamoConfig::new(Scheme::PathProfile, 50));
        assert_bit_identical(&w.program, &mut engine, &format!("{:?}/pp", w.name));
    }
}

/// Block ids, in build order: 0 = implicit entry, then `new_block` order.
/// For [`two_path_loop`]: header=1, body=2, odd=3, even=4, latch=5,
/// exit=6.
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

/// A guard failing mid-trace (the uncovered parity at the body branch)
/// hands control back to the interpreter at the exact off-trace block;
/// every counter and every state bit stays identical.
#[test]
fn guard_failure_mid_trace_is_bit_identical() {
    let p = two_path_loop(1_000);
    // Primary trace through the even parity only.
    let mut ctl = ScriptedController::new(vec![TraceCommand::Install(vec![1, 2, 4, 5])]);
    assert_bit_identical(&p, &mut ctl, "guard-fail");
    let fails: u64 = ctl.excursions.iter().map(|e| e.guard_fails).sum();
    assert!(
        fails >= 400,
        "odd iterations must fail the parity guard: {fails}"
    );
    // Odd iterations interpret odd→latch and re-enter at header.
    assert!(ctl.excursions.len() >= 400);
    assert!(ctl.interpreted >= 800);
}

/// A controller that installs one trace up front and flushes the cache
/// after a fixed number of excursions: afterwards every block must come
/// from the interpreter again.
struct FlushAfter {
    after: usize,
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
            self.pending.push(TraceCommand::Flush);
        }
    }

    fn poll_command(&mut self) -> Option<TraceCommand> {
        self.pending.pop()
    }
}

/// Flushing severs links and drops traces mid-run without perturbing
/// execution: the run completes bit-identically, no excursion happens
/// after the flush, and the block ledger still balances.
#[test]
fn link_invalidation_on_flush_is_bit_identical() {
    let p = two_path_loop(1_000);
    let mut ctl = FlushAfter {
        after: 5,
        pending: vec![TraceCommand::Install(vec![1, 2, 4, 5])],
        excursions: Vec::new(),
        interpreted: 0,
    };
    let stats = assert_bit_identical(&p, &mut ctl, "flush");
    assert_eq!(ctl.excursions.len(), 5, "no excursions after the flush");
    let trace_blocks: u64 = ctl.excursions.iter().map(|e| e.blocks).sum();
    assert_eq!(
        trace_blocks + ctl.interpreted,
        stats.blocks_executed,
        "every block is either in an excursion or interpreted"
    );
}

/// With a tail fragment installed for the uncovered parity, the primary's
/// failing guard chains straight into it (a patched exit stub) and the
/// tail links back to the primary: the whole loop runs in trace-land as
/// one excursion, still bit-identical.
#[test]
fn divergence_chains_into_a_tail_fragment() {
    let p = two_path_loop(1_000);
    let mut ctl = ScriptedController::new(vec![
        TraceCommand::Install(vec![1, 2, 4, 5]),
        TraceCommand::Install(vec![3, 5]),
    ]);
    assert_bit_identical(&p, &mut ctl, "tail-fragment");
    let links: u64 = ctl.excursions.iter().map(|e| e.links).sum();
    let fails: u64 = ctl.excursions.iter().map(|e| e.guard_fails).sum();
    assert!(links >= 900, "loop closing + stub links: {links}");
    assert!(
        fails >= 400,
        "parity guard still fails, but chains: {fails}"
    );
    // The two fragments cover both parities: after the two installs the
    // interpreter only ever sees the entry block and the blocks before
    // the installs took effect.
    assert!(
        ctl.interpreted < 20,
        "steady state runs entirely in trace-land: {}",
        ctl.interpreted
    );
}

/// Fuel exhaustion is position-exact: the linked VM pre-checks the budget
/// before entering a traversal and falls back to interpretation, so
/// `OutOfFuel` fires at the very same block as plain interpretation.
#[test]
fn fuel_exhaustion_matches_plain_interpretation() {
    let p = two_path_loop(1_000);
    let config = RunConfig {
        max_blocks: 777,
        ..RunConfig::default()
    };

    let plain = Vm::new(&p)
        .with_config(config)
        .run(&mut NullObserver)
        .unwrap_err();
    let mut ctl = ScriptedController::new(vec![TraceCommand::Install(vec![1, 2, 4, 5])]);
    let linked = Vm::new(&p)
        .with_config(config)
        .run_linked(&mut ctl)
        .unwrap_err();

    assert_eq!(plain, linked);
    assert_eq!(plain, VmError::OutOfFuel { budget: 777 });
}

/// Block ids: 0 = main's entry, header=1, body=2, odd=3, even=4,
/// latch=5, exit=6, then the helper's one block (7). The odd arm calls a
/// helper that stores the counter to memory and bumps a global, so the
/// sweep covers frames, memory and globals as well as guard fails into a
/// tail.
fn calling_loop(trip: i64) -> Program {
    let mut pb = ProgramBuilder::new();
    // Declared first, main keeps the low block ids.
    pb.declare("main");
    let helper_id = pb.declare("helper");

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
    fb.set_global(GlobalReg::new(0), i);
    fb.call(helper_id, latch);
    fb.switch_to(even);
    fb.jump(latch);
    fb.switch_to(latch);
    fb.add_imm(i, i, 1);
    fb.jump(header);
    fb.switch_to(exit);
    fb.halt();
    pb.add_function(fb).unwrap();

    let mut fb = FunctionBuilder::new("helper");
    let x = fb.reg();
    let slot = fb.reg();
    fb.get_global(x, GlobalReg::new(0));
    fb.and_imm(slot, x, 7);
    fb.store(x, slot, 0);
    let n = fb.reg();
    fb.get_global(n, GlobalReg::new(1));
    fb.add_imm(n, n, 1);
    fb.set_global(GlobalReg::new(1), n);
    fb.ret();
    pb.add_function(fb).unwrap();
    pb.memory_words(8);
    pb.finish().unwrap()
}

/// Budgets of the boundary sweep: `calling_loop(SWEEP_TRIP)` runs 2,140
/// blocks, so the last budgets let it halt.
const SWEEP_TRIP: i64 = 475;
const SWEEP_BUDGETS: u64 = 2_200;

/// Per slice size of the boundary sweep (`None`: one unbounded call),
/// faults off then on: a digest of every controller call over the whole
/// budget sweep. The calls depend on the slice size (a one-block slice
/// never fits a multi-block trace's first traversal, so it never enters
/// one), so each size has its own digest. They were computed on the
/// one-level dispatcher that took every interpreted block through the
/// trace dispatch checks; a dispatcher that interprets runs of blocks
/// between trace heads must show its controller exactly the same calls.
const SWEEP_DIGESTS: [(Option<u64>, u64, u64); 6] = [
    (Some(1), 0x47366b10186613f3, 0x6d1a0d3963ee3bad),
    (Some(2), 0x7857335514576f0b, 0x1efbf93ac9f30c83),
    (Some(3), 0x47e127f87952732e, 0x51d371ca6a324362),
    (Some(7), 0x3721137fa656fb39, 0x4e7684b0c83ba5cc),
    (Some(37), 0xe83b823abd1ae7b5, 0x9fadf4857b231fca),
    (None, 0x77750812d12b35ee, 0xd85bf4d86f50f1bb),
];

/// FNV-1a taken a word at a time.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Wraps a controller: digests every call the VM makes on it and checks
/// that exactly one `poll_command` returning `None` closes every
/// interpreted block (but the halting one) and every excursion.
struct Calls<C> {
    inner: C,
    digest: Fnv,
    open: bool,
}

impl<C: TraceController> ExecutionObserver for Calls<C> {
    fn on_block(&mut self, event: &BlockEvent) {
        assert!(
            !self.open,
            "on_block before the previous call's closing poll"
        );
        self.open = true;
        let d = &mut self.digest;
        d.word(1);
        d.word(event.from.map_or(u64::MAX, |b| u64::from(b.as_u32())));
        d.word(u64::from(event.block.as_u32()));
        d.word(u64::from(event.kind.tag()));
        d.word(u64::from(event.backward));
        d.word(u64::from(event.block_size));
        self.inner.on_block(event);
    }

    fn on_halt(&mut self) {
        self.open = false;
        self.digest.word(4);
        self.inner.on_halt();
    }
}

impl<C: TraceController> TraceController for Calls<C> {
    fn on_trace_exit(&mut self, e: &TraceExcursion) {
        assert!(
            !self.open,
            "on_trace_exit before the previous call's closing poll"
        );
        self.open = true;
        let d = &mut self.digest;
        d.word(2);
        d.word(u64::from(e.head.as_u32()));
        d.word(e.from.map_or(u64::MAX, |b| u64::from(b.as_u32())));
        d.word(u64::from(e.target.as_u32()));
        d.word(u64::from(e.kind.tag()));
        d.word(u64::from(e.backward));
        d.word(u64::from(e.target_size));
        d.word(e.reason as u64);
        for n in [
            e.blocks,
            e.insts,
            e.entries,
            e.links,
            e.guard_fails,
            e.guard_execs,
        ] {
            d.word(n);
        }
        d.word(u64::from(e.halted));
        self.inner.on_trace_exit(e);
    }

    fn poll_command(&mut self) -> Option<TraceCommand> {
        assert!(self.open, "poll_command with nothing to close");
        let command = self.inner.poll_command();
        let d = &mut self.digest;
        d.word(3);
        match &command {
            None => {
                d.word(0);
                self.open = false;
            }
            Some(TraceCommand::Install(blocks)) => {
                d.word(1);
                blocks.iter().for_each(|&b| d.word(u64::from(b)));
            }
            Some(TraceCommand::Flush) => d.word(2),
        }
        command
    }
}

/// Plain interpretation's counts after the first `n` blocks of the run
/// whose event stream is `events` (`n` below the run's length): the
/// event announcing block `k + 1` names the kind of block `k`'s
/// terminator.
fn prefix_stats(events: &[BlockEvent], n: usize) -> RunStats {
    let mut stats = RunStats {
        blocks_executed: n as u64,
        ..RunStats::default()
    };
    for e in &events[..n] {
        stats.insts_executed += u64::from(e.block_size);
        stats.backward_transfers += u64::from(e.backward);
    }
    let mut depth = 0usize;
    for e in &events[1..=n] {
        match e.kind {
            TransferKind::BranchTaken | TransferKind::BranchNotTaken => stats.cond_branches += 1,
            TransferKind::Indirect => stats.indirect_branches += 1,
            TransferKind::Call => {
                stats.calls += 1;
                depth += 1;
                stats.max_call_depth = stats.max_call_depth.max(depth);
            }
            TransferKind::Return => depth -= 1,
            TransferKind::Start | TransferKind::Jump => {}
        }
    }
    stats
}

struct EventLog(Vec<BlockEvent>);

impl ExecutionObserver for EventLog {
    fn on_block(&mut self, event: &BlockEvent) {
        self.0.push(*event);
    }
}

/// The boundary sweep: for every budget in `1..=SWEEP_BUDGETS` and every
/// slice size, a sliced linked run under NET τ = 50 ends exactly as
/// plain interpretation at that budget — the same `Ok` stats or the same
/// error with the counts plain interpretation had reached, the same
/// memory and globals — with faults off and with seeded faults on. This
/// pins every way the interpreted-block loop hands back to the trace
/// dispatcher: a slice that yields, `OutOfFuel` when the slice cap
/// equals the budget, and a trace head reached by fallthrough. The calls
/// the controller sees are pinned per slice size.
#[test]
fn boundary_sweep_matches_plain_interpretation_at_every_budget_and_slice() {
    let p = calling_loop(SWEEP_TRIP);
    let mut log = EventLog(Vec::new());
    let full = Vm::new(&p).run(&mut log).unwrap();
    assert_eq!(full.blocks_executed, 2_140);
    let plain: Vec<_> = (1..=SWEEP_BUDGETS)
        .map(|budget| {
            let mut vm = Vm::new(&p).with_config(RunConfig {
                max_blocks: budget,
                ..RunConfig::default()
            });
            let result = vm.run(&mut NullObserver);
            (result, vm.memory().to_vec(), vm.globals().to_vec())
        })
        .collect();
    let faults = FaultPlan::new(0x5EE9)
        .with(FaultPoint::GuardFail, 0.05)
        .with(FaultPoint::Flush, 0.005)
        .with(FaultPoint::FuelStarve, 0.05)
        .with(FaultPoint::InstallReject, 0.25);

    let mut table = String::new();
    let mut moved = false;
    for (slice, pinned_off, pinned_on) in SWEEP_DIGESTS {
        let mut digests = [0xcbf2_9ce4_8422_2325u64; 2];
        for (armed, digest) in digests.iter_mut().enumerate() {
            for (budget, (want, memory, globals)) in (1..=SWEEP_BUDGETS).zip(&plain) {
                let tag = format!("budget {budget}, slice {slice:?}, faults {}", armed == 1);
                let mut vm = Vm::new(&p).with_config(RunConfig {
                    max_blocks: budget,
                    ..RunConfig::default()
                });
                if armed == 1 {
                    vm = vm.with_faults(FaultInjector::new(faults));
                }
                let mut calls = Calls {
                    inner: LinkedEngine::new(DynamoConfig::new(Scheme::Net, 50)),
                    digest: Fnv(*digest),
                    open: false,
                };
                let mut state = vm.start_linked();
                let got = loop {
                    match vm.step_linked(&mut state, &mut calls, slice) {
                        Ok(StepOutcome::Yielded) => calls.digest.word(5),
                        Ok(StepOutcome::Halted(stats)) => break Ok(stats),
                        Err(e) => break Err(e),
                    }
                };
                assert!(!calls.open, "{tag}: a call awaits its closing poll");
                assert_eq!(&got, want, "{tag}: result");
                if got.is_err() {
                    let reached = prefix_stats(&log.0, budget as usize);
                    assert_eq!(state.stats(), reached, "{tag}: counts at the error");
                }
                assert_eq!(vm.memory(), &memory[..], "{tag}: memory");
                assert_eq!(vm.globals(), &globals[..], "{tag}: globals");
                calls.digest.word(budget);
                *digest = calls.digest.0;
            }
        }
        table += &format!(
            "    ({slice:?}, 0x{:016x}, 0x{:016x}),\n",
            digests[0], digests[1]
        );
        moved |= digests != [pinned_off, pinned_on];
    }
    assert!(!moved, "controller call digests moved; now:\n{table}");
}

/// Wraps a controller: records where every excursion ended (the run's
/// block count after it), why, and how many blocks it ran.
struct Exits<C> {
    inner: C,
    blocks: u64,
    exits: Vec<(u64, TraceExitReason, u64)>,
}

impl<C> Exits<C> {
    fn new(inner: C) -> Self {
        Exits {
            inner,
            blocks: 0,
            exits: Vec::new(),
        }
    }

    /// Where each excursion that ended at the cap (a `Fuel` exit) ended.
    fn cap_exits(&self) -> Vec<u64> {
        self.exits
            .iter()
            .filter(|e| e.1 == TraceExitReason::Fuel)
            .map(|e| e.0)
            .collect()
    }
}

impl<C: TraceController> ExecutionObserver for Exits<C> {
    fn on_block(&mut self, event: &BlockEvent) {
        self.blocks += 1;
        self.inner.on_block(event);
    }

    fn on_halt(&mut self) {
        self.inner.on_halt();
    }
}

impl<C: TraceController> TraceController for Exits<C> {
    fn on_trace_exit(&mut self, e: &TraceExcursion) {
        self.blocks += e.blocks;
        self.exits.push((self.blocks, e.reason, e.blocks));
        self.inner.on_trace_exit(e);
    }

    fn poll_command(&mut self) -> Option<TraceCommand> {
        self.inner.poll_command()
    }
}

/// The longest fragment `engine` installed, in blocks.
fn longest_fragment(engine: &LinkedEngine) -> u64 {
    let warm = engine.export_warm_state();
    let longest = warm.fragments.iter().map(|f| f.blocks.len()).max();
    longest.expect("the loop installs traces") as u64
}

/// `calling_loop(CAP_TRIP)` runs about 4.5 blocks an iteration, so once
/// its traces link into a closed complex one excursion would run for tens
/// of thousands of blocks without the cap.
const CAP_TRIP: i64 = 12_000;

/// The cap sweep: slices and budgets that straddle [`EXCURSION_BLOCKS`]
/// (one below, at, one above, and twice the cap plus the longest trace),
/// and budgets at and around the first two places where an unbounded run
/// splits a trace chain at the cap. Every run, faults off and on, ends as
/// plain interpretation does at that budget, and the unbounded run with
/// faults off really splits the closed loop's chain at the cap.
#[test]
fn cap_sweep_matches_plain_interpretation_around_the_excursion_cap() {
    let p = calling_loop(CAP_TRIP);
    let mut log = EventLog(Vec::new());
    let full = Vm::new(&p).run(&mut log).unwrap();

    let mut probe = Exits::new(LinkedEngine::new(DynamoConfig::new(Scheme::Net, 50)));
    assert_eq!(Vm::new(&p).run_linked(&mut probe).unwrap(), full);
    let caps = probe.cap_exits();
    assert!(
        caps.len() >= 2,
        "the closed loop must reach the cap twice: {caps:?}"
    );
    let longest = longest_fragment(&probe.inner);
    let cap = EXCURSION_BLOCKS;
    let straddle = [cap - 1, cap, cap + 1, 2 * cap + longest];

    let mut budgets: Vec<u64> = straddle.to_vec();
    for &at in &caps[..2] {
        budgets.extend(at - 2..=at + 2);
    }
    budgets.push(full.blocks_executed);
    budgets.sort_unstable();
    budgets.dedup();
    let slices = straddle.map(Some).into_iter().chain([None]);
    let faults = FaultPlan::new(0xCA9)
        .with(FaultPoint::GuardFail, 0.0005)
        .with(FaultPoint::Flush, 0.0001)
        .with(FaultPoint::FuelStarve, 0.05)
        .with(FaultPoint::InstallReject, 0.25);

    for slice in slices {
        for armed in [false, true] {
            for &budget in &budgets {
                let tag = format!("budget {budget}, slice {slice:?}, faults {armed}");
                let config = RunConfig {
                    max_blocks: budget,
                    ..RunConfig::default()
                };
                let mut plain = Vm::new(&p).with_config(config);
                let want = plain.run(&mut NullObserver);
                let mut vm = Vm::new(&p).with_config(config);
                if armed {
                    vm = vm.with_faults(FaultInjector::new(faults));
                }
                let mut calls = Calls {
                    inner: LinkedEngine::new(DynamoConfig::new(Scheme::Net, 50)),
                    digest: Fnv(0),
                    open: false,
                };
                let mut state = vm.start_linked();
                let got = loop {
                    match vm.step_linked(&mut state, &mut calls, slice) {
                        Ok(StepOutcome::Yielded) => {}
                        Ok(StepOutcome::Halted(stats)) => break Ok(stats),
                        Err(e) => break Err(e),
                    }
                };
                assert!(!calls.open, "{tag}: a call awaits its closing poll");
                assert_eq!(got, want, "{tag}: result");
                if got.is_err() {
                    let reached = prefix_stats(&log.0, budget as usize);
                    assert_eq!(state.stats(), reached, "{tag}: counts at the error");
                }
                assert_eq!(vm.memory(), plain.memory(), "{tag}: memory");
                assert_eq!(vm.globals(), plain.globals(), "{tag}: globals");
            }
        }
    }
}

/// A long closed loop hands control back to its controller at least every
/// [`EXCURSION_BLOCKS`] plus longest-trace blocks: no excursion runs
/// longer, and the chain is split at the cap many times over the run.
#[test]
fn closed_loops_reach_the_controller_at_least_every_excursion_cap() {
    let p = calling_loop(CAP_TRIP);
    let mut exits = Exits::new(LinkedEngine::new(DynamoConfig::new(Scheme::Net, 50)));
    let stats = assert_bit_identical(&p, &mut exits, "closed loop");
    let bound = EXCURSION_BLOCKS + longest_fragment(&exits.inner);
    let longest = exits.exits.iter().map(|e| e.2).max().unwrap_or(0);
    assert!(
        longest <= bound,
        "an excursion ran {longest} blocks, past {bound}"
    );
    let in_traces: u64 = exits.exits.iter().map(|e| e.2).sum();
    assert!(
        in_traces > stats.blocks_executed / 2,
        "the loop runs mostly in traces: {in_traces} of {}",
        stats.blocks_executed
    );
    let caps = exits.cap_exits().len() as u64;
    assert!(
        caps >= in_traces / bound.max(1) - 1,
        "{caps} cap exits for {in_traces} blocks in traces"
    );
}
