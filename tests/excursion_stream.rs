//! Pins what the trace backend shows its controller, call by call.
//!
//! `tests/linked_outcomes.rs` pins what the engine *concludes*; this file
//! pins what the VM *tells* it, so a rewrite of trace execution that keeps
//! results but shifts one excursion boundary, one link count or one
//! telemetry event shows up here. Every cell digests three streams:
//!
//! * **excursions** — every field of every [`TraceExcursion`], in order;
//! * **calls** — every controller call (`on_block` with its event,
//!   `on_trace_exit`, each `poll_command` and what it returned,
//!   `on_halt`), then the run's result, final memory and globals;
//! * **events** — the `GuardFail`, `LinkPatched`, `LinkSevered`,
//!   `FaultInjected` and `FragmentPoisoned` telemetry sequence with every
//!   payload (checked only when telemetry is compiled in).
//!
//! The same recorder checks the poll protocol on every cell: exactly one
//! `poll_command` returning `None` closes every interpreted `on_block`
//! and every `on_trace_exit`, with nothing else in between. The one
//! exception is the block whose terminator halts the program, which is
//! followed by `on_halt` directly. Tools that cut a timeline at these
//! calls (hotbench's traced engine) rely on it.
//!
//! Cells: the nine workloads at `Scale::Smoke` under NET τ = 50, under a
//! churning configuration (spike flushes and a 32-fragment cache, so
//! flushes fire mid-run) and under seeded fault injection, at every
//! [`OptLevel`]; plus scripted corners, each at every level: a
//! self-chaining loop, a cross-trace link, a guard-fail chain, switch and
//! return exits resolved by head lookup, an entry-guard refusal on a
//! chain, a fuel exit in the middle of an excursion, fuel slices, a flush
//! mid-run, a division by zero and a call-depth overflow inside traces (with the
//! counts the run had reached when it failed), and injected trace
//! panics.
//!
//! On a mismatch the test prints every cell in the table's own format; a
//! deliberate behaviour change replaces the table with it and says in
//! the change log which cells moved and why.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use hotpath::dynamo::{DynamoConfig, FlushPolicy, LinkedEngine, Scheme};
use hotpath::ir::builder::{FunctionBuilder, ProgramBuilder};
use hotpath::ir::{BinOp, CmpOp, GlobalReg, Layout, LocalBlockId, Program};
use hotpath::telemetry::{self, Event, Recorder};
use hotpath::vm::{
    BlockEvent, ExecutionObserver, FaultInjector, FaultPlan, FaultPoint, OptLevel, RunConfig,
    StepOutcome, TraceCommand, TraceController, TraceExcursion, Vm,
};
use hotpath::workloads::{suite, Scale};

const LEVELS: [OptLevel; 2] = [OptLevel::None, OptLevel::Full];

/// FNV-1a over little-endian words.
#[derive(Clone, Copy)]
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn bytes(&mut self, s: &[u8]) {
        self.word(s.len() as u64);
        for &b in s {
            self.word(u64::from(b));
        }
    }

    fn excursion(&mut self, e: &TraceExcursion) {
        self.word(u64::from(e.head.as_u32()));
        self.word(e.from.map_or(u64::MAX, |b| u64::from(b.as_u32())));
        self.word(u64::from(e.target.as_u32()));
        self.word(u64::from(e.kind.tag()));
        self.word(u64::from(e.backward));
        self.word(u64::from(e.target_size));
        self.bytes(e.reason.as_str().as_bytes());
        for n in [
            e.blocks,
            e.insts,
            e.entries,
            e.links,
            e.guard_fails,
            e.guard_execs,
        ] {
            self.word(n);
        }
        self.word(u64::from(e.halted));
    }
}

/// The call a `poll_command` → `None` has yet to close.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Open {
    Nothing,
    Block,
    Exit,
}

/// Wraps a controller: digests every call the VM makes on it and checks
/// the poll protocol.
struct Recording<C> {
    inner: C,
    excursions: Digest,
    calls: Digest,
    open: Open,
    count: u64,
    violations: Vec<String>,
}

impl<C> Recording<C> {
    fn new(inner: C) -> Self {
        Recording {
            inner,
            excursions: Digest::new(),
            calls: Digest::new(),
            open: Open::Nothing,
            count: 0,
            violations: Vec::new(),
        }
    }

    fn opens(&mut self, what: Open) {
        if self.open != Open::Nothing && self.violations.len() < 8 {
            self.violations.push(format!(
                "call {}: {what:?} while {:?} awaits its closing poll",
                self.count, self.open
            ));
        }
        self.open = what;
        self.count += 1;
    }
}

impl<C: TraceController> ExecutionObserver for Recording<C> {
    fn on_block(&mut self, event: &BlockEvent) {
        self.opens(Open::Block);
        let d = &mut self.calls;
        d.word(1);
        d.word(event.from.map_or(u64::MAX, |b| u64::from(b.as_u32())));
        d.word(u64::from(event.block.as_u32()));
        d.word(u64::from(event.kind.tag()));
        d.word(u64::from(event.backward));
        d.word(u64::from(event.block_size));
        self.inner.on_block(event);
    }

    fn on_halt(&mut self) {
        // An interpreted halting block goes straight to `on_halt`; an
        // excursion that halts is closed by its polls first.
        if self.open == Open::Exit && self.violations.len() < 8 {
            self.violations.push(format!(
                "call {}: on_halt before the exit's poll",
                self.count
            ));
        }
        self.open = Open::Nothing;
        self.count += 1;
        self.calls.word(4);
        self.inner.on_halt();
    }
}

impl<C: TraceController> TraceController for Recording<C> {
    fn on_trace_exit(&mut self, excursion: &TraceExcursion) {
        self.opens(Open::Exit);
        self.calls.word(2);
        self.calls.excursion(excursion);
        self.excursions.excursion(excursion);
        self.inner.on_trace_exit(excursion);
    }

    fn poll_command(&mut self) -> Option<TraceCommand> {
        if self.open == Open::Nothing && self.violations.len() < 8 {
            self.violations
                .push(format!("call {}: poll with nothing to close", self.count));
        }
        self.count += 1;
        let command = self.inner.poll_command();
        let d = &mut self.calls;
        d.word(3);
        match &command {
            None => {
                d.word(0);
                self.open = Open::Nothing;
            }
            Some(TraceCommand::Install(blocks)) => {
                d.word(1);
                d.word(blocks.len() as u64);
                for &b in blocks {
                    d.word(u64::from(b));
                }
            }
            Some(TraceCommand::Flush) => d.word(2),
        }
        command
    }
}

/// Digests the trace backend's telemetry events, payloads included.
struct EventDigest(Rc<RefCell<Digest>>);

impl Recorder for EventDigest {
    fn record(&mut self, event: &Event<'_>) {
        let mut d = self.0.borrow_mut();
        match *event {
            Event::GuardFail {
                block,
                target,
                at_block,
            } => {
                d.word(1);
                d.word(u64::from(block));
                d.word(u64::from(target));
                d.word(at_block);
            }
            Event::LinkPatched { from, to } => {
                d.word(2);
                d.word(u64::from(from));
                d.word(u64::from(to));
            }
            Event::LinkSevered { links } => {
                d.word(3);
                d.word(links);
            }
            Event::FaultInjected { point, at_block } => {
                d.word(4);
                d.bytes(point.as_bytes());
                d.word(at_block);
            }
            Event::FragmentPoisoned { head, at_block } => {
                d.word(5);
                d.word(u64::from(head));
                d.word(at_block);
            }
            _ => {}
        }
    }
}

/// One cell's three digests.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Digests {
    excursions: u64,
    calls: u64,
    events: u64,
}

/// Drives `vm` to completion (in slices of `slice` blocks when given)
/// under a recording wrapper of `controller`, and digests everything.
fn record<C: TraceController>(
    vm: &mut Vm,
    controller: C,
    slice: Option<u64>,
    tag: &str,
) -> Digests {
    let events = Rc::new(RefCell::new(Digest::new()));
    let guard = telemetry::install(Box::new(EventDigest(events.clone())));
    let mut rec = Recording::new(controller);
    let result = match slice {
        None => vm.run_linked(&mut rec),
        Some(fuel) => {
            let mut state = vm.start_linked();
            loop {
                match vm.step_linked(&mut state, &mut rec, Some(fuel)) {
                    Ok(StepOutcome::Yielded) => {
                        rec.calls.word(5);
                        rec.calls.word(state.stats().blocks_executed);
                    }
                    Ok(StepOutcome::Halted(stats)) => break Ok(stats),
                    Err(e) => {
                        // What the run had counted when it failed.
                        rec.calls.bytes(format!("{:?}", state.stats()).as_bytes());
                        break Err(e);
                    }
                }
            }
        }
    };
    drop(guard);
    assert!(
        rec.violations.is_empty(),
        "{tag}: poll protocol broken: {:?}",
        rec.violations
    );
    if result.is_ok() {
        assert_eq!(rec.open, Open::Nothing, "{tag}: run ended with a call open");
    }
    let d = &mut rec.calls;
    d.bytes(format!("{result:?}").as_bytes());
    d.word(vm.memory().len() as u64);
    for &w in vm.memory() {
        d.word(w as u64);
    }
    for g in 0..GlobalReg::COUNT {
        d.word(vm.global(GlobalReg::new(g as u8)) as u64);
    }
    let events = events.borrow().0;
    Digests {
        excursions: rec.excursions.0,
        calls: rec.calls.0,
        events,
    }
}

/// The churning configuration of `tests/linked_outcomes.rs`: a small
/// spike window and a small cache, so spike flushes and capacity flushes
/// fire within a smoke run.
fn churning(level: OptLevel) -> DynamoConfig {
    let mut config = DynamoConfig::new(Scheme::Net, 10).with_opt_level(level);
    config.max_fragments = 32;
    config.flush = FlushPolicy::OnSpike {
        window: 50,
        factor: 1.5,
        min_predictions: 2,
    };
    config
}

/// Difffuzz's fault mix, seeded per workload.
fn fault_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .with(FaultPoint::GuardFail, 0.01)
        .with(FaultPoint::Flush, 0.001)
        .with(FaultPoint::FuelStarve, 0.02)
        .with(FaultPoint::InstallReject, 0.25)
}

fn workload_cells() -> Vec<(String, Digests)> {
    let mut cells = Vec::new();
    for (i, w) in suite(Scale::Smoke).iter().enumerate() {
        for level in LEVELS {
            let lv = level.as_str();
            let net = DynamoConfig::new(Scheme::Net, 50).with_opt_level(level);
            let tag = format!("{}/net/{lv}", w.name);
            let mut vm = Vm::new(&w.program).with_opt_level(level);
            cells.push((
                tag.clone(),
                record(&mut vm, LinkedEngine::new(net.clone()), None, &tag),
            ));

            let tag = format!("{}/churn/{lv}", w.name);
            let mut vm = Vm::new(&w.program).with_opt_level(level);
            let engine = LinkedEngine::new(churning(level));
            cells.push((tag.clone(), record(&mut vm, engine, None, &tag)));

            let tag = format!("{}/faulted/{lv}", w.name);
            let mut vm = Vm::new(&w.program)
                .with_opt_level(level)
                .with_faults(FaultInjector::new(fault_plan(0xE5C0 + i as u64)));
            cells.push((
                tag.clone(),
                record(&mut vm, LinkedEngine::new(net), None, &tag),
            ));
        }
    }
    cells
}

/// Hands out its up-front commands one per poll, and queues each timed
/// command once the given number of excursions has been seen.
struct Script {
    queue: VecDeque<TraceCommand>,
    timed: Vec<(usize, TraceCommand)>,
    seen: usize,
}

impl Script {
    fn new(upfront: Vec<TraceCommand>, timed: Vec<(usize, TraceCommand)>) -> Self {
        Script {
            queue: upfront.into(),
            timed,
            seen: 0,
        }
    }

    fn installs(traces: &[&[u32]]) -> Self {
        Script::new(
            traces
                .iter()
                .map(|t| TraceCommand::Install(t.to_vec()))
                .collect(),
            Vec::new(),
        )
    }
}

impl ExecutionObserver for Script {
    fn on_block(&mut self, _event: &BlockEvent) {}
}

impl TraceController for Script {
    fn on_trace_exit(&mut self, _excursion: &TraceExcursion) {
        self.seen += 1;
        let seen = self.seen;
        for (_, command) in self.timed.iter().filter(|(at, _)| *at == seen) {
            self.queue.push_back(command.clone());
        }
    }

    fn poll_command(&mut self) -> Option<TraceCommand> {
        self.queue.pop_front()
    }
}

fn finish(fb: FunctionBuilder) -> Program {
    let mut pb = ProgramBuilder::new();
    pb.add_function(fb).unwrap();
    pb.finish().unwrap()
}

/// header=1, body=2, exit=3: `for i in 0..trip {}`.
fn loop_program(trip: i64) -> Program {
    let mut fb = FunctionBuilder::new("main");
    let i = fb.reg();
    let header = fb.new_block();
    let body = fb.new_block();
    let exit = fb.new_block();
    fb.const_(i, 0);
    fb.jump(header);
    fb.switch_to(header);
    let c = fb.cmp_imm(CmpOp::Lt, i, trip);
    fb.branch(c, body, exit);
    fb.switch_to(body);
    fb.add_imm(i, i, 1);
    fb.jump(header);
    fb.switch_to(exit);
    fb.set_global(GlobalReg::new(0), i);
    fb.halt();
    finish(fb)
}

/// header=1, body=2, odd=3, even=4, latch=5, exit=6: a loop alternating
/// between two paths by the parity of its counter.
fn two_path_loop(trip: i64) -> Program {
    let mut fb = FunctionBuilder::new("main");
    let i = fb.reg();
    let x = fb.reg();
    let header = fb.new_block();
    let body = fb.new_block();
    let odd = fb.new_block();
    let even = fb.new_block();
    let latch = fb.new_block();
    let exit = fb.new_block();
    fb.const_(i, 0);
    fb.const_(x, 0);
    fb.jump(header);
    fb.switch_to(header);
    let c = fb.cmp_imm(CmpOp::Lt, i, trip);
    fb.branch(c, body, exit);
    fb.switch_to(body);
    let par = fb.reg();
    fb.and_imm(par, i, 1);
    fb.branch(par, odd, even);
    fb.switch_to(odd);
    fb.add_imm(x, x, 3);
    fb.jump(latch);
    fb.switch_to(even);
    fb.add_imm(x, x, 5);
    fb.jump(latch);
    fb.switch_to(latch);
    fb.add_imm(i, i, 1);
    fb.jump(header);
    fb.switch_to(exit);
    fb.set_global(GlobalReg::new(0), x);
    fb.halt();
    finish(fb)
}

/// outer_header=1, outer_body=2, inner_header=3, inner_body=4, odd=5,
/// even=6, inner_latch=7, outer_latch=8, exit=9: the parity loop nested
/// in an outer loop, so the inner complex is left and re-entered.
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
    finish(fb)
}

/// outer_header=1, outer_body=2, inner_header=3, inner_body=4, fast=5,
/// slow=6, inner_latch=7, outer_latch=8, exit=9: two phases of an outer
/// loop run one inner loop with a loop-invariant `flag` = 1, then 0.
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
    finish(fb)
}

/// A loop that dispatches through a switch on `i & 3` (targets c0, c1,
/// c2; 3 takes the default, c2) and calls a helper from c0 and c2.
/// Returns the program and the global ids of
/// `[header, body, c0, c1, c2, latch, helper_entry]`.
fn switch_call_loop(trip: i64) -> (Program, [u32; 7]) {
    let mut pb = ProgramBuilder::new();
    let helper_id = pb.declare("helper");
    let mut fb = FunctionBuilder::new("main");
    let i = fb.reg();
    let header = fb.new_block();
    let body = fb.new_block();
    let c0 = fb.new_block();
    let c1 = fb.new_block();
    let c2 = fb.new_block();
    let latch = fb.new_block();
    let exit = fb.new_block();
    fb.const_(i, 0);
    fb.jump(header);
    fb.switch_to(header);
    let c = fb.cmp_imm(CmpOp::Lt, i, trip);
    fb.branch(c, body, exit);
    fb.switch_to(body);
    let s = fb.reg();
    fb.and_imm(s, i, 3);
    fb.switch(s, vec![c0, c1, c2], c2);
    fb.switch_to(c0);
    fb.call(helper_id, latch);
    fb.switch_to(c1);
    fb.add_imm(i, i, 0);
    fb.jump(latch);
    fb.switch_to(c2);
    fb.call(helper_id, latch);
    fb.switch_to(latch);
    fb.add_imm(i, i, 1);
    fb.jump(header);
    fb.switch_to(exit);
    fb.halt();
    let main_id = pb.add_function(fb).unwrap();

    let mut hb = FunctionBuilder::new("helper");
    let t = hb.reg();
    hb.get_global(t, GlobalReg::new(1));
    hb.add_imm(t, t, 1);
    hb.set_global(GlobalReg::new(1), t);
    hb.ret();
    pb.add_function(hb).unwrap();
    let p = pb.finish().unwrap();

    let layout = Layout::new(&p);
    let g = |b: LocalBlockId| layout.global_id(main_id, b).as_u32();
    let ids = [
        g(header),
        g(body),
        g(c0),
        g(c1),
        g(c2),
        g(latch),
        layout.func_entry(helper_id).as_u32(),
    ];
    (p, ids)
}

/// A corner's controller: a script, or NET with a short delay.
enum CornerControl {
    Script(Script),
    Net(Box<LinkedEngine>),
}

impl ExecutionObserver for CornerControl {
    fn on_block(&mut self, event: &BlockEvent) {
        match self {
            CornerControl::Script(s) => s.on_block(event),
            CornerControl::Net(e) => e.on_block(event),
        }
    }

    fn on_halt(&mut self) {
        match self {
            CornerControl::Script(s) => s.on_halt(),
            CornerControl::Net(e) => e.on_halt(),
        }
    }
}

impl TraceController for CornerControl {
    fn on_trace_exit(&mut self, excursion: &TraceExcursion) {
        match self {
            CornerControl::Script(s) => s.on_trace_exit(excursion),
            CornerControl::Net(e) => e.on_trace_exit(excursion),
        }
    }

    fn poll_command(&mut self) -> Option<TraceCommand> {
        match self {
            CornerControl::Script(s) => s.poll_command(),
            CornerControl::Net(e) => e.poll_command(),
        }
    }
}

/// header=1, body=2, exit=3: `for i in 0..trip { x = 1000 / (zero_at - i) }`,
/// which divides by zero inside the loop body once `i` reaches `zero_at`.
fn dividing_loop(trip: i64, zero_at: i64) -> Program {
    let mut fb = FunctionBuilder::new("main");
    let i = fb.reg();
    let x = fb.reg();
    let t = fb.reg();
    let k = fb.reg();
    let header = fb.new_block();
    let body = fb.new_block();
    let exit = fb.new_block();
    fb.const_(i, 0);
    fb.const_(k, 1000);
    fb.jump(header);
    fb.switch_to(header);
    let c = fb.cmp_imm(CmpOp::Lt, i, trip);
    fb.branch(c, body, exit);
    fb.switch_to(body);
    fb.mul_imm(t, i, -1);
    fb.add_imm(t, t, zero_at);
    fb.bin(BinOp::Div, x, k, t);
    fb.add_imm(i, i, 1);
    fb.jump(header);
    fb.switch_to(exit);
    fb.set_global(GlobalReg::new(0), x);
    fb.halt();
    finish(fb)
}

/// `for i in 0..trip { rec(i) }` with `rec(n)` recursing `n` deep
/// (its argument passed in global 0), so a small call-depth limit
/// overflows inside a trace of the unrolled recursion. Returns the
/// program and the global ids of `rec`'s `[entry, recurse]` blocks.
fn recursive_loop(trip: i64) -> (Program, [u32; 7]) {
    let mut pb = ProgramBuilder::new();
    let rec_id = pb.declare("rec");
    let mut fb = FunctionBuilder::new("main");
    let i = fb.reg();
    let header = fb.new_block();
    let body = fb.new_block();
    let latch = fb.new_block();
    let exit = fb.new_block();
    fb.const_(i, 0);
    fb.jump(header);
    fb.switch_to(header);
    let c = fb.cmp_imm(CmpOp::Lt, i, trip);
    fb.branch(c, body, exit);
    fb.switch_to(body);
    fb.set_global(GlobalReg::new(0), i);
    fb.call(rec_id, latch);
    fb.switch_to(latch);
    fb.add_imm(i, i, 1);
    fb.jump(header);
    fb.switch_to(exit);
    fb.halt();
    pb.add_function(fb).unwrap();

    let mut rb = FunctionBuilder::new("rec");
    let n = rb.reg();
    let recurse = rb.new_block();
    let done = rb.new_block();
    rb.get_global(n, GlobalReg::new(0));
    let zero = rb.cmp_imm(CmpOp::Eq, n, 0);
    rb.branch(zero, done, recurse);
    rb.switch_to(recurse);
    rb.add_imm(n, n, -1);
    rb.set_global(GlobalReg::new(0), n);
    rb.call(rec_id, done);
    rb.switch_to(done);
    rb.ret();
    pb.add_function(rb).unwrap();
    let p = pb.finish().unwrap();
    let layout = Layout::new(&p);
    let entry = layout.func_entry(rec_id).as_u32();
    let mut ids = [0; 7];
    ids[0] = entry;
    ids[1] = layout.global_id(rec_id, recurse).as_u32();
    (p, ids)
}

/// A scripted corner: a program and a fresh controller per level.
struct Corner {
    name: &'static str,
    program: Program,
    config: RunConfig,
    slice: Option<u64>,
    faults: Option<FaultPlan>,
    /// `None`: driven by NET at τ = 5 instead of a script.
    script: Option<fn(&[u32; 7]) -> Script>,
    ids: [u32; 7],
}

fn corner(name: &'static str, program: Program, script: fn(&[u32; 7]) -> Script) -> Corner {
    Corner {
        name,
        program,
        config: RunConfig::default(),
        slice: None,
        faults: None,
        script: Some(script),
        ids: [0; 7],
    }
}

fn corners() -> Vec<Corner> {
    let (switch_call, ids) = switch_call_loop(400);
    let (recursive, rec_ids) = recursive_loop(12);
    vec![
        // The latch's jump stub patches back to its own head.
        corner("self-chain", loop_program(1_000), |_| {
            Script::installs(&[&[1, 2]])
        }),
        // Primary through the even parity plus a tail for the odd one.
        corner("cross-link", nested_two_path_loop(20, 100), |_| {
            Script::installs(&[&[5, 7], &[3, 4, 6, 7]])
        }),
        // The parity guard fails every other iteration straight into
        // the odd path's trace, which links back to the primary.
        corner("guard-fail-chain", two_path_loop(600), |_| {
            Script::installs(&[&[1, 2, 4, 5], &[3, 5]])
        }),
        // A switch guard failing into case heads, switch and return
        // exits resolved by head lookup, a call linked into the helper.
        Corner {
            ids,
            ..corner("switch-return-lookup", switch_call, |id| {
                let [header, body, c0, c1, c2, latch, helper] = *id;
                Script::installs(&[
                    &[header, body, c1, latch],
                    &[c0, helper, latch],
                    &[c2],
                    &[helper],
                    &[latch],
                ])
            })
        },
        // Phase two chains from the outer trace into the inner one and
        // fails its hoisted `flag` guard there.
        corner("entry-guard-refusal", phased_flag_loop(300), |_| {
            Script::installs(&[&[3, 4, 5, 7], &[8, 1, 2]])
        }),
        // The budget runs out in the middle of a linked excursion.
        Corner {
            config: RunConfig {
                max_blocks: 777,
                ..RunConfig::default()
            },
            ..corner("fuel-exit", two_path_loop(1_000), |_| {
                Script::installs(&[&[1, 2, 4, 5], &[3, 5]])
            })
        },
        // Slice boundaries fall inside would-be traversals.
        Corner {
            slice: Some(37),
            ..corner("slices", nested_two_path_loop(10, 60), |_| {
                Script::installs(&[&[5, 7], &[3, 4, 6, 7]])
            })
        },
        // A flush after 5 excursions, then a reinstall of one trace.
        corner("flush-mid-run", nested_two_path_loop(20, 100), |_| {
            Script::new(
                vec![
                    TraceCommand::Install(vec![5, 7]),
                    TraceCommand::Install(vec![3, 4, 6, 7]),
                ],
                vec![
                    (5, TraceCommand::Flush),
                    (5, TraceCommand::Install(vec![3, 4, 6, 7])),
                ],
            )
        }),
        // A division by zero inside a linked trace: the counts the run
        // had reached when it failed are part of the digest.
        Corner {
            slice: Some(1 << 40),
            ..corner("error-in-trace", dividing_loop(1_000, 300), |_| {
                Script::installs(&[&[1, 2]])
            })
        },
        // The call-depth limit overflows on a call inside a trace of the
        // unrolled recursion.
        Corner {
            config: RunConfig {
                max_call_depth: 6,
                ..RunConfig::default()
            },
            slice: Some(1 << 40),
            ids: rec_ids,
            ..corner("overflow-in-trace", recursive, |id| {
                let [entry, recurse, ..] = *id;
                Script::installs(&[&[entry, recurse, entry, recurse, entry, recurse, entry]])
            })
        },
        // Injected trace panics poison heads; spurious guard failures,
        // flushes, starvation and install rejections fire between them,
        // and NET keeps reinstalling what they take away.
        Corner {
            faults: Some(FaultPlan::uniform(23, 0.01).with(FaultPoint::TracePanic, 0.02)),
            script: None,
            ..corner("faulted", nested_two_path_loop(20, 100), |_| {
                Script::installs(&[])
            })
        },
    ]
}

fn corner_cells() -> Vec<(String, Digests)> {
    let mut cells = Vec::new();
    for c in corners() {
        for level in LEVELS {
            let tag = format!("{}/{}", c.name, level.as_str());
            let mut vm = Vm::new(&c.program)
                .with_config(c.config)
                .with_opt_level(level);
            if let Some(plan) = c.faults {
                vm = vm.with_faults(FaultInjector::new(plan));
            }
            let script = match c.script {
                Some(script) => CornerControl::Script(script(&c.ids)),
                None => CornerControl::Net(Box::new(LinkedEngine::new(
                    DynamoConfig::new(Scheme::Net, 5).with_opt_level(level),
                ))),
            };
            let digests = if c.faults.is_some() {
                // The VM absorbs injected panics; keep the default hook
                // from printing each one.
                let prev = std::panic::take_hook();
                std::panic::set_hook(Box::new(|_| {}));
                let d = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    record(&mut vm, script, c.slice, &tag)
                }));
                std::panic::set_hook(prev);
                d.expect("the VM absorbs injected panics")
            } else {
                record(&mut vm, script, c.slice, &tag)
            };
            cells.push((tag, digests));
        }
    }
    cells
}

fn check(cells: &[(String, Digests)], pinned: &[(&str, u64, u64, u64)]) {
    let table: String = cells
        .iter()
        .map(|(tag, d)| {
            format!(
                "    (\"{tag}\", 0x{:016x}, 0x{:016x}, 0x{:016x}),\n",
                d.excursions, d.calls, d.events
            )
        })
        .collect();
    let matches = cells.len() == pinned.len()
        && cells.iter().zip(pinned).all(|((tag, d), p)| {
            tag == p.0
                && d.excursions == p.1
                && d.calls == p.2
                && (!cfg!(feature = "telemetry") || d.events == p.3)
        });
    assert!(matches, "excursion stream digests moved; now:\n{table}");
}

#[test]
fn workload_excursion_streams_match_the_pinned_digests() {
    check(&workload_cells(), PINNED_WORKLOADS);
}

#[test]
fn scripted_corner_streams_match_the_pinned_digests() {
    check(&corner_cells(), PINNED_CORNERS);
}

/// `(cell, excursions, calls, events)`.
#[rustfmt::skip]
const PINNED_WORKLOADS: &[(&str, u64, u64, u64)] = &[
    ("compress/net/none", 0x71f294ab473bb65f, 0xc031e4522509f793, 0xfa0606eda4d3a7bc),
    ("compress/churn/none", 0x4a24bc00cf5f49f2, 0x61e4a93fa328b200, 0x1068114d6b9d4296),
    ("compress/faulted/none", 0xb0b6323f3e240987, 0xd46c557ec96deb01, 0x3c80bd5f4f148bb7),
    ("compress/net/full", 0x71f294ab473bb65f, 0xc031e4522509f793, 0xfa0606eda4d3a7bc),
    ("compress/churn/full", 0x4a24bc00cf5f49f2, 0x61e4a93fa328b200, 0x1068114d6b9d4296),
    ("compress/faulted/full", 0xb0b6323f3e240987, 0xd46c557ec96deb01, 0x3c80bd5f4f148bb7),
    ("gcc/net/none", 0x39e5d49390baf89c, 0xdfa9dcc40165624e, 0x27e49fc5c0c92d49),
    ("gcc/churn/none", 0x6c4782fcc4c4b891, 0x279b43d487ba0ccb, 0x80f5de9653d971c8),
    ("gcc/faulted/none", 0x9026c0c8f4bab8ac, 0x7fc72c64c0540f71, 0x186234cfb16fb6da),
    ("gcc/net/full", 0x39e5d49390baf89c, 0xdfa9dcc40165624e, 0x27e49fc5c0c92d49),
    ("gcc/churn/full", 0x6c4782fcc4c4b891, 0x279b43d487ba0ccb, 0x80f5de9653d971c8),
    ("gcc/faulted/full", 0x9026c0c8f4bab8ac, 0x7fc72c64c0540f71, 0x186234cfb16fb6da),
    ("go/net/none", 0x1bb820544d0ed945, 0xe766928aff2bdfa6, 0x38e867086a7973f6),
    ("go/churn/none", 0xd625fd011a23db82, 0xfc5b29d930eff878, 0x44e53fea476a3b3d),
    ("go/faulted/none", 0x84aff4d89d0c8049, 0x22155234c3c7414d, 0x2d294975b2381736),
    ("go/net/full", 0x1bb820544d0ed945, 0xe766928aff2bdfa6, 0x38e867086a7973f6),
    ("go/churn/full", 0xd625fd011a23db82, 0xfc5b29d930eff878, 0x44e53fea476a3b3d),
    ("go/faulted/full", 0x84aff4d89d0c8049, 0x22155234c3c7414d, 0x2d294975b2381736),
    ("ijpeg/net/none", 0xb8d65eb78d17a131, 0x458a567d331e9fd2, 0xab80942586ca3d18),
    ("ijpeg/churn/none", 0x2b51b71c0e034ec9, 0x8f11e26c068e3b8c, 0xe94a9cf4bfd0fb92),
    ("ijpeg/faulted/none", 0x0e4b5c92d6b23c60, 0xbfc76909458255ce, 0xa1ab3cf87e3081f8),
    ("ijpeg/net/full", 0x86cf476696249e11, 0x4ad0dce9425edb72, 0xab80942586ca3d18),
    ("ijpeg/churn/full", 0xe9f9a7ef55846af9, 0xe4377846e87b6820, 0xe94a9cf4bfd0fb92),
    ("ijpeg/faulted/full", 0x0e4b5c92d6b23c60, 0xbfc76909458255ce, 0xa1ab3cf87e3081f8),
    ("li/net/none", 0xa504d8da92c8ba3e, 0xe620d41c2f60e7ec, 0x6daccd586a33571f),
    ("li/churn/none", 0x53ac2a87268cc9f4, 0x7af0e669714213f0, 0x78320dbf0291afb4),
    ("li/faulted/none", 0xe564b77f059467bc, 0xe610ac6389cb93eb, 0x9073d433e599ac3a),
    ("li/net/full", 0xa504d8da92c8ba3e, 0xe620d41c2f60e7ec, 0x6daccd586a33571f),
    ("li/churn/full", 0x53ac2a87268cc9f4, 0x7af0e669714213f0, 0x78320dbf0291afb4),
    ("li/faulted/full", 0xe564b77f059467bc, 0xe610ac6389cb93eb, 0x9073d433e599ac3a),
    ("m88ksim/net/none", 0x64a8173c6b3767c4, 0x0f42214f212755bd, 0x4efd7be269f14788),
    ("m88ksim/churn/none", 0x850ee892ac1818ca, 0x91d5ecca734e878e, 0xf88f4df29f4a157b),
    ("m88ksim/faulted/none", 0x92cfd3459de750a2, 0xbc46aabf1b57d52f, 0x5cc17736ea6a182c),
    ("m88ksim/net/full", 0x64a8173c6b3767c4, 0x0f42214f212755bd, 0x4efd7be269f14788),
    ("m88ksim/churn/full", 0x850ee892ac1818ca, 0x91d5ecca734e878e, 0xf88f4df29f4a157b),
    ("m88ksim/faulted/full", 0x92cfd3459de750a2, 0xbc46aabf1b57d52f, 0x5cc17736ea6a182c),
    ("perl/net/none", 0x6c93dceef7414b1d, 0xfa90da5572005774, 0x6a894f613fb6abe6),
    ("perl/churn/none", 0x2e4553e0e4eab8a3, 0xaf74f43741043dd7, 0xe406096c265ef331),
    ("perl/faulted/none", 0xaa6256e8d75b5af5, 0xf9c2221972fc6d30, 0x9f9ef27661a52b6a),
    ("perl/net/full", 0x6c93dceef7414b1d, 0xfa90da5572005774, 0x6a894f613fb6abe6),
    ("perl/churn/full", 0x2e4553e0e4eab8a3, 0xaf74f43741043dd7, 0xe406096c265ef331),
    ("perl/faulted/full", 0xaa6256e8d75b5af5, 0xf9c2221972fc6d30, 0x9f9ef27661a52b6a),
    ("vortex/net/none", 0x2647147af68c19ca, 0x93344aab44eb1ba8, 0xdfcfd3dc80c7b9e3),
    ("vortex/churn/none", 0x0750d7a9ab03cc43, 0x4d0e66462048d6b2, 0xf8f665ca2b933cb7),
    ("vortex/faulted/none", 0xcbf29ce484222325, 0x18b6260e701b8ddf, 0x3670356ed0082a0d),
    ("vortex/net/full", 0x2647147af68c19ca, 0x93344aab44eb1ba8, 0xdfcfd3dc80c7b9e3),
    ("vortex/churn/full", 0x0750d7a9ab03cc43, 0x4d0e66462048d6b2, 0xf8f665ca2b933cb7),
    ("vortex/faulted/full", 0xcbf29ce484222325, 0x18b6260e701b8ddf, 0x3670356ed0082a0d),
    ("deltablue/net/none", 0x467a887af93a2bee, 0xdc82e163c9752420, 0x3a8d71999f7a765b),
    ("deltablue/churn/none", 0xe0e454cf95d462a8, 0x8058161d2a87d470, 0x6fe29b182e3fb043),
    ("deltablue/faulted/none", 0x9f4f18822ef72a7c, 0x0dd51800b561e2ed, 0xb789d3ad7293a3ca),
    ("deltablue/net/full", 0x467a887af93a2bee, 0xdc82e163c9752420, 0x3a8d71999f7a765b),
    ("deltablue/churn/full", 0xe0e454cf95d462a8, 0x8058161d2a87d470, 0x6fe29b182e3fb043),
    ("deltablue/faulted/full", 0x9f4f18822ef72a7c, 0x0dd51800b561e2ed, 0xb789d3ad7293a3ca),
];

/// `(cell, excursions, calls, events)`.
#[rustfmt::skip]
const PINNED_CORNERS: &[(&str, u64, u64, u64)] = &[
    ("self-chain/none", 0x73dd9d15a91cedee, 0x676efdb9385a85d3, 0xe37864be9ba49098),
    ("self-chain/full", 0x73dd9d15a91cedee, 0x676efdb9385a85d3, 0xe37864be9ba49098),
    ("cross-link/none", 0xca4dcb00d035d36d, 0xcf7c239df8d58852, 0x2f7732e78b6a84d1),
    ("cross-link/full", 0xca4dcb00d035d36d, 0xcf7c239df8d58852, 0x2f7732e78b6a84d1),
    ("guard-fail-chain/none", 0xe86bb8ad459941ec, 0x035ed1cab55862a5, 0x033e11bb40dcb495),
    ("guard-fail-chain/full", 0xe86bb8ad459941ec, 0x035ed1cab55862a5, 0x033e11bb40dcb495),
    ("switch-return-lookup/none", 0x87c02931dad1d328, 0x56735689af0dab80, 0x41b68bd95d7edb16),
    ("switch-return-lookup/full", 0x87c02931dad1d328, 0x56735689af0dab80, 0x41b68bd95d7edb16),
    ("entry-guard-refusal/none", 0x927b94c0c6c25d92, 0xaaf37036fd27bb2b, 0x6a1a38969df23d16),
    ("entry-guard-refusal/full", 0x2dd0ffaf8c636c2b, 0xd3c324b4bc0b8f83, 0x2eaaf38d963032b8),
    ("fuel-exit/none", 0x2e60f50d45c8a3c1, 0x4a319a86710bd60a, 0x53599d3ff5937550),
    ("fuel-exit/full", 0x2e60f50d45c8a3c1, 0x4a319a86710bd60a, 0x53599d3ff5937550),
    ("slices/none", 0x766aa13706d2c640, 0x33596f619954acd5, 0xb0dc60d995367dd6),
    ("slices/full", 0x766aa13706d2c640, 0x33596f619954acd5, 0xb0dc60d995367dd6),
    ("flush-mid-run/none", 0xeb3686df98628bfe, 0x170afad083162e18, 0x5e1d65593f730e87),
    ("flush-mid-run/full", 0xeb3686df98628bfe, 0x170afad083162e18, 0x5e1d65593f730e87),
    ("error-in-trace/none", 0xcbf29ce484222325, 0xc8fdd691b6fe896c, 0x122a9fb549f67d24),
    ("error-in-trace/full", 0xcbf29ce484222325, 0xc8fdd691b6fe896c, 0x122a9fb549f67d24),
    ("overflow-in-trace/none", 0xb3bd5ccf8985783f, 0xb7f1fe43caad1ca1, 0xb86ce6c8aa639b6b),
    ("overflow-in-trace/full", 0xb3bd5ccf8985783f, 0xb7f1fe43caad1ca1, 0xb86ce6c8aa639b6b),
    ("faulted/none", 0x765fbebe9adf45dd, 0xf2ad96c218e62ed5, 0x03153988cb4ad401),
    ("faulted/full", 0x765fbebe9adf45dd, 0xf2ad96c218e62ed5, 0x03153988cb4ad401),
];
