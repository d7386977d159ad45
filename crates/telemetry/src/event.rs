//! Structured pipeline events and their deterministic JSON-lines encoding.

use std::fmt::Write as _;

/// One thing the pipeline did.
///
/// Every variant carries logical clocks only (paths completed, blocks
/// executed, observations made); [`Event::OptPass`] is the sole wall-clock
/// exception and is excluded from determinism guarantees.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Event<'a> {
    /// A VM run reached `Halt`.
    VmHalt {
        /// Basic blocks executed over the run.
        blocks: u64,
        /// Instruction slots executed over the run.
        insts: u64,
    },
    /// The path extractor completed one interprocedural forward path.
    ///
    /// Only path identification emits it: offline extraction, the
    /// simulated Dynamo engine, and the linked engine under path
    /// profiling. The linked engine under NET finds path boundaries without
    /// identifying paths, so its runs emit none; their profiling shows as
    /// `tau_trigger` events.
    PathCompleted {
        /// Interned path id.
        path: u32,
        /// Head block (global id).
        head: u32,
        /// Blocks on this execution.
        blocks: u32,
        /// Instruction slots on this execution.
        insts: u32,
        /// Why the path began (`"entry"`, `"backward"`, `"continuation"`).
        start: &'static str,
        /// Why the path ended (`"backward"`, `"call_return"`, `"capped"`,
        /// `"program_end"`).
        end: &'static str,
    },
    /// A dense counter table grew to cover a new id range.
    CounterTableGrow {
        /// Which table family grew (`"counter_table"`, `"adj_rows"`).
        table: &'static str,
        /// Slot count before the growth.
        from: u64,
        /// Slot count after the growth.
        to: u64,
    },
    /// A predictor's counter reached the prediction delay τ.
    TauTrigger {
        /// Scheme that triggered (`"net"`, `"path_profile"`).
        scheme: &'static str,
        /// The head (NET) or path id (path-profile) whose counter fired.
        head: u32,
        /// The delay τ that was reached.
        tau: u64,
        /// Profiling observations the scheme had made when it fired — the
        /// logical timestamp; deltas between consecutive triggers are the
        /// τ-trigger latencies.
        observed: u64,
    },
    /// The Dynamo engine installed a fragment.
    FragmentInstall {
        /// Head block of the fragment.
        head: u32,
        /// Blocks covered.
        blocks: u32,
        /// Instruction slots covered.
        insts: u32,
        /// Total installs so far (including this one).
        installs: u64,
        /// Paths completed when the install happened — deltas between
        /// consecutive installs are the trace-formation interarrivals.
        at_path: u64,
    },
    /// The Dynamo engine flushed its fragment cache, evicting every live
    /// fragment.
    CacheFlush {
        /// Why (`"capacity"`, `"spike"`).
        kind: &'static str,
        /// Fragments evicted.
        evicted: u64,
        /// Paths completed at the flush.
        at_path: u64,
    },
    /// The Dynamo engine bailed out to native execution.
    Bailout {
        /// Paths completed at the bail-out.
        at_path: u64,
        /// Fragments installed up to the bail-out.
        installs: u64,
    },
    /// The Dynamo engine switched execution mode.
    Transition {
        /// Which edge of the interpret/trace state machine fired
        /// (`"cache_enter"`, `"link_sibling"`, `"link_stub"`,
        /// `"link_next"`, `"link_extend"`, `"early_exit"`, `"cache_exit"`).
        kind: &'static str,
        /// Blocks executed when the transition happened.
        at_block: u64,
    },
    /// Final hotness of one exit-stub counter (emitted when a Dynamo
    /// engine is finalized, once per counted stub target).
    ExitStubHotness {
        /// The stub's target block.
        target: u32,
        /// Arrivals counted through the stub.
        count: u64,
    },
    /// The VM dispatched into a compiled trace (the start of one batched
    /// excursion through trace-land).
    TraceEnter {
        /// Head block of the entered trace.
        head: u32,
        /// Blocks executed when the entry happened.
        at_block: u64,
    },
    /// The VM left trace-land — one batched event per excursion, covering
    /// every linked trace traversed since the matching
    /// [`Event::TraceEnter`].
    TraceExit {
        /// Why the excursion ended (`"trace_end"`, `"guard_fail"`,
        /// `"fuel"`, `"halt"`).
        reason: &'static str,
        /// Block control transferred to.
        target: u32,
        /// Blocks executed inside the excursion.
        blocks: u64,
        /// Trace traversals the excursion made (≥ 1).
        entries: u64,
        /// Trace-to-trace link transfers taken.
        links: u64,
        /// Guard checks executed inside the excursion (entry guards
        /// included); the optimizer exists to shrink this.
        guards: u64,
        /// Blocks executed when the exit happened.
        at_block: u64,
    },
    /// A trace guard failed mid-trace, diverting control off the predicted
    /// path.
    GuardFail {
        /// Block whose guard failed.
        block: u32,
        /// Block control diverted to.
        target: u32,
        /// Blocks executed when the guard failed.
        at_block: u64,
    },
    /// The trace optimizer dropped a guard whose predicate is implied by
    /// facts established earlier on the same superblock.
    GuardElided {
        /// Head block of the optimized trace.
        head: u32,
        /// Block whose guard was elided.
        block: u32,
    },
    /// The trace optimizer hoisted a loop-invariant guard to the trace
    /// head, where it is checked once per traversal entry instead of once
    /// per pass over the guarded block.
    GuardHoisted {
        /// Head block of the optimized trace.
        head: u32,
        /// Block whose guard was hoisted.
        block: u32,
        /// Frame-relative register the hoisted guard tests.
        reg: u32,
    },
    /// The constant-folding pass rewrote or sank instructions on one
    /// trace (emitted once per optimized trace that changed).
    ConstFolded {
        /// Head block of the optimized trace.
        head: u32,
        /// Instructions rewritten to cheaper forms.
        folded: u32,
        /// Dead constants sunk into exit stubs.
        sunk: u32,
    },
    /// Wall-clock duration of one optimizer pass over one trace. The one
    /// **nondeterministic** event: excluded from the byte-identical stream
    /// guarantee.
    OptPass {
        /// Pass name (`"hoist"`, `"constfold"`, `"guard_elim"`, `"sink"`,
        /// `"thread"`).
        pass: &'static str,
        /// Elapsed nanoseconds.
        ns: u64,
    },
    /// A trace exit stub was patched into a direct trace-to-trace link.
    LinkPatched {
        /// Block owning the patched stub.
        from: u32,
        /// Head block of the linked trace.
        to: u32,
    },
    /// A trace-cache flush severed every patched link.
    LinkSevered {
        /// Links that were patched when the flush hit.
        links: u64,
    },
    /// A trace panicked during execution; its head was blacklisted and
    /// the VM recovered to the interpreter.
    FragmentPoisoned {
        /// Head block of the poisoned trace.
        head: u32,
        /// Blocks executed when the poisoning happened.
        at_block: u64,
    },
    /// The fault injector fired at one of its enumerated points.
    FaultInjected {
        /// Which fault point fired (`"guard_fail"`, `"flush"`,
        /// `"fuel_starve"`, `"install_reject"`, `"trace_panic"`).
        point: &'static str,
        /// Blocks executed when the fault was injected.
        at_block: u64,
    },
    /// A serving session was opened on a shard.
    SessionOpened {
        /// Session id assigned by the manager.
        session: u64,
        /// Shard the session was placed on.
        shard: u32,
        /// Workload the session executes (`"ingest"` for event-stream
        /// sessions with no server-side program).
        workload: &'a str,
    },
    /// A serving session was closed (explicitly or by completing).
    SessionClosed {
        /// Session id.
        session: u64,
        /// Shard the session lived on.
        shard: u32,
        /// Blocks the session executed over its lifetime.
        blocks: u64,
    },
    /// A shard refused work because its queue was full or its session
    /// table was at capacity (the admission-control `Busy` reply).
    ShardBusy {
        /// The refusing shard.
        shard: u32,
    },
    /// A session's state was serialized into a snapshot blob.
    SnapshotSaved {
        /// Session id.
        session: u64,
        /// Encoded size in bytes.
        bytes: u64,
        /// Fragments captured in the snapshot.
        fragments: u64,
    },
    /// A session was rebuilt from a snapshot blob.
    SnapshotRestored {
        /// The restored session's (new) id.
        session: u64,
        /// Decoded blob size in bytes.
        bytes: u64,
        /// Fragments re-installed from the snapshot.
        fragments: u64,
    },
    /// A session's warm state was published into the cross-session
    /// profile store.
    ProfilePublished {
        /// Publishing session's id.
        session: u64,
        /// Fragments carried by the published profile.
        fragments: u64,
        /// The publisher's logical epoch (blocks executed, or events
        /// ingested, when the profile was captured).
        epoch: u64,
    },
    /// The profile store folded a publish into a per-workload aggregate
    /// and rebuilt the pre-warm image shards serve from.
    ProfileMerged {
        /// Workload key the publish merged into (`"ingest"` for
        /// event-stream sessions).
        workload: &'a str,
        /// Publishers merged into the aggregate so far.
        publishers: u64,
        /// Store generation after the merge (shard caches refresh when
        /// they observe a generation ahead of their own).
        generation: u64,
    },
    /// A session was pre-warmed from the store aggregate at admission.
    SessionPrewarmed {
        /// The admitted session's id.
        session: u64,
        /// Fragments imported from the aggregate.
        fragments: u64,
        /// NET + exit-stub counter entries imported from the aggregate.
        counters: u64,
    },
    /// A requested pre-warm was not applied; the session opened cold.
    PrewarmRejected {
        /// The admitted session's id.
        session: u64,
        /// Why (`"no aggregate profile"`, a validation failure, …).
        reason: &'a str,
    },
    /// The reactor front-end accepted a TCP connection.
    ConnAccepted {
        /// Index of the reactor event loop that owns the connection.
        reactor: u32,
        /// Generation-tagged connection token (unique while open).
        conn: u64,
    },
    /// A reactor connection closed (peer hangup, error, or drain).
    ConnClosed {
        /// Index of the owning reactor event loop.
        reactor: u32,
        /// Generation-tagged connection token.
        conn: u64,
        /// Requests the connection carried over its lifetime.
        requests: u64,
    },
    /// A reactor event loop woke from its poller.
    ReactorWakeup {
        /// Index of the reactor event loop.
        reactor: u32,
        /// Readiness events delivered by this wakeup.
        events: u64,
    },
    /// A connection's socket refused further bytes mid-flush; the
    /// remainder stays buffered until the peer drains (write
    /// backpressure made visible).
    WriteStalled {
        /// Index of the owning reactor event loop.
        reactor: u32,
        /// Generation-tagged connection token.
        conn: u64,
        /// Bytes still buffered after the short write.
        buffered: u64,
    },
    /// A shard worker panicked; its supervisor restarted it and rebuilt
    /// the session table from seeds.
    ShardRestarted {
        /// The restarted shard.
        shard: u32,
        /// Consecutive panics so far (resets on the first clean
        /// request; the circuit breaker trips past its bound).
        consecutive: u64,
        /// Sessions re-admitted into the rebuilt table.
        readmitted: u64,
    },
    /// One session came back after a shard restart.
    SessionReadmitted {
        /// The re-admitted session's id.
        session: u64,
        /// Shard it lives on.
        shard: u32,
        /// True when restored from its last sealed snapshot; false for a
        /// cold (but still correct) re-open.
        warm: bool,
    },
    /// A wire-level fault was injected on a serve connection.
    WireFaultInjected {
        /// Which wire point fired (`"wire_torn_write"`, `"wire_reset"`,
        /// `"wire_corrupt_len"`, `"wire_corrupt_payload"`,
        /// `"wire_stall"`, `"wire_delay_read"`).
        point: &'static str,
        /// Connection identity: the reactor's generation-tagged
        /// connection token.
        conn: u64,
    },
    /// A profile publish was routed to the store's quarantine bucket
    /// instead of the fleet aggregate (unhealthy publisher).
    ProfileQuarantined {
        /// Publishing session's id.
        session: u64,
        /// Workload key the publish was quarantined under.
        workload: &'a str,
        /// Fragments held in the key's quarantine bucket afterwards.
        fragments: u64,
    },
}

impl Event<'_> {
    /// Stable snake_case tag identifying the variant, used as the JSON
    /// `"ev"` field and as the summary count key.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::VmHalt { .. } => "vm_halt",
            Event::PathCompleted { .. } => "path_completed",
            Event::CounterTableGrow { .. } => "counter_table_grow",
            Event::TauTrigger { .. } => "tau_trigger",
            Event::FragmentInstall { .. } => "fragment_install",
            Event::CacheFlush { .. } => "cache_flush",
            Event::Bailout { .. } => "bailout",
            Event::Transition { .. } => "transition",
            Event::ExitStubHotness { .. } => "exit_stub_hotness",
            Event::TraceEnter { .. } => "trace_enter",
            Event::TraceExit { .. } => "trace_exit",
            Event::GuardFail { .. } => "guard_fail",
            Event::GuardElided { .. } => "guard_elided",
            Event::GuardHoisted { .. } => "guard_hoisted",
            Event::ConstFolded { .. } => "const_folded",
            Event::OptPass { .. } => "opt_pass_ns",
            Event::LinkPatched { .. } => "link_patched",
            Event::LinkSevered { .. } => "link_severed",
            Event::FragmentPoisoned { .. } => "fragment_poisoned",
            Event::FaultInjected { .. } => "fault_injected",
            Event::SessionOpened { .. } => "session_opened",
            Event::SessionClosed { .. } => "session_closed",
            Event::ShardBusy { .. } => "shard_busy",
            Event::SnapshotSaved { .. } => "snapshot_saved",
            Event::SnapshotRestored { .. } => "snapshot_restored",
            Event::ProfilePublished { .. } => "profile_published",
            Event::ProfileMerged { .. } => "profile_merged",
            Event::SessionPrewarmed { .. } => "session_prewarmed",
            Event::PrewarmRejected { .. } => "prewarm_rejected",
            Event::ConnAccepted { .. } => "conn_accepted",
            Event::ConnClosed { .. } => "conn_closed",
            Event::ReactorWakeup { .. } => "reactor_wakeup",
            Event::WriteStalled { .. } => "write_stalled",
            Event::ShardRestarted { .. } => "shard_restarted",
            Event::SessionReadmitted { .. } => "session_readmitted",
            Event::WireFaultInjected { .. } => "wire_fault_injected",
            Event::ProfileQuarantined { .. } => "profile_quarantined",
        }
    }

    /// Appends the event as one JSON object (no trailing newline) with a
    /// fixed field order, so identical runs serialize identically.
    pub fn write_json(&self, out: &mut String) {
        out.push_str("{\"ev\":\"");
        out.push_str(self.kind());
        out.push('"');
        match *self {
            Event::VmHalt { blocks, insts } => {
                push_u64_field(out, "blocks", blocks);
                push_u64_field(out, "insts", insts);
            }
            Event::PathCompleted {
                path,
                head,
                blocks,
                insts,
                start,
                end,
            } => {
                push_u64_field(out, "path", path as u64);
                push_u64_field(out, "head", head as u64);
                push_u64_field(out, "blocks", blocks as u64);
                push_u64_field(out, "insts", insts as u64);
                push_str_field(out, "start", start);
                push_str_field(out, "end", end);
            }
            Event::CounterTableGrow { table, from, to } => {
                push_str_field(out, "table", table);
                push_u64_field(out, "from", from);
                push_u64_field(out, "to", to);
            }
            Event::TauTrigger {
                scheme,
                head,
                tau,
                observed,
            } => {
                push_str_field(out, "scheme", scheme);
                push_u64_field(out, "head", head as u64);
                push_u64_field(out, "tau", tau);
                push_u64_field(out, "observed", observed);
            }
            Event::FragmentInstall {
                head,
                blocks,
                insts,
                installs,
                at_path,
            } => {
                push_u64_field(out, "head", head as u64);
                push_u64_field(out, "blocks", blocks as u64);
                push_u64_field(out, "insts", insts as u64);
                push_u64_field(out, "installs", installs);
                push_u64_field(out, "at_path", at_path);
            }
            Event::CacheFlush {
                kind,
                evicted,
                at_path,
            } => {
                push_str_field(out, "kind", kind);
                push_u64_field(out, "evicted", evicted);
                push_u64_field(out, "at_path", at_path);
            }
            Event::Bailout { at_path, installs } => {
                push_u64_field(out, "at_path", at_path);
                push_u64_field(out, "installs", installs);
            }
            Event::Transition { kind, at_block } => {
                push_str_field(out, "kind", kind);
                push_u64_field(out, "at_block", at_block);
            }
            Event::ExitStubHotness { target, count } => {
                push_u64_field(out, "target", target as u64);
                push_u64_field(out, "count", count);
            }
            Event::TraceEnter { head, at_block } => {
                push_u64_field(out, "head", head as u64);
                push_u64_field(out, "at_block", at_block);
            }
            Event::TraceExit {
                reason,
                target,
                blocks,
                entries,
                links,
                guards,
                at_block,
            } => {
                push_str_field(out, "reason", reason);
                push_u64_field(out, "target", target as u64);
                push_u64_field(out, "blocks", blocks);
                push_u64_field(out, "entries", entries);
                push_u64_field(out, "links", links);
                push_u64_field(out, "guards", guards);
                push_u64_field(out, "at_block", at_block);
            }
            Event::GuardFail {
                block,
                target,
                at_block,
            } => {
                push_u64_field(out, "block", block as u64);
                push_u64_field(out, "target", target as u64);
                push_u64_field(out, "at_block", at_block);
            }
            Event::GuardElided { head, block } => {
                push_u64_field(out, "head", head as u64);
                push_u64_field(out, "block", block as u64);
            }
            Event::GuardHoisted { head, block, reg } => {
                push_u64_field(out, "head", head as u64);
                push_u64_field(out, "block", block as u64);
                push_u64_field(out, "reg", reg as u64);
            }
            Event::ConstFolded { head, folded, sunk } => {
                push_u64_field(out, "head", head as u64);
                push_u64_field(out, "folded", folded as u64);
                push_u64_field(out, "sunk", sunk as u64);
            }
            Event::OptPass { pass, ns } => {
                push_str_field(out, "pass", pass);
                push_u64_field(out, "ns", ns);
            }
            Event::LinkPatched { from, to } => {
                push_u64_field(out, "from", from as u64);
                push_u64_field(out, "to", to as u64);
            }
            Event::LinkSevered { links } => {
                push_u64_field(out, "links", links);
            }
            Event::FragmentPoisoned { head, at_block } => {
                push_u64_field(out, "head", head as u64);
                push_u64_field(out, "at_block", at_block);
            }
            Event::FaultInjected { point, at_block } => {
                push_str_field(out, "point", point);
                push_u64_field(out, "at_block", at_block);
            }
            Event::SessionOpened {
                session,
                shard,
                workload,
            } => {
                push_u64_field(out, "session", session);
                push_u64_field(out, "shard", shard as u64);
                push_str_field(out, "workload", workload);
            }
            Event::SessionClosed {
                session,
                shard,
                blocks,
            } => {
                push_u64_field(out, "session", session);
                push_u64_field(out, "shard", shard as u64);
                push_u64_field(out, "blocks", blocks);
            }
            Event::ShardBusy { shard } => {
                push_u64_field(out, "shard", shard as u64);
            }
            Event::SnapshotSaved {
                session,
                bytes,
                fragments,
            }
            | Event::SnapshotRestored {
                session,
                bytes,
                fragments,
            } => {
                push_u64_field(out, "session", session);
                push_u64_field(out, "bytes", bytes);
                push_u64_field(out, "fragments", fragments);
            }
            Event::ProfilePublished {
                session,
                fragments,
                epoch,
            } => {
                push_u64_field(out, "session", session);
                push_u64_field(out, "fragments", fragments);
                push_u64_field(out, "epoch", epoch);
            }
            Event::ProfileMerged {
                workload,
                publishers,
                generation,
            } => {
                push_str_field(out, "workload", workload);
                push_u64_field(out, "publishers", publishers);
                push_u64_field(out, "generation", generation);
            }
            Event::SessionPrewarmed {
                session,
                fragments,
                counters,
            } => {
                push_u64_field(out, "session", session);
                push_u64_field(out, "fragments", fragments);
                push_u64_field(out, "counters", counters);
            }
            Event::PrewarmRejected { session, reason } => {
                push_u64_field(out, "session", session);
                push_str_field(out, "reason", reason);
            }
            Event::ConnAccepted { reactor, conn } => {
                push_u64_field(out, "reactor", reactor as u64);
                push_u64_field(out, "conn", conn);
            }
            Event::ConnClosed {
                reactor,
                conn,
                requests,
            } => {
                push_u64_field(out, "reactor", reactor as u64);
                push_u64_field(out, "conn", conn);
                push_u64_field(out, "requests", requests);
            }
            Event::ReactorWakeup { reactor, events } => {
                push_u64_field(out, "reactor", reactor as u64);
                push_u64_field(out, "events", events);
            }
            Event::WriteStalled {
                reactor,
                conn,
                buffered,
            } => {
                push_u64_field(out, "reactor", reactor as u64);
                push_u64_field(out, "conn", conn);
                push_u64_field(out, "buffered", buffered);
            }
            Event::ShardRestarted {
                shard,
                consecutive,
                readmitted,
            } => {
                push_u64_field(out, "shard", shard as u64);
                push_u64_field(out, "consecutive", consecutive);
                push_u64_field(out, "readmitted", readmitted);
            }
            Event::SessionReadmitted {
                session,
                shard,
                warm,
            } => {
                push_u64_field(out, "session", session);
                push_u64_field(out, "shard", shard as u64);
                push_u64_field(out, "warm", u64::from(warm));
            }
            Event::WireFaultInjected { point, conn } => {
                push_str_field(out, "point", point);
                push_u64_field(out, "conn", conn);
            }
            Event::ProfileQuarantined {
                session,
                workload,
                fragments,
            } => {
                push_u64_field(out, "session", session);
                push_str_field(out, "workload", workload);
                push_u64_field(out, "fragments", fragments);
            }
        }
        out.push('}');
    }
}

fn push_u64_field(out: &mut String, key: &str, value: u64) {
    let _ = write!(out, ",\"{key}\":{value}");
}

fn push_str_field(out: &mut String, key: &str, value: &str) {
    let _ = write!(out, ",\"{key}\":");
    push_json_string(out, value);
}

/// Appends `value` as a JSON string literal, escaping as required.
pub(crate) fn push_json_string(out: &mut String, value: &str) {
    out.push('"');
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_serialize_with_stable_field_order() {
        let mut out = String::new();
        Event::TauTrigger {
            scheme: "net",
            head: 7,
            tau: 50,
            observed: 1234,
        }
        .write_json(&mut out);
        assert_eq!(
            out,
            "{\"ev\":\"tau_trigger\",\"scheme\":\"net\",\"head\":7,\"tau\":50,\"observed\":1234}"
        );
    }

    #[test]
    fn labels_are_escaped() {
        let mut out = String::new();
        Event::ProfileQuarantined {
            session: 1,
            workload: "a\"b\\c\n",
            fragments: 2,
        }
        .write_json(&mut out);
        assert_eq!(
            out,
            "{\"ev\":\"profile_quarantined\",\"session\":1,\"workload\":\"a\\\"b\\\\c\\n\",\"fragments\":2}"
        );
    }

    /// One sample of every variant.
    fn samples() -> Vec<Event<'static>> {
        vec![
            Event::VmHalt {
                blocks: 10,
                insts: 20,
            },
            Event::PathCompleted {
                path: 1,
                head: 2,
                blocks: 3,
                insts: 4,
                start: "backward",
                end: "backward",
            },
            Event::CounterTableGrow {
                table: "counter_table",
                from: 0,
                to: 8,
            },
            Event::TauTrigger {
                scheme: "net",
                head: 7,
                tau: 50,
                observed: 51,
            },
            Event::FragmentInstall {
                head: 7,
                blocks: 4,
                insts: 9,
                installs: 1,
                at_path: 50,
            },
            Event::CacheFlush {
                kind: "capacity",
                evicted: 3,
                at_path: 99,
            },
            Event::Bailout {
                at_path: 100,
                installs: 1501,
            },
            Event::Transition {
                kind: "cache_enter",
                at_block: 123,
            },
            Event::ExitStubHotness {
                target: 9,
                count: 17,
            },
            Event::TraceEnter {
                head: 7,
                at_block: 500,
            },
            Event::TraceExit {
                reason: "guard_fail",
                target: 12,
                blocks: 640,
                entries: 80,
                links: 79,
                guards: 160,
                at_block: 1140,
            },
            Event::GuardFail {
                block: 9,
                target: 12,
                at_block: 1140,
            },
            Event::GuardElided { head: 7, block: 9 },
            Event::GuardHoisted {
                head: 7,
                block: 9,
                reg: 3,
            },
            Event::ConstFolded {
                head: 7,
                folded: 5,
                sunk: 2,
            },
            Event::OptPass {
                pass: "guard_elim",
                ns: 1200,
            },
            Event::LinkPatched { from: 9, to: 12 },
            Event::LinkSevered { links: 4 },
            Event::FragmentPoisoned {
                head: 7,
                at_block: 640,
            },
            Event::FaultInjected {
                point: "install_reject",
                at_block: 640,
            },
            Event::SessionOpened {
                session: 3,
                shard: 1,
                workload: "compress",
            },
            Event::SessionClosed {
                session: 3,
                shard: 1,
                blocks: 250_000,
            },
            Event::ShardBusy { shard: 1 },
            Event::SnapshotSaved {
                session: 3,
                bytes: 4096,
                fragments: 12,
            },
            Event::SnapshotRestored {
                session: 4,
                bytes: 4096,
                fragments: 12,
            },
            Event::ProfilePublished {
                session: 3,
                fragments: 12,
                epoch: 250_000,
            },
            Event::ProfileMerged {
                workload: "compress",
                publishers: 4,
                generation: 7,
            },
            Event::SessionPrewarmed {
                session: 5,
                fragments: 12,
                counters: 30,
            },
            Event::PrewarmRejected {
                session: 6,
                reason: "no aggregate profile",
            },
            Event::ConnAccepted {
                reactor: 0,
                conn: (7 << 32) | 3,
            },
            Event::ConnClosed {
                reactor: 0,
                conn: (7 << 32) | 3,
                requests: 41,
            },
            Event::ReactorWakeup {
                reactor: 1,
                events: 17,
            },
            Event::WriteStalled {
                reactor: 0,
                conn: (7 << 32) | 3,
                buffered: 262_144,
            },
            Event::ShardRestarted {
                shard: 2,
                consecutive: 1,
                readmitted: 5,
            },
            Event::SessionReadmitted {
                session: 9,
                shard: 2,
                warm: true,
            },
            Event::WireFaultInjected {
                point: "wire_torn_write",
                conn: (3 << 32) | 11,
            },
            Event::ProfileQuarantined {
                session: 9,
                workload: "compress",
                fragments: 4,
            },
        ]
    }

    #[test]
    fn every_variant_round_trips_through_the_parser() {
        for event in samples() {
            let mut line = String::new();
            event.write_json(&mut line);
            let value =
                crate::json::JsonValue::parse(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(
                value.get("ev").and_then(|v| v.as_str()),
                Some(event.kind()),
                "{line}"
            );
        }
    }

    /// DESIGN.md §11's event table names every event kind exactly once
    /// and nothing else, so the table cannot drift from the code.
    #[test]
    fn design_event_table_lists_every_kind() {
        let design = include_str!("../../../DESIGN.md");
        let section = design
            .split("\n## 11. Telemetry event model")
            .nth(1)
            .and_then(|rest| rest.split("\n## ").next())
            .expect("DESIGN.md has a telemetry event model section");
        let mut table: Vec<&str> = section
            .lines()
            .skip_while(|l| !l.starts_with("| Event |"))
            .skip(2)
            .take_while(|l| l.starts_with('|'))
            .map(|row| {
                let cell = row.split('|').nth(1).unwrap_or_default().trim();
                cell.trim_matches('`')
            })
            .collect();
        table.sort_unstable();
        let mut kinds: Vec<&str> = samples().iter().map(Event::kind).collect();
        kinds.sort_unstable();
        assert_eq!(table, kinds, "DESIGN.md §11 event table vs Event::kind");
    }
}
