//! Per-run telemetry summaries: event counts plus fixed-bucket histograms,
//! serialized as `telemetry.json`.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;

use crate::event::{push_json_string, Event};
use crate::histogram::Histogram;
use crate::recorder::Recorder;

/// Aggregated view of one run's event stream.
///
/// Counts every event kind and maintains the three distributions the
/// paper's overhead argument cares about: how long paths are, how often
/// trace formation happens, and how hot exit stubs get. Deterministic for
/// identical runs: it counts `opt_pass_ns` events but keeps none of their
/// wall-clock readings.
#[derive(Clone, Debug, Default)]
pub struct TelemetrySummary {
    /// Events seen, by [`Event::kind`] tag.
    counts: BTreeMap<&'static str, u64>,
    /// Distribution of completed path lengths, in blocks.
    path_length: Option<Histogram>,
    /// Distribution of paths elapsed between consecutive fragment installs.
    trace_interarrival: Option<Histogram>,
    /// Distribution of final exit-stub counter values.
    exit_stub_hotness: Option<Histogram>,
    /// Distribution of profiling observations elapsed between consecutive
    /// τ-triggers (per scheme, merged) — the τ-trigger latencies.
    tau_trigger_gap: Option<Histogram>,
    /// Distribution of blocks executed per trace entry (one sample per
    /// trace excursion: its block count divided by its traversal count).
    blocks_per_trace_entry: Option<Histogram>,
    /// Distribution of guard checks executed per trace entry (one sample
    /// per trace excursion) — the trace optimizer's target metric.
    guards_per_trace_entry: Option<Histogram>,
    /// Logical timestamp of the previous fragment install.
    last_install_at: Option<u64>,
    /// Logical timestamp of the previous τ-trigger, per scheme.
    last_trigger_observed: BTreeMap<&'static str, u64>,
}

impl TelemetrySummary {
    /// An empty summary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one event in.
    pub fn observe(&mut self, event: &Event<'_>) {
        *self.counts.entry(event.kind()).or_insert(0) += 1;
        match *event {
            Event::PathCompleted { blocks, .. } => {
                self.path_length
                    .get_or_insert_with(Histogram::pow2)
                    .add(blocks as u64);
            }
            Event::FragmentInstall { at_path, .. } => {
                if let Some(prev) = self.last_install_at {
                    self.trace_interarrival
                        .get_or_insert_with(Histogram::pow2)
                        .add(at_path.saturating_sub(prev));
                }
                self.last_install_at = Some(at_path);
            }
            Event::ExitStubHotness { count, .. } => {
                self.exit_stub_hotness
                    .get_or_insert_with(Histogram::pow2)
                    .add(count);
            }
            Event::TauTrigger {
                scheme, observed, ..
            } => {
                if let Some(&prev) = self.last_trigger_observed.get(scheme) {
                    self.tau_trigger_gap
                        .get_or_insert_with(Histogram::pow2)
                        .add(observed.saturating_sub(prev));
                }
                self.last_trigger_observed.insert(scheme, observed);
            }
            Event::TraceExit {
                blocks,
                entries,
                guards,
                ..
            } => {
                self.blocks_per_trace_entry
                    .get_or_insert_with(Histogram::pow2)
                    .add(blocks / entries.max(1));
                self.guards_per_trace_entry
                    .get_or_insert_with(Histogram::pow2)
                    .add(guards / entries.max(1));
            }
            _ => {}
        }
    }

    /// Count of one event kind.
    pub fn count(&self, kind: &str) -> u64 {
        self.counts.get(kind).copied().unwrap_or(0)
    }

    /// All event counts, ordered by kind tag.
    pub fn counts(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counts.iter().map(|(&k, &v)| (k, v))
    }

    /// The path-length histogram, if any path completed.
    pub fn path_length(&self) -> Option<&Histogram> {
        self.path_length.as_ref()
    }

    /// The trace-formation interarrival histogram, if two installs
    /// happened.
    pub fn trace_interarrival(&self) -> Option<&Histogram> {
        self.trace_interarrival.as_ref()
    }

    /// The exit-stub hotness histogram, if any stub was counted.
    pub fn exit_stub_hotness(&self) -> Option<&Histogram> {
        self.exit_stub_hotness.as_ref()
    }

    /// The τ-trigger latency histogram, if two triggers happened.
    pub fn tau_trigger_gap(&self) -> Option<&Histogram> {
        self.tau_trigger_gap.as_ref()
    }

    /// The blocks-per-trace-entry histogram, if any trace excursion ran.
    pub fn blocks_per_trace_entry(&self) -> Option<&Histogram> {
        self.blocks_per_trace_entry.as_ref()
    }

    /// The guards-per-trace-entry histogram, if any trace excursion ran.
    pub fn guards_per_trace_entry(&self) -> Option<&Histogram> {
        self.guards_per_trace_entry.as_ref()
    }

    /// Folds another summary in (counts and histograms add; the
    /// interarrival chains stay per-summary and do not bridge across the
    /// merge).
    pub fn merge(&mut self, other: &TelemetrySummary) {
        for (kind, n) in &other.counts {
            *self.counts.entry(kind).or_insert(0) += n;
        }
        for (mine, theirs) in [
            (&mut self.path_length, &other.path_length),
            (&mut self.trace_interarrival, &other.trace_interarrival),
            (&mut self.exit_stub_hotness, &other.exit_stub_hotness),
            (&mut self.tau_trigger_gap, &other.tau_trigger_gap),
            (
                &mut self.blocks_per_trace_entry,
                &other.blocks_per_trace_entry,
            ),
            (
                &mut self.guards_per_trace_entry,
                &other.guards_per_trace_entry,
            ),
        ] {
            if let Some(theirs) = theirs {
                mine.get_or_insert_with(Histogram::pow2).merge(theirs);
            }
        }
    }

    /// Serializes the summary as a `telemetry.json` document.
    pub fn to_json(&self, label: &str) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"label\": ");
        push_json_string(&mut out, label);
        out.push_str(",\n  \"events\": {");
        let mut first = true;
        for (kind, n) in &self.counts {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\n    \"{kind}\": {n}");
        }
        out.push_str("\n  },\n  \"histograms\": {");
        let mut first = true;
        for (name, hist) in [
            ("path_length_blocks", &self.path_length),
            ("trace_interarrival_paths", &self.trace_interarrival),
            ("exit_stub_hotness", &self.exit_stub_hotness),
            ("tau_trigger_gap", &self.tau_trigger_gap),
            ("blocks_per_trace_entry", &self.blocks_per_trace_entry),
            ("guards_per_trace_entry", &self.guards_per_trace_entry),
        ] {
            if let Some(hist) = hist {
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(out, "\n    \"{name}\": ");
                hist.write_json(&mut out);
            }
        }
        out.push_str("\n  }\n}\n");
        out
    }
}

/// A [`Recorder`] folding the event stream into a shared
/// [`TelemetrySummary`].
#[derive(Debug)]
pub struct SummaryRecorder {
    state: Rc<RefCell<TelemetrySummary>>,
}

/// Reads the summary back after the recorder is uninstalled.
#[derive(Clone, Debug)]
pub struct SummaryHandle {
    state: Rc<RefCell<TelemetrySummary>>,
}

impl SummaryRecorder {
    /// Creates a recorder and the handle that will read its summary.
    pub fn new() -> (Self, SummaryHandle) {
        let state = Rc::new(RefCell::new(TelemetrySummary::new()));
        (
            SummaryRecorder {
                state: state.clone(),
            },
            SummaryHandle { state },
        )
    }
}

impl Recorder for SummaryRecorder {
    fn record(&mut self, event: &Event<'_>) {
        self.state.borrow_mut().observe(event);
    }
}

impl SummaryHandle {
    /// A snapshot of the summary accumulated so far.
    pub fn snapshot(&self) -> TelemetrySummary {
        self.state.borrow().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_counts_and_buckets() {
        let mut s = TelemetrySummary::new();
        for (blocks, at_path) in [(4u32, 50u64), (6, 60), (6, 200)] {
            s.observe(&Event::PathCompleted {
                path: 0,
                head: 1,
                blocks,
                insts: blocks * 2,
                start: "backward",
                end: "backward",
            });
            s.observe(&Event::FragmentInstall {
                head: 1,
                blocks,
                insts: blocks * 2,
                installs: 1,
                at_path,
            });
        }
        assert_eq!(s.count("path_completed"), 3);
        assert_eq!(s.count("fragment_install"), 3);
        assert_eq!(s.count("cache_flush"), 0);
        let lengths = s.path_length().unwrap();
        assert_eq!(lengths.total(), 3);
        // Interarrivals: 60-50=10 and 200-60=140.
        let inter = s.trace_interarrival().unwrap();
        assert_eq!(inter.total(), 2);
        assert_eq!(inter.max(), 140);
    }

    #[test]
    fn tau_trigger_gaps_are_per_scheme() {
        let mut s = TelemetrySummary::new();
        for (scheme, observed) in [
            ("net", 50u64),
            ("path_profile", 80),
            ("net", 150),
            ("path_profile", 100),
        ] {
            s.observe(&Event::TauTrigger {
                scheme,
                head: 0,
                tau: 50,
                observed,
            });
        }
        let gaps = s.tau_trigger_gap().unwrap();
        // net: 150-50=100; path_profile: 100-80=20. No cross-scheme gap.
        assert_eq!(gaps.total(), 2);
        assert_eq!(gaps.max(), 100);
    }

    #[test]
    fn trace_exits_feed_blocks_per_entry() {
        let mut s = TelemetrySummary::new();
        s.observe(&Event::TraceExit {
            reason: "trace_end",
            target: 3,
            blocks: 640,
            entries: 80,
            links: 79,
            guards: 160,
            at_block: 1000,
        });
        let h = s.blocks_per_trace_entry().unwrap();
        assert_eq!(h.total(), 1);
        // 640 blocks over 80 traversals = 8 blocks per entry.
        assert_eq!(h.max(), 8);
        // 160 guard checks over 80 traversals = 2 guards per entry.
        let g = s.guards_per_trace_entry().unwrap();
        assert_eq!(g.total(), 1);
        assert_eq!(g.max(), 2);
        assert_eq!(s.count("trace_exit"), 1);
    }

    #[test]
    fn merge_is_additive() {
        let mut a = TelemetrySummary::new();
        let mut b = TelemetrySummary::new();
        let halt = Event::VmHalt {
            blocks: 1,
            insts: 1,
        };
        a.observe(&halt);
        b.observe(&halt);
        b.observe(&Event::ExitStubHotness {
            target: 1,
            count: 9,
        });
        a.merge(&b);
        assert_eq!(a.count("vm_halt"), 2);
        assert_eq!(a.count("exit_stub_hotness"), 1);
        assert_eq!(a.exit_stub_hotness().map(|h| h.total()), Some(1));
    }

    #[test]
    fn to_json_parses_back() {
        let mut s = TelemetrySummary::new();
        s.observe(&Event::PathCompleted {
            path: 0,
            head: 1,
            blocks: 4,
            insts: 8,
            start: "backward",
            end: "backward",
        });
        let text = s.to_json("unit");
        let v = crate::json::JsonValue::parse(&text).unwrap();
        assert_eq!(v.get("label").and_then(|l| l.as_str()), Some("unit"));
        assert_eq!(
            v.get("events")
                .and_then(|e| e.get("path_completed"))
                .and_then(|n| n.as_f64()),
            Some(1.0)
        );
        assert!(v
            .get("histograms")
            .and_then(|h| h.get("path_length_blocks"))
            .is_some());
    }
}
