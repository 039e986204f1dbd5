//! Pipeline observability layer (`fpart-obs`).
//!
//! A zero-cost-when-disabled metrics registry threaded through the whole
//! partitioning pipeline:
//!
//! * [`Ctr`] / [`CounterSet`] — a fixed, named universe of `u64` counters
//!   (QPI stall cycles, BRAM accesses, write-combiner events, SWWCB
//!   flushes, …) with stable snake_case labels used in every JSON schema.
//! * [`CycleHistogram`] — log2-bucketed value histograms (e.g. per-cycle
//!   lane-FIFO occupancy).
//! * [`TraceRing`] / [`TraceEvent`] — a bounded buffer of stage events
//!   that keeps a run's first events and drops the oldest of the rest,
//!   only active at [`ObsLevel::Trace`].
//! * [`Recorder`] — the handle the simulators carry; every increment is
//!   gated on [`ObsLevel`] so `ObsLevel::Off` costs one predictable branch.
//! * [`ObsSnapshot`] — the immutable end-of-run result, with a
//!   byte-stable JSON form.
//! * [`json`] — the workspace's one JSON codec (no serde here): one
//!   object writer with one number rule (floats `{:.9}`, NaN and ∞ as
//!   `null`) and one tolerant flat reader. The snapshot, the planner's
//!   explanation and the figure records all go through it.
//! * [`asserts`] — counter-conservation laws (`lines_in == lines_out`,
//!   stall cycles sum to `total − busy`, per-partition counts sum to N)
//!   as reusable test predicates.

#![warn(missing_docs)]

pub mod asserts;
mod counters;
mod hist;
pub mod json;
mod snapshot;
mod trace;

pub use counters::{CounterSet, Ctr};
pub use hist::CycleHistogram;
pub use snapshot::ObsSnapshot;
pub use trace::{TraceEvent, TraceRing};

/// How much instrumentation the pipeline records.
///
/// The default is [`ObsLevel::Off`]: every [`Recorder`] call reduces to a
/// single branch on this enum and no memory traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ObsLevel {
    /// No per-cycle recording. End-of-run snapshots are synthesized from
    /// totals the simulator keeps anyway, so conservation asserts still run.
    #[default]
    Off,
    /// Per-cycle counters and occupancy histograms.
    Counters,
    /// Counters plus the ring-buffer stage-event tracer.
    Trace,
}

impl ObsLevel {
    /// Stable lowercase label (CLI flag value and JSON field).
    pub fn label(self) -> &'static str {
        match self {
            ObsLevel::Off => "off",
            ObsLevel::Counters => "counters",
            ObsLevel::Trace => "trace",
        }
    }

    /// Parse a CLI/JSON label; `None` for unknown strings.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "off" => Some(ObsLevel::Off),
            "counters" => Some(ObsLevel::Counters),
            "trace" => Some(ObsLevel::Trace),
            _ => None,
        }
    }

    /// True when per-cycle counters are recorded live.
    pub fn counters_on(self) -> bool {
        !matches!(self, ObsLevel::Off)
    }

    /// True when stage events are recorded into the trace ring.
    pub fn trace_on(self) -> bool {
        matches!(self, ObsLevel::Trace)
    }
}

/// The mutable recording handle carried by the simulators for one run.
///
/// Counter and histogram updates are gated on the level: at
/// [`ObsLevel::Off`] the methods return after one branch. `set` is
/// unconditional — it is used once at end of run to publish totals the
/// simulator tracks anyway, so that conservation asserts work at every
/// level.
#[derive(Debug, Clone)]
pub struct Recorder {
    level: ObsLevel,
    /// Live counter values (exact totals are `set` at end of run).
    pub counters: CounterSet,
    occupancy: CycleHistogram,
    trace: TraceRing,
}

impl Recorder {
    /// Default trace-ring capacity (beyond it the oldest event after the
    /// first half is dropped).
    pub const TRACE_CAPACITY: usize = 1024;

    /// New recorder at the given level.
    pub fn new(level: ObsLevel) -> Self {
        Recorder {
            level,
            counters: CounterSet::default(),
            occupancy: CycleHistogram::default(),
            trace: TraceRing::new(Self::TRACE_CAPACITY),
        }
    }

    /// The level this recorder was armed with.
    pub fn level(&self) -> ObsLevel {
        self.level
    }

    /// True when per-cycle counting is live (level ≥ `Counters`).
    #[inline]
    pub fn on(&self) -> bool {
        self.level.counters_on()
    }

    /// Increment `ctr` by one (no-op at `Off`).
    #[inline]
    pub fn inc(&mut self, ctr: Ctr) {
        if self.level.counters_on() {
            self.counters.add(ctr, 1);
        }
    }

    /// Add `v` to `ctr` (no-op at `Off`).
    #[inline]
    pub fn add(&mut self, ctr: Ctr, v: u64) {
        if self.level.counters_on() {
            self.counters.add(ctr, v);
        }
    }

    /// Unconditionally publish an exact total (used at end of run).
    #[inline]
    pub fn set(&mut self, ctr: Ctr, v: u64) {
        self.counters.set(ctr, v);
    }

    /// Current value of `ctr`.
    pub fn get(&self, ctr: Ctr) -> u64 {
        self.counters.get(ctr)
    }

    /// Record one occupancy sample (no-op at `Off`).
    #[inline]
    pub fn sample_occupancy(&mut self, value: u64) {
        if self.level.counters_on() {
            self.occupancy.record(value);
        }
    }

    /// Record a stage event (no-op below `Trace`).
    #[inline]
    pub fn event(&mut self, cycle: u64, stage: &str, event: &str, value: u64) {
        if self.level.trace_on() {
            self.trace.push(cycle, stage, event, value);
        }
    }

    /// Freeze the recorder into an immutable snapshot.
    pub fn finish(self) -> ObsSnapshot {
        ObsSnapshot {
            level: self.level,
            counters: self.counters,
            occupancy: self.occupancy.buckets().to_vec(),
            events: self.trace.events().to_vec(),
            dropped_events: self.trace.dropped(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_level_records_nothing_but_set_works() {
        let mut r = Recorder::new(ObsLevel::Off);
        r.inc(Ctr::TuplesIn);
        r.add(Ctr::TuplesIn, 5);
        r.sample_occupancy(3);
        r.event(1, "scatter", "flush_start", 0);
        assert_eq!(r.get(Ctr::TuplesIn), 0);
        r.set(Ctr::TuplesIn, 42);
        let snap = r.finish();
        assert_eq!(snap.get(Ctr::TuplesIn), 42);
        assert!(snap.events.is_empty());
        assert_eq!(snap.occupancy.iter().sum::<u64>(), 0);
    }

    #[test]
    fn counters_level_records_counts_not_events() {
        let mut r = Recorder::new(ObsLevel::Counters);
        r.inc(Ctr::RdBusy);
        r.add(Ctr::RdBusy, 2);
        r.sample_occupancy(7);
        r.event(1, "scatter", "flush_start", 0);
        assert_eq!(r.get(Ctr::RdBusy), 3);
        let snap = r.finish();
        assert_eq!(snap.occupancy.iter().sum::<u64>(), 1);
        assert!(snap.events.is_empty());
    }

    #[test]
    fn trace_level_records_events() {
        let mut r = Recorder::new(ObsLevel::Trace);
        r.event(9, "hist", "pass_end", 123);
        let snap = r.finish();
        assert_eq!(snap.events.len(), 1);
        assert_eq!(snap.events[0].cycle, 9);
        assert_eq!(snap.events[0].stage, "hist");
        assert_eq!(snap.events[0].value, 123);
    }

    #[test]
    fn level_labels_round_trip() {
        for lvl in [ObsLevel::Off, ObsLevel::Counters, ObsLevel::Trace] {
            assert_eq!(ObsLevel::parse(lvl.label()), Some(lvl));
        }
        assert_eq!(ObsLevel::parse("verbose"), None);
    }
}
