//! A streaming selection (scan + filter) accelerator on the same
//! datapath.
//!
//! The paper's Discussion argues the partitioner's building blocks
//! generalise: "Sequential access (e.g., table scans) and stream
//! processing are something FPGAs are very good at", citing predicate
//! evaluation offload (Sukhwani et al.) among the sub-operators worth
//! moving to the FPGA. A selection is exactly the partitioner with a
//! fan-out of one and a predicate gate in front of the combiner: per-lane
//! comparator pipelines (one result per clock, like the hash modules),
//! one write combiner compacting survivors into full cache lines, and the
//! same QPI bandwidth accounting — now with a *selectivity-dependent*
//! write volume.

use fpart_hwsim::{QpiConfig, QpiEndpoint};
use fpart_types::{Input, Key, Line, Relation, Result, Tuple};

use crate::hashmod::HashedTuple;
use crate::writecomb::WriteCombiner;

/// A key predicate, evaluated by a per-lane comparator pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Predicate<K: Key> {
    /// `key < bound`.
    LessThan(K),
    /// `lo <= key < hi`.
    Between(K, K),
    /// `key == value`.
    Equals(K),
}

impl<K: Key> Predicate<K> {
    /// Evaluate the predicate (one comparator stage in hardware).
    #[inline]
    pub fn matches(&self, key: K) -> bool {
        match *self {
            Self::LessThan(b) => key < b,
            Self::Between(lo, hi) => lo <= key && key < hi,
            Self::Equals(v) => key == v,
        }
    }
}

/// Report of a selection run.
#[derive(Debug, Clone)]
pub struct SelectReport {
    /// Input tuples scanned.
    pub scanned: u64,
    /// Tuples passing the predicate.
    pub selected: u64,
    /// Scatter-pass cycles.
    pub cycles: u64,
    /// Cache lines read / written over the link.
    pub lines_read: u64,
    /// Lines written (≈ selectivity × lines read, plus one flush line).
    pub lines_written: u64,
    /// FPGA clock (Hz).
    pub clock_hz: f64,
}

impl SelectReport {
    /// Simulated seconds.
    pub fn seconds(&self) -> f64 {
        self.cycles as f64 / self.clock_hz
    }

    /// Scan throughput in million input tuples per second.
    pub fn mtuples_per_sec(&self) -> f64 {
        self.scanned as f64 / self.seconds() / 1e6
    }

    /// Observed selectivity.
    pub fn selectivity(&self) -> f64 {
        if self.scanned == 0 {
            0.0
        } else {
            self.selected as f64 / self.scanned as f64
        }
    }
}

/// The streaming selector.
#[derive(Debug, Clone)]
pub struct FpgaSelector {
    qpi: QpiConfig,
}

impl FpgaSelector {
    /// A selector on the HARP QPI link.
    pub fn new() -> Self {
        Self {
            qpi: QpiConfig::harp(fpart_memmodel::BandwidthCurve::fpga_alone()),
        }
    }

    /// A selector with an explicit link model.
    pub fn with_qpi(qpi: QpiConfig) -> Self {
        Self { qpi }
    }

    /// Scan `rel`, returning the tuples matching `predicate` (densely
    /// packed, input order preserved) and the run report.
    pub fn select<T: Tuple>(
        &self,
        rel: &Relation<T>,
        predicate: Predicate<T::K>,
    ) -> Result<(Relation<T>, SelectReport)> {
        let mut qpi = QpiEndpoint::new(self.qpi.clone());
        // A single write combiner with one "partition" compacts survivors
        // into full cache lines (the partitioner datapath at fan-out 1).
        let mut combiner = WriteCombiner::<T>::new(1);
        let mut out: Vec<T> = Vec::new();
        let mut cycles = 0u64;

        let input = Input::from(rel);
        let total_lines = input.input_lines();
        let mut read_cursor = 0usize;
        let mut pending: std::collections::VecDeque<Line<T>> = Default::default();
        // Survivors waiting to enter the (single) combiner at 1/cycle; the
        // hardware has one combiner per lane, but at fan-out 1 the
        // compaction is a shifter network — modelling it as a short queue
        // keeps the cycle count within one line of the real design.
        let mut gate: std::collections::VecDeque<T> = Default::default();
        let mut flushing = false;
        let mut selected = 0u64;

        loop {
            cycles += 1;
            qpi.tick();

            // Drain the combiner; writes consume link credit.
            let can_emit = combiner.in_flight() > 0 || flushing || !gate.is_empty();
            if can_emit {
                let input = if combiner.can_accept(usize::MAX) {
                    gate.pop_front().map(|tuple| HashedTuple { hash: 0, tuple })
                } else {
                    None
                };
                if let Some((_, line)) = combiner.clock(input, true) {
                    // One line out = one QPI write; block until granted.
                    while !qpi.try_write() {
                        cycles += 1;
                        qpi.tick();
                    }
                    out.extend(line.valid_tuples());
                }
            }

            // Predicate stage: evaluate one delivered line per cycle.
            if let Some(line) = pending.pop_front() {
                for t in line.valid_tuples() {
                    if predicate.matches(t.key()) {
                        selected += 1;
                        gate.push_back(t);
                    }
                }
            }

            // Read delivery and issue.
            if let Some(tag) = qpi.pop_ready_read() {
                let line = tag as usize..tag as usize + 1;
                input.for_each_line(line, |l| pending.push_back(Line::from_partial(l)));
            }
            let committed = pending.len() + qpi.reads_in_flight() + gate.len() / T::LANES;
            if read_cursor < total_lines && committed < 64 && qpi.try_read(read_cursor as u64) {
                read_cursor += 1;
            }

            if !flushing
                && read_cursor >= total_lines
                && qpi.reads_in_flight() == 0
                && pending.is_empty()
                && gate.is_empty()
                && combiner.in_flight() == 0
            {
                combiner.start_flush();
                flushing = true;
            }
            if flushing && combiner.flush_done() && combiner.in_flight() == 0 {
                break;
            }
        }

        let stats = qpi.stats();
        let report = SelectReport {
            scanned: rel.len() as u64,
            selected,
            cycles,
            lines_read: stats.lines_read,
            lines_written: stats.lines_written,
            clock_hz: self.qpi.clock_hz,
        };
        Ok((Relation::from_tuples(&out), report))
    }
}

impl Default for FpgaSelector {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpart_datagen::KeyDistribution;
    use fpart_types::Tuple8;

    fn rel(n: usize) -> Relation<Tuple8> {
        Relation::from_keys(&KeyDistribution::Random.generate_keys::<u32>(n, 3))
    }

    #[test]
    fn selection_matches_iterator_filter() {
        let r = rel(20_000);
        let bound = u32::MAX / 4; // ~25% selectivity
        let (selected, report) = FpgaSelector::new()
            .select(&r, Predicate::LessThan(bound))
            .unwrap();
        let expect: Vec<Tuple8> = r
            .tuples()
            .iter()
            .copied()
            .filter(|t| t.key < bound)
            .collect();
        assert_eq!(selected.tuples(), &expect[..], "order-preserving filter");
        assert_eq!(report.selected as usize, expect.len());
        assert!((report.selectivity() - 0.25).abs() < 0.02);
    }

    #[test]
    fn between_and_equals_predicates() {
        let r = Relation::<Tuple8>::from_keys(&[1, 5, 7, 5, 9, 2]);
        let (sel, _) = FpgaSelector::new()
            .select(&r, Predicate::Between(2, 8))
            .unwrap();
        let keys: Vec<u32> = sel.tuples().iter().map(|t| t.key).collect();
        assert_eq!(keys, vec![5, 7, 5, 2]);

        let (sel, rep) = FpgaSelector::new()
            .select(&r, Predicate::Equals(5))
            .unwrap();
        assert_eq!(sel.len(), 2);
        assert_eq!(rep.selected, 2);
    }

    #[test]
    fn write_traffic_tracks_selectivity() {
        let r = rel(40_000);
        let low = FpgaSelector::new()
            .select(&r, Predicate::LessThan(u32::MAX / 100))
            .unwrap()
            .1;
        let high = FpgaSelector::new()
            .select(&r, Predicate::LessThan(u32::MAX / 2))
            .unwrap()
            .1;
        assert_eq!(low.lines_read, high.lines_read, "scan volume is fixed");
        assert!(
            high.lines_written > 10 * low.lines_written.max(1),
            "writes scale with selectivity: {} vs {}",
            high.lines_written,
            low.lines_written
        );
        // Low selectivity ⇒ read-bound ⇒ faster end-to-end than the
        // write-heavy case.
        assert!(low.seconds() < high.seconds());
    }

    #[test]
    fn empty_and_all_match() {
        let r = rel(1000);
        let (none, rep) = FpgaSelector::new()
            .select(&r, Predicate::Equals(u32::MAX - 2))
            .unwrap();
        assert!(none.is_empty() || none.len() <= 1);
        assert_eq!(rep.scanned, 1000);

        let (all, rep) = FpgaSelector::new()
            .select(&r, Predicate::LessThan(u32::MAX - 1))
            .unwrap();
        assert_eq!(all.len(), 1000);
        assert_eq!(rep.selectivity(), 1.0);
    }
}

#[cfg(test)]
mod edge_tests {
    use super::*;
    use fpart_types::Tuple8;

    #[test]
    fn empty_relation_selects_nothing() {
        let rel = Relation::<Tuple8>::from_tuples(&[]);
        let (out, report) = FpgaSelector::new()
            .select(&rel, Predicate::LessThan(100))
            .unwrap();
        assert!(out.is_empty());
        assert_eq!(report.scanned, 0);
        assert_eq!(report.selectivity(), 0.0);
    }

    #[test]
    fn non_line_multiple_input() {
        let rel = Relation::<Tuple8>::from_keys(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]);
        let (out, _) = FpgaSelector::new()
            .select(&rel, Predicate::Between(3, 9))
            .unwrap();
        let keys: Vec<u32> = out.tuples().iter().map(|t| t.key).collect();
        assert_eq!(keys, vec![3, 4, 5, 6, 7, 8]);
    }
}
