//! The write combiner module (Section 4.2, Figure 6, Code 4).
//!
//! "The job of the write combiner is to put 8 tuples belonging to the same
//! partition together in a cache-line before they are written back to the
//! memory." Without it every tuple would cost a 64 B read + 64 B write;
//! with it the circuit writes roughly as much as it reads — the 16×
//! traffic reduction of Section 4.2.
//!
//! The hard part — and the paper's headline engineering claim — is doing
//! this with **no pipeline stalls** even though the per-partition fill
//! rate lives in a BRAM with 2-cycle read latency. The resolution is the
//! forwarding-register network of Code 4: a tuple resolving *now* compares
//! its partition against the two previously resolved tuples; on a match it
//! consumes their in-flight fill rate (+1, wrapping in 3-bit arithmetic)
//! instead of the stale BRAM read.
//!
//! This implementation keeps the exact three-stage structure: a tuple
//! issues its fill-rate read on entry, waits one cycle, and resolves on
//! the third — so the BRAM-latency hazard is physically present and the
//! forwarding logic is load-bearing. Tests include an adversarial
//! same-partition burst that corrupts the output if forwarding is
//! disabled (see `ablation_forwarding` in the bench crate).

use fpart_hwsim::Bram;
use fpart_types::{Line, Tuple};

use crate::hashmod::HashedTuple;

/// A combined output cache line tagged with its partition.
pub type CombinedLine<T> = (usize, Line<T>);

/// Resolved info about one of the two most recently resolved tuples.
#[derive(Debug, Clone, Copy)]
struct Forward {
    hash: usize,
    which: u8,
    valid: bool,
}

impl Forward {
    const INVALID: Self = Self {
        hash: 0,
        which: 0,
        valid: false,
    };
}

/// Statistics exposed by a write combiner.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CombinerStats {
    /// Tuples accepted.
    pub tuples_in: u64,
    /// Full lines emitted during normal operation.
    pub lines_out: u64,
    /// Partial lines emitted by the flush.
    pub flush_lines: u64,
    /// Dummy slots written by the flush.
    pub flush_dummies: u64,
    /// Resolutions that used the 1-cycle forwarding path.
    pub forward_1d_hits: u64,
    /// Resolutions that used the 2-cycle forwarding path.
    pub forward_2d_hits: u64,
}

impl CombinerStats {
    /// Add another combiner's counts onto these (the circuit reports one
    /// total over its `LANES` combiners).
    pub fn accumulate(&mut self, other: &CombinerStats) {
        self.tuples_in += other.tuples_in;
        self.lines_out += other.lines_out;
        self.flush_lines += other.flush_lines;
        self.flush_dummies += other.flush_dummies;
        self.forward_1d_hits += other.forward_1d_hits;
        self.forward_2d_hits += other.forward_2d_hits;
    }
}

/// One write combiner instance (the circuit has `LANES` of them).
#[derive(Debug)]
pub struct WriteCombiner<T: Tuple> {
    /// `LANES` data BRAMs, flattened: `data[which * partitions + hash]`.
    /// (1-cycle-latency BRAMs in hardware; the combined-line read issue
    /// and its 1-cycle delay are modelled by the `pending_out` register.)
    data: Vec<T>,
    /// Fill-rate BRAM, 2-cycle read latency (Section 4.2).
    fill_rate: Bram<u8>,
    partitions: usize,
    /// Stage 0: tuple that issued its fill-rate read this cycle.
    s0: Option<HashedTuple<T>>,
    /// Stage 1: read in flight.
    s1: Option<HashedTuple<T>>,
    /// Forwarding registers (`*_1d`, `*_2d` of Code 4).
    fwd1: Forward,
    fwd2: Forward,
    /// Combined line awaiting its one-cycle output delay ("the actual
    /// read from the BRAMs happens 1 clock cycle later").
    pending_out: Option<CombinedLine<T>>,
    /// Flush scan position: `partition * LANES + bram`; `None` = not
    /// flushing.
    flush_pos: Option<usize>,
    /// Disable forwarding (ablation only — corrupts output under
    /// same-partition bursts, demonstrating why the hardware needs it).
    forwarding_enabled: bool,
    stats: CombinerStats,
}

impl<T: Tuple> WriteCombiner<T> {
    /// A combiner for `partitions` partitions.
    pub fn new(partitions: usize) -> Self {
        assert!(partitions > 0);
        Self {
            data: vec![T::dummy(); T::LANES * partitions],
            fill_rate: Bram::new(partitions, 0, 2),
            partitions,
            s0: None,
            s1: None,
            fwd1: Forward::INVALID,
            fwd2: Forward::INVALID,
            pending_out: None,
            flush_pos: None,
            forwarding_enabled: true,
            stats: CombinerStats::default(),
        }
    }

    /// Disable the forwarding registers (ablation: reproduces the data
    /// corruption a naive design suffers on same-partition bursts).
    pub fn disable_forwarding_for_ablation(&mut self) {
        self.forwarding_enabled = false;
    }

    /// Whether the combiner can accept a new tuple this cycle given the
    /// free slots in its output FIFO. The three in-flight stages can each
    /// hold a tuple that will emit a line, plus the pending-out register:
    /// require 4 free slots ("almost full" threshold) so accepted tuples
    /// never block on the output.
    pub fn can_accept(&self, out_fifo_free: usize) -> bool {
        self.flush_pos.is_none() && out_fifo_free >= 4
    }

    /// Tuples currently inside the pipeline (not yet resolved/emitted).
    pub fn in_flight(&self) -> usize {
        usize::from(self.s0.is_some())
            + usize::from(self.s1.is_some())
            + usize::from(self.pending_out.is_some())
    }

    /// Begin the end-of-run flush: "every address of the BRAMs is read
    /// sequentially and full cache-lines are put into the output FIFO",
    /// empty slots filled with dummy keys.
    ///
    /// # Panics
    /// Panics if tuples are still in flight — the circuit's control FSM
    /// only raises `flush` after the pipeline drains.
    pub fn start_flush(&mut self) {
        assert_eq!(self.in_flight(), 0, "flush requires a drained pipeline");
        self.flush_pos = Some(0);
    }

    /// Whether a started flush has scanned all partitions.
    pub fn flush_done(&self) -> bool {
        matches!(self.flush_pos, Some(p) if p >= self.partitions * T::LANES)
    }

    /// Whether the combiner is completely idle (drained, flushed or never
    /// flushed, nothing pending).
    pub fn is_idle(&self) -> bool {
        self.in_flight() == 0 && self.flush_pos.is_none_or(|_| self.flush_done())
    }

    /// Counters.
    pub fn stats(&self) -> CombinerStats {
        self.stats
    }

    /// Accumulate the fill-rate BRAM's access totals into an
    /// observability counter set.
    pub fn record_bram_into(&self, c: &mut fpart_obs::CounterSet) {
        self.fill_rate.record_into(
            c,
            fpart_obs::Ctr::FillBramReads,
            fpart_obs::Ctr::FillBramWrites,
        );
    }

    /// Advance one clock. `input` is the tuple popped from the lane FIFO
    /// this cycle (the caller must have checked [`WriteCombiner::can_accept`]).
    /// `out_ready` signals that the output FIFO can take a line this cycle:
    /// during normal operation the `can_accept` threshold guarantees it;
    /// during the flush the scan pauses while the output is blocked (the
    /// flush has no stall-freedom claim — it is a drain state machine).
    /// Returns the combined line leaving the output register, if any.
    pub fn clock(
        &mut self,
        input: Option<HashedTuple<T>>,
        out_ready: bool,
    ) -> Option<CombinedLine<T>> {
        let output = if out_ready {
            self.pending_out.take()
        } else {
            None
        };

        if let Some(pos) = self.flush_pos {
            if self.pending_out.is_none() {
                self.flush_clock(pos);
            }
        } else {
            self.resolve_stage();
            // Advance the pipeline registers.
            self.s1 = self.s0.take();
            if let Some(ht) = input {
                debug_assert!(ht.hash < self.partitions, "hash out of range");
                debug_assert!(!ht.tuple.is_dummy(), "dummies are filtered upstream");
                self.fill_rate.issue_read(ht.hash);
                self.s0 = Some(ht);
                self.stats.tuples_in += 1;
            }
        }
        self.fill_rate.tick();
        output
    }

    /// Resolve stage: the tuple that entered two cycles ago gets its
    /// `which_BRAM` — Code 4 lines 6–23.
    fn resolve_stage(&mut self) {
        let Some(ht) = self.s1.take() else {
            // Bubble: the forwarding registers still shift.
            let fill_read = self.fill_rate.data_out();
            debug_assert!(fill_read.is_none(), "read/stage desync");
            self.fwd2 = self.fwd1;
            self.fwd1 = Forward::INVALID;
            return;
        };
        let fill_read = self
            .fill_rate
            .data_out()
            .expect("a resolving tuple always has a fill-rate read arriving");
        debug_assert_eq!(fill_read.0, ht.hash, "read address mismatch");

        let which: u8 = if self.forwarding_enabled && self.fwd1.valid && ht.hash == self.fwd1.hash {
            // Code 4 line 7 — 3-bit increment wraps at LANES.
            self.stats.forward_1d_hits += 1;
            (self.fwd1.which + 1) % T::LANES as u8
        } else if self.forwarding_enabled && self.fwd2.valid && ht.hash == self.fwd2.hash {
            // Code 4 line 9.
            self.stats.forward_2d_hits += 1;
            (self.fwd2.which + 1) % T::LANES as u8
        } else {
            // Code 4 line 11: the issued read, stale by exactly the two
            // cycles the forwarding paths cover.
            fill_read.1
        };

        // Code 4 lines 13–17: update the fill rate.
        if which as usize == T::LANES - 1 {
            self.fill_rate.write(ht.hash, 0);
        } else {
            self.fill_rate.write(ht.hash, which + 1);
        }

        // Code 4 line 19: write the tuple into BRAM `which`.
        self.data[which as usize * self.partitions + ht.hash] = ht.tuple;

        // Code 4 lines 20–23: on the 8th tuple, request the combined read;
        // it lands in the output register next cycle.
        if which as usize == T::LANES - 1 {
            let mut line = Line::<T>::empty();
            for w in 0..T::LANES {
                line.set_lane(w, self.data[w * self.partitions + ht.hash]);
            }
            debug_assert!(
                self.pending_out.is_none(),
                "emissions are at least one resolve apart"
            );
            self.pending_out = Some((ht.hash, line));
            self.stats.lines_out += 1;
        }

        self.fwd2 = self.fwd1;
        self.fwd1 = Forward {
            hash: ht.hash,
            which,
            valid: true,
        };
    }

    /// One flush cycle: the scan visits one BRAM address per cycle
    /// (`partitions × LANES` cycles total — the `c_writecomb` term of
    /// Table 3). When the scan finishes a partition's last BRAM, a
    /// partial line is emitted if the partition held any leftovers.
    fn flush_clock(&mut self, pos: usize) {
        let total = self.partitions * T::LANES;
        if pos >= total {
            return;
        }
        // Scan order: for each partition, all LANES BRAM addresses.
        let hash = pos / T::LANES;
        let bram = pos % T::LANES;
        if bram == T::LANES - 1 {
            let fill = self.fill_rate.peek(hash);
            if fill > 0 {
                let mut line = Line::<T>::empty();
                for w in 0..fill as usize {
                    line.set_lane(w, self.data[w * self.partitions + hash]);
                }
                // Tail lanes stay dummy ("the empty slots are filled with
                // dummy keys").
                self.stats.flush_lines += 1;
                self.stats.flush_dummies += (T::LANES - fill as usize) as u64;
                debug_assert!(self.pending_out.is_none(), "one emission per LANES cycles");
                self.pending_out = Some((hash, line));
                self.fill_rate.write(hash, 0);
            }
        }
        self.flush_pos = Some(pos + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpart_types::Tuple8;

    fn ht(hash: usize, key: u32, rid: u64) -> HashedTuple<Tuple8> {
        HashedTuple {
            hash,
            tuple: Tuple8::new(key, rid),
        }
    }

    /// Drive a combiner with one tuple per cycle, collect emissions, then
    /// flush and collect the rest.
    fn run(
        partitions: usize,
        inputs: &[HashedTuple<Tuple8>],
        forwarding: bool,
    ) -> Vec<CombinedLine<Tuple8>> {
        let mut wc = WriteCombiner::<Tuple8>::new(partitions);
        if !forwarding {
            wc.disable_forwarding_for_ablation();
        }
        let mut out = Vec::new();
        for &i in inputs {
            if let Some(line) = wc.clock(Some(i), true) {
                out.push(line);
            }
        }
        // Drain the pipeline.
        while wc.in_flight() > 0 {
            if let Some(line) = wc.clock(None, true) {
                out.push(line);
            }
        }
        wc.start_flush();
        while !(wc.flush_done() && wc.in_flight() == 0) {
            if let Some(line) = wc.clock(None, true) {
                out.push(line);
            }
        }
        out
    }

    #[test]
    fn same_partition_burst_fills_one_line_per_8() {
        // 16 tuples to partition 3: two full lines, no flush leftovers.
        let inputs: Vec<_> = (0..16).map(|i| ht(3, 100 + i, i as u64)).collect();
        let lines = run(8, &inputs, true);
        assert_eq!(lines.len(), 2);
        for (li, (hash, line)) in lines.iter().enumerate() {
            assert_eq!(*hash, 3);
            assert_eq!(line.valid_count(), 8);
            for (w, t) in line.tuples().iter().enumerate() {
                assert_eq!(t.key, 100 + (li * 8 + w) as u32, "order within line");
            }
        }
    }

    /// The adversarial pattern for the BRAM hazard: back-to-back tuples to
    /// the same partition arrive faster than the 2-cycle fill-rate read.
    /// With forwarding the combiner is exact; without it, tuples overwrite
    /// each other (stale fill rates) and data is lost.
    #[test]
    fn forwarding_is_load_bearing() {
        let inputs: Vec<_> = (0..24).map(|i| ht(5, i, i as u64)).collect();
        let good = run(8, &inputs, true);
        let good_tuples: usize = good.iter().map(|(_, l)| l.valid_count()).sum();
        assert_eq!(good_tuples, 24, "forwarding preserves every tuple");

        let bad = run(8, &inputs, false);
        let bad_tuples: usize = bad.iter().map(|(_, l)| l.valid_count()).sum();
        assert!(
            bad_tuples < 24,
            "without forwarding the stale fill rate must lose tuples (got {bad_tuples})"
        );
    }

    #[test]
    fn alternating_partitions_exercise_2d_forwarding() {
        // A B A B …: each resolution matches the tuple two cycles back.
        let inputs: Vec<_> = (0..32)
            .map(|i| ht(if i % 2 == 0 { 1 } else { 2 }, i, i as u64))
            .collect();
        let mut wc = WriteCombiner::<Tuple8>::new(4);
        let mut lines = Vec::new();
        for &i in &inputs {
            if let Some(l) = wc.clock(Some(i), true) {
                lines.push(l);
            }
        }
        while wc.in_flight() > 0 {
            if let Some(l) = wc.clock(None, true) {
                lines.push(l);
            }
        }
        assert!(wc.stats().forward_2d_hits > 0, "2d path must trigger");
        let total: usize = lines.iter().map(|(_, l)| l.valid_count()).sum();
        assert_eq!(total, 32);
        // Each of partitions 1 and 2 received 16 tuples = 2 full lines.
        assert_eq!(lines.iter().filter(|(h, _)| *h == 1).count(), 2);
        assert_eq!(lines.iter().filter(|(h, _)| *h == 2).count(), 2);
    }

    #[test]
    fn scattered_tuples_flush_with_dummies() {
        // One tuple to each of 5 partitions: nothing combines; flush emits
        // 5 partial lines with 7 dummies each.
        let inputs: Vec<_> = (0..5).map(|p| ht(p, p as u32 + 10, p as u64)).collect();
        let lines = run(8, &inputs, true);
        assert_eq!(lines.len(), 5);
        for (p, (hash, line)) in lines.iter().enumerate() {
            assert_eq!(*hash, p);
            assert_eq!(line.valid_count(), 1);
            assert_eq!(line.lane(0).key, p as u32 + 10);
            assert!(line.tuples()[1..].iter().all(|t| t.is_dummy()));
        }
    }

    #[test]
    fn accepts_one_tuple_every_cycle_stall_free() {
        // The headline claim: any input pattern, one tuple per cycle, no
        // internal stall. We simply verify the combiner consumed exactly
        // as many cycles as tuples (plus drain) and lost nothing, on a
        // pathological pattern mixing bursts and alternations.
        let mut inputs = Vec::new();
        for i in 0..50u32 {
            inputs.push(ht(0, i, 0));
        }
        for i in 0..50u32 {
            inputs.push(ht((i % 3) as usize, 100 + i, 0));
        }
        let lines = run(4, &inputs, true);
        let total: usize = lines.iter().map(|(_, l)| l.valid_count()).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn bubbles_between_tuples_are_harmless() {
        let mut wc = WriteCombiner::<Tuple8>::new(4);
        let mut lines = Vec::new();
        for i in 0..40u32 {
            if let Some(l) = wc.clock(Some(ht(1, i, 0)), true) {
                lines.push(l);
            }
            // Two bubble cycles after every tuple: defeats both forwarding
            // paths, so resolution must come from the BRAM read.
            for _ in 0..2 {
                if let Some(l) = wc.clock(None, true) {
                    lines.push(l);
                }
            }
        }
        while wc.in_flight() > 0 {
            if let Some(l) = wc.clock(None, true) {
                lines.push(l);
            }
        }
        assert_eq!(wc.stats().forward_1d_hits, 0);
        assert_eq!(wc.stats().forward_2d_hits, 0);
        let total: usize = lines.iter().map(|(_, l)| l.valid_count()).sum();
        assert_eq!(total, 40);
        assert_eq!(lines.len(), 5, "40 tuples to one partition = 5 lines");
    }

    #[test]
    fn flush_duration_is_partitions_times_lanes() {
        let mut wc = WriteCombiner::<Tuple8>::new(16);
        wc.clock(Some(ht(7, 1, 0)), true);
        while wc.in_flight() > 0 {
            wc.clock(None, true);
        }
        wc.start_flush();
        let mut cycles = 0;
        while !wc.flush_done() {
            wc.clock(None, true);
            cycles += 1;
        }
        assert_eq!(cycles, 16 * 8, "one BRAM address per cycle");
    }

    #[test]
    #[should_panic(expected = "drained")]
    fn flush_with_tuples_in_flight_rejected() {
        let mut wc = WriteCombiner::<Tuple8>::new(4);
        wc.clock(Some(ht(0, 1, 0)), true);
        wc.start_flush();
    }

    #[test]
    fn stats_accounting() {
        let inputs: Vec<_> = (0..10).map(|i| ht(0, i, 0)).collect();
        let mut wc = WriteCombiner::<Tuple8>::new(2);
        for &i in &inputs {
            wc.clock(Some(i), true);
        }
        while wc.in_flight() > 0 {
            wc.clock(None, true);
        }
        wc.start_flush();
        while !(wc.flush_done() && wc.in_flight() == 0) {
            wc.clock(None, true);
        }
        let s = wc.stats();
        assert_eq!(s.tuples_in, 10);
        assert_eq!(s.lines_out, 1);
        assert_eq!(s.flush_lines, 1);
        assert_eq!(s.flush_dummies, 6);
    }
}
