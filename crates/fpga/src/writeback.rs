//! The write back module (Section 4.3).
//!
//! "This module reads the output FIFO of the write combiners in a
//! round-robin fashion and puts the cache-lines in a last stage FIFO to be
//! sent to the main memory via QPI. There are 2 BRAMs which are used to
//! calculate the end destinations of tuples. The first BRAM holds the
//! prefix sum for the histogram … If the histogram is not populated, a
//! calculated base address via the fixed size partition is used. A second
//! BRAM holds the counts of how many cache-lines have already been written
//! to a certain partition. … For maintaining the integrity of the offset
//! BRAM, the forwarding logic described in Section 4.2 is used."
//!
//! PAD-mode overflow is detected here: "the failure is detected when one
//! of the counters for a partition exceeds the preassigned fixed size"
//! (Section 5.4).

use fpart_hwsim::Bram;
use fpart_types::{FpartError, Line, Result, Tuple};

use crate::config::PaddingSpec;
use crate::writecomb::CombinedLine;

/// An output transaction: partition id, destination line index (in the
/// virtual output region) and the line data.
pub type AddressedLine<T> = (usize, u64, Line<T>);

/// Per-partition addressing state: base (line index) and capacity (lines).
#[derive(Debug, Clone)]
pub struct PartitionExtents {
    /// Base line index per partition (prefix sum in HIST, fixed stride in
    /// PAD).
    pub base_lines: Vec<u64>,
    /// Capacity in lines per partition.
    pub capacity_lines: Vec<u64>,
}

impl PartitionExtents {
    /// HIST-mode extents: partition `p` owns `capacity_lines[p]` lines,
    /// back to back from line 0.
    pub fn from_lines(capacity_lines: Vec<u64>) -> Self {
        let base_lines = (capacity_lines.iter())
            .scan(0, |acc, &lines| {
                let base = *acc;
                *acc += lines;
                Some(base)
            })
            .collect();
        Self {
            base_lines,
            capacity_lines,
        }
    }

    /// PAD-mode extents for `n` tuples of `lanes` per line: every
    /// partition owns `padding`'s capacity, rounded up to whole lines.
    pub fn padded(padding: PaddingSpec, n: usize, parts: usize, lanes: usize) -> Self {
        Self::fixed(
            parts,
            padding.capacity(n, parts, lanes).div_ceil(lanes) as u64,
        )
    }

    /// Extents in which every partition owns the same fixed number of
    /// lines.
    pub fn fixed(parts: usize, lines_per_partition: u64) -> Self {
        Self {
            base_lines: (0..parts as u64).map(|p| p * lines_per_partition).collect(),
            capacity_lines: vec![lines_per_partition; parts],
        }
    }

    /// Total allocated lines.
    pub fn total_lines(&self) -> u64 {
        self.base_lines.last().map_or(0, |&b| b) + self.capacity_lines.last().copied().unwrap_or(0)
    }
}

#[derive(Debug, Clone, Copy)]
struct CountForward {
    hash: usize,
    count: u64,
    valid: bool,
}

/// The write back module: a two-stage pipeline (count-BRAM read → resolve
/// with forwarding → addressed line out).
#[derive(Debug)]
pub struct WriteBack<T: Tuple> {
    extents: PartitionExtents,
    /// Count BRAM: cache lines already written per partition (1-cycle
    /// read latency, hazard covered by one forwarding register).
    counts: Bram<u64>,
    /// Stage: line whose count read is in flight.
    stage: Option<CombinedLine<T>>,
    fwd: CountForward,
    /// Round-robin pointer over the combiner output FIFOs.
    rr: usize,
    lanes: usize,
    /// Whether overflow aborts (PAD) or is a simulator bug (HIST).
    pad_mode: bool,
    /// Tuples consumed so far (for overflow reports).
    tuples_consumed: u64,
    lines_emitted: u64,
}

/// The PAD abort of `partition`, whose capacity is `capacity` tuples,
/// after `consumed` input tuples.
pub(crate) fn overflow(partition: usize, capacity: usize, consumed: u64) -> FpartError {
    FpartError::PartitionOverflow {
        partition,
        capacity,
        consumed: consumed as usize,
    }
}

impl<T: Tuple> WriteBack<T> {
    /// A write back module draining `lanes` combiner FIFOs into the given
    /// extents.
    pub fn new(extents: PartitionExtents, lanes: usize, pad_mode: bool) -> Self {
        let parts = extents.base_lines.len();
        Self {
            extents,
            counts: Bram::new(parts.max(1), 0, 1),
            stage: None,
            fwd: CountForward {
                hash: 0,
                count: 0,
                valid: false,
            },
            rr: 0,
            lanes,
            pad_mode,
            tuples_consumed: 0,
            lines_emitted: 0,
        }
    }

    /// Which combiner FIFO to pop this cycle; the caller advances RR by
    /// calling [`WriteBack::advance_rr`] after a successful pop.
    pub fn rr_lane(&self) -> usize {
        self.rr
    }

    /// Move the round-robin pointer to the next lane.
    pub fn advance_rr(&mut self) {
        self.rr = (self.rr + 1) % self.lanes;
    }

    /// Lines currently inside the module.
    pub fn in_flight(&self) -> usize {
        usize::from(self.stage.is_some())
    }

    /// Lines emitted toward QPI so far.
    pub fn lines_emitted(&self) -> u64 {
        self.lines_emitted
    }

    /// Accumulate the partition-count BRAM's access totals into an
    /// observability counter set.
    pub fn record_bram_into(&self, c: &mut fpart_obs::CounterSet) {
        self.counts.record_into(
            c,
            fpart_obs::Ctr::CountBramReads,
            fpart_obs::Ctr::CountBramWrites,
        );
    }

    /// Note that `n` input tuples have been consumed by the circuit (used
    /// for the overflow report's `consumed` field).
    pub fn note_consumed(&mut self, n: u64) {
        self.tuples_consumed += n;
    }

    /// Advance one clock. `input` is a combined line popped from a
    /// combiner FIFO this cycle. Returns the addressed line leaving the
    /// resolve stage, or a PAD overflow error.
    pub fn clock(&mut self, input: Option<CombinedLine<T>>) -> Result<Option<AddressedLine<T>>> {
        // Resolve stage: count read issued last cycle arrives now.
        let output = if let Some((hash, line)) = self.stage.take() {
            let read = self
                .counts
                .data_out()
                .expect("a staged line always has a count read arriving");
            debug_assert_eq!(read.0, hash);
            // Forwarding: a back-to-back line to the same partition beat
            // the BRAM write.
            let count = if self.fwd.valid && self.fwd.hash == hash {
                self.fwd.count + 1
            } else {
                read.1
            };
            if count >= self.extents.capacity_lines[hash] {
                if self.pad_mode {
                    let capacity = self.extents.capacity_lines[hash] as usize * T::LANES;
                    return Err(overflow(hash, capacity, self.tuples_consumed));
                }
                unreachable!(
                    "HIST extents are exact; overflow in partition {hash} is a circuit bug"
                );
            }
            self.counts.write(hash, count + 1);
            self.fwd = CountForward {
                hash,
                count,
                valid: true,
            };
            self.lines_emitted += 1;
            Some((hash, self.extents.base_lines[hash] + count, line))
        } else {
            self.fwd.valid = false;
            None
        };

        if let Some((hash, line)) = input {
            self.counts.issue_read(hash);
            self.stage = Some((hash, line));
        }
        self.counts.tick();
        Ok(output)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpart_types::Tuple8;

    fn full_line(key_base: u32) -> Line<Tuple8> {
        let ts: Vec<Tuple8> = (0..8)
            .map(|i| Tuple8::new(key_base + i, i as u64))
            .collect();
        Line::from_slice(&ts)
    }

    fn drive(
        wb: &mut WriteBack<Tuple8>,
        inputs: Vec<CombinedLine<Tuple8>>,
    ) -> Result<Vec<AddressedLine<Tuple8>>> {
        let mut out = Vec::new();
        for i in inputs {
            if let Some(o) = wb.clock(Some(i))? {
                out.push(o);
            }
        }
        while wb.in_flight() > 0 {
            if let Some(o) = wb.clock(None)? {
                out.push(o);
            }
        }
        Ok(out)
    }

    #[test]
    fn fixed_extents_place_lines_sequentially() {
        let mut wb = WriteBack::<Tuple8>::new(PartitionExtents::fixed(4, 10), 8, true);
        let out = drive(
            &mut wb,
            vec![
                (2, full_line(0)),
                (2, full_line(8)),
                (0, full_line(16)),
                (2, full_line(24)),
            ],
        )
        .unwrap();
        let addrs: Vec<u64> = out.iter().map(|(_, a, _)| *a).collect();
        // Partition 2 base = 20: lines at 20, 21, 22; partition 0 at 0.
        assert_eq!(addrs, vec![20, 21, 0, 22]);
        assert_eq!(out[2].0, 0, "partition id travels with the line");
        assert_eq!(wb.lines_emitted(), 4);
    }

    #[test]
    fn back_to_back_same_partition_uses_forwarding() {
        // Consecutive lines to one partition: without the forwarding
        // register the 1-cycle count BRAM would hand both the same offset.
        let mut wb = WriteBack::<Tuple8>::new(PartitionExtents::fixed(2, 8), 8, true);
        let out = drive(
            &mut wb,
            (0..6).map(|i| (1usize, full_line(i * 8))).collect(),
        )
        .unwrap();
        let addrs: Vec<u64> = out.iter().map(|(_, a, _)| *a).collect();
        assert_eq!(
            addrs,
            vec![8, 9, 10, 11, 12, 13],
            "distinct consecutive slots"
        );
    }

    #[test]
    fn pad_overflow_detected() {
        let mut wb = WriteBack::<Tuple8>::new(PartitionExtents::fixed(2, 2), 8, true);
        wb.note_consumed(24);
        let err = drive(
            &mut wb,
            vec![(0, full_line(0)), (0, full_line(8)), (0, full_line(16))],
        )
        .unwrap_err();
        match err {
            FpartError::PartitionOverflow {
                partition,
                capacity,
                consumed,
            } => {
                assert_eq!(partition, 0);
                assert_eq!(capacity, 16);
                assert_eq!(consumed, 24);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn lane_histogram_extents() {
        // Extents of 2, 1 and 3 lines sit back to back (the lines of
        // 2 lanes holding [3, 0, 8] and [1, 1, 9] tuples at LANES = 8).
        let ext = PartitionExtents::from_lines(vec![2, 1, 3]);
        assert_eq!(ext.capacity_lines, vec![2, 1, 3]);
        assert_eq!(ext.base_lines, vec![0, 2, 3]);
        assert_eq!(ext.total_lines(), 6);
    }

    #[test]
    fn round_robin_pointer_cycles() {
        let mut wb = WriteBack::<Tuple8>::new(PartitionExtents::fixed(1, 1), 3, true);
        assert_eq!(wb.rr_lane(), 0);
        wb.advance_rr();
        wb.advance_rr();
        assert_eq!(wb.rr_lane(), 2);
        wb.advance_rr();
        assert_eq!(wb.rr_lane(), 0);
    }
}
