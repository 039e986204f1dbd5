//! Batched (fast-path) execution of the partitioner circuit.
//!
//! The circuit of Figure 5 is deterministic and fully pipelined: its
//! *functional* output — which tuple lands in which partition slot — does
//! not depend on QPI timing, and its *cycle count* in steady state is
//! governed by only two bounds,
//!
//! 1. the **circuit bound**: one tuple line enters the hash pipes per
//!    clock, plus the fixed warm-up (read latency + pipeline depth) and
//!    the end-of-run flush scan (`partitions × LANES` BRAM addresses, the
//!    `c_writecomb` term of Table 3), and
//! 2. the **link bound**: total bytes moved divided by the mix-dependent
//!    token-bucket rate, [`QpiConfig::link_cycles`].
//!
//! [`SimFidelity::Batched`](crate::config::SimFidelity) therefore models
//! the write combiners' *counts*, not their data BRAM, and computes the
//! cycle count as `max(circuit bound, link bound)` instead of ticking
//! every module once per simulated clock. Lines, padding and the PAD
//! overflow point depend only on per-`(lane, partition)` tuple counts:
//! a cell of `h` tuples yields ⌊h/LANES⌋ full lines plus a flush line of
//! `h mod LANES` tuples. HIST's histogram pass therefore keeps one cell
//! per partition, its tuple count and each lane's count mod `LANES`;
//! PAD replays the counts with a `u8` fill counter per cell and a line
//! count per partition. The tuples move through the CPU partitioner's
//! [`Swwcb`] into the same line-rounded extents of an output allocated
//! unwritten, and dummies fill only what the tuples leave free, so each
//! slot is written once. Differential tests
//! (`crates/fpga/tests/fastpath_equivalence.rs`) pin this path to the
//! cycle-accurate engine: identical per-partition contents, counts,
//! capacities and padding, and cycle counts within the documented
//! warm-up/drain slack.
//!
//! ## What is *not* identical
//!
//! The cycle-accurate write-back drains the combiner FIFOs round-robin
//! under backpressure, so the *order of slots within a partition* is an
//! arbitration artifact (lane interleaving shifts with stall timing). The
//! batched path writes each partition's valid tuples contiguously, in
//! arrival order, followed by its flush dummies. Both layouts hold the
//! same circuit output: every consumer in this repository — and the
//! paper's own evaluation — treats a partition as an unordered set of
//! tuples, which is exactly what the equivalence tests assert. The stall
//! counts and the port classification are synthesized from the analytic
//! model and are approximations; no lane-FIFO occupancy or trace events
//! are recorded.
//!
//! ## Fault plans
//!
//! A plan armed with [`FpgaPartitioner::with_faults`] runs here with the
//! ticked engine's outcome. [`QpiEndpoint::fast_forward`] charges the
//! link transients below each pass's line operations, and
//! [`PageTable::translate_lines`] the translation transients. A histogram
//! flip fails its pass at the end. Both engines check fill-rate flips and
//! injected PAD overflows as the tuples leave the hash pipes, in input
//! order ([`TupleAborts`]); a HIST scatter walks its tuples one by one
//! only when the plan injects such an abort. Two orders are estimates: a
//! fatal link burst against another abort (by operation index), and a
//! natural PAD overflow, which the ticked write-back meets some lines
//! late, against an injected abort just after it.
//!
//! [`FpgaPartitioner::with_faults`]: crate::FpgaPartitioner::with_faults
//! [`TupleAborts`]: crate::partitioner::TupleAborts
//! [`PageTable::translate_lines`]: fpart_hwsim::PageTable::translate_lines

use std::ops::Range;

use fpart_cpu::swwcb::OutputBuilder;
use fpart_hash::PartitionFn;
use fpart_hwsim::{FaultInjector, PassId, QpiConfig, QpiEndpoint};
use fpart_obs::{Ctr, Recorder};
use fpart_types::line::MAX_LANES;
use fpart_types::{FpartError, Input, PartitionLayout, PartitionedRelation, Result, Tuple};

use crate::config::{OutputMode, PartitionerConfig};
use crate::partitioner::{
    build_pagetable, endpoint, histogram_flip, PassTotals, RunReport, RunTotals, TupleAborts,
};
use crate::writeback::{overflow, PartitionExtents};
use crate::writecomb::CombinerStats;

/// Fixed circuit warm-up folded into the analytic cycle count: QPI read
/// latency is added separately; this covers the 5-stage hash pipeline,
/// the FIFO/combiner/write-back stage registers and the drain tail. The
/// differential tests bound the batched-vs-ticked gap, so the constant
/// only has to be representative, not exact.
const PIPELINE_SLACK: u64 = 48;

/// Result of the batched histogram pass: what the write combiners' line
/// accounting needs, one tuple count per partition and one partial-line
/// fill per combiner cell, instead of a count per (lane, partition).
pub(crate) struct BatchedHistogram {
    /// Tuples per partition.
    pub(crate) totals: Vec<u64>,
    /// Each combiner cell's partial-line fill, flattened as
    /// `fills[lane * partitions + p]`: the tuples lane `lane` sent to
    /// partition `p`, mod `LANES`.
    pub(crate) fills: Vec<u8>,
    /// The combiners' forwarding-register hits (1-cycle, 2-cycle).
    forward_hits: (u64, u64),
    /// Analytic cycle count and link counters (reads; synthesized
    /// stalls) of the pass.
    pub(crate) pass: PassTotals,
}

/// The write combiners' forwarding registers: per lane, the partitions
/// of its last two tuples (1-cycle, 2-cycle), and the hits counted so
/// far. This reproduces the combiners' hit counters for an unstalled
/// tuple stream (link stalls insert bubbles the batched path does not
/// model, so under backpressure these counters are an upper bound).
/// Partition ids fit in a `u32`: there are at most 2^`MAX_BRAM_BITS`.
struct Forwarding {
    last: [u32; MAX_LANES],
    before: [u32; MAX_LANES],
    /// Per lane, the 1-cycle and 2-cycle hits since the last
    /// [`Forwarding::fold`]; a block between folds has fewer than 2^32
    /// tuple lines.
    lane_hits: [[u32; MAX_LANES]; 2],
    /// All hits folded so far.
    hits: (u64, u64),
}

impl Forwarding {
    fn new() -> Self {
        Self {
            last: [u32::MAX; MAX_LANES],
            before: [u32::MAX; MAX_LANES],
            lane_hits: [[0; MAX_LANES]; 2],
            hits: (0, 0),
        }
    }

    /// Pass the real tuples of `line`, whose partitions are `ids`,
    /// through the registers, and return whether the line is full and
    /// holds no dummy. Such a line updates every lane at once, without a
    /// branch; any other line takes its real tuples one at a time.
    #[inline(always)]
    fn line<T: Tuple>(&mut self, line: &[T], ids: &[usize; MAX_LANES]) -> bool {
        let clean = line.len() == T::LANES && !line.iter().any(|t| t.is_dummy());
        if clean {
            let mut now = [0; MAX_LANES];
            for (p, &id) in now[..T::LANES].iter_mut().zip(ids) {
                *p = id as u32;
            }
            let [one, two] = &mut self.lane_hits;
            for lane in 0..T::LANES {
                let hit1 = now[lane] == self.last[lane];
                one[lane] += u32::from(hit1);
                two[lane] += u32::from(!hit1 & (now[lane] == self.before[lane]));
            }
            self.before = self.last;
            self.last = now;
        } else {
            for (lane, (t, &p)) in line.iter().zip(ids).enumerate() {
                if !t.is_dummy() {
                    self.tuple(lane, p as u32);
                }
            }
        }
        clean
    }

    /// Lane `lane` combines a tuple of partition `p`.
    #[inline]
    fn tuple(&mut self, lane: usize, p: u32) {
        if p == self.last[lane] {
            self.lane_hits[0][lane] += 1;
        } else if p == self.before[lane] {
            self.lane_hits[1][lane] += 1;
        }
        self.before[lane] = self.last[lane];
        self.last[lane] = p;
    }

    /// Move the per-lane hit counts into `hits`.
    fn fold(&mut self) {
        let [one, two] = std::mem::take(&mut self.lane_hits);
        self.hits.0 += one.iter().map(|&h| u64::from(h)).sum::<u64>();
        self.hits.1 += two.iter().map(|&h| u64::from(h)).sum::<u64>();
    }
}

/// One tuple in a histogram cell. A cell is one `u64` per partition: the
/// high 32 bits count the partition's tuples, and the low 32 bits hold
/// each lane's count mod `LANES`, 4 bits per lane.
const CELL_TUPLE: u64 = 1 << 32;

/// The most tuple lines between two folds of the cells' counts into the
/// `u64` totals. A line adds at most `LANES <= 8` tuples to a cell, so a
/// count half reaches at most 2^19 between folds and never overflows.
const FOLD_LINES: usize = 1 << 16;

/// Count a tuple of lane `lane` into `cell`: one more tuple, and one more
/// in the lane's 4-bit field, whose `LANES` bit is then cleared. The field
/// holds at most `LANES - 1 <= 7` before the add, so no carry crosses
/// into the next field, and `LANES` (a power of two) wraps to 0.
#[inline(always)]
fn count_into<T: Tuple>(cell: &mut u64, lane: usize) {
    let shift = 4 * lane;
    *cell = (*cell + CELL_TUPLE + (1 << shift)) & !((T::LANES as u64) << shift);
}

/// Move the cells' tuple counts into `totals`, keeping their fills.
fn fold(cells: &mut [u64], totals: &mut [u64]) {
    for (cell, total) in cells.iter_mut().zip(totals) {
        *total += *cell >> 32;
        *cell &= u64::from(u32::MAX);
    }
}

/// Input lines the batched PAD scatter walks between overflow checks.
const ABORT_BLOCK_LINES: usize = 1024;

/// Call `f(line, ids)` for every tuple line of input lines `lines`, in
/// the order the circuit's hash lanes see them, with `ids[i]` the
/// partition of `line[i]` under `pf`, and return the number of tuple
/// lines the circuit generates.
#[inline(always)]
fn for_each_line<T: Tuple>(
    input: &Input<'_, T>,
    lines: Range<usize>,
    pf: PartitionFn,
    mut f: impl FnMut(&[T], &[usize; MAX_LANES]),
) -> u64 {
    let mut tuple_lines = 0;
    let mut ids = [0; MAX_LANES];
    input.for_each_line(lines, |line| {
        tuple_lines += 1;
        pf.partition_line(line, &mut ids);
        f(line, &ids);
    });
    tuple_lines
}

/// Functional histogram pass: stream every input tuple once, count its
/// partition's tuples and its combiner cell's fill, and the forwarding
/// hits, and derive the pass duration analytically.
///
/// # Errors
/// Under a fault plan: [`FpartError::LinkRetryExhausted`] for a link
/// burst beyond the replay limit, else [`FpartError::BramSoftError`] for
/// a histogram-BRAM flip.
pub(crate) fn histogram_pass<T: Tuple>(
    cfg: &PartitionerConfig,
    qpi_cfg: &QpiConfig,
    input: &Input<'_, T>,
    faults: Option<&FaultInjector>,
) -> Result<BatchedHistogram> {
    let parts = cfg.partitions();
    let input_lines = input.input_lines();
    let total_lines = input_lines as u64;
    let mut cells = vec![0u64; parts];
    let mut totals = vec![0u64; parts];
    let mut fwd = Forwarding::new();
    let f = cfg.partition_fn;
    // Each block of input lines yields at most `FOLD_LINES` tuple lines.
    let block = (FOLD_LINES / input.expansion()).max(1);
    let mut tuple_lines = 0;
    for first in (0..input_lines).step_by(block) {
        let lines = first..(first + block).min(input_lines);
        tuple_lines += for_each_line(input, lines, f, |line, ids| {
            if fwd.line(line, ids) {
                for (lane, &p) in ids[..T::LANES].iter().enumerate() {
                    count_into::<T>(&mut cells[p], lane);
                }
            } else {
                for (lane, (t, &p)) in line.iter().zip(ids).enumerate() {
                    if !t.is_dummy() {
                        count_into::<T>(&mut cells[p], lane);
                    }
                }
            }
        });
        fold(&mut cells, &mut totals);
        fwd.fold();
    }
    let mut fills = vec![0u8; T::LANES * parts];
    for (p, &cell) in cells.iter().enumerate() {
        for lane in 0..T::LANES {
            fills[lane * parts + p] = (cell >> (4 * lane)) as u8 & 0xF;
        }
    }

    let mut ep = endpoint(qpi_cfg, faults, PassId::Histogram);
    let link = ep.fast_forward(total_lines, 0)?;
    histogram_flip(faults, parts)?;
    let circuit = circuit_bound(qpi_cfg, tuple_lines, 0);
    let mut qpi = ep.stats();
    // A read-only pass spends every link-bound cycle beyond the circuit
    // bound waiting on read credit; link replays stall it further.
    qpi.read_stall_cycles = link.saturating_sub(circuit);
    let cycles = link.max(circuit) + qpi.replay_stall_cycles;

    Ok(BatchedHistogram {
        totals,
        fills,
        forward_hits: fwd.hits,
        pass: PassTotals { cycles, qpi },
    })
}

/// The circuit-side duration of a pass that delivers `tuple_lines` tuple
/// lines and ends with a flush scan over `flush_scan` BRAM addresses
/// (0 for the histogram pass, `partitions × LANES` for the scatter).
fn circuit_bound(qpi_cfg: &QpiConfig, tuple_lines: u64, flush_scan: u64) -> u64 {
    qpi_cfg.read_latency as u64 + tuple_lines + flush_scan + PIPELINE_SLACK
}

/// The scatter's abort `err` after `reads` input and `writes` output line
/// operations, unless a fatal link fault among them ended the pass first.
fn first_abort(ep: &mut QpiEndpoint, err: FpartError, reads: u64, writes: u64) -> FpartError {
    ep.fast_forward(reads, writes).err().unwrap_or(err)
}

/// Run a full partitioning job on the batched fast path. Functionally
/// equivalent to [`FpgaPartitioner`]'s cycle-accurate engine (same
/// per-partition contents, counts, capacities, padding and overflow
/// behaviour, and the same outcome of an armed fault plan), with
/// analytically derived cycle counts.
///
/// [`FpgaPartitioner`]: crate::FpgaPartitioner
pub(crate) fn run_batched<T: Tuple>(
    cfg: &PartitionerConfig,
    qpi_cfg: &QpiConfig,
    input: &Input<'_, T>,
    faults: Option<&FaultInjector>,
) -> Result<(PartitionedRelation<T>, RunReport)> {
    let parts = cfg.partitions();
    let lanes = T::LANES;
    let n = input.len();
    let total_lines = input.input_lines() as u64;
    let f = cfg.partition_fn;

    // After the scatter `counts[p]` holds partition `p`'s full lines and
    // `fills[lane * parts + p]` each combiner cell's partial-line fill.
    let mut counts: Vec<u64> = vec![0; parts];
    let mut fills: Vec<u8> = vec![0; lanes * parts];
    let mut tuples_consumed = 0u64;
    // Extents: HIST sizes them from the histogram pass, PAD fixes them.
    let (extents, layout, mut hist) = match cfg.output {
        OutputMode::Hist => {
            let mut pass = histogram_pass(cfg, qpi_cfg, input, faults)?;
            // Every line count follows from the histogram: a partition's
            // tuples fill (total − Σ fills) / LANES full lines, and each
            // non-empty combiner cell flushes one more.
            fills = std::mem::take(&mut pass.fills);
            let mut capacity_lines = vec![0; parts];
            for (p, &total) in pass.totals.iter().enumerate() {
                let cell_fills = fills[p..].iter().step_by(parts).map(|&f| u64::from(f));
                let (partial, flushes) = cell_fills.fold((0, 0), |(sum, n), fill| {
                    (sum + fill, n + u64::from(fill != 0))
                });
                counts[p] = (total - partial) / lanes as u64;
                capacity_lines[p] = counts[p] + flushes;
                tuples_consumed += total;
            }
            let extents = PartitionExtents::from_lines(capacity_lines);
            (extents, PartitionLayout::Exact, Some(pass))
        }
        OutputMode::Pad { padding } => {
            let extents = PartitionExtents::padded(padding, n, parts, lanes);
            let capacity = extents.capacity_lines[0] as usize * lanes;
            (extents, PartitionLayout::Padded { capacity }, None)
        }
    };
    let mut pagetable = build_pagetable(input.input_lines(), &extents, faults)?;

    let mut ep = endpoint(qpi_cfg, faults, PassId::Scatter);
    let pad_capacity = hist
        .is_none()
        .then(|| extents.capacity_lines[0] as usize * lanes);
    let aborts = faults.and_then(|inj| TupleAborts::new(inj, parts, pad_capacity));

    let extent_slots: Vec<usize> = (extents.capacity_lines.iter())
        .map(|&l| l as usize * lanes)
        .collect();
    // HIST plans each partition's histogram total; PAD's one writer may
    // fill its partition's whole extent.
    let planned = match &mut hist {
        Some(pass) => std::mem::take(&mut pass.totals)
            .into_iter()
            .map(|t| t as usize)
            .collect(),
        None => extent_slots.clone(),
    };
    let mut output = OutputBuilder::new(&extent_slots, layout, &[planned]);

    // Scatter through the SWWCB.
    let mut wc = output.writers().next().expect("one writer");
    let mut forward_hits = hist.as_ref().map_or((0, 0), |h| h.forward_hits);
    let tuple_lines = if hist.is_some() && aborts.is_none() {
        for_each_line(input, 0..input.input_lines(), f, |line, ids| {
            for (&t, &p) in line.iter().zip(ids) {
                if !t.is_dummy() {
                    wc.push(p, t);
                }
            }
        })
    } else {
        // PAD, and HIST under injected aborts, recount the lines tuple by
        // tuple. The first full line past a partition's capacity aborts
        // the run, and so does an injected abort. The input is walked in
        // blocks so that an aborted run stops reading within one block of
        // the abort, as the circuit does.
        if hist.is_some() {
            counts.fill(0);
            fills.fill(0);
            tuples_consumed = 0;
        }
        // Only PAD's fixed capacity can overflow; HIST's extents are exact.
        let cap = pad_capacity.unwrap_or(usize::MAX);
        let cap_lines = (cap / lanes) as u64;
        let mut fwd = Forwarding::new();
        let (mut aborted, mut tuple_lines) = (None, 0u64);
        let input_lines = input.input_lines();
        for first in (0..input_lines).step_by(ABORT_BLOCK_LINES) {
            let block = first..(first + ABORT_BLOCK_LINES).min(input_lines);
            for_each_line(input, block, f, |line, ids| {
                if aborted.is_some() {
                    return;
                }
                tuple_lines += 1;
                fwd.line(line, ids);
                for (lane, (&t, &p)) in line.iter().zip(ids).enumerate() {
                    if t.is_dummy() {
                        continue;
                    }
                    if let Some(e) = aborts.as_ref().and_then(|a| a.at(tuples_consumed, p)) {
                        aborted = Some(e);
                        return;
                    }
                    tuples_consumed += 1;
                    let cell = lane * parts + p;
                    fills[cell] += 1;
                    if fills[cell] as usize == lanes {
                        // Full line: the write-back's count BRAM check.
                        fills[cell] = 0;
                        if counts[p] == cap_lines {
                            aborted = Some(overflow(p, cap, tuples_consumed));
                            return;
                        }
                        counts[p] += 1;
                    }
                    // A partition that will overflow stops receiving data
                    // at its capacity; the run aborts before it completes.
                    if wc.count(p) < cap {
                        wc.push(p, t);
                    }
                }
            });
            if let Some(e) = aborted {
                let reads = tuple_lines.div_ceil(input.expansion() as u64);
                return Err(first_abort(&mut ep, e, reads, counts.iter().sum()));
            }
            fwd.fold();
        }
        forward_hits = fwd.hits;
        tuple_lines
    };
    // Flush: every non-empty combiner cell emits one line, padded with
    // dummies, partition-major / lane-minor (the ticked flush scan's PAD
    // overflow order).
    let mut flush_dummies = 0u64;
    let mut flush_lines = 0u64;
    for p in 0..parts {
        for lane in 0..lanes {
            let fill = fills[lane * parts + p] as usize;
            if fill == 0 {
                continue;
            }
            if counts[p] == extents.capacity_lines[p] {
                let e = overflow(p, extent_slots[p], tuples_consumed);
                return Err(first_abort(&mut ep, e, total_lines, counts.iter().sum()));
            }
            counts[p] += 1;
            flush_dummies += (lanes - fill) as u64;
            flush_lines += 1;
        }
    }
    // Analytic scatter duration: the slower of the circuit and the link,
    // plus the link's replay stalls.
    let lines_written: u64 = counts.iter().sum();
    let link = ep.fast_forward(total_lines, lines_written)?;

    // Each partition's valid tuples are the first slots of its extent;
    // the builder writes dummies over the rest, the flush lines' padding
    // included.
    let (mut out, _) = output.finish();
    for (p, &lines) in counts.iter().enumerate() {
        let valid = out.partition_valid(p);
        out.set_partition_fill(p, lines as usize * lanes, valid);
    }

    // Address translations: one per input line read and one per output
    // line written (the ticked engine re-translates reads denied by the
    // token bucket, so its count is timing-dependent and strictly ≥ this),
    // looked up once per 4 MB page.
    pagetable.translate_lines(0, total_lines)?;
    for (&count, &base) in counts.iter().zip(&extents.base_lines) {
        pagetable.translate_lines(total_lines + base, count)?;
    }

    let flush_scan = (parts * lanes) as u64;
    let circuit = circuit_bound(qpi_cfg, tuple_lines, flush_scan);
    let mut qpi = ep.stats();
    // Synthesized stalls: every link-bound cycle beyond the circuit bound
    // is a denied grant, split by traffic share.
    let stall = link.saturating_sub(circuit);
    let rd_stall = (stall * total_lines)
        .checked_div(total_lines + lines_written)
        .unwrap_or(0);
    qpi.read_stall_cycles = rd_stall;
    qpi.write_stall_cycles = stall - rd_stall;
    let scatter = PassTotals {
        cycles: link.max(circuit) + qpi.replay_stall_cycles,
        qpi,
    };

    // The write-back and BRAM tallies of the model: one fill-rate
    // read+write per combined tuple, one extra write per flushed partial
    // line; one count read+write per emitted line — exactly what the
    // ticked BRAMs tally.
    let mut rec = Recorder::new(cfg.obs);
    for (ctr, v) in [
        (Ctr::WbLinesEmitted, lines_written),
        (Ctr::FillBramReads, tuples_consumed),
        (Ctr::FillBramWrites, tuples_consumed + flush_lines),
        (Ctr::CountBramReads, lines_written),
        (Ctr::CountBramWrites, lines_written),
    ] {
        rec.set(ctr, v);
    }
    let totals = RunTotals {
        tuples_in: n as u64,
        tuples_out: out.total_valid() as u64,
        input_lines: total_lines,
        tuple_lines,
        lines_written,
        hist: hist.map_or_else(PassTotals::default, |h| h.pass),
        scatter,
        combiners: CombinerStats {
            tuples_in: tuples_consumed,
            lines_out: lines_written - flush_lines,
            flush_lines,
            flush_dummies,
            forward_1d_hits: forward_hits.0,
            forward_2d_hits: forward_hits.1,
        },
        // Streaming reads of distinct addresses: every access is a
        // compulsory miss in the 128 KB endpoint cache (Section 2.2).
        ep_cache: (0, total_lines),
        ports_counted: false,
    };
    let report = RunReport::publish::<T>(cfg, qpi_cfg.clock_hz, &totals, &pagetable, rec);
    Ok((out, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::InputMode;
    use fpart_types::{
        ColumnRelation, Key, Relation, RleColumn, SplitMix64, Tuple16, Tuple32, Tuple64, Tuple8,
    };

    /// Per-`(lane, partition)` tuple counts and forwarding hits, one
    /// tuple at a time: the scalar model of the combiners' counters.
    fn reference<T: Tuple>(input: &Input<'_, T>, f: PartitionFn) -> (Vec<Vec<u64>>, (u64, u64)) {
        let mut counts = vec![vec![0u64; f.fan_out()]; T::LANES];
        let mut regs = vec![(usize::MAX, usize::MAX); T::LANES];
        let mut hits = (0, 0);
        input.for_each_line(0..input.input_lines(), |line| {
            for (lane, t) in line.iter().enumerate() {
                if t.is_dummy() {
                    continue;
                }
                let p = f.partition_of(t.key());
                counts[lane][p] += 1;
                if p == regs[lane].0 {
                    hits.0 += 1;
                } else if p == regs[lane].1 {
                    hits.1 += 1;
                }
                regs[lane] = (p, regs[lane].0);
            }
        });
        (counts, hits)
    }

    /// Tuple lines the circuit sees for `input`.
    fn tuple_lines<T: Tuple>(input: &Input<'_, T>) -> usize {
        let mut n = 0;
        input.for_each_line(0..input.input_lines(), |_| n += 1);
        n
    }

    /// The cell histogram of `input` against the scalar reference: every
    /// cell's total and fills, and both forwarding-hit counts, which it
    /// returns.
    fn check<T: Tuple>(label: &str, input: Input<'_, T>, f: PartitionFn) -> (u64, u64) {
        let cfg = PartitionerConfig {
            partition_fn: f,
            ..PartitionerConfig::paper_default(OutputMode::Hist, InputMode::of(&input))
        };
        let qpi = QpiConfig::unlimited(200e6);
        let pass = histogram_pass(&cfg, &qpi, &input, None).unwrap();
        let (counts, hits) = reference(&input, f);
        let parts = f.fan_out();
        assert_eq!(pass.totals.len(), parts, "{label}");
        assert_eq!(pass.fills.len(), T::LANES * parts, "{label}");
        for p in 0..parts {
            let total: u64 = counts.iter().map(|c| c[p]).sum();
            assert_eq!(pass.totals[p], total, "{label}: total of partition {p}");
            for (lane, c) in counts.iter().enumerate() {
                assert_eq!(
                    u64::from(pass.fills[lane * parts + p]),
                    c[p] % T::LANES as u64,
                    "{label}: fill of lane {lane}, partition {p}"
                );
            }
        }
        assert_eq!(pass.forward_hits, hits, "{label}: forwarding hits");
        hits
    }

    /// `n` keys of at most `distinct` values, drawn from `seed`, with
    /// about one in `dummy_every` replaced by the dummy key (0: none).
    fn keys<K: Key>(n: usize, distinct: u64, dummy_every: u64, seed: u64) -> Vec<K> {
        let mut rng = SplitMix64::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                if dummy_every > 0 && rng.below_u64(dummy_every) == 0 {
                    K::DUMMY
                } else {
                    K::from_u64(rng.below_u64(distinct))
                }
            })
            .collect()
    }

    const FNS: [PartitionFn; 2] = [
        PartitionFn::Murmur { bits: 5 },
        PartitionFn::Radix { bits: 3 },
    ];

    /// Rows with and without dummy keys, and column and RLE views whose
    /// first and last lines are short.
    fn check_width<T: Tuple>(width: &str) {
        for f in FNS {
            for (dummies, seed) in [(0, 1), (7, 2)] {
                // Few distinct keys so that lanes repeat partitions and
                // the forwarding registers hit.
                let ks = keys::<T::K>(4099, 40, dummies, seed);
                let rows: Vec<T> = (ks.iter().enumerate())
                    .map(|(i, &k)| T::new(k, i as u64))
                    .collect();
                let rel = Relation::from_tuples(&rows);
                let label = format!("{width} rows, dummies 1/{dummies}, {f:?}");
                let hits = check(&label, (&rel).into(), f);
                assert!(hits.0 > 0 && hits.1 > 0, "{label}: both registers hit");
            }
            let ks = keys::<T::K>(3001, 1 << 20, 0, 3);
            let col = ColumnRelation::<T>::from_keys(&ks);
            let cols = Input::from(&col);
            check(&format!("{width} columns, {f:?}"), cols, f);
            check(
                &format!("{width} column view, {f:?}"),
                cols.slice(5..2990),
                f,
            );
            let mut runs = keys::<T::K>(3001, 40, 0, 4);
            runs.sort_unstable();
            let rle = RleColumn::encode(&runs);
            let rle = Input::<T>::from(&rle);
            check(&format!("{width} rle, {f:?}"), rle, f);
            check(&format!("{width} rle view, {f:?}"), rle.slice(3..2999), f);
        }
    }

    #[test]
    fn cell_histogram_equals_scalar_counts_at_every_width() {
        check_width::<Tuple8>("Tuple8");
        check_width::<Tuple16>("Tuple16");
        check_width::<Tuple32>("Tuple32");
        check_width::<Tuple64>("Tuple64");
    }

    #[test]
    fn cell_histogram_stays_exact_across_folds() {
        // One tuple per line at 64 B: more tuple lines than one fold
        // covers, so the counts cross at least one fold.
        let ks = keys::<u64>(FOLD_LINES + 3000, 40, 11, 5);
        let rows: Vec<Tuple64> = (ks.iter().enumerate())
            .map(|(i, &k)| Tuple64::new(k, i as u64))
            .collect();
        let rel = Relation::from_tuples(&rows);
        let input = Input::from(&rel);
        assert!(tuple_lines(&input) > FOLD_LINES);
        check("Tuple64 rows", input, PartitionFn::Radix { bits: 3 });
        // Eight tuples per line, columns expanded from keys.
        let ks = keys::<u32>(8 * FOLD_LINES + 1000, 1 << 20, 0, 6);
        let col = ColumnRelation::<Tuple8>::from_keys(&ks);
        let input = Input::from(&col);
        assert!(tuple_lines(&input) > FOLD_LINES);
        check("Tuple8 columns", input, PartitionFn::Murmur { bits: 6 });
    }
}
