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
//! HIST takes them from its histogram pass (⌊h/LANES⌋ full lines plus a
//! flush line of `h mod LANES` tuples per cell); PAD replays them with a
//! `u8` fill counter per cell and a line count per partition. The tuples
//! move through the CPU partitioner's [`Swwcb`] into the same
//! line-rounded extents. Differential tests
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
//! tuples, which is exactly what the equivalence tests assert. Per-cycle
//! observables (stall counters, FIFO high-water marks, the utilisation
//! timeline) are synthesized from the analytic model and are
//! approximations; fault injection always forces the cycle-accurate
//! engine (see [`FpgaPartitioner::set_fault_plan`]).
//!
//! [`FpgaPartitioner::set_fault_plan`]: crate::FpgaPartitioner::set_fault_plan

use std::ops::Range;

use fpart_cpu::swwcb::Swwcb;
use fpart_hash::PartitionFn;
use fpart_hwsim::{QpiConfig, QpiEndpoint, QpiStats};
use fpart_obs::{Ctr, Recorder};
use fpart_types::line::MAX_LANES;
use fpart_types::{FpartError, Input, PartitionedRelation, Result, SharedWriter, Tuple};

use crate::config::{OutputMode, PartitionerConfig};
use crate::partitioner::{build_pagetable, RunReport, TIMELINE_INTERVAL};
use crate::writeback::PartitionExtents;

/// Fixed circuit warm-up folded into the analytic cycle count: QPI read
/// latency is added separately; this covers the 5-stage hash pipeline,
/// the FIFO/combiner/write-back stage registers and the drain tail. The
/// differential tests bound the batched-vs-ticked gap, so the constant
/// only has to be representative, not exact.
const PIPELINE_SLACK: u64 = 48;

/// Result of the batched histogram pass.
pub(crate) struct BatchedHistogram {
    /// Per-(lane, partition) tuple counts, flattened as
    /// `lane_hists[lane * partitions + p]`.
    pub(crate) lane_hists: Vec<u64>,
    /// The combiners' forwarding-register hits (1-cycle, 2-cycle).
    forward_hits: (u64, u64),
    /// Analytic cycle count of the pass.
    pub(crate) cycles: u64,
    /// Link counters (reads; synthesized stalls).
    pub(crate) qpi_stats: QpiStats,
}

/// Count a write-combiner forwarding-register hit: `regs` holds the
/// partitions of the lane's last two tuples (1-cycle, 2-cycle) and the
/// lane now combines a tuple of partition `p`. This reproduces the
/// combiner's hit counters for an unstalled tuple stream (link stalls
/// insert bubbles the batched path does not model, so under backpressure
/// these counters are an upper bound).
#[inline]
fn forward(regs: &mut (usize, usize), hits: &mut (u64, u64), p: usize) {
    if p == regs.0 {
        hits.0 += 1;
    } else if p == regs.1 {
        hits.1 += 1;
    }
    *regs = (p, regs.0);
}

/// Input lines the batched PAD scatter walks between overflow checks.
const ABORT_BLOCK_LINES: usize = 1024;

/// Call `f(lane, tuple, partition)` for every real tuple of input lines
/// `lines`, in the order the circuit's hash lanes see them, with its
/// partition under `pf`, and return the number of tuple lines the
/// circuit generates.
#[inline]
fn for_each_tuple<T: Tuple>(
    input: &Input<'_, T>,
    lines: Range<usize>,
    pf: PartitionFn,
    mut f: impl FnMut(usize, T, usize),
) -> u64 {
    let mut tuple_lines = 0;
    let mut ids = [0; MAX_LANES];
    input.for_each_line(lines, |line| {
        tuple_lines += 1;
        pf.partition_line(line, &mut ids);
        for (lane, (&t, &p)) in line.iter().zip(&ids).enumerate() {
            if !t.is_dummy() {
                f(lane, t, p);
            }
        }
    });
    tuple_lines
}

/// Functional histogram pass: stream every input tuple once, count tuples
/// per (lane, partition) and forwarding hits, and derive the pass
/// duration analytically.
pub(crate) fn histogram_pass<T: Tuple>(
    cfg: &PartitionerConfig,
    qpi_cfg: &QpiConfig,
    input: &Input<'_, T>,
) -> BatchedHistogram {
    let parts = cfg.partitions();
    let total_lines = input.input_lines() as u64;
    let mut lane_hists = vec![0u64; T::LANES * parts];
    let mut regs = vec![(usize::MAX, usize::MAX); T::LANES];
    let mut forward_hits = (0, 0);
    let f = cfg.partition_fn;
    let tuple_lines = for_each_tuple(input, 0..input.input_lines(), f, |lane, _, p| {
        forward(&mut regs[lane], &mut forward_hits, p);
        lane_hists[lane * parts + p] += 1;
    });

    let mut ep = QpiEndpoint::new(qpi_cfg.clone());
    let link = ep.fast_forward(total_lines, 0);
    let circuit = circuit_bound(qpi_cfg, tuple_lines, 0);
    let cycles = link.max(circuit);
    let mut qpi_stats = ep.stats();
    // A read-only pass spends every link-bound cycle beyond the circuit
    // bound waiting on read credit.
    qpi_stats.read_stall_cycles = cycles.saturating_sub(circuit);

    BatchedHistogram {
        lane_hists,
        forward_hits,
        cycles,
        qpi_stats,
    }
}

/// The circuit-side duration of a pass that delivers `tuple_lines` tuple
/// lines and ends with a flush scan over `flush_scan` BRAM addresses
/// (0 for the histogram pass, `partitions × LANES` for the scatter).
fn circuit_bound(qpi_cfg: &QpiConfig, tuple_lines: u64, flush_scan: u64) -> u64 {
    qpi_cfg.read_latency as u64 + tuple_lines + flush_scan + PIPELINE_SLACK
}

/// The PAD abort of a partition of `capacity` slots.
fn overflow(partition: usize, capacity: usize, consumed: u64) -> FpartError {
    FpartError::PartitionOverflow {
        partition,
        capacity,
        consumed: consumed as usize,
    }
}

/// Run a full partitioning job on the batched fast path. Functionally
/// equivalent to [`FpgaPartitioner`]'s cycle-accurate engine (same
/// per-partition contents, counts, capacities, padding and overflow
/// behaviour), with analytically derived cycle counts.
///
/// [`FpgaPartitioner`]: crate::FpgaPartitioner
pub(crate) fn run_batched<T: Tuple>(
    cfg: &PartitionerConfig,
    qpi_cfg: &QpiConfig,
    input: &Input<'_, T>,
) -> Result<(PartitionedRelation<T>, RunReport)> {
    let parts = cfg.partitions();
    let lanes = T::LANES;
    let n = input.len();
    let total_lines = input.input_lines() as u64;
    let f = cfg.partition_fn;

    let mut pagetable = build_pagetable::<T>(input, parts, n, &cfg.output)?;

    // After the scatter `counts[p]` holds partition `p`'s full lines and
    // `fills[lane * parts + p]` each combiner cell's partial-line fill.
    let mut counts: Vec<u64> = vec![0; parts];
    let mut fills: Vec<u8> = vec![0; lanes * parts];
    let mut tuples_consumed = 0u64;
    // Extents: HIST sizes them from the histogram pass, PAD fixes them.
    let (extents, mut out, hist) = match cfg.output {
        OutputMode::Hist => {
            let pass = histogram_pass(cfg, qpi_cfg, input);
            // Every line count follows from the histogram.
            let mut valid = vec![0; parts];
            for (cell, &h) in pass.lane_hists.iter().enumerate() {
                valid[cell % parts] += h as usize;
                counts[cell % parts] += h / lanes as u64;
                fills[cell] = (h % lanes as u64) as u8;
                tuples_consumed += h;
            }
            let lane_hists: Vec<&[u64]> = pass.lane_hists.chunks_exact(parts).collect();
            let extents = PartitionExtents::from_lane_histograms(&lane_hists, lanes);
            let lines: Vec<usize> = extents.capacity_lines.iter().map(|&l| l as usize).collect();
            let out = PartitionedRelation::<T>::with_line_extents(&valid, &lines);
            (extents, out, Some(pass))
        }
        OutputMode::Pad { padding } => {
            let cap_lines = padding.capacity(n, parts, lanes).div_ceil(lanes) as u64;
            let out = PartitionedRelation::<T>::padded(parts, cap_lines as usize * lanes, true);
            (PartitionExtents::fixed(parts, cap_lines), out, None)
        }
    };

    // Scatter through the SWWCB.
    let w = SharedWriter::new(&mut out);
    let bases = extents.base_lines.iter().map(|&b| b as usize * lanes);
    let mut wc = Swwcb::new(bases.collect());
    let mut forward_hits = hist.as_ref().map_or((0, 0), |h| h.forward_hits);
    let tuple_lines = if hist.is_some() {
        for_each_tuple(input, 0..input.input_lines(), f, |_, t, p| {
            // SAFETY: single writer; each partition receives exactly its
            // histogram count, which its extent holds.
            unsafe { wc.push(p, t, &w) };
        })
    } else {
        let cap_lines = extents.capacity_lines[0];
        let cap = cap_lines as usize * lanes;
        let mut regs = vec![(usize::MAX, usize::MAX); lanes];
        // The first full line past a partition's capacity aborts the run.
        // The input is walked in blocks so that an aborted run stops
        // reading within one block of the overflow, as the circuit does.
        let (mut aborted, mut tuple_lines) = (None, 0);
        let input_lines = input.input_lines();
        for first in (0..input_lines).step_by(ABORT_BLOCK_LINES) {
            let block = first..(first + ABORT_BLOCK_LINES).min(input_lines);
            tuple_lines += for_each_tuple(input, block, f, |lane, t, p| {
                if aborted.is_some() {
                    return;
                }
                tuples_consumed += 1;
                forward(&mut regs[lane], &mut forward_hits, p);
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
                // A partition that will overflow stops receiving data at its
                // capacity; the run aborts before it completes.
                if wc.count(p) < cap {
                    // SAFETY: single writer; partition `p` writes only
                    // `p * cap .. (p + 1) * cap`.
                    unsafe { wc.push(p, t, &w) };
                }
            });
            if let Some(e) = aborted {
                return Err(e);
            }
        }
        tuple_lines
    };
    // SAFETY: as above.
    unsafe { wc.drain(&w) };
    let (hist_cycles, hist_stats) =
        hist.map_or((0, QpiStats::default()), |h| (h.cycles, h.qpi_stats));

    // Flush: every non-empty combiner cell emits one line, padded with the
    // dummies the extents were allocated with, partition-major /
    // lane-minor (the ticked flush scan's PAD overflow order).
    let mut padding_slots = 0u64;
    let mut flush_lines = 0u64;
    for p in 0..parts {
        let mut valid = counts[p] * lanes as u64;
        for lane in 0..lanes {
            let fill = fills[lane * parts + p] as u64;
            if fill == 0 {
                continue;
            }
            if counts[p] == extents.capacity_lines[p] {
                let cap = extents.capacity_lines[p] as usize * lanes;
                return Err(overflow(p, cap, tuples_consumed));
            }
            counts[p] += 1;
            valid += fill;
            padding_slots += lanes as u64 - fill;
            flush_lines += 1;
        }
        out.set_partition_fill(p, counts[p] as usize * lanes, valid as usize);
    }
    let lines_written: u64 = counts.iter().sum();

    // Address translations: one per input line read and one per output
    // line written (the ticked engine re-translates reads denied by the
    // token bucket, so its count is timing-dependent and strictly ≥ this),
    // looked up once per 4 MB page.
    pagetable.translate_lines(0, total_lines)?;
    for (&count, &base) in counts.iter().zip(&extents.base_lines) {
        pagetable.translate_lines(total_lines + base, count)?;
    }

    // Analytic scatter duration: the slower of the circuit and the link.
    let mut ep = QpiEndpoint::new(qpi_cfg.clone());
    let link = ep.fast_forward(total_lines, lines_written);
    let flush_scan = (parts * lanes) as u64;
    let circuit = circuit_bound(qpi_cfg, tuple_lines, flush_scan);
    let scatter_cycles = link.max(circuit);
    let mut scatter_stats = ep.stats();
    // Synthesized stalls: every link-bound cycle beyond the circuit bound
    // is a denied grant, split by traffic share.
    let stall = scatter_cycles.saturating_sub(circuit);
    let rd_stall = (stall * total_lines)
        .checked_div(total_lines + lines_written)
        .unwrap_or(0);
    let wr_stall = stall - rd_stall;
    scatter_stats.read_stall_cycles = rd_stall;
    scatter_stats.write_stall_cycles = wr_stall;

    // Synthesized utilisation timeline: linear ramp (steady state has no
    // warm-up/flush articulation at this fidelity).
    let timeline = (TIMELINE_INTERVAL..=scatter_cycles)
        .step_by(TIMELINE_INTERVAL as usize)
        .map(|c| {
            let frac = c as f64 / scatter_cycles as f64;
            let at = |total: u64| (total as f64 * frac) as u64;
            (c, at(total_lines), at(lines_written))
        })
        .collect();

    let mut qpi = scatter_stats;
    qpi.accumulate(&hist_stats);

    // Synthesize the observability snapshot from the same analytic model,
    // mirroring the cycle-accurate engine's end-of-run totals so the
    // conservation laws (and the fastpath-equivalence counter pins) hold
    // on both paths.
    let mut rec = Recorder::new(cfg.obs);
    rec.set(Ctr::Lanes, lanes as u64);
    rec.set(Ctr::Partitions, parts as u64);
    rec.set(Ctr::TuplesIn, n as u64);
    rec.set(Ctr::TuplesOut, out.total_valid() as u64);
    rec.set(Ctr::PaddingSlots, padding_slots);
    rec.set(Ctr::InputLines, total_lines);
    rec.set(Ctr::TupleLines, tuple_lines);
    rec.set(Ctr::LinesWritten, lines_written);
    rec.set(Ctr::HistLinesRead, hist_stats.lines_read);
    rec.set(Ctr::HistCycles, hist_cycles);
    rec.set(Ctr::ScatterCycles, scatter_cycles);
    // Port classification: grants and synthesized stalls, remainder idle
    // (the batched model has no FIFO-credit throttling).
    rec.set(Ctr::RdBusy, total_lines);
    rec.set(Ctr::RdStall, rd_stall);
    rec.set(Ctr::RdIdle, scatter_cycles - total_lines - rd_stall);
    rec.set(Ctr::WrBusy, lines_written);
    rec.set(Ctr::WrStall, wr_stall);
    rec.set(Ctr::WrIdle, scatter_cycles - lines_written - wr_stall);
    rec.set(Ctr::HistRdBusy, hist_stats.lines_read);
    rec.set(Ctr::HistRdStall, hist_stats.read_stall_cycles);
    rec.set(
        Ctr::HistRdIdle,
        hist_cycles - hist_stats.lines_read - hist_stats.read_stall_cycles,
    );
    rec.set(Ctr::RrIdleCycles, scatter_cycles - lines_written);
    rec.set(Ctr::CombTuplesIn, tuples_consumed);
    rec.set(Ctr::CombLinesOut, lines_written - flush_lines);
    rec.set(Ctr::CombFlushLines, flush_lines);
    rec.set(Ctr::CombFlushDummies, padding_slots);
    rec.set(Ctr::Fwd1dHits, forward_hits.0);
    rec.set(Ctr::Fwd2dHits, forward_hits.1);
    rec.set(Ctr::WbLinesEmitted, lines_written);
    // One fill-rate read+write per combined tuple, one extra write per
    // flushed partial line; one count read+write per emitted line —
    // exactly what the ticked BRAMs tally.
    rec.set(Ctr::FillBramReads, tuples_consumed);
    rec.set(Ctr::FillBramWrites, tuples_consumed + flush_lines);
    rec.set(Ctr::CountBramReads, lines_written);
    rec.set(Ctr::CountBramWrites, lines_written);
    rec.set(Ctr::EpCacheHits, 0);
    rec.set(Ctr::EpCacheMisses, total_lines);
    qpi.record_into(&mut rec.counters);
    pagetable.record_into(&mut rec.counters);

    let report = RunReport {
        mode: cfg.mode_label(),
        tuples: n as u64,
        hist_cycles,
        scatter_cycles,
        clock_hz: qpi_cfg.clock_hz,
        qpi,
        padding_slots,
        lane_fifo_high_water: 0,
        forward_hits,
        translations: pagetable.translations(),
        pt_retries: pagetable.retries_total(),
        timeline,
        // Streaming reads of distinct addresses: every access is a
        // compulsory miss in the 128 KB endpoint cache (Section 2.2).
        endpoint_cache: (0, total_lines),
        obs: rec.finish(),
    };
    Ok((out, report))
}
