//! The top-level partitioner (Figure 5) and its cycle-accurate driver.
//!
//! Data path per clock cycle, upstream to downstream:
//!
//! ```text
//! QPI reads ──▶ hash function modules (one per lane, 5-stage pipes)
//!           ──▶ first-stage FIFOs (their free slots throttle reads, §4.3)
//!           ──▶ write combiners (one per lane, Code 4)
//!           ──▶ combiner output FIFOs
//!           ──▶ write back (round-robin, base/count BRAMs)
//!           ──▶ last-stage FIFO ──▶ QPI writes
//! ```
//!
//! The driver evaluates the stages drain-first each cycle, which gives
//! register-transfer semantics: what a stage consumes this cycle is what
//! its upstream produced in earlier cycles. The QPI endpoint's token
//! bucket (calibrated on Figure 2) provides the only stalls; with an
//! unlimited endpoint the circuit moves exactly one line per cycle, which
//! the test-suite asserts — the paper's headline "fully pipelined, no
//! internal stalls" property.

use std::collections::VecDeque;

use fpart_hash::PartitionFn;
use fpart_hwsim::{
    BramKind, FaultInjector, FaultPlan, Fifo, PageAllocator, PageTable, PassId, QpiConfig,
    QpiEndpoint, QpiStats,
};
use fpart_obs::{Ctr, ObsSnapshot, Recorder};
use fpart_types::{FpartError, Input, Line, PartitionedRelation, Result, Tuple, CACHE_LINE_BYTES};

use crate::config::{
    InputMode, OutputMode, PartitionerConfig, SimFidelity, FIFO_CAPACITY, OUT_FIFO_CAPACITY,
};
use crate::hashmod::HashPipeline;
use crate::writeback::{overflow, AddressedLine, PartitionExtents, WriteBack};
use crate::writecomb::{CombinedLine, CombinerStats, WriteCombiner};

/// The simulated FPGA partitioner.
///
/// # Examples
///
/// ```
/// use fpart_fpga::{FpgaPartitioner, InputMode, OutputMode, PartitionerConfig};
/// use fpart_hash::PartitionFn;
/// use fpart_types::{Relation, Tuple8};
///
/// let config = PartitionerConfig {
///     partition_fn: PartitionFn::Murmur { bits: 5 },
///     ..PartitionerConfig::paper_default(OutputMode::Hist, InputMode::Rid)
/// };
/// let keys: Vec<u32> = (0..4096).map(|i| i * 7 + 1).collect();
/// let rel = Relation::<Tuple8>::from_keys(&keys);
///
/// let (parts, report) = FpgaPartitioner::new(config).partition(&rel)?;
/// assert_eq!(parts.total_valid(), 4096);
/// // HIST mode ran two passes over the 512 input lines.
/// assert!(report.qpi.lines_read >= 1024);
/// println!("{:.0} Mtuples/s simulated", report.mtuples_per_sec());
/// # Ok::<(), fpart_types::FpartError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FpgaPartitioner {
    config: PartitionerConfig,
    qpi: QpiConfig,
    faults: Option<FaultInjector>,
}

/// Everything a partitioning run reports: its mode, size, per-pass
/// cycles, clock and link statistics, and the observability snapshot.
/// The snapshot is the one store of the run's counts: forwarding hits
/// (`fwd_1d_hits`, `fwd_2d_hits`), page-table retries
/// (`pt_retries_total`), endpoint-cache hits and misses and the rest are
/// read with [`ObsSnapshot::get`]. Both fidelities build their report in
/// one function, which copies `padding_slots` and `translations` from
/// their counters, so neither can disagree with the snapshot.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Mode label, e.g. "HIST/RID".
    pub mode: String,
    /// Real (non-dummy) tuples partitioned.
    pub tuples: u64,
    /// Cycles spent in the histogram pass (0 in PAD mode).
    pub hist_cycles: u64,
    /// Cycles spent in the scatter pass including the flush.
    pub scatter_cycles: u64,
    /// FPGA clock this run was timed at (Hz).
    pub clock_hz: f64,
    /// QPI statistics summed over both passes.
    pub qpi: QpiStats,
    /// Dummy tuple slots written by the flush: the snapshot's
    /// [`Ctr::PaddingSlots`].
    pub padding_slots: u64,
    /// Page-table translations performed: the snapshot's
    /// [`Ctr::PtTranslations`].
    pub translations: u64,
    /// Observability snapshot: always present — end-of-run totals are
    /// published even at [`fpart_obs::ObsLevel::Off`], so the
    /// `fpart_obs::asserts` conservation laws can run on every report.
    /// Per-cycle port classification and traces require the config's
    /// `obs` level to be raised.
    pub obs: ObsSnapshot,
}

/// Cycles between the cycle-accurate scatter pass's `scatter/interval`
/// trace events, each carrying the lines read plus written so far — the
/// link utilisation over the run (warm-up, steady state, flush).
pub const TIMELINE_INTERVAL: u64 = 4096;

/// One pass's length and link statistics.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PassTotals {
    pub(crate) cycles: u64,
    pub(crate) qpi: QpiStats,
}

/// A finished run's end-of-run totals, as either fidelity measures them:
/// what [`RunReport::publish`] turns into the counter set.
pub(crate) struct RunTotals {
    pub(crate) tuples_in: u64,
    /// Valid tuples written to the partitions.
    pub(crate) tuples_out: u64,
    pub(crate) input_lines: u64,
    /// Expanded tuple lines entering the lane pipes.
    pub(crate) tuple_lines: u64,
    pub(crate) lines_written: u64,
    pub(crate) hist: PassTotals,
    pub(crate) scatter: PassTotals,
    /// The write combiners' counts, summed over the lanes.
    pub(crate) combiners: CombinerStats,
    /// Endpoint-cache hits and misses of the scatter pass's reads.
    pub(crate) ep_cache: (u64, u64),
    /// Whether the recorder classified the ports cycle by cycle; if not,
    /// [`RunReport::publish`] synthesizes the classification.
    pub(crate) ports_counted: bool,
}

impl RunReport {
    /// Total cycles across phases.
    pub fn total_cycles(&self) -> u64 {
        self.hist_cycles + self.scatter_cycles
    }

    /// Wall-clock seconds at the configured FPGA clock.
    pub fn seconds(&self) -> f64 {
        self.total_cycles() as f64 / self.clock_hz
    }

    /// End-to-end throughput in million tuples per second — the Figure 8
    /// and Figure 9 metric.
    pub fn mtuples_per_sec(&self) -> f64 {
        self.tuples as f64 / self.seconds() / 1e6
    }

    /// Total data moved over the link in GB/s — the second Figure 8 axis.
    pub fn link_gbps(&self) -> f64 {
        self.qpi.total_bytes() as f64 / self.seconds() / 1e9
    }

    /// Link line-operations (both passes' reads and writes) per cycle of
    /// the whole run, [`RunReport::total_cycles`]. The circuit's ceiling
    /// is 2.0 (one line in and one out per clock); on the HARP link the
    /// QPI token bucket caps it well below.
    pub fn lines_per_cycle(&self) -> f64 {
        if self.total_cycles() == 0 {
            return 0.0;
        }
        (self.qpi.lines_read + self.qpi.lines_written) as f64 / self.total_cycles() as f64
    }

    /// Publish a finished run's totals `t` and page-table counts into
    /// `rec` and freeze it into the run's report: the one place either
    /// fidelity builds a `RunReport`. What differs between the fidelities
    /// (the BRAM tallies, the per-cycle counters) is in `rec` already.
    pub(crate) fn publish<T: Tuple>(
        cfg: &PartitionerConfig,
        clock_hz: f64,
        t: &RunTotals,
        pagetable: &PageTable,
        mut rec: Recorder,
    ) -> RunReport {
        let (hist, scatter, comb) = (&t.hist, &t.scatter, &t.combiners);
        for (ctr, v) in [
            (Ctr::Lanes, T::LANES as u64),
            (Ctr::Partitions, cfg.partitions() as u64),
            (Ctr::TuplesIn, t.tuples_in),
            (Ctr::TuplesOut, t.tuples_out),
            (Ctr::InputLines, t.input_lines),
            (Ctr::TupleLines, t.tuple_lines),
            (Ctr::LinesWritten, t.lines_written),
            (Ctr::HistLinesRead, hist.qpi.lines_read),
            (Ctr::HistCycles, hist.cycles),
            (Ctr::ScatterCycles, scatter.cycles),
            (Ctr::CombTuplesIn, comb.tuples_in),
            (Ctr::CombLinesOut, comb.lines_out),
            (Ctr::CombFlushLines, comb.flush_lines),
            (Ctr::CombFlushDummies, comb.flush_dummies),
            (Ctr::PaddingSlots, comb.flush_dummies),
            (Ctr::Fwd1dHits, comb.forward_1d_hits),
            (Ctr::Fwd2dHits, comb.forward_2d_hits),
            (Ctr::EpCacheHits, t.ep_cache.0),
            (Ctr::EpCacheMisses, t.ep_cache.1),
        ] {
            rec.set(ctr, v);
        }
        if !t.ports_counted {
            // Port synthesis: one grant per line, one stall per endpoint
            // denial (credit or replay window), the rest idle. Scatter
            // replay stalls go to the read port up to its idle headroom,
            // the remainder to the write port; the per-cycle attempts
            // argument keeps every port within its pass's cycles.
            let (h, s) = (&hist.qpi, &scatter.qpi);
            let hist_stall = h.read_stall_cycles + h.replay_stall_cycles;
            let rd_headroom = scatter.cycles - s.lines_read - s.read_stall_cycles;
            let rd_replay = s.replay_stall_cycles.min(rd_headroom);
            let wr_stall = s.write_stall_cycles + s.replay_stall_cycles - rd_replay;
            for (ctr, v) in [
                (Ctr::HistRdBusy, h.lines_read),
                (Ctr::HistRdStall, hist_stall),
                (Ctr::HistRdIdle, hist.cycles - h.lines_read - hist_stall),
                (Ctr::RdBusy, s.lines_read),
                (Ctr::RdStall, s.read_stall_cycles + rd_replay),
                (Ctr::RdIdle, rd_headroom - rd_replay),
                (Ctr::WrBusy, s.lines_written),
                (Ctr::WrStall, wr_stall),
                (Ctr::WrIdle, scatter.cycles - s.lines_written - wr_stall),
                (
                    Ctr::RrIdleCycles,
                    scatter.cycles - comb.lines_out - comb.flush_lines,
                ),
            ] {
                rec.set(ctr, v);
            }
        }
        let mut qpi = scatter.qpi;
        qpi.accumulate(&hist.qpi);
        qpi.record_into(&mut rec.counters);
        pagetable.record_into(&mut rec.counters);
        let obs = rec.finish();
        RunReport {
            mode: cfg.mode_label(),
            tuples: t.tuples_in,
            hist_cycles: hist.cycles,
            scatter_cycles: scatter.cycles,
            clock_hz,
            qpi,
            padding_slots: obs.get(Ctr::PaddingSlots),
            translations: obs.get(Ctr::PtTranslations),
            obs,
        }
    }
}

impl FpgaPartitioner {
    /// A partitioner on the HARP v1 QPI link (Figure 2 FPGA-alone curve).
    pub fn new(config: PartitionerConfig) -> Self {
        let curve = fpart_memmodel::BandwidthCurve::fpga_alone();
        Self {
            config,
            qpi: QpiConfig::harp(curve),
            faults: None,
        }
    }

    /// A partitioner with the paper-default configuration for the given
    /// partition function and (output, input) modes — the common case
    /// when callers do not need to tweak the padded capacity.
    pub fn with_modes(partition_fn: PartitionFn, output: OutputMode, input: InputMode) -> Self {
        Self::new(PartitionerConfig {
            partition_fn,
            ..PartitionerConfig::paper_default(output, input)
        })
    }

    /// A partitioner with an explicit QPI model — e.g. the raw 25.6 GB/s
    /// wrapper of Section 4.7, or [`QpiConfig::unlimited`] for stall-free
    /// verification.
    pub fn with_qpi(config: PartitionerConfig, qpi: QpiConfig) -> Self {
        Self {
            config,
            qpi,
            faults: None,
        }
    }

    /// Arm a fault plan (builder style): every subsequent run injects the
    /// plan's faults at their scheduled points, at either fidelity. An
    /// empty plan disarms.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = (!plan.is_empty()).then(|| FaultInjector::new(plan));
        self
    }

    /// The configuration.
    pub fn config(&self) -> &PartitionerConfig {
        &self.config
    }

    /// A clone of this partitioner with a different output mode — the QPI
    /// model and any armed fault plan carry over. Escalation chains use
    /// this to retry an aborted PAD run in HIST mode (Section 5.4).
    pub fn with_output_mode(&self, output: OutputMode) -> Self {
        let mut p = self.clone();
        p.config.output = output;
        p
    }

    /// Partition a row store (RID mode), or a column store, plain or
    /// run-length encoded (VRID mode: only the key column is read, and
    /// tuples carry `(key, position)`). An encoded column is read as its
    /// packed runs — often a fraction of the raw key column — and
    /// decompressed on chip, "for free … as the first step of a
    /// processing pipeline" (Discussion).
    ///
    /// # Errors
    /// [`FpartError::InvalidConfig`] if the input's layout does not match
    /// the configured [`InputMode`]. [`FpartError::PartitionOverflow`] in
    /// PAD mode under skew — the caller is expected to fall back to HIST
    /// mode or a CPU partitioner.
    pub fn partition<'a, T: Tuple>(
        &self,
        input: impl Into<Input<'a, T>>,
    ) -> Result<(PartitionedRelation<T>, RunReport)> {
        let input = input.into();
        self.config.validate()?;
        let mode = InputMode::of(&input);
        if mode != self.config.input {
            return Err(FpartError::InvalidConfig(format!(
                "the input needs {} mode, the partitioner is configured for {}",
                mode.label(),
                self.config.input.label()
            )));
        }
        self.run(&input)
    }

    /// Run only the histogram pass: stream the input read-only and
    /// return the per-partition tuple counts plus the cycles the pass
    /// took — "histograms as a side effect of data movement" (Istvan et
    /// al., cited in the paper's Discussion). Useful on its own for
    /// optimizer statistics and as the planning input for PAD sizing.
    pub fn histogram_only<'a, T: Tuple>(
        &self,
        input: impl Into<Input<'a, T>>,
    ) -> Result<(Vec<u64>, u64)> {
        self.config.validate()?;
        let input = input.into();
        let parts = self.config.partitions();
        let faults = self.faults.as_ref();
        if self.config.fidelity == SimFidelity::Batched {
            let pass = crate::fastpath::histogram_pass(&self.config, &self.qpi, &input, faults)?;
            return Ok((pass.totals, pass.pass.cycles));
        }
        let mut rec = Recorder::new(self.config.obs);
        let pass = HistogramPass::run::<T>(&self.config, &self.qpi, &input, faults, &mut rec)?;
        let hist = (0..parts)
            .map(|p| pass.lane_hists.iter().map(|h| h[p]).sum())
            .collect();
        Ok((hist, pass.totals.cycles))
    }

    fn run<T: Tuple>(&self, input: &Input<'_, T>) -> Result<(PartitionedRelation<T>, RunReport)> {
        let faults = self.faults.as_ref();
        if self.config.fidelity == SimFidelity::Batched {
            return crate::fastpath::run_batched(&self.config, &self.qpi, input, faults);
        }
        let parts = self.config.partitions();
        let n = input.len();
        let mut rec = Recorder::new(self.config.obs);

        // Phase 1 (HIST only): build per-lane histograms.
        let (extents, hist, valid_hint) = match self.config.output {
            OutputMode::Hist => {
                let pass =
                    HistogramPass::run::<T>(&self.config, &self.qpi, input, faults, &mut rec)?;
                let valid: Vec<usize> = (0..parts)
                    .map(|p| pass.lane_hists.iter().map(|h| h[p] as usize).sum())
                    .collect();
                // Every write combiner flushes its own partial line.
                let lines = (0..parts)
                    .map(|p| {
                        let lanes = T::LANES as u64;
                        pass.lane_hists.iter().map(|h| h[p].div_ceil(lanes)).sum()
                    })
                    .collect();
                (
                    PartitionExtents::from_lines(lines),
                    pass.totals,
                    Some(valid),
                )
            }
            OutputMode::Pad { padding } => {
                let extents = PartitionExtents::padded(padding, n, parts, T::LANES);
                (extents, PassTotals::default(), None)
            }
        };
        let mut pagetable = build_pagetable(input.input_lines(), &extents, faults)?;

        // Allocate the output region.
        let mut out = match (&valid_hint, &self.config.output) {
            (Some(valid), _) => {
                let lines: Vec<usize> =
                    extents.capacity_lines.iter().map(|&l| l as usize).collect();
                PartitionedRelation::<T>::with_line_extents(valid, &lines)
            }
            (None, OutputMode::Pad { .. }) => PartitionedRelation::<T>::padded(
                parts,
                extents.capacity_lines[0] as usize * T::LANES,
                true,
            ),
            (None, OutputMode::Hist) => unreachable!("HIST always produces a histogram"),
        };

        // Phase 2: scatter.
        let mut engine = ScatterEngine::<T>::new(
            &self.config,
            endpoint(&self.qpi, faults, PassId::Scatter),
            extents,
            input,
            faults,
        );
        let totals = RunTotals {
            hist,
            ..engine.run(&mut out, &mut pagetable, &mut rec)?
        };
        let report =
            RunReport::publish::<T>(&self.config, self.qpi.clock_hz, &totals, &pagetable, rec);
        Ok((out, report))
    }
}

/// Construct the page table mapping the virtual regions the run
/// touches: `input_lines` input lines, then the output's `extents` line
/// for line, with the plan's translation transients armed.
pub(crate) fn build_pagetable(
    input_lines: usize,
    extents: &PartitionExtents,
    faults: Option<&FaultInjector>,
) -> Result<PageTable> {
    let lines = input_lines as u64 + extents.total_lines();
    let pages = PageTable::pages_for(lines * CACHE_LINE_BYTES as u64);
    let mut alloc = PageAllocator::new((pages as u64 + 2) * fpart_hwsim::PAGE_BYTES);
    let frames = alloc.allocate(pages)?;
    let mut pt = PageTable::new(pages);
    pt.populate(&frames)?;
    if let Some(inj) = faults {
        pt.inject_transients(inj.pagetable_schedule());
    }
    Ok(pt)
}

/// The scatter aborts a fault plan injects as the tuples leave the hash
/// pipes, where the lanes run in lockstep, so that both fidelities meet
/// them in input order. The write combiners read their fill-rate entry
/// for every tuple, so a flipped entry trips the parity checker at its
/// partition's first tuple; an injected PAD overflow forces the counter
/// of the partition of the tuple after the chosen number over capacity.
pub(crate) struct TupleAborts {
    /// The partitions whose fill-rate entry is flipped.
    flips: Vec<usize>,
    /// The injected overflow's point and the PAD capacity it reports.
    overflow: Option<(u64, usize)>,
}

impl TupleAborts {
    /// The aborts `inj` injects over `parts` partitions, if any;
    /// `pad_capacity` is the PAD extent in tuples, `None` in HIST mode.
    pub(crate) fn new(
        inj: &FaultInjector,
        parts: usize,
        pad_capacity: Option<usize>,
    ) -> Option<Self> {
        let flips = inj.bram_flips(BramKind::FillRate).into_iter();
        let flips: Vec<usize> = flips.map(|addr| addr % parts).collect();
        let overflow = inj.pad_overflow_at().zip(pad_capacity);
        (!flips.is_empty() || overflow.is_some()).then_some(Self { flips, overflow })
    }

    /// The abort at the real tuple `index` (in input order), of partition
    /// `p`, if any.
    pub(crate) fn at(&self, index: u64, p: usize) -> Option<FpartError> {
        if self.flips.contains(&p) {
            return Some(FpartError::BramSoftError {
                bram: "fill-rate",
                addr: p,
            });
        }
        let (at, capacity) = self.overflow?;
        (at == index).then(|| overflow(p, capacity, at))
    }
}

/// A pass's endpoint, armed with the plan's link transients for `pass`.
pub(crate) fn endpoint(
    qpi_cfg: &QpiConfig,
    faults: Option<&FaultInjector>,
    pass: PassId,
) -> QpiEndpoint {
    let mut ep = QpiEndpoint::new(qpi_cfg.clone());
    if let Some(inj) = faults {
        ep.inject_faults(inj.qpi_schedule(pass));
    }
    ep
}

/// The histogram BRAM's soft error, if the plan schedules one: the pass
/// reads the BRAM back out at its end (to compute the prefix sums), and
/// the first flipped address, modulo the BRAM size, trips the parity
/// checker there.
pub(crate) fn histogram_flip(faults: Option<&FaultInjector>, parts: usize) -> Result<()> {
    match faults.and_then(|inj| inj.bram_flips(BramKind::Histogram).first().copied()) {
        Some(addr) => Err(FpartError::BramSoftError {
            bram: "histogram",
            addr: addr % parts.max(1),
        }),
        None => Ok(()),
    }
}

/// Result of the histogram pass.
struct HistogramPass {
    lane_hists: Vec<Vec<u64>>,
    totals: PassTotals,
}

impl HistogramPass {
    /// Stream the input read-only, counting tuples per (lane, partition)
    /// through the hash pipelines. No data is written back (Section 4.5:
    /// "During the first pass, no data is written back, and the histogram
    /// is built using an internal BRAM").
    ///
    /// # Errors
    /// Under fault injection: [`FpartError::LinkRetryExhausted`] when a
    /// scheduled QPI burst outlasts the replay budget, and
    /// [`FpartError::BramSoftError`] when a histogram-BRAM soft error is
    /// detected as the pass reads the counts back out.
    fn run<T: Tuple>(
        cfg: &PartitionerConfig,
        qpi_cfg: &QpiConfig,
        input: &Input<'_, T>,
        injector: Option<&FaultInjector>,
        rec: &mut Recorder,
    ) -> Result<Self> {
        let parts = cfg.partitions();
        let mut qpi = endpoint(qpi_cfg, injector, PassId::Histogram);
        let mut pipes: Vec<HashPipeline<T>> = (0..T::LANES)
            .map(|_| HashPipeline::new(cfg.partition_fn))
            .collect();
        let mut lane_hists = vec![vec![0u64; parts]; T::LANES];

        let total_lines = input.input_lines();
        let expansion = input.expansion();
        let mut read_cursor = 0usize;
        // The tuple lines the read responses deliver and the hash pipes
        // consume, sized so the pass allocates nothing after setup.
        let mut pending: VecDeque<Line<T>> = VecDeque::with_capacity(expansion * 8);
        let mut cycles = 0u64;

        loop {
            let pipes_busy = pipes.iter().any(|p| !p.is_empty());
            if read_cursor >= total_lines
                && qpi.reads_in_flight() == 0
                && pending.is_empty()
                && !pipes_busy
            {
                break;
            }
            cycles += 1;
            qpi.tick();
            if let Some(err) = qpi.hard_fault() {
                return Err(err);
            }

            // Deliver one tuple line into the hash pipes.
            let line = pending.pop_front();
            for (lane, pipe) in pipes.iter_mut().enumerate() {
                let tuple = line.as_ref().map(|l| l.lane(lane));
                if let Some(out) = pipe.clock(tuple.filter(|t| !t.is_dummy())) {
                    lane_hists[lane][out.hash] += 1;
                }
            }

            // Accept one read response.
            if let Some(tag) = qpi.pop_ready_read() {
                let line = tag as usize..tag as usize + 1;
                input.for_each_line(line, |l| pending.push_back(Line::from_partial(l)));
            }

            // Issue a new request while the in-flight window has room,
            // classifying the read port for the stall-accounting laws:
            // every cycle is exactly one of busy/stall/throttled/idle.
            let committed = pending.len() + qpi.reads_in_flight() * expansion;
            if read_cursor < total_lines {
                if committed + expansion <= FIFO_CAPACITY {
                    if qpi.try_read(read_cursor as u64) {
                        read_cursor += 1;
                        rec.inc(Ctr::HistRdBusy);
                    } else {
                        rec.inc(Ctr::HistRdStall);
                    }
                } else {
                    rec.inc(Ctr::HistRdThrottled);
                }
            } else {
                rec.inc(Ctr::HistRdIdle);
            }
        }

        histogram_flip(injector, parts)?;

        let qpi = qpi.stats();
        rec.event(cycles, "hist", "pass_end", qpi.lines_read);
        Ok(Self {
            lane_hists,
            totals: PassTotals { cycles, qpi },
        })
    }
}

/// The full-pipeline engine of Figure 5.
struct ScatterEngine<'a, T: Tuple> {
    qpi: QpiEndpoint,
    pipes: Vec<HashPipeline<T>>,
    lane_fifos: Vec<Fifo<crate::hashmod::HashedTuple<T>>>,
    combiners: Vec<WriteCombiner<T>>,
    out_fifos: Vec<Fifo<CombinedLine<T>>>,
    writeback: WriteBack<T>,
    wb_fifo: Fifo<AddressedLine<T>>,
    input: &'a Input<'a, T>,
    /// Virtual line index where the output region starts (input region
    /// precedes it).
    out_base_line: u64,
    /// The QPI endpoint's 128 KB two-way cache (Section 2.1), checked on
    /// every read the engine issues.
    endpoint_cache: fpart_hwsim::SetAssociativeCache,
    /// The aborts an armed fault plan injects.
    aborts: Option<TupleAborts>,
}

impl<'a, T: Tuple> ScatterEngine<'a, T> {
    fn new(
        cfg: &PartitionerConfig,
        qpi: QpiEndpoint,
        extents: PartitionExtents,
        input: &'a Input<'a, T>,
        injector: Option<&FaultInjector>,
    ) -> Self {
        let pad_mode = matches!(cfg.output, OutputMode::Pad { .. });
        let pad_capacity = pad_mode.then(|| extents.capacity_lines[0] as usize * T::LANES);
        Self {
            qpi,
            pipes: (0..T::LANES)
                .map(|_| HashPipeline::new(cfg.partition_fn))
                .collect(),
            lane_fifos: (0..T::LANES).map(|_| Fifo::new(FIFO_CAPACITY)).collect(),
            combiners: (0..T::LANES)
                .map(|_| WriteCombiner::new(cfg.partitions()))
                .collect(),
            out_fifos: (0..T::LANES)
                .map(|_| Fifo::new(OUT_FIFO_CAPACITY))
                .collect(),
            writeback: WriteBack::new(extents, T::LANES, pad_mode),
            wb_fifo: Fifo::new(8),
            out_base_line: input.input_lines() as u64,
            input,
            endpoint_cache: fpart_hwsim::SetAssociativeCache::harp_endpoint_cache(),
            aborts: injector.and_then(|inj| TupleAborts::new(inj, cfg.partitions(), pad_capacity)),
        }
    }

    fn run(
        &mut self,
        out: &mut PartitionedRelation<T>,
        pagetable: &mut PageTable,
        rec: &mut Recorder,
    ) -> Result<RunTotals> {
        let total_lines = self.input.input_lines();
        let expansion = self.input.expansion();
        let mut read_cursor = 0usize;
        // The tuple lines the read responses deliver and the hash pipes
        // consume, sized so the pass allocates nothing after setup.
        let mut pending: VecDeque<Line<T>> = VecDeque::with_capacity(expansion * 8);
        let mut cycles = 0u64;
        let mut flushing = false;
        let mut lines_written: Vec<u64> = vec![0; out.num_partitions()];
        let mut valid_written: Vec<u64> = vec![0; out.num_partitions()];
        let mut tuple_lines = 0u64;
        // Tuples out of the hash pipes, which run in lockstep: lane by
        // lane, they leave in input order.
        let mut hashed = 0u64;

        loop {
            cycles += 1;
            self.qpi.tick();
            if let Some(err) = self.qpi.hard_fault() {
                return Err(err);
            }
            if cycles.is_multiple_of(TIMELINE_INTERVAL) {
                let s = self.qpi.stats();
                rec.event(
                    cycles,
                    "scatter",
                    "interval",
                    s.lines_read + s.lines_written,
                );
            }

            // (1) QPI write issue: commit the oldest addressed line. The
            // port classifies every cycle as exactly one of busy (grant),
            // stall (endpoint denial) or idle (nothing to write).
            if self.wb_fifo.peek().is_some() {
                if self.qpi.try_write() {
                    rec.inc(Ctr::WrBusy);
                    let (part, dest_line, line) = self.wb_fifo.pop().expect("peeked");
                    // Address translation for the write (virtual → physical).
                    let vaddr = (self.out_base_line + dest_line) * CACHE_LINE_BYTES as u64;
                    let _paddr = pagetable.translate(vaddr)?;
                    let base_slot = dest_line as usize * T::LANES;
                    let dst = &mut out.raw_data_mut()[base_slot..base_slot + T::LANES];
                    dst.copy_from_slice(line.tuples());
                    lines_written[part] += 1;
                    valid_written[part] += line.valid_count() as u64;
                } else {
                    rec.inc(Ctr::WrStall);
                }
            } else {
                rec.inc(Ctr::WrIdle);
            }

            // (2) Write back: pop one combined line (round robin over
            // non-empty FIFOs) when the last-stage FIFO has headroom.
            let wb_input = if self.wb_fifo.free_slots() >= 2 {
                let mut popped = None;
                for _ in 0..T::LANES {
                    let lane = self.writeback.rr_lane();
                    self.writeback.advance_rr();
                    if let Some(cl) = self.out_fifos[lane].pop() {
                        popped = Some(cl);
                        break;
                    }
                }
                popped
            } else {
                None
            };
            if wb_input.is_none() {
                rec.inc(Ctr::RrIdleCycles);
            }
            if let Some(addressed) = self.writeback.clock(wb_input)? {
                self.wb_fifo
                    .push(addressed)
                    .unwrap_or_else(|_| unreachable!("headroom reserved before input"));
            }

            // (3) Write combiners.
            for lane in 0..T::LANES {
                let free = self.out_fifos[lane].free_slots();
                let can = self.combiners[lane].can_accept(free);
                let input = if can {
                    self.lane_fifos[lane].pop()
                } else {
                    None
                };
                if input.is_some() {
                    self.writeback.note_consumed(1);
                }
                if let Some(line) = self.combiners[lane].clock(input, free > 0) {
                    self.out_fifos[lane]
                        .push(line)
                        .unwrap_or_else(|_| unreachable!("can_accept reserves output room"));
                }
            }

            // (4) Hash pipelines consume one tuple line; its tuples leave
            // toward the combiners, where the injected aborts happen.
            let line = pending.pop_front();
            tuple_lines += u64::from(line.is_some());
            for (lane, pipe) in self.pipes.iter_mut().enumerate() {
                let tuple = line.as_ref().map(|l| l.lane(lane));
                if let Some(out_t) = pipe.clock(tuple.filter(|t| !t.is_dummy())) {
                    if let Some(e) = self.aborts.as_ref().and_then(|a| a.at(hashed, out_t.hash)) {
                        return Err(e);
                    }
                    hashed += 1;
                    self.lane_fifos[lane]
                        .push(out_t)
                        .unwrap_or_else(|_| unreachable!("read throttling bounds occupancy"));
                }
            }

            // (5) Read responses.
            if let Some(tag) = self.qpi.pop_ready_read() {
                let line = tag as usize..tag as usize + 1;
                self.input
                    .for_each_line(line, |l| pending.push_back(Line::from_partial(l)));
            }

            // (6) Read requests, throttled by first-stage FIFO occupancy
            // (Section 4.3).
            let fifo_occupancy = self.lane_fifos.iter().map(Fifo::len).max().unwrap_or(0);
            let pipe_occupancy = self
                .pipes
                .iter()
                .map(HashPipeline::occupancy)
                .max()
                .unwrap_or(0);
            let committed = pending.len()
                + self.qpi.reads_in_flight() * expansion
                + pipe_occupancy
                + fifo_occupancy;
            rec.sample_occupancy(fifo_occupancy as u64);
            if read_cursor < total_lines {
                if committed + expansion <= FIFO_CAPACITY {
                    // Translate the input address (the page table is
                    // pipelined; throughput-neutral).
                    let vaddr = read_cursor as u64 * CACHE_LINE_BYTES as u64;
                    let _paddr = pagetable.translate(vaddr)?;
                    if self.qpi.try_read(read_cursor as u64) {
                        self.endpoint_cache.access(vaddr);
                        read_cursor += 1;
                        rec.inc(Ctr::RdBusy);
                        if read_cursor == total_lines {
                            rec.event(cycles, "scatter", "reads_done", total_lines as u64);
                        }
                    } else {
                        rec.inc(Ctr::RdStall);
                    }
                } else {
                    rec.inc(Ctr::RdThrottled);
                }
            } else {
                rec.inc(Ctr::RdIdle);
            }

            // Flush once the scatter datapath has drained (including read
            // responses still travelling over QPI).
            if !flushing
                && read_cursor >= total_lines
                && self.qpi.reads_in_flight() == 0
                && pending.is_empty()
                && self.pipes.iter().all(HashPipeline::is_empty)
                && self.lane_fifos.iter().all(Fifo::is_empty)
                && self.combiners.iter().all(|c| c.in_flight() == 0)
            {
                for c in &mut self.combiners {
                    c.start_flush();
                }
                flushing = true;
                rec.event(cycles, "scatter", "flush_start", read_cursor as u64);
            }

            if flushing
                && self
                    .combiners
                    .iter()
                    .all(|c| c.flush_done() && c.in_flight() == 0)
                && self.out_fifos.iter().all(Fifo::is_empty)
                && self.writeback.in_flight() == 0
                && self.wb_fifo.is_empty()
            {
                debug_assert!(
                    self.lane_fifos.iter().all(Fifo::is_empty)
                        && self.pipes.iter().all(HashPipeline::is_empty)
                        && pending.is_empty(),
                    "datapath must be empty at termination"
                );
                break;
            }
        }

        // Publish per-partition fill metadata.
        for p in 0..out.num_partitions() {
            out.set_partition_fill(
                p,
                lines_written[p] as usize * T::LANES,
                valid_written[p] as usize,
            );
        }

        // The circuit's own tallies; `RunReport::publish` adds the rest.
        rec.set(Ctr::WbLinesEmitted, self.writeback.lines_emitted());
        self.writeback.record_bram_into(&mut rec.counters);
        let mut combiners = CombinerStats::default();
        for c in &self.combiners {
            combiners.accumulate(&c.stats());
            c.record_bram_into(&mut rec.counters);
        }
        let lines_written = lines_written.iter().sum();
        rec.event(cycles, "scatter", "pass_end", lines_written);
        Ok(RunTotals {
            tuples_in: self.input.len() as u64,
            tuples_out: valid_written.iter().sum(),
            input_lines: total_lines as u64,
            tuple_lines,
            lines_written,
            hist: PassTotals::default(),
            scatter: PassTotals {
                cycles,
                qpi: self.qpi.stats(),
            },
            combiners,
            ep_cache: (self.endpoint_cache.hits(), self.endpoint_cache.misses()),
            ports_counted: rec.on(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpart_datagen::KeyDistribution;
    use fpart_hash::PartitionFn;
    use fpart_types::relation::content_checksum;
    use fpart_types::{ColumnRelation, Relation, Tuple16, Tuple64, Tuple8};

    fn config(bits: u32, output: OutputMode, input: InputMode) -> PartitionerConfig {
        PartitionerConfig {
            partition_fn: PartitionFn::Murmur { bits },
            output,
            input,
            fidelity: SimFidelity::CycleAccurate,
            obs: fpart_obs::ObsLevel::Off,
        }
    }

    fn rel(n: usize) -> Relation<Tuple8> {
        let keys: Vec<u32> = KeyDistribution::Random.generate_keys(n, 42);
        Relation::from_keys(&keys)
    }

    /// Every tuple lands in the partition its hash says, and the multiset
    /// of (key, payload) pairs is preserved.
    fn assert_correct_partitioning<T: Tuple>(
        input_tuples: &[T],
        out: &PartitionedRelation<T>,
        f: PartitionFn,
    ) {
        assert_eq!(out.total_valid(), input_tuples.len());
        for p in 0..out.num_partitions() {
            for t in out.partition_tuples(p) {
                assert_eq!(f.partition_of(t.key()), p, "tuple in wrong partition");
            }
        }
        let expect = content_checksum(input_tuples.iter().copied());
        let got = content_checksum(out.all_tuples());
        assert_eq!(expect, got, "partitioning must be a permutation");
    }

    #[test]
    fn pad_rid_partitions_correctly() {
        let r = rel(5000);
        let cfg = config(6, OutputMode::pad_default(), InputMode::Rid);
        let f = cfg.partition_fn;
        let p = FpgaPartitioner::new(cfg);
        let (out, report) = p.partition(&r).unwrap();
        assert_correct_partitioning(r.tuples(), &out, f);
        assert_eq!(report.tuples, 5000);
        assert_eq!(report.hist_cycles, 0);
        assert!(report.scatter_cycles > 0);
        assert_eq!(report.mode, "PAD/RID");
    }

    #[test]
    fn hist_rid_partitions_correctly_with_two_passes() {
        let r = rel(5000);
        let cfg = config(6, OutputMode::Hist, InputMode::Rid);
        let f = cfg.partition_fn;
        let p = FpgaPartitioner::new(cfg);
        let (out, report) = p.partition(&r).unwrap();
        assert_correct_partitioning(r.tuples(), &out, f);
        assert!(report.hist_cycles > 0, "HIST runs a first pass");
        // The histogram pass reads the whole input once more.
        assert!(report.qpi.lines_read >= 2 * (5000 / 8) as u64);
        assert_eq!(report.mode, "HIST/RID");
    }

    #[test]
    fn hist_layout_is_tight() {
        // HIST minimises intermediate memory: allocation is bounded by
        // valid + per-lane line padding.
        let r = rel(10_000);
        let cfg = config(4, OutputMode::Hist, InputMode::Rid);
        let p = FpgaPartitioner::new(cfg);
        let (out, _) = p.partition(&r).unwrap();
        let max_padding = 16 * Tuple8::LANES * Tuple8::LANES; // parts × lanes × (lanes-1) rounded up
        assert!(out.allocated_slots() <= 10_000 + max_padding);
        // And every allocated line was actually written (written == capacity).
        for p_ in 0..out.num_partitions() {
            assert_eq!(out.partition_written(p_), out.partition_capacity(p_));
        }
    }

    #[test]
    fn vrid_reads_half_the_lines() {
        let keys: Vec<u32> = KeyDistribution::Random.generate_keys(4096, 1);
        let col = ColumnRelation::<Tuple8>::from_keys(&keys);
        let cfg = config(5, OutputMode::pad_default(), InputMode::Vrid);
        let p = FpgaPartitioner::new(cfg.clone());
        let (out, report) = p.partition(&col).unwrap();

        // Payloads are the positions; materialisation restores the pairs.
        assert_eq!(out.total_valid(), 4096);
        for part in 0..out.num_partitions() {
            for t in out.partition_tuples(part) {
                assert_eq!(keys[t.payload as usize], t.key, "vrid points at its row");
                assert_eq!(cfg.partition_fn.partition_of(t.key), part);
            }
        }
        // 4096 u32 keys = 256 key lines read; 4096 tuples ≈ 512+ lines written.
        assert_eq!(report.qpi.lines_read, 256);
        assert!(report.qpi.lines_written >= 512);
    }

    #[test]
    fn pad_overflow_aborts_under_skew() {
        // All tuples to one partition with tiny padding → overflow.
        let keys = vec![7u32; 4096];
        let r = Relation::<Tuple8>::from_keys(&keys);
        let cfg = PartitionerConfig {
            partition_fn: PartitionFn::Murmur { bits: 6 },
            output: OutputMode::Pad {
                padding: crate::config::PaddingSpec::Tuples(0),
            },
            input: InputMode::Rid,
            fidelity: SimFidelity::CycleAccurate,
            obs: fpart_obs::ObsLevel::Off,
        };
        let p = FpgaPartitioner::new(cfg);
        let err = p.partition(&r).unwrap_err();
        assert!(matches!(err, FpartError::PartitionOverflow { .. }));
    }

    #[test]
    fn hist_mode_handles_full_skew() {
        // The same all-one-partition input succeeds in HIST mode
        // ("the HIST mode must be used to ensure no overflow occurs").
        let keys = vec![7u32; 4096];
        let r = Relation::<Tuple8>::from_keys(&keys);
        let cfg = config(6, OutputMode::Hist, InputMode::Rid);
        let p = FpgaPartitioner::new(cfg);
        let (out, _) = p.partition(&r).unwrap();
        assert_eq!(out.total_valid(), 4096);
        let target = PartitionFn::Murmur { bits: 6 }.partition_of(7u32);
        assert_eq!(out.partition_valid(target), 4096);
    }

    /// The headline property: with unconstrained bandwidth the circuit
    /// sustains one cache line per clock — cycles ≈ input lines + small
    /// constant latency + flush.
    #[test]
    fn stall_free_at_unlimited_bandwidth() {
        let n = 8192usize;
        let r = rel(n);
        let cfg = config(4, OutputMode::pad_default(), InputMode::Rid);
        let p = FpgaPartitioner::with_qpi(cfg, QpiConfig::unlimited(200e6));
        let (_, report) = p.partition(&r).unwrap();
        let input_lines = (n / 8) as u64;
        let flush = 16 * 8; // partitions × lanes
        let slack = 80; // pipeline fill + FIFO latencies
        assert!(
            report.scatter_cycles <= input_lines + flush as u64 + slack,
            "took {} cycles for {} lines (+{} flush)",
            report.scatter_cycles,
            input_lines,
            flush
        );
        assert_eq!(report.qpi.read_stall_cycles, 0);
        assert_eq!(report.qpi.write_stall_cycles, 0);
    }

    #[test]
    fn qpi_bandwidth_bounds_throughput() {
        // On the HARP link the same run is slower and shows stalls.
        let r = rel(8192);
        let cfg = config(4, OutputMode::pad_default(), InputMode::Rid);
        let unlimited = FpgaPartitioner::with_qpi(cfg.clone(), QpiConfig::unlimited(200e6));
        let harp = FpgaPartitioner::new(cfg);
        let (_, fast) = unlimited.partition(&r).unwrap();
        let (_, slow) = harp.partition(&r).unwrap();
        assert!(
            slow.scatter_cycles > fast.scatter_cycles * 2,
            "QPI-bound run ({}) should be >2x slower than unlimited ({})",
            slow.scatter_cycles,
            fast.scatter_cycles
        );
    }

    #[test]
    fn wide_tuples_work() {
        let keys: Vec<u64> = KeyDistribution::Random.generate_keys(2000, 5);
        let r16 = Relation::<Tuple16>::from_keys(&keys);
        let cfg = config(4, OutputMode::Hist, InputMode::Rid);
        let f = cfg.partition_fn;
        let p = FpgaPartitioner::new(cfg);
        let (out, _) = p.partition(&r16).unwrap();
        assert_correct_partitioning(r16.tuples(), &out, f);

        let r64 = Relation::<Tuple64>::from_keys(&keys);
        let cfg = config(4, OutputMode::pad_default(), InputMode::Rid);
        let p = FpgaPartitioner::new(cfg);
        let (out, report) = p.partition(&r64).unwrap();
        assert_correct_partitioning(r64.tuples(), &out, f);
        // 64 B tuples: one per line; reads == tuples.
        assert_eq!(report.qpi.lines_read, 2000);
    }

    #[test]
    fn non_line_multiple_input() {
        let r = rel(1003); // not a multiple of 8
        let cfg = config(4, OutputMode::Hist, InputMode::Rid);
        let f = cfg.partition_fn;
        let p = FpgaPartitioner::new(cfg);
        let (out, report) = p.partition(&r).unwrap();
        assert_correct_partitioning(r.tuples(), &out, f);
        assert_eq!(report.tuples, 1003);
    }

    #[test]
    fn empty_input() {
        let r = Relation::<Tuple8>::from_tuples(&[]);
        let cfg = config(4, OutputMode::Hist, InputMode::Rid);
        let p = FpgaPartitioner::new(cfg);
        let (out, report) = p.partition(&r).unwrap();
        assert_eq!(out.total_valid(), 0);
        assert_eq!(report.tuples, 0);
    }

    #[test]
    fn mode_mismatch_is_rejected() {
        let r = rel(100);
        let cfg = config(4, OutputMode::Hist, InputMode::Vrid);
        let p = FpgaPartitioner::new(cfg);
        assert!(matches!(
            p.partition(&r).unwrap_err(),
            FpartError::InvalidConfig(_)
        ));
    }

    #[test]
    fn radix_partitioning_also_works() {
        let r = rel(3000);
        let cfg = PartitionerConfig {
            partition_fn: PartitionFn::Radix { bits: 5 },
            output: OutputMode::Hist,
            input: InputMode::Rid,
            fidelity: SimFidelity::CycleAccurate,
            obs: fpart_obs::ObsLevel::Off,
        };
        let f = cfg.partition_fn;
        let p = FpgaPartitioner::new(cfg);
        let (out, _) = p.partition(&r).unwrap();
        assert_correct_partitioning(r.tuples(), &out, f);
    }

    /// Fault plans run on both fidelities, with the same outcome.
    const FIDELITIES: [SimFidelity; 2] = [SimFidelity::CycleAccurate, SimFidelity::Batched];

    #[test]
    fn qpi_transients_slow_but_do_not_corrupt() {
        use fpart_hwsim::{Fault, FaultPlan};
        let r = rel(4096);
        for fidelity in FIDELITIES {
            let cfg = config(4, OutputMode::Hist, InputMode::Rid).with_fidelity(fidelity);
            let f = cfg.partition_fn;
            let clean = FpgaPartitioner::with_qpi(cfg.clone(), QpiConfig::unlimited(200e6));
            let (out_clean, rep_clean) = clean.partition(&r).unwrap();

            let plan = FaultPlan::new()
                .with(Fault::QpiTransient {
                    pass: fpart_hwsim::PassId::Histogram,
                    op_index: 10,
                    burst: 3,
                })
                .with(Fault::QpiTransient {
                    pass: fpart_hwsim::PassId::Scatter,
                    op_index: 100,
                    burst: 2,
                })
                .with(Fault::PageTableTransient {
                    translation_index: 5,
                    retries: 2,
                });
            let faulty =
                FpgaPartitioner::with_qpi(cfg, QpiConfig::unlimited(200e6)).with_faults(plan);
            let (out_faulty, rep_faulty) = faulty.partition(&r).unwrap();

            assert_correct_partitioning(r.tuples(), &out_faulty, f);
            assert_eq!(
                content_checksum(out_clean.all_tuples()),
                content_checksum(out_faulty.all_tuples()),
                "{fidelity:?}: replayed transients never corrupt data"
            );
            assert_eq!(rep_faulty.qpi.link_errors, 2, "{fidelity:?}");
            assert_eq!(rep_faulty.qpi.link_replays, 5, "{fidelity:?}");
            assert!(rep_faulty.qpi.replay_stall_cycles > 0, "{fidelity:?}");
            assert!(
                rep_faulty.total_cycles() > rep_clean.total_cycles(),
                "{fidelity:?}: replays cost cycles"
            );
            assert_eq!(rep_faulty.obs.get(Ctr::PtRetriesTotal), 2, "{fidelity:?}");
            assert_eq!(rep_clean.obs.get(Ctr::PtRetriesTotal), 0, "{fidelity:?}");
        }
    }

    #[test]
    fn fatal_qpi_burst_surfaces_link_retry_exhausted() {
        use fpart_hwsim::{Fault, FaultPlan};
        let r = rel(2048);
        for fidelity in FIDELITIES {
            let cfg = config(4, OutputMode::pad_default(), InputMode::Rid).with_fidelity(fidelity);
            let plan = FaultPlan::new().with(Fault::QpiTransient {
                pass: fpart_hwsim::PassId::Scatter,
                op_index: 50,
                burst: 1000,
            });
            let p = FpgaPartitioner::new(cfg).with_faults(plan);
            let err = p.partition(&r).unwrap_err();
            assert!(
                matches!(err, FpartError::LinkRetryExhausted { .. }),
                "{fidelity:?}: {err:?}"
            );
        }
    }

    #[test]
    fn bram_soft_errors_surface_per_pass() {
        use fpart_hwsim::{BramKind, Fault, FaultPlan};
        let r = rel(2048);
        for fidelity in FIDELITIES {
            // Histogram BRAM flip aborts the HIST first pass.
            let cfg = config(4, OutputMode::Hist, InputMode::Rid).with_fidelity(fidelity);
            let plan = FaultPlan::new().with(Fault::BramFlip {
                bram: BramKind::Histogram,
                addr: 3,
            });
            let err = FpgaPartitioner::new(cfg)
                .with_faults(plan)
                .partition(&r)
                .unwrap_err();
            assert_eq!(
                err,
                FpartError::BramSoftError {
                    bram: "histogram",
                    addr: 3
                },
                "{fidelity:?}"
            );

            // Fill-rate BRAM flip aborts the scatter pass.
            let cfg = config(4, OutputMode::pad_default(), InputMode::Rid).with_fidelity(fidelity);
            let plan = FaultPlan::new().with(Fault::BramFlip {
                bram: BramKind::FillRate,
                addr: 19, // modulo 16 partitions → address 3
            });
            let err = FpgaPartitioner::new(cfg)
                .with_faults(plan)
                .partition(&r)
                .unwrap_err();
            assert_eq!(
                err,
                FpartError::BramSoftError {
                    bram: "fill-rate",
                    addr: 3
                },
                "{fidelity:?}"
            );
        }
    }

    #[test]
    fn injected_pad_overflow_reports_chosen_point() {
        use fpart_hwsim::{Fault, FaultPlan};
        let r = rel(4096);
        for fidelity in FIDELITIES {
            let cfg = config(4, OutputMode::pad_default(), InputMode::Rid).with_fidelity(fidelity);
            let plan = FaultPlan::new().with(Fault::PadOverflow { consumed: 2048 });
            let p = FpgaPartitioner::new(cfg.clone()).with_faults(plan.clone());
            let err = p.partition(&r).unwrap_err();
            match err.clone() {
                FpartError::PartitionOverflow { consumed, .. } => {
                    assert!(
                        consumed >= 2048,
                        "{fidelity:?}: fires at the chosen point, got {consumed}"
                    );
                    assert!(consumed < 2048 + 64, "{fidelity:?}: not much later either");
                }
                other => panic!("{fidelity:?}: unexpected error {other:?}"),
            }
            // Same plan, same input → identical abort, cycle for cycle.
            let again = FpgaPartitioner::new(cfg).with_faults(plan);
            assert_eq!(again.partition(&r).unwrap_err(), err, "{fidelity:?}");
        }
    }

    #[test]
    fn pad_page_table_covers_line_rounded_extents() {
        // 2^18 partitions with a capacity of 153 tuples, each laid out as
        // 20 whole lines of 8: the page table must map the 7 slots a
        // partition that the rounding adds, 14 MB in all.
        let n = 2_000_000;
        let keys: Vec<u32> = KeyDistribution::Random.generate_keys(n, 42);
        let f = PartitionFn::Murmur { bits: 18 };
        let pad = |input| FpgaPartitioner::with_modes(f, OutputMode::pad_default(), input);
        let (out, _) = pad(InputMode::Rid)
            .partition(&Relation::<Tuple8>::from_keys(&keys))
            .unwrap();
        assert_eq!(out.partition_capacity(0), 160);
        assert_correct_partitioning(Relation::<Tuple8>::from_keys(&keys).tuples(), &out, f);
        drop(out);
        let (out, _) = pad(InputMode::Vrid)
            .partition(&ColumnRelation::<Tuple8>::from_keys(&keys))
            .unwrap();
        assert_eq!(out.total_valid(), n);
        for p in 0..out.num_partitions() {
            for t in out.partition_tuples(p) {
                assert_eq!(keys[t.payload as usize], t.key);
                assert_eq!(f.partition_of(t.key), p);
            }
        }
    }

    #[test]
    fn report_derivations() {
        let r = rel(4096);
        let cfg = config(5, OutputMode::pad_default(), InputMode::Rid);
        let p = FpgaPartitioner::new(cfg);
        let (_, report) = p.partition(&r).unwrap();
        assert!(report.seconds() > 0.0);
        assert!(report.mtuples_per_sec() > 0.0);
        assert!(report.link_gbps() > 0.0);
        assert_eq!(report.total_cycles(), report.scatter_cycles);
        assert!(report.translations > 0, "page table is exercised");
    }
}
