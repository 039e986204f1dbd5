//! The QPI endpoint: bandwidth-limited, latency-modelled access to the
//! shared memory pool.
//!
//! The accelerator sees memory through an "encrypted QPI end-point module
//! provided by Intel" (Section 2.1). For the partitioner its observable
//! behaviour is (a) a combined read+write bandwidth that depends on the
//! traffic mix (Figure 2) and (b) backpressure: "the QPI bandwidth cannot
//! handle this and puts back-pressure on the write back module"
//! (Section 4.3).
//!
//! The model is a token bucket: each FPGA clock cycle deposits
//! `B(mix) / f_FPGA` bytes of credit; granting a 64 B read or write
//! consumes 64 credits. The mix-dependent rate is re-evaluated from the
//! endpoint's own cumulative read/write counters, so a HIST first pass
//! (pure read) automatically enjoys a different operating point than the
//! write-heavy scatter phase — matching how the paper applies `B(r)` per
//! phase in Section 4.8.

use std::collections::VecDeque;

use fpart_memmodel::{BandwidthCurve, RwMix};
use fpart_types::{FpartError, Result, CACHE_LINE_BYTES};

use crate::fault::QpiFaultSchedule;

/// Configuration of a [`QpiEndpoint`].
#[derive(Debug, Clone)]
pub struct QpiConfig {
    /// The bandwidth curve this link obeys (Figure 2 / raw wrapper).
    pub curve: BandwidthCurve,
    /// FPGA clock the endpoint is driven at (Hz); with the curve this
    /// yields bytes of credit per cycle.
    pub clock_hz: f64,
    /// Read response latency in cycles (grant → data available). QPI
    /// round trips are ~100 ns ≈ 20 cycles at 200 MHz; only affects
    /// pipeline fill, not throughput.
    pub read_latency: u32,
    /// Credit cap in bytes (burst size). A few cache lines: QPI can have
    /// several requests in flight but not arbitrarily many.
    pub max_credit: f64,
    /// How often (in cycles) to re-evaluate the mix-dependent rate.
    pub mix_update_interval: u64,
}

impl QpiConfig {
    /// The standard endpoint of the HARP v1 platform at 200 MHz.
    pub fn harp(curve: BandwidthCurve) -> Self {
        Self {
            curve,
            clock_hz: 200e6,
            read_latency: 20,
            max_credit: 16.0 * CACHE_LINE_BYTES as f64,
            mix_update_interval: 256,
        }
    }

    /// An endpoint with effectively unlimited bandwidth — used to verify
    /// the circuit's stall-free one-line-per-cycle operation.
    pub fn unlimited(clock_hz: f64) -> Self {
        Self {
            curve: BandwidthCurve::new("unlimited", vec![(0.0, 1e6), (1.0, 1e6)]),
            clock_hz,
            read_latency: 1,
            max_credit: 1e9,
            mix_update_interval: u64::MAX,
        }
    }

    /// Steady-state credit rate (bytes per FPGA cycle) for a transfer whose
    /// read-per-write ratio is `r` — what the adaptive token bucket
    /// converges to once its mix window reflects the phase's traffic.
    pub fn steady_bytes_per_cycle(&self, r: f64) -> f64 {
        self.curve.bytes_per_sec(RwMix::from_r(r)) / self.clock_hz
    }

    /// Fast-forward cycle count: cycles the token bucket needs to grant
    /// `lines_read + lines_written` 64 B line operations in steady state.
    ///
    /// This is the analytic counterpart of ticking the endpoint once per
    /// cycle: in steady state the bucket deposits
    /// `steady_bytes_per_cycle(r)` per cycle and every grant debits 64 B,
    /// so the link-bound duration of a phase is simply `total bytes /
    /// rate`. The credit cap only shapes bursts, not sustained throughput,
    /// and the warm-up window (the bucket starts from the balanced-mix
    /// rate until the first refresh) is bounded by
    /// [`QpiConfig::mix_update_interval`] cycles — callers fold that into
    /// their slack.
    pub fn link_cycles(&self, lines_read: u64, lines_written: u64) -> u64 {
        if lines_read + lines_written == 0 {
            return 0;
        }
        let r = if lines_written == 0 {
            f64::INFINITY
        } else {
            lines_read as f64 / lines_written as f64
        };
        let bytes = ((lines_read + lines_written) * CACHE_LINE_BYTES as u64) as f64;
        (bytes / self.steady_bytes_per_cycle(r)).ceil() as u64
    }
}

/// Counters exposed by the endpoint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QpiStats {
    /// Cache lines read over the link.
    pub lines_read: u64,
    /// Cache lines written over the link.
    pub lines_written: u64,
    /// Cycles on which a read was requested but denied for lack of credit.
    pub read_stall_cycles: u64,
    /// Cycles on which a write was requested but denied for lack of credit.
    pub write_stall_cycles: u64,
    /// Injected transient line errors the link absorbed (or aborted on).
    pub link_errors: u64,
    /// Link-level flit replays performed to absorb transient errors.
    pub link_replays: u64,
    /// Cycles on which an access was denied because the link was busy
    /// replaying a faulted flit.
    pub replay_stall_cycles: u64,
}

impl QpiStats {
    /// Total bytes moved.
    pub fn total_bytes(&self) -> u64 {
        (self.lines_read + self.lines_written) * CACHE_LINE_BYTES as u64
    }

    /// Accumulate these endpoint totals into an observability counter set.
    pub fn record_into(&self, c: &mut fpart_obs::CounterSet) {
        use fpart_obs::Ctr;
        c.add(Ctr::QpiLinesRead, self.lines_read);
        c.add(Ctr::QpiLinesWritten, self.lines_written);
        c.add(Ctr::QpiReadStallCycles, self.read_stall_cycles);
        c.add(Ctr::QpiWriteStallCycles, self.write_stall_cycles);
        c.add(Ctr::QpiLinkErrors, self.link_errors);
        c.add(Ctr::QpiLinkReplays, self.link_replays);
        c.add(Ctr::QpiReplayStallCycles, self.replay_stall_cycles);
    }

    /// The achieved read-per-write ratio `r`.
    pub fn achieved_r(&self) -> f64 {
        if self.lines_written == 0 {
            f64::INFINITY
        } else {
            self.lines_read as f64 / self.lines_written as f64
        }
    }

    /// Add another endpoint's counters onto this one (multi-pass runs
    /// report one combined set of link statistics).
    pub fn accumulate(&mut self, other: &QpiStats) {
        self.lines_read += other.lines_read;
        self.lines_written += other.lines_written;
        self.read_stall_cycles += other.read_stall_cycles;
        self.write_stall_cycles += other.write_stall_cycles;
        self.link_errors += other.link_errors;
        self.link_replays += other.link_replays;
        self.replay_stall_cycles += other.replay_stall_cycles;
    }
}

/// The token-bucket QPI endpoint.
#[derive(Debug)]
pub struct QpiEndpoint {
    config: QpiConfig,
    credit: f64,
    bytes_per_cycle: f64,
    cycle: u64,
    /// In-flight read responses: (ready_cycle, tag).
    pending_reads: VecDeque<(u64, u64)>,
    stats: QpiStats,
    /// Counters at the last rate refresh, so the mix is measured over the
    /// most recent window (a two-pass HIST run changes mix mid-flight).
    window_base: (u64, u64),
    /// Injected transient-error schedule, if any.
    faults: Option<QpiFaultSchedule>,
    /// Line operations granted so far (reads + writes) — the index the
    /// fault schedule is keyed on.
    ops_granted: u64,
    /// The link is busy replaying a faulted flit until this cycle.
    replay_busy_until: u64,
    /// A transfer exhausted its replay budget; the endpoint is wedged
    /// until the owner notices and aborts the run.
    hard_fault: Option<FpartError>,
}

impl QpiEndpoint {
    /// Create an endpoint; initial rate assumes a balanced mix until real
    /// traffic updates it.
    pub fn new(config: QpiConfig) -> Self {
        let bytes_per_cycle = config.curve.bytes_per_sec(RwMix::BALANCED) / config.clock_hz;
        Self {
            credit: 0.0,
            bytes_per_cycle,
            cycle: 0,
            pending_reads: VecDeque::new(),
            config,
            stats: QpiStats::default(),
            window_base: (0, 0),
            faults: None,
            ops_granted: 0,
            replay_busy_until: 0,
            hard_fault: None,
        }
    }

    /// Arm the endpoint with a transient-error schedule. Faulted line
    /// operations are replayed with a latency penalty; a burst beyond
    /// the schedule's replay limit wedges the endpoint with a
    /// [`FpartError::LinkRetryExhausted`] the owner must collect via
    /// [`QpiEndpoint::hard_fault`].
    pub fn inject_faults(&mut self, schedule: QpiFaultSchedule) {
        self.faults = Some(schedule);
    }

    /// The unrecoverable link fault, if one occurred.
    pub fn hard_fault(&self) -> Option<FpartError> {
        self.hard_fault.clone()
    }

    /// Consult the fault schedule before granting the next line
    /// operation. Returns `true` when the operation must be denied this
    /// cycle (replay in progress, a fresh transient, or a hard fault).
    fn fault_gate(&mut self) -> bool {
        if self.hard_fault.is_some() {
            return true;
        }
        if self.cycle < self.replay_busy_until {
            self.stats.replay_stall_cycles += 1;
            return true;
        }
        let Some(sched) = &mut self.faults else {
            return false;
        };
        match sched.faults.front() {
            Some(&(op, burst)) if op == self.ops_granted => {
                sched.faults.pop_front();
                self.stats.link_errors += 1;
                if burst > sched.replay_limit {
                    self.hard_fault = Some(FpartError::LinkRetryExhausted {
                        retries: sched.replay_limit,
                        cycle: self.cycle,
                    });
                } else {
                    self.stats.link_replays += burst as u64;
                    // The detection cycle is itself a stall: the op that hit
                    // the error is denied and retries once the replay window
                    // (burst × penalty cycles, this one included) elapses.
                    self.stats.replay_stall_cycles += 1;
                    self.replay_busy_until =
                        self.cycle + burst as u64 * sched.replay_penalty as u64;
                }
                true
            }
            _ => false,
        }
    }

    /// Advance one clock cycle: deposit credit, age pending reads.
    pub fn tick(&mut self) {
        self.cycle += 1;
        self.credit = (self.credit + self.bytes_per_cycle).min(self.config.max_credit);
        if self.config.mix_update_interval != u64::MAX
            && self.cycle.is_multiple_of(self.config.mix_update_interval)
        {
            self.refresh_rate();
        }
    }

    /// Current simulation cycle.
    pub fn now(&self) -> u64 {
        self.cycle
    }

    /// Request a 64 B read; `tag` identifies the response. Returns whether
    /// the request was granted this cycle.
    pub fn try_read(&mut self, tag: u64) -> bool {
        if self.credit < CACHE_LINE_BYTES as f64 {
            self.stats.read_stall_cycles += 1;
            return false;
        }
        if self.fault_gate() {
            return false;
        }
        self.credit -= CACHE_LINE_BYTES as f64;
        self.stats.lines_read += 1;
        self.ops_granted += 1;
        self.pending_reads
            .push_back((self.cycle + self.config.read_latency as u64, tag));
        true
    }

    /// Request a 64 B write. Returns whether it was granted this cycle.
    /// (Write data travels with the request; completion is fire-and-forget
    /// as in the real endpoint.)
    pub fn try_write(&mut self) -> bool {
        if self.credit < CACHE_LINE_BYTES as f64 {
            self.stats.write_stall_cycles += 1;
            return false;
        }
        if self.fault_gate() {
            return false;
        }
        self.credit -= CACHE_LINE_BYTES as f64;
        self.stats.lines_written += 1;
        self.ops_granted += 1;
        true
    }

    /// Pop the tag of a read whose data has arrived (at most one per
    /// cycle — the link delivers one line per cycle).
    pub fn pop_ready_read(&mut self) -> Option<u64> {
        match self.pending_reads.front() {
            Some(&(ready, tag)) if ready <= self.cycle => {
                self.pending_reads.pop_front();
                Some(tag)
            }
            _ => None,
        }
    }

    /// Reads in flight (granted, data not yet delivered).
    pub fn reads_in_flight(&self) -> usize {
        self.pending_reads.len()
    }

    /// Counters so far.
    pub fn stats(&self) -> QpiStats {
        self.stats
    }

    /// Fast-forward the endpoint over a whole phase: grant `lines_read +
    /// lines_written` line operations in bulk, firing every scheduled
    /// transient among them as the ticked endpoint would (one link error,
    /// `burst` replays and `burst × replay_penalty` replay-stall cycles
    /// each), and advance the clock by [`QpiConfig::link_cycles`] plus the
    /// stalls. Returns the steady-state cycles alone, for the caller to
    /// weigh against the circuit bound before it adds the stalls.
    ///
    /// This is the batched-fidelity replacement for ticking
    /// [`QpiEndpoint::tick`] once per cycle. Per-cycle observables (stall
    /// counters, in-flight reads) are not modelled — the batched caller
    /// derives stalls analytically from the circuit/link bound gap.
    ///
    /// # Errors
    /// [`FpartError::LinkRetryExhausted`] for the first burst beyond the
    /// replay limit, abandoned at the cycle the steady rate reaches it.
    pub fn fast_forward(&mut self, lines_read: u64, lines_written: u64) -> Result<u64> {
        let ops = lines_read + lines_written;
        let cycles = self.config.link_cycles(lines_read, lines_written);
        let (start, mut stall) = (self.ops_granted, 0);
        if let Some(sched) = &mut self.faults {
            while let Some(&(op, burst)) = sched.faults.front().filter(|f| f.0 < start + ops) {
                sched.faults.pop_front();
                self.stats.link_errors += 1;
                if burst > sched.replay_limit {
                    let reached = (op.saturating_sub(start) * cycles).checked_div(ops);
                    return Err(FpartError::LinkRetryExhausted {
                        retries: sched.replay_limit,
                        cycle: self.cycle + stall + reached.unwrap_or(0),
                    });
                }
                self.stats.link_replays += burst as u64;
                stall += burst as u64 * sched.replay_penalty as u64;
            }
        }
        self.stats.replay_stall_cycles += stall;
        self.cycle += cycles + stall;
        self.stats.lines_read += lines_read;
        self.stats.lines_written += lines_written;
        self.ops_granted += ops;
        self.credit = 0.0;
        Ok(cycles)
    }

    /// Re-derive the credit rate from the read/write mix achieved since
    /// the previous refresh (sliding window, so distinct phases of a run
    /// each settle on their own operating point).
    fn refresh_rate(&mut self) {
        let reads = self.stats.lines_read - self.window_base.0;
        let writes = self.stats.lines_written - self.window_base.1;
        if reads + writes == 0 {
            return;
        }
        self.window_base = (self.stats.lines_read, self.stats.lines_written);
        let r = if writes == 0 {
            f64::INFINITY
        } else {
            reads as f64 / writes as f64
        };
        self.bytes_per_cycle =
            self.config.curve.bytes_per_sec(RwMix::from_r(r)) / self.config.clock_hz;
    }

    /// The current credit refill rate in bytes per cycle (test hook).
    pub fn bytes_per_cycle(&self) -> f64 {
        self.bytes_per_cycle
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed_curve(gbps: f64) -> BandwidthCurve {
        BandwidthCurve::new("fixed", vec![(0.0, gbps), (1.0, gbps)])
    }

    #[test]
    fn bandwidth_limits_grants() {
        // 6.4 GB/s at 200 MHz = 32 B/cycle = one 64 B line every 2 cycles.
        let mut qpi = QpiEndpoint::new(QpiConfig {
            curve: fixed_curve(6.4),
            clock_hz: 200e6,
            read_latency: 1,
            max_credit: 64.0,
            mix_update_interval: u64::MAX,
        });
        let mut granted = 0;
        for _ in 0..1000 {
            qpi.tick();
            if qpi.try_read(0) {
                granted += 1;
            }
        }
        assert!(
            (480..=520).contains(&granted),
            "expected ~500 grants in 1000 cycles, got {granted}"
        );
        assert!(qpi.stats().read_stall_cycles > 0);
    }

    #[test]
    fn unlimited_never_stalls() {
        let mut qpi = QpiEndpoint::new(QpiConfig::unlimited(200e6));
        for i in 0..100 {
            qpi.tick();
            assert!(qpi.try_read(i));
            assert!(qpi.try_write());
        }
        assert_eq!(qpi.stats().read_stall_cycles, 0);
        assert_eq!(qpi.stats().write_stall_cycles, 0);
        assert_eq!(qpi.stats().lines_read, 100);
        assert_eq!(qpi.stats().lines_written, 100);
    }

    #[test]
    fn read_latency_delays_response() {
        let mut qpi = QpiEndpoint::new(QpiConfig {
            curve: fixed_curve(100.0),
            clock_hz: 200e6,
            read_latency: 3,
            max_credit: 1e9,
            mix_update_interval: u64::MAX,
        });
        qpi.tick();
        assert!(qpi.try_read(77));
        assert_eq!(qpi.pop_ready_read(), None);
        qpi.tick();
        qpi.tick();
        assert_eq!(qpi.pop_ready_read(), None, "2 of 3 cycles elapsed");
        qpi.tick();
        assert_eq!(qpi.pop_ready_read(), Some(77));
        assert_eq!(qpi.reads_in_flight(), 0);
    }

    #[test]
    fn responses_arrive_in_order() {
        let mut qpi = QpiEndpoint::new(QpiConfig::unlimited(200e6));
        qpi.tick();
        assert!(qpi.try_read(1));
        assert!(qpi.try_read(2));
        qpi.tick();
        assert_eq!(qpi.pop_ready_read(), Some(1));
        assert_eq!(qpi.pop_ready_read(), Some(2));
    }

    #[test]
    fn adaptive_rate_tracks_mix() {
        // Curve where pure reads get 10 GB/s and pure writes 2 GB/s.
        let curve = BandwidthCurve::new("sloped", vec![(0.0, 2.0), (1.0, 10.0)]);
        let mut qpi = QpiEndpoint::new(QpiConfig {
            curve,
            clock_hz: 200e6,
            read_latency: 1,
            max_credit: 1e9,
            mix_update_interval: 16,
        });
        // Issue only reads; after the first refresh the rate should move
        // toward the read end of the curve.
        for i in 0..64 {
            qpi.tick();
            let _ = qpi.try_read(i);
        }
        let read_heavy_rate = qpi.bytes_per_cycle();
        assert!(
            read_heavy_rate > 9.0 * 1e9 / 200e6 / 1.01,
            "rate {read_heavy_rate} should approach 50 B/cycle"
        );
    }

    #[test]
    fn transient_fault_replays_with_penalty() {
        let mut qpi = QpiEndpoint::new(QpiConfig::unlimited(200e6));
        // Fault the second granted op with a burst of 2 replays.
        let mut sched = crate::fault::QpiFaultSchedule::new(vec![(1, 2)]);
        sched.replay_penalty = 5;
        qpi.inject_faults(sched);

        qpi.tick();
        assert!(qpi.try_read(0), "op 0 unaffected");
        // Op 1 hits the fault: denied while the link replays the flit.
        let mut denied = 0;
        loop {
            qpi.tick();
            if qpi.try_read(1) {
                break;
            }
            denied += 1;
            assert!(denied < 100, "replay never completed");
        }
        assert_eq!(denied, 2 * 5, "burst × penalty cycles of stall");
        let stats = qpi.stats();
        assert_eq!(stats.link_errors, 1);
        assert_eq!(stats.link_replays, 2);
        assert_eq!(stats.replay_stall_cycles, 10);
        assert_eq!(qpi.hard_fault(), None);
        assert_eq!(stats.lines_read, 2, "both reads eventually granted");
    }

    #[test]
    fn burst_beyond_replay_limit_is_fatal() {
        let mut qpi = QpiEndpoint::new(QpiConfig::unlimited(200e6));
        let mut sched = crate::fault::QpiFaultSchedule::new(vec![(0, 99)]);
        sched.replay_limit = 8;
        qpi.inject_faults(sched);
        qpi.tick();
        assert!(!qpi.try_write(), "faulted op denied");
        let err = qpi.hard_fault().expect("burst 99 > limit 8 is fatal");
        assert!(matches!(
            err,
            FpartError::LinkRetryExhausted { retries: 8, .. }
        ));
        // The endpoint stays wedged.
        qpi.tick();
        assert!(!qpi.try_write());
        assert_eq!(qpi.stats().lines_written, 0);
    }

    #[test]
    fn fault_free_schedule_changes_nothing() {
        let mut a = QpiEndpoint::new(QpiConfig::unlimited(200e6));
        let mut b = QpiEndpoint::new(QpiConfig::unlimited(200e6));
        b.inject_faults(crate::fault::QpiFaultSchedule::new(vec![]));
        for i in 0..50 {
            a.tick();
            b.tick();
            assert_eq!(a.try_read(i), b.try_read(i));
            assert_eq!(a.try_write(), b.try_write());
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn link_cycles_matches_ticked_endpoint() {
        // 6.4 GB/s at 200 MHz = 32 B/cycle → 10_000 reads need ~20_000
        // cycles; the analytic fast-forward must agree with a ticked run
        // to within the warm-up window.
        let cfg = QpiConfig {
            curve: fixed_curve(6.4),
            clock_hz: 200e6,
            read_latency: 1,
            max_credit: 64.0,
            mix_update_interval: 256,
        };
        let analytic = cfg.link_cycles(10_000, 0);
        let mut qpi = QpiEndpoint::new(cfg);
        let mut granted = 0u64;
        let mut cycles = 0u64;
        while granted < 10_000 {
            qpi.tick();
            cycles += 1;
            if qpi.try_read(granted) {
                granted += 1;
            }
        }
        let diff = cycles.abs_diff(analytic);
        assert!(
            diff <= 260,
            "ticked {cycles} vs analytic {analytic} (diff {diff})"
        );
    }

    #[test]
    fn fast_forward_accounts_stats_and_clock() {
        let cfg = QpiConfig::harp(fixed_curve(6.4));
        let mut qpi = QpiEndpoint::new(cfg.clone());
        let cycles = qpi.fast_forward(1000, 500).unwrap();
        assert_eq!(cycles, cfg.link_cycles(1000, 500));
        assert_eq!(qpi.now(), cycles);
        assert_eq!(qpi.stats().lines_read, 1000);
        assert_eq!(qpi.stats().lines_written, 500);
        // Mix-dependence: a write-heavy phase is slower per byte on the
        // FPGA curve than a pure-read phase of the same volume.
        let curve = fpart_memmodel::BandwidthCurve::fpga_alone();
        let harp = QpiConfig::harp(curve);
        assert!(harp.link_cycles(0, 1500) > harp.link_cycles(1500, 0));
        assert_eq!(harp.link_cycles(0, 0), 0);
    }

    #[test]
    fn fast_forward_charges_armed_faults() {
        // Ops 3 and 7 fault within the phase's 10 operations; op 12 lies
        // beyond it and never fires, as on the ticked endpoint.
        let mut sched = crate::fault::QpiFaultSchedule::new(vec![(7, 3), (3, 2), (12, 1)]);
        sched.replay_penalty = 5;
        let mut qpi = QpiEndpoint::new(QpiConfig::unlimited(200e6));
        qpi.inject_faults(sched);
        let cycles = qpi.fast_forward(6, 4).unwrap();
        let stats = qpi.stats();
        assert_eq!(stats.link_errors, 2);
        assert_eq!(stats.link_replays, 5);
        assert_eq!(stats.replay_stall_cycles, 5 * 5);
        assert_eq!(qpi.now(), cycles + 25, "the clock pays the stalls");

        // A burst beyond the replay limit abandons the phase at its op.
        let cfg = QpiConfig::harp(fixed_curve(6.4));
        let mut qpi = QpiEndpoint::new(cfg.clone());
        let mut sched = crate::fault::QpiFaultSchedule::new(vec![(500, 99)]);
        sched.replay_limit = 8;
        qpi.inject_faults(sched);
        let err = qpi.fast_forward(1000, 0).unwrap_err();
        let half = cfg.link_cycles(1000, 0) / 2;
        assert_eq!(
            err,
            FpartError::LinkRetryExhausted {
                retries: 8,
                cycle: half
            }
        );
        assert_eq!(qpi.stats().link_errors, 1);
    }

    #[test]
    fn achieved_r_reporting() {
        let mut qpi = QpiEndpoint::new(QpiConfig::unlimited(200e6));
        qpi.tick();
        qpi.try_read(0);
        qpi.try_read(1);
        qpi.try_write();
        assert!((qpi.stats().achieved_r() - 2.0).abs() < 1e-12);
        assert_eq!(qpi.stats().total_bytes(), 3 * 64);
    }
}
