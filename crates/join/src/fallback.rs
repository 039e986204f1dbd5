//! The graceful-degradation escalation chain.
//!
//! The paper prescribes two reactions to a PAD-mode abort: "the
//! operation aborts and falls back to a CPU based partitioner"
//! (Section 4.5), or the run is restarted in HIST mode (Section 5.4).
//! With the fault-injection subsystem the simulated platform can now
//! also abort on link failures ([`FpartError::LinkRetryExhausted`]) and
//! BRAM soft errors ([`FpartError::BramSoftError`]); the
//! [`FpartError`] contract says to treat any hardware abort the same
//! way — escalate.
//!
//! [`EscalationChain`] encodes that policy as an ordered chain:
//!
//! 1. the configured engine (the FPGA or the split, in PAD or HIST),
//! 2. an optional HIST-mode retry of the same engine (skipped when the
//!    first attempt already ran HIST),
//! 3. an optional CPU fallback, which cannot fail.
//!
//! Every attempt — failed or successful — is recorded in a
//! [`DegradationReport`] as an [`AttemptRecord`]: the
//! [`EngineChoice`] that ran and the output mode of its FPGA side, *why*
//! the step failed and an estimate
//! of the simulated work the abort threw away ("the data partitioned
//! up to the point of failure is not usable", Section 5.4). The report
//! keeps the [`PartitionStats`] of the attempt that succeeded, whichever
//! engine ran it, and its counters are what
//! [`DegradationReport::fault_counters`] builds on. The chain is
//! deterministic: the same fault plan against the same input reproduces
//! the identical report.

use fpart_cpu::{CpuPartitioner, CpuRunReport};
use fpart_fpga::{OutputMode, RunReport};
use fpart_types::{FpartError, Input, PartitionedRelation, Result, Tuple};

use crate::engine::{EngineChoice, PartitionEngine, PartitionStats};

/// One attempt of the chain: which engine ran, in which output mode,
/// why it failed (if it did) and roughly how much simulated work the
/// abort discarded.
#[derive(Debug, Clone)]
pub struct AttemptRecord {
    /// The engine that ran.
    pub engine: EngineChoice,
    /// The output mode of the engine's FPGA side; `None` for the CPU.
    pub output: Option<OutputMode>,
    /// The error that aborted this attempt; `None` for the successful
    /// final attempt.
    pub error: Option<FpartError>,
    /// Estimated simulated FPGA cycles thrown away by the abort: the
    /// abandonment cycle for a link failure, the lines streamed before
    /// detection for a PAD overflow, 0 where the sim gives no handle.
    pub wasted_cycles: u64,
}

impl AttemptRecord {
    /// The engine's label, followed by its FPGA side's output mode:
    /// `fpga HIST`, `hybrid PAD` or `cpu`.
    pub fn label(&self) -> String {
        match self.output {
            Some(output) => format!("{} {}", self.engine.label(), output.label()),
            None => self.engine.label().to_string(),
        }
    }
}

/// The full story of one partitioning request through the chain.
#[derive(Debug, Clone)]
pub struct DegradationReport {
    /// Every attempt in order; the last one succeeded.
    pub attempts: Vec<AttemptRecord>,
    /// Statistics of the successful final attempt, whichever back-end
    /// produced it.
    pub stats: PartitionStats,
}

impl DegradationReport {
    /// Report of the successful FPGA run (or the FPGA share of a hybrid
    /// run), if one completed the request.
    pub fn fpga(&self) -> Option<&RunReport> {
        self.stats.fpga.as_ref()
    }

    /// Report of the CPU run (fallback or hybrid share), if one
    /// completed the request.
    pub fn cpu(&self) -> Option<&CpuRunReport> {
        self.stats.cpu.as_ref()
    }

    /// The attempt that finally produced the output.
    pub fn final_attempt(&self) -> &AttemptRecord {
        self.attempts
            .last()
            .expect("a report always has at least one attempt")
    }

    /// Whether any step had to abort (i.e. the first attempt was not the
    /// last).
    pub fn degraded(&self) -> bool {
        self.attempts.len() > 1
    }

    /// The error that triggered the first escalation, if any.
    pub fn first_error(&self) -> Option<&FpartError> {
        self.attempts.iter().find_map(|a| a.error.as_ref())
    }

    /// Total estimated simulated cycles discarded across all aborts.
    pub fn wasted_cycles(&self) -> u64 {
        self.attempts.iter().map(|a| a.wasted_cycles).sum()
    }

    /// The consumed-tuple points at which PAD overflows were detected
    /// (one entry per aborted PAD attempt).
    pub fn abort_points(&self) -> Vec<u64> {
        self.attempts
            .iter()
            .filter_map(|a| match a.error {
                Some(FpartError::PartitionOverflow { consumed, .. }) => Some(consumed as u64),
                _ => None,
            })
            .collect()
    }

    /// Number of BRAM soft errors (parity aborts) observed across all
    /// attempts of the chain.
    pub fn parity_events(&self) -> u64 {
        self.attempts
            .iter()
            .filter(|a| matches!(a.error, Some(FpartError::BramSoftError { .. })))
            .count() as u64
    }

    /// Number of PAD overflow aborts observed across all attempts.
    pub fn overflow_events(&self) -> u64 {
        self.abort_points().len() as u64
    }

    /// Roll the chain's own accounting into an observability counter set:
    /// attempt/waste totals plus per-fault-class event counts, on top of
    /// the counters of the run that completed the request
    /// ([`PartitionStats::obs`]: an FPGA run's snapshot, a CPU run's
    /// SWWCB counters, or both for a hybrid split), whichever engine it
    /// was. The fault-injection suite asserts injected faults are visible
    /// here.
    pub fn fault_counters(&self) -> fpart_obs::CounterSet {
        use fpart_obs::Ctr;
        let mut c = self.stats.obs().counters;
        c.set(Ctr::FallbackAttempts, self.attempts.len() as u64);
        c.set(Ctr::FallbackWastedCycles, self.wasted_cycles());
        c.set(Ctr::BramParityEvents, self.parity_events());
        c.set(Ctr::PadOverflowEvents, self.overflow_events());
        c
    }
}

/// Estimated simulated cycles an aborted run threw away.
fn wasted_estimate<T: Tuple>(err: &FpartError) -> u64 {
    match err {
        // The circuit streams ~one line per cycle; the overflow was
        // detected after `consumed` tuples entered the datapath.
        FpartError::PartitionOverflow { consumed, .. } => {
            (*consumed as u64).div_ceil(T::LANES as u64)
        }
        FpartError::LinkRetryExhausted { cycle, .. } => *cycle,
        // BRAM soft errors and unknown variants: the sim has no cycle
        // handle at the abort site.
        _ => 0,
    }
}

/// The ordered PAD → HIST → CPU escalation chain. Each step past the
/// first is optional; with both disabled the first error propagates
/// unchanged. The CPU-only chain of Section 4.5 is
/// `EscalationChain { hist_retry: false, ..EscalationChain::new(threads) }`.
#[derive(Debug, Clone)]
pub struct EscalationChain {
    /// Retry an aborted run in HIST output mode before giving up on the
    /// FPGA.
    pub hist_retry: bool,
    /// Fall back to the CPU partitioner as the last resort.
    pub cpu_fallback: bool,
    /// Threads for the CPU fallback.
    pub cpu_threads: usize,
}

impl EscalationChain {
    /// The full chain: HIST retry, then CPU fallback.
    pub fn new(cpu_threads: usize) -> Self {
        Self {
            hist_retry: true,
            cpu_fallback: true,
            cpu_threads,
        }
    }

    /// Drive a row store or a column store through the chain starting
    /// from any [`PartitionEngine`] (for the FPGA, its config, QPI model
    /// and armed fault plan all carry over into the HIST retry):
    ///
    /// 1. the engine itself,
    /// 2. its [`PartitionEngine::hist_fallback`] twin, when the engine
    ///    has one and `hist_retry` is enabled (CPU and HIST-first
    ///    engines have none, so nothing retries twice in HIST),
    /// 3. a CPU partitioner over the engine's partition function, when
    ///    `cpu_fallback` is enabled and the engine is not already the
    ///    CPU. A column store falls back as its `(key, position)` rows, so
    ///    VRID output survives every step.
    ///
    /// Every attempt record in the returned [`DegradationReport`] is
    /// constructed in one place (the private `try_engine` helper),
    /// whatever the back-end.
    ///
    /// # Errors
    /// [`FpartError::InvalidConfig`] propagates immediately (no retry
    /// fixes a bad config); otherwise the last error propagates when
    /// every enabled step has failed.
    pub fn run<'a, T: Tuple>(
        &self,
        engine: &dyn PartitionEngine<T>,
        input: impl Into<Input<'a, T>>,
    ) -> Result<(PartitionedRelation<T>, DegradationReport)> {
        let input = input.into();
        let mut attempts = Vec::new();

        let mut last_err = match Self::try_engine(&mut attempts, engine, input)? {
            Ok((parts, stats)) => return Ok((parts, DegradationReport { attempts, stats })),
            Err(e) => e,
        };

        if self.hist_retry {
            if let Some(hist) = engine.hist_fallback() {
                match Self::try_engine(&mut attempts, hist.as_ref(), input)? {
                    Ok((parts, stats)) => {
                        return Ok((parts, DegradationReport { attempts, stats }))
                    }
                    Err(e) => last_err = e,
                }
            }
        }

        if self.cpu_fallback && engine.choice().0 != EngineChoice::Cpu {
            let cpu = CpuPartitioner::new(engine.partition_fn(), self.cpu_threads);
            match Self::try_engine(&mut attempts, &cpu, input)? {
                Ok((parts, stats)) => return Ok((parts, DegradationReport { attempts, stats })),
                Err(e) => last_err = e,
            }
        }

        Err(last_err)
    }

    /// Run one attempt and record its outcome — the chain's single
    /// construction site for [`AttemptRecord`]s. The outer `Result`
    /// aborts the whole chain ([`FpartError::InvalidConfig`]); the inner
    /// one is this attempt's outcome.
    #[allow(clippy::type_complexity)]
    fn try_engine<T: Tuple>(
        attempts: &mut Vec<AttemptRecord>,
        engine: &dyn PartitionEngine<T>,
        input: Input<'_, T>,
    ) -> Result<std::result::Result<(PartitionedRelation<T>, PartitionStats), FpartError>> {
        let (choice, output) = engine.choice();
        match engine.partition(input) {
            Ok((parts, stats)) => {
                attempts.push(AttemptRecord {
                    engine: choice,
                    output,
                    error: None,
                    wasted_cycles: 0,
                });
                Ok(Ok((parts, stats)))
            }
            Err(e @ FpartError::InvalidConfig(_)) => Err(e),
            Err(e) => {
                attempts.push(AttemptRecord {
                    engine: choice,
                    output,
                    error: Some(e.clone()),
                    wasted_cycles: wasted_estimate::<T>(&e),
                });
                Ok(Err(e))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::HybridSplitEngine;
    use fpart_datagen::KeyDistribution;
    use fpart_fpga::{
        FpgaPartitioner, InputMode, OutputMode, PaddingSpec, PartitionerConfig, SimFidelity,
    };
    use fpart_hash::PartitionFn;
    use fpart_hwsim::{Fault, FaultPlan, QpiConfig};
    use fpart_types::{Relation, Tuple8};

    fn pad_cfg(bits: u32, pad: usize) -> PartitionerConfig {
        PartitionerConfig {
            partition_fn: PartitionFn::Murmur { bits },
            output: OutputMode::Pad {
                padding: PaddingSpec::Tuples(pad),
            },
            input: InputMode::Rid,
            fidelity: SimFidelity::CycleAccurate,
            obs: fpart_obs::ObsLevel::Off,
        }
    }

    fn skewed() -> Relation<Tuple8> {
        Relation::from_keys(&vec![7u32; 4096])
    }

    #[test]
    fn clean_run_reports_single_attempt() {
        let keys: Vec<u32> = KeyDistribution::Random.generate_keys(2048, 3);
        let rel = Relation::<Tuple8>::from_keys(&keys);
        let fpga = FpgaPartitioner::new(pad_cfg(4, 1024));
        let chain = EscalationChain::new(2);
        let (parts, report) = chain.run(&fpga, &rel).unwrap();
        assert_eq!(parts.total_valid(), 2048);
        assert!(!report.degraded());
        assert_eq!(report.final_attempt().label(), "fpga PAD");
        assert_eq!(report.wasted_cycles(), 0);
        assert!(report.fpga().is_some() && report.cpu().is_none());
    }

    #[test]
    fn overflow_escalates_to_hist() {
        let rel = skewed();
        let fpga = FpgaPartitioner::new(pad_cfg(6, 0));
        let chain = EscalationChain::new(2);
        let (parts, report) = chain.run(&fpga, &rel).unwrap();
        assert_eq!(parts.total_valid(), 4096);
        assert!(report.degraded());
        assert_eq!(report.final_attempt().label(), "fpga HIST");
        assert_eq!(report.attempts.len(), 2);
        assert!(matches!(
            report.first_error(),
            Some(FpartError::PartitionOverflow { .. })
        ));
        assert!(report.wasted_cycles() > 0, "the abort discarded work");
        assert_eq!(report.abort_points().len(), 1);
    }

    #[test]
    fn persistent_fault_falls_through_to_cpu() {
        // A histogram-BRAM soft error kills the HIST retry too; only the
        // CPU completes.
        let rel = skewed();
        let plan = FaultPlan::new().with(Fault::BramFlip {
            bram: fpart_hwsim::BramKind::Histogram,
            addr: 1,
        });
        let fpga = FpgaPartitioner::new(pad_cfg(6, 0)).with_faults(plan);
        let chain = EscalationChain::new(2);
        let (parts, report) = chain.run(&fpga, &rel).unwrap();
        assert_eq!(parts.total_valid(), 4096);
        assert_eq!(report.final_attempt().label(), "cpu");
        assert_eq!(report.attempts.len(), 3, "PAD, HIST, CPU all recorded");
        assert!(matches!(
            report.attempts[1].error,
            Some(FpartError::BramSoftError { .. })
        ));
        assert!(report.cpu().is_some() && report.fpga().is_none());
    }

    #[test]
    fn link_failure_escalates_like_overflow() {
        let keys: Vec<u32> = KeyDistribution::Random.generate_keys(2048, 5);
        let rel = Relation::<Tuple8>::from_keys(&keys);
        let plan = FaultPlan::new().with(Fault::QpiTransient {
            pass: fpart_hwsim::PassId::Scatter,
            op_index: 40,
            burst: 1000, // > replay budget → fatal
        });
        let fpga = FpgaPartitioner::with_qpi(pad_cfg(4, 1024), QpiConfig::unlimited(200e6))
            .with_faults(plan);
        // The fault plan re-arms per attempt, so the HIST retry's scatter
        // pass dies on the same op — the chain must reach the CPU.
        let chain = EscalationChain::new(2);
        let (parts, report) = chain.run(&fpga, &rel).unwrap();
        assert_eq!(parts.total_valid(), 2048);
        assert_eq!(report.final_attempt().label(), "cpu");
        assert!(matches!(
            report.attempts[0].error,
            Some(FpartError::LinkRetryExhausted { .. })
        ));
        assert!(
            report.attempts[0].wasted_cycles > 0,
            "abandonment cycle is the wasted-work estimate"
        );
    }

    #[test]
    fn disabled_steps_propagate_the_error() {
        let rel = skewed();
        let fpga = FpgaPartitioner::new(pad_cfg(6, 0));
        let chain = EscalationChain {
            hist_retry: false,
            cpu_fallback: false,
            cpu_threads: 2,
        };
        let err = chain.run(&fpga, &rel).unwrap_err();
        assert!(matches!(err, FpartError::PartitionOverflow { .. }));
    }

    #[test]
    fn hist_first_run_skips_hist_retry() {
        // A HIST-mode first attempt that dies on a histogram soft error
        // must not "retry in HIST" — it goes straight to the CPU.
        let keys: Vec<u32> = KeyDistribution::Random.generate_keys(1024, 9);
        let rel = Relation::<Tuple8>::from_keys(&keys);
        let cfg = PartitionerConfig {
            output: OutputMode::Hist,
            ..pad_cfg(4, 0)
        };
        let plan = FaultPlan::new().with(Fault::BramFlip {
            bram: fpart_hwsim::BramKind::Histogram,
            addr: 0,
        });
        let fpga = FpgaPartitioner::new(cfg).with_faults(plan);
        let chain = EscalationChain::new(2);
        let (_, report) = chain.run(&fpga, &rel).unwrap();
        assert_eq!(report.attempts.len(), 2, "HIST then CPU, no double HIST");
        assert_eq!(report.attempts[0].label(), "fpga HIST");
        assert_eq!(report.final_attempt().label(), "cpu");
    }

    #[test]
    fn split_overflow_retries_the_split_in_hist() {
        // Half of the fully skewed keys reach the split's zero-padded PAD
        // share, which overflows; the HIST retry keeps the split.
        let rel = skewed();
        let fpga = FpgaPartitioner::new(pad_cfg(6, 0));
        let split = HybridSplitEngine::new(fpga, 2).with_fraction(0.5);
        let (parts, report) = EscalationChain::new(2).run(&split, &rel).unwrap();
        assert_eq!(parts.total_valid(), 4096);
        let labels: Vec<_> = report.attempts.iter().map(AttemptRecord::label).collect();
        assert_eq!(labels, ["hybrid PAD", "hybrid HIST"]);
        assert!(matches!(
            report.first_error(),
            Some(FpartError::PartitionOverflow { .. })
        ));
    }
}
