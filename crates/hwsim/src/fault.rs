//! Seeded, deterministic fault injection for the simulated platform.
//!
//! The paper's robustness story is graceful degradation: PAD mode
//! "aborts and falls back to a CPU based partitioner" on overflow
//! (Section 4.5), and the shared QPI link carries link-level CRC with
//! replay. This module makes those failure modes *testable* by letting a
//! caller schedule faults at precise points of a simulated run:
//!
//! * **QPI transient line errors** — a flit fails CRC and is replayed
//!   with a latency penalty; a burst longer than the replay budget
//!   aborts the transfer
//!   ([`FpartError::LinkRetryExhausted`](fpart_types::FpartError));
//! * **page-table transient faults** — a translation parity-checks dirty
//!   and is retried internally (counted, never fatal);
//! * **BRAM soft errors** — a stored bit flips in the histogram or
//!   fill-rate BRAM and the parity checker on the read port reports it
//!   ([`FpartError::BramSoftError`](fpart_types::FpartError));
//! * **injected PAD overflows** — the counter of the partition of the
//!   tuple after a chosen number of input tuples is forced over its
//!   preassigned capacity, which exercises the PAD → HIST → CPU escalation chain at
//!   a *controlled* abort point ("the detection time … is random",
//!   Section 5.4 — here it is whatever the experiment needs).
//!
//! Everything is deterministic: a [`FaultPlan`] is either built
//! explicitly or derived from a seed via [`FaultPlan::from_seed`], and
//! the same plan against the same input reproduces the same failure,
//! cycle for cycle.

use std::collections::VecDeque;

use fpart_types::SplitMix64;

/// Which pass of a two-pass partitioning run a fault belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PassId {
    /// The read-only histogram pass (HIST mode's first pass).
    Histogram,
    /// The scatter pass (the only pass in PAD mode).
    Scatter,
}

/// Which on-chip BRAM a soft error hits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BramKind {
    /// The histogram BRAM of the first pass (Section 4.5).
    Histogram,
    /// The write combiners' fill-rate BRAM (Section 4.2), read for every
    /// tuple: a flipped address is detected at the first tuple of its
    /// partition.
    FillRate,
}

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The `op_index`-th granted QPI line operation (reads and writes
    /// counted together, per pass) fails CRC `burst` times in a row
    /// before going through.
    QpiTransient {
        /// Which pass the faulty operation belongs to.
        pass: PassId,
        /// Index of the line operation, counting grants from 0.
        op_index: u64,
        /// Consecutive CRC failures; each costs a replay penalty, and a
        /// burst beyond the replay budget aborts the transfer.
        burst: u32,
    },
    /// The `translation_index`-th page-table translation parity-checks
    /// dirty and is retried `retries` times before succeeding.
    PageTableTransient {
        /// Index of the translation, counting from 0.
        translation_index: u64,
        /// Internal retries absorbed by the table.
        retries: u32,
    },
    /// A soft error flips a bit of BRAM cell `addr`; detected by the
    /// parity checker when that address is next read.
    BramFlip {
        /// Which BRAM is hit.
        bram: BramKind,
        /// The corrupted address (taken modulo the BRAM size).
        addr: usize,
    },
    /// Once `consumed` input tuples have entered the circuit, force the
    /// PAD-mode counter of the next tuple's partition over capacity: the
    /// run aborts there, reporting that partition and `consumed`.
    PadOverflow {
        /// Consumed-tuple threshold at which the overflow fires.
        consumed: u64,
    },
}

/// Knobs for deriving a random [`FaultPlan`] from a seed.
#[derive(Debug, Clone)]
pub struct FaultSpec {
    /// QPI transients to schedule per pass.
    pub qpi_transients_per_pass: u32,
    /// Largest CRC burst a transient may have (bursts are drawn in
    /// `1..=max`).
    pub qpi_burst_max: u32,
    /// Page-table transients to schedule.
    pub pagetable_transients: u32,
    /// BRAM soft errors to schedule (kind and address drawn at random).
    pub bram_flips: u32,
    /// Whether to schedule one PAD overflow at a random point.
    pub pad_overflow: bool,
    /// Window (in line operations / translations) the fault points are
    /// drawn from — roughly the length of the run being attacked.
    pub op_window: u64,
    /// Window (in consumed tuples) the PAD overflow point is drawn from.
    pub tuple_window: u64,
}

impl Default for FaultSpec {
    fn default() -> Self {
        Self {
            qpi_transients_per_pass: 2,
            qpi_burst_max: 3,
            pagetable_transients: 1,
            bram_flips: 0,
            pad_overflow: false,
            op_window: 1024,
            tuple_window: 8192,
        }
    }
}

/// A deterministic schedule of faults for one partitioning run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a fault to the plan (builder style).
    pub fn with(mut self, fault: Fault) -> Self {
        self.faults.push(fault);
        self
    }

    /// Add a fault to the plan.
    pub fn push(&mut self, fault: Fault) {
        self.faults.push(fault);
    }

    /// The scheduled faults.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Derive a plan from a seed. The same `(seed, spec)` pair always
    /// yields the identical plan — fault campaigns are reproducible by
    /// quoting a single integer.
    pub fn from_seed(seed: u64, spec: &FaultSpec) -> Self {
        let mut rng = SplitMix64::seed_from_u64(seed).split(0xFA17);
        let mut plan = Self::new();
        for pass in [PassId::Histogram, PassId::Scatter] {
            for _ in 0..spec.qpi_transients_per_pass {
                plan.push(Fault::QpiTransient {
                    pass,
                    op_index: rng.below_u64(spec.op_window.max(1)),
                    burst: 1 + rng.below_u64(spec.qpi_burst_max.max(1) as u64) as u32,
                });
            }
        }
        for _ in 0..spec.pagetable_transients {
            plan.push(Fault::PageTableTransient {
                translation_index: rng.below_u64(spec.op_window.max(1)),
                retries: 1 + rng.below_u64(3) as u32,
            });
        }
        for _ in 0..spec.bram_flips {
            let bram = if rng.next_bool() {
                BramKind::Histogram
            } else {
                BramKind::FillRate
            };
            plan.push(Fault::BramFlip {
                bram,
                addr: rng.below_u64(1 << 10) as usize,
            });
        }
        if spec.pad_overflow {
            plan.push(Fault::PadOverflow {
                consumed: rng.below_u64(spec.tuple_window.max(1)),
            });
        }
        plan
    }
}

/// QPI link-replay parameters plus the per-pass schedule of transients,
/// handed to a [`QpiEndpoint`](crate::QpiEndpoint) via
/// [`inject_faults`](crate::QpiEndpoint::inject_faults).
#[derive(Debug, Clone)]
pub struct QpiFaultSchedule {
    /// Transients as `(op_index, burst)`, sorted by `op_index`.
    pub faults: VecDeque<(u64, u32)>,
    /// Stall cycles each replay costs.
    pub replay_penalty: u32,
    /// Replays the link attempts before abandoning a transfer.
    pub replay_limit: u32,
}

/// Default replay penalty in cycles (a QPI round trip).
pub const DEFAULT_REPLAY_PENALTY: u32 = 20;
/// Default replay budget before a transfer is abandoned.
pub const DEFAULT_REPLAY_LIMIT: u32 = 8;

impl QpiFaultSchedule {
    /// A schedule with the default replay parameters.
    pub fn new(mut faults: Vec<(u64, u32)>) -> Self {
        faults.sort_unstable_by_key(|&(op, _)| op);
        Self {
            faults: faults.into(),
            replay_penalty: DEFAULT_REPLAY_PENALTY,
            replay_limit: DEFAULT_REPLAY_LIMIT,
        }
    }
}

/// Splits a [`FaultPlan`] into the per-site schedules the components
/// consume. Construction is pure bookkeeping; the injector holds no
/// mutable run state, so one injector can arm any number of runs with
/// the identical schedule.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
}

impl FaultInjector {
    /// An injector over a plan.
    pub fn new(plan: FaultPlan) -> Self {
        Self { plan }
    }

    /// QPI schedule for one pass (empty schedule if no transients target
    /// it).
    pub fn qpi_schedule(&self, pass: PassId) -> QpiFaultSchedule {
        let faults = self
            .plan
            .faults
            .iter()
            .filter_map(|f| match *f {
                Fault::QpiTransient {
                    pass: p,
                    op_index,
                    burst,
                } if p == pass => Some((op_index, burst)),
                _ => None,
            })
            .collect();
        QpiFaultSchedule::new(faults)
    }

    /// Page-table transients as `(translation_index, retries)`, sorted.
    pub fn pagetable_schedule(&self) -> Vec<(u64, u32)> {
        let mut v: Vec<(u64, u32)> = self
            .plan
            .faults
            .iter()
            .filter_map(|f| match *f {
                Fault::PageTableTransient {
                    translation_index,
                    retries,
                } => Some((translation_index, retries)),
                _ => None,
            })
            .collect();
        v.sort_unstable_by_key(|&(i, _)| i);
        v
    }

    /// Addresses poisoned in the given BRAM.
    pub fn bram_flips(&self, kind: BramKind) -> Vec<usize> {
        self.plan
            .faults
            .iter()
            .filter_map(|f| match *f {
                Fault::BramFlip { bram, addr } if bram == kind => Some(addr),
                _ => None,
            })
            .collect()
    }

    /// The earliest scheduled PAD-overflow point, if any.
    pub fn pad_overflow_at(&self) -> Option<u64> {
        self.plan
            .faults
            .iter()
            .filter_map(|f| match *f {
                Fault::PadOverflow { consumed } => Some(consumed),
                _ => None,
            })
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_seed_is_reproducible() {
        let spec = FaultSpec {
            bram_flips: 2,
            pad_overflow: true,
            ..FaultSpec::default()
        };
        let a = FaultPlan::from_seed(99, &spec);
        let b = FaultPlan::from_seed(99, &spec);
        let c = FaultPlan::from_seed(100, &spec);
        assert_eq!(a, b, "same seed, same plan");
        assert_ne!(a, c, "different seed, different plan");
        assert!(!a.is_empty());
    }

    #[test]
    fn injector_splits_by_site() {
        let plan = FaultPlan::new()
            .with(Fault::QpiTransient {
                pass: PassId::Scatter,
                op_index: 7,
                burst: 2,
            })
            .with(Fault::QpiTransient {
                pass: PassId::Histogram,
                op_index: 3,
                burst: 1,
            })
            .with(Fault::PageTableTransient {
                translation_index: 11,
                retries: 2,
            })
            .with(Fault::BramFlip {
                bram: BramKind::FillRate,
                addr: 5,
            })
            .with(Fault::PadOverflow { consumed: 4096 });
        let inj = FaultInjector::new(plan);
        assert_eq!(
            inj.qpi_schedule(PassId::Scatter).faults,
            VecDeque::from(vec![(7u64, 2u32)])
        );
        assert_eq!(
            inj.qpi_schedule(PassId::Histogram).faults,
            VecDeque::from(vec![(3u64, 1u32)])
        );
        assert_eq!(inj.pagetable_schedule(), vec![(11, 2)]);
        assert_eq!(inj.bram_flips(BramKind::FillRate), vec![5]);
        assert!(inj.bram_flips(BramKind::Histogram).is_empty());
        assert_eq!(inj.pad_overflow_at(), Some(4096));
    }

    #[test]
    fn schedules_are_sorted() {
        let plan = FaultPlan::new()
            .with(Fault::QpiTransient {
                pass: PassId::Scatter,
                op_index: 90,
                burst: 1,
            })
            .with(Fault::QpiTransient {
                pass: PassId::Scatter,
                op_index: 10,
                burst: 1,
            });
        let sched = FaultInjector::new(plan).qpi_schedule(PassId::Scatter);
        assert_eq!(sched.faults, VecDeque::from(vec![(10u64, 1u32), (90, 1)]));
    }

    #[test]
    fn earliest_pad_overflow_wins() {
        let plan = FaultPlan::new()
            .with(Fault::PadOverflow { consumed: 500 })
            .with(Fault::PadOverflow { consumed: 100 });
        assert_eq!(FaultInjector::new(plan).pad_overflow_at(), Some(100));
    }
}
