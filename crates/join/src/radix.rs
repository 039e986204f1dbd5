//! The partitioned (radix) hash join — one driver for every back-end.
//!
//! The paper's hybrid join is the CPU radix join with one change: "the
//! partitioning happens on the FPGA and the build and probe phases of a
//! join happen on the CPU" (Abstract). So there is one driver,
//! [`radix_join`], over any [`PartitionEngine`]: with a
//! `CpuPartitioner` it is the software baseline of Figures 10–13, with
//! an `FpgaPartitioner` it is the hybrid join. Each input goes through
//! an [`EscalationChain`], which encodes the paper's reactions to a
//! PAD-mode abort: the CPU fallback of Section 4.5 and the HIST restart
//! of Section 5.4. [`planned_join`] lets an [`EnginePlanner`] pick the
//! engine per input. Both joins take row stores or column stores; a
//! column store is partitioned in VRID mode and late-materialised, the
//! column-store path of Section 5.2.
//!
//! The FPGA partitioner is the cycle-level simulation of `fpart-fpga`,
//! so its time is simulated at the circuit clock, while CPU work runs
//! for real on host threads. [`JoinReport`] keeps the two time domains
//! apart; the figure harness combines them with the platform cost
//! models (including the Section 2.2 coherence penalty, which cannot
//! manifest on a single-socket host).

use std::time::{Duration, Instant};

use fpart_fpga::InputMode;
use fpart_hash::PartitionFn;
use fpart_types::{FpartError, Input, PartitionedRelation, Result, Tuple};

use crate::buildprobe::{build_probe_all, BuildProbeReport};
use crate::engine::PartitionEngine;
use crate::fallback::{DegradationReport, EscalationChain};
use crate::materialize::{materialize_join_vrid, rows_checksum};
use crate::planner::{EnginePlanner, PlanExplanation};

/// The join output summary (the evaluation counts matches; materialising
/// output tuples is orthogonal to partitioning and identical for all
/// joins compared).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinResult {
    /// Matched (r, s) pairs.
    pub matches: u64,
    /// Order-insensitive payload checksum (see
    /// [`crate::buildprobe::BuildProbeReport::checksum`]).
    pub checksum: u64,
}

/// How a join ran: each input's path through the degradation chain, the
/// planner's reasoning when it chose the engines, and the build+probe
/// phase — the stacked bars of Figure 10.
#[derive(Debug, Clone)]
pub struct JoinReport {
    /// How R was partitioned.
    pub r: DegradationReport,
    /// How S was partitioned.
    pub s: DegradationReport,
    /// Why each input's engine was chosen (R, S), for [`planned_join`].
    pub plans: Option<(PlanExplanation, PlanExplanation)>,
    /// The measured build+probe phase.
    pub build_probe: BuildProbeReport,
}

impl JoinReport {
    /// Host wall time spent partitioning both inputs: CPU engines, the
    /// CPU share of a split, and CPU fallbacks. Simulated FPGA time is
    /// not included (see [`Self::simulated_partition_seconds`]).
    pub fn host_partition_time(&self) -> Duration {
        self.r.stats.wall_time().unwrap_or_default() + self.s.stats.wall_time().unwrap_or_default()
    }

    /// Simulated FPGA seconds spent partitioning both inputs at the
    /// circuit clock (0 when no FPGA run completed an input).
    pub fn simulated_partition_seconds(&self) -> f64 {
        self.r.stats.simulated_seconds().unwrap_or(0.0)
            + self.s.stats.simulated_seconds().unwrap_or(0.0)
    }

    /// Host wall time of the join: host partitioning plus build+probe.
    pub fn host_time(&self) -> Duration {
        self.host_partition_time() + self.build_probe.wall
    }

    /// Join throughput in million tuples/s over |R| + |S| (the metric of
    /// Section 5.2), in host time.
    pub fn mtuples_per_sec(&self) -> f64 {
        (self.r.stats.tuples() + self.s.stats.tuples()) as f64
            / self.host_time().as_secs_f64()
            / 1e6
    }

    /// Whether either input had to escalate past its first attempt.
    pub fn degraded(&self) -> bool {
        self.r.degraded() || self.s.degraded()
    }
}

/// Execute R ⋈ S on the key attribute: partition both inputs with
/// `engine` through `chain`, then build+probe on `chain.cpu_threads`
/// threads ("when we say 10-threaded join in the context of hybrid
/// joins, we mean that after the FPGA partitioning the CPU build+probe
/// phase is 10-threaded").
///
/// R and S are both row stores or both column stores. Column stores are
/// partitioned as `(key, position)` tuples (VRID mode on the FPGA) and the
/// matched rows are *late-materialised* against the payload columns —
/// "an additional cost that does not occur in RID mode", included in the
/// build+probe wall time. The checksum is over the dereferenced
/// payloads, so it equals the RID-mode checksum of the same rows.
///
/// # Errors
/// [`FpartError::InvalidConfig`] if one input is a row store and the
/// other a column store, if either is run-length encoded, or if an FPGA
/// engine's input mode does not match the inputs. Otherwise a back-end
/// error propagates only when every enabled chain step failed; a chain
/// with `cpu_fallback` cannot fail.
pub fn radix_join<'r, 's, T: Tuple>(
    engine: &dyn PartitionEngine<T>,
    chain: &EscalationChain,
    r: impl Into<Input<'r, T>>,
    s: impl Into<Input<'s, T>>,
) -> Result<(JoinResult, JoinReport)> {
    let (r, s) = (r.into(), s.into());
    same_layout(&r, &s)?;
    let (rp, r_report) = chain.run(engine, r)?;
    let (sp, s_report) = chain.run(engine, s)?;
    let bits = engine.partition_fn().bits();
    let bp = build_probe(&rp, &sp, r, s, bits, chain.cpu_threads);
    Ok(finish(r_report, s_report, None, bp))
}

/// Execute R ⋈ S, planning each input independently with `planner`
/// (a small R can take the CPU while a large S takes the FPGA). Inputs
/// are as for [`radix_join`]; column stores are planned in VRID mode.
///
/// # Errors
/// [`FpartError::InvalidConfig`] for mixed row and column inputs or a
/// run-length-encoded input. Otherwise a back-end error propagates only
/// when the planned chain has every fallback disabled; the default chain
/// cannot fail.
pub fn planned_join<'r, 's, T: Tuple>(
    planner: &EnginePlanner,
    f: PartitionFn,
    r: impl Into<Input<'r, T>>,
    s: impl Into<Input<'s, T>>,
) -> Result<(JoinResult, JoinReport)> {
    let (r, s) = (r.into(), s.into());
    same_layout(&r, &s)?;
    let r_plan = planner.plan(r, f);
    let s_plan = planner.plan(s, f);
    let (rp, r_report) = r_plan.run(r)?;
    let (sp, s_report) = s_plan.run(s)?;
    let bp = build_probe(&rp, &sp, r, s, f.bits(), planner.cpu_threads);
    let plans = Some((r_plan.explanation, s_plan.explanation));
    Ok(finish(r_report, s_report, plans, bp))
}

/// Reject, before any partitioning, a row store joined with a column
/// store, and a run-length-encoded column, which has no payload columns
/// to materialise.
fn same_layout<T: Tuple>(r: &Input<'_, T>, s: &Input<'_, T>) -> Result<()> {
    let msg = match (r, s) {
        (Input::Rle { .. }, _) | (_, Input::Rle { .. }) => "a run-length-encoded column",
        _ if InputMode::of(r) != InputMode::of(s) => "a row store with a column store",
        _ => return Ok(()),
    };
    Err(FpartError::InvalidConfig(format!(
        "cannot join {msg}: R and S must both be row stores or both plain column stores"
    )))
}

/// Build+probe the partitioned inputs; for column stores, materialise
/// the matched rows through their positions.
fn build_probe<T: Tuple>(
    rp: &PartitionedRelation<T>,
    sp: &PartitionedRelation<T>,
    r: Input<'_, T>,
    s: Input<'_, T>,
    bits: u32,
    threads: usize,
) -> BuildProbeReport {
    let (Input::Columns { column: r_cols, .. }, Input::Columns { column: s_cols, .. }) = (r, s)
    else {
        return build_probe_all(rp, sp, bits, threads);
    };
    let t0 = Instant::now();
    let rows = materialize_join_vrid(rp, sp, r_cols, s_cols, bits, threads);
    BuildProbeReport {
        matches: rows.len() as u64,
        checksum: rows_checksum(&rows),
        wall: t0.elapsed(),
        threads,
    }
}

fn finish(
    r: DegradationReport,
    s: DegradationReport,
    plans: Option<(PlanExplanation, PlanExplanation)>,
    build_probe: BuildProbeReport,
) -> (JoinResult, JoinReport) {
    let result = JoinResult {
        matches: build_probe.matches,
        checksum: build_probe.checksum,
    };
    let report = JoinReport {
        r,
        s,
        plans,
        build_probe,
    };
    (result, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buildprobe::reference_join;
    use fpart_cpu::CpuPartitioner;
    use fpart_datagen::WorkloadId;
    use fpart_types::{Relation, Tuple8};

    fn cpu_join(
        f: PartitionFn,
        r: &Relation<Tuple8>,
        s: &Relation<Tuple8>,
    ) -> (JoinResult, JoinReport) {
        radix_join(&CpuPartitioner::new(f, 2), &EscalationChain::new(2), r, s).unwrap()
    }

    #[test]
    fn planned_join_agrees_with_fixed_join() {
        let (r, s) = WorkloadId::A.spec().row_relations::<Tuple8>(0.0001, 19);
        let f = PartitionFn::Murmur { bits: 6 };
        let (p_result, p_report) = planned_join(&EnginePlanner::new(2), f, &r, &s).unwrap();
        let (c_result, _) = cpu_join(f, &r, &s);
        assert_eq!(p_result, c_result);
        assert_eq!(p_report.r.stats.tuples(), r.len() as u64);
        assert_eq!(p_report.s.stats.tuples(), s.len() as u64);
    }

    #[test]
    fn joins_workload_a_correctly() {
        let (r, s) = WorkloadId::A.spec().row_relations::<Tuple8>(0.0001, 11);
        let (result, report) = cpu_join(PartitionFn::Murmur { bits: 6 }, &r, &s);
        let (m, c) = reference_join(r.tuples(), s.tuples());
        assert_eq!(result.matches, m);
        assert_eq!(result.checksum, c);
        assert_eq!(result.matches, s.len() as u64, "FK join matches |S|");
        assert!(report.host_time() > Duration::ZERO);
        assert!(report.mtuples_per_sec() > 0.0);
    }

    #[test]
    fn radix_and_hash_partitioning_agree() {
        let (r, s) = WorkloadId::D.spec().row_relations::<Tuple8>(0.00005, 3);
        let radix = cpu_join(PartitionFn::Radix { bits: 5 }, &r, &s);
        let hash = cpu_join(PartitionFn::Murmur { bits: 5 }, &r, &s);
        assert_eq!(radix.0, hash.0, "join result is partitioning-invariant");
    }

    #[test]
    fn skewed_probe_side() {
        let (r, s) = WorkloadId::A
            .spec()
            .skewed_row_relations::<Tuple8>(0.0001, 1.0, 17);
        let (result, _) = cpu_join(PartitionFn::Murmur { bits: 6 }, &r, &s);
        let (m, c) = reference_join(r.tuples(), s.tuples());
        assert_eq!((result.matches, result.checksum), (m, c));
    }
}
