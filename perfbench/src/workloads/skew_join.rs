//! `skew-join`: the planned radix join on one thread, built from the
//! public blocks (planner, plan run, build+probe) so that merging the
//! join drivers cannot break it. Workload A at scale 0.02 with S
//! Zipf-skewed at 1.25.

use fpart::datagen::WorkloadId;
use fpart::join::{build_probe_all, buildprobe::reference_join, BuildProbeReport};
use fpart::prelude::{
    DegradationReport, EnginePlanner, FpgaPartitioner, InputMode, ObsLevel, OutputMode,
    PartitionedRelation, PartitionerConfig, PlanExplanation, Relation, SimFidelity, Tuple8,
};

use super::{hash_ns_per_key, median_ms, PARTITION_FN, PROBE_REPS};
use crate::stats::median;
use crate::trace::Tracer;
use crate::workload::{Config, Exact, Workload};

/// Workload A scale at `--scale 1`: |R| = |S| = 2.56 M.
pub const SCALE: f64 = 0.02;
/// Zipf factor of S.
pub const ZIPF: f64 = 1.25;
/// Tuples of R the cycle-accurate tick-loop probe partitions.
pub const TICK_TUPLES: usize = 500_000;

/// Inputs and reference of `skew-join`.
pub struct SkewJoin {
    r: Relation<Tuple8>,
    s: Relation<Tuple8>,
    reference: (u64, u64),
}

/// One side of the join: what the planner decided and what the plan did.
pub type Side = (
    PlanExplanation,
    PartitionedRelation<Tuple8>,
    DegradationReport,
);

impl SkewJoin {
    /// Corrupt the reference result (for the failure-path test).
    pub fn corrupt_reference(&mut self) {
        self.reference.0 += 1;
    }
}

impl Workload for SkewJoin {
    type Output = (Side, Side, BuildProbeReport);

    fn setup(cfg: &Config, tr: &mut Tracer) -> Result<Self, String> {
        let (r, s) = tr.span("datagen.gen", |_| {
            WorkloadId::A
                .spec()
                .skewed_row_relations::<Tuple8>(SCALE * cfg.scale, ZIPF, cfg.seed)
        });
        let reference = tr.span("setup.reference", |_| {
            reference_join(r.tuples(), s.tuples())
        });
        Ok(Self { r, s, reference })
    }

    fn tuples(&self) -> u64 {
        (self.r.len() + self.s.len()) as u64
    }

    fn op(&self, tr: &mut Tracer) -> Result<Self::Output, String> {
        let planner = EnginePlanner::new(1);
        let (plan_r, plan_s) = tr.span("join.plan", |_| {
            (
                planner.plan(&self.r, PARTITION_FN),
                planner.plan(&self.s, PARTITION_FN),
            )
        });
        let (parts_r, report_r) = tr
            .span("join.partition_r", |_| plan_r.run(&self.r))
            .map_err(|e| e.to_string())?;
        let (parts_s, report_s) = tr
            .span("join.partition_s", |_| plan_s.run(&self.s))
            .map_err(|e| e.to_string())?;
        let joined = tr.span("join.build_probe", |_| {
            build_probe_all(&parts_r, &parts_s, PARTITION_FN.bits(), 1)
        });
        Ok((
            (plan_r.explanation, parts_r, report_r),
            (plan_s.explanation, parts_s, report_s),
            joined,
        ))
    }

    fn check(&self, (r, s, joined): Self::Output) -> Result<Exact, String> {
        if (joined.matches, joined.checksum) != self.reference {
            return Err(format!(
                "join gave (matches, checksum) = ({}, {}), reference ({}, {})",
                joined.matches, joined.checksum, self.reference.0, self.reference.1
            ));
        }
        let mut exact = Exact::new();
        let mut add = |k: &'static str, v: u64| *exact.entry(k).or_insert(0.0) += v as f64;
        let (mut predicted_s, mut simulated_s, mut fpga_tuples) = (0.0, 0.0, 0u64);
        for (plan, _, report) in [&r, &s] {
            add("join.chain_attempts", report.attempts.len() as u64);
            add("join.wasted_cycles", report.wasted_cycles());
            if let Some(run) = report.fpga() {
                add("fpga.sim_cycles", run.total_cycles());
                add("fpga.padding_slots", run.padding_slots);
                add("hwsim.qpi_lines_read", run.qpi.lines_read);
                add("hwsim.qpi_lines_written", run.qpi.lines_written);
                add("hwsim.read_stall_cycles", run.qpi.read_stall_cycles);
                add("hwsim.write_stall_cycles", run.qpi.write_stall_cycles);
                add("hwsim.translations", run.translations);
                predicted_s += plan.fpga_seconds;
                simulated_s += run.seconds();
                fpga_tuples += run.tuples;
            }
        }
        if simulated_s > 0.0 {
            exact.insert(
                "costmodel.fpga_err_pct",
                (predicted_s - simulated_s).abs() / simulated_s * 100.0,
            );
            exact.insert("sim_mtuples_per_s", fpga_tuples as f64 / simulated_s / 1e6);
        }
        Ok(exact)
    }

    fn sim_mtuples_per_s(&self, exact: &Exact) -> Result<f64, String> {
        exact
            .get("sim_mtuples_per_s")
            .copied()
            .ok_or_else(|| "the planner ran neither relation on the FPGA".into())
    }

    /// Besides hashing, times the cycle-accurate tick loop — the default
    /// fidelity of `fpart partition --backend fpga`, `fpart trace` and
    /// fault plans — on the first 500 000 tuples of R in HIST/RID, with
    /// observability off and at `Counters`, alternated so drift in host
    /// speed hits both levels.
    fn probes(&self) -> Vec<(&'static str, f64)> {
        let both: Vec<Tuple8> = [self.r.tuples(), self.s.tuples()].concat();
        let n = TICK_TUPLES.min(self.r.len());
        let slice = Relation::from_tuples(&self.r.tuples()[..n]);
        let fpga = |obs| {
            let config = PartitionerConfig {
                partition_fn: PARTITION_FN,
                ..PartitionerConfig::paper_default(OutputMode::Hist, InputMode::Rid)
            };
            FpgaPartitioner::new(
                config
                    .with_fidelity(SimFidelity::CycleAccurate)
                    .with_obs(obs),
            )
        };
        let (off, counters) = (fpga(ObsLevel::Off), fpga(ObsLevel::Counters));
        let cycles = off
            .partition(&slice)
            .map_or(0, |(_, run)| run.total_cycles());
        let (mut t_off, mut t_counters) = (Vec::new(), Vec::new());
        for _ in 0..PROBE_REPS {
            t_off.push(median_ms(1, || off.partition(&slice)));
            t_counters.push(median_ms(1, || counters.partition(&slice)));
        }
        let (t_off, t_counters) = (median(&t_off), median(&t_counters));
        vec![
            ("hash.ns_per_key", hash_ns_per_key(&both)),
            ("fpga.tick_ms", t_off),
            ("fpga.tick_ns_per_cycle", t_off * 1e6 / cycles.max(1) as f64),
            (
                "obs.counters_overhead_pct",
                (t_counters / t_off - 1.0) * 100.0,
            ),
        ]
    }
}
