//! Planner accuracy: does [`EnginePlanner`] pick the back-end that the
//! ground truth (the batched circuit simulation for the FPGA, the
//! calibrated Section 4.6 model for the paper's 10-core host) would
//! crown the winner?
//!
//! The sweep crosses tuple counts with the four key distributions at a
//! 4-thread CPU budget — a host where neither back-end dominates, so the
//! planner has a real crossover to find: the FPGA's fixed setup latency
//! hands small inputs to the CPU, its bandwidth hands large ones to the
//! circuit.

use fpart::prelude::*;
use fpart_costmodel::cpu::DistributionKind;

use crate::figures::common::{relation, scale_note};
use crate::table::{fnum, TextTable};
use crate::Scale;

/// CPU threads the planner budgets for — few enough that the simulated
/// FPGA overtakes the CPU once its setup latency amortizes.
const PLANNER_THREADS: usize = 4;

fn distribution_kind(dist: KeyDistribution) -> DistributionKind {
    match dist {
        KeyDistribution::Linear => DistributionKind::Linear,
        KeyDistribution::Random => DistributionKind::Random,
        KeyDistribution::Grid => DistributionKind::Grid,
        KeyDistribution::ReverseGrid => DistributionKind::ReverseGrid,
    }
}

/// One sweep point: what the planner predicted and what the ground
/// truth measured.
pub struct AccuracyPoint {
    /// Input size in tuples.
    pub n: usize,
    /// Key distribution of the input.
    pub dist: KeyDistribution,
    /// The planner's full reasoning for this input.
    pub explanation: fpart::PlanExplanation,
    /// Ground-truth FPGA seconds: the batched simulation of the planned
    /// output mode over the actual keys.
    pub fpga_sim_seconds: f64,
    /// Host seconds this point took to plan and simulate.
    pub wall_s: f64,
}

impl AccuracyPoint {
    /// The back-end the ground truth crowns: the calibrated CPU model
    /// against the simulated circuit.
    pub fn measured_winner(&self) -> EngineChoice {
        if self.fpga_sim_seconds < self.explanation.cpu_seconds {
            EngineChoice::Fpga
        } else {
            EngineChoice::Cpu
        }
    }

    /// Measured seconds of the back-end the planner picked.
    pub fn picked_seconds(&self) -> f64 {
        match self.explanation.engine {
            EngineChoice::Cpu => self.explanation.cpu_seconds,
            _ => self.fpga_sim_seconds,
        }
    }

    /// Relative time lost by following the plan instead of the measured
    /// winner (0 when the planner picked the winner).
    pub fn regret(&self) -> f64 {
        let best = self.explanation.cpu_seconds.min(self.fpga_sim_seconds);
        self.picked_seconds() / best - 1.0
    }

    /// Did the planner pick the measured winner — or a back-end within
    /// 10% of it? Near the crossover the two back-ends tie and the
    /// nominal winner is noise; what a planner must avoid is picking a
    /// back-end that *costs* something.
    pub fn agrees(&self) -> bool {
        self.explanation.engine == self.measured_winner() || self.regret() <= 0.10
    }
}

/// Run the sweep: tuple counts × distributions, one plan and one
/// ground-truth simulation per point.
pub fn sweep(scale: &Scale) -> Vec<AccuracyPoint> {
    let n_full = scale.n_128m();
    let bits = scale.partition_bits_for(13);
    let f = PartitionFn::Murmur { bits };
    let counts = [n_full / 64, n_full / 16, n_full / 4, n_full];

    let mut axis = Vec::new();
    for &n in &counts {
        for dist in KeyDistribution::ALL {
            axis.push((n.max(1024), dist));
        }
    }
    // A PAD overflow restarts in HIST mode (Section 5.4) and never
    // reaches the CPU, so the ground truth includes that cost.
    let chain = EscalationChain {
        cpu_fallback: false,
        ..EscalationChain::new(PLANNER_THREADS)
    };
    crate::par::par_map(axis, crate::par::default_workers(), move |(n, dist)| {
        let t0 = std::time::Instant::now();
        let rel = relation(n, dist, scale.seed);
        let plan = EnginePlanner::new(PLANNER_THREADS)
            .with_distribution(distribution_kind(dist))
            .plan(&rel, f);
        let explanation = plan.explanation.clone();
        // Ground truth for the FPGA side: simulate the planned output
        // mode over the actual keys.
        let sim = FpgaPartitioner::with_modes(f, explanation.output, InputMode::Rid);
        let (_, report) = chain.run(&sim, &rel).expect("HIST handles any skew");
        AccuracyPoint {
            n,
            dist,
            explanation,
            fpga_sim_seconds: report.fpga().expect("no CPU fallback").seconds(),
            wall_s: t0.elapsed().as_secs_f64(),
        }
    })
}

/// Fraction of sweep points where the planner picked the measured
/// winner.
pub fn agreement(points: &[AccuracyPoint]) -> f64 {
    if points.is_empty() {
        return 1.0;
    }
    points.iter().filter(|p| p.agrees()).count() as f64 / points.len() as f64
}

/// Generate the planner-accuracy report.
pub fn run(scale: &Scale) -> Vec<TextTable> {
    let points = sweep(scale);

    let mut t = TextTable::new(
        format!(
            "Planner accuracy — planned vs measured winner, {PLANNER_THREADS}-thread CPU budget, \
             {} partitions",
            1u64 << scale.partition_bits_for(13)
        ),
        &[
            "tuples",
            "dist",
            "output",
            "cpu model ms",
            "fpga model ms",
            "fpga sim ms",
            "planned",
            "measured",
            "regret",
            "agree",
        ],
    );
    for p in &points {
        let e = &p.explanation;
        let label = format!("{} {}", p.n, p.dist.label());
        crate::record::emit(
            "planner",
            &label,
            p.n as f64 / e.cpu_seconds.min(p.fpga_sim_seconds) / 1e6,
            0,
            p.wall_s,
        );
        t.row(vec![
            p.n.to_string(),
            p.dist.label().into(),
            e.output.label().into(),
            fnum(e.cpu_seconds * 1e3),
            fnum(e.fpga_seconds * 1e3),
            fnum(p.fpga_sim_seconds * 1e3),
            e.engine.label().into(),
            p.measured_winner().label().into(),
            format!("{:.1}%", p.regret() * 100.0),
            if p.agrees() { "yes" } else { "NO" }.into(),
        ]);
    }
    let agree = agreement(&points);
    t.note(format!(
        "planner agreement {:.0}% over {} points (acceptance floor: 90%)",
        agree * 100.0,
        points.len()
    ));
    t.note(
        "measured = calibrated CPU model vs batched circuit simulation; the planner only ever \
         sees the analytic models. A point agrees when the planned back-end is the measured \
         winner or within 10% of it (near the crossover the nominal winner is noise).",
    );
    t.note(scale_note(scale));
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance bar: the planner names the measured winner on at
    /// least 90% of the sweep, and the sweep must include both winners
    /// (otherwise the bar is trivially cleared).
    #[test]
    fn planner_agrees_with_measurement_on_ninety_percent() {
        let scale = Scale {
            fraction: 1.0 / 64.0,
            host_threads: 2,
            seed: 3,
        };
        let points = sweep(&scale);
        assert_eq!(points.len(), 16);
        let agree = agreement(&points);
        let disagreements: Vec<String> = points
            .iter()
            .filter(|p| !p.agrees())
            .map(|p| {
                format!(
                    "{} {}: planned {} measured {} (regret {:.1}%)",
                    p.n,
                    p.dist.label(),
                    p.explanation.engine.label(),
                    p.measured_winner().label(),
                    p.regret() * 100.0
                )
            })
            .collect();
        assert!(
            agree >= 0.9,
            "agreement {:.0}%: {disagreements:?}",
            agree * 100.0
        );
        let winners: std::collections::BTreeSet<&str> =
            points.iter().map(|p| p.measured_winner().label()).collect();
        assert!(
            winners.len() > 1,
            "sweep never crossed over — only {winners:?} won"
        );
    }
}
