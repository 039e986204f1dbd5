//! Extension figure: the cost of graceful degradation.
//!
//! Section 5.4 observes that a PAD overflow aborts at a *random* point
//! of the input and the request is re-served by a fallback path. The
//! fault-injection subsystem makes the abort point a controlled
//! variable, so this figure can chart what the paper could not measure:
//! recovery cost (wasted cycles + the fallback run) as a function of
//! *where* the PAD attempt dies, plus the behaviour of the full
//! PAD → HIST → CPU chain under a persistent link fault.
//!
//! A second table runs seeded fault campaigns — QPI CRC transients and
//! page-table retries drawn from [`FaultPlan::from_seed`] — and shows
//! the replay machinery absorbing the noise at a measured stall cost
//! while the output stays byte-identical.

use fpart::hwsim::PassId;
use fpart::prelude::*;

use crate::figures::common::{relation, scale_note};
use crate::table::{fnum, TextTable};
use crate::Scale;

/// Abort points swept, as fractions of the input.
pub const ABORT_AXIS: [f64; 5] = [0.10, 0.25, 0.50, 0.75, 0.90];

fn pad_config(bits: u32) -> PartitionerConfig {
    PartitionerConfig {
        partition_fn: PartitionFn::Murmur { bits },
        ..PartitionerConfig::paper_default(OutputMode::pad_default(), InputMode::Rid)
    }
}

/// Generate the degradation report.
pub fn run(scale: &Scale) -> Vec<TextTable> {
    let n = scale.scaled(16_000_000);
    let bits = scale.partition_bits_for(13);
    let rel = relation(n, KeyDistribution::Random, scale.seed);
    let config = pad_config(bits);
    let chain = EscalationChain::new(scale.host_threads);

    let (cpu_parts, _) =
        CpuPartitioner::new(config.partition_fn, scale.host_threads).partition(&rel);
    let (_, clean) = FpgaPartitioner::new(config.clone())
        .partition(&rel)
        .expect("fault-free PAD run");

    let mut cost = TextTable::new(
        "Degradation — recovery cost vs PAD abort point (injected overflow)",
        &[
            "abort at",
            "detected",
            "recovered via",
            "attempts",
            "wasted cyc",
            "recovery cyc",
            "overhead",
            "output",
        ],
    );
    for frac in ABORT_AXIS {
        let consumed = (n as f64 * frac) as u64;
        let plan = FaultPlan::new().with(Fault::PadOverflow { consumed });
        let p = FpgaPartitioner::new(config.clone()).with_faults(plan);
        let (parts, report) = chain.run(&p, &rel).expect("chain must recover");
        let recovery = report.fpga().map(|r| r.total_cycles()).unwrap_or(0);
        cost.row(vec![
            format!("{:.0}%", frac * 100.0),
            format!(
                "@{}",
                report.abort_points().first().copied().unwrap_or_default()
            ),
            report.final_attempt().label(),
            report.attempts.len().to_string(),
            report.wasted_cycles().to_string(),
            recovery.to_string(),
            fnum((report.wasted_cycles() + recovery) as f64 / clean.total_cycles() as f64),
            verdict(&parts, &cpu_parts),
        ]);
    }

    // A persistent fault: a CRC burst beyond the replay budget in the
    // scatter pass re-fires on the HIST retry too (the plan re-arms per
    // attempt), so only the CPU step can serve the request.
    let plan = FaultPlan::new().with(Fault::QpiTransient {
        pass: PassId::Scatter,
        op_index: (n as u64 / 16).max(8),
        burst: 1_000,
    });
    let p = FpgaPartitioner::new(config.clone()).with_faults(plan);
    let (parts, report) = chain.run(&p, &rel).expect("CPU step cannot fail");
    cost.row(vec![
        "link down".into(),
        format!("{} aborts", report.attempts.len() - 1),
        report.final_attempt().label(),
        report.attempts.len().to_string(),
        report.wasted_cycles().to_string(),
        "host".into(),
        "—".into(),
        verdict(&parts, &cpu_parts),
    ]);
    cost.note(format!(
        "fault-free PAD/RID baseline: {} cycles over {n} tuples, {} partitions",
        clean.total_cycles(),
        1usize << bits
    ));
    cost.note("overhead = (wasted + recovery cycles) / fault-free cycles; HIST recovery");
    cost.note("is flat in the abort point — only the wasted PAD prefix grows with it (§5.4)");
    cost.note(scale_note(scale));

    let mut noise = TextTable::new(
        "Degradation — seeded transient campaigns (QPI CRC replay + page-table retry)",
        &[
            "fault seed",
            "link errors",
            "replays",
            "stall cyc",
            "pt retries",
            "cycles",
            "slowdown",
            "output",
        ],
    );
    let spec = FaultSpec {
        qpi_transients_per_pass: 4,
        qpi_burst_max: 3,
        pagetable_transients: 2,
        op_window: (n as u64 / 4).max(64),
        ..FaultSpec::default()
    };
    for seed in [1u64, 2, 3] {
        let plan = FaultPlan::from_seed(seed, &spec);
        let p = FpgaPartitioner::new(config.clone()).with_faults(plan);
        let (parts, rep) = p.partition(&rel).expect("transients are absorbed");
        noise.row(vec![
            seed.to_string(),
            rep.qpi.link_errors.to_string(),
            rep.qpi.link_replays.to_string(),
            rep.qpi.replay_stall_cycles.to_string(),
            rep.obs.get(fpart::obs::Ctr::PtRetriesTotal).to_string(),
            rep.total_cycles().to_string(),
            fnum(rep.total_cycles() as f64 / clean.total_cycles() as f64),
            verdict(&parts, &cpu_parts),
        ]);
    }
    noise.note("transient CRC bursts within the replay budget cost stall cycles, never");
    noise.note("correctness; the same seed reproduces the identical campaign");

    vec![cost, noise]
}

fn verdict(parts: &PartitionedRelation<Tuple8>, cpu: &PartitionedRelation<Tuple8>) -> String {
    if parts.histogram() == cpu.histogram() {
        "= CPU".into()
    } else {
        "MISMATCH".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        Scale {
            fraction: 1.0 / 2048.0,
            host_threads: 2,
            seed: 9,
        }
    }

    /// Every swept abort point recovers via HIST with a CPU-identical
    /// histogram, and the wasted prefix grows with the abort point.
    #[test]
    fn sweep_recovers_via_hist_with_growing_waste() {
        let scale = tiny();
        let n = scale.scaled(16_000_000);
        let rel = relation(n, KeyDistribution::Random, scale.seed);
        let config = pad_config(scale.partition_bits_for(13));
        let chain = EscalationChain::new(2);
        let mut last_waste = 0;
        for frac in [0.25, 0.75] {
            let plan = FaultPlan::new().with(Fault::PadOverflow {
                consumed: (n as f64 * frac) as u64,
            });
            let p = FpgaPartitioner::new(config.clone()).with_faults(plan);
            let (_, report) = chain.run(&p, &rel).unwrap();
            assert_eq!(report.final_attempt().label(), "fpga HIST");
            assert!(report.wasted_cycles() > last_waste);
            last_waste = report.wasted_cycles();
        }
    }

    /// A replay burst beyond the budget re-fires on the HIST retry and
    /// pushes the chain all the way to the CPU.
    #[test]
    fn persistent_link_fault_falls_to_cpu() {
        let scale = tiny();
        let n = scale.scaled(16_000_000);
        let rel = relation(n, KeyDistribution::Random, scale.seed);
        let config = pad_config(scale.partition_bits_for(13));
        let plan = FaultPlan::new().with(Fault::QpiTransient {
            pass: PassId::Scatter,
            op_index: 8,
            burst: 1_000,
        });
        let p = FpgaPartitioner::new(config).with_faults(plan);
        let (parts, report) = EscalationChain::new(2).run(&p, &rel).unwrap();
        assert_eq!(report.final_attempt().label(), "cpu");
        assert_eq!(report.attempts.len(), 3);
        assert_eq!(parts.total_valid(), n);
    }
}
