//! End-to-end tests of the fault-injection subsystem and the
//! PAD → HIST → CPU graceful-degradation chain, including the
//! acceptance scenario: a fault plan that forces a PAD overflow halfway
//! through the input must complete via the HIST (or CPU) path with a
//! histogram identical to a fault-free CPU run, and the same plan must
//! reproduce the identical degradation report twice.

use fpart::fpga::{
    FpgaPartitioner, InputMode, ObsLevel, OutputMode, PaddingSpec, PartitionerConfig,
};
use fpart::hwsim::{Fault, FaultPlan, FaultSpec};
use fpart::join::fallback::{AttemptRecord, DegradationReport, EscalationChain};
use fpart::prelude::*;
use fpart::types::SplitMix64;
use fpart_datagen::dist::{foreign_keys, zipf_foreign_keys, KeyDistribution};

fn pad_cfg(bits: u32, pad: usize) -> PartitionerConfig {
    let output = OutputMode::Pad {
        padding: PaddingSpec::Tuples(pad),
    };
    PartitionerConfig {
        partition_fn: PartitionFn::Murmur { bits },
        ..PartitionerConfig::paper_default(output, InputMode::Rid)
    }
}

/// Comparable essence of a degradation report (the report type itself
/// carries wall-clock CPU timings, which never reproduce exactly).
fn report_fingerprint(r: &DegradationReport) -> Vec<(String, Option<String>, u64)> {
    r.attempts
        .iter()
        .map(|a: &AttemptRecord| {
            (
                a.label(),
                a.error.as_ref().map(|e| format!("{e:?}")),
                a.wasted_cycles,
            )
        })
        .collect()
}

/// Property: a Zipf-skewed relation driven through the full chain always
/// yields a histogram identical to a direct CPU run, regardless of which
/// path completes the request.
#[test]
fn zipf_chain_histogram_equals_cpu() {
    let mut rng = SplitMix64::seed_from_u64(0xFA17_0001);
    for _ in 0..12 {
        let bits = 3 + rng.below_u64(4) as u32;
        let factor = 0.75 + rng.next_f64() * 1.25; // Zipf 0.75..2.0
        let n = 1500 + rng.below_u64(3000) as usize;
        let pad = rng.below_u64(8) as usize;
        let seed = rng.next_u64();

        let r_keys: Vec<u32> = KeyDistribution::Random.generate_keys(512, seed);
        let keys = zipf_foreign_keys(&r_keys, n, factor, seed ^ 0x5a5a);
        let rel = Relation::<Tuple8>::from_keys(&keys);

        let f = PartitionFn::Murmur { bits };
        let fpga = FpgaPartitioner::new(pad_cfg(bits, pad));
        let chain = EscalationChain::new(2);
        let (parts, report) = chain.run(&fpga, &rel).unwrap();

        let (cpu_parts, _) = CpuPartitioner::new(f, 2).partition(&rel);
        assert_eq!(
            parts.histogram(),
            cpu_parts.histogram(),
            "chain ended on {} with factor {factor:.2}",
            report.final_attempt().label()
        );
        assert_eq!(parts.total_valid(), n);
    }
}

/// A chain with both fallbacks off propagates the overflow unchanged — same
/// variant, same fields — with no hidden retry.
#[test]
fn fail_policy_propagates_overflow_unchanged() {
    let keys = vec![42u32; 4096]; // full skew, zero padding → overflow
    let rel = Relation::<Tuple8>::from_keys(&keys);
    let fpga = FpgaPartitioner::new(pad_cfg(6, 0));

    // Reference: the raw error from a bare run.
    let direct_err = fpga.partition(&rel).unwrap_err();
    assert!(matches!(direct_err, FpartError::PartitionOverflow { .. }));

    let chain = EscalationChain {
        hist_retry: false,
        cpu_fallback: false,
        cpu_threads: 2,
    };
    let chained_err = chain.run(&fpga, &rel).unwrap_err();
    assert_eq!(chained_err, direct_err, "Fail must not transform the error");
}

/// The acceptance scenario: force a PAD overflow at 50% of consumed
/// tuples, run the engine through `EscalationChain::run`, and
/// check path, histogram and report reproducibility.
#[test]
fn injected_midpoint_overflow_degrades_and_reproduces() {
    let n = 8192usize;
    let keys: Vec<u32> = KeyDistribution::Random.generate_keys(n, 77);
    let rel = Relation::<Tuple8>::from_keys(&keys);
    let f = PartitionFn::Murmur { bits: 5 };

    // Fault-free CPU reference.
    let (cpu_parts, _) = CpuPartitioner::new(f, 2).partition(&rel);

    let plan = FaultPlan::new().with(Fault::PadOverflow {
        consumed: n as u64 / 2,
    });
    let run = || {
        let p = FpgaPartitioner::new(pad_cfg(5, 64)).with_faults(plan.clone());
        EscalationChain::new(2).run(&p, &rel).unwrap()
    };

    let (parts, report) = run();
    // The request completed via the HIST retry (the PAD overflow does not
    // reoccur in HIST mode) — or via the CPU if HIST also degraded.
    assert!(report.degraded(), "the injected overflow must abort PAD");
    assert_eq!(report.attempts[0].label(), "fpga PAD");
    assert!(matches!(
        report.final_attempt().label().as_str(),
        "fpga HIST" | "cpu"
    ));
    assert_eq!(report.final_attempt().label(), "fpga HIST");

    // Output histogram equals the fault-free CPU run.
    assert_eq!(parts.histogram(), cpu_parts.histogram());
    assert_eq!(parts.total_valid(), n);

    // The report records the abort point (at or shortly after 50%).
    let points = report.abort_points();
    assert_eq!(points.len(), 1);
    assert!(
        points[0] >= n as u64 / 2 && points[0] < n as u64 / 2 + 64,
        "abort detected at {} of {n}",
        points[0]
    );
    assert!(report.wasted_cycles() > 0);
    assert!(matches!(
        report.first_error(),
        Some(FpartError::PartitionOverflow { .. })
    ));

    // Same plan, same input → the identical report, field for field.
    let (_, report2) = run();
    assert_eq!(report_fingerprint(&report), report_fingerprint(&report2));
}

/// Every injected fault that a run survives must be visible in the
/// observability snapshot, with counts matching the plan exactly, and
/// the snapshot must still satisfy every conservation law.
#[test]
fn injected_faults_are_visible_in_counters() {
    use fpart::hwsim::PassId;
    use fpart::obs::Ctr;

    let keys: Vec<u32> = KeyDistribution::Random.generate_keys(8192, 13);
    let rel = Relation::<Tuple8>::from_keys(&keys);
    // Two scatter-pass link transients (bursts 2 and 3) plus one
    // page-table transient absorbing 3 retries.
    let plan = FaultPlan::new()
        .with(Fault::QpiTransient {
            pass: PassId::Scatter,
            op_index: 100,
            burst: 2,
        })
        .with(Fault::QpiTransient {
            pass: PassId::Scatter,
            op_index: 500,
            burst: 3,
        })
        .with(Fault::PageTableTransient {
            translation_index: 7,
            retries: 3,
        });

    let cfg = pad_cfg(5, 512).with_obs(ObsLevel::Counters);
    let (_, report) = FpgaPartitioner::new(cfg)
        .with_faults(plan)
        .partition(&rel)
        .expect("transients are survivable");

    let obs = &report.obs;
    assert_eq!(obs.get(Ctr::QpiLinkErrors), 2, "one per transient");
    assert_eq!(obs.get(Ctr::QpiLinkReplays), 5, "sum of the bursts");
    assert_eq!(obs.get(Ctr::PtRetryEvents), 1);
    assert_eq!(obs.get(Ctr::PtRetriesTotal), 3);
    // The snapshot agrees with the legacy report fields.
    assert_eq!(obs.get(Ctr::QpiLinkErrors), report.qpi.link_errors);
    assert_eq!(obs.get(Ctr::QpiLinkReplays), report.qpi.link_replays);
    // Faults distort timing, never the conservation laws.
    fpart::obs::asserts::assert_conserved(obs);
}

/// A degradation run exposes its fault history through the report's
/// counter view: parity aborts, overflow aborts and attempt counts.
#[test]
fn parity_events_visible_in_degradation_report() {
    use fpart::obs::Ctr;

    // Skewed input + zero padding overflows PAD; the histogram-BRAM flip
    // then kills the HIST retry, so only the CPU completes.
    let r_keys: Vec<u32> = KeyDistribution::Random.generate_keys(256, 3);
    let keys = zipf_foreign_keys(&r_keys, 4096, 1.5, 0xBAD);
    let rel = Relation::<Tuple8>::from_keys(&keys);
    let plan = FaultPlan::new().with(Fault::BramFlip {
        bram: fpart::hwsim::BramKind::Histogram,
        addr: 1,
    });
    let fpga = FpgaPartitioner::new(pad_cfg(6, 0)).with_faults(plan);
    let (parts, report) = EscalationChain::new(2).run(&fpga, &rel).unwrap();
    assert_eq!(parts.total_valid(), 4096);
    assert_eq!(report.final_attempt().label(), "cpu");

    assert_eq!(report.parity_events(), 1, "the HIST retry hit the flip");
    assert_eq!(report.overflow_events(), 1, "the PAD attempt overflowed");
    let counters = report.fault_counters();
    assert_eq!(counters.get(Ctr::FallbackAttempts), 3, "PAD, HIST, CPU");
    assert_eq!(counters.get(Ctr::BramParityEvents), 1);
    assert_eq!(counters.get(Ctr::PadOverflowEvents), 1);
    assert_eq!(
        counters.get(Ctr::FallbackWastedCycles),
        report.wasted_cycles()
    );
    assert!(report.wasted_cycles() > 0, "both aborts discarded work");
    assert!(
        counters.get(Ctr::SwwcbNtLines) > 0,
        "the CPU run that completed the request merges its SWWCB counters"
    );
}

/// Seeded fault campaigns reproduce end to end: the same
/// `FaultPlan::from_seed` against the same relation yields identical
/// outcomes and identical link/retry counters.
#[test]
fn seeded_campaign_is_reproducible() {
    let keys: Vec<u32> = foreign_keys(
        &KeyDistribution::Random.generate_keys::<u32>(256, 5),
        4096,
        6,
    );
    let rel = Relation::<Tuple8>::from_keys(&keys);
    let spec = FaultSpec {
        qpi_transients_per_pass: 3,
        pagetable_transients: 2,
        ..FaultSpec::default()
    };

    for seed in [1u64, 99, 0xFA17] {
        let outcome = |()| {
            let plan = FaultPlan::from_seed(seed, &spec);
            FpgaPartitioner::new(pad_cfg(4, 512))
                .with_faults(plan)
                .partition(&rel)
                .map(|(parts, rep)| {
                    (
                        parts.histogram().to_vec(),
                        rep.qpi.link_errors,
                        rep.qpi.link_replays,
                        rep.qpi.replay_stall_cycles,
                        rep.obs.get(fpart::obs::Ctr::PtRetriesTotal),
                        rep.total_cycles(),
                    )
                })
        };
        assert_eq!(outcome(()), outcome(()), "seed {seed} must reproduce");
    }
}
