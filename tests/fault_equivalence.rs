//! Differential tests: fault plans on both simulator fidelities.
//!
//! Every `Fault` kind alone, and seeded `FaultSpec` campaigns with BRAM
//! flips and a PAD overflow, run over HIST/PAD × RID/VRID on the batched
//! fast path and on the cycle-accurate tick loop. The two must agree on
//! the outcome (the same error, naming the same BRAM address or
//! overflowing partition), on the attempts of the degradation chain, on
//! the injected-fault counters, on every partition's contents, and on
//! the cycle count within the fast path's equivalence slack.

use fpart::fpga::{FpgaPartitioner, InputMode, OutputMode, PartitionerConfig, SimFidelity};
use fpart::hwsim::{BramKind, Fault, FaultPlan, FaultSpec, PassId};
use fpart::join::fallback::{AttemptRecord, DegradationReport, EscalationChain};
use fpart::obs::Ctr;
use fpart::prelude::*;
use fpart_datagen::KeyDistribution;

/// Tuples per run: enough line operations and translations that every
/// fault point drawn from `FaultSpec::default().op_window` lands inside
/// the run on either fidelity.
const N: usize = 6000;

/// The fast path's cycle slack against the tick loop, as in the
/// fault-free equivalence tests: warm-up window plus ~8 %.
fn assert_cycles_close(label: &str, batched: u64, cycle: u64) {
    let slack = 768 + cycle / 12;
    assert!(
        batched.abs_diff(cycle) <= slack,
        "{label}: batched {batched} vs cycle-accurate {cycle} cycles (slack {slack})"
    );
}

/// The part of an error both fidelities must agree on: its variant and
/// the BRAM address or overflowing partition it names. The overflow's
/// `consumed` and the link abort's cycle are detection times, which the
/// batched path estimates.
fn outcome_key(e: &FpartError) -> String {
    match e {
        FpartError::PartitionOverflow { partition, .. } => format!("overflow of {partition}"),
        FpartError::LinkRetryExhausted { retries, .. } => format!("link abort after {retries}"),
        other => format!("{other:?}"),
    }
}

/// What a run's report must reproduce across fidelities: the injected
/// faults' counters.
const FAULT_COUNTERS: [Ctr; 4] = [
    Ctr::QpiLinkErrors,
    Ctr::QpiLinkReplays,
    Ctr::PtRetryEvents,
    Ctr::PtRetriesTotal,
];

/// Per-partition `(key, payload)` multisets.
fn contents(parts: &PartitionedRelation<Tuple8>) -> Vec<Vec<(u32, u32)>> {
    (0..parts.num_partitions())
        .map(|p| {
            let mut v: Vec<_> = parts
                .partition_tuples(p)
                .map(|t| (t.key, t.payload))
                .collect();
            v.sort_unstable();
            v
        })
        .collect()
}

/// Run `plan` over `keys` in one mode pair on both fidelities, directly
/// and through `EscalationChain::new(2)`, and check that they agree.
fn check_keys(label: &str, keys: &[u32], output: OutputMode, input: InputMode, plan: &FaultPlan) {
    let rows = Relation::<Tuple8>::from_keys(keys);
    let cols = ColumnRelation::<Tuple8>::from_keys(keys);
    let data: Input<'_, Tuple8> = match input {
        InputMode::Rid => (&rows).into(),
        InputMode::Vrid => (&cols).into(),
    };
    let label = format!("{label} {}", fpart::fpga::mode_label(output, input));
    let run = |fidelity| {
        let config = PartitionerConfig {
            partition_fn: PartitionFn::Murmur { bits: 5 },
            ..PartitionerConfig::paper_default(output, input)
        }
        .with_fidelity(fidelity);
        let p = FpgaPartitioner::new(config).with_faults(plan.clone());
        (p.partition(data), EscalationChain::new(2).run(&p, data))
    };
    let (b, b_chain) = run(SimFidelity::Batched);
    let (c, c_chain) = run(SimFidelity::CycleAccurate);

    match (&b, &c) {
        (Ok((b_parts, b_rep)), Ok((c_parts, c_rep))) => {
            assert_eq!(contents(b_parts), contents(c_parts), "{label}: contents");
            for ctr in FAULT_COUNTERS {
                let (bv, cv) = (b_rep.obs.get(ctr), c_rep.obs.get(ctr));
                assert_eq!(bv, cv, "{label}: {}", ctr.name());
            }
            assert_cycles_close(&label, b_rep.total_cycles(), c_rep.total_cycles());
        }
        (Err(be), Err(ce)) => assert_eq!(outcome_key(be), outcome_key(ce), "{label}"),
        _ => panic!(
            "{label}: batched {:?} vs cycle-accurate {:?}",
            b.as_ref().map(|_| "ok"),
            c.as_ref().map(|_| "ok")
        ),
    }

    let attempts =
        |chain: &fpart::types::Result<(PartitionedRelation<Tuple8>, DegradationReport)>| {
            let (_, report) = chain.as_ref().expect("the CPU step cannot fail");
            (report.attempts.iter())
                .map(|a: &AttemptRecord| (a.label(), a.error.as_ref().map(outcome_key)))
                .collect::<Vec<_>>()
        };
    assert_eq!(attempts(&b_chain), attempts(&c_chain), "{label}: chain");
}

/// [`check_keys`] over `N` random keys.
fn check(label: &str, output: OutputMode, input: InputMode, plan: &FaultPlan) {
    let keys = KeyDistribution::Random.generate_keys::<u32>(N, 7);
    check_keys(label, &keys, output, input, plan);
}

const MODES: [(OutputMode, InputMode); 4] = [
    (OutputMode::Hist, InputMode::Rid),
    (OutputMode::Hist, InputMode::Vrid),
    (
        OutputMode::Pad {
            padding: fpart::fpga::PaddingSpec::Fraction(0.15),
        },
        InputMode::Rid,
    ),
    (
        OutputMode::Pad {
            padding: fpart::fpga::PaddingSpec::Fraction(0.15),
        },
        InputMode::Vrid,
    ),
];

#[test]
fn each_fault_kind_alone_agrees() {
    let qpi = |pass, op_index, burst| Fault::QpiTransient {
        pass,
        op_index,
        burst,
    };
    let faults = [
        ("hist transient", qpi(PassId::Histogram, 10, 3)),
        ("scatter transient", qpi(PassId::Scatter, 100, 2)),
        ("transient past the run", qpi(PassId::Scatter, 1 << 40, 2)),
        ("fatal hist burst", qpi(PassId::Histogram, 50, 1000)),
        ("fatal scatter burst", qpi(PassId::Scatter, 300, 1000)),
        (
            "page-table transient",
            Fault::PageTableTransient {
                translation_index: 5,
                retries: 2,
            },
        ),
        (
            "histogram flip",
            Fault::BramFlip {
                bram: BramKind::Histogram,
                addr: 35,
            },
        ),
        (
            "fill-rate flip",
            Fault::BramFlip {
                bram: BramKind::FillRate,
                addr: 19,
            },
        ),
        ("pad overflow", Fault::PadOverflow { consumed: 2048 }),
        ("pad overflow at 0", Fault::PadOverflow { consumed: 0 }),
        (
            "pad overflow past the run",
            Fault::PadOverflow { consumed: N as u64 },
        ),
    ];
    for (label, fault) in faults {
        for (output, input) in MODES {
            check(label, output, input, &FaultPlan::new().with(fault));
        }
    }
}

/// Seeded campaigns: QPI and page-table transients (bursts within the
/// replay budget) alone, then with two BRAM flips and a PAD overflow.
#[test]
fn seeded_campaigns_agree() {
    let transients = FaultSpec::default();
    let fatal = FaultSpec {
        bram_flips: 2,
        pad_overflow: true,
        tuple_window: N as u64,
        ..FaultSpec::default()
    };
    for (spec, what) in [(transients, "transients"), (fatal, "flips + overflow")] {
        for seed in 0..64 {
            let plan = FaultPlan::from_seed(seed, &spec);
            for (output, input) in MODES {
                check(&format!("{what}, seed {seed}"), output, input, &plan);
            }
        }
    }
}

/// A natural PAD overflow and an injected abort in one run: the first in
/// input order ends it on both fidelities. (Within a few lines of each
/// other the ticked write-back, which meets a natural overflow some lines
/// after its tuple, may report the injected abort instead.)
#[test]
fn natural_and_injected_aborts_agree_when_lines_apart() {
    // Every third tuple has one key: its partition overflows near tuple
    // 1250 of the 6000.
    let mut keys = KeyDistribution::Random.generate_keys::<u32>(N, 7);
    keys.iter_mut().step_by(3).for_each(|k| *k = 12_345);
    for (label, fault) in [
        ("injected first", Fault::PadOverflow { consumed: 301 }),
        ("natural first", Fault::PadOverflow { consumed: 4000 }),
        (
            "flip first",
            Fault::BramFlip {
                bram: BramKind::FillRate,
                addr: 7,
            },
        ),
    ] {
        for (output, input) in &MODES[2..] {
            check_keys(label, &keys, *output, *input, &FaultPlan::new().with(fault));
        }
    }
}
