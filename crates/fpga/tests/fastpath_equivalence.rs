//! Differential tests: the batched fast path ([`SimFidelity::Batched`])
//! against the cycle-accurate engine.
//!
//! The equivalence contract (documented on [`SimFidelity`]): identical
//! per-partition tuple contents, valid counts, written counts, capacities
//! and padding overhead. Within a partition the batched path writes the
//! valid tuples first and the flush dummies after them, while the ticked
//! engine's round-robin write-back interleaves lanes and dummies by
//! arbitration, so the comparison is per-partition multisets — the same
//! definition every other cross-backend test in this repository uses. Cycle counts must agree to
//! within the analytic model's documented slack (token-bucket warm-up +
//! pipeline fill).

use fpart_datagen::KeyDistribution;
use fpart_fpga::{
    FpgaPartitioner, InputMode, OutputMode, PaddingSpec, PartitionerConfig, RunReport, SimFidelity,
};
use fpart_hash::PartitionFn;
use fpart_hwsim::QpiConfig;
use fpart_types::{
    ColumnRelation, FpartError, PartitionedRelation, Relation, SplitMix64, Tuple, Tuple16, Tuple64,
    Tuple8,
};

/// A cycle-accurate configuration: each test switches its batched twin
/// with `with_fidelity(SimFidelity::Batched)`.
fn config(bits: u32, output: OutputMode, input: InputMode) -> PartitionerConfig {
    PartitionerConfig {
        partition_fn: PartitionFn::Murmur { bits },
        ..PartitionerConfig::paper_default(output, input)
    }
    .with_fidelity(SimFidelity::CycleAccurate)
}

/// Relative + absolute cycle tolerance between the analytic model and the
/// ticked engine: the token bucket warm-up window (`mix_update_interval`),
/// pipeline fill and flush-drain tails.
fn assert_cycles_close(label: &str, batched: u64, cycle: u64) {
    let abs = batched.abs_diff(cycle);
    let slack = 768 + cycle / 12; // warm-up window + ~8 % relative
    assert!(
        abs <= slack,
        "{label}: batched {batched} vs cycle-accurate {cycle} cycles (diff {abs} > slack {slack})"
    );
}

/// The full equivalence contract between two runs of the same job.
fn assert_equivalent<T: Tuple>(
    label: &str,
    (b_out, b_rep): &(PartitionedRelation<T>, fpart_fpga::RunReport),
    (c_out, c_rep): &(PartitionedRelation<T>, fpart_fpga::RunReport),
) where
    T::K: Ord + std::fmt::Debug,
{
    assert_eq!(b_out.num_partitions(), c_out.num_partitions(), "{label}");
    assert_eq!(b_out.total_valid(), c_out.total_valid(), "{label}");
    for p in 0..b_out.num_partitions() {
        assert_eq!(
            b_out.partition_valid(p),
            c_out.partition_valid(p),
            "{label}: valid count of partition {p}"
        );
        assert_eq!(
            b_out.partition_written(p),
            c_out.partition_written(p),
            "{label}: written count of partition {p}"
        );
        assert_eq!(
            b_out.partition_capacity(p),
            c_out.partition_capacity(p),
            "{label}: capacity of partition {p}"
        );
        let mut b: Vec<(T::K, u64)> = b_out
            .partition_tuples(p)
            .map(|t| (t.key(), t.payload_word()))
            .collect();
        let mut c: Vec<(T::K, u64)> = c_out
            .partition_tuples(p)
            .map(|t| (t.key(), t.payload_word()))
            .collect();
        b.sort_unstable();
        c.sort_unstable();
        assert_eq!(b, c, "{label}: tuple multiset of partition {p}");
    }
    assert_eq!(
        b_rep.padding_slots, c_rep.padding_slots,
        "{label}: flush padding"
    );
    assert_eq!(b_rep.mode, c_rep.mode, "{label}");
    assert_eq!(b_rep.tuples, c_rep.tuples, "{label}");
    // Link volume is structural: same lines read and written.
    assert_eq!(
        b_rep.qpi.lines_read, c_rep.qpi.lines_read,
        "{label}: lines read"
    );
    assert_eq!(
        b_rep.qpi.lines_written, c_rep.qpi.lines_written,
        "{label}: lines written"
    );
    // Structural observability counters — data volumes, not timing — must
    // be bit-identical between the analytic and ticked engines. Timing
    // counters (cycles, stall/idle splits) are only close, and are covered
    // by assert_cycles_close below.
    for ctr in STRUCTURAL_COUNTERS {
        assert_eq!(
            b_rep.obs.get(ctr),
            c_rep.obs.get(ctr),
            "{label}: obs counter {}",
            ctr.name()
        );
    }
    assert_cycles_close(label, b_rep.total_cycles(), c_rep.total_cycles());
}

/// Counters that count data movement rather than time: both fidelities
/// must agree on them exactly.
const STRUCTURAL_COUNTERS: [fpart_obs::Ctr; 12] = [
    fpart_obs::Ctr::TuplesIn,
    fpart_obs::Ctr::TuplesOut,
    fpart_obs::Ctr::PaddingSlots,
    fpart_obs::Ctr::InputLines,
    fpart_obs::Ctr::LinesWritten,
    fpart_obs::Ctr::HistLinesRead,
    fpart_obs::Ctr::CombTuplesIn,
    fpart_obs::Ctr::CombLinesOut,
    fpart_obs::Ctr::CombFlushLines,
    fpart_obs::Ctr::WbLinesEmitted,
    fpart_obs::Ctr::QpiLinesRead,
    fpart_obs::Ctr::QpiLinesWritten,
];

/// Sweep modes × bits × distributions × sizes with a seeded generator.
/// This is the satellite "proptest over modes {HIST,PAD}×{RID,VRID},
/// partition bits 1..13, and skewed/linear keys" — implemented with the
/// repository's deterministic SplitMix64 style (no external proptest
/// dependency is available in this environment).
#[test]
fn batched_matches_cycle_accurate_sweep() {
    let mut rng = SplitMix64::seed_from_u64(0xFA57_0001);
    for round in 0..24 {
        let bits = 1 + rng.below_u64(13) as u32;
        let hist = rng.next_bool();
        let vrid = rng.next_bool();
        let n = 1 + rng.below_u64(6000) as usize;
        let dist_pick = rng.below_u64(5);
        let keys: Vec<u32> = match dist_pick {
            0 => KeyDistribution::Linear.generate_keys(n, round),
            1 => KeyDistribution::Random.generate_keys(n, round),
            2 => KeyDistribution::Grid.generate_keys(n, round),
            // Heavy skew: all keys drawn from a tiny domain.
            3 => (0..n).map(|_| rng.below_u64(7) as u32 + 1).collect(),
            // Constant key: the worst case for PAD.
            _ => vec![42; n],
        };
        let output = if hist {
            OutputMode::Hist
        } else {
            // Generous padding so skewed draws don't abort — overflow
            // equivalence has its own test below.
            OutputMode::Pad {
                padding: PaddingSpec::Fraction(30.0),
            }
        };
        let input = if vrid {
            InputMode::Vrid
        } else {
            InputMode::Rid
        };
        let cfg = config(bits, output, input);
        let label = format!(
            "round {round}: {} bits={bits} n={n} dist={dist_pick}",
            cfg.mode_label()
        );

        let cycle = FpgaPartitioner::new(cfg.clone());
        let batched = FpgaPartitioner::new(cfg.with_fidelity(SimFidelity::Batched));
        if vrid {
            let col = ColumnRelation::<Tuple8>::from_keys(&keys);
            let b = batched.partition(&col);
            let c = cycle.partition(&col);
            assert_same_outcome(&label, b, c);
        } else {
            let rel = Relation::<Tuple8>::from_keys(&keys);
            let b = batched.partition(&rel);
            let c = cycle.partition(&rel);
            assert_same_outcome(&label, b, c);
        }
    }
}

/// Both fidelities must agree on the run's *outcome*: either both succeed
/// and are equivalent, or both abort with a PAD overflow of the same
/// partition (heavily skewed draws at high fan-out legitimately overflow).
fn assert_same_outcome<T: Tuple>(
    label: &str,
    batched: fpart_types::Result<(PartitionedRelation<T>, fpart_fpga::RunReport)>,
    cycle: fpart_types::Result<(PartitionedRelation<T>, fpart_fpga::RunReport)>,
) where
    T::K: Ord + std::fmt::Debug,
{
    match (batched, cycle) {
        (Ok(b), Ok(c)) => assert_equivalent(label, &b, &c),
        (
            Err(FpartError::PartitionOverflow { partition: bp, .. }),
            Err(FpartError::PartitionOverflow { partition: cp, .. }),
        ) => assert_eq!(bp, cp, "{label}: same overflowing partition"),
        (b, c) => panic!(
            "{label}: fidelities disagree on outcome: batched {:?} vs cycle-accurate {:?}",
            b.map(|_| "ok").map_err(|e| e.to_string()),
            c.map(|_| "ok").map_err(|e| e.to_string()),
        ),
    }
}

#[test]
fn edge_sizes_match() {
    // Empty input, single tuple, one-short / exact / one-past a cache
    // line — the boundary cases of the line batching.
    for n in [0usize, 1, 7, 8, 9, 64, 1003] {
        for output in [OutputMode::Hist, OutputMode::pad_default()] {
            let keys: Vec<u32> = KeyDistribution::Random.generate_keys(n, n as u64 + 1);
            let rel = Relation::<Tuple8>::from_keys(&keys);
            let cfg = config(4, output, InputMode::Rid);
            let label = format!("n={n} {}", cfg.mode_label());
            let c = FpgaPartitioner::new(cfg.clone()).partition(&rel).unwrap();
            let b = FpgaPartitioner::new(cfg.with_fidelity(SimFidelity::Batched))
                .partition(&rel)
                .unwrap();
            assert_equivalent(&label, &b, &c);
        }
    }
}

#[test]
fn wide_tuples_match() {
    let keys: Vec<u64> = KeyDistribution::Random.generate_keys(3000, 5);
    let cfg = config(5, OutputMode::Hist, InputMode::Rid);
    let r16 = Relation::<Tuple16>::from_keys(&keys);
    let c = FpgaPartitioner::new(cfg.clone()).partition(&r16).unwrap();
    let b = FpgaPartitioner::new(cfg.clone().with_fidelity(SimFidelity::Batched))
        .partition(&r16)
        .unwrap();
    assert_equivalent("Tuple16/HIST", &b, &c);

    let cfg = config(5, OutputMode::pad_default(), InputMode::Rid);
    let r64 = Relation::<Tuple64>::from_keys(&keys);
    let c = FpgaPartitioner::new(cfg.clone()).partition(&r64).unwrap();
    let b = FpgaPartitioner::new(cfg.with_fidelity(SimFidelity::Batched))
        .partition(&r64)
        .unwrap();
    assert_equivalent("Tuple64/PAD", &b, &c);
}

#[test]
fn rle_input_matches() {
    use fpart_types::RleColumn;
    let mut keys: Vec<u32> = (0..20_000u32).map(|i| i % 300).collect();
    keys.sort_unstable();
    let column = RleColumn::encode(&keys);
    let cfg = config(6, OutputMode::Hist, InputMode::Vrid);
    let c = FpgaPartitioner::new(cfg.clone())
        .partition::<Tuple8>(&column)
        .unwrap();
    let b = FpgaPartitioner::new(cfg.with_fidelity(SimFidelity::Batched))
        .partition::<Tuple8>(&column)
        .unwrap();
    assert_equivalent("RLE/HIST/VRID", &b, &c);
}

#[test]
fn pad_overflow_agrees_on_partition() {
    // Fully skewed input with zero padding: both fidelities must abort
    // with PartitionOverflow on the same partition. The `consumed`
    // detection point is timing-dependent in the ticked engine (Section
    // 5.4 calls the real detection time random), so only the variant and
    // partition are part of the contract.
    let keys = vec![7u32; 4096];
    let rel = Relation::<Tuple8>::from_keys(&keys);
    let cfg = config(
        6,
        OutputMode::Pad {
            padding: PaddingSpec::Tuples(0),
        },
        InputMode::Rid,
    );
    let c_err = FpgaPartitioner::new(cfg.clone())
        .partition(&rel)
        .unwrap_err();
    let b_err = FpgaPartitioner::new(cfg.with_fidelity(SimFidelity::Batched))
        .partition(&rel)
        .unwrap_err();
    match (&b_err, &c_err) {
        (
            FpartError::PartitionOverflow {
                partition: bp,
                capacity: bc,
                ..
            },
            FpartError::PartitionOverflow {
                partition: cp,
                capacity: cc,
                ..
            },
        ) => {
            assert_eq!(bp, cp, "same overflowing partition");
            assert_eq!(bc, cc, "same reported capacity");
        }
        other => panic!("expected two overflows, got {other:?}"),
    }
}

#[test]
fn histogram_only_matches() {
    let keys: Vec<u32> = KeyDistribution::Grid.generate_keys(10_000, 9);
    let rel = Relation::<Tuple8>::from_keys(&keys);
    let cfg = config(5, OutputMode::Hist, InputMode::Rid);
    let (c_hist, c_cycles) = FpgaPartitioner::new(cfg.clone())
        .histogram_only(&rel)
        .unwrap();
    let (b_hist, b_cycles) = FpgaPartitioner::new(cfg.with_fidelity(SimFidelity::Batched))
        .histogram_only(&rel)
        .unwrap();
    assert_eq!(b_hist, c_hist, "identical histograms");
    assert_cycles_close("histogram_only", b_cycles, c_cycles);
}

#[test]
fn armed_fault_plan_runs_batched() {
    use fpart_hwsim::{Fault, FaultPlan, PassId, DEFAULT_REPLAY_PENALTY};
    // Batched fidelity + armed plan stays on the fast path: the scheduled
    // transient is charged, and its replay stalls lengthen the analytic
    // run by exactly burst × penalty cycles.
    let keys: Vec<u32> = KeyDistribution::Random.generate_keys(4096, 3);
    let rel = Relation::<Tuple8>::from_keys(&keys);
    let cfg = config(4, OutputMode::Hist, InputMode::Rid).with_fidelity(SimFidelity::Batched);
    let plan = FaultPlan::new().with(Fault::QpiTransient {
        pass: PassId::Scatter,
        op_index: 100,
        burst: 2,
    });
    let (_, clean) = FpgaPartitioner::new(cfg.clone()).partition(&rel).unwrap();
    let (_, report) = FpgaPartitioner::new(cfg)
        .with_faults(plan)
        .partition(&rel)
        .unwrap();
    assert_eq!(report.qpi.link_errors, 1, "the fault plan executed");
    assert_eq!(report.qpi.link_replays, 2);
    let stall = 2 * u64::from(DEFAULT_REPLAY_PENALTY);
    assert_eq!(report.qpi.replay_stall_cycles, stall);
    assert_eq!(report.total_cycles(), clean.total_cycles() + stall);
}

#[test]
fn counter_totals_conserve_at_both_fidelities() {
    // With metrics enabled, both engines must publish snapshots that
    // satisfy every conservation law, and the fault-event counters of a
    // clean run must be zero — the fast path must not invent events the
    // ticked engine never saw.
    let keys: Vec<u32> = KeyDistribution::Random.generate_keys(8192, 21);
    let rel = Relation::<Tuple8>::from_keys(&keys);
    for output in [OutputMode::Hist, OutputMode::pad_default()] {
        let cfg = config(5, output, InputMode::Rid).with_obs(fpart_obs::ObsLevel::Counters);
        let (_, c) = FpgaPartitioner::new(cfg.clone()).partition(&rel).unwrap();
        let (_, b) = FpgaPartitioner::new(cfg.with_fidelity(SimFidelity::Batched))
            .partition(&rel)
            .unwrap();
        for (label, rep) in [("cycle-accurate", &c), ("batched", &b)] {
            fpart_obs::asserts::assert_conserved(&rep.obs);
            for ctr in [
                fpart_obs::Ctr::QpiLinkErrors,
                fpart_obs::Ctr::QpiLinkReplays,
                fpart_obs::Ctr::PtRetryEvents,
                fpart_obs::Ctr::BramParityEvents,
                fpart_obs::Ctr::PadOverflowEvents,
            ] {
                assert_eq!(rep.obs.get(ctr), 0, "{label}: clean run, {}", ctr.name());
            }
        }
        for ctr in STRUCTURAL_COUNTERS {
            assert_eq!(
                b.obs.get(ctr),
                c.obs.get(ctr),
                "counters level: obs counter {}",
                ctr.name()
            );
        }
    }
}

#[test]
fn batched_respects_bandwidth_regimes() {
    // The analytic cycle model must track the ticked engine across both
    // regimes: link-bound (HARP curve) and circuit-bound (unlimited).
    let keys: Vec<u32> = KeyDistribution::Random.generate_keys(16_384, 11);
    let rel = Relation::<Tuple8>::from_keys(&keys);
    for unlimited in [false, true] {
        let cfg = config(6, OutputMode::pad_default(), InputMode::Rid);
        let mk = |fidelity| {
            let cfg = cfg.clone().with_fidelity(fidelity);
            if unlimited {
                FpgaPartitioner::with_qpi(cfg, QpiConfig::unlimited(200e6))
            } else {
                FpgaPartitioner::new(cfg)
            }
        };
        let (_, c) = mk(SimFidelity::CycleAccurate).partition(&rel).unwrap();
        let (_, b) = mk(SimFidelity::Batched).partition(&rel).unwrap();
        assert_cycles_close(
            if unlimited { "unlimited" } else { "harp" },
            b.total_cycles(),
            c.total_cycles(),
        );
        if !unlimited {
            // Link-bound: both report substantial stalls.
            assert!(b.qpi.read_stall_cycles + b.qpi.write_stall_cycles > 0);
            assert!(c.qpi.read_stall_cycles + c.qpi.write_stall_cycles > 0);
        }
    }
}

/// Keys that all land in partition `part` under `f`.
fn keys_in_partition(f: PartitionFn, part: usize, n: usize) -> Vec<u32> {
    let key = (0u32..)
        .find(|&k| f.partition_of(k) == part)
        .expect("some key hashes to every partition");
    vec![key; n]
}

#[test]
fn pad_overflow_in_last_partition_is_an_error() {
    // Every tuple lands in the last partition, so its extent ends at the
    // end of the output. 4096 tuples overflow on a full line during the
    // scatter; 184 tuples (23 per lane) fit as full lines but overflow
    // when the flush emits the partial lines. Either way the run must
    // abort with the ticked engine's partition and capacity — never write
    // past the output.
    let cfg = config(
        6,
        OutputMode::Pad {
            padding: PaddingSpec::Tuples(0),
        },
        InputMode::Rid,
    );
    for n in [4096, 184] {
        let keys = keys_in_partition(cfg.partition_fn, 63, n);
        let rel = Relation::<Tuple8>::from_keys(&keys);
        let c_err = FpgaPartitioner::new(cfg.clone())
            .partition(&rel)
            .unwrap_err();
        let b_err = FpgaPartitioner::new(cfg.clone().with_fidelity(SimFidelity::Batched))
            .partition(&rel)
            .unwrap_err();
        match (&b_err, &c_err) {
            (
                FpartError::PartitionOverflow {
                    partition: bp,
                    capacity: bc,
                    ..
                },
                FpartError::PartitionOverflow {
                    partition: cp,
                    capacity: cc,
                    ..
                },
            ) => {
                assert_eq!((*bp, *cp), (63, 63), "n={n}: the last partition");
                assert_eq!(bc, cc, "n={n}: same reported capacity");
            }
            other => panic!("n={n}: expected two overflows, got {other:?}"),
        }
    }
}

/// Batched runs of one configuration over a row, a column (VRID) and an
/// RLE-compressed input, each with skew so the forwarding registers hit.
fn batched_runs(output: OutputMode) -> Vec<(String, PartitionedRelation<Tuple8>, RunReport)> {
    use fpart_types::RleColumn;
    let mut keys: Vec<u32> = KeyDistribution::Random.generate_keys(6000, 13);
    keys.extend((0..3000u32).map(|i| i % 11 + 1));
    let mut sorted: Vec<u32> = (0..20_000u32).map(|i| i % 300).collect();
    sorted.sort_unstable();
    let run = |input: InputMode| {
        FpgaPartitioner::new(config(5, output, input).with_fidelity(SimFidelity::Batched))
    };
    let rows = run(InputMode::Rid)
        .partition(&Relation::<Tuple8>::from_keys(&keys))
        .unwrap();
    let cols = run(InputMode::Vrid)
        .partition(&ColumnRelation::<Tuple8>::from_keys(&keys))
        .unwrap();
    let rle = run(InputMode::Vrid)
        .partition::<Tuple8>(&RleColumn::encode(&sorted))
        .unwrap();
    [("rows", rows), ("keys", cols), ("rle", rle)]
        .into_iter()
        .map(|(what, (out, rep))| (format!("{what} {}", rep.mode), out, rep))
        .collect()
}

const ROOMY_PAD: OutputMode = OutputMode::Pad {
    padding: PaddingSpec::Fraction(30.0),
};

#[test]
fn hist_line_accounting_matches_pad_counters() {
    // HIST derives its line accounting from the histogram pass, PAD from
    // per-tuple fill counters; on the same input they must agree.
    let hist = batched_runs(OutputMode::Hist);
    let pad = batched_runs(ROOMY_PAD);
    for ((h_label, _, h), (p_label, _, p)) in hist.iter().zip(&pad) {
        let label = format!("{h_label} vs {p_label}");
        let fwd = |r: &RunReport| {
            use fpart_obs::Ctr::{Fwd1dHits, Fwd2dHits};
            (r.obs.get(Fwd1dHits), r.obs.get(Fwd2dHits))
        };
        assert!(fwd(h).0 + fwd(h).1 > 0, "{label}: skew hits");
        assert_eq!(fwd(h), fwd(p), "{label}: forwarding hits");
        assert_eq!(h.padding_slots, p.padding_slots, "{label}: padding slots");
        for ctr in [fpart_obs::Ctr::CombLinesOut, fpart_obs::Ctr::CombFlushLines] {
            assert_eq!(h.obs.get(ctr), p.obs.get(ctr), "{label}: {}", ctr.name());
        }
    }
}

#[test]
fn batched_partitions_hold_valid_tuples_then_dummies() {
    for output in [OutputMode::Hist, ROOMY_PAD] {
        for (label, out, _) in batched_runs(output) {
            for p in 0..out.num_partitions() {
                let (valid, dummies) = out.partition_slots(p).split_at(out.partition_valid(p));
                assert!(
                    valid.iter().all(|t| !t.is_dummy()),
                    "{label}: dummy among partition {p}'s valid slots"
                );
                assert!(
                    dummies.iter().all(|t| t.is_dummy()),
                    "{label}: tuple among partition {p}'s flush dummies"
                );
            }
        }
    }
}
