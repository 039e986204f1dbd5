//! Property-based invariants of the circuit simulation, exercised with a
//! seeded deterministic generator.

use fpart_fpga::hashmod::HashedTuple;
use fpart_fpga::writecomb::WriteCombiner;
use fpart_fpga::{
    FpgaPartitioner, InputMode, OutputMode, PaddingSpec, PartitionerConfig, SimFidelity,
};
use fpart_hash::PartitionFn;
use fpart_hwsim::QpiConfig;
use fpart_types::relation::content_checksum;
use fpart_types::{Relation, SplitMix64, Tuple, Tuple8};

fn config(bits: u32, output: OutputMode) -> PartitionerConfig {
    PartitionerConfig {
        partition_fn: PartitionFn::Murmur { bits },
        output,
        input: InputMode::Rid,
        fidelity: SimFidelity::CycleAccurate,
        obs: fpart_fpga::ObsLevel::Off,
    }
}

/// The write combiner is exact for ANY input pattern with ANY bubble
/// pattern: every tuple comes out exactly once, in its correct partition,
/// in arrival order.
#[test]
fn write_combiner_is_exact() {
    let mut rng = SplitMix64::seed_from_u64(0x4647_0001);
    for _ in 0..16 {
        let n = rng.below_u64(400) as usize;
        let inputs: Vec<(usize, u32)> = (0..n).map(|_| (rng.index(16), rng.next_u32())).collect();
        let bubbles: Vec<usize> = (0..n).map(|_| rng.below_u64(3) as usize).collect();

        let mut wc = WriteCombiner::<Tuple8>::new(16);
        let mut emitted: Vec<(usize, Tuple8)> = Vec::new();
        let drain = |out: Option<(usize, fpart_types::Line<Tuple8>)>,
                     emitted: &mut Vec<(usize, Tuple8)>| {
            if let Some((hash, line)) = out {
                for t in line.valid_tuples() {
                    emitted.push((hash, t));
                }
            }
        };
        for (i, &(hash, key)) in inputs.iter().enumerate() {
            let key = key.min(u32::MAX - 1); // never the dummy sentinel
            let out = wc.clock(
                Some(HashedTuple {
                    hash,
                    tuple: Tuple8::new(key, i as u64),
                }),
                true,
            );
            drain(out, &mut emitted);
            // Arbitrary bubbles between tuples.
            for _ in 0..bubbles.get(i).copied().unwrap_or(0) {
                let out = wc.clock(None, true);
                drain(out, &mut emitted);
            }
        }
        while wc.in_flight() > 0 {
            let out = wc.clock(None, true);
            drain(out, &mut emitted);
        }
        wc.start_flush();
        while !(wc.flush_done() && wc.in_flight() == 0) {
            let out = wc.clock(None, true);
            drain(out, &mut emitted);
        }

        assert_eq!(emitted.len(), inputs.len(), "tuple conservation");
        // Per-partition: emitted order equals arrival order (rids ascend).
        for p in 0..16 {
            let rids: Vec<u64> = emitted
                .iter()
                .filter(|(h, _)| *h == p)
                .map(|(_, t)| t.payload as u64)
                .collect();
            assert!(
                rids.windows(2).all(|w| w[0] < w[1]),
                "order in partition {p}"
            );
            for (h, t) in emitted.iter().filter(|(h, _)| *h == p) {
                let arrival = inputs[t.payload as usize];
                assert_eq!(arrival.0, *h, "partition label matches input");
                assert_eq!(*h, p);
                assert_eq!(t.key, arrival.1.min(u32::MAX - 1));
            }
        }
    }
}

/// Full-circuit permutation property under arbitrary keys, fan-outs,
/// modes and link bandwidths.
#[test]
fn circuit_partitions_any_input() {
    let mut rng = SplitMix64::seed_from_u64(0x4647_0002);
    for _ in 0..16 {
        let n = rng.below_u64(1500) as usize;
        let keys: Vec<u32> = (0..n)
            .map(|_| rng.below_u64(u32::MAX as u64 - 1) as u32)
            .collect();
        let bits = 1 + rng.below_u64(6) as u32;
        let hist = rng.next_bool();
        let gbps = 2.0 + rng.next_f64() * 28.0;

        let output = if hist {
            OutputMode::Hist
        } else {
            // Generous padding so arbitrary (possibly duplicate-heavy)
            // inputs don't abort — overflow behaviour has its own tests.
            OutputMode::Pad {
                padding: PaddingSpec::Fraction(20.0),
            }
        };
        let cfg = config(bits, output);
        let f = cfg.partition_fn;
        let qpi = QpiConfig::harp(fpart_memmodel::BandwidthCurve::new(
            "flat",
            vec![(0.0, gbps), (1.0, gbps)],
        ));
        let rel = Relation::<Tuple8>::from_keys(&keys);
        let (parts, report) = FpgaPartitioner::with_qpi(cfg, qpi).partition(&rel).unwrap();

        assert_eq!(parts.total_valid(), keys.len());
        assert_eq!(
            content_checksum(rel.tuples().iter().copied()),
            content_checksum(parts.all_tuples())
        );
        for p in 0..parts.num_partitions() {
            for t in parts.partition_tuples(p) {
                assert_eq!(f.partition_of(t.key()), p);
            }
        }
        // Dummy overhead is bounded by lanes × (lanes-1) per partition.
        let bound = parts.num_partitions() * Tuple8::LANES * (Tuple8::LANES - 1);
        assert!(parts.padding_overhead() <= bound);
        // Cycle accounting sanity: the run must at least read the input.
        assert!(report.qpi.lines_read as usize >= keys.len().div_ceil(8));
    }
}

/// PAD overflow, when it happens, is an error — never silent data loss:
/// either the run succeeds with all tuples placed, or it returns
/// PartitionOverflow.
#[test]
fn pad_never_loses_data_silently() {
    let mut rng = SplitMix64::seed_from_u64(0x4647_0003);
    for _ in 0..16 {
        let n = rng.below_u64(800) as usize;
        let keys: Vec<u32> = (0..n).map(|_| rng.below_u64(64) as u32).collect();
        let bits = 1 + rng.below_u64(5) as u32;
        let pad = rng.below_u64(16) as usize;

        let cfg = config(
            bits,
            OutputMode::Pad {
                padding: PaddingSpec::Tuples(pad),
            },
        );
        let rel = Relation::<Tuple8>::from_keys(&keys);
        match FpgaPartitioner::new(cfg).partition(&rel) {
            Ok((parts, _)) => assert_eq!(parts.total_valid(), keys.len()),
            Err(fpart_types::FpartError::PartitionOverflow { consumed, .. }) => {
                assert!(consumed <= keys.len());
            }
            Err(other) => panic!("unexpected error {other:?}"),
        }
    }
}
