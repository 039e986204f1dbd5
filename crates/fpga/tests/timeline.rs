//! Timeline and utilization instrumentation of the circuit report.

use fpart_datagen::KeyDistribution;
use fpart_fpga::partitioner::TIMELINE_INTERVAL;
use fpart_fpga::{
    FpgaPartitioner, InputMode, ObsLevel, OutputMode, PartitionerConfig, RunReport, SimFidelity,
};
use fpart_hash::PartitionFn;
use fpart_hwsim::QpiConfig;
use fpart_obs::Ctr;
use fpart_types::{Relation, Tuple8};

/// A cycle-accurate PAD/RID run: the timeline is per-cycle behaviour.
fn run(n: usize, unlimited: bool, obs: ObsLevel) -> RunReport {
    let config = PartitionerConfig {
        partition_fn: PartitionFn::Murmur { bits: 6 },
        ..PartitionerConfig::paper_default(OutputMode::pad_default(), InputMode::Rid)
    }
    .with_fidelity(SimFidelity::CycleAccurate)
    .with_obs(obs);
    let p = if unlimited {
        FpgaPartitioner::with_qpi(config, QpiConfig::unlimited(200e6))
    } else {
        FpgaPartitioner::new(config)
    };
    let keys = KeyDistribution::Random.generate_keys::<u32>(n, 3);
    let rel = Relation::<Tuple8>::from_keys(&keys);
    p.partition(&rel).expect("partition").1
}

/// The `(cycle, lines read + written)` samples of a traced run's scatter
/// pass, one per `scatter/interval` event.
fn timeline(report: &RunReport) -> Vec<(u64, u64)> {
    (report.obs.events.iter())
        .filter(|e| e.stage == "scatter" && e.event == "interval")
        .map(|e| (e.cycle, e.value))
        .collect()
}

#[test]
fn timeline_samples_are_monotone() {
    let timeline = timeline(&run(400_000, false, ObsLevel::Trace));
    assert!(
        timeline.len() >= 2,
        "a 50k-line run spans several sample intervals"
    );
    for w in timeline.windows(2) {
        let ((c0, l0), (c1, l1)) = (w[0], w[1]);
        assert_eq!(c1 - c0, TIMELINE_INTERVAL);
        assert!(l1 >= l0, "counters are monotone");
    }
}

#[test]
fn steady_state_rate_matches_aggregate() {
    let report = run(400_000, false, ObsLevel::Trace);
    let timeline = timeline(&report);
    // Instantaneous line rate over the middle of the run ≈ the aggregate
    // lines_per_cycle (no long warm-up or tail at this size).
    let mid = timeline.len() / 2;
    let ((c0, l0), (c1, l1)) = (timeline[mid - 1], timeline[mid]);
    let inst = (l1 - l0) as f64 / (c1 - c0) as f64;
    let agg = report.lines_per_cycle();
    assert!(
        (inst - agg).abs() / agg < 0.35,
        "instantaneous {inst:.3} vs aggregate {agg:.3}"
    );
}

#[test]
fn unlimited_link_reaches_two_lines_per_cycle() {
    // The stall-free ceiling: one line in and one out per clock.
    let report = run(400_000, true, ObsLevel::Off);
    let lpc = report.lines_per_cycle();
    assert!(
        lpc > 1.8,
        "stall-free circuit should approach 2 line-ops/cycle, got {lpc:.3}"
    );
}

#[test]
fn qpi_bound_run_is_link_limited() {
    // On the HARP link B(1) = 6.97 GB/s at 200 MHz ⇒ ~0.545 lines/cycle.
    let report = run(400_000, false, ObsLevel::Off);
    let lpc = report.lines_per_cycle();
    assert!(
        (0.40..0.70).contains(&lpc),
        "QPI-bound rate should sit near 0.545 line-ops/cycle, got {lpc:.3}"
    );
}

#[test]
fn endpoint_cache_never_hits_on_streaming_reads() {
    // The 128 KB endpoint cache is useless for a streaming partitioner —
    // the observation behind Section 2.2's "any cache-line that is
    // snooped on the FPGA socket is most likely not found".
    let report = run(200_000, false, ObsLevel::Off);
    let hits = report.obs.get(Ctr::EpCacheHits);
    let misses = report.obs.get(Ctr::EpCacheMisses);
    assert_eq!(hits, 0, "streaming reads must not hit");
    assert_eq!(misses, report.qpi.lines_read, "every read missed");
}

#[test]
fn histogram_only_counts_without_writing() {
    let config = PartitionerConfig {
        partition_fn: PartitionFn::Murmur { bits: 5 },
        ..PartitionerConfig::paper_default(OutputMode::Hist, InputMode::Rid)
    };
    let keys = KeyDistribution::Random.generate_keys::<u32>(10_000, 9);
    let rel = Relation::<Tuple8>::from_keys(&keys);
    let (hist, cycles) = FpgaPartitioner::new(config.clone())
        .histogram_only(&rel)
        .unwrap();
    assert_eq!(hist.iter().sum::<u64>(), 10_000);
    assert!(cycles > 0);
    // Matches the full partitioning run's histogram.
    let (parts, _) = FpgaPartitioner::new(config).partition(&rel).unwrap();
    let full: Vec<u64> = parts.histogram().iter().map(|&x| x as u64).collect();
    assert_eq!(hist, full);
}

#[test]
fn rle_partitioning_matches_plain_vrid() {
    use fpart_types::ColumnRelation;
    use fpart_types::RleColumn;

    // A sorted low-cardinality column: compresses well.
    let mut keys: Vec<u32> = (0..20_000u32).map(|i| i % 300).collect();
    keys.sort_unstable();
    let column = RleColumn::encode(&keys);
    assert!(column.ratio() > 3.0, "ratio {:.2}", column.ratio());

    // HIST mode: 300 distinct keys over 64 partitions leave fills at
    // key-granularity (multiples of the ~67-row groups), too lumpy for
    // PAD's uniform capacities — exactly the §4.5 trade-off.
    let config = PartitionerConfig {
        partition_fn: PartitionFn::Murmur { bits: 6 },
        ..PartitionerConfig::paper_default(OutputMode::Hist, InputMode::Vrid)
    };
    let p = FpgaPartitioner::new(config);

    let (rle_parts, rle_report) = p.partition::<Tuple8>(&column).unwrap();
    let col = ColumnRelation::<Tuple8>::from_keys(&keys);
    let (vrid_parts, vrid_report) = p.partition(&col).unwrap();

    // Same partitions, same (key, position) contents.
    assert_eq!(rle_parts.histogram(), vrid_parts.histogram());
    for part in 0..rle_parts.num_partitions() {
        let mut a: Vec<(u32, u32)> = rle_parts
            .partition_tuples(part)
            .map(|t| (t.key, t.payload))
            .collect();
        let mut b: Vec<(u32, u32)> = vrid_parts
            .partition_tuples(part)
            .map(|t| (t.key, t.payload))
            .collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "partition {part}");
    }

    // The compressed run reads ~1/ratio of the lines.
    assert!(
        rle_report.qpi.lines_read * 3 < vrid_report.qpi.lines_read,
        "compressed reads {} vs raw {}",
        rle_report.qpi.lines_read,
        vrid_report.qpi.lines_read
    );
    // Decompression is on chip: both runs emit the same tuple count.
    assert_eq!(rle_report.tuples, vrid_report.tuples);
}

#[test]
fn rle_incompressible_column_still_correct() {
    use fpart_types::RleColumn;
    let keys = fpart_datagen::KeyDistribution::Random.generate_keys::<u32>(5000, 4);
    let column = RleColumn::encode(&keys);
    let config = PartitionerConfig {
        partition_fn: PartitionFn::Murmur { bits: 5 },
        ..PartitionerConfig::paper_default(OutputMode::Hist, InputMode::Vrid)
    };
    let (parts, _) = FpgaPartitioner::new(config)
        .partition::<Tuple8>(&column)
        .unwrap();
    assert_eq!(parts.total_valid(), 5000);
    for part in 0..parts.num_partitions() {
        for t in parts.partition_tuples(part) {
            assert_eq!(keys[t.payload as usize], t.key, "vrid points at its key");
        }
    }
}

#[test]
fn tuple32_circuit_round_trip() {
    use fpart_types::relation::content_checksum;
    use fpart_types::Tuple32;

    let keys = KeyDistribution::Grid.generate_keys::<u64>(3000, 6);
    let rel = Relation::<Tuple32>::from_keys(&keys);
    let config = PartitionerConfig {
        partition_fn: PartitionFn::Murmur { bits: 5 },
        ..PartitionerConfig::paper_default(OutputMode::Hist, InputMode::Rid)
    };
    let f = config.partition_fn;
    let (parts, report) = FpgaPartitioner::new(config).partition(&rel).unwrap();
    assert_eq!(parts.total_valid(), 3000);
    assert_eq!(
        content_checksum(rel.tuples().iter().copied()),
        content_checksum(parts.all_tuples())
    );
    for p in 0..parts.num_partitions() {
        for t in parts.partition_tuples(p) {
            assert_eq!(f.partition_of(t.key), p);
        }
    }
    // 32 B tuples: two per line; HIST reads the input twice.
    assert_eq!(report.qpi.lines_read, 2 * 1500);
}
