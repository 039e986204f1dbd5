//! Cross-crate integration of the extension surfaces: sorting, range
//! partitioning, the selection accelerator, the mode planner and the
//! distributed join — exercised together through the facade.

use fpart::cpu::sort::{is_sorted_by_key, lsd_radix_sort, sample_sort};
use fpart::cpu::{range_partition, RangeSplitters};
use fpart::fpga::{FpgaSelector, Predicate};
use fpart::join::buildprobe::reference_join;
use fpart::join::ModePlan;
use fpart::net::DistributedJoin;
use fpart::prelude::*;

/// Sort → range partition → selection: three operators over one relation
/// agree with their std-library equivalents.
#[test]
fn operator_stack_consistency() {
    let keys = KeyDistribution::Grid.generate_keys::<u32>(30_000, 5);
    let rel = Relation::<Tuple8>::from_keys(&keys);

    // Two sorts, one answer.
    let lsd = lsd_radix_sort(&rel, 2);
    let sample = sample_sort(&rel, 64);
    assert!(is_sorted_by_key(&lsd) && is_sorted_by_key(&sample));
    let lsd_keys: Vec<u32> = lsd.tuples().iter().map(|t| t.key).collect();
    let sample_keys: Vec<u32> = sample.tuples().iter().map(|t| t.key).collect();
    assert_eq!(lsd_keys, sample_keys);

    // Range partitioning a sorted relation keeps it sorted end to end.
    let splitters = RangeSplitters::from_sample(&keys, 32, 4096, 1);
    let (parts, _) = range_partition(&lsd, &splitters);
    let concatenated: Vec<u32> = (0..parts.num_partitions())
        .flat_map(|p| parts.partition_tuples(p).map(|t| t.key).collect::<Vec<_>>())
        .collect();
    assert_eq!(
        concatenated, lsd_keys,
        "range partitions of sorted input concatenate sorted"
    );

    // Selection on the simulated circuit agrees with a scan.
    let median = lsd_keys[lsd_keys.len() / 2];
    let (selected, report) = FpgaSelector::new()
        .select(&rel, Predicate::LessThan(median))
        .unwrap();
    assert!((report.selectivity() - 0.5).abs() < 0.02);
    assert_eq!(
        selected.len(),
        rel.tuples().iter().filter(|t| t.key < median).count()
    );
}

/// The planner's mode choice feeds a hybrid join that never aborts and
/// still produces the reference answer across the skew range.
#[test]
fn planned_hybrid_join_across_skew() {
    for zipf in [0.0, 1.0, 1.75] {
        let (r, s) = WorkloadId::A
            .spec()
            .skewed_row_relations::<Tuple8>(0.0004, zipf, 11);
        let f = PartitionFn::Murmur { bits: 7 };
        let plan = ModePlan::sample(&s, f);
        let config = PartitionerConfig {
            partition_fn: f,
            output: plan.output,
            ..PartitionerConfig::paper_default(plan.output, InputMode::Rid)
        };
        // No fallback: the planner must be right.
        let fail = EscalationChain {
            hist_retry: false,
            cpu_fallback: false,
            cpu_threads: 2,
        };
        let (result, report) = radix_join(&FpgaPartitioner::new(config), &fail, &r, &s)
            .expect("planned join must not abort");
        let (m, c) = reference_join(r.tuples(), s.tuples());
        assert_eq!((result.matches, result.checksum), (m, c), "zipf {zipf}");
        assert!(!report.degraded());
    }
}

/// Distributed and single-node joins agree on a skewed workload, and the
/// distributed report's loads sum to the input.
#[test]
fn distributed_equals_local_under_skew() {
    let (r, s) = WorkloadId::A
        .spec()
        .skewed_row_relations::<Tuple8>(0.0002, 0.75, 13);
    let (m, c) = reference_join(r.tuples(), s.tuples());

    let dist = DistributedJoin::new(4, 6);
    let (dresult, dreport) = dist.execute(&r, &s).unwrap();
    assert_eq!((dresult.matches, dresult.checksum), (m, c));
    let r_total: usize = dreport.node_loads.iter().map(|&(a, _)| a).sum();
    let s_total: usize = dreport.node_loads.iter().map(|&(_, b)| b).sum();
    assert_eq!((r_total, s_total), (r.len(), s.len()));

    let cpu = CpuPartitioner::new(PartitionFn::Murmur { bits: 8 }, 2);
    let (lresult, _) = radix_join(&cpu, &EscalationChain::new(2), &r, &s).unwrap();
    assert_eq!(dresult, lresult);
}

/// histogram_only equals the software histogram and prices PAD correctly.
#[test]
fn fpga_histogram_only_matches_software() {
    let keys = KeyDistribution::ReverseGrid.generate_keys::<u32>(15_000, 7);
    let rel = Relation::<Tuple8>::from_keys(&keys);
    let f = PartitionFn::Murmur { bits: 6 };
    let config = PartitionerConfig {
        partition_fn: f,
        ..PartitionerConfig::paper_default(OutputMode::Hist, InputMode::Rid)
    };
    let (hw_hist, cycles) = fpart::fpga::FpgaPartitioner::new(config)
        .histogram_only(&rel)
        .unwrap();
    assert!(cycles > 0);
    let mut sw_hist = vec![0u64; f.fan_out()];
    for t in rel.tuples() {
        sw_hist[f.partition_of(t.key)] += 1;
    }
    assert_eq!(hw_hist, sw_hist);
}

/// Persisting an FPGA-partitioned relation (dummy padding and all) and
/// joining from the reloaded copy gives the original answer — the
/// partition-once, join-later pipeline.
#[test]
fn persisted_partitions_join_identically() {
    let (r, s) = WorkloadId::A.spec().row_relations::<Tuple8>(0.0002, 21);
    let f = PartitionFn::Murmur { bits: 6 };
    let config = PartitionerConfig {
        partition_fn: f,
        ..PartitionerConfig::paper_default(OutputMode::Hist, InputMode::Rid)
    };
    let p = fpart::fpga::FpgaPartitioner::new(config);
    let (rp, _) = p.partition(&r).unwrap();
    let (sp, _) = p.partition(&s).unwrap();
    assert!(
        rp.padding_overhead() > 0,
        "FPGA output carries flush padding"
    );

    let dir = std::env::temp_dir();
    let r_path = dir.join(format!("fpart_ext_r_{}.fprp", std::process::id()));
    let s_path = dir.join(format!("fpart_ext_s_{}.fprp", std::process::id()));
    fpart::io::write_partitioned(&rp, &r_path).unwrap();
    fpart::io::write_partitioned(&sp, &s_path).unwrap();

    let rp2 = fpart::io::read_partitioned::<Tuple8>(&r_path).unwrap();
    let sp2 = fpart::io::read_partitioned::<Tuple8>(&s_path).unwrap();
    std::fs::remove_file(&r_path).ok();
    std::fs::remove_file(&s_path).ok();

    let fresh = fpart::join::build_probe_all(&rp, &sp, f.bits(), 2);
    let reloaded = fpart::join::build_probe_all(&rp2, &sp2, f.bits(), 2);
    assert_eq!(fresh.matches, reloaded.matches);
    assert_eq!(fresh.checksum, reloaded.checksum);
    let (m, c) = reference_join(r.tuples(), s.tuples());
    assert_eq!((reloaded.matches, reloaded.checksum), (m, c));
}
