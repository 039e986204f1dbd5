//! Cross-crate integration: every workload of Table 4, joined by every
//! back-end combination, must produce the reference answer.

use fpart::join::buildprobe::reference_join;
use fpart::join::nopart::no_partition_join;
use fpart::prelude::*;

const SCALE: f64 = 0.00004; // ≈5k ⋈ 5k at workload-A size; B stays 16:256 ratio

/// R ⋈ S with `f` on the CPU partitioner.
fn cpu_join<T: Tuple>(f: PartitionFn, r: &Relation<T>, s: &Relation<T>) -> JoinResult {
    let cpu = CpuPartitioner::new(f, 2);
    radix_join(&cpu, &EscalationChain::new(2), r, s).unwrap().0
}

/// R ⋈ S with `f` on the FPGA partitioner in `output` mode — the hybrid
/// join, with the Section 4.5 CPU fallback.
fn hybrid_join<T: Tuple>(
    f: PartitionFn,
    output: OutputMode,
    r: &Relation<T>,
    s: &Relation<T>,
) -> (JoinResult, JoinReport) {
    let config = PartitionerConfig {
        partition_fn: f,
        ..PartitionerConfig::paper_default(output, InputMode::Rid)
    };
    let chain = EscalationChain {
        hist_retry: false,
        ..EscalationChain::new(2)
    };
    radix_join(&FpgaPartitioner::new(config), &chain, r, s).unwrap()
}

fn check_workload(id: WorkloadId) {
    let (r, s) = id.spec().row_relations::<Tuple8>(SCALE, 77);
    let (expect_m, expect_c) = reference_join(r.tuples(), s.tuples());
    assert_eq!(expect_m, s.len() as u64, "FK workload matches |S|");

    let f = PartitionFn::Murmur { bits: 6 };

    // CPU radix join.
    let cpu = cpu_join(f, &r, &s);
    assert_eq!(
        (cpu.matches, cpu.checksum),
        (expect_m, expect_c),
        "{id:?} CPU"
    );

    // Hybrid join, PAD and HIST.
    for output in [OutputMode::pad_default(), OutputMode::Hist] {
        let (hybrid, report) = hybrid_join(f, output, &r, &s);
        assert_eq!(
            (hybrid.matches, hybrid.checksum),
            (expect_m, expect_c),
            "{id:?} hybrid {output:?}"
        );
        assert!(report.simulated_partition_seconds() > 0.0);
    }

    // Non-partitioned baseline.
    let (nopart, _) = no_partition_join(&r, &s, 2);
    assert_eq!(
        (nopart.matches, nopart.checksum),
        (expect_m, expect_c),
        "{id:?} nopart"
    );
}

#[test]
fn workload_a() {
    check_workload(WorkloadId::A);
}

#[test]
fn workload_b() {
    check_workload(WorkloadId::B);
}

#[test]
fn workload_c() {
    check_workload(WorkloadId::C);
}

#[test]
fn workload_d() {
    check_workload(WorkloadId::D);
}

#[test]
fn workload_e() {
    check_workload(WorkloadId::E);
}

/// Radix partitioning joins correctly too (Figure 12 uses both).
#[test]
fn radix_partitioned_join() {
    let (r, s) = WorkloadId::E.spec().row_relations::<Tuple8>(SCALE, 3);
    let (expect_m, expect_c) = reference_join(r.tuples(), s.tuples());
    let result = cpu_join(PartitionFn::Radix { bits: 6 }, &r, &s);
    assert_eq!((result.matches, result.checksum), (expect_m, expect_c));
}

/// The skew sweep of Figure 13: every Zipf factor joins correctly through
/// the HIST-mode hybrid.
#[test]
fn zipf_sweep_hist_mode() {
    for zipf in [0.25, 0.75, 1.25, 1.75] {
        let (r, s) = WorkloadId::A
            .spec()
            .skewed_row_relations::<Tuple8>(SCALE, zipf, 13);
        let (expect_m, expect_c) = reference_join(r.tuples(), s.tuples());
        let f = PartitionFn::Murmur { bits: 6 };
        let (result, _) = hybrid_join(f, OutputMode::Hist, &r, &s);
        assert_eq!(
            (result.matches, result.checksum),
            (expect_m, expect_c),
            "zipf {zipf}"
        );
    }
}

/// Wide-tuple joins (16 B) through both back-ends.
#[test]
fn wide_tuple_join() {
    let keys: Vec<u64> = KeyDistribution::Random.generate_keys(3000, 5);
    let r = Relation::<Tuple16>::from_keys(&keys);
    let s_keys = fpart::datagen::dist::foreign_keys(&keys, 9000, 6);
    let s = Relation::<Tuple16>::from_keys(&s_keys);
    let (expect_m, expect_c) = reference_join(r.tuples(), s.tuples());

    let f = PartitionFn::Murmur { bits: 5 };
    let cpu = cpu_join(f, &r, &s);
    assert_eq!((cpu.matches, cpu.checksum), (expect_m, expect_c));

    let (hybrid, _) = hybrid_join(f, OutputMode::Hist, &r, &s);
    assert_eq!((hybrid.matches, hybrid.checksum), (expect_m, expect_c));
}
