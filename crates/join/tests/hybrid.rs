//! Tests of the paper's hybrid join: `radix_join` over an
//! [`FpgaPartitioner`] — FPGA partitioning (simulated) feeding the CPU
//! build+probe (measured) — on row stores and, through VRID mode, on
//! column stores.

use fpart_cpu::CpuPartitioner;
use fpart_datagen::WorkloadId;
use fpart_fpga::{FpgaPartitioner, InputMode, OutputMode, PaddingSpec, PartitionerConfig};
use fpart_hash::PartitionFn;
use fpart_join::buildprobe::reference_join;
use fpart_join::{
    planned_join, radix_join, DegradationReport, EnginePlanner, EscalationChain, JoinResult,
};
use fpart_types::{FpartError, Relation, Tuple8};

/// An FPGA configuration with the paper's defaults and `bits` murmur
/// partition bits.
fn config(bits: u32, output: OutputMode, input: InputMode) -> PartitionerConfig {
    PartitionerConfig {
        partition_fn: PartitionFn::Murmur { bits },
        ..PartitionerConfig::paper_default(output, input)
    }
}

/// The CPU radix join every hybrid result is checked against.
fn cpu_join(bits: u32, r: &Relation<Tuple8>, s: &Relation<Tuple8>) -> JoinResult {
    let cpu = CpuPartitioner::new(PartitionFn::Murmur { bits }, 2);
    radix_join(&cpu, &EscalationChain::new(2), r, s).unwrap().0
}

/// The chain of the paper's hybrid join: a PAD abort falls back to the
/// CPU partitioner (Section 4.5).
fn cpu_fallback(threads: usize) -> EscalationChain {
    EscalationChain {
        hist_retry: false,
        ..EscalationChain::new(threads)
    }
}

fn fpga(bits: u32, output: OutputMode) -> FpgaPartitioner {
    FpgaPartitioner::new(config(bits, output, InputMode::Rid))
}

fn zero_pad(bits: u32) -> FpgaPartitioner {
    let padding = PaddingSpec::Tuples(0);
    fpga(bits, OutputMode::Pad { padding })
}

#[test]
fn hybrid_join_matches_cpu_join() {
    let (r, s) = WorkloadId::A.spec().row_relations::<Tuple8>(0.00005, 21);
    let pad = fpga(5, OutputMode::pad_default());
    let (hresult, hreport) = radix_join(&pad, &cpu_fallback(2), &r, &s).unwrap();

    assert_eq!(hresult, cpu_join(5, &r, &s));
    assert!(!hreport.degraded());
    assert!(hreport.simulated_partition_seconds() > 0.0);
    assert_eq!(hresult.matches, s.len() as u64);
}

#[test]
fn hist_mode_hybrid_join() {
    let (r, s) = WorkloadId::C.spec().row_relations::<Tuple8>(0.00003, 9);
    let hist = fpga(5, OutputMode::Hist);
    let (result, report) = radix_join(&hist, &cpu_fallback(2), &r, &s).unwrap();
    let (m, c) = reference_join(r.tuples(), s.tuples());
    assert_eq!((result.matches, result.checksum), (m, c));
    // HIST runs two passes on each relation → more lines read than a
    // PAD run would need.
    assert!(!report.r.degraded());
    assert!(report.r.fpga().expect("clean FPGA run").hist_cycles > 0);
}

#[test]
fn skew_triggers_cpu_fallback() {
    // Heavy Zipf skew with zero padding forces a PAD overflow on S.
    let (r, s) = WorkloadId::A
        .spec()
        .skewed_row_relations::<Tuple8>(0.0001, 1.5, 33);
    let (result, report) = radix_join(&zero_pad(6), &cpu_fallback(2), &r, &s).unwrap();
    assert!(report.degraded(), "zipf 1.5 must overflow zero padding");
    let (m, c) = reference_join(r.tuples(), s.tuples());
    assert_eq!((result.matches, result.checksum), (m, c));
}

#[test]
fn skew_with_hist_retry() {
    let (r, s) = WorkloadId::A
        .spec()
        .skewed_row_relations::<Tuple8>(0.0001, 1.5, 33);
    let chain = EscalationChain {
        cpu_fallback: false,
        ..EscalationChain::new(2)
    };
    let (result, report) = radix_join(&zero_pad(6), &chain, &r, &s).unwrap();
    assert!(report.degraded());
    assert!(matches!(
        report.s.final_attempt().label().as_str(),
        "fpga HIST" | "fpga PAD"
    ));
    let (m, _) = reference_join(r.tuples(), s.tuples());
    assert_eq!(result.matches, m);
}

#[test]
fn planned_join_matches_cpu_join() {
    // Per-input planning: same result as the fixed engine, with the
    // reasoning attached to the report.
    let (r, s) = WorkloadId::A.spec().row_relations::<Tuple8>(0.00005, 4);
    let planner = EnginePlanner::new(2);
    let (jresult, jreport) =
        planned_join(&planner, PartitionFn::Murmur { bits: 5 }, &r, &s).unwrap();
    assert_eq!(jresult, cpu_join(5, &r, &s));
    let (explanation, _) = jreport.plans.expect("planned joins explain");
    assert!(!jreport.r.degraded());
    assert_eq!(explanation.tuples, r.len() as u64);
}

#[test]
fn fail_policy_propagates() {
    let (r, s) = WorkloadId::A
        .spec()
        .skewed_row_relations::<Tuple8>(0.0001, 1.5, 33);
    let fail = EscalationChain {
        hist_retry: false,
        cpu_fallback: false,
        cpu_threads: 2,
    };
    assert!(matches!(
        radix_join(&zero_pad(6), &fail, &r, &s),
        Err(FpartError::PartitionOverflow { .. })
    ));
}

fn vrid_pad(input: InputMode) -> FpgaPartitioner {
    FpgaPartitioner::new(config(5, OutputMode::pad_default(), input))
}

#[test]
fn vrid_join_matches_rid_join() {
    let spec = WorkloadId::A.spec();
    let (rc, sc) = spec.column_relations::<Tuple8>(0.00004, 5);
    let (vrid_result, vrid_report) =
        radix_join(&vrid_pad(InputMode::Vrid), &cpu_fallback(2), &rc, &sc).unwrap();

    // RID-mode reference on the materialised rows.
    let rid_result = cpu_join(5, &rc.to_row_store(), &sc.to_row_store());
    assert_eq!(vrid_result, rid_result, "VRID join must equal RID join");
    assert!(vrid_report.simulated_partition_seconds() > 0.0);
}

#[test]
fn vrid_reads_half_of_rid() {
    let spec = WorkloadId::A.spec();
    let (rc, sc) = spec.column_relations::<Tuple8>(0.00004, 6);
    let (_, vrid_report) =
        radix_join(&vrid_pad(InputMode::Vrid), &cpu_fallback(2), &rc, &sc).unwrap();

    let (r, s) = (rc.to_row_store(), sc.to_row_store());
    let (_, rid_report) = radix_join(&vrid_pad(InputMode::Rid), &cpu_fallback(2), &r, &s).unwrap();
    let lines = |d: &DegradationReport| d.fpga().expect("clean FPGA run").qpi.lines_read;
    let vrid_reads = lines(&vrid_report.r) + lines(&vrid_report.s);
    let rid_reads = lines(&rid_report.r) + lines(&rid_report.s);
    assert_eq!(rid_reads, vrid_reads * 2, "VRID halves the key reads");
}
