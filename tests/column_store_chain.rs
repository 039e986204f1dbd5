//! Column stores on the one partition contract: a VRID input, plain or
//! run-length encoded, goes through the same degradation chain, planner
//! and join drivers as a row store, so a skewed key column that
//! overflows PAD escalates instead of failing, and a column-store join
//! equals the row-store join of the same rows.

use fpart::costmodel::FpgaCostModel;
use fpart::fpga::{FpgaPartitioner, InputMode, OutputMode, PaddingSpec, PartitionerConfig};
use fpart::prelude::*;
use fpart::types::relation::content_checksum;

fn partition_multisets<T: Tuple>(parts: &PartitionedRelation<T>) -> Vec<(u64, u64, u64)> {
    (0..parts.num_partitions())
        .map(|p| content_checksum(parts.partition_tuples(p)))
        .collect()
}

fn f() -> PartitionFn {
    PartitionFn::Murmur { bits: 6 }
}

/// PAD with zero padding: any skew overflows it.
fn zero_pad(input: InputMode) -> FpgaPartitioner {
    FpgaPartitioner::new(PartitionerConfig {
        partition_fn: f(),
        ..PartitionerConfig::paper_default(
            OutputMode::Pad {
                padding: PaddingSpec::Tuples(0),
            },
            input,
        )
    })
}

/// The Zipf-1.5 probe-side keys of Workload A.
fn zipf_keys() -> Vec<u32> {
    let (_, s) = WorkloadId::A
        .spec()
        .skewed_row_relations::<Tuple8>(0.0001, 1.5, 33);
    s.tuples().iter().map(|t| t.key).collect()
}

/// The CPU reference: the same keys as a row store, whose payloads are
/// the row ids, i.e. the positions VRID mode appends.
fn cpu_reference(keys: &[u32]) -> Vec<(u64, u64, u64)> {
    let rel = Relation::<Tuple8>::from_keys(keys);
    partition_multisets(&CpuPartitioner::new(f(), 2).partition(&rel).0)
}

/// Runs `check` on the Zipf-1.5 keys as a plain column store and as a
/// run-length-encoded column, which decodes to the same keys.
fn for_each_zipf_column(check: impl Fn(&str, Input<'_, Tuple8>)) {
    let keys = zipf_keys();
    let col = ColumnRelation::<Tuple8>::from_keys(&keys);
    let rle = RleColumn::encode(&keys);
    assert_eq!(rle.decode(), keys);
    assert!(rle.runs().len() < keys.len(), "the heavy hitters form runs");
    check("columns", Input::from(&col));
    check("rle", Input::from(&rle));
}

#[test]
fn zipf_column_overflow_escalates_to_hist() {
    let reference = cpu_reference(&zipf_keys());
    for_each_zipf_column(|layout, input| {
        let fpga = zero_pad(InputMode::Vrid);
        assert!(
            matches!(
                fpga.partition(input),
                Err(FpartError::PartitionOverflow { .. })
            ),
            "{layout}: zipf 1.5 must overflow zero padding"
        );

        let (parts, report) = EscalationChain::new(2).run(&fpga, input).unwrap();
        assert_eq!(report.final_attempt().label(), "fpga HIST", "{layout}");
        assert!(matches!(
            report.first_error(),
            Some(FpartError::PartitionOverflow { .. })
        ));
        let run = report.fpga().expect("the HIST retry ran");
        assert_eq!(run.mode, "HIST/VRID", "{layout}");
        assert_eq!(partition_multisets(&parts), reference, "{layout}");
    });
}

#[test]
fn zipf_column_overflow_falls_back_to_cpu() {
    let reference = cpu_reference(&zipf_keys());
    for_each_zipf_column(|layout, input| {
        let chain = EscalationChain {
            hist_retry: false,
            ..EscalationChain::new(2)
        };
        let (parts, report) = chain.run(&zero_pad(InputMode::Vrid), input).unwrap();
        assert_eq!(report.final_attempt().label(), "cpu", "{layout}");
        assert_eq!(report.attempts.len(), 2, "{layout}");
        assert_eq!(partition_multisets(&parts), reference, "{layout}");
    });
}

#[test]
fn planned_join_over_columns_equals_rows() {
    let (r, s) = WorkloadId::A
        .spec()
        .skewed_row_relations::<Tuple8>(0.0001, 1.0, 8);
    // Payloads that differ from the positions, so a join that forgot to
    // late-materialise would checksum positions instead.
    let columns = |rel: &Relation<Tuple8>| {
        let keys: Vec<u32> = rel.tuples().iter().map(|t| t.key).collect();
        let payloads: Vec<u64> = (0..keys.len() as u64).map(|i| i * 7 + 3).collect();
        ColumnRelation::<Tuple8>::from_columns(&keys, &payloads)
    };
    let (rc, sc) = (columns(&r), columns(&s));
    let planner = EnginePlanner::new(2);
    let (by_columns, report) = planned_join(&planner, f(), &rc, &sc).unwrap();
    let (rr, sr) = (rc.to_row_store(), sc.to_row_store());
    let (by_rows, _) = planned_join(&planner, f(), &rr, &sr).unwrap();
    assert_eq!(by_columns, by_rows);
    assert_eq!(by_columns.matches, s.len() as u64);
    assert!(report.plans.is_some());
}

#[test]
fn large_column_input_plans_fpga_with_vrid_costs() {
    let n = 1 << 20;
    let keys = KeyDistribution::Random.generate_keys::<u32>(n, 5);
    let col = ColumnRelation::<Tuple8>::from_keys(&keys);
    let plan = EnginePlanner::new(1).plan(&col, f());
    let e = &plan.explanation;
    assert_eq!(e.engine, EngineChoice::Fpga, "{e:?}");
    let model = FpgaCostModel::paper();
    let expect = model.partition_seconds(n as u64, Tuple8::WIDTH, e.output, InputMode::Vrid);
    assert_eq!(e.fpga_seconds, expect, "{e:?}");
    assert!(e.fpga_seconds < model.partition_seconds(n as u64, 8, e.output, InputMode::Rid));

    // The planned engine reads columns: handed the same rows, it refuses.
    let rows = col.to_row_store();
    assert!(matches!(plan.run(&rows), Err(FpartError::InvalidConfig(_))));
}

#[test]
fn mixed_layouts_are_rejected_before_partitioning() {
    let keys = zipf_keys();
    let rows = Relation::<Tuple8>::from_keys(&keys);
    let cols = ColumnRelation::<Tuple8>::from_keys(&keys);
    // The rows would overflow zero padding with no fallback; the layout
    // check must fire first.
    let fail = EscalationChain {
        hist_retry: false,
        cpu_fallback: false,
        cpu_threads: 2,
    };
    assert!(matches!(
        radix_join(&zero_pad(InputMode::Rid), &fail, &rows, &cols),
        Err(FpartError::InvalidConfig(_))
    ));
    let cpu = CpuPartitioner::new(f(), 2);
    assert!(matches!(
        radix_join(&cpu, &EscalationChain::new(2), &cols, &rows),
        Err(FpartError::InvalidConfig(_))
    ));
    assert!(matches!(
        planned_join(&EnginePlanner::new(2), f(), &rows, &cols),
        Err(FpartError::InvalidConfig(_))
    ));

    // A run-length-encoded column has no payloads to materialise, so no
    // join takes one, not even beside another column store.
    let rle = RleColumn::encode(&keys);
    assert!(matches!(
        radix_join(&zero_pad(InputMode::Vrid), &fail, &cols, &rle),
        Err(FpartError::InvalidConfig(_))
    ));
    assert!(matches!(
        radix_join(&cpu, &EscalationChain::new(2), &rle, &cols),
        Err(FpartError::InvalidConfig(_))
    ));
    assert!(matches!(
        planned_join(&EnginePlanner::new(2), f(), &rle, &cols),
        Err(FpartError::InvalidConfig(_))
    ));
}
