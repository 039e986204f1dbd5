//! Column-store partitioning with virtual record IDs (Section 4.5's VRID
//! mode): the FPGA reads only the key column, halving its QPI read
//! traffic, and appends each key's position on chip; payloads are
//! materialised afterwards — the column-store pattern of Section 5.2.
//! It ends with a column-store join whose skewed probe side overflows PAD
//! and escalates through the default degradation chain.
//!
//! ```text
//! cargo run --release --example column_store_vrid [n_rows]
//! ```

use fpart::fpga::FpgaPartitioner;
use fpart::prelude::*;

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(500_000);
    let bits = 10;
    let f = PartitionFn::Murmur { bits };

    // A column-store relation: key column + (here synthetic) payload
    // column, associated only by position.
    let keys = KeyDistribution::Random.generate_keys::<u32>(n, 11);
    let payloads: Vec<u64> = (0..n as u64).map(|i| i * 10 + 1).collect();
    let col = ColumnRelation::<Tuple8>::from_columns(&keys, &payloads);

    // VRID partitioning: the circuit reads ONLY the key column.
    let vrid_cfg = PartitionerConfig::paper_default(OutputMode::pad_default(), InputMode::Vrid);
    let vrid_cfg = PartitionerConfig {
        partition_fn: f,
        ..vrid_cfg
    };
    let (parts, vrid_report) = FpgaPartitioner::new(vrid_cfg)
        .partition(&col)
        .expect("VRID partitioning");

    // The same data as a row store, through RID mode, for comparison.
    let row = col.to_row_store();
    let rid_cfg = PartitionerConfig::paper_default(OutputMode::pad_default(), InputMode::Rid);
    let rid_cfg = PartitionerConfig {
        partition_fn: f,
        ..rid_cfg
    };
    let (_, rid_report) = FpgaPartitioner::new(rid_cfg).partition(&row).expect("RID");

    println!("Partitioning {n} rows into {} partitions:", 1 << bits);
    println!(
        "  RID  mode: read {:>8} lines, wrote {:>8} lines, {:>7.1} Mtuples/s (simulated)",
        rid_report.qpi.lines_read,
        rid_report.qpi.lines_written,
        rid_report.mtuples_per_sec()
    );
    println!(
        "  VRID mode: read {:>8} lines, wrote {:>8} lines, {:>7.1} Mtuples/s (simulated)",
        vrid_report.qpi.lines_read,
        vrid_report.qpi.lines_written,
        vrid_report.mtuples_per_sec()
    );
    println!(
        "  → VRID reads {:.1}x fewer lines (key column only), hence the Figure 9 speed-up.",
        rid_report.qpi.lines_read as f64 / vrid_report.qpi.lines_read as f64
    );

    // Materialise a partition: VRIDs point back into the payload column.
    let sample = (0..parts.num_partitions())
        .find(|&p| parts.partition_valid(p) > 0)
        .expect("some partition is non-empty");
    let mut materialised = 0u64;
    for t in parts.partition_tuples(sample) {
        let vrid = t.payload as u64;
        let full = col.materialize(t.key, vrid);
        assert_eq!(full.payload as u64 % 10, 1, "payload column formula");
        materialised += 1;
    }
    println!(
        "Materialised partition {sample}: {materialised} tuples re-associated with their \
         payload column entries."
    );

    // Every row is accounted for exactly once.
    assert_eq!(parts.total_valid(), n);
    println!("All {n} rows partitioned and materialisable — VRID round trip verified.");

    // A column-store join with a Zipf-skewed S on zero PAD padding: S
    // overflows its PAD run, and the default chain restarts it in HIST
    // mode (Section 5.4) instead of failing. Matched rows are
    // late-materialised through their VRIDs.
    let (r, s) = WorkloadId::A
        .spec()
        .skewed_row_relations::<Tuple8>(0.001, 1.5, 33);
    let columns = |rel: &Relation<Tuple8>| {
        let keys: Vec<u32> = rel.tuples().iter().map(|t| t.key).collect();
        let payloads: Vec<u64> = (0..keys.len() as u64).map(|i| i * 10 + 1).collect();
        ColumnRelation::<Tuple8>::from_columns(&keys, &payloads)
    };
    let (rc, sc) = (columns(&r), columns(&s));
    let zero_pad = PartitionerConfig {
        partition_fn: f,
        ..PartitionerConfig::paper_default(
            OutputMode::Pad {
                padding: PaddingSpec::Tuples(0),
            },
            InputMode::Vrid,
        )
    };
    let chain = EscalationChain::new(2);
    let (vrid, report) =
        radix_join(&FpgaPartitioner::new(zero_pad), &chain, &rc, &sc).expect("VRID join");
    let (rows_r, rows_s) = (rc.to_row_store(), sc.to_row_store());
    let cpu = CpuPartitioner::new(f, 2);
    let (rid, _) = radix_join(&cpu, &chain, &rows_r, &rows_s).expect("RID join");
    assert_eq!(
        vrid, rid,
        "the VRID join must equal the RID join of the same rows"
    );
    assert!(report.s.degraded(), "Zipf 1.5 S must overflow zero padding");
    println!(
        "Column-store join, Zipf 1.5 S on zero PAD padding: S ran {} after an {} abort; \
         {} matches, equal to the RID join.",
        report.s.final_attempt().label(),
        report.s.attempts[0].label(),
        vrid.matches
    );
}
