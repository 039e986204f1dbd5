//! An end-to-end analytical query composed from the library's operators —
//! the kind of workload the paper's introduction motivates ("modern
//! in-memory analytical database engines"):
//!
//! ```sql
//! SELECT d.region, COUNT(*), SUM(f.amount)
//! FROM   fact f JOIN dim d ON f.dim_key = d.key
//! GROUP BY d.region;
//! ```
//!
//! Plan: partition-join fact⋈dim (hybrid: simulated FPGA partitioning +
//! CPU build+probe), materialise `(region, amount)` pairs, then
//! partition-aggregate by region — every operator is the partitioning
//! machinery wearing a different hat.
//!
//! ```text
//! cargo run --release --example analytics_query [n_fact_rows]
//! ```

use std::collections::HashMap;

use fpart::join::materialize::materialize_join;
use fpart::prelude::*;

const REGIONS: [&str; 5] = ["EMEA", "AMER", "APAC", "LATAM", "ANZ"];

fn main() {
    let n_fact: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(500_000);
    let n_dim = 50_000usize;
    let bits = 8;
    let threads = std::thread::available_parallelism().map_or(1, |p| p.get());

    // --- Build the tables.
    // Dimension: key → region id (payload). Unique random keys.
    let dim_keys = KeyDistribution::Random.generate_keys::<u32>(n_dim, 1);
    let dim_tuples: Vec<Tuple8> = dim_keys
        .iter()
        .enumerate()
        .map(|(i, &k)| Tuple8::new(k, (i % REGIONS.len()) as u64))
        .collect();
    let dim = Relation::from_tuples(&dim_tuples);

    // Fact: foreign keys into the dimension; payload = amount.
    let fact_keys = fpart::datagen::dist::zipf_foreign_keys(&dim_keys, n_fact, 0.5, 2);
    let fact_tuples: Vec<Tuple8> = fact_keys
        .iter()
        .enumerate()
        .map(|(i, &k)| Tuple8::new(k, (i % 1000) as u64)) // amount 0..999
        .collect();
    let fact = Relation::from_tuples(&fact_tuples);
    println!(
        "fact: {n_fact} rows, dim: {n_dim} rows, {} regions",
        REGIONS.len()
    );

    // --- Join: FPGA partitions both sides (simulated), CPU builds+probes.
    let f = PartitionFn::Murmur { bits };
    let config = PartitionerConfig {
        partition_fn: f,
        ..PartitionerConfig::paper_default(OutputMode::pad_default(), InputMode::Rid)
    };
    let fpga = FpgaPartitioner::new(config);
    // The fact table is Zipf-skewed: single-pass PAD mode may overflow a
    // partition, upon which the run aborts and restarts in HIST mode —
    // the recovery flow of Section 5.4.
    let chain = EscalationChain {
        cpu_fallback: false,
        ..EscalationChain::new(threads)
    };
    let (dim_parts, dim_rep) = chain.run(&fpga, &dim).expect("partition dim");
    let (fact_parts, fact_rep) = chain.run(&fpga, &fact).expect("HIST mode handles any skew");
    if let Some(FpartError::PartitionOverflow {
        partition,
        consumed,
        ..
    }) = fact_rep.first_error()
    {
        println!("PAD overflow in partition {partition} after {consumed} fact rows → HIST retry");
    }
    println!(
        "FPGA partitioning (simulated): dim {:.4} s + fact {:.4} s",
        dim_rep.fpga().expect("no CPU fallback").seconds(),
        fact_rep.fpga().expect("no CPU fallback").seconds()
    );

    let t0 = std::time::Instant::now();
    let rows = materialize_join(&dim_parts, &fact_parts, bits, threads);
    println!(
        "join materialised {} rows in {:.4} s (measured)",
        rows.len(),
        t0.elapsed().as_secs_f64()
    );
    assert_eq!(rows.len(), n_fact, "FK join: one match per fact row");

    // --- Aggregate: region ← r_payload (dimension side), amount ← s_payload.
    // Re-key the joined rows by region and partition-aggregate.
    let region_keyed: Vec<Tuple8> = rows
        .iter()
        .map(|row| Tuple8::new(row.r_payload as u32, row.s_payload))
        .collect();
    let rel = Relation::from_tuples(&region_keyed);
    let groups =
        fpart::join::aggregate::group_by_sum(&rel, PartitionFn::Murmur { bits: 3 }, threads);

    println!("\nregion   count      sum(amount)");
    for g in &groups {
        println!(
            "{:<8} {:>9}  {:>12}",
            REGIONS[g.key as usize], g.count, g.sum
        );
    }

    // --- Verify against a direct evaluation.
    let mut expect: HashMap<u32, (u64, u64)> = HashMap::new();
    let dim_region: HashMap<u32, u64> = dim_tuples
        .iter()
        .map(|t| (t.key, t.payload as u64))
        .collect();
    for t in &fact_tuples {
        let region = dim_region[&t.key] as u32;
        let e = expect.entry(region).or_insert((0, 0));
        e.0 += 1;
        e.1 += t.payload as u64;
    }
    for g in &groups {
        let (count, sum) = expect[&g.key];
        assert_eq!((g.count, g.sum), (count, sum), "region {}", g.key);
    }
    println!("\nverified against direct evaluation ✓");
}
