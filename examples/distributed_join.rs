//! Rack-scale distributed radix join with network-attached FPGA
//! partitioners — the paper's second future use case (Section 6),
//! simulated across cluster sizes.
//!
//! ```text
//! cargo run --release --example distributed_join [scale]
//! ```

use fpart::join::buildprobe::reference_join;
use fpart::net::{DistributedJoin, NetworkModel};
use fpart::prelude::*;

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(0.002);
    let (r, s) = WorkloadId::A.spec().row_relations::<Tuple8>(scale, 7);
    let (expect_matches, _) = reference_join(r.tuples(), s.tuples());
    println!(
        "Workload A at scale {scale}: {} ⋈ {} tuples ({} matches expected)\n",
        r.len(),
        s.len(),
        expect_matches
    );

    println!(
        "{:<6} {:>14} {:>12} {:>12} {:>12} {:>10}",
        "nodes", "partition (s)", "exchange (s)", "local (s)", "total (s)", "net MB"
    );
    for nodes in [1usize, 2, 4, 8, 16] {
        let join = DistributedJoin::new(nodes, 6);
        let (result, report) = join.execute(&r, &s).expect("distributed join");
        assert_eq!(
            result.matches, expect_matches,
            "correctness at {nodes} nodes"
        );
        println!(
            "{:<6} {:>14.5} {:>12.5} {:>12.5} {:>12.5} {:>10.1}",
            nodes,
            report.partition_seconds,
            report.exchange_seconds,
            report.local_join_seconds,
            report.total_seconds(),
            report.network_bytes as f64 / 1e6
        );
    }

    println!("\nSame cluster on 10 GbE instead of FDR InfiniBand (4 nodes):");
    for (label, network) in [
        ("FDR InfiniBand", NetworkModel::fdr_infiniband()),
        ("10 GbE", NetworkModel::ten_gbe()),
    ] {
        let mut join = DistributedJoin::new(4, 6);
        join.network = network;
        let (_, report) = join.execute(&r, &s).expect("join");
        println!(
            "  {label:<16} exchange {:.5} s  (total {:.5} s)",
            report.exchange_seconds,
            report.total_seconds()
        );
    }

    println!("\nCPU node partitioners instead of FPGAs (4 nodes):");
    let mut join = DistributedJoin::new(4, 6);
    join.engine = Some(EngineChoice::Cpu);
    let (result, report) = join.execute(&r, &s).expect("join");
    assert_eq!(result.matches, expect_matches);
    println!(
        "  node partitioning {:.5} s (measured on this host) vs FPGA simulated above",
        report.partition_seconds
    );
    println!("\nAll cluster sizes produced identical join results ✓");
}
