//! Extension: rack-scale distributed join scaling (the paper's second
//! future use case, Section 6 — FPGA partitioners on the network, per
//! Barthels et al.).
//!
//! Runs workload A across simulated cluster sizes and reports the phase
//! decomposition: node-level FPGA partitioning (simulated), all-to-all
//! exchange (FDR InfiniBand model), local joins (measured). Correctness
//! is asserted against the single-node join on every row.

use fpart::join::buildprobe::reference_join;
use fpart::net::{DistributedJoin, NetworkModel};
use fpart::prelude::*;

use crate::figures::common::{scale_note, workload_rows};
use crate::table::{fnum, TextTable};
use crate::Scale;

/// Generate the distributed-scaling report.
pub fn run(scale: &Scale) -> Vec<TextTable> {
    let pair = workload_rows(WorkloadId::A, scale.fraction, scale.seed);
    let (r, s) = &*pair;
    let (expect_matches, expect_checksum) = reference_join(r.tuples(), s.tuples());

    let mut t = TextTable::new(
        format!(
            "Distributed join scaling — workload A ({} ⋈ {} tuples), FPGA node partitioners, \
             FDR InfiniBand",
            r.len(),
            s.len()
        ),
        &[
            "nodes",
            "partition (s, sim)",
            "exchange (s, model)",
            "local join (s, meas)",
            "net MB",
            "max/mean load",
        ],
    );
    let mut ib: Option<fpart::net::DistJoinReport> = None;
    for nodes in [1usize, 2, 4, 8, 16] {
        // The local-join wall time is measured, so the cluster-size axis
        // stays serial.
        let join = DistributedJoin::new(nodes, scale.partition_bits_for(13));
        let t0 = std::time::Instant::now();
        let (result, report) = join.execute(r, s).expect("distributed join");
        crate::record::emit(
            "distributed",
            &format!("nodes={nodes}"),
            0.0,
            0,
            t0.elapsed().as_secs_f64(),
        );
        assert_eq!(
            (result.matches, result.checksum),
            (expect_matches, expect_checksum),
            "{nodes}-node join diverged"
        );
        let loads: Vec<usize> = report.node_loads.iter().map(|&(a, b)| a + b).collect();
        let mean = loads.iter().sum::<usize>() as f64 / loads.len() as f64;
        let max = *loads.iter().max().expect("non-empty") as f64;
        t.row(vec![
            nodes.to_string(),
            fnum(report.partition_seconds),
            fnum(report.exchange_seconds),
            fnum(report.local_join_seconds),
            fnum(report.network_bytes as f64 / 1e6),
            format!("{:.2}", max / mean),
        ]);
        if nodes == 4 {
            ib = Some(report);
        }
    }

    // Network sensitivity at 4 nodes: the FDR IB numbers come from the
    // scaling loop above (the exchange model is deterministic), so only
    // the 10 GbE variant needs a fresh run.
    let mut n4 = DistributedJoin::new(4, scale.partition_bits_for(13));
    let ib = ib.expect("4-node row ran");
    n4.network = NetworkModel::ten_gbe();
    let (_, gbe) = n4.execute(r, s).expect("gbe join");
    t.note(format!(
        "4-node exchange: {:.5} s on FDR IB vs {:.5} s on 10 GbE ({:.1}x)",
        ib.exchange_seconds,
        gbe.exchange_seconds,
        gbe.exchange_seconds / ib.exchange_seconds
    ));
    t.note("every row verified against the single-node reference join");
    t.note(scale_note(scale));
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_covers_all_cluster_sizes() {
        let out = crate::table::render_tables(&run(&Scale {
            fraction: 1.0 / 2048.0,
            host_threads: 1,
            seed: 4,
        }));
        for nodes in ["1 ", "2 ", "4 ", "8 ", "16"] {
            assert!(
                out.lines().any(|l| l.trim_start().starts_with(nodes)),
                "missing {nodes}-node row:\n{out}"
            );
        }
        assert!(out.contains("10 GbE"));
    }
}
