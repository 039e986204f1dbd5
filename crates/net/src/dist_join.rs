//! The distributed radix join.
//!
//! Level 1 partitions by hash bits `[0, node_bits)` (one partition per
//! node); after the exchange, level 2 partitions locally by hash bits
//! `[node_bits, node_bits + local_bits)` — disjoint bit ranges, so the
//! two levels compose into one `node_bits + local_bits`-way partitioning
//! exactly like a two-pass radix join (Barthels et al.'s structure).

use fpart_cpu::CpuPartitioner;
use fpart_fpga::{FpgaPartitioner, InputMode, OutputMode, PartitionerConfig};
use fpart_hash::PartitionFn;
use fpart_join::buildprobe::build_probe_all;
use fpart_join::radix::JoinResult;
use fpart_join::{radix_join, EngineChoice, EnginePlanner, EscalationChain};
use fpart_types::{PartitionedRelation, Relation, Result, Tuple};

use crate::exchange::{exchange, scatter_evenly};
use crate::network::NetworkModel;

/// Timing report of a distributed join.
#[derive(Debug, Clone)]
pub struct DistJoinReport {
    /// Nodes in the cluster.
    pub nodes: usize,
    /// Node-level partitioning wall time (parallel across nodes: the
    /// slowest node's time; simulated for FPGA, measured for CPU).
    pub partition_seconds: f64,
    /// All-to-all exchange time from the network model.
    pub exchange_seconds: f64,
    /// Local join time (parallel across nodes: the slowest node's
    /// measured time).
    pub local_join_seconds: f64,
    /// Bytes that crossed the network (off-diagonal traffic).
    pub network_bytes: u64,
    /// Tuples received per node after the exchange, R then S — exposes
    /// skew-driven imbalance.
    pub node_loads: Vec<(usize, usize)>,
}

impl DistJoinReport {
    /// Total modelled wall time of the distributed join.
    pub fn total_seconds(&self) -> f64 {
        self.partition_seconds + self.exchange_seconds + self.local_join_seconds
    }

    /// Network-volume counters as an observability counter set. One
    /// "message" is one node-to-node flow of the all-to-all exchange
    /// (`nodes × (nodes − 1)` off-diagonal flows, R and S together).
    pub fn obs_counters(&self) -> fpart_obs::CounterSet {
        use fpart_obs::Ctr;
        let mut c = fpart_obs::CounterSet::default();
        c.set(Ctr::NetBytesShuffled, self.network_bytes);
        c.set(
            Ctr::NetMessages,
            (self.nodes * self.nodes.saturating_sub(1)) as u64,
        );
        c
    }
}

/// A configured distributed join.
///
/// # Examples
///
/// ```
/// use fpart_net::DistributedJoin;
/// use fpart_datagen::WorkloadId;
/// use fpart_types::Tuple8;
///
/// let (r, s) = WorkloadId::A.spec().row_relations::<Tuple8>(0.0001, 1);
/// let join = DistributedJoin::new(4, 5); // 4 nodes, 32 local partitions
/// let (result, report) = join.execute(&r, &s)?;
/// assert_eq!(result.matches, s.len() as u64); // FK join
/// assert!(report.exchange_seconds > 0.0);
/// # Ok::<(), fpart_types::FpartError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DistributedJoin {
    /// Cluster size (must be a power of two — the node id is a hash bit
    /// range).
    pub nodes: usize,
    /// Local fan-out bits per node (level-2 partitions = `2^local_bits`).
    pub local_bits: u32,
    /// Per-node partitioning engine: the host CPU (measured time), a
    /// network-attached FPGA (simulated time, HIST mode), or the CPU⊕FPGA
    /// split over that FPGA. `None` lets an [`EnginePlanner`] price the
    /// back-ends per node share. Every choice runs through the
    /// degradation chain.
    pub engine: Option<EngineChoice>,
    /// The fabric between nodes.
    pub network: NetworkModel,
    /// Threads for local joins (per node, on this host).
    pub threads: usize,
}

impl DistributedJoin {
    /// A cluster of `nodes` FDR-InfiniBand-connected machines with
    /// FPGA partitioners.
    pub fn new(nodes: usize, local_bits: u32) -> Self {
        assert!(nodes.is_power_of_two(), "node count must be a power of two");
        Self {
            nodes,
            local_bits,
            engine: Some(EngineChoice::Fpga),
            network: NetworkModel::fdr_infiniband(),
            threads: 1,
        }
    }

    /// Hash bits selecting the node.
    pub fn node_bits(&self) -> u32 {
        self.nodes.trailing_zeros()
    }

    /// The level-1 (node-routing) partition function.
    ///
    /// # Panics
    /// Panics for a single-node cluster (there is no routing level;
    /// [`DistributedJoin::execute`] short-circuits that case).
    pub fn node_fn(&self) -> PartitionFn {
        assert!(self.nodes > 1, "single-node clusters have no node level");
        PartitionFn::Murmur {
            bits: self.node_bits(),
        }
    }

    /// The level-2 (local) partition function: the next hash-bit range.
    pub fn local_fn(&self) -> PartitionFn {
        PartitionFn::MurmurAt {
            shift: self.node_bits(),
            bits: self.local_bits,
        }
    }

    /// Level-1 partition one node's share; returns the fragments and the
    /// phase seconds: simulated for an FPGA run, measured for a CPU run,
    /// and for a split the slower share, host or simulated — the one
    /// place the distributed join blends the two time domains.
    fn partition_share<T: Tuple>(
        &self,
        share: &Relation<T>,
    ) -> Result<(PartitionedRelation<T>, f64)> {
        let f = self.node_fn();
        let (parts, report) = match self.engine {
            None => EnginePlanner::new(self.threads).plan(share, f).run(share)?,
            Some(choice) => {
                let config = PartitionerConfig {
                    partition_fn: f,
                    ..PartitionerConfig::paper_default(OutputMode::Hist, InputMode::Rid)
                };
                let engine = choice.engine(FpgaPartitioner::new(config), self.threads);
                EscalationChain::new(self.threads).run(engine.as_ref(), share)?
            }
        };
        let host = report.stats.wall_time().unwrap_or_default().as_secs_f64();
        let simulated = report.stats.simulated_seconds().unwrap_or(0.0);
        Ok((parts, host.max(simulated)))
    }

    /// Execute R ⋈ S across the cluster.
    pub fn execute<T: Tuple>(
        &self,
        r: &Relation<T>,
        s: &Relation<T>,
    ) -> Result<(JoinResult, DistJoinReport)> {
        // A single-node "cluster" is just the local join: no routing
        // level, no exchange.
        if self.nodes == 1 {
            let cpu = CpuPartitioner::new(
                PartitionFn::Murmur {
                    bits: self.local_bits,
                },
                self.threads,
            );
            let (result, report) = radix_join(&cpu, &EscalationChain::new(self.threads), r, s)?;
            return Ok((
                result,
                DistJoinReport {
                    nodes: 1,
                    partition_seconds: 0.0,
                    exchange_seconds: 0.0,
                    local_join_seconds: report.host_time().as_secs_f64(),
                    network_bytes: 0,
                    node_loads: vec![(r.len(), s.len())],
                },
            ));
        }

        // Load the data across nodes.
        let r_shares = scatter_evenly(r, self.nodes);
        let s_shares = scatter_evenly(s, self.nodes);

        // Phase 1: node-level partitioning (all nodes in parallel — the
        // phase lasts as long as the slowest node).
        let mut partition_seconds = 0.0f64;
        let mut r_frags = Vec::with_capacity(self.nodes);
        let mut s_frags = Vec::with_capacity(self.nodes);
        for (rs, ss) in r_shares.iter().zip(&s_shares) {
            let (rp, rt) = self.partition_share(rs)?;
            let (sp, st) = self.partition_share(ss)?;
            partition_seconds = partition_seconds.max(rt + st);
            r_frags.push(rp);
            s_frags.push(sp);
        }

        // Phase 2: the exchange.
        let r_plan = exchange(&r_frags);
        let s_plan = exchange(&s_frags);
        let mut traffic = r_plan.traffic.clone();
        for (row, s_row) in traffic.iter_mut().zip(&s_plan.traffic) {
            for (cell, &s_cell) in row.iter_mut().zip(s_row) {
                *cell += s_cell;
            }
        }
        let exchange_seconds = self.network.all_to_all_seconds(&traffic)?;
        let network_bytes: u64 = traffic
            .iter()
            .enumerate()
            .flat_map(|(src, row)| {
                row.iter()
                    .enumerate()
                    .filter(move |(dst, _)| *dst != src)
                    .map(|(_, &b)| b)
            })
            .sum();

        // Phase 3: local partitioned joins on the level-2 hash bits.
        let local_bits_total = self.node_bits() + self.local_bits;
        let mut matches = 0u64;
        let mut checksum = 0u64;
        let mut local_join_seconds = 0.0f64;
        let mut node_loads = Vec::with_capacity(self.nodes);
        for (r_local, s_local) in r_plan.received.iter().zip(&s_plan.received) {
            node_loads.push((r_local.len(), s_local.len()));
            let p = CpuPartitioner::new(self.local_fn(), self.threads);
            let t0 = std::time::Instant::now();
            let (rp, _) = p.partition(r_local);
            let (sp, _) = p.partition(s_local);
            let bp = build_probe_all(&rp, &sp, local_bits_total, self.threads);
            local_join_seconds = local_join_seconds.max(t0.elapsed().as_secs_f64());
            matches += bp.matches;
            checksum = checksum.wrapping_add(bp.checksum);
        }

        Ok((
            JoinResult { matches, checksum },
            DistJoinReport {
                nodes: self.nodes,
                partition_seconds,
                exchange_seconds,
                local_join_seconds,
                network_bytes,
                node_loads,
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpart_datagen::WorkloadId;
    use fpart_join::buildprobe::reference_join;
    use fpart_types::Tuple8;

    fn workload(scale: f64, seed: u64) -> (Relation<Tuple8>, Relation<Tuple8>) {
        WorkloadId::A.spec().row_relations::<Tuple8>(scale, seed)
    }

    #[test]
    fn distributed_join_matches_reference_for_all_cluster_sizes() {
        let (r, s) = workload(0.00008, 1);
        let (expect_m, expect_c) = reference_join(r.tuples(), s.tuples());
        for nodes in [1usize, 2, 4, 8] {
            let join = DistributedJoin::new(nodes, 5);
            let (result, report) = join.execute(&r, &s).unwrap();
            assert_eq!(
                (result.matches, result.checksum),
                (expect_m, expect_c),
                "{nodes} nodes"
            );
            assert_eq!(report.nodes, nodes);
            assert!(report.total_seconds() > 0.0);
        }
    }

    #[test]
    fn cpu_and_fpga_node_partitioners_agree() {
        let (r, s) = workload(0.00005, 2);
        let mut join = DistributedJoin::new(4, 4);
        let (fpga_result, _) = join.execute(&r, &s).unwrap();
        join.engine = Some(EngineChoice::Cpu);
        let (cpu_result, _) = join.execute(&r, &s).unwrap();
        assert_eq!(fpga_result, cpu_result);
    }

    #[test]
    fn hybrid_split_node_partitioner_agrees() {
        let (r, s) = workload(0.00005, 2);
        let mut join = DistributedJoin::new(4, 4);
        let (fpga_result, _) = join.execute(&r, &s).unwrap();
        join.engine = Some(EngineChoice::Hybrid);
        let (split_result, report) = join.execute(&r, &s).unwrap();
        assert_eq!(split_result, fpga_result);
        assert!(report.partition_seconds > 0.0);
    }

    #[test]
    fn planned_node_partitioner_agrees_and_times_each_node() {
        let (r, s) = workload(0.00005, 7);
        let mut join = DistributedJoin::new(4, 4);
        let (fpga_result, _) = join.execute(&r, &s).unwrap();
        join.engine = None;
        let (planned_result, report) = join.execute(&r, &s).unwrap();
        assert_eq!(planned_result, fpga_result);
        assert!(report.partition_seconds > 0.0);
    }

    #[test]
    fn network_traffic_is_about_n_minus_one_over_n() {
        // With a uniform hash, ~ (nodes-1)/nodes of the data crosses the
        // network.
        let (r, s) = workload(0.0001, 3);
        let total_bytes = ((r.len() + s.len()) * 8) as f64;
        let join = DistributedJoin::new(4, 4);
        let (_, report) = join.execute(&r, &s).unwrap();
        let crossing = report.network_bytes as f64 / total_bytes;
        assert!(
            (0.70..0.80).contains(&crossing),
            "expected ~0.75 of bytes to cross, got {crossing:.3}"
        );
    }

    #[test]
    fn node_loads_balance_on_uniform_keys() {
        let (r, s) = workload(0.0001, 4);
        let join = DistributedJoin::new(8, 3);
        let (_, report) = join.execute(&r, &s).unwrap();
        let loads: Vec<usize> = report.node_loads.iter().map(|&(a, b)| a + b).collect();
        let mean = loads.iter().sum::<usize>() as f64 / loads.len() as f64;
        for l in &loads {
            assert!(
                (*l as f64 - mean).abs() < mean * 0.2,
                "node load {l} vs mean {mean:.0}"
            );
        }
    }

    #[test]
    fn skewed_probe_concentrates_one_node() {
        let (r, s) = WorkloadId::A
            .spec()
            .skewed_row_relations::<Tuple8>(0.0001, 1.5, 5);
        let (expect_m, _) = reference_join(r.tuples(), s.tuples());
        let join = DistributedJoin::new(4, 4);
        let (result, report) = join.execute(&r, &s).unwrap();
        assert_eq!(result.matches, expect_m);
        let s_loads: Vec<usize> = report.node_loads.iter().map(|&(_, b)| b).collect();
        let max = *s_loads.iter().max().unwrap();
        let min = *s_loads.iter().min().unwrap();
        assert!(
            max > 2 * min.max(1),
            "zipf 1.5 should unbalance node loads: {s_loads:?}"
        );
    }

    #[test]
    fn faster_network_shrinks_exchange_time() {
        let (r, s) = workload(0.0001, 6);
        let mut join = DistributedJoin::new(4, 4);
        let (_, fast) = join.execute(&r, &s).unwrap();
        join.network = NetworkModel::ten_gbe();
        let (_, slow) = join.execute(&r, &s).unwrap();
        assert!(slow.exchange_seconds > 4.0 * fast.exchange_seconds);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_cluster_rejected() {
        let _ = DistributedJoin::new(3, 4);
    }
}
