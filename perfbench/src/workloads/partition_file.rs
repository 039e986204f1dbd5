//! `partition-file`: read an FPRT file and partition it on one CPU
//! thread — the `fpart partition --in` path. The io and cpu layers do
//! all the work; the simulator does none.

use std::path::PathBuf;

use fpart::io::{read_relation, write_relation};
use fpart::prelude::{
    CpuPartitioner, FpgaPartitioner, InputMode, KeyDistribution, OutputMode, PartitionedRelation,
    PartitionerConfig, Relation, SimFidelity, Tuple8,
};
use fpart::types::relation::content_checksum;

use super::{hash_ns_per_key, median_ms, reference_histogram, PARTITION_FN, PROBE_REPS};
use crate::trace::Tracer;
use crate::workload::{Config, Exact, Workload};

/// Random keys in the input file at scale 1.
pub const TUPLES: usize = 4_000_000;

/// Inputs and references of `partition-file`.
pub struct PartitionFile {
    path: PathBuf,
    input: Relation<Tuple8>,
    histogram: Vec<usize>,
    checksum: (u64, u64, u64),
}

/// What one op returns: the relation read, its partitions and the CPU
/// report.
pub type Output = (
    Relation<Tuple8>,
    PartitionedRelation<Tuple8>,
    fpart::cpu::CpuRunReport,
);

impl PartitionFile {
    /// Corrupt the reference histogram (for the failure-path test).
    pub fn corrupt_reference(&mut self) {
        self.histogram[0] += 1;
    }
}

impl Workload for PartitionFile {
    type Output = Output;

    fn setup(cfg: &Config, tr: &mut Tracer) -> Result<Self, String> {
        let n = cfg.scaled(TUPLES);
        let input = tr.span("datagen.gen", |_| {
            let keys = KeyDistribution::Random.generate_keys::<u32>(n, cfg.seed);
            Relation::<Tuple8>::from_keys(&keys)
        });
        let path = cfg.tmp_dir.join("input.fprt");
        tr.span("io.write", |_| write_relation(&input, &path))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        let (histogram, checksum) = tr.span("setup.reference", |_| {
            (
                reference_histogram(input.tuples()),
                content_checksum(input.tuples().iter().copied()),
            )
        });
        Ok(Self {
            path,
            input,
            histogram,
            checksum,
        })
    }

    fn tuples(&self) -> u64 {
        self.input.len() as u64
    }

    fn op(&self, tr: &mut Tracer) -> Result<Output, String> {
        let rel = tr
            .span("io.read", |_| read_relation::<Tuple8>(&self.path))
            .map_err(|e| e.to_string())?;
        let (parts, report) = tr.span("cpu.partition", |_| {
            CpuPartitioner::new(PARTITION_FN, 1).partition(&rel)
        });
        Ok((rel, parts, report))
    }

    fn check(&self, (_, parts, report): Output) -> Result<Exact, String> {
        if parts.histogram() != self.histogram.as_slice() {
            return Err("partition histogram differs from the reference".into());
        }
        if content_checksum(parts.all_tuples()) != self.checksum {
            return Err("key/payload checksum differs from the input's".into());
        }
        Ok(Exact::from([
            ("cpu.swwcb_full_flushes", report.swwcb_full_flushes as f64),
            (
                "cpu.swwcb_partial_flushes",
                report.swwcb_partial_flushes as f64,
            ),
            ("cpu.nt_store_lines", report.nt_store_lines as f64),
        ]))
    }

    /// The op partitions on the CPU, so this is what `--backend fpga`
    /// would take on the same input: one batched HIST/RID run.
    fn sim_mtuples_per_s(&self, _: &Exact) -> Result<f64, String> {
        let config = PartitionerConfig {
            partition_fn: PARTITION_FN,
            ..PartitionerConfig::paper_default(OutputMode::Hist, InputMode::Rid)
        }
        .with_fidelity(SimFidelity::Batched);
        let (parts, report) = FpgaPartitioner::new(config)
            .partition(&self.input)
            .map_err(|e| e.to_string())?;
        if parts.histogram() != self.histogram.as_slice() {
            return Err("simulated FPGA histogram differs from the reference".into());
        }
        Ok(report.mtuples_per_sec())
    }

    fn probes(&self) -> Vec<(&'static str, f64)> {
        let threads_2 = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
        let one = CpuPartitioner::new(PARTITION_FN, 1);
        let two = CpuPartitioner::new(PARTITION_FN, threads_2);
        let t1 = median_ms(PROBE_REPS, || one.partition(&self.input));
        let t2 = median_ms(PROBE_REPS, || two.partition(&self.input));
        vec![
            ("hash.ns_per_key", hash_ns_per_key(self.input.tuples())),
            (
                "cpu.histogram_ms",
                median_ms(PROBE_REPS, || one.histogram_only(&self.input)),
            ),
            ("cpu.partition_2t_ms", t2),
            ("cpu.scaling_2t", t1 / t2),
        ]
    }
}
