//! Shared helpers for the figure generators.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use fpart::prelude::*;
use fpart_fpga::{mode_label, FpgaPartitioner, RunReport};
use fpart_hwsim::QpiConfig;

use crate::Scale;

// ---------------------------------------------------------------------
// Deterministic datagen caches.
//
// Generated inputs are pure functions of (distribution/workload, size,
// seed), and many figures draw the same data — e.g. every fig9 mode point
// simulates the same 2 M random keys, and workload A's row relations feed
// fig10, fig11 and the distributed join. Memoising them removes repeated
// generation from the harness wall clock without touching any measured
// region (generation always happened *outside* the timed sections).
// ---------------------------------------------------------------------

type KeyCacheMap = Mutex<HashMap<(KeyDistribution, usize, u64), Arc<Vec<u32>>>>;
type RowPair = Arc<(Relation<Tuple8>, Relation<Tuple8>)>;
type RowCacheMap = Mutex<HashMap<(WorkloadId, u64, u64), RowPair>>;
type ColPair = Arc<(ColumnRelation<Tuple8>, ColumnRelation<Tuple8>)>;
type ColCacheMap = Mutex<HashMap<(WorkloadId, u64, u64), ColPair>>;

static KEY_CACHE: OnceLock<KeyCacheMap> = OnceLock::new();
static ROW_CACHE: OnceLock<RowCacheMap> = OnceLock::new();
static COL_CACHE: OnceLock<ColCacheMap> = OnceLock::new();

/// `dist.generate_keys::<u32>(n, seed)`, memoised.
pub fn cached_keys(dist: KeyDistribution, n: usize, seed: u64) -> Arc<Vec<u32>> {
    let cache = KEY_CACHE.get_or_init(Default::default);
    if let Some(keys) = cache.lock().unwrap().get(&(dist, n, seed)) {
        return Arc::clone(keys);
    }
    let keys = Arc::new(dist.generate_keys::<u32>(n, seed));
    cache
        .lock()
        .unwrap()
        .entry((dist, n, seed))
        .or_insert(keys)
        .clone()
}

/// `id.spec().row_relations::<Tuple8>(fraction, seed)`, memoised.
pub fn workload_rows(id: WorkloadId, fraction: f64, seed: u64) -> RowPair {
    let cache = ROW_CACHE.get_or_init(Default::default);
    let key = (id, fraction.to_bits(), seed);
    if let Some(pair) = cache.lock().unwrap().get(&key) {
        return Arc::clone(pair);
    }
    let pair = Arc::new(id.spec().row_relations::<Tuple8>(fraction, seed));
    cache.lock().unwrap().entry(key).or_insert(pair).clone()
}

/// `id.spec().column_relations::<Tuple8>(fraction, seed)`, memoised.
pub fn workload_columns(id: WorkloadId, fraction: f64, seed: u64) -> ColPair {
    let cache = COL_CACHE.get_or_init(Default::default);
    let key = (id, fraction.to_bits(), seed);
    if let Some(pair) = cache.lock().unwrap().get(&key) {
        return Arc::clone(pair);
    }
    let pair = Arc::new(id.spec().column_relations::<Tuple8>(fraction, seed));
    cache.lock().unwrap().entry(key).or_insert(pair).clone()
}

/// Build a row-store relation with `dist` keys at the given size.
pub fn relation(n: usize, dist: KeyDistribution, seed: u64) -> Relation<Tuple8> {
    Relation::from_keys(&cached_keys(dist, n, seed))
}

/// Run the simulated FPGA partitioner in a given mode pair over `n`
/// random tuples; `raw` swaps the QPI link for the 25.6 GB/s wrapper.
/// PAD runs at its default padding.
///
/// The simulator runs batched, its default: the partitioned bytes are
/// identical to the cycle-accurate path (differential tests in
/// `fpart-fpga`) and the cycle count is analytic, which is what makes
/// the full suite fast enough to run on every change.
pub fn simulate_mode(
    (output, input): (OutputMode, InputMode),
    n: usize,
    bits: u32,
    raw: bool,
    seed: u64,
) -> RunReport {
    let config = PartitionerConfig {
        partition_fn: PartitionFn::Murmur { bits },
        ..PartitionerConfig::paper_default(output, input)
    };
    let partitioner = if raw {
        FpgaPartitioner::with_qpi(
            config,
            QpiConfig::harp(fpart::memmodel::bandwidth::raw_wrapper_curve()),
        )
    } else {
        FpgaPartitioner::new(config)
    };
    let keys = cached_keys(KeyDistribution::Random, n, seed);
    if input == InputMode::Vrid {
        let col = ColumnRelation::<Tuple8>::from_keys(&keys);
        partitioner.partition(&col).expect("VRID sim").1
    } else {
        let rel = Relation::<Tuple8>::from_keys(&keys);
        partitioner.partition(&rel).expect("RID sim").1
    }
}

/// Simulate a batch of `(mode, raw)` points in parallel (scoped
/// threads, one per available core) and emit one record per point — in
/// input order, so `BENCH_figures.json` stays deterministic regardless
/// of scheduling.
pub fn sim_points(
    figure: &str,
    points: &[((OutputMode, InputMode), bool)],
    n: usize,
    bits: u32,
    seed: u64,
) -> Vec<RunReport> {
    let sims = crate::par::par_map(
        points.to_vec(),
        crate::par::default_workers(),
        |(mode, raw)| {
            let t0 = std::time::Instant::now();
            let report = simulate_mode(mode, n, bits, raw, seed);
            (report, t0.elapsed().as_secs_f64())
        },
    );
    points
        .iter()
        .zip(sims)
        .map(|(&((output, input), raw), (report, wall))| {
            let label = mode_label(output, input);
            let point = if raw { format!("{label} raw") } else { label };
            crate::record::emit_report(figure, &point, &report, wall);
            report
        })
        .collect()
}

/// Standard preamble line describing the run scale.
pub fn scale_note(scale: &Scale) -> String {
    format!(
        "scale {:.5} of the paper's sizes ({} tuples for 128M workloads), host has {} thread(s)",
        scale.fraction,
        scale.n_128m(),
        scale.host_threads
    )
}

/// The paper's per-figure thread axis.
pub const THREAD_AXIS: [usize; 5] = [1, 2, 4, 8, 10];

/// The paper's Figure 10 partition axis.
pub const PARTITION_AXIS: [usize; 6] = [256, 512, 1024, 2048, 4096, 8192];
