//! The multi-threaded CPU partitioner.
//!
//! Parallelisation follows Balkesen et al. (Section 4.7 of the paper):
//!
//! 1. each thread scans a contiguous chunk of the input and builds a
//!    private histogram;
//! 2. a global prefix sum over the per-thread histograms assigns every
//!    thread a private region inside every partition
//!    ([`OutputBuilder`]) — "so that each
//!    thread accesses a specific part of memory while writing out the
//!    partitions", removing all synchronisation from the scatter;
//! 3. each thread re-scans its chunk and scatters through its
//!    write-combining buffers.

use std::time::{Duration, Instant};

use fpart_hash::PartitionFn;
use fpart_types::line::MAX_LANES;
use fpart_types::{Input, PartitionLayout, PartitionedRelation, Tuple};

use crate::swwcb::{OutputBuilder, Writer};

/// A configured CPU partitioner.
///
/// # Examples
///
/// ```
/// use fpart_cpu::CpuPartitioner;
/// use fpart_hash::PartitionFn;
/// use fpart_types::{Relation, Tuple8};
///
/// let rel = Relation::<Tuple8>::from_keys(&(1..=1000u32).collect::<Vec<_>>());
/// let partitioner = CpuPartitioner::new(PartitionFn::Murmur { bits: 4 }, 2);
/// let (parts, report) = partitioner.partition(&rel);
/// assert_eq!(parts.total_valid(), 1000);
/// assert_eq!(report.passes, 2); // histogram + scatter
/// ```
#[derive(Debug, Clone)]
pub struct CpuPartitioner {
    /// Radix or hash partitioning (Section 3.2's trade-off).
    pub partition_fn: PartitionFn,
    /// Worker threads for histogram and scatter passes.
    pub threads: usize,
}

/// Timing and volume report of a CPU partitioning run.
#[derive(Debug, Clone, Copy)]
pub struct CpuRunReport {
    /// Tuples partitioned.
    pub tuples: u64,
    /// Threads used.
    pub threads: usize,
    /// Wall time of the histogram pass: every thread's private
    /// histogram, from the first key read to the last thread's join.
    pub hist_time: Duration,
    /// Wall time of everything after the histogram pass: the prefix sum
    /// into per-thread extents, the output allocation (left unwritten:
    /// the scatter writes each slot once), the scatter itself and the
    /// drain of every SWWCB.
    pub scatter_time: Duration,
    /// Data passes over the input (histogram + scatter).
    pub passes: usize,
    /// Buffer-full SWWCB flushes summed over all scatter threads.
    pub swwcb_full_flushes: u64,
    /// Drain-time partial SWWCB flushes summed over all scatter threads.
    pub swwcb_partial_flushes: u64,
    /// Cache lines written with non-temporal stores.
    pub nt_store_lines: u64,
}

impl CpuRunReport {
    /// Total wall time of the run, from the first key read to the
    /// filled output.
    pub fn total_time(&self) -> Duration {
        self.hist_time + self.scatter_time
    }

    /// Throughput in million tuples per second (end to end).
    pub fn mtuples_per_sec(&self) -> f64 {
        self.tuples as f64 / self.total_time().as_secs_f64() / 1e6
    }

    /// This report's volume counters as an observability counter set
    /// (`tuples_in`/`tuples_out` plus the SWWCB flush accounting).
    pub fn obs_counters(&self) -> fpart_obs::CounterSet {
        use fpart_obs::Ctr;
        let mut c = fpart_obs::CounterSet::default();
        c.set(Ctr::TuplesIn, self.tuples);
        c.set(Ctr::TuplesOut, self.tuples);
        c.set(Ctr::SwwcbFullFlushes, self.swwcb_full_flushes);
        c.set(Ctr::SwwcbPartialFlushes, self.swwcb_partial_flushes);
        c.set(Ctr::SwwcbNtLines, self.nt_store_lines);
        c
    }
}

impl CpuPartitioner {
    /// The paper's software baseline at a given thread count: murmur or
    /// radix via `partition_fn`, single-pass SWWCB with non-temporal
    /// stores.
    pub fn new(partition_fn: PartitionFn, threads: usize) -> Self {
        Self {
            partition_fn,
            threads: threads.max(1),
        }
    }

    /// Run only the histogram pass: tuples per partition, without
    /// materialising the scattered output. Analyses that need partition
    /// *balance* (not the partitioned bytes) should use this — it skips
    /// the scatter pass and the full-size output allocation.
    pub fn histogram_only<'a, T: Tuple>(&self, input: impl Into<Input<'a, T>>) -> Vec<usize> {
        let chunks = chunk_evenly(input.into(), self.threads);
        totals(&thread_histograms(&chunks, &self.partition_fn))
    }

    /// Partition a row store, or a column store, plain or run-length
    /// encoded, as its `(key, position)` rows — the tuples the circuit
    /// emits in VRID mode. Output extents are tuple-exact (no padding).
    pub fn partition<'a, T: Tuple>(
        &self,
        input: impl Into<Input<'a, T>>,
    ) -> (PartitionedRelation<T>, CpuRunReport) {
        scatter(input.into(), self.threads, &self.partition_fn)
    }
}

/// What the histogram and scatter passes ask of a partitioning function:
/// its fan-out, and the partition ids of one tuple line at a time.
/// Implementations inline their `line_ids` (`#[inline(always)]`), so that
/// each pass is one loop with no call per line or per tuple.
pub(crate) trait LinePartitioner<T: Tuple>: Sync {
    /// Number of partitions.
    fn fan_out(&self) -> usize;

    /// Set `ids[i]` to the partition of `line[i]`.
    fn line_ids(&self, line: &[T], ids: &mut [usize; MAX_LANES]);
}

impl<T: Tuple> LinePartitioner<T> for PartitionFn {
    fn fan_out(&self) -> usize {
        PartitionFn::fan_out(*self)
    }

    #[inline(always)]
    fn line_ids(&self, line: &[T], ids: &mut [usize; MAX_LANES]) {
        self.partition_line(line, ids)
    }
}

/// The one CPU partitioning path, for radix, hash and range partitioning
/// alike: route every tuple of `input` to one of `by`'s partitions on up
/// to `threads` threads — a histogram pass, then a single-pass SWWCB
/// scatter with non-temporal stores into tuple-exact, per-thread-disjoint
/// extents. `by` gives the partition ids of a whole tuple line at a time.
pub(crate) fn scatter<T: Tuple>(
    input: Input<'_, T>,
    threads: usize,
    by: &impl LinePartitioner<T>,
) -> (PartitionedRelation<T>, CpuRunReport) {
    let chunks = chunk_evenly(input, threads);
    let t0 = Instant::now();
    let thread_hists = thread_histograms(&chunks, by);
    let hist_time = t0.elapsed();

    // Pass 2: scatter into disjoint per-thread regions. Its timer covers
    // the output allocation and the drain too. The scatter threads are
    // fully unsynchronised.
    let t1 = Instant::now();
    let mut output = OutputBuilder::new(
        &totals(&thread_hists),
        PartitionLayout::Exact,
        &thread_hists,
    );
    let scatter = |chunk: Input<'_, T>, mut wc: Writer<'_, T>| {
        let mut ids = [0; MAX_LANES];
        chunk.for_each_line(0..chunk.input_lines(), |line| {
            by.line_ids(line, &mut ids);
            for (&t, &p) in line.iter().zip(&ids) {
                wc.push(p, t);
            }
        });
    };
    let jobs = chunks.iter().copied().zip(output.writers());
    if chunks.len() == 1 {
        jobs.for_each(|(chunk, wc)| scatter(chunk, wc));
    } else {
        let scatter = &scatter;
        std::thread::scope(|s| {
            for (chunk, wc) in jobs {
                s.spawn(move || scatter(chunk, wc));
            }
        });
    }
    let (out, flushes) = output.finish();
    let scatter_time = t1.elapsed();

    let report = CpuRunReport {
        tuples: input.len() as u64,
        threads: chunks.len(),
        hist_time,
        scatter_time,
        passes: 2,
        swwcb_full_flushes: flushes.full_flushes,
        swwcb_partial_flushes: flushes.partial_flushes,
        nt_store_lines: flushes.nt_lines,
    };
    (out, report)
}

/// Each partition's tuples summed over the per-thread histograms.
fn totals(thread_hists: &[Vec<usize>]) -> Vec<usize> {
    let mut global = vec![0; thread_hists.first().map_or(0, Vec::len)];
    for hist in thread_hists {
        for (g, &c) in global.iter_mut().zip(hist) {
            *g += c;
        }
    }
    global
}

/// Pass 1: each chunk's private histogram, one thread per chunk.
fn thread_histograms<T: Tuple>(
    chunks: &[Input<'_, T>],
    by: &impl LinePartitioner<T>,
) -> Vec<Vec<usize>> {
    let count = |chunk: Input<'_, T>| {
        let mut hist = vec![0usize; by.fan_out()];
        let mut ids = [0; MAX_LANES];
        chunk.for_each_line(0..chunk.input_lines(), |line| {
            by.line_ids(line, &mut ids);
            for &p in &ids[..line.len()] {
                hist[p] += 1;
            }
        });
        hist
    };
    if chunks.len() == 1 {
        return vec![count(chunks[0])];
    }
    std::thread::scope(|s| {
        let handles: Vec<_> = chunks.iter().map(|&c| s.spawn(move || count(c))).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("histogram worker"))
            .collect()
    })
}

/// Split an input into one contiguous chunk per thread, at most one per
/// tuple and at least one, whose lengths differ by at most one. Chunks
/// are in input order, so the thread-ordered extents keep the output
/// layout independent of the thread count.
fn chunk_evenly<T: Tuple>(input: Input<'_, T>, threads: usize) -> Vec<Input<'_, T>> {
    let (len, n) = (input.len(), threads.min(input.len()).max(1));
    let (base, extra) = (len / n, len % n);
    let mut start = 0;
    (0..n)
        .map(|i| {
            let size = base + usize::from(i < extra);
            start += size;
            input.slice(start - size..start)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpart_datagen::KeyDistribution;
    use fpart_types::relation::content_checksum;
    use fpart_types::{Relation, Tuple8};

    fn rel(n: usize, dist: KeyDistribution) -> Relation<Tuple8> {
        Relation::from_keys(&dist.generate_keys::<u32>(n, 99))
    }

    fn check<T: Tuple>(rel: &Relation<T>, out: &PartitionedRelation<T>, f: PartitionFn) {
        assert_eq!(out.total_valid(), rel.len());
        assert_eq!(out.padding_overhead(), 0, "CPU output is tuple-exact");
        for p in 0..out.num_partitions() {
            for t in out.partition_tuples(p) {
                assert_eq!(f.partition_of(t.key()), p);
            }
        }
        assert_eq!(
            content_checksum(rel.tuples().iter().copied()),
            content_checksum(out.all_tuples())
        );
    }

    #[test]
    fn single_threaded_swwcb() {
        let r = rel(10_000, KeyDistribution::Random);
        let p = CpuPartitioner::new(PartitionFn::Murmur { bits: 7 }, 1);
        let (out, report) = p.partition(&r);
        check(&r, &out, p.partition_fn);
        assert_eq!(report.threads, 1);
        assert_eq!(report.passes, 2);
        assert!(report.mtuples_per_sec() > 0.0);
        // Flush accounting: every tuple leaves through exactly one flush,
        // and the paper baseline streams through non-temporal stores.
        let flushed_lines = report.swwcb_full_flushes + report.swwcb_partial_flushes;
        assert!(flushed_lines > 0, "SWWCB flushes must be counted");
        assert_eq!(
            report.nt_store_lines, flushed_lines,
            "one-line buffers: every flush is one nt line"
        );
        assert!(report.swwcb_full_flushes * 8 <= report.tuples);
        let c = report.obs_counters();
        assert_eq!(c.get(fpart_obs::Ctr::SwwcbNtLines), report.nt_store_lines);
    }

    #[test]
    fn multi_threaded_flush_counts_aggregate() {
        // Thread splitting changes *which* flushes are partial, but every
        // tuple still leaves through exactly one flush: full·slots + the
        // partial remainders must sum to the tuple count.
        let r = rel(20_000, KeyDistribution::Random);
        let f = PartitionFn::Murmur { bits: 6 };
        for threads in [1, 4] {
            let (_, report) = CpuPartitioner::new(f, threads).partition(&r);
            assert!(report.swwcb_full_flushes > 0, "{threads} threads");
            assert!(
                report.swwcb_full_flushes * 8 <= report.tuples,
                "{threads} threads: at most one full flush per 8 tuples"
            );
            assert_eq!(
                report.nt_store_lines,
                report.swwcb_full_flushes + report.swwcb_partial_flushes,
                "{threads} threads"
            );
        }
    }

    #[test]
    fn multi_threaded_matches_single_threaded() {
        let r = rel(20_000, KeyDistribution::Grid);
        let f = PartitionFn::Murmur { bits: 6 };
        let single = CpuPartitioner::new(f, 1).partition(&r).0;
        let multi = CpuPartitioner::new(f, 4).partition(&r).0;
        assert_eq!(single.histogram(), multi.histogram());
        // Same multiset per partition (thread interleaving differs only in
        // intra-partition order when chunks differ — with thread-ordered
        // extents the full layout is actually identical).
        assert_eq!(single.raw_data(), multi.raw_data());
    }

    #[test]
    fn empty_and_tiny_relations() {
        let f = PartitionFn::Murmur { bits: 4 };
        let empty = Relation::<Tuple8>::from_tuples(&[]);
        let (out, _) = CpuPartitioner::new(f, 4).partition(&empty);
        assert_eq!(out.total_valid(), 0);

        let one = Relation::<Tuple8>::from_keys(&[42]);
        let (out, _) = CpuPartitioner::new(f, 4).partition(&one);
        assert_eq!(out.total_valid(), 1);
        check(&one, &out, f);
    }

    #[test]
    fn radix_and_hash_agree_on_totals() {
        let r = rel(3000, KeyDistribution::Grid);
        for f in [
            PartitionFn::Radix { bits: 6 },
            PartitionFn::Murmur { bits: 6 },
        ] {
            let (out, _) = CpuPartitioner::new(f, 2).partition(&r);
            check(&r, &out, f);
        }
    }

    #[test]
    fn chunking_is_even_and_complete() {
        let keys: Vec<u32> = (0..10).collect();
        let col = fpart_types::ColumnRelation::<Tuple8>::from_keys(&keys);
        let chunks = chunk_evenly(Input::from(&col), 3);
        let keys_of = |c: &Input<'_, Tuple8>| (0..c.len()).map(|i| c.key(i)).collect::<Vec<_>>();
        assert_eq!(chunks.len(), 3);
        assert_eq!(keys_of(&chunks[0]), [0, 1, 2, 3]);
        assert_eq!(keys_of(&chunks[1]), [4, 5, 6]);
        assert_eq!(keys_of(&chunks[2]), [7, 8, 9]);
        let empty = Relation::<Tuple8>::from_tuples(&[]);
        assert_eq!(chunk_evenly(Input::from(&empty), 2).len(), 1);
        assert_eq!(chunk_evenly(Input::from(&col), 40).len(), 10);
    }
}
