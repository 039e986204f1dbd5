//! Software-managed write-combining buffers (Code 2 of the paper), and
//! the one builder of the write-once outputs they fill.
//!
//! "The cache-resident buffers, each usually having the size of a cache
//! line, are used to accumulate a certain number of tuples … If a buffer
//! for a certain partition gets full, it is written to the memory." The
//! benefit: the random-access pattern touches only the buffer array, one
//! line per tuple, since each line also holds its partition's cursor; main
//! memory sees one streaming burst per cache line instead of a
//! read-modify-write per tuple.
//!
//! Writers never synchronise because each owns a disjoint region of every
//! partition: the per-thread extents of the CPU baseline (Section 4.7),
//! the prefix sum the write back's base-address BRAM holds on the FPGA
//! (Section 4.4). [`OutputBuilder`] owns that layout. It allocates the
//! output unwritten, hands out one [`Swwcb`] per writer through a
//! borrowed [`Writer`], and returns the relation only from
//! [`OutputBuilder::finish`], once every slot is written.

use fpart_hash::PartitionFn;
use fpart_types::{
    AlignedBuf, PartitionLayout, PartitionedRelation, SharedWriter, Tuple, CACHE_LINE_BYTES,
};

use crate::nt_store;

/// Flush accounting of one [`Swwcb`] (observability): how often buffers
/// spilled full vs. partially, and how many cache lines went through the
/// non-temporal store path. Feeds the `fpart_obs::Ctr::Swwcb*` counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SwwcbStats {
    /// Buffer-full flushes (the steady-state streaming case).
    pub full_flushes: u64,
    /// Drain-time flushes of partially filled buffers.
    pub partial_flushes: u64,
    /// Cache lines written via non-temporal stores.
    pub nt_lines: u64,
}

/// A per-writer scatter engine with one cache-line buffer per partition,
/// flushed with non-temporal stores — the paper's software baseline
/// ("the size of each buffer (N) should be set so that all the buffers
/// fit into L1", Section 3.1; one line per partition is the classic
/// choice at the paper's fan-outs). Only an [`OutputBuilder`] makes one,
/// over its own regions of the builder's output.
///
/// **Destination-aligned windows.** A tuple bound for absolute output
/// slot `a` sits in buffer slot `a mod LANES`, and a buffer flushes when
/// its last slot fills. Every full flush therefore writes exactly one
/// destination cache line of the (64 B-aligned) output, so a streaming
/// store never splits a line between two flushes. Only the first line of
/// a writer's region (which may start mid-line) and the last (drained at
/// the end) flush partially.
///
/// **Cursor in the line.** Each partition's cursor, the absolute output
/// slot its next tuple goes to, lives in the last 8 bytes of that
/// partition's buffer line, as Balkesen et al.'s code keeps its slot
/// counter in the line's last tuple. A push therefore touches one cache
/// line and nothing else. The tuple that fills the last slot overwrites
/// the cursor; the line flushes and the cursor is written back. The
/// regions are read only when a line flushes.
pub struct Swwcb<T: Tuple> {
    /// `partitions × LANES` tuple slots, 64-byte aligned; each line ends
    /// in its partition's cursor.
    buffers: AlignedBuf<T>,
    /// `[base, limit]` of this writer's region of each partition: the
    /// absolute output slots `base..limit` it may write. Base and limit
    /// sit side by side, so a flush reads one line of them.
    regions: Vec<[usize; 2]>,
    /// The builder's output.
    out: SharedWriter<T>,
    /// This writer's index in its builder, for panic messages.
    id: usize,
    stats: SwwcbStats,
    /// Every flush's absolute slot range, in order (tests only).
    #[cfg(test)]
    log: Vec<std::ops::Range<usize>>,
}

/// Byte offset of a partition's cursor within its 64 B buffer line.
const CURSOR_OFFSET: usize = CACHE_LINE_BYTES - std::mem::size_of::<usize>();

impl<T: Tuple> Swwcb<T> {
    /// Writer `id` of `out`, writing partition `p`'s tuples at
    /// `regions[p][0]`, `regions[p][0] + 1`, … up to `regions[p][1]`.
    fn new(id: usize, regions: Vec<[usize; 2]>, out: SharedWriter<T>) -> Self {
        let mut wc = Self {
            buffers: AlignedBuf::filled(regions.len() * T::LANES, T::dummy()),
            regions,
            out,
            id,
            stats: SwwcbStats::default(),
            #[cfg(test)]
            log: Vec::new(),
        };
        for p in 0..wc.regions.len() {
            wc.set_cursor(p, wc.regions[p][0]);
        }
        wc
    }

    /// Buffer one tuple; flushes the partition's line to the output when
    /// the line's last slot fills.
    ///
    /// Always inlined: the fast path is a cursor load, a slot store, the
    /// full-line test and a cursor store, and only a full line leaves it,
    /// through the out-of-line `Swwcb::flush`. The range check on `p`
    /// stays in every build; its panic is formatted in a cold function,
    /// so the fast path spills nothing for it.
    ///
    /// # Panics
    /// Panics if `p` is not a partition of this writer, or if the flush
    /// of a full line passes the end of this writer's region of `p`.
    #[inline(always)]
    pub fn push(&mut self, p: usize, t: T) {
        let mask = T::LANES - 1;
        let line = self.line_ptr(p);
        // SAFETY: `line` is partition `p`'s 64-byte-aligned buffer line of
        // initialised plain-old-data tuples: its last 8 bytes are an
        // aligned, initialised `usize`, and slot `abs & mask` is in it.
        unsafe {
            let cursor = line.cast::<u8>().add(CURSOR_OFFSET).cast::<usize>();
            let abs = cursor.read();
            line.add(abs & mask).write(t);
            if abs & mask == mask {
                // The flush writes the cursor back.
                self.flush(p, abs + 1);
            } else {
                cursor.write(abs + 1);
            }
        }
    }

    /// Flush all partially filled buffers (end of the scatter pass) and
    /// fence streaming stores. Called once, by [`OutputBuilder::finish`].
    ///
    /// # Panics
    /// As [`Swwcb::push`], for the last line of every partition.
    pub fn drain(&mut self) {
        let mask = T::LANES - 1;
        for p in 0..self.regions.len() {
            let end = self.cursor(p);
            if end & mask != 0 && end > self.regions[p][0] {
                self.flush(p, end);
            }
        }
        nt_store::store_fence();
    }

    /// Tuples pushed to partition `p` so far.
    ///
    /// # Panics
    /// Panics if `p` is not a partition of this writer.
    pub fn count(&self, p: usize) -> usize {
        self.cursor(p) - self.regions[p][0]
    }

    /// Index of partition `p`'s first buffer slot.
    ///
    /// # Panics
    /// Panics if `p` is not a partition of this writer.
    #[inline(always)]
    fn line_start(&self, p: usize) -> usize {
        let parts = self.regions.len();
        if p >= parts {
            partition_out_of_range(p, parts);
        }
        p * T::LANES
    }

    /// Start of partition `p`'s buffer line.
    #[inline(always)]
    fn line_ptr(&mut self, p: usize) -> *mut T {
        let start = self.line_start(p);
        // SAFETY: the buffer holds one line of `LANES` slots per partition.
        unsafe { self.buffers.as_mut_slice().as_mut_ptr().add(start) }
    }

    /// Partition `p`'s cursor: the absolute output slot of its next tuple.
    #[inline]
    fn cursor(&self, p: usize) -> usize {
        // SAFETY: as in `line_ptr`, partition `p`'s line is in the buffer;
        // as in `push`, its last 8 bytes are an aligned, initialised
        // `usize`.
        unsafe {
            let line = self.buffers.as_ptr().add(self.line_start(p));
            line.cast::<u8>().add(CURSOR_OFFSET).cast::<usize>().read()
        }
    }

    /// Store partition `p`'s cursor.
    #[inline]
    fn set_cursor(&mut self, p: usize, slot: usize) {
        let line = self.line_ptr(p);
        // SAFETY: as in `push`, the line's last 8 bytes are in bounds and
        // aligned for a `usize`.
        unsafe {
            line.cast::<u8>()
                .add(CURSOR_OFFSET)
                .cast::<usize>()
                .write(slot)
        }
    }

    /// Stream the buffered tuples of partition `p` that end before
    /// absolute slot `end`, from the start of `end - 1`'s destination line
    /// or the region's base, whichever is later, and store `end` as the
    /// partition's cursor. A partial window never reaches the line's last
    /// slot, so the cursor stored there is never written out.
    ///
    /// Out of line: a push reaches it once per `LANES` tuples, and keeping
    /// it out keeps every push site small.
    ///
    /// # Panics
    /// Panics if `end` is past this writer's region of `p` — checked in
    /// every build, once per flush, because the copy below is unchecked.
    #[inline(never)]
    fn flush(&mut self, p: usize, end: usize) {
        let [base, limit] = self.regions[p];
        let start = ((end - 1) & !(T::LANES - 1)).max(base);
        assert!(
            end <= limit,
            "SWWCB flush to slots {start}..{end} past writer {}'s region {base}..{limit} \
             of partition {p}",
            self.id
        );
        #[cfg(test)]
        self.log.push(start..end);
        let n = end - start;
        if n == T::LANES {
            self.stats.full_flushes += 1;
        } else {
            self.stats.partial_flushes += 1;
        }
        self.stats.nt_lines += 1;
        let from = p * T::LANES + (start & (T::LANES - 1));
        let src = &self.buffers[from..from + n];
        let dst = self.out.as_ptr_at(start);
        // SAFETY: `start..end` lies in this writer's region of partition
        // `p` (`base <= start`, `end <= limit` asserted above), which the
        // builder laid out inside the output and apart from every other
        // writer's region. A full window is one whole line, 64-byte
        // aligned in both buffers; any destination is 8-byte aligned
        // because the output is 64-byte aligned and tuple widths are
        // multiples of 8.
        unsafe {
            if n == T::LANES {
                nt_store::nt_copy_lines(dst, src);
            } else {
                nt_store::nt_copy(dst, src);
            }
        }
        self.set_cursor(p, end);
    }
}

/// The panic of a partition id out of range, kept out of every push.
#[cold]
#[inline(never)]
fn partition_out_of_range(p: usize, parts: usize) -> ! {
    panic!("partition {p} of {parts}")
}

/// One writer of an [`OutputBuilder`]: its [`Swwcb`], borrowed from the
/// builder, so that it cannot outlive the output. It is `Send`, so each
/// scatter thread can own one. (A handle rather than a `&mut Swwcb`, so
/// that no writer can be swapped into another builder.)
pub struct Writer<'a, T: Tuple>(&'a mut Swwcb<T>);

impl<T: Tuple> Writer<'_, T> {
    /// Buffer tuple `t` for partition `p`: [`Swwcb::push`].
    #[inline(always)]
    pub fn push(&mut self, p: usize, t: T) {
        self.0.push(p, t)
    }

    /// Tuples pushed to partition `p` so far: [`Swwcb::count`].
    pub fn count(&self, p: usize) -> usize {
        self.0.count(p)
    }
}

/// The one way to a write-once [`PartitionedRelation`]: an output
/// allocated unwritten, one SWWCB writer per region, and a
/// [`OutputBuilder::finish`] that returns the relation only once every
/// slot is written.
///
/// Writer `w`'s region of partition `p` holds its planned count of
/// `p`'s tuples and follows the regions of writers `0..w`, so each
/// partition's tuples come out in writer order, the layout of Balkesen
/// et al.'s code. A flush past a region panics, in every build, before it
/// writes. An aborted run drops the builder, and nothing reads the
/// unwritten slots.
pub struct OutputBuilder<T: Tuple> {
    /// Unwritten until `finish`.
    out: PartitionedRelation<T>,
    writers: Vec<Swwcb<T>>,
}

impl<T: Tuple> OutputBuilder<T> {
    /// An output of `extents[p]` slots for each partition `p`, reported
    /// as `layout`, with one writer per entry of `planned`: writer `w`
    /// plans `planned[w][p]` tuples of partition `p`.
    ///
    /// # Panics
    /// Panics unless every writer plans one count per partition and each
    /// partition's planned counts fit in its extent.
    pub fn new(extents: &[usize], layout: PartitionLayout, planned: &[Vec<usize>]) -> Self {
        // SAFETY: the relation leaves the builder only through `finish`,
        // which writes every slot first (see there); until then only the
        // writers' flushes and `finish` touch it, through `SharedWriter`.
        let mut out = unsafe { PartitionedRelation::uninit(extents, layout) };
        let mut writers: Vec<Swwcb<T>> = Vec::with_capacity(planned.len());
        for (id, counts) in planned.iter().enumerate() {
            assert_eq!(counts.len(), extents.len(), "writer {id}'s counts");
            let mut regions = Vec::with_capacity(extents.len());
            for (p, &count) in counts.iter().enumerate() {
                // Each region starts where the previous writer's ends.
                let base = writers
                    .last()
                    .map_or(out.partition_base(p), |w| w.regions[p][1]);
                let room = out.partition_base(p) + extents[p] - base;
                assert!(
                    count <= room,
                    "writer {id} plans {count} tuples of partition {p}, which has {room} slots left"
                );
                regions.push([base, base + count]);
            }
            writers.push(Swwcb::new(id, regions, SharedWriter::new(&mut out)));
        }
        Self { out, writers }
    }

    /// The writers, in order, each borrowing the builder.
    pub fn writers(&mut self) -> impl Iterator<Item = Writer<'_, T>> {
        self.writers.iter_mut().map(Writer)
    }

    /// Drain every writer, check every count, write dummies over the rest
    /// of each extent and return the relation, with each partition's
    /// tuples in its first slots and `written == valid` equal to their
    /// number; plus the flush accounting summed over the writers.
    ///
    /// # Panics
    /// Panics if a writer other than the last fell short of its region of
    /// some partition (the last may: PAD plans a whole extent).
    pub fn finish(mut self) -> (PartitionedRelation<T>, SwwcbStats) {
        self.writers.iter_mut().for_each(Swwcb::drain);
        self.seal()
    }

    /// [`OutputBuilder::finish`] after the drain.
    fn seal(mut self) -> (PartitionedRelation<T>, SwwcbStats) {
        let mut stats = SwwcbStats::default();
        let last = self.writers.len().saturating_sub(1);
        for (w, wc) in self.writers.iter().enumerate() {
            for (p, &[base, limit]) in wc.regions.iter().enumerate() {
                let got = wc.count(p);
                assert!(
                    w == last || got == limit - base,
                    "writer {w}: partition {p} received {got} tuples for an extent of {}",
                    limit - base
                );
            }
            stats.full_flushes += wc.stats.full_flushes;
            stats.partial_flushes += wc.stats.partial_flushes;
            stats.nt_lines += wc.stats.nt_lines;
        }
        let dummies = SharedWriter::new(&mut self.out);
        for p in 0..self.out.num_partitions() {
            let base = self.out.partition_base(p);
            let end = self.writers.last().map_or(base, |wc| wc.cursor(p));
            // SAFETY: the writers are drained and wrote `base..end`: every
            // region but the last is full, and the last holds `..end`. No
            // other writer is left, and `end..` up to the extent's end is
            // the rest of partition `p`'s extent.
            unsafe { dummies.fill(end..base + self.out.partition_capacity(p), T::dummy()) };
            self.out.set_partition_fill(p, end - base, end - base);
        }
        (self.out, stats)
    }
}

/// The naive scatter of Code 1: every tuple goes straight to memory —
/// one random cache-line read-modify-write per tuple. Kept as the
/// reference the buffered scatter's output is tested against.
///
/// # Safety
/// No other writer may write, concurrently, the slots this call writes:
/// `bases[p]` up to `bases[p]` plus partition `p`'s tuples in `tuples`.
pub unsafe fn scatter_scalar<T: Tuple>(
    tuples: &[T],
    f: PartitionFn,
    bases: &[usize],
    out: &SharedWriter<T>,
) {
    let mut cursors = vec![0usize; bases.len()];
    for &t in tuples {
        let p = f.partition_of(t.key());
        // SAFETY: forwarded from the caller's contract.
        unsafe { out.write(bases[p] + cursors[p], t) };
        cursors[p] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpart_types::Tuple8;

    #[test]
    fn swwcb_scatter_matches_direct() {
        let f = PartitionFn::Radix { bits: 2 };
        let tuples: Vec<Tuple8> = (0..37).map(|i| Tuple8::new(i, i as u64)).collect();
        let hist = crate::histogram::build(&tuples, f);

        let mut b = OutputBuilder::new(&hist, PartitionLayout::Exact, std::slice::from_ref(&hist));
        let mut wc = b.writers().next().unwrap();
        for &t in &tuples {
            wc.push(f.partition_of(t.key), t);
        }
        assert_eq!((0..4).map(|p| wc.count(p)).sum::<usize>(), 37);
        let (rel, _) = b.finish();
        assert_eq!(rel.total_valid(), 37);
        for p in 0..4 {
            for t in rel.partition_tuples(p) {
                assert_eq!(f.partition_of(t.key), p);
            }
        }
        // Order within a partition is arrival order.
        let p0: Vec<u32> = rel.partition_tuples(0).map(|t| t.key).collect();
        let mut expect: Vec<u32> = (0..37).filter(|k| k % 4 == 0).collect();
        expect.sort_unstable();
        assert_eq!(p0, expect);
    }

    #[test]
    fn scalar_scatter_equivalent_to_swwcb() {
        let f = PartitionFn::Murmur { bits: 3 };
        let tuples: Vec<Tuple8> = (0..100).map(|i| Tuple8::new(i * 13, i as u64)).collect();
        let hist = crate::histogram::build(&tuples, f);
        let bases = crate::histogram::prefix_sum(&hist)[..hist.len()].to_vec();

        let mut a = PartitionedRelation::<Tuple8>::with_histogram(&hist, false);
        {
            let w = SharedWriter::new(&mut a);
            // SAFETY: single-threaded over exact extents.
            unsafe { scatter_scalar(&tuples, f, &bases, &w) };
        }
        let mut b = OutputBuilder::new(&hist, PartitionLayout::Exact, std::slice::from_ref(&hist));
        let mut wc = b.writers().next().unwrap();
        for &t in &tuples {
            wc.push(f.partition_of(t.key), t);
        }
        assert_eq!(a.raw_data(), b.finish().0.raw_data());
    }

    /// Writer `w`'s region of a partition follows those of writers
    /// `0..w`, and each partition's regions start at its extent's base.
    #[test]
    fn writer_regions_are_disjoint_and_ordered() {
        // 2 writers, 3 partitions.
        let hists = vec![vec![2, 0, 1], vec![1, 3, 1]];
        let b = OutputBuilder::<Tuple8>::new(&[3, 3, 2], PartitionLayout::Exact, &hists);
        // Partition 0 occupies 0..3: writer 0 at 0..2, writer 1 at 2..3.
        // Partition 1 occupies 3..6: writer 0 empty at 3, writer 1 3..6.
        // Partition 2 occupies 6..8.
        assert_eq!(b.writers[0].regions, [[0, 2], [3, 3], [6, 7]]);
        assert_eq!(b.writers[1].regions, [[2, 3], [3, 6], [7, 8]]);
    }

    #[test]
    #[should_panic(expected = "writer 1 plans 2 tuples of partition 0, which has 1 slots left")]
    fn plans_past_an_extent_panic() {
        OutputBuilder::<Tuple8>::new(&[3], PartitionLayout::Exact, &[vec![2], vec![2]]);
    }
}

#[cfg(test)]
mod flush_tests {
    use super::*;
    use fpart_types::{Key, Tuple16, Tuple32, Tuple64, Tuple8};

    /// One writer's flushes after scattering its chunk.
    struct Scattered {
        stats: SwwcbStats,
        log: Vec<std::ops::Range<usize>>,
        touched: usize,
        tuples_in: usize,
    }

    /// Scatter `tuples` as `threads` threads would (each over its own chunk
    /// and regions, run one after another) through SWWCB and through the
    /// scalar scatter; return both outputs and each writer's flushes.
    fn scatter_both<T: Tuple>(
        tuples: &[T],
        f: PartitionFn,
        threads: usize,
    ) -> (Vec<T>, Vec<T>, Vec<Scattered>, usize) {
        let chunk = tuples.len().div_ceil(threads).max(1);
        let chunks: Vec<&[T]> = tuples.chunks(chunk).collect();
        let hists: Vec<Vec<usize>> = chunks
            .iter()
            .map(|c| crate::histogram::build(c, f))
            .collect();
        let global: Vec<usize> = (0..f.fan_out())
            .map(|p| hists.iter().map(|h| h[p]).sum())
            .collect();

        let mut b = OutputBuilder::new(&global, PartitionLayout::Exact, &hists);
        let mut scalar = PartitionedRelation::<T>::with_histogram(&global, false);
        {
            let w = SharedWriter::new(&mut scalar);
            for (c, wc) in chunks.iter().zip(&b.writers) {
                let bases: Vec<usize> = wc.regions.iter().map(|r| r[0]).collect();
                // SAFETY: disjoint per-writer regions from the builder.
                unsafe { scatter_scalar(c, f, &bases, &w) };
            }
        }
        for (c, mut wc) in chunks.iter().zip(b.writers()) {
            for &t in *c {
                wc.push(f.partition_of(t.key()), t);
            }
        }
        b.writers.iter_mut().for_each(Swwcb::drain);
        let engines = (b.writers.iter().zip(&chunks))
            .map(|(wc, c)| Scattered {
                stats: wc.stats,
                log: wc.log.clone(),
                touched: (0..f.fan_out()).filter(|&p| wc.count(p) > 0).count(),
                tuples_in: c.len(),
            })
            .collect();
        let (buffered, _) = b.seal();
        let base_addr = buffered.raw_data().as_ptr() as usize;
        (
            scalar.raw_data().to_vec(),
            buffered.raw_data().to_vec(),
            engines,
            base_addr,
        )
    }

    fn tuples<T: Tuple>(n: u64) -> Vec<T> {
        (0..n)
            .map(|i| T::new(T::K::from_u64(i.wrapping_mul(0x9e37_79b9) >> 3), i))
            .collect()
    }

    fn check_width<T: Tuple>() {
        let input = tuples::<T>(3001);
        for f in [
            PartitionFn::Radix { bits: 3 },
            PartitionFn::Radix { bits: 7 },
            PartitionFn::Murmur { bits: 1 },
            PartitionFn::Murmur { bits: 5 },
        ] {
            for threads in 1..=3 {
                let what = format!("{}B {f:?} {threads}t", T::WIDTH);
                let (scalar, buffered, engines, base) = scatter_both(&input, f, threads);
                assert_eq!(buffered, scalar, "{what}");

                let slots = T::LANES;
                for e in &engines {
                    let stats = e.stats;
                    let full: Vec<_> = e.log.iter().filter(|r| r.len() == slots).collect();
                    let partial_tuples: usize = (e.log.iter())
                        .filter(|r| r.len() < slots)
                        .map(|r| r.len())
                        .sum();
                    assert_eq!(stats.full_flushes as usize, full.len(), "{what}");
                    assert_eq!(
                        stats.full_flushes as usize * slots + partial_tuples,
                        e.tuples_in,
                        "{what}: flushed tuples"
                    );
                    for r in full {
                        let addr = base + r.start * T::WIDTH;
                        assert_eq!(addr % 64, 0, "{what}: full flush at slot {}", r.start);
                    }
                    // At most a head and a tail partial flush per
                    // partition this writer wrote to.
                    assert!(stats.partial_flushes as usize <= 2 * e.touched, "{what}");
                }
            }
        }
    }

    #[test]
    fn buffered_output_equals_scalar_for_every_width() {
        check_width::<Tuple8>();
        check_width::<Tuple16>();
        check_width::<Tuple32>();
        check_width::<Tuple64>();
    }

    /// A tuple of key `key` whose last 8 bytes are `tail`: the bytes a
    /// buffer line keeps its cursor in.
    fn with_tail<T: Tuple>(key: u64, tail: u64) -> T {
        let mut t = T::new(T::K::from_u64(key), key);
        // SAFETY: tuples are plain-old-data `repr(C)` structs of at least
        // 8 bytes, so their last 8 bytes may hold any value.
        unsafe {
            std::ptr::addr_of_mut!(t)
                .cast::<u8>()
                .add(T::WIDTH - 8)
                .cast::<u64>()
                .write_unaligned(tail)
        };
        t
    }

    /// Tuples whose last 8 bytes look like a cursor (all ones, or the slot
    /// numbers the cursor holds around them) come out unchanged, also from
    /// regions that start mid-line and in `Tuple64`, whose every push
    /// overwrites the cursor.
    fn check_cursor_layout<T: Tuple>() {
        let lanes = T::LANES;
        // The second writer's pushes per partition, and the slots before
        // its region that the first writer owns.
        let pushes = [2 * lanes + 3, 1, 0, 5 * lanes, lanes - 1];
        let heads = [3 % lanes, 1 % lanes, 0, (lanes + 2) % lanes, lanes / 2];
        let hist: Vec<usize> = pushes.iter().zip(&heads).map(|(n, h)| n + h).collect();
        let starts = crate::histogram::prefix_sum(&hist);

        let planned = [heads.to_vec(), pushes.to_vec()];
        let mut b = OutputBuilder::<T>::new(&hist, PartitionLayout::Exact, &planned);
        let mut expect = vec![T::dummy(); starts[hist.len()]];
        {
            let mut writers = b.writers();
            let mut head = writers.next().unwrap();
            for (p, &n) in heads.iter().enumerate() {
                for j in 0..n {
                    let t = T::new(T::K::from_u64((p * 1000 + 500 + j) as u64), 0);
                    expect[starts[p] + j] = t;
                    head.push(p, t);
                }
            }
            let mut wc = writers.next().unwrap();
            // Round-robin over the partitions, so that every line is in
            // flight at once.
            for j in 0..pushes.iter().copied().max().unwrap_or(0) {
                for (p, &n) in pushes.iter().enumerate() {
                    if j >= n {
                        continue;
                    }
                    let slot = starts[p] + heads[p] + j;
                    let tail = match j % 3 {
                        0 => u64::MAX,
                        1 => slot as u64,
                        _ => slot as u64 + 1,
                    };
                    let t = with_tail::<T>((p * 1000 + j) as u64, tail);
                    expect[slot] = t;
                    wc.push(p, t);
                }
            }
            for (p, &n) in pushes.iter().enumerate() {
                assert_eq!(wc.count(p), n, "{}B partition {p}", T::WIDTH);
            }
        }
        assert_eq!(b.finish().0.raw_data(), expect, "{}B", T::WIDTH);

        let mut idle =
            OutputBuilder::<T>::new(&hist, PartitionLayout::Exact, std::slice::from_ref(&hist));
        idle.writers.iter_mut().for_each(Swwcb::drain);
        let wc = &idle.writers[0];
        assert!(wc.log.is_empty(), "{}B", T::WIDTH);
        assert_eq!(wc.stats, SwwcbStats::default());
        assert!((0..pushes.len()).all(|p| wc.count(p) == 0));
        let (rel, _) = idle.seal();
        assert!(rel.raw_data().iter().all(|t| t.is_dummy()), "{}B", T::WIDTH);
        assert_eq!(rel.total_valid(), 0);
    }

    #[test]
    fn tuples_that_look_like_cursors_come_out_unchanged() {
        check_cursor_layout::<Tuple8>();
        check_cursor_layout::<Tuple16>();
        check_cursor_layout::<Tuple32>();
        check_cursor_layout::<Tuple64>();
    }

    /// A writer whose region starts mid-line flushes a short head, then
    /// only whole aligned lines, then a short tail.
    #[test]
    fn unaligned_extent_flushes_head_lines_tail() {
        let mut b =
            OutputBuilder::<Tuple8>::new(&[3 + 20], PartitionLayout::Exact, &[vec![3], vec![20]]);
        for (w, mut wc) in b.writers().enumerate() {
            for i in 0..[3, 20][w] {
                wc.push(0, Tuple8::new(i, i as u64));
            }
        }
        b.writers.iter_mut().for_each(Swwcb::drain);
        let wc = &b.writers[1];
        assert_eq!(wc.log, vec![3..8, 8..16, 16..23]);
        assert_eq!(
            wc.stats,
            SwwcbStats {
                full_flushes: 1,
                partial_flushes: 2,
                nt_lines: 3,
            }
        );
    }

    #[test]
    #[should_panic(expected = "received 2 tuples for an extent of 3")]
    fn a_partition_short_of_its_count_panics() {
        // Writer 0 is not the last writer, so it must fill its regions.
        let mut b = OutputBuilder::<Tuple8>::new(
            &[2, 3],
            PartitionLayout::Exact,
            &[vec![2, 3], vec![0, 0]],
        );
        let mut wc = b.writers().next().unwrap();
        for (p, key) in [(0, 1), (0, 2), (1, 3), (1, 4)] {
            wc.push(p, Tuple8::new(key, 0));
        }
        // Partition 1's region holds 3 slots, but only 2 were written.
        b.finish();
    }

    /// One tuple more than planned for partition 0 panics in the flush
    /// that would write partition 1's first slot, before it writes.
    #[test]
    fn a_flush_past_its_region_panics_before_writing() {
        let mut b = OutputBuilder::<Tuple8>::new(&[7, 8], PartitionLayout::Exact, &[vec![7, 8]]);
        let overflow = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut wc = b.writers().next().unwrap();
            // The eighth tuple fills buffer slot 7, whose flush would
            // write slots 0..8; slot 7 is partition 1's.
            for i in 0..8 {
                wc.push(0, Tuple8::new(i, 0));
            }
        }));
        let message = *overflow.unwrap_err().downcast::<String>().unwrap();
        assert!(
            message.contains("slots 0..8 past writer 0's region 0..7 of partition 0"),
            "{message}"
        );
        assert!(b.writers[0].log.is_empty(), "nothing was flushed");
    }
}
