//! Software-managed write-combining buffers (Code 2 of the paper).
//!
//! "The cache-resident buffers, each usually having the size of a cache
//! line, are used to accumulate a certain number of tuples … If a buffer
//! for a certain partition gets full, it is written to the memory." The
//! benefit: the random-access pattern touches only the buffer array, one
//! line per tuple, since each line also holds its partition's cursor; main
//! memory sees one streaming burst per cache line instead of a
//! read-modify-write per tuple.

use fpart_hash::PartitionFn;
use fpart_types::{AlignedBuf, SharedWriter, Tuple, CACHE_LINE_BYTES};

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

impl SwwcbStats {
    /// Add these stats into an observability counter set.
    pub fn record_into(&self, c: &mut fpart_obs::CounterSet) {
        use fpart_obs::Ctr;
        c.add(Ctr::SwwcbFullFlushes, self.full_flushes);
        c.add(Ctr::SwwcbPartialFlushes, self.partial_flushes);
        c.add(Ctr::SwwcbNtLines, self.nt_lines);
    }
}

/// A per-thread scatter engine with one cache-line buffer per partition,
/// flushed with non-temporal stores — the paper's software baseline
/// ("the size of each buffer (N) should be set so that all the buffers
/// fit into L1", Section 3.1; one line per partition is the classic
/// choice at the paper's fan-outs).
///
/// **Destination-aligned windows.** A tuple bound for absolute output
/// slot `a` sits in buffer slot `a mod LANES`, and a buffer flushes when
/// its last slot fills. Every full flush therefore writes exactly one
/// destination cache line of the (64 B-aligned) output, so a streaming
/// store never splits a line between two flushes. Only the first line of
/// a thread's extent (which may start mid-line) and the last (drained at
/// the end) flush partially.
///
/// **Cursor in the line.** Each partition's cursor, the absolute output
/// slot its next tuple goes to, lives in the last 8 bytes of that
/// partition's buffer line, as Balkesen et al.'s code keeps its slot
/// counter in the line's last tuple. A push therefore touches one cache
/// line and nothing else. The tuple that fills the last slot overwrites
/// the cursor; the line flushes and the cursor is written back. The
/// extent bases are read only when a line flushes.
pub struct Swwcb<T: Tuple> {
    /// `partitions × LANES` tuple slots, 64-byte aligned; each line ends
    /// in its partition's cursor.
    buffers: AlignedBuf<T>,
    /// Absolute output slot where this thread's extent of each partition
    /// begins (from [`crate::histogram::thread_bases`]).
    bases: Vec<usize>,
    stats: SwwcbStats,
    /// Every flush's absolute slot range, in order (tests only).
    #[cfg(test)]
    log: Vec<std::ops::Range<usize>>,
}

/// Byte offset of a partition's cursor within its 64 B buffer line.
const CURSOR_OFFSET: usize = CACHE_LINE_BYTES - std::mem::size_of::<usize>();

impl<T: Tuple> Swwcb<T> {
    /// Create a scatter engine writing partition `p`'s tuples at
    /// `bases[p]`, `bases[p]+1`, ….
    pub fn new(bases: Vec<usize>) -> Self {
        let mut wc = Self {
            buffers: AlignedBuf::filled(bases.len() * T::LANES, T::dummy()),
            bases,
            stats: SwwcbStats::default(),
            #[cfg(test)]
            log: Vec::new(),
        };
        for p in 0..wc.bases.len() {
            wc.set_cursor(p, wc.bases[p]);
        }
        wc
    }

    /// Buffer one tuple; flushes the partition's line to `out` when the
    /// line's last slot fills.
    ///
    /// Always inlined: the fast path is a cursor load, a slot store, the
    /// full-line test and a cursor store, and only a full line leaves it,
    /// through the out-of-line `Swwcb::flush`. The range check on `p`
    /// stays in every build; its panic is formatted in a cold function,
    /// so the fast path spills nothing for it.
    ///
    /// # Safety
    /// The extents implied by `bases` and the per-thread histogram must be
    /// disjoint from every other writer of `out`. (Flushes past
    /// `out.len()` panic, and so does a partition `p` out of range.)
    #[inline(always)]
    pub unsafe fn push(&mut self, p: usize, t: T, out: &SharedWriter<T>) {
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
                // SAFETY: forwarded from the caller's contract. The flush
                // writes the cursor back.
                self.flush(p, abs + 1, out);
            } else {
                cursor.write(abs + 1);
            }
        }
    }

    /// Flush all partially filled buffers (end of the scatter pass) and
    /// fence streaming stores.
    ///
    /// # Safety
    /// Same contract as [`Swwcb::push`].
    pub unsafe fn drain(&mut self, out: &SharedWriter<T>) {
        let mask = T::LANES - 1;
        for p in 0..self.bases.len() {
            let end = self.cursor(p);
            if end & mask != 0 && end > self.bases[p] {
                // SAFETY: forwarded from the caller's contract.
                unsafe { self.flush(p, end, out) };
            }
        }
        nt_store::store_fence();
    }

    /// Tuples pushed to partition `p` so far.
    ///
    /// # Panics
    /// Panics if `p` is not a partition of this engine.
    pub fn count(&self, p: usize) -> usize {
        self.cursor(p) - self.bases[p]
    }

    /// Check, in every build, that each partition `p` has received
    /// exactly `counts[p]` tuples. A writer whose extents were sized by
    /// the same counts has then written every slot of them, since each
    /// pushed tuple's slot is written by the flush of its window (or by
    /// [`Swwcb::drain`]); outputs from `PartitionedRelation::uninit` rely
    /// on that.
    ///
    /// # Panics
    /// Panics unless `counts` holds one count per partition and every
    /// partition's count equals it.
    pub fn assert_counts(&self, counts: &[usize]) {
        assert_eq!(counts.len(), self.bases.len(), "one count per partition");
        for (p, &expected) in counts.iter().enumerate() {
            let got = self.count(p);
            assert!(
                got == expected,
                "partition {p} received {got} tuples for an extent of {expected}"
            );
        }
    }

    /// Flush accounting accumulated so far.
    pub fn stats(&self) -> SwwcbStats {
        self.stats
    }

    /// Index of partition `p`'s first buffer slot.
    ///
    /// # Panics
    /// Panics if `p` is not a partition of this engine.
    #[inline(always)]
    fn line_start(&self, p: usize) -> usize {
        let parts = self.bases.len();
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
    /// or the partition's base, whichever is later, and store `end` as the
    /// partition's cursor. A partial window never reaches the line's last
    /// slot, so the cursor stored there is never written out.
    ///
    /// Out of line: a push reaches it once per `LANES` tuples, and keeping
    /// it out keeps every push site small.
    ///
    /// # Panics
    /// Panics if `end > out.len()` — checked in every build, once per
    /// flush, because the copy below is unchecked.
    #[inline(never)]
    unsafe fn flush(&mut self, p: usize, end: usize, out: &SharedWriter<T>) {
        let start = ((end - 1) & !(T::LANES - 1)).max(self.bases[p]);
        assert!(
            end <= out.len(),
            "SWWCB flush to slots {start}..{end} past the output's {} slots",
            out.len()
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
        let dst = out.as_ptr_at(start);
        if n == T::LANES {
            // SAFETY: start..end is in bounds (asserted above); a full
            // window is one whole line, 64-byte aligned in both buffers.
            unsafe { nt_store::nt_copy_lines(dst, src) };
        } else {
            // SAFETY: start..end is in bounds (asserted above); the
            // destination is 8-byte aligned because the backing store
            // is 64-byte aligned and tuple widths are multiples of 8.
            unsafe { nt_store::nt_copy(dst, src) };
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

/// The naive scatter of Code 1: every tuple goes straight to memory —
/// one random cache-line read-modify-write per tuple. Kept as the
/// reference the buffered scatter's output is tested against.
///
/// # Safety
/// Same extent-disjointness contract as [`Swwcb::push`].
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
    use fpart_types::{PartitionedRelation, Tuple8};

    #[test]
    fn swwcb_scatter_matches_direct() {
        let f = PartitionFn::Radix { bits: 2 };
        let tuples: Vec<Tuple8> = (0..37).map(|i| Tuple8::new(i, i as u64)).collect();
        let hist = crate::histogram::build(&tuples, f);
        let bases = crate::histogram::prefix_sum(&hist);

        let mut rel = PartitionedRelation::<Tuple8>::with_histogram(&hist, false);
        {
            let writer = SharedWriter::new(&mut rel);
            let mut wc = Swwcb::new(bases[..4].to_vec());
            for &t in &tuples {
                // SAFETY: single-threaded, extents from the histogram.
                unsafe { wc.push(f.partition_of(t.key), t, &writer) };
            }
            // SAFETY: as above.
            unsafe { wc.drain(&writer) };
            assert_eq!((0..4).map(|p| wc.count(p)).sum::<usize>(), 37);
        }
        for (p, &h) in hist.iter().enumerate() {
            rel.set_partition_fill(p, h, h);
        }
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
        let mut b = PartitionedRelation::<Tuple8>::with_histogram(&hist, false);
        {
            let w = SharedWriter::new(&mut b);
            let mut wc = Swwcb::new(bases.clone());
            for &t in &tuples {
                // SAFETY: as above.
                unsafe { wc.push(f.partition_of(t.key), t, &w) };
            }
            // SAFETY: as above.
            unsafe { wc.drain(&w) };
        }
        assert_eq!(a.raw_data(), b.raw_data());
    }
}

#[cfg(test)]
mod flush_tests {
    use super::*;
    use fpart_types::{Key, PartitionedRelation, Tuple16, Tuple32, Tuple64, Tuple8};

    /// One thread's engine after scattering its chunk.
    struct Scattered<T: Tuple> {
        wc: Swwcb<T>,
        tuples_in: usize,
    }

    /// Scatter `tuples` as `threads` threads would (each over its own chunk
    /// and extents, run one after another) through SWWCB and through the
    /// scalar scatter; return both outputs and the engines.
    fn scatter_both<T: Tuple>(
        tuples: &[T],
        f: PartitionFn,
        threads: usize,
    ) -> (Vec<T>, Vec<T>, Vec<Scattered<T>>, usize) {
        let chunk = tuples.len().div_ceil(threads).max(1);
        let chunks: Vec<&[T]> = tuples.chunks(chunk).collect();
        let hists: Vec<Vec<usize>> = chunks
            .iter()
            .map(|c| crate::histogram::build(c, f))
            .collect();
        let (global, bases) = crate::histogram::thread_bases(&hists);

        let mut scalar = PartitionedRelation::<T>::with_histogram(&global, false);
        {
            let w = SharedWriter::new(&mut scalar);
            for (c, b) in chunks.iter().zip(&bases) {
                // SAFETY: disjoint per-thread extents from `thread_bases`.
                unsafe { scatter_scalar(c, f, b, &w) };
            }
        }
        let mut buffered = PartitionedRelation::<T>::with_histogram(&global, false);
        let base_addr = buffered.raw_data().as_ptr() as usize;
        let mut engines = Vec::new();
        {
            let w = SharedWriter::new(&mut buffered);
            for (c, b) in chunks.iter().zip(bases) {
                let mut wc = Swwcb::new(b);
                for &t in *c {
                    // SAFETY: as above.
                    unsafe { wc.push(f.partition_of(t.key()), t, &w) };
                }
                // SAFETY: as above.
                unsafe { wc.drain(&w) };
                engines.push(Scattered {
                    wc,
                    tuples_in: c.len(),
                });
            }
        }
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
                    let stats = e.wc.stats();
                    let full: Vec<_> = e.wc.log.iter().filter(|r| r.len() == slots).collect();
                    let partial_tuples: usize =
                        e.wc.log
                            .iter()
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
                    // partition this thread wrote to.
                    let touched = (0..f.fan_out()).filter(|&p| e.wc.count(p) > 0).count();
                    assert!(stats.partial_flushes as usize <= 2 * touched, "{what}");
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
    /// extents that start mid-line and in `Tuple64`, whose every push
    /// overwrites the cursor.
    fn check_cursor_layout<T: Tuple>() {
        let lanes = T::LANES;
        // This thread's pushes per partition, and the slots before its
        // extent that another thread owns.
        let pushes = [2 * lanes + 3, 1, 0, 5 * lanes, lanes - 1];
        let heads = [3 % lanes, 1 % lanes, 0, (lanes + 2) % lanes, lanes / 2];
        let hist: Vec<usize> = pushes.iter().zip(&heads).map(|(n, h)| n + h).collect();
        let starts = crate::histogram::prefix_sum(&hist);
        let bases: Vec<usize> = starts.iter().zip(&heads).map(|(s, h)| s + h).collect();

        let mut rel = PartitionedRelation::<T>::with_histogram(&hist, false);
        let mut expect = rel.raw_data().to_vec();
        let w = SharedWriter::new(&mut rel);
        let mut wc = Swwcb::<T>::new(bases.clone());
        // Round-robin over the partitions, so that every line is in
        // flight at once.
        for j in 0..pushes.iter().copied().max().unwrap_or(0) {
            for (p, &n) in pushes.iter().enumerate() {
                if j >= n {
                    continue;
                }
                let slot = bases[p] + j;
                let tail = match j % 3 {
                    0 => u64::MAX,
                    1 => slot as u64,
                    _ => slot as u64 + 1,
                };
                let t = with_tail::<T>((p * 1000 + j) as u64, tail);
                expect[slot] = t;
                // SAFETY: single writer; slot `bases[p] + j` lies in
                // partition `p`'s extent.
                unsafe { wc.push(p, t, &w) };
            }
        }
        for (p, &n) in pushes.iter().enumerate() {
            assert_eq!(wc.count(p), n, "{}B partition {p}", T::WIDTH);
        }
        // SAFETY: as above.
        unsafe { wc.drain(&w) };
        assert_eq!(rel.raw_data(), expect, "{}B", T::WIDTH);

        let mut idle = Swwcb::<T>::new(bases);
        let mut rel = PartitionedRelation::<T>::with_histogram(&hist, false);
        // SAFETY: nothing was pushed, so nothing is written.
        unsafe { idle.drain(&SharedWriter::new(&mut rel)) };
        assert!(idle.log.is_empty(), "{}B", T::WIDTH);
        assert_eq!(idle.stats(), SwwcbStats::default());
        assert!((0..pushes.len()).all(|p| idle.count(p) == 0));
    }

    #[test]
    fn tuples_that_look_like_cursors_come_out_unchanged() {
        check_cursor_layout::<Tuple8>();
        check_cursor_layout::<Tuple16>();
        check_cursor_layout::<Tuple32>();
        check_cursor_layout::<Tuple64>();
    }

    /// A thread whose extent starts mid-line flushes a short head, then
    /// only whole aligned lines, then a short tail.
    #[test]
    fn unaligned_extent_flushes_head_lines_tail() {
        let mut rel = PartitionedRelation::<Tuple8>::with_histogram(&[3 + 20], false);
        let w = SharedWriter::new(&mut rel);
        let mut wc = Swwcb::<Tuple8>::new(vec![3]);
        for i in 0..20 {
            // SAFETY: single writer; slots 3..23 are in bounds.
            unsafe { wc.push(0, Tuple8::new(i, i as u64), &w) };
        }
        // SAFETY: as above.
        unsafe { wc.drain(&w) };
        assert_eq!(wc.log, vec![3..8, 8..16, 16..23]);
        assert_eq!(
            wc.stats(),
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
        let mut rel = PartitionedRelation::<Tuple8>::with_histogram(&[2, 3], false);
        let w = SharedWriter::new(&mut rel);
        let mut wc = Swwcb::<Tuple8>::new(vec![0, 2]);
        for (p, key) in [(0, 1), (0, 2), (1, 3), (1, 4)] {
            // SAFETY: single writer; slots 0..4 are in bounds.
            unsafe { wc.push(p, Tuple8::new(key, 0), &w) };
        }
        // SAFETY: as above.
        unsafe { wc.drain(&w) };
        wc.assert_counts(&[2, 2]);
        // Partition 1's extent holds 3 slots, but only 2 were written.
        wc.assert_counts(&[2, 3]);
    }

    #[test]
    #[should_panic(expected = "past the output")]
    fn flush_past_the_output_panics() {
        let mut rel = PartitionedRelation::<Tuple8>::with_histogram(&[4], false);
        let w = SharedWriter::new(&mut rel);
        // The extent claims slots 0..8, but the output holds 4.
        let mut wc = Swwcb::<Tuple8>::new(vec![0]);
        for i in 0..8 {
            // SAFETY: deliberately breaks the bounds half of the contract;
            // the flush check must catch it before any store.
            unsafe { wc.push(0, Tuple8::new(i, 0), &w) };
        }
    }
}
