//! Output layout of a partitioning run.
//!
//! The paper's two output-format modes (Section 4.5) correspond to the two
//! [`PartitionLayout`]s:
//!
//! * **HIST** — a first pass builds a histogram; the prefix sum gives each
//!   partition a base address and exactly as much room as it needs
//!   ([`PartitionLayout::Exact`]). "Intermediate memory for holding the
//!   partitions is minimized. This mode is also robust against skew."
//! * **PAD** — every partition is preassigned a fixed size of
//!   `#Tuples/#Partitions + padding` ([`PartitionLayout::Padded`]), data is
//!   written in a single pass, and an overflowing partition aborts the run.
//!
//! In both layouts the FPGA writes whole cache lines; the flush phase pads
//! partially filled lines with dummy tuples, so a partition's *written*
//! slot count can exceed its *valid* tuple count. CPU partitioners write
//! tuple-exact and leave the two counts equal.

use std::ops::Range;

use crate::aligned::AlignedBuf;
use crate::tuple::Tuple;

/// A buffer of `len` dummy tuples.
fn dummy_filled<T: Tuple>(len: usize) -> AlignedBuf<T> {
    AlignedBuf::filled(len, T::dummy())
}

/// How partition space was assigned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionLayout {
    /// Histogram-driven exact layout (HIST mode / CPU partitioner): each
    /// partition's extent is sized by the prefix sum of the histogram,
    /// rounded up to whole cache lines for FPGA output.
    Exact,
    /// Fixed-size layout (PAD mode): every partition owns
    /// `capacity` tuple slots regardless of its actual fill.
    Padded {
        /// Preassigned capacity per partition in tuples.
        capacity: usize,
    },
}

/// The result of partitioning a relation into `P` partitions.
#[derive(Debug)]
pub struct PartitionedRelation<T: Tuple> {
    data: AlignedBuf<T>,
    /// Base offset (in tuples) of each partition; `offsets[P]` is the total
    /// allocated size, so partition `i` owns `offsets[i]..offsets[i+1]`.
    offsets: Vec<usize>,
    /// Slots actually written per partition (including dummy padding).
    written: Vec<usize>,
    /// Real (non-dummy) tuples per partition.
    valid: Vec<usize>,
    layout: PartitionLayout,
}

impl<T: Tuple> PartitionedRelation<T> {
    /// Allocate an exact layout from a histogram, rounding each partition's
    /// extent up to whole cache lines when `line_align` is set (the FPGA
    /// writes 64 B lines; CPU partitioners pass `false` for tuple-exact
    /// extents).
    pub fn with_histogram(histogram: &[usize], line_align: bool) -> Self {
        let extents = histogram.iter().map(|&h| {
            if line_align {
                crate::line::line_count::<T>(h) * T::LANES
            } else {
                h
            }
        });
        Self::laid_out(extents, PartitionLayout::Exact, dummy_filled)
    }

    /// Allocate an exact layout with explicit per-partition extents in
    /// cache lines (the FPGA HIST mode sizes a partition as
    /// `Σ_lane ⌈lane_count/LANES⌉` lines because every write combiner
    /// flushes its own partial line).
    ///
    /// # Panics
    /// Panics if the slices differ in length or an extent cannot hold its
    /// valid count.
    pub fn with_line_extents(valid_counts: &[usize], extent_lines: &[usize]) -> Self {
        assert_eq!(valid_counts.len(), extent_lines.len());
        for (&v, &l) in valid_counts.iter().zip(extent_lines) {
            assert!(
                l * T::LANES >= v,
                "extent of {l} lines cannot hold {v} tuples"
            );
        }
        let extents = extent_lines.iter().map(|&l| l * T::LANES);
        Self::laid_out(extents, PartitionLayout::Exact, dummy_filled)
    }

    /// Allocate a padded layout: `parts` partitions of `capacity` tuples
    /// each. `capacity` is rounded up to whole cache lines when
    /// `line_align` is set.
    pub fn padded(parts: usize, capacity: usize, line_align: bool) -> Self {
        let capacity = if line_align {
            crate::line::line_count::<T>(capacity) * T::LANES
        } else {
            capacity
        };
        let extents = std::iter::repeat_n(capacity, parts);
        Self::laid_out(extents, PartitionLayout::Padded { capacity }, dummy_filled)
    }

    /// Allocate partitions of `extents[p]` tuple slots, back to back, and
    /// leave every slot unwritten, so that no slot is written twice. Its
    /// one caller is `fpart_cpu::swwcb::OutputBuilder`, the safe builder
    /// of every write-once output. `layout` is reported as given; a
    /// [`PartitionLayout::Padded`] caller passes `capacity` for every
    /// extent.
    ///
    /// # Safety
    /// Every slot, `0..allocated_slots()`, must be written through a
    /// [`SharedWriter`] before the relation is read in any way: before
    /// [`PartitionedRelation::raw_data`], [`PartitionedRelation::raw_data_mut`],
    /// [`PartitionedRelation::partition_slots`] and every method built on
    /// them. Dropping the relation unread is sound.
    pub unsafe fn uninit(extents: &[usize], layout: PartitionLayout) -> Self {
        // SAFETY: forwarded from the caller's contract; `laid_out` only
        // allocates, and `SharedWriter::new` takes the buffer's pointer
        // without reading it.
        Self::laid_out(extents.iter().copied(), layout, |len| unsafe {
            AlignedBuf::uninit(len)
        })
    }

    /// Partitions of the given extents, back to back, over a buffer that
    /// `alloc` makes for their total; nothing written yet.
    fn laid_out(
        extents: impl ExactSizeIterator<Item = usize>,
        layout: PartitionLayout,
        alloc: impl FnOnce(usize) -> AlignedBuf<T>,
    ) -> Self {
        let parts = extents.len();
        let mut offsets = Vec::with_capacity(parts + 1);
        offsets.push(0);
        let mut acc = 0usize;
        for extent in extents {
            acc += extent;
            offsets.push(acc);
        }
        Self {
            data: alloc(acc),
            offsets,
            written: vec![0; parts],
            valid: vec![0; parts],
            layout,
        }
    }

    /// Number of partitions.
    #[inline]
    pub fn num_partitions(&self) -> usize {
        self.written.len()
    }

    /// The layout this relation was allocated with.
    #[inline]
    pub fn layout(&self) -> PartitionLayout {
        self.layout
    }

    /// Total allocated tuple slots (the intermediate-memory footprint the
    /// paper says HIST mode minimises).
    #[inline]
    pub fn allocated_slots(&self) -> usize {
        self.data.len()
    }

    /// Base slot offset of partition `p`.
    #[inline]
    pub fn partition_base(&self, p: usize) -> usize {
        self.offsets[p]
    }

    /// Capacity (in tuple slots) of partition `p`.
    #[inline]
    pub fn partition_capacity(&self, p: usize) -> usize {
        self.offsets[p + 1] - self.offsets[p]
    }

    /// Slots written to partition `p`, including dummy padding.
    #[inline]
    pub fn partition_written(&self, p: usize) -> usize {
        self.written[p]
    }

    /// Real tuples in partition `p`.
    #[inline]
    pub fn partition_valid(&self, p: usize) -> usize {
        self.valid[p]
    }

    /// The written slots of partition `p` (may contain dummies).
    #[inline]
    pub fn partition_slots(&self, p: usize) -> &[T] {
        let base = self.offsets[p];
        &self.data.as_slice()[base..base + self.written[p]]
    }

    /// Iterator over the real tuples of partition `p`, skipping the dummy
    /// padding that the FPGA flush inserts.
    #[inline]
    pub fn partition_tuples(&self, p: usize) -> impl Iterator<Item = T> + '_ {
        self.partition_slots(p)
            .iter()
            .copied()
            .filter(|t| !t.is_dummy())
    }

    /// Iterator over all real tuples across all partitions.
    pub fn all_tuples(&self) -> impl Iterator<Item = T> + '_ {
        (0..self.num_partitions()).flat_map(move |p| self.partition_tuples(p))
    }

    /// Total real tuples.
    #[inline]
    pub fn total_valid(&self) -> usize {
        self.valid.iter().sum()
    }

    /// Total written slots including padding — the amount of data the
    /// partitioner actually stored ("the partitioner circuit writes some
    /// more data than it receives", Section 4.2).
    #[inline]
    pub fn total_written(&self) -> usize {
        self.written.iter().sum()
    }

    /// Dummy-padding overhead in tuple slots.
    #[inline]
    pub fn padding_overhead(&self) -> usize {
        self.total_written() - self.total_valid()
    }

    /// Per-partition valid-count histogram (used for Figure 3 CDFs).
    #[inline]
    pub fn histogram(&self) -> &[usize] {
        &self.valid
    }

    /// Record that `written` slots (of which `valid` are real tuples) now
    /// occupy partition `p`. Called by partitioner back-ends after filling
    /// [`PartitionedRelation::raw_data_mut`].
    ///
    /// # Panics
    /// Panics if the written count exceeds the partition capacity.
    pub fn set_partition_fill(&mut self, p: usize, written: usize, valid: usize) {
        assert!(
            written <= self.partition_capacity(p),
            "partition {p} fill {written} exceeds capacity {}",
            self.partition_capacity(p)
        );
        assert!(valid <= written);
        self.written[p] = written;
        self.valid[p] = valid;
    }

    /// Raw mutable access to the whole backing store, for partitioner
    /// back-ends that write disjoint regions (possibly from several
    /// threads via [`SharedWriter`]).
    #[inline]
    pub fn raw_data_mut(&mut self) -> &mut [T] {
        self.data.as_mut_slice()
    }

    /// Raw read access to the whole backing store.
    #[inline]
    pub fn raw_data(&self) -> &[T] {
        self.data.as_slice()
    }
}

/// An unchecked multi-writer handle over a [`PartitionedRelation`]'s
/// backing store.
///
/// The paper's CPU baseline removes inter-thread synchronisation by giving
/// every thread disjoint output extents computed from per-thread histograms
/// (Section 4.7). `SharedWriter` encodes that contract: threads write
/// through raw pointers into regions the caller guarantees are disjoint.
pub struct SharedWriter<T: Tuple> {
    ptr: *mut T,
    len: usize,
}

// SAFETY: callers uphold the disjoint-extent contract documented on
// `SharedWriter::write`; the pointer itself is valid for the relation's
// lifetime and T is plain-old-data.
unsafe impl<T: Tuple> Send for SharedWriter<T> {}
unsafe impl<T: Tuple> Sync for SharedWriter<T> {}

impl<T: Tuple> SharedWriter<T> {
    /// Wrap a relation's backing store for multi-threaded writing. Takes
    /// the store's pointer without forming a slice of it, so it may wrap
    /// a relation from [`PartitionedRelation::uninit`].
    pub fn new(rel: &mut PartitionedRelation<T>) -> Self {
        Self {
            ptr: rel.data.as_mut_ptr(),
            len: rel.data.len(),
        }
    }

    /// Total slots in the backing store.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the backing store is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Write one tuple to an absolute slot index.
    ///
    /// # Safety
    /// No two threads may write the same slot.
    ///
    /// # Panics
    /// Panics if `slot >= self.len()`, in every build.
    #[inline]
    pub unsafe fn write(&self, slot: usize, t: T) {
        assert!(
            slot < self.len,
            "write to slot {slot} past the output's {} slots",
            self.len
        );
        // SAFETY: in bounds (checked above); slots are disjoint across
        // threads per the type-level contract.
        unsafe { self.ptr.add(slot).write(t) };
    }

    /// Write `t` to every slot of `slots`.
    ///
    /// # Safety
    /// No other thread may write a slot of `slots` concurrently.
    ///
    /// # Panics
    /// Panics if `slots` is reversed or ends past `self.len()`, in every
    /// build.
    #[inline]
    pub unsafe fn fill(&self, slots: Range<usize>, t: T) {
        assert!(
            slots.start <= slots.end && slots.end <= self.len,
            "fill of slots {slots:?} past the output's {} slots",
            self.len
        );
        for slot in slots {
            // SAFETY: in bounds (checked above); no other thread writes
            // these slots per the caller's contract.
            unsafe { self.ptr.add(slot).write(t) };
        }
    }

    /// Raw pointer to an absolute slot, for specialised copies (e.g.
    /// non-temporal stores). The write through it is subject to the same
    /// disjointness contract as [`SharedWriter::write`].
    ///
    /// # Panics
    /// Panics if `slot > self.len()`, in every build.
    #[inline]
    pub fn as_ptr_at(&self, slot: usize) -> *mut T {
        assert!(
            slot <= self.len,
            "pointer to slot {slot} past the output's {} slots",
            self.len
        );
        // SAFETY: slot is within the allocation or one past its end
        // (checked above).
        unsafe { self.ptr.add(slot) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::Tuple8;

    #[test]
    fn histogram_layout_has_exact_extents() {
        let rel = PartitionedRelation::<Tuple8>::with_histogram(&[3, 0, 5], false);
        assert_eq!(rel.num_partitions(), 3);
        assert_eq!(rel.partition_capacity(0), 3);
        assert_eq!(rel.partition_capacity(1), 0);
        assert_eq!(rel.partition_capacity(2), 5);
        assert_eq!(rel.allocated_slots(), 8);
        assert_eq!(rel.layout(), PartitionLayout::Exact);
    }

    #[test]
    fn line_aligned_layout_rounds_up() {
        // 3 tuples → 1 line (8 slots); 9 tuples → 2 lines (16 slots).
        let rel = PartitionedRelation::<Tuple8>::with_histogram(&[3, 9], true);
        assert_eq!(rel.partition_capacity(0), 8);
        assert_eq!(rel.partition_capacity(1), 16);
        assert_eq!(rel.partition_base(1), 8);
    }

    #[test]
    fn padded_layout_is_uniform() {
        let rel = PartitionedRelation::<Tuple8>::padded(4, 10, true);
        match rel.layout() {
            PartitionLayout::Padded { capacity } => assert_eq!(capacity, 16),
            other => panic!("unexpected layout {other:?}"),
        }
        assert_eq!(rel.allocated_slots(), 64);
    }

    #[test]
    fn fill_tracking_and_dummy_skipping() {
        let mut rel = PartitionedRelation::<Tuple8>::with_histogram(&[2, 2], true);
        let base = rel.partition_base(0);
        rel.raw_data_mut()[base] = Tuple8::new(7, 0);
        rel.raw_data_mut()[base + 1] = Tuple8::new(8, 1);
        // Slots 2..8 remain dummies, as an FPGA flush would leave them.
        rel.set_partition_fill(0, 8, 2);
        assert_eq!(rel.partition_written(0), 8);
        assert_eq!(rel.partition_valid(0), 2);
        let ts: Vec<_> = rel.partition_tuples(0).collect();
        assert_eq!(ts, vec![Tuple8::new(7, 0), Tuple8::new(8, 1)]);
        assert_eq!(rel.padding_overhead(), 6);
        assert_eq!(rel.total_valid(), 2);
    }

    #[test]
    #[should_panic(expected = "exceeds capacity")]
    fn overfill_is_rejected() {
        let mut rel = PartitionedRelation::<Tuple8>::padded(2, 4, false);
        rel.set_partition_fill(0, 5, 5);
    }

    #[test]
    fn shared_writer_writes_disjoint_slots() {
        let mut rel = PartitionedRelation::<Tuple8>::padded(2, 8, false);
        {
            let w = SharedWriter::new(&mut rel);
            assert_eq!(w.len(), 16);
            // SAFETY: single-threaded test, in-bounds slots.
            unsafe {
                w.write(0, Tuple8::new(1, 1));
                w.write(8, Tuple8::new(2, 2));
                w.write(9, Tuple8::new(3, 3));
            }
        }
        rel.set_partition_fill(0, 1, 1);
        rel.set_partition_fill(1, 2, 2);
        assert_eq!(rel.partition_slots(1)[0], Tuple8::new(2, 2));
        assert_eq!(rel.all_tuples().count(), 3);
    }

    #[test]
    #[should_panic(expected = "past the output")]
    fn shared_writer_rejects_out_of_range_write() {
        let mut rel = PartitionedRelation::<Tuple8>::padded(2, 8, false);
        let w = SharedWriter::new(&mut rel);
        // SAFETY: single-threaded; the bounds check must fire before the
        // store.
        unsafe { w.write(16, Tuple8::new(1, 1)) };
    }

    #[test]
    #[should_panic(expected = "past the output")]
    fn shared_writer_rejects_out_of_range_pointer() {
        let mut rel = PartitionedRelation::<Tuple8>::padded(2, 8, false);
        let w = SharedWriter::new(&mut rel);
        assert_eq!(w.as_ptr_at(16), w.as_ptr_at(0).wrapping_add(16));
        let _ = w.as_ptr_at(17);
    }
}
