//! 64-byte cache lines of tuples.
//!
//! The Xeon+FPGA accelerators "access the memory in 64 B cache-line
//! granularity" (Section 4), so the simulated circuit moves [`Line`]s rather
//! than individual tuples. A line always holds [`Tuple::LANES`] tuples;
//! lines emitted by the flush phase may carry dummy tuples in their tail
//! slots.

use crate::tuple::Tuple;

/// Width of a cache line in bytes on the Xeon+FPGA platform.
pub const CACHE_LINE_BYTES: usize = 64;

/// Maximum number of tuples a line can carry (8 B tuples → 8 lanes).
pub const MAX_LANES: usize = 8;

/// One 64 B cache line of tuples.
///
/// Backed by an 8-slot array regardless of tuple width; only the first
/// `T::LANES` slots are meaningful. This keeps the type non-generic over
/// lane count (stable Rust cannot yet express `[T; 64 / size_of::<T>()]`)
/// at the cost of a few unused slots for wide tuples — irrelevant for a
/// simulator.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Line<T: Tuple> {
    slots: [T; MAX_LANES],
}

impl<T: Tuple> Line<T> {
    /// A line filled entirely with dummy tuples.
    #[inline]
    pub fn empty() -> Self {
        Self {
            slots: [T::dummy(); MAX_LANES],
        }
    }

    /// Build a line from exactly `T::LANES` tuples.
    ///
    /// # Panics
    /// Panics if `tuples.len() != T::LANES`.
    #[inline]
    pub fn from_slice(tuples: &[T]) -> Self {
        assert_eq!(
            tuples.len(),
            T::LANES,
            "a {}B-tuple line holds exactly {} tuples",
            T::WIDTH,
            T::LANES
        );
        let mut line = Self::empty();
        line.slots[..T::LANES].copy_from_slice(tuples);
        line
    }

    /// Build a line from up to `T::LANES` tuples, padding the tail with
    /// dummies — the flush-phase layout of Section 4.2.
    #[inline]
    pub fn from_partial(tuples: &[T]) -> Self {
        assert!(
            tuples.len() <= T::LANES,
            "at most {} tuples fit a {}B-tuple line",
            T::LANES,
            T::WIDTH
        );
        let mut line = Self::empty();
        line.slots[..tuples.len()].copy_from_slice(tuples);
        line
    }

    /// The valid lanes of this line (including any dummy padding).
    #[inline]
    pub fn tuples(&self) -> &[T] {
        &self.slots[..T::LANES]
    }

    /// Mutable access to the valid lanes.
    #[inline]
    pub fn tuples_mut(&mut self) -> &mut [T] {
        &mut self.slots[..T::LANES]
    }

    /// Read one lane.
    ///
    /// # Panics
    /// Panics if `lane >= T::LANES`.
    #[inline]
    pub fn lane(&self, lane: usize) -> T {
        assert!(lane < T::LANES);
        self.slots[lane]
    }

    /// Overwrite one lane.
    ///
    /// # Panics
    /// Panics if `lane >= T::LANES`.
    #[inline]
    pub fn set_lane(&mut self, lane: usize, t: T) {
        assert!(lane < T::LANES);
        self.slots[lane] = t;
    }

    /// Number of non-dummy tuples in this line.
    #[inline]
    pub fn valid_count(&self) -> usize {
        self.tuples().iter().filter(|t| !t.is_dummy()).count()
    }

    /// Iterator over the non-dummy tuples of this line.
    #[inline]
    pub fn valid_tuples(&self) -> impl Iterator<Item = T> + '_ {
        self.tuples().iter().copied().filter(|t| !t.is_dummy())
    }
}

impl<T: Tuple> Default for Line<T> {
    fn default() -> Self {
        Self::empty()
    }
}

/// Number of cache lines needed to hold `n` tuples of type `T` (rounds up).
#[inline]
pub fn line_count<T: Tuple>(n: usize) -> usize {
    n.div_ceil(T::LANES)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::{Tuple16, Tuple64, Tuple8};

    #[test]
    fn from_slice_round_trips() {
        let ts: Vec<Tuple8> = (0..8).map(|i| Tuple8::new(i, i as u64)).collect();
        let line = Line::from_slice(&ts);
        assert_eq!(line.tuples(), &ts[..]);
        assert_eq!(line.valid_count(), 8);
    }

    #[test]
    #[should_panic(expected = "exactly")]
    fn from_slice_rejects_short_input() {
        let ts: Vec<Tuple8> = (0..5).map(|i| Tuple8::new(i, 0)).collect();
        let _ = Line::from_slice(&ts);
    }

    #[test]
    fn partial_line_pads_with_dummies() {
        let ts: Vec<Tuple8> = (0..3).map(|i| Tuple8::new(i, 0)).collect();
        let line = Line::from_partial(&ts);
        assert_eq!(line.valid_count(), 3);
        assert!(line.tuples()[3..].iter().all(|t| t.is_dummy()));
        let valid: Vec<_> = line.valid_tuples().collect();
        assert_eq!(valid, ts);
    }

    #[test]
    fn wide_tuples_use_fewer_lanes() {
        let ts: Vec<Tuple16> = (0..4).map(|i| Tuple16::new(i, 0)).collect();
        let line = Line::from_slice(&ts);
        assert_eq!(line.tuples().len(), 4);

        let t64 = [Tuple64::new(9, 1)];
        let line = Line::from_slice(&t64);
        assert_eq!(line.tuples().len(), 1);
        assert_eq!(line.lane(0).key, 9);
    }

    #[test]
    fn line_count_rounds_up() {
        assert_eq!(line_count::<Tuple8>(19), 3);
        assert_eq!(line_count::<Tuple8>(16), 2);
        assert_eq!(line_count::<Tuple8>(0), 0);
    }

    #[test]
    fn set_lane_overwrites() {
        let mut line = Line::<Tuple8>::empty();
        line.set_lane(2, Tuple8::new(5, 6));
        assert_eq!(line.lane(2).key, 5);
        assert_eq!(line.valid_count(), 1);
    }
}
