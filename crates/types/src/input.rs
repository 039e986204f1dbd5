//! A partitioner's input, in any layout, and the one walker over it.
//!
//! The circuit reads 64 B input lines and hands its hash lanes tuple
//! lines of [`Tuple::LANES`] tuples. For a row store the two are the
//! same line. In VRID mode "a virtual record ID is appended to that key
//! on the FPGA, creating a tuple `<x B key, 4 B VRID>`" (Section 4.5), so
//! one line of keys becomes several tuple lines; a run-length-encoded
//! column is decompressed "for free … as the first step of a processing
//! pipeline" (Discussion). [`Input::for_each_line`] generates exactly
//! those tuple lines, and every partitioner reads its input through it.

use std::ops::Range;

use crate::codec::{RleColumn, MAX_RUN};
use crate::line::{CACHE_LINE_BYTES, MAX_LANES};
use crate::relation::{ColumnRelation, Relation};
use crate::tuple::Tuple;

/// A partitioner's input: a row store, which the circuit reads in RID
/// mode, or a column store, plain or run-length encoded, which it reads
/// in VRID mode ("key + virtual record id", Section 4.5).
///
/// The FPGA and CPU partitioners, the engine trait, the degradation
/// chain, the planners and the joins take an `Input`, most as `impl
/// Into<Input>`, so callers pass `&Relation`, `&ColumnRelation` or
/// `&RleColumn` directly. [`Input::slice`] views a sub-range; a column
/// view keeps the positions of the whole column, so the VRIDs a slice
/// yields are those a whole-column run would produce.
#[derive(Debug, Clone, Copy)]
pub enum Input<'a, T: Tuple> {
    /// Row-store tuples, `<key, payload>` in one array.
    Rows(&'a [T]),
    /// Rows `start..end` of a column store; only the key column is
    /// partitioned, each key with its position as the payload.
    Columns {
        /// The whole column store (the joins late-materialise through it).
        column: &'a ColumnRelation<T>,
        /// First row of the view.
        start: usize,
        /// One past the last row of the view.
        end: usize,
    },
    /// Positions `start..end` of a run-length-encoded key column, which
    /// the circuit decompresses on chip.
    Rle {
        /// The whole encoded column.
        column: &'a RleColumn<T::K>,
        /// First decoded position of the view.
        start: usize,
        /// One past the last decoded position of the view.
        end: usize,
    },
}

impl<'a, T: Tuple> From<&'a Relation<T>> for Input<'a, T> {
    fn from(rel: &'a Relation<T>) -> Self {
        Self::Rows(rel.tuples())
    }
}

impl<'a, T: Tuple> From<&'a ColumnRelation<T>> for Input<'a, T> {
    fn from(column: &'a ColumnRelation<T>) -> Self {
        Self::Columns {
            column,
            start: 0,
            end: column.len(),
        }
    }
}

impl<'a, T: Tuple> From<&'a RleColumn<T::K>> for Input<'a, T> {
    fn from(column: &'a RleColumn<T::K>) -> Self {
        Self::Rle {
            column,
            start: 0,
            end: column.decoded_len(),
        }
    }
}

impl<'a, T: Tuple> Input<'a, T> {
    /// Keys per 64 B line of a key column.
    const KEYS_PER_LINE: usize = CACHE_LINE_BYTES / std::mem::size_of::<T::K>();

    /// Number of rows.
    pub fn len(&self) -> usize {
        match *self {
            Self::Rows(rows) => rows.len(),
            Self::Columns { start, end, .. } | Self::Rle { start, end, .. } => end - start,
        }
    }

    /// Whether the input is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The key of row `i` of this view.
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    pub fn key(&self, i: usize) -> T::K {
        assert!(i < self.len(), "row {i} past an input of {}", self.len());
        match *self {
            Self::Rows(rows) => rows[i].key(),
            Self::Columns { column, start, .. } => column.keys()[start + i],
            Self::Rle { column, start, .. } => column.key(start + i),
        }
    }

    /// Rows `range` of this view, as a view that keeps the whole input's
    /// positions.
    ///
    /// # Panics
    /// Panics if `range` is reversed or reaches past `self.len()`.
    pub fn slice(&self, range: Range<usize>) -> Self {
        assert!(
            range.start <= range.end && range.end <= self.len(),
            "slice {range:?} of an input of {}",
            self.len()
        );
        match *self {
            Self::Rows(rows) => Self::Rows(&rows[range]),
            Self::Columns { column, start, .. } => Self::Columns {
                column,
                start: start + range.start,
                end: start + range.end,
            },
            Self::Rle { column, start, .. } => Self::Rle {
                column,
                start: start + range.start,
                end: start + range.end,
            },
        }
    }

    /// Cache lines the circuit reads for this view. An encoded view
    /// reads every encoded line that holds one of its positions.
    pub fn input_lines(&self) -> usize {
        match *self {
            Self::Rows(rows) => rows.len().div_ceil(T::LANES),
            Self::Columns { start, end, .. } => (end - start).div_ceil(Self::KEYS_PER_LINE),
            Self::Rle { .. } if self.is_empty() => 0,
            Self::Rle { column, start, end } => column.line_of(end - 1) - column.line_of(start) + 1,
        }
    }

    /// The most tuple lines one input line yields ("for each cache-line
    /// the FPGA receives, two cache-lines are generated internally",
    /// Section 4.7 — general for all widths and layouts).
    pub fn expansion(&self) -> usize {
        match self {
            Self::Rows(_) => 1,
            Self::Columns { .. } => Self::KEYS_PER_LINE / T::LANES,
            // Worst case: every run in the line is MAX_RUN long.
            Self::Rle { .. } => {
                (RleColumn::<T::K>::RUNS_PER_LINE * MAX_RUN as usize).div_ceil(T::LANES)
            }
        }
    }

    /// Call `f` on every tuple line that input lines `lines` of this view
    /// yield, in the order the circuit's hash lanes see them. A line
    /// holds up to [`Tuple::LANES`] tuples and never spans two input
    /// lines, so the last line of an input line may be short.
    ///
    /// Rows are yielded as sub-slices of the input, with no copy. Column
    /// layouts decode each input line into one reused buffer, appending
    /// each key's position in the whole column; an encoded view skips the
    /// positions of its first and last input lines that lie outside it.
    ///
    /// # Panics
    /// Panics if `lines` reaches past [`Input::input_lines`].
    #[inline]
    pub fn for_each_line(&self, lines: Range<usize>, mut f: impl FnMut(&[T])) {
        assert!(
            lines.start <= lines.end && lines.end <= self.input_lines(),
            "lines {lines:?} of an input of {} lines",
            self.input_lines()
        );
        let mut buf = [T::dummy(); MAX_LINE_TUPLES];
        // Rows are one zero-copy segment, other layouts one decoded
        // segment per input line. One loop calls `f` at one site, so the
        // compiler inlines each caller's `f` into it.
        let segments = match self {
            Self::Rows(_) => 0..1,
            _ => lines.clone(),
        };
        for line in segments {
            let tuples = match *self {
                Self::Rows(rows) => {
                    let end = (lines.end * T::LANES).min(rows.len());
                    &rows[(lines.start * T::LANES).min(end)..end]
                }
                Self::Columns { column, start, end } => {
                    let first = start + line * Self::KEYS_PER_LINE;
                    let keys = &column.keys()[first..(first + Self::KEYS_PER_LINE).min(end)];
                    for (i, (&key, slot)) in keys.iter().zip(&mut buf).enumerate() {
                        *slot = T::new(key, (first + i) as u64);
                    }
                    &buf[..keys.len()]
                }
                Self::Rle { column, start, end } => {
                    let (runs, mut pos) = column.line(column.line_of(start) + line);
                    let mut fill = 0;
                    for &(key, len) in runs {
                        for p in pos.max(start)..(pos + len as usize).min(end) {
                            buf[fill] = T::new(key, p as u64);
                            fill += 1;
                        }
                        pos += len as usize;
                    }
                    &buf[..fill]
                }
            };
            for line in tuples.chunks(T::LANES) {
                f(line);
            }
        }
    }
}

/// The most tuples one input line decodes to: a line of eight `u32` runs
/// of [`MAX_RUN`] keys each.
const MAX_LINE_TUPLES: usize = MAX_LANES * MAX_RUN as usize;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::{Tuple16, Tuple8};

    /// Every `(key, payload)` tuple of input lines `lines`, in order.
    fn walk<T: Tuple>(input: &Input<'_, T>, lines: Range<usize>) -> Vec<T> {
        let mut out = Vec::new();
        input.for_each_line(lines, |line| {
            assert!(!line.is_empty() && line.len() <= T::LANES);
            out.extend_from_slice(line);
        });
        out
    }

    /// One key column in the three layouts: rows whose payloads are
    /// their positions, the plain column and its run-length encoding.
    /// Walking any slice of any layout yields the whole input's tuples
    /// at exactly the slice's positions.
    #[test]
    fn slices_walk_the_whole_inputs_tuples() {
        fn check<T: Tuple>(keys: &[T::K]) {
            let rows = Relation::<T>::from_keys(keys);
            let cols = ColumnRelation::<T>::from_keys(keys);
            let rle = RleColumn::encode(keys);
            let n = keys.len();
            for input in [Input::from(&rows), Input::from(&cols), Input::from(&rle)] {
                let whole = walk(&input, 0..input.input_lines());
                assert_eq!(whole, rows.tuples(), "{input:?}");
                for (a, b) in [(0, n), (0, 0), (5, 5), (3, 40), (37, n), (1, n - 1)] {
                    let view = input.slice(a..b);
                    assert_eq!(view.len(), b - a);
                    assert_eq!(walk(&view, 0..view.input_lines()), &whole[a..b], "{a}..{b}");
                    for i in 0..b - a {
                        assert_eq!(view.key(i), keys[a + i]);
                    }
                }
                // Input lines may be walked one at a time, as the
                // circuit's read responses arrive.
                let one_by_one: Vec<T> = (0..input.input_lines())
                    .flat_map(|l| walk(&input, l..l + 1))
                    .collect();
                assert_eq!(one_by_one, whole);
            }
        }
        let keys: Vec<u32> = (0..203u32).map(|i| (i / 5) * 7 % 31).collect();
        check::<Tuple8>(&keys);
        let keys: Vec<u64> = keys.iter().map(|&k| k as u64 * 3).collect();
        check::<Tuple16>(&keys);
    }

    #[test]
    fn rle_lines_break_at_input_lines() {
        // u32 keys: eight runs per 64 B input line. The first input
        // line's runs decode to 20 keys: two full tuple lines and a short
        // one of four. The second input line's 9s start a new tuple line.
        let mut keys = vec![1u32; 8];
        keys.extend([2, 2, 3, 4, 5, 6, 7]);
        keys.extend([8; 5]);
        keys.extend([9, 9, 9]);
        let rle = RleColumn::encode(&keys);
        let input = Input::<Tuple8>::from(&rle);
        assert_eq!((input.input_lines(), input.expansion()), (2, 8));
        let mut lines: Vec<Vec<(u32, u32)>> = Vec::new();
        input.for_each_line(0..2, |l| {
            lines.push(l.iter().map(|t| (t.key, t.payload)).collect());
        });
        let pos = |key: u32, from: u32, to: u32| (from..to).map(move |p| (key, p));
        let line0: Vec<_> = pos(1, 0, 8).collect();
        let line1: Vec<_> = pos(2, 8, 10)
            .chain([(3, 10), (4, 11), (5, 12), (6, 13), (7, 14)])
            .chain(pos(8, 15, 16))
            .collect();
        let line2: Vec<_> = pos(8, 16, 20).collect();
        let line3: Vec<_> = pos(9, 20, 23).collect();
        assert_eq!(lines, vec![line0, line1, line2, line3]);

        // A view that starts and ends inside runs reads both input lines
        // and skips the positions outside it.
        let view = input.slice(9..21);
        assert_eq!(view.input_lines(), 2);
        let got: Vec<u32> = walk(&view, 0..2).iter().map(|t| t.payload).collect();
        assert_eq!(got, (9..21).collect::<Vec<_>>());
    }

    #[test]
    fn views_of_empty_inputs_have_no_lines() {
        let rle = RleColumn::<u32>::encode(&[]);
        let cols = ColumnRelation::<Tuple8>::from_keys(&[]);
        for input in [Input::<Tuple8>::from(&rle), Input::from(&cols)] {
            assert_eq!((input.len(), input.input_lines()), (0, 0));
            input.for_each_line(0..0, |_| panic!("no lines"));
        }
    }
}
