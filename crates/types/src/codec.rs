//! Compressed key columns, decompressed on chip.
//!
//! The paper's Discussion: "when processing compressed columns (a de
//! facto standard for analytical workloads), decompression and
//! compression can be done for free on the FPGA as the first and the
//! last steps of a processing pipeline."
//!
//! This module provides the *first step* for the VRID partitioning path:
//! the key column is stored run-length encoded; the circuit reads the
//! (smaller) compressed column over QPI and per-lane run expanders
//! regenerate keys at the full one-line-per-cycle internal rate. Runs
//! are capped at the lane count so a line of runs expands to a bounded
//! number of tuple lines — the property that keeps the read-throttling
//! flow control of Section 4.3 intact. [`crate::Input::Rle`] is how a
//! partitioner takes such a column.

use crate::line::CACHE_LINE_BYTES;
use crate::tuple::Key;

/// Maximum run length per encoded entry; longer runs are split. Equal to
/// the 8 B-tuple lane count so one run never expands past one cache line
/// of tuples.
pub const MAX_RUN: u8 = 8;

/// A run-length-encoded key column: `(key, run_length)` entries with
/// `1 <= run_length <= MAX_RUN`.
///
/// # Examples
///
/// ```
/// use fpart_types::RleColumn;
///
/// let col = RleColumn::encode(&[5u32, 5, 5, 9]);
/// assert_eq!(col.runs(), &[(5, 3), (9, 1)]);
/// assert_eq!(col.decode(), vec![5, 5, 5, 9]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RleColumn<K: Key> {
    runs: Vec<(K, u8)>,
    decoded_len: usize,
    /// The decoded position of each encoded line's first key, so a
    /// reader can start at any line without replaying the runs before it.
    line_starts: Vec<usize>,
}

impl<K: Key> RleColumn<K> {
    /// Runs per 64 B line in the packed layout (each entry stores the
    /// key word plus a word-aligned length).
    pub(crate) const RUNS_PER_LINE: usize = CACHE_LINE_BYTES / (2 * std::mem::size_of::<K>());

    /// Encode a key column. Adjacent equal keys collapse into runs
    /// (capped at [`MAX_RUN`]); sorted or low-cardinality columns
    /// compress well, random columns degenerate to run length 1.
    pub fn encode(keys: &[K]) -> Self {
        let mut runs: Vec<(K, u8)> = Vec::new();
        for &k in keys {
            match runs.last_mut() {
                Some((last, len)) if *last == k && *len < MAX_RUN => *len += 1,
                _ => runs.push((k, 1)),
            }
        }
        let mut line_starts = Vec::with_capacity(runs.len().div_ceil(Self::RUNS_PER_LINE));
        let mut pos = 0;
        for line in runs.chunks(Self::RUNS_PER_LINE) {
            line_starts.push(pos);
            pos += line.iter().map(|&(_, len)| len as usize).sum::<usize>();
        }
        Self {
            runs,
            decoded_len: keys.len(),
            line_starts,
        }
    }

    /// The encoded runs.
    pub fn runs(&self) -> &[(K, u8)] {
        &self.runs
    }

    /// Keys after decompression.
    pub fn decoded_len(&self) -> usize {
        self.decoded_len
    }

    /// Encoded line `line`'s runs and the decoded position of its first
    /// key.
    pub(crate) fn line(&self, line: usize) -> (&[(K, u8)], usize) {
        let start = line * Self::RUNS_PER_LINE;
        let end = (start + Self::RUNS_PER_LINE).min(self.runs.len());
        (&self.runs[start..end], self.line_starts[line])
    }

    /// The encoded line holding decoded position `pos`.
    ///
    /// # Panics
    /// Panics if the column is empty.
    pub(crate) fn line_of(&self, pos: usize) -> usize {
        self.line_starts.partition_point(|&s| s <= pos) - 1
    }

    /// The key at decoded position `pos`.
    ///
    /// # Panics
    /// Panics if `pos >= self.decoded_len()`.
    pub(crate) fn key(&self, pos: usize) -> K {
        assert!(pos < self.decoded_len, "position {pos} past the column");
        let (runs, mut first) = self.line(self.line_of(pos));
        for &(key, len) in runs {
            first += len as usize;
            if pos < first {
                return key;
            }
        }
        unreachable!("a line's runs cover every position up to the next line's start")
    }

    /// Encoded size in bytes as stored for the circuit: each run packs
    /// the key word plus a length byte rounded to the key width (the
    /// hardware layout keeps entries word-aligned).
    pub fn encoded_bytes(&self) -> usize {
        self.runs.len() * 2 * std::mem::size_of::<K>()
    }

    /// Compression ratio: decoded key bytes / encoded bytes.
    pub fn ratio(&self) -> f64 {
        if self.runs.is_empty() {
            return 1.0;
        }
        (self.decoded_len * std::mem::size_of::<K>()) as f64 / self.encoded_bytes() as f64
    }

    /// Decode back to the full key column (software reference; the
    /// circuit does this on chip).
    pub fn decode(&self) -> Vec<K> {
        let mut out = Vec::with_capacity(self.decoded_len);
        for &(k, len) in &self.runs {
            for _ in 0..len {
                out.push(k);
            }
        }
        debug_assert_eq!(out.len(), self.decoded_len);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip() {
        let keys: Vec<u32> = vec![1, 1, 1, 2, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 4];
        let col = RleColumn::encode(&keys);
        assert_eq!(col.decode(), keys);
        // 3 repeats 10 times → split into 8 + 2.
        assert_eq!(col.runs(), &[(1, 3), (2, 1), (3, 8), (3, 2), (4, 1)]);
        assert_eq!(col.decoded_len(), 15);
    }

    #[test]
    fn sorted_low_cardinality_compresses() {
        // 10k keys over 100 distinct values, sorted: long runs.
        let mut keys: Vec<u32> = (0..10_000).map(|i| i % 100).collect();
        keys.sort_unstable();
        let col = RleColumn::encode(&keys);
        assert!(col.ratio() > 3.5, "ratio {:.2}", col.ratio());
        assert_eq!(col.decode(), keys);
    }

    #[test]
    fn random_keys_do_not_compress() {
        let keys: Vec<u32> = (0..1000u32)
            .map(|i| i.wrapping_mul(2654435761) % 97 + i)
            .collect();
        let col = RleColumn::encode(&keys);
        assert!(col.ratio() <= 0.51, "ratio {:.2}", col.ratio());
        assert_eq!(col.decode(), keys);
    }

    #[test]
    fn empty_column() {
        let col = RleColumn::<u32>::encode(&[]);
        assert!(col.decode().is_empty());
        assert_eq!(col.ratio(), 1.0);
    }

    #[test]
    fn run_cap_is_respected() {
        let keys = vec![7u32; 100];
        let col = RleColumn::encode(&keys);
        assert!(col
            .runs()
            .iter()
            .all(|&(_, len)| (1..=MAX_RUN).contains(&len)));
        assert_eq!(col.runs().len(), 13); // ⌈100/8⌉
    }

    #[test]
    fn line_starts_locate_every_position() {
        let keys: Vec<u64> = (0..200u64).map(|i| i / 3).collect();
        let col = RleColumn::encode(&keys);
        // u64 keys: four runs of three keys per 64 B line.
        assert_eq!(col.line_starts.len(), 17);
        assert_eq!(col.line(1), (&col.runs()[4..8], 12));
        for (pos, &k) in keys.iter().enumerate() {
            assert_eq!(col.key(pos), k, "position {pos}");
            assert_eq!(col.line_of(pos), pos / 12, "position {pos}");
        }
    }
}
