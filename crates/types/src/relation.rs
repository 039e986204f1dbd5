//! Input relations in row-store and column-store layouts.
//!
//! The partitioner's RID mode expects tuples "as the partitioner expects
//! them: `<x B key, y B payload>`" in one array (row store). VRID mode is
//! "used by column store databases": keys and payloads live in separate
//! arrays, associated only by position, and the FPGA reads *only* the key
//! array, appending a 4 B virtual record id on chip (Section 4.5).

use crate::aligned::AlignedBuf;
use crate::tuple::{Key, Tuple};

/// A row-store relation: one 64-byte-aligned array of fixed-width tuples.
#[derive(Debug, Clone)]
pub struct Relation<T: Tuple> {
    tuples: AlignedBuf<T>,
}

impl<T: Tuple> Relation<T> {
    /// Build a relation from materialised tuples.
    pub fn from_tuples(tuples: &[T]) -> Self {
        Self {
            tuples: AlignedBuf::from_slice(tuples),
        }
    }

    /// A relation of `len` all-zero tuples, to be filled in place (the
    /// file readers `read` straight into [`Relation::tuples_mut`]).
    pub fn zeroed(len: usize) -> Self {
        Self {
            tuples: AlignedBuf::zeroed(len),
        }
    }

    /// Build a relation of `keys.len()` tuples whose payload is the row id.
    pub fn from_keys(keys: &[T::K]) -> Self {
        let mut buf = AlignedBuf::<T>::zeroed(keys.len());
        for (rid, (&k, slot)) in keys.iter().zip(buf.as_mut_slice()).enumerate() {
            *slot = T::new(k, rid as u64);
        }
        Self { tuples: buf }
    }

    /// Number of tuples.
    #[inline]
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the relation is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Total size in bytes.
    #[inline]
    pub fn bytes(&self) -> usize {
        self.len() * T::WIDTH
    }

    /// The tuple array.
    #[inline]
    pub fn tuples(&self) -> &[T] {
        self.tuples.as_slice()
    }

    /// Mutable tuple array (used by in-place generators).
    #[inline]
    pub fn tuples_mut(&mut self) -> &mut [T] {
        self.tuples.as_mut_slice()
    }
}

/// A column-store relation: parallel key and payload arrays.
///
/// In VRID mode the FPGA partitions `(key, position)` pairs; payloads are
/// only touched at materialisation time ([`ColumnRelation::materialize`]),
/// which is "an additional cost that does not occur in RID mode ... no
/// different than an additional materialization cost that also occurs in
/// column-store database engines" (Section 5.2).
#[derive(Debug, Clone)]
pub struct ColumnRelation<T: Tuple> {
    keys: AlignedBuf<T::K>,
    payloads: AlignedBuf<u64>,
}

impl<T: Tuple> ColumnRelation<T> {
    /// Build from a key column; the payload column is the row id.
    pub fn from_keys(keys: &[T::K]) -> Self {
        let mut payloads = AlignedBuf::<u64>::zeroed(keys.len());
        for (rid, p) in payloads.as_mut_slice().iter_mut().enumerate() {
            *p = rid as u64;
        }
        Self {
            keys: AlignedBuf::from_slice(keys),
            payloads,
        }
    }

    /// Build from explicit key and payload columns.
    ///
    /// # Panics
    /// Panics if the columns differ in length.
    pub fn from_columns(keys: &[T::K], payloads: &[u64]) -> Self {
        assert_eq!(keys.len(), payloads.len(), "column length mismatch");
        Self {
            keys: AlignedBuf::from_slice(keys),
            payloads: AlignedBuf::from_slice(payloads),
        }
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the relation is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The key column — the only array the FPGA reads in VRID mode.
    #[inline]
    pub fn keys(&self) -> &[T::K] {
        self.keys.as_slice()
    }

    /// The payload column.
    #[inline]
    pub fn payloads(&self) -> &[u64] {
        self.payloads.as_slice()
    }

    /// Bytes the partitioner must *read* in VRID mode (key column only).
    #[inline]
    pub fn key_bytes(&self) -> usize {
        self.keys.len() * std::mem::size_of::<T::K>()
    }

    /// Materialise the real tuple for a partitioned `(key, vrid)` pair:
    /// looks the payload up by virtual record id.
    ///
    /// # Panics
    /// Panics if `vrid` is out of range.
    #[inline]
    pub fn materialize(&self, key: T::K, vrid: u64) -> T {
        let payload = self.payloads.as_slice()[vrid as usize];
        debug_assert_eq!(
            self.keys.as_slice()[vrid as usize],
            key,
            "vrid must point at the row the key came from"
        );
        T::new(key, payload)
    }

    /// View the relation as a row store (materialising every tuple) — used
    /// by tests and by the CPU fallback path.
    pub fn to_row_store(&self) -> Relation<T> {
        let tuples: Vec<T> = self
            .keys
            .iter()
            .zip(self.payloads.iter())
            .map(|(&k, &p)| T::new(k, p))
            .collect();
        Relation::from_tuples(&tuples)
    }
}

/// Checksum over keys and payload words, independent of tuple order.
///
/// Used to assert that partitioning is a permutation: the multiset of
/// (key, payload) pairs is preserved. Sum-based so it is order-insensitive.
pub fn content_checksum<T: Tuple>(tuples: impl IntoIterator<Item = T>) -> (u64, u64, u64) {
    let mut count = 0u64;
    let mut key_sum = 0u64;
    let mut payload_sum = 0u64;
    for t in tuples {
        if t.is_dummy() {
            continue;
        }
        count += 1;
        key_sum = key_sum.wrapping_add(t.key().to_u64());
        payload_sum = payload_sum.wrapping_add(t.payload_word());
    }
    (count, key_sum, payload_sum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::{Tuple16, Tuple8};

    #[test]
    fn from_keys_assigns_rids() {
        let rel = Relation::<Tuple8>::from_keys(&[10, 20, 30]);
        assert_eq!(rel.len(), 3);
        assert_eq!(rel.bytes(), 24);
        assert_eq!(rel.tuples()[1], Tuple8::new(20, 1));
    }

    #[test]
    fn column_relation_reads_only_keys() {
        let rel = ColumnRelation::<Tuple16>::from_keys(&[5, 6, 7]);
        assert_eq!(rel.key_bytes(), 24);
        assert_eq!(rel.keys(), &[5, 6, 7]);
        assert_eq!(rel.payloads(), &[0, 1, 2]);
    }

    #[test]
    fn materialize_restores_payload() {
        let rel = ColumnRelation::<Tuple16>::from_columns(&[5, 6, 7], &[50, 60, 70]);
        let t = rel.materialize(6, 1);
        assert_eq!(t, Tuple16::new(6, 60));
    }

    #[test]
    fn row_store_view_matches() {
        let col = ColumnRelation::<Tuple8>::from_keys(&[1, 2, 3, 4]);
        let row = col.to_row_store();
        assert_eq!(row.tuples()[3], Tuple8::new(4, 3));
    }

    #[test]
    fn checksum_is_order_insensitive_and_skips_dummies() {
        let a = [Tuple8::new(1, 10), Tuple8::new(2, 20), Tuple8::new(3, 30)];
        let b = [
            Tuple8::new(3, 30),
            Tuple8::dummy(),
            Tuple8::new(1, 10),
            Tuple8::new(2, 20),
        ];
        assert_eq!(content_checksum(a), content_checksum(b));
        assert_eq!(content_checksum(a).0, 3);
    }
}
