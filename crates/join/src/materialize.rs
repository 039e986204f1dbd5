//! Join output materialisation.
//!
//! The evaluation (like the prior work it compares against) counts
//! matches and checksums payloads; a database must also *materialise*
//! output tuples. Two paths matter for this reproduction:
//!
//! * [`materialize_join`] — produce `(key, r_payload, s_payload)` rows
//!   from partitioned inputs (RID mode: payloads travel with the tuples);
//! * [`materialize_join_vrid`] — the column-store path of Section 5.2:
//!   after VRID partitioning the tuples carry *positions*, and "the real
//!   tuple can be materialized using the VRIDs to associate keys with
//!   their payloads … an additional cost that does not occur in RID
//!   mode" — this function is that additional cost, made explicit and
//!   measurable.

use std::sync::atomic::{AtomicUsize, Ordering};

use fpart_types::{ColumnRelation, Key, PartitionedRelation, Tuple};

use crate::hashtable::BucketChainTable;

/// One materialised join output row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinedRow<K> {
    /// The join key.
    pub key: K,
    /// Payload word of the build-side tuple.
    pub r_payload: u64,
    /// Payload word of the probe-side tuple.
    pub s_payload: u64,
}

/// Materialise the join of two partitioned relations (RID-mode payloads).
/// Threads claim partitions and reuse one table each, as
/// [`crate::build_probe_all`] does; each appends to a private vector, and
/// the results are concatenated partition-ordered.
pub fn materialize_join<T: Tuple>(
    r: &PartitionedRelation<T>,
    s: &PartitionedRelation<T>,
    partition_bits: u32,
    threads: usize,
) -> Vec<JoinedRow<T::K>> {
    assert_eq!(r.num_partitions(), s.num_partitions(), "fan-out mismatch");
    let parts = r.num_partitions();
    let threads = threads.clamp(1, parts.max(1));
    let cursor = AtomicUsize::new(0);

    let worker = || {
        let mut rows: Vec<(usize, Vec<JoinedRow<T::K>>)> = Vec::new();
        let mut table = BucketChainTable::with_shift(partition_bits);
        loop {
            let p = cursor.fetch_add(1, Ordering::Relaxed);
            if p >= parts {
                break;
            }
            table.rebuild(r.partition_slots(p));
            if table.is_empty() {
                continue;
            }
            let mut out = Vec::new();
            for s_t in s.partition_tuples(p) {
                table.probe(s_t.key(), |r_t| {
                    out.push(JoinedRow {
                        key: s_t.key(),
                        r_payload: r_t.payload_word(),
                        s_payload: s_t.payload_word(),
                    });
                });
            }
            rows.push((p, out));
        }
        rows
    };

    let mut all: Vec<(usize, Vec<JoinedRow<T::K>>)> = if threads == 1 {
        worker()
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads).map(|_| scope.spawn(worker)).collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("materialize worker"))
                .collect()
        })
    };
    // Deterministic output order: by partition id.
    all.sort_unstable_by_key(|(p, _)| *p);
    all.into_iter().flat_map(|(_, v)| v).collect()
}

/// Materialise a VRID-mode join: the partitioned tuples carry positions
/// into the original column relations; the real payloads are fetched by
/// position — the late-materialisation cost of Section 5.2.
pub fn materialize_join_vrid<T: Tuple>(
    r_parts: &PartitionedRelation<T>,
    s_parts: &PartitionedRelation<T>,
    r_cols: &ColumnRelation<T>,
    s_cols: &ColumnRelation<T>,
    partition_bits: u32,
    threads: usize,
) -> Vec<JoinedRow<T::K>> {
    let rows = materialize_join(r_parts, s_parts, partition_bits, threads);
    rows.into_iter()
        .map(|row| JoinedRow {
            key: row.key,
            // The payload words are VRIDs: dereference them.
            r_payload: r_cols.payloads()[row.r_payload as usize],
            s_payload: s_cols.payloads()[row.s_payload as usize],
        })
        .collect()
}

/// Order-insensitive checksum over materialised rows, comparable with
/// [`crate::buildprobe::BuildProbeReport::checksum`].
pub fn rows_checksum<K: Key>(rows: &[JoinedRow<K>]) -> u64 {
    rows.iter().fold(0u64, |acc, r| {
        acc.wrapping_add(r.r_payload).wrapping_add(r.s_payload)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buildprobe::build_probe_all;
    use fpart_cpu::CpuPartitioner;
    use fpart_datagen::dist::foreign_keys;
    use fpart_datagen::KeyDistribution;
    use fpart_hash::PartitionFn;
    use fpart_types::{Relation, Tuple8};

    fn setup(
        f: PartitionFn,
    ) -> (
        Relation<Tuple8>,
        Relation<Tuple8>,
        PartitionedRelation<Tuple8>,
        PartitionedRelation<Tuple8>,
    ) {
        let r_keys: Vec<u32> = KeyDistribution::Random.generate_keys(1500, 2);
        let s_keys = foreign_keys(&r_keys, 4000, 3);
        let r = Relation::from_keys(&r_keys);
        let s = Relation::from_keys(&s_keys);
        let p = CpuPartitioner::new(f, 2);
        let (rp, _) = p.partition(&r);
        let (sp, _) = p.partition(&s);
        (r, s, rp, sp)
    }

    #[test]
    fn rows_match_counting_join() {
        let f = PartitionFn::Murmur { bits: 5 };
        let (_, s, rp, sp) = setup(f);
        let rows = materialize_join(&rp, &sp, f.bits(), 2);
        let counted = build_probe_all(&rp, &sp, f.bits(), 2);
        assert_eq!(rows.len() as u64, counted.matches);
        assert_eq!(rows_checksum(&rows), counted.checksum);
        assert_eq!(rows.len(), s.len(), "FK join");
        // Every row's key must have come from the probe side.
        for row in &rows {
            assert_eq!(
                f.partition_of(row.key),
                f.partition_of(row.key),
                "self-consistent"
            );
        }
    }

    #[test]
    fn thread_counts_agree_up_to_order() {
        let f = PartitionFn::Murmur { bits: 4 };
        let (_, _, rp, sp) = setup(f);
        let mut a = materialize_join(&rp, &sp, f.bits(), 1);
        let mut b = materialize_join(&rp, &sp, f.bits(), 4);
        let key = |r: &JoinedRow<u32>| (r.key, r.r_payload, r.s_payload);
        a.sort_unstable_by_key(key);
        b.sort_unstable_by_key(key);
        assert_eq!(a, b);
    }

    #[test]
    fn vrid_materialisation_restores_column_payloads() {
        // Column relations with payloads that are NOT the row id, so a
        // missing dereference is caught.
        let r_keys: Vec<u32> = KeyDistribution::Random.generate_keys(800, 7);
        let s_keys = foreign_keys(&r_keys, 2000, 8);
        let r_payloads: Vec<u64> = (0..r_keys.len() as u64).map(|i| i * 1000 + 7).collect();
        let s_payloads: Vec<u64> = (0..s_keys.len() as u64).map(|i| i * 1000 + 13).collect();
        let r_cols = ColumnRelation::<Tuple8>::from_columns(&r_keys, &r_payloads);
        let s_cols = ColumnRelation::<Tuple8>::from_columns(&s_keys, &s_payloads);

        // VRID tuples: payload = position.
        let f = PartitionFn::Murmur { bits: 4 };
        let p = CpuPartitioner::new(f, 1);
        let r_vrid = Relation::<Tuple8>::from_keys(&r_keys); // payload = rid = position
        let s_vrid = Relation::<Tuple8>::from_keys(&s_keys);
        let (rp, _) = p.partition(&r_vrid);
        let (sp, _) = p.partition(&s_vrid);

        let rows = materialize_join_vrid(&rp, &sp, &r_cols, &s_cols, f.bits(), 2);
        assert_eq!(rows.len(), 2000);
        for row in &rows {
            assert_eq!(row.r_payload % 1000, 7, "r payload dereferenced");
            assert_eq!(row.s_payload % 1000, 13, "s payload dereferenced");
        }
    }

    #[test]
    fn empty_join_materialises_empty() {
        let f = PartitionFn::Radix { bits: 3 };
        let p = CpuPartitioner::new(f, 1);
        let (rp, _) = p.partition(&Relation::<Tuple8>::from_keys(&[1, 2, 3]));
        let (sp, _) = p.partition(&Relation::<Tuple8>::from_keys(&[100, 200]));
        let rows = materialize_join(&rp, &sp, f.bits(), 2);
        assert!(rows.is_empty());
    }
}
