//! Persistence for partitioned relations (`FPRP` format).
//!
//! A partitioning run is the expensive half of a radix join; persisting
//! its output lets a pipeline split partition and join across processes
//! (or cache the partitioning of a build side that joins against many
//! probe sides).
//!
//! ```text
//! offset        size  field
//! 0             4     magic "FPRP"
//! 4             2     version (2)
//! 6             2     tuple width w
//! 8             8     partition count P
//! 16            8     allocated slot count A
//! 24            16·P  per partition: written (u64), valid (u64)
//! …             8·(P+1) slot offsets (prefix table)
//! …             A·w   raw slot bytes (including dummy padding)
//! …             8     checksum of every preceding byte
//! ```
//!
//! The checksum and the length rule are the ones of the `FPRT` format
//! (see [`crate::binary`]): the file is exactly `40 + 24·P + A·w` bytes,
//! checked before anything is allocated. The offset table must start at
//! 0, never decrease and end at `A`, and each partition's written count
//! must fit its extent and bound its valid count; a file that breaks
//! either rule is [`IoError::BadLayout`].
//!
//! The exact layout (offsets, written/valid counts, dummy padding) is
//! preserved bit-for-bit, so a reloaded relation behaves identically —
//! including the flush-padding the FPGA wrote.

use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::path::Path;

use fpart_types::{PartitionedRelation, Tuple};

use crate::frame::{self, Checksum, CHECKSUM_BYTES, PREAMBLE_BYTES};
use crate::IoError;

const MAGIC: &[u8; 4] = b"FPRP";
const VERSION: u16 = 2;
/// Preamble, partition count and allocated slot count.
const HEADER_BYTES: usize = PREAMBLE_BYTES + 16;

/// Write a partitioned relation to `path`.
pub fn write_partitioned<T: Tuple>(
    rel: &PartitionedRelation<T>,
    path: impl AsRef<Path>,
) -> Result<(), IoError> {
    let parts = rel.num_partitions();
    let mut meta = Vec::with_capacity(HEADER_BYTES + 24 * parts + 8);
    meta.extend_from_slice(&frame::preamble::<T>(MAGIC, VERSION));
    meta.extend_from_slice(&(parts as u64).to_le_bytes());
    meta.extend_from_slice(&(rel.allocated_slots() as u64).to_le_bytes());
    for p in 0..parts {
        meta.extend_from_slice(&(rel.partition_written(p) as u64).to_le_bytes());
        meta.extend_from_slice(&(rel.partition_valid(p) as u64).to_le_bytes());
    }
    for p in 0..parts {
        meta.extend_from_slice(&(rel.partition_base(p) as u64).to_le_bytes());
    }
    meta.extend_from_slice(&(rel.allocated_slots() as u64).to_le_bytes());
    let payload = frame::as_bytes(rel.raw_data());
    let mut sum = Checksum::new();
    sum.update(&meta);
    sum.update(payload);

    let mut out = BufWriter::new(File::create(path)?);
    out.write_all(&meta)?;
    out.write_all(payload)?;
    out.write_all(&sum.finish().to_le_bytes())?;
    out.flush()?;
    Ok(())
}

/// Read a partitioned relation of tuple type `T` from `path`.
///
/// The slot bytes are read straight into the returned relation's buffer,
/// after the header has been checked against the file's length.
pub fn read_partitioned<T: Tuple>(
    path: impl AsRef<Path>,
) -> Result<PartitionedRelation<T>, IoError> {
    let mut file = File::open(path)?;
    let file_len = file.metadata()?.len();

    let mut header = [0u8; HEADER_BYTES];
    file.read_exact(&mut header)?;
    frame::check_preamble::<T>(&header, MAGIC, VERSION)?;
    let parts = frame::u64_at(&header, PREAMBLE_BYTES);
    let allocated = frame::u64_at(&header, PREAMBLE_BYTES + 8);
    let table_bytes = parts.checked_mul(24).and_then(|b| b.checked_add(8));
    let implied = allocated
        .checked_mul(T::WIDTH as u64)
        .zip(table_bytes)
        .and_then(|(slots, tables)| slots.checked_add(tables))
        .and_then(|b| b.checked_add(HEADER_BYTES as u64 + CHECKSUM_BYTES));
    frame::check_len(implied, file_len)?;
    let (parts, allocated) = (
        frame::to_usize(parts, file_len)?,
        frame::to_usize(allocated, file_len)?,
    );

    let mut sum = Checksum::new();
    sum.update(&header);
    let mut tables = vec![0u8; 24 * parts + 8];
    file.read_exact(&mut tables)?;
    sum.update(&tables);
    let (fills, offsets) = tables.split_at(16 * parts);
    let offsets: Vec<usize> = (0..=parts)
        .map(|p| frame::u64_at(offsets, 8 * p) as usize)
        .collect();
    if offsets[0] != 0 || offsets[parts] != allocated || offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(IoError::BadLayout(
            "slot offsets must rise from 0 to the allocated count",
        ));
    }

    let extents: Vec<usize> = offsets.windows(2).map(|w| w[1] - w[0]).collect();
    let mut rel = PartitionedRelation::<T>::with_histogram(&extents, false);
    frame::read_summed(&mut file, frame::as_bytes_mut(rel.raw_data_mut()), &mut sum)?;
    frame::check_trailer(&mut file, &sum)?;

    for (p, &extent) in extents.iter().enumerate() {
        let written = frame::u64_at(fills, 16 * p);
        let valid = frame::u64_at(fills, 16 * p + 8);
        if written > extent as u64 || valid > written {
            return Err(IoError::BadLayout(
                "a partition's fill exceeds its extent or its written count",
            ));
        }
        rel.set_partition_fill(p, written as usize, valid as usize);
    }
    Ok(rel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpart_datagen::KeyDistribution;
    use fpart_types::{Relation, Tuple8};

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("fpart_fprp_test_{}_{name}", std::process::id()));
        p
    }

    #[test]
    fn cpu_partitioned_round_trip() {
        use fpart_cpu_shim::partition;
        let path = tmp("cpu");
        let keys = KeyDistribution::Random.generate_keys::<u32>(8000, 3);
        let rel = Relation::<Tuple8>::from_keys(&keys);
        let parts = partition(&rel);
        write_partitioned(&parts, &path).unwrap();
        let back = read_partitioned::<Tuple8>(&path).unwrap();

        assert_eq!(back.num_partitions(), parts.num_partitions());
        assert_eq!(back.histogram(), parts.histogram());
        assert_eq!(back.raw_data(), parts.raw_data());
        for p in 0..parts.num_partitions() {
            assert_eq!(back.partition_written(p), parts.partition_written(p));
            assert_eq!(back.partition_base(p), parts.partition_base(p));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corruption_detected() {
        let path = tmp("corrupt");
        // Line-aligned extents with dummy padding and an empty partition;
        // flipping any byte of the file must be caught.
        let rel = Relation::<Tuple8>::from_keys(&(0..19u32).map(|k| k * 5).collect::<Vec<_>>());
        let mut parts = PartitionedRelation::<Tuple8>::with_histogram(&[3, 0, 9], true);
        parts.raw_data_mut()[..19].copy_from_slice(rel.tuples());
        parts.set_partition_fill(0, 8, 3);
        parts.set_partition_fill(2, 11, 9);
        write_partitioned(&parts, &path).unwrap();
        let clean = std::fs::read(&path).unwrap();
        assert_eq!(clean.len(), 40 + 24 * 3 + 24 * 8);
        for i in 0..clean.len() {
            let mut bytes = clean.clone();
            bytes[i] ^= 0x01;
            std::fs::write(&path, &bytes).unwrap();
            let got = read_partitioned::<Tuple8>(&path);
            assert!(got.is_err(), "flipping byte {i} went unnoticed");
        }
        std::fs::remove_file(&path).ok();
    }

    /// A header with `parts` partitions and `allocated` slots, followed by
    /// `tail` bytes.
    fn crafted(parts: u64, allocated: u64, tail: usize) -> Vec<u8> {
        let mut bytes = frame::preamble::<Tuple8>(MAGIC, VERSION).to_vec();
        bytes.extend_from_slice(&parts.to_le_bytes());
        bytes.extend_from_slice(&allocated.to_le_bytes());
        bytes.resize(bytes.len() + tail, 0);
        bytes
    }

    #[test]
    fn hostile_counts_are_typed_errors() {
        let path = tmp("hostile");
        for (parts, allocated) in [(1u64 << 40, 0u64), (1, 1 << 40), (u64::MAX / 8, 0)] {
            std::fs::write(&path, crafted(parts, allocated, 8)).unwrap();
            assert!(
                matches!(
                    read_partitioned::<Tuple8>(&path),
                    Err(IoError::LengthMismatch { file: 32, .. })
                ),
                "parts {parts}, allocated {allocated}"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_file_is_a_length_mismatch() {
        use fpart_cpu_shim::partition;
        let path = tmp("truncated");
        let rel = Relation::<Tuple8>::from_keys(&(0..500u32).collect::<Vec<_>>());
        write_partitioned(&partition(&rel), &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        for keep in [bytes.len() - 1, bytes.len() / 2, 24] {
            std::fs::write(&path, &bytes[..keep]).unwrap();
            assert!(
                matches!(
                    read_partitioned::<Tuple8>(&path),
                    Err(IoError::LengthMismatch { file, .. }) if file == keep as u64
                ),
                "kept {keep} bytes"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    /// Write `tables` (fills then offsets) and `slots` zero slots with a
    /// valid checksum, so only the layout rules can reject the file.
    fn summed(parts: u64, allocated: u64, tables: &[u64]) -> Vec<u8> {
        let mut bytes = crafted(parts, allocated, 0);
        for x in tables {
            bytes.extend_from_slice(&x.to_le_bytes());
        }
        bytes.resize(bytes.len() + 8 * allocated as usize, 0);
        let mut sum = Checksum::new();
        sum.update(&bytes);
        bytes.extend_from_slice(&sum.finish().to_le_bytes());
        bytes
    }

    #[test]
    fn inconsistent_layout_is_a_typed_error() {
        let path = tmp("layout");
        let cases: [&[u64]; 4] = [
            &[0, 0, 0, 0, 1, 1, 2], // offsets start at 1
            &[0, 0, 0, 0, 0, 3, 2], // offsets fall
            &[0, 0, 0, 0, 0, 1, 3], // offsets end past the allocation
            &[2, 1, 0, 0, 0, 1, 2], // partition 0 writes 2 slots into 1
        ];
        for tables in cases {
            std::fs::write(&path, summed(2, 2, tables)).unwrap();
            assert!(
                matches!(
                    read_partitioned::<Tuple8>(&path),
                    Err(IoError::BadLayout(_))
                ),
                "{tables:?}"
            );
        }
        // The same framing with a consistent layout reads back.
        std::fs::write(&path, summed(2, 2, &[1, 1, 1, 0, 0, 1, 2])).unwrap();
        let back = read_partitioned::<Tuple8>(&path).unwrap();
        assert_eq!(back.histogram(), &[1, 0]);
        std::fs::remove_file(&path).ok();
    }

    /// Minimal in-test partitioner (fpart-io must not depend on
    /// fpart-cpu, which would create a cycle if fpart-cpu ever persists).
    mod fpart_cpu_shim {
        use fpart_types::{PartitionedRelation, Relation, Tuple8};

        pub fn partition(rel: &Relation<Tuple8>) -> PartitionedRelation<Tuple8> {
            let parts = 32usize;
            let mut hist = vec![0usize; parts];
            for t in rel.tuples() {
                hist[(t.key % parts as u32) as usize] += 1;
            }
            let mut out = PartitionedRelation::<Tuple8>::with_histogram(&hist, false);
            let mut cursors: Vec<usize> = (0..parts).map(|p| out.partition_base(p)).collect();
            for &t in rel.tuples() {
                let p = (t.key % parts as u32) as usize;
                out.raw_data_mut()[cursors[p]] = t;
                cursors[p] += 1;
            }
            for (p, &h) in hist.iter().enumerate() {
                out.set_partition_fill(p, h, h);
            }
            out
        }
    }
}
