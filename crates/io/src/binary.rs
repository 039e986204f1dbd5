//! The `FPRT` native relation format.
//!
//! ```text
//! offset  size  field
//! 0       4     magic "FPRT"
//! 4       2     version (currently 2), little-endian
//! 6       2     tuple width w in bytes, little-endian
//! 8       8     tuple count n, little-endian
//! 16      n·w   raw tuple bytes (native layout of the #[repr(C)] tuples)
//! 16+n·w  8     checksum of bytes 0..16+n·w, little-endian
//! ```
//!
//! The checksum is the word-wise four-lane FNV-style sum defined in the
//! crate's framing module: every byte before it, read as little-endian
//! `u64` words (tuple widths are multiples of 8 bytes). The file is
//! exactly `24 + n·w` bytes long; a reader checks that against the
//! file's length, with overflow-checked arithmetic, before it allocates,
//! and reports [`IoError::LengthMismatch`] otherwise. Version 1 files
//! (byte-wise FNV-1a over the payload only) are rejected with
//! [`IoError::BadVersion`].
//!
//! Tuple bytes are written in the host's native representation (the
//! tuples are `#[repr(C)]` plain-old-data); the format is a scratch/
//! interchange format for a single machine, like most database spill
//! files, not a portable archive — CSV covers that case.

use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::path::Path;

use fpart_types::{Relation, Tuple};

use crate::frame::{self, Checksum, CHECKSUM_BYTES, PREAMBLE_BYTES};
use crate::IoError;

const MAGIC: &[u8; 4] = b"FPRT";
const VERSION: u16 = 2;
/// Preamble plus the tuple count.
const HEADER_BYTES: usize = PREAMBLE_BYTES + 8;

fn header<T: Tuple>(count: u64) -> [u8; HEADER_BYTES] {
    let mut h = [0u8; HEADER_BYTES];
    h[..PREAMBLE_BYTES].copy_from_slice(&frame::preamble::<T>(MAGIC, VERSION));
    h[PREAMBLE_BYTES..].copy_from_slice(&count.to_le_bytes());
    h
}

/// Write a relation to `path` in the `FPRT` format.
pub fn write_relation<T: Tuple>(rel: &Relation<T>, path: impl AsRef<Path>) -> Result<(), IoError> {
    let header = header::<T>(rel.len() as u64);
    let payload = frame::as_bytes(rel.tuples());
    let mut sum = Checksum::new();
    sum.update(&header);
    sum.update(payload);

    let mut out = BufWriter::new(File::create(path)?);
    out.write_all(&header)?;
    out.write_all(payload)?;
    out.write_all(&sum.finish().to_le_bytes())?;
    out.flush()?;
    Ok(())
}

/// Read a relation of tuple type `T` from an `FPRT` file.
///
/// The tuples are read straight into the returned relation's buffer; the
/// only allocation is that buffer, and it happens after the header has
/// been checked against the file's length.
pub fn read_relation<T: Tuple>(path: impl AsRef<Path>) -> Result<Relation<T>, IoError> {
    let mut file = File::open(path)?;
    let file_len = file.metadata()?.len();

    let mut header = [0u8; HEADER_BYTES];
    file.read_exact(&mut header)?;
    frame::check_preamble::<T>(&header, MAGIC, VERSION)?;
    let count = frame::u64_at(&header, PREAMBLE_BYTES);
    let implied = count
        .checked_mul(T::WIDTH as u64)
        .and_then(|b| b.checked_add(HEADER_BYTES as u64 + CHECKSUM_BYTES));
    frame::check_len(implied, file_len)?;
    let count = frame::to_usize(count, file_len)?;

    let mut sum = Checksum::new();
    sum.update(&header);
    let mut rel = Relation::<T>::zeroed(count);
    frame::read_summed(&mut file, frame::as_bytes_mut(rel.tuples_mut()), &mut sum)?;
    frame::check_trailer(&mut file, &sum)?;
    Ok(rel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpart_datagen::KeyDistribution;
    use fpart_types::{Tuple16, Tuple64, Tuple8};

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("fpart_io_test_{}_{name}", std::process::id()));
        p
    }

    #[test]
    fn round_trips_all_widths() {
        let path = tmp("roundtrip");
        let keys32: Vec<u32> = KeyDistribution::Random.generate_keys(5000, 1);
        let r8 = Relation::<Tuple8>::from_keys(&keys32);
        write_relation(&r8, &path).unwrap();
        let back = read_relation::<Tuple8>(&path).unwrap();
        assert_eq!(back.tuples(), r8.tuples());

        let keys64: Vec<u64> = KeyDistribution::Grid.generate_keys(3000, 2);
        let r16 = Relation::<Tuple16>::from_keys(&keys64);
        write_relation(&r16, &path).unwrap();
        assert_eq!(
            read_relation::<Tuple16>(&path).unwrap().tuples(),
            r16.tuples()
        );

        let r64 = Relation::<Tuple64>::from_keys(&keys64);
        write_relation(&r64, &path).unwrap();
        assert_eq!(
            read_relation::<Tuple64>(&path).unwrap().tuples(),
            r64.tuples()
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_relation_round_trips() {
        let path = tmp("empty");
        let rel = Relation::<Tuple8>::from_tuples(&[]);
        write_relation(&rel, &path).unwrap();
        assert_eq!(read_relation::<Tuple8>(&path).unwrap().len(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn width_mismatch_is_detected() {
        let path = tmp("width");
        let rel = Relation::<Tuple8>::from_keys(&[1, 2, 3]);
        write_relation(&rel, &path).unwrap();
        match read_relation::<Tuple16>(&path) {
            Err(IoError::WidthMismatch {
                file: 8,
                requested: 16,
            }) => {}
            other => panic!("expected width mismatch, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corruption_is_detected() {
        let path = tmp("corrupt");
        let rel = Relation::<Tuple16>::from_keys(&(0..13u64).map(|k| k * 7).collect::<Vec<_>>());
        write_relation(&rel, &path).unwrap();
        let clean = std::fs::read(&path).unwrap();
        assert_eq!(clean.len(), 24 + 13 * 16);
        // Flip each byte in turn: a header byte fails its own check, any
        // payload or checksum byte fails the checksum.
        for i in 0..clean.len() {
            let mut bytes = clean.clone();
            bytes[i] ^= 0x01;
            std::fs::write(&path, &bytes).unwrap();
            let got = read_relation::<Tuple16>(&path);
            if i >= HEADER_BYTES {
                assert!(matches!(got, Err(IoError::ChecksumMismatch)), "byte {i}");
            } else {
                assert!(got.is_err(), "flipping header byte {i} went unnoticed");
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn hostile_count_is_a_typed_error() {
        let path = tmp("hostile");
        // A 32-byte file whose header claims 2^40 tuples.
        let mut bytes = header::<Tuple8>(1 << 40).to_vec();
        bytes.extend_from_slice(&[0u8; 16]);
        std::fs::write(&path, &bytes).unwrap();
        match read_relation::<Tuple8>(&path) {
            Err(IoError::LengthMismatch { header, file: 32 }) => {
                assert_eq!(header, (1u64 << 40) * 8 + 24);
            }
            other => panic!("expected a length mismatch, got {other:?}"),
        }
        // A count whose byte length overflows u64.
        let mut bytes = header::<Tuple64>(u64::MAX / 2).to_vec();
        bytes.extend_from_slice(&[0u8; 16]);
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_relation::<Tuple64>(&path),
            Err(IoError::LengthMismatch {
                header: u64::MAX,
                file: 32
            })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_file_is_a_length_mismatch() {
        let path = tmp("truncated");
        let rel = Relation::<Tuple8>::from_keys(&(0..100u32).collect::<Vec<_>>());
        write_relation(&rel, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        for keep in [bytes.len() - 1, bytes.len() - 8, 16] {
            std::fs::write(&path, &bytes[..keep]).unwrap();
            assert!(
                matches!(
                    read_relation::<Tuple8>(&path),
                    Err(IoError::LengthMismatch { file, .. }) if file == keep as u64
                ),
                "kept {keep} bytes"
            );
        }
        // Cut inside the header: the header itself cannot be read.
        std::fs::write(&path, &bytes[..10]).unwrap();
        assert!(matches!(
            read_relation::<Tuple8>(&path),
            Err(IoError::Io(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn version_1_file_is_rejected() {
        let path = tmp("v1");
        let rel = Relation::<Tuple8>::from_keys(&[1, 2, 3]);
        write_relation(&rel, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[4..6].copy_from_slice(&1u16.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_relation::<Tuple8>(&path),
            Err(IoError::BadVersion(1))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn non_fprt_file_is_rejected() {
        let path = tmp("magic");
        std::fs::write(&path, b"definitely not a relation").unwrap();
        assert!(matches!(
            read_relation::<Tuple8>(&path),
            Err(IoError::BadMagic)
        ));
        std::fs::remove_file(&path).ok();
    }
}
