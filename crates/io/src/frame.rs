//! Framing shared by the `FPRT` and `FPRP` formats: the preamble (magic,
//! version, tuple width), the length rule, byte views of tuple arrays and
//! the trailing checksum.
//!
//! **Checksum.** Both formats end in an 8-byte checksum of every byte
//! before it. Those bytes are always a whole number of little-endian
//! `u64` words `w_0, w_1, …`. Word `w_i` feeds lane `i mod 4`:
//!
//! ```text
//! lane_j ← 0xcbf29ce484222325 + j                (j = 0..4)
//! lane_j ← (lane_j ⊕ w_i) · 0x100000001b3 mod 2^64
//! sum    ← 0xcbf29ce484222325
//! sum    ← (sum ⊕ lane_j) · 0x100000001b3 mod 2^64   (j = 0..4, then the word count)
//! ```
//!
//! Each step `h ↦ (h ⊕ w) · P` with odd `P` is a bijection of `h` and,
//! for fixed `h`, an injection of `w`, so changing any single word always
//! changes the checksum. The four lanes are independent multiply chains,
//! which keeps the check near memory speed instead of one serial chain
//! per byte.
//!
//! **Length rule.** The header fixes the exact file length. A reader
//! computes it with checked arithmetic and compares it with the file's
//! length before it allocates anything, so no header can make it allocate
//! more than the file holds.

use std::fs::File;
use std::io::Read;

use fpart_types::Tuple;

use crate::IoError;

/// Magic, version and tuple width.
pub(crate) const PREAMBLE_BYTES: usize = 8;
/// The trailing checksum.
pub(crate) const CHECKSUM_BYTES: u64 = 8;

const LANES: usize = 4;
const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;
/// Payload bytes read and checksummed per `read` call: small enough that
/// the checksum finds them still in cache.
const READ_CHUNK: usize = 256 << 10;

/// The streaming form of the checksum defined in the module docs.
pub(crate) struct Checksum {
    lanes: [u64; LANES],
    words: u64,
}

impl Checksum {
    pub(crate) fn new() -> Self {
        Self {
            lanes: std::array::from_fn(|j| OFFSET.wrapping_add(j as u64)),
            words: 0,
        }
    }

    /// Feed whole little-endian words; the lane a word lands in depends
    /// only on its position in the stream, not on how it is split.
    ///
    /// # Panics
    /// Panics if `bytes` is not a whole number of words.
    pub(crate) fn update(&mut self, bytes: &[u8]) {
        assert!(
            bytes.len().is_multiple_of(8),
            "checksummed bytes are u64 words"
        );
        let lead = ((LANES - self.words as usize % LANES) % LANES).min(bytes.len() / 8);
        let (head, rest) = bytes.split_at(lead * 8);
        for w in head.chunks_exact(8) {
            self.step(word(w));
        }
        let mut blocks = rest.chunks_exact(8 * LANES);
        for block in &mut blocks {
            for (lane, w) in self.lanes.iter_mut().zip(block.chunks_exact(8)) {
                *lane = (*lane ^ word(w)).wrapping_mul(PRIME);
            }
        }
        self.words += (rest.len() / (8 * LANES) * LANES) as u64;
        for w in blocks.remainder().chunks_exact(8) {
            self.step(word(w));
        }
    }

    fn step(&mut self, w: u64) {
        let lane = &mut self.lanes[self.words as usize % LANES];
        *lane = (*lane ^ w).wrapping_mul(PRIME);
        self.words += 1;
    }

    pub(crate) fn finish(&self) -> u64 {
        self.lanes
            .iter()
            .chain(std::iter::once(&self.words))
            .fold(OFFSET, |h, &x| (h ^ x).wrapping_mul(PRIME))
    }
}

#[inline]
fn word(b: &[u8]) -> u64 {
    u64::from_le_bytes(b.try_into().expect("8-byte word"))
}

/// The preamble a writer emits for tuple type `T`.
pub(crate) fn preamble<T: Tuple>(magic: &[u8; 4], version: u16) -> [u8; PREAMBLE_BYTES] {
    let mut p = [0u8; PREAMBLE_BYTES];
    p[..4].copy_from_slice(magic);
    p[4..6].copy_from_slice(&version.to_le_bytes());
    p[6..].copy_from_slice(&(T::WIDTH as u16).to_le_bytes());
    p
}

/// Check a preamble read from a file against what the reader expects.
pub(crate) fn check_preamble<T: Tuple>(
    p: &[u8],
    magic: &[u8; 4],
    version: u16,
) -> Result<(), IoError> {
    if &p[..4] != magic {
        return Err(IoError::BadMagic);
    }
    let v = u16::from_le_bytes([p[4], p[5]]);
    if v != version {
        return Err(IoError::BadVersion(v));
    }
    let width = u16::from_le_bytes([p[6], p[7]]);
    if width as usize != T::WIDTH {
        return Err(IoError::WidthMismatch {
            file: width,
            requested: T::WIDTH as u16,
        });
    }
    Ok(())
}

/// The length rule: `header` is the file length the header implies
/// (`None` if computing it overflowed).
pub(crate) fn check_len(header: Option<u64>, file: u64) -> Result<(), IoError> {
    match header {
        Some(h) if h == file => Ok(()),
        _ => Err(IoError::LengthMismatch {
            header: header.unwrap_or(u64::MAX),
            file,
        }),
    }
}

/// A count from a header that passed [`check_len`], as a `usize` (it can
/// only fail on targets whose address space is smaller than the file).
pub(crate) fn to_usize(count: u64, file: u64) -> Result<usize, IoError> {
    usize::try_from(count).map_err(|_| IoError::LengthMismatch {
        header: u64::MAX,
        file,
    })
}

/// Little-endian `u64` field at byte offset `at`.
pub(crate) fn u64_at(bytes: &[u8], at: usize) -> u64 {
    word(&bytes[at..at + 8])
}

/// Fill `dst` from `file` and feed it to `sum`, a cache-sized chunk at a
/// time so the checksum reads each chunk while it is still hot.
pub(crate) fn read_summed(
    file: &mut File,
    dst: &mut [u8],
    sum: &mut Checksum,
) -> Result<(), IoError> {
    for chunk in dst.chunks_mut(READ_CHUNK) {
        file.read_exact(chunk)?;
        sum.update(chunk);
    }
    Ok(())
}

/// Read the trailing checksum and compare it with `sum`.
pub(crate) fn check_trailer(file: &mut File, sum: &Checksum) -> Result<(), IoError> {
    let mut trailer = [0u8; CHECKSUM_BYTES as usize];
    file.read_exact(&mut trailer)?;
    if u64::from_le_bytes(trailer) != sum.finish() {
        return Err(IoError::ChecksumMismatch);
    }
    Ok(())
}

/// View a tuple slice as raw bytes.
pub(crate) fn as_bytes<T: Tuple>(tuples: &[T]) -> &[u8] {
    // SAFETY: fpart tuples are `#[repr(C)]` plain-old-data built from
    // u32/u64 fields with no padding, so every byte is initialised; the
    // slice covers exactly size_of_val(tuples) bytes.
    unsafe {
        std::slice::from_raw_parts(tuples.as_ptr().cast::<u8>(), std::mem::size_of_val(tuples))
    }
}

/// View a tuple slice as raw bytes to fill from a file.
pub(crate) fn as_bytes_mut<T: Tuple>(tuples: &mut [T]) -> &mut [u8] {
    // SAFETY: as for `as_bytes`; in addition every byte pattern is a valid
    // fpart tuple (integer fields only, no niches or invariants).
    unsafe {
        std::slice::from_raw_parts_mut(
            tuples.as_mut_ptr().cast::<u8>(),
            std::mem::size_of_val(tuples),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sum_of(parts: &[&[u8]]) -> u64 {
        let mut s = Checksum::new();
        for p in parts {
            s.update(p);
        }
        s.finish()
    }

    #[test]
    fn split_points_do_not_change_the_sum() {
        let bytes: Vec<u8> = (0..8 * 23).map(|i| (i * 37 % 251) as u8).collect();
        let whole = sum_of(&[&bytes]);
        for cut in (0..=bytes.len()).step_by(8) {
            let (a, b) = bytes.split_at(cut);
            assert_eq!(sum_of(&[a, b]), whole, "cut at {cut}");
        }
        let words: Vec<&[u8]> = bytes.chunks(8).collect();
        assert_eq!(sum_of(&words), whole);
    }

    #[test]
    fn every_single_bit_flip_changes_the_sum() {
        let bytes: Vec<u8> = (0..8 * 9).map(|i| i as u8).collect();
        let clean = sum_of(&[&bytes]);
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut b = bytes.clone();
                b[i] ^= 1 << bit;
                assert_ne!(sum_of(&[&b]), clean, "byte {i} bit {bit}");
            }
        }
    }

    #[test]
    fn length_is_part_of_the_sum() {
        assert_ne!(sum_of(&[&[0u8; 8]]), sum_of(&[&[0u8; 16]]));
        assert_ne!(sum_of(&[]), sum_of(&[&[0u8; 32]]));
    }

    #[test]
    #[should_panic(expected = "u64 words")]
    fn partial_words_are_rejected() {
        Checksum::new().update(&[1, 2, 3]);
    }
}
