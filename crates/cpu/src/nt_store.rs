//! Non-temporal (streaming) stores.
//!
//! Wassenberg & Sanders' improvement to write-combining partitioning
//! (Section 3.1): flush the software buffers "directly to their
//! destinations in the memory, bypassing the caches. That way the
//! corresponding cache-lines do not need to be fetched and the pollution
//! of caches is avoided."
//!
//! On x86-64 we use `_mm_stream_si64` (SSE2, baseline for the
//! architecture); elsewhere the copy degrades to a normal `memcpy`, which
//! keeps the algorithm portable (the throughput difference is the one
//! between the `swwcb` and `swwcb+nt` strategies).

use fpart_types::Tuple;

/// Whether real streaming stores are available on this build target.
pub const NT_STORES_AVAILABLE: bool = cfg!(target_arch = "x86_64");

/// Copy `src` to `dst` with non-temporal stores when available.
///
/// # Safety
/// `dst` must be valid for `src.len()` writes, 8-byte aligned, and the
/// destination must not overlap `src`. The tuple width must be a multiple
/// of 8 bytes (all fpart tuples are).
#[inline]
pub unsafe fn nt_copy<T: Tuple>(dst: *mut T, src: &[T]) {
    #[cfg(target_arch = "x86_64")]
    {
        debug_assert_eq!(T::WIDTH % 8, 0);
        debug_assert_eq!(dst as usize % 8, 0, "destination must be 8-byte aligned");
        let words = src.len() * (T::WIDTH / 8);
        let src_w = src.as_ptr().cast::<i64>();
        let dst_w = dst.cast::<i64>();
        // SAFETY: caller guarantees validity/alignment; we reinterpret the
        // POD tuples as i64 words.
        unsafe {
            for i in 0..words {
                core::arch::x86_64::_mm_stream_si64(dst_w.add(i), src_w.add(i).read());
            }
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        // SAFETY: caller guarantees validity and non-overlap.
        unsafe { std::ptr::copy_nonoverlapping(src.as_ptr(), dst, src.len()) };
    }
}

/// Order all outstanding streaming stores before subsequent loads. Call
/// once after a partitioning pass that used [`nt_copy`].
#[inline]
pub fn store_fence() {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `_mm_sfence` has no preconditions.
    unsafe {
        core::arch::x86_64::_mm_sfence()
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpart_types::{AlignedBuf, Tuple16, Tuple8};

    #[test]
    fn nt_copy_matches_plain_copy() {
        let src: Vec<Tuple8> = (0..64).map(|i| Tuple8::new(i, i as u64)).collect();
        let mut dst = AlignedBuf::<Tuple8>::zeroed(64);
        // SAFETY: dst sized and aligned, disjoint from src.
        unsafe { nt_copy(dst.as_mut_slice().as_mut_ptr(), &src) };
        store_fence();
        assert_eq!(dst.as_slice(), &src[..]);
    }

    #[test]
    fn nt_copy_partial_and_offset() {
        let src: Vec<Tuple16> = (0..8).map(|i| Tuple16::new(i, i)).collect();
        let mut dst = AlignedBuf::<Tuple16>::zeroed(16);
        // SAFETY: offset 4 is within bounds; 16 B tuples stay 8-aligned.
        unsafe { nt_copy(dst.as_mut_slice().as_mut_ptr().add(4), &src[..3]) };
        store_fence();
        assert_eq!(dst[4], Tuple16::new(0, 0));
        assert_eq!(dst[6], Tuple16::new(2, 2));
        assert_eq!(dst[7], Tuple16::new(0, 0), "untouched");
    }
}
