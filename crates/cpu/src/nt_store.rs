//! Non-temporal (streaming) stores.
//!
//! Wassenberg & Sanders' improvement to write-combining partitioning
//! (Section 3.1): flush the software buffers "directly to their
//! destinations in the memory, bypassing the caches. That way the
//! corresponding cache-lines do not need to be fetched and the pollution
//! of caches is avoided."
//!
//! On x86-64 we use `_mm_stream_si64` for arbitrary runs and
//! `_mm_stream_si128` for whole aligned lines (both SSE2, baseline for the
//! architecture); elsewhere the copy degrades to a normal `memcpy`, which
//! keeps the algorithm portable.

use fpart_types::{Tuple, CACHE_LINE_BYTES};

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

/// Copy whole 64 B lines from `src` to `dst` with 16 B non-temporal
/// stores when available: the SWWCB's full-window flush.
///
/// # Safety
/// `dst` must be valid for `src.len()` writes and must not overlap `src`;
/// `dst` and `src` must both be 64-byte aligned, and `src` must span a
/// whole number of 64 B lines.
#[inline]
pub unsafe fn nt_copy_lines<T: Tuple>(dst: *mut T, src: &[T]) {
    let bytes = std::mem::size_of_val(src);
    debug_assert_eq!(bytes % CACHE_LINE_BYTES, 0, "whole lines only");
    debug_assert_eq!(dst as usize % CACHE_LINE_BYTES, 0, "unaligned destination");
    debug_assert_eq!(
        src.as_ptr() as usize % CACHE_LINE_BYTES,
        0,
        "unaligned source"
    );
    #[cfg(target_arch = "x86_64")]
    {
        use core::arch::x86_64::{__m128i, _mm_load_si128, _mm_stream_si128};
        let src_v = src.as_ptr().cast::<__m128i>();
        let dst_v = dst.cast::<__m128i>();
        // SAFETY: caller guarantees validity, non-overlap and 64 B (hence
        // 16 B) alignment of both sides; the POD tuples are read and
        // written as 16 B vectors.
        unsafe {
            for i in 0..bytes / 16 {
                _mm_stream_si128(dst_v.add(i), _mm_load_si128(src_v.add(i)));
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
/// once after a partitioning pass that used [`nt_copy`] or
/// [`nt_copy_lines`].
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
    use fpart_types::{AlignedBuf, Key, Tuple16, Tuple32, Tuple64, Tuple8};

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

    /// One and two whole lines land exactly where a plain copy puts them,
    /// between lines the copy must not touch.
    fn check_lines<T: Tuple>() {
        for lines in [1, 2] {
            let n = lines * T::LANES;
            let src: Vec<T> = (0..n as u64)
                .map(|i| T::new(T::K::from_u64(i + 1), i))
                .collect();
            let src = AlignedBuf::from_slice(&src);
            let mut dst = AlignedBuf::filled(n + 2 * T::LANES, T::dummy());
            let mut expect = dst.as_slice().to_vec();
            expect[T::LANES..T::LANES + n].copy_from_slice(&src);
            // SAFETY: slot LANES is the second 64 B line of a 64 B-aligned
            // buffer with room for `n` more slots; `src` is aligned and
            // spans whole lines.
            unsafe { nt_copy_lines(dst.as_mut_slice().as_mut_ptr().add(T::LANES), &src) };
            store_fence();
            assert_eq!(dst.as_slice(), &expect[..], "{}B x {lines} lines", T::WIDTH);
        }
    }

    #[test]
    fn nt_copy_lines_matches_plain_copy_for_every_width() {
        check_lines::<Tuple8>();
        check_lines::<Tuple16>();
        check_lines::<Tuple32>();
        check_lines::<Tuple64>();
    }
}
