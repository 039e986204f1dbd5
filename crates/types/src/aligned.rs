//! Cache-line-aligned heap buffers.
//!
//! All bulk tuple storage in the workspace goes through [`AlignedBuf`] so
//! that (a) cache-line slicing never straddles allocations, and (b) the CPU
//! partitioner's write-combining buffers can use aligned (and, where
//! available, non-temporal) stores exactly like the paper's software
//! baseline (Section 3.1).

use std::alloc::{self, Layout};
use std::marker::PhantomData;
use std::mem::MaybeUninit;
use std::ops::{Deref, DerefMut};
use std::ptr::NonNull;

use crate::line::CACHE_LINE_BYTES;

/// A fixed-length, 64-byte-aligned, heap-allocated buffer of `T`.
///
/// Semantically a `Box<[T]>` whose base address is cache-line aligned.
/// [`AlignedBuf::zeroed`] needs `T` to tolerate the all-zeroes bit
/// pattern (all fpart tuple types do, being plain-old-data);
/// [`AlignedBuf::filled`] writes a given value. Only the crate-internal
/// `uninit` leaves the elements unwritten, for an owner that writes every
/// one through the base pointer before reading any.
pub struct AlignedBuf<T: Copy> {
    ptr: NonNull<T>,
    len: usize,
    _marker: PhantomData<T>,
}

// SAFETY: AlignedBuf owns its allocation exclusively, like Box<[T]>.
unsafe impl<T: Copy + Send> Send for AlignedBuf<T> {}
unsafe impl<T: Copy + Sync> Sync for AlignedBuf<T> {}

impl<T: Copy> AlignedBuf<T> {
    /// Allocate a zeroed buffer of `len` elements aligned to 64 bytes.
    ///
    /// # Panics
    /// Panics on zero-size types, on allocation failure, or if the byte
    /// length overflows `isize`.
    pub fn zeroed(len: usize) -> Self {
        Self {
            ptr: Self::allocate(len, true),
            len,
            _marker: PhantomData,
        }
    }

    /// Allocate a buffer of `len` elements, every element set to `fill`.
    /// Each slot is written once: the memory is not zeroed first.
    ///
    /// # Panics
    /// As [`AlignedBuf::zeroed`].
    pub fn filled(len: usize, fill: T) -> Self {
        let ptr = Self::allocate(len, false);
        // SAFETY: `ptr` is valid for `len` elements (or dangling with
        // len 0); `MaybeUninit` makes viewing the uninitialised memory
        // sound, and every slot is initialised before `Self` exists.
        let slots = unsafe { std::slice::from_raw_parts_mut(ptr.as_ptr().cast(), len) };
        slots.fill(MaybeUninit::new(fill));
        Self {
            ptr,
            len,
            _marker: PhantomData,
        }
    }

    /// Allocate a buffer of `len` elements and leave them uninitialised.
    ///
    /// # Safety
    /// No element may be read, and no slice of the buffer formed (no
    /// `Deref`, `as_slice`, `as_mut_slice`, `clone` or `==`), until every
    /// element has been written through [`AlignedBuf::as_mut_ptr`].
    /// Dropping the buffer reads nothing and is always sound.
    pub(crate) unsafe fn uninit(len: usize) -> Self {
        Self {
            ptr: Self::allocate(len, false),
            len,
            _marker: PhantomData,
        }
    }

    /// Copy a slice into a fresh aligned buffer.
    pub fn from_slice(src: &[T]) -> Self {
        let mut buf = Self::zeroed(src.len());
        buf.as_mut_slice().copy_from_slice(src);
        buf
    }

    /// The allocation layout of `len` elements.
    fn layout(len: usize) -> Layout {
        let align = CACHE_LINE_BYTES.max(std::mem::align_of::<T>());
        Layout::array::<T>(len)
            .and_then(|l| l.align_to(align))
            .expect("allocation size overflow")
    }

    /// Allocate room for `len` elements, zeroed or uninitialised; dangling
    /// when `len` is 0.
    fn allocate(len: usize, zeroed: bool) -> NonNull<T> {
        assert!(std::mem::size_of::<T>() > 0, "zero-size types unsupported");
        if len == 0 {
            return NonNull::dangling();
        }
        let layout = Self::layout(len);
        // SAFETY: layout has non-zero size (len > 0, size_of::<T> > 0).
        let raw = unsafe {
            if zeroed {
                alloc::alloc_zeroed(layout)
            } else {
                alloc::alloc(layout)
            }
        };
        match NonNull::new(raw.cast::<T>()) {
            Some(ptr) => ptr,
            None => alloc::handle_alloc_error(layout),
        }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Immutable view of the whole buffer.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        // SAFETY: ptr is valid for len elements (or dangling with len 0).
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }

    /// Mutable view of the whole buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        // SAFETY: ptr is valid for len elements and we hold &mut self.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }

    /// Base pointer (64-byte aligned when non-empty).
    #[inline]
    pub fn as_ptr(&self) -> *const T {
        self.ptr.as_ptr()
    }

    /// Mutable base pointer, valid for writes of `len` elements; unlike
    /// [`AlignedBuf::as_mut_slice`] it forms no reference to the elements,
    /// so it may be taken while they are uninitialised.
    #[inline]
    pub(crate) fn as_mut_ptr(&mut self) -> *mut T {
        self.ptr.as_ptr()
    }
}

impl<T: Copy> Drop for AlignedBuf<T> {
    fn drop(&mut self) {
        if self.len == 0 {
            return;
        }
        // SAFETY: allocated in `allocate` with the identical layout.
        unsafe { alloc::dealloc(self.ptr.as_ptr().cast(), Self::layout(self.len)) };
    }
}

impl<T: Copy> Deref for AlignedBuf<T> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Copy> DerefMut for AlignedBuf<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        self.as_mut_slice()
    }
}

impl<T: Copy + std::fmt::Debug> std::fmt::Debug for AlignedBuf<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AlignedBuf")
            .field("len", &self.len)
            .finish_non_exhaustive()
    }
}

impl<T: Copy + PartialEq> PartialEq for AlignedBuf<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy> Clone for AlignedBuf<T> {
    fn clone(&self) -> Self {
        Self::from_slice(self.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::{Tuple, Tuple8};

    #[test]
    fn base_is_cache_line_aligned() {
        for len in [1usize, 7, 64, 1000] {
            let buf = AlignedBuf::<Tuple8>::zeroed(len);
            assert_eq!(buf.as_ptr() as usize % CACHE_LINE_BYTES, 0);
            assert_eq!(buf.len(), len);
        }
    }

    #[test]
    fn zeroed_is_zero() {
        let buf = AlignedBuf::<u64>::zeroed(100);
        assert!(buf.iter().all(|&x| x == 0));
    }

    #[test]
    fn empty_buffer_is_usable() {
        let buf = AlignedBuf::<Tuple8>::zeroed(0);
        assert!(buf.is_empty());
        assert_eq!(buf.as_slice(), &[]);
    }

    #[test]
    fn filled_and_from_slice() {
        let buf = AlignedBuf::filled(5, Tuple8::new(3, 4));
        assert!(buf.iter().all(|t| t.key == 3 && t.payload == 4));

        let src: Vec<Tuple8> = (0..10).map(|i| Tuple8::new(i, i as u64)).collect();
        let buf = AlignedBuf::from_slice(&src);
        assert_eq!(buf.as_slice(), &src[..]);
        let cloned = buf.clone();
        assert_eq!(cloned, buf);
    }

    #[test]
    fn mutation_through_deref() {
        let mut buf = AlignedBuf::<u32>::zeroed(4);
        buf[2] = 9;
        assert_eq!(buf.as_slice(), &[0, 0, 9, 0]);
    }
}
