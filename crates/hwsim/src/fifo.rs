//! Bounded FIFOs.
//!
//! In the simulated circuit a FIFO's free-slot count is the backpressure
//! signal: upstream producers only act when `free_slots() > 0`, exactly
//! like an RTL `full`/`almost_full` flag. The simulator evaluates modules
//! from the drain end toward the source each cycle, so a same-cycle
//! pop-then-push through a full FIFO behaves like hardware first-word
//! fall-through.

use std::collections::VecDeque;

/// A bounded first-in first-out buffer.
///
/// # Examples
///
/// ```
/// use fpart_hwsim::Fifo;
///
/// let mut fifo = Fifo::new(2);
/// fifo.push(1u8).unwrap();
/// fifo.push(2).unwrap();
/// assert!(fifo.push(3).is_err(), "full: backpressure");
/// assert_eq!(fifo.pop(), Some(1));
/// assert_eq!(fifo.free_slots(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Fifo<T> {
    items: VecDeque<T>,
    capacity: usize,
}

impl<T> Fifo<T> {
    /// Create a FIFO holding at most `capacity` items.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "zero-capacity FIFO cannot make progress");
        Self {
            items: VecDeque::with_capacity(capacity),
            capacity,
        }
    }

    /// Configured capacity.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items currently buffered.
    #[inline]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the FIFO holds no items.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Whether the FIFO cannot accept another item.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.items.len() >= self.capacity
    }

    /// Free slots — the backpressure signal.
    #[inline]
    pub fn free_slots(&self) -> usize {
        self.capacity - self.items.len()
    }

    /// Push an item; returns it back if the FIFO is full (an RTL design
    /// would have dropped it — returning forces the caller to model the
    /// stall instead).
    #[inline]
    pub fn push(&mut self, item: T) -> Result<(), T> {
        if self.is_full() {
            return Err(item);
        }
        self.items.push_back(item);
        Ok(())
    }

    /// Pop the oldest item.
    #[inline]
    pub fn pop(&mut self) -> Option<T> {
        self.items.pop_front()
    }

    /// Peek at the oldest item without consuming it.
    #[inline]
    pub fn peek(&self) -> Option<&T> {
        self.items.front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_ordering() {
        let mut f = Fifo::new(4);
        for i in 0..4 {
            f.push(i).unwrap();
        }
        assert!(f.is_full());
        assert_eq!(f.pop(), Some(0));
        assert_eq!(f.peek(), Some(&1));
        assert_eq!(f.pop(), Some(1));
        assert_eq!(f.free_slots(), 2);
    }

    #[test]
    fn full_fifo_rejects_and_returns_item() {
        let mut f = Fifo::new(1);
        f.push("a").unwrap();
        assert_eq!(f.push("b"), Err("b"));
        assert_eq!(f.pop(), Some("a"));
        f.push("b").unwrap();
    }

    #[test]
    #[should_panic(expected = "zero-capacity")]
    fn zero_capacity_rejected() {
        let _ = Fifo::<u8>::new(0);
    }
}
