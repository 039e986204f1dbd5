//! A bounded buffer of pipeline stage events that keeps a run's first
//! events and drops the oldest of the rest.

use std::collections::VecDeque;

/// One recorded stage event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulation cycle the event fired on.
    pub cycle: u64,
    /// Pipeline stage name (e.g. `"scatter"`).
    pub stage: String,
    /// Event name within the stage (e.g. `"flush_start"`).
    pub event: String,
    /// Free-form payload (counts, cursors, …).
    pub value: u64,
}

/// Fixed-capacity event buffer: the first half of the capacity keeps the
/// run's first events, and beyond capacity each push evicts (and counts)
/// the oldest event after them. A long run keeps both its warm-up and its
/// flush. An eviction shifts at most half the buffer; the simulators
/// push an event every few thousand cycles.
#[derive(Debug, Clone)]
pub struct TraceRing {
    cap: usize,
    buf: VecDeque<TraceEvent>,
    dropped: u64,
}

impl TraceRing {
    /// New buffer holding at most `cap` events (`cap` ≥ 1).
    pub fn new(cap: usize) -> Self {
        TraceRing {
            cap: cap.max(1),
            buf: VecDeque::with_capacity(cap.clamp(1, 64)),
            dropped: 0,
        }
    }

    /// Append an event, evicting the oldest one past the first half when
    /// full.
    pub fn push(&mut self, cycle: u64, stage: &str, event: &str, value: u64) {
        if self.buf.len() == self.cap {
            self.buf.remove(self.cap / 2);
            self.dropped += 1;
        }
        self.buf.push_back(TraceEvent {
            cycle,
            stage: stage.to_string(),
            event: event.to_string(),
            value,
        });
    }

    /// Retained events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.buf.iter().cloned().collect()
    }

    /// Number of events evicted to make room.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drops_oldest_beyond_capacity() {
        // Capacity 3 keeps the first event and the last two; capacity 1
        // keeps only the last.
        for (cap, kept, dropped) in [(3, vec![0, 3, 4], 2), (1, vec![4], 4)] {
            let mut r = TraceRing::new(cap);
            for i in 0..5u64 {
                r.push(i, "s", "e", i);
            }
            let cycles: Vec<u64> = r.events().iter().map(|e| e.cycle).collect();
            assert_eq!(cycles, kept, "cap {cap}");
            assert_eq!(r.dropped(), dropped, "cap {cap}");
        }
    }
}
