//! The 4 MB-page shared-memory scheme of Section 2.1.
//!
//! "At start-up, the software application allocates the necessary amount
//! of memory through the Intel provided API, consisting of 4 MB pages. It
//! then transmits the 32-bit physical addresses of these pages to the
//! FPGA, which uses them to populate its local page-table. … The
//! translation takes 2 clock cycles, but since it is pipelined, the
//! throughput remains one address per clock cycle."
//!
//! [`PageAllocator`] plays the Intel API: it hands out 4 MB pages with
//! 32-bit physical frame numbers (in the simulator, frames index a flat
//! simulated physical space). [`PageTable`] is the FPGA-side BRAM table
//! the accelerator translates through.

use std::collections::VecDeque;

use fpart_types::{FpartError, Result, CACHE_LINE_BYTES};

/// Size of one shared-memory page: 4 MB.
pub const PAGE_BYTES: u64 = 4 << 20;

/// Pipelined translation latency in clock cycles (Section 2.1).
pub const TRANSLATION_LATENCY: u32 = 2;

/// The host-side allocator of 4 MB pinned pages.
///
/// Physical frames are handed out in a scrambled (non-identity) order so
/// that tests catch any code path that confuses virtual and physical
/// addresses.
#[derive(Debug)]
pub struct PageAllocator {
    total_frames: u32,
    next_frame: u32,
}

impl PageAllocator {
    /// An allocator over a physical memory of `memory_bytes`.
    pub fn new(memory_bytes: u64) -> Self {
        Self {
            total_frames: (memory_bytes / PAGE_BYTES) as u32,
            next_frame: 0,
        }
    }

    /// Allocate `n` pages, returning their 32-bit physical frame numbers.
    pub fn allocate(&mut self, n: usize) -> Result<Vec<u32>> {
        let remaining = (self.total_frames - self.next_frame) as usize;
        if n > remaining {
            return Err(FpartError::PageTableFull {
                requested: n,
                capacity: remaining,
            });
        }
        let frames = (0..n as u32)
            .map(|i| {
                let seq = self.next_frame + i;
                // Scramble within the frame space: reverse the frame bits
                // so consecutive virtual pages land on scattered frames.
                scramble(seq, self.total_frames)
            })
            .collect();
        self.next_frame += n as u32;
        Ok(frames)
    }

    /// Frames not yet allocated.
    pub fn free_frames(&self) -> u32 {
        self.total_frames - self.next_frame
    }
}

/// Deterministic non-identity frame assignment: odd-multiplier affine map
/// within the frame space (a bijection mod any power-of-two-free modulus
/// would be unsafe; instead walk an odd stride and wrap).
fn scramble(seq: u32, total: u32) -> u32 {
    if total <= 1 {
        return 0;
    }
    // Odd stride co-prime with any total when total is reached via modular
    // wrap of a full cycle: use stride = largest odd <= total/2 | 1.
    let stride = ((total / 2) | 1) as u64;
    ((seq as u64 * stride) % total as u64) as u32
}

/// The FPGA-local page table: virtual page number → physical frame.
///
/// "We can adjust the size of the page-table so that the entire main
/// memory could be addressed by the FPGA" — capacity is a constructor
/// parameter.
#[derive(Debug)]
pub struct PageTable {
    entries: Vec<Option<u32>>,
    translations: u64,
    /// Scheduled transient lookup faults: (translation index, retries),
    /// sorted ascending. The table BRAM re-reads the entry and the
    /// translation succeeds — transparent to the circuit bar the counters.
    faults: VecDeque<(u64, u32)>,
    retry_events: u64,
    retries_total: u64,
}

impl PageTable {
    /// An empty table with room for `capacity` page entries.
    pub fn new(capacity: usize) -> Self {
        Self {
            entries: vec![None; capacity],
            translations: 0,
            faults: VecDeque::new(),
            retry_events: 0,
            retries_total: 0,
        }
    }

    /// Schedule transient lookup faults as `(translation_index, retries)`
    /// pairs: the `translation_index`-th successful translation re-reads
    /// the table entry `retries` times before succeeding. Non-fatal —
    /// only the retry counters observe it.
    pub fn inject_transients(&mut self, mut faults: Vec<(u64, u32)>) {
        faults.sort_unstable_by_key(|&(idx, _)| idx);
        self.faults = faults.into();
    }

    /// Translations that hit a transient fault and retried.
    pub fn retry_events(&self) -> u64 {
        self.retry_events
    }

    /// Total entry re-reads performed across all retry events.
    pub fn retries_total(&self) -> u64 {
        self.retries_total
    }

    /// Populate the table with frames for virtual pages `0..frames.len()`
    /// (the start-up transmission step).
    pub fn populate(&mut self, frames: &[u32]) -> Result<()> {
        if frames.len() > self.entries.len() {
            return Err(FpartError::PageTableFull {
                requested: frames.len(),
                capacity: self.entries.len(),
            });
        }
        for (vpn, &frame) in frames.iter().enumerate() {
            self.entries[vpn] = Some(frame);
        }
        Ok(())
    }

    /// Translate a virtual byte address to a physical byte address.
    ///
    /// Functionally immediate; the 2-cycle pipelined latency is a constant
    /// the circuit adds once to its fill latency (it never limits
    /// throughput — "the throughput remains one address per clock cycle").
    pub fn translate(&mut self, vaddr: u64) -> Result<u64> {
        let vpn = (vaddr / PAGE_BYTES) as usize;
        let offset = vaddr % PAGE_BYTES;
        let frame = self
            .entries
            .get(vpn)
            .copied()
            .flatten()
            .ok_or(FpartError::PageFault { vaddr })?;
        if let Some(&(idx, retries)) = self.faults.front() {
            if idx == self.translations {
                self.faults.pop_front();
                self.retry_events += 1;
                self.retries_total += retries as u64;
            }
        }
        self.translations += 1;
        Ok(frame as u64 * PAGE_BYTES + offset)
    }

    /// Translate the `count` consecutive 64 B lines starting at line
    /// `first_line`, looking each 4 MB page up once.
    ///
    /// Equivalent to calling [`PageTable::translate`] on every line's
    /// address in order: the same `translations`, `retry_events` and
    /// `retries_total` (scheduled transients included), and, for a range
    /// that reaches an unmapped page, the same [`FpartError::PageFault`]
    /// after the same counts for the lines before it.
    pub fn translate_lines(&mut self, first_line: u64, count: u64) -> Result<()> {
        let line_bytes = CACHE_LINE_BYTES as u64;
        let lines_per_page = PAGE_BYTES / line_bytes;
        let end = first_line + count;
        let mut line = first_line;
        while line < end {
            let vpn = line / lines_per_page;
            let mapped = usize::try_from(vpn)
                .ok()
                .and_then(|vpn| self.entries.get(vpn).copied().flatten())
                .is_some();
            if !mapped {
                return Err(FpartError::PageFault {
                    vaddr: line * line_bytes,
                });
            }
            let page_end = ((vpn + 1) * lines_per_page).min(end);
            self.advance(page_end - line);
            line = page_end;
        }
        Ok(())
    }

    /// Count `n` successful translations, firing the scheduled transients
    /// exactly as `n` calls of [`PageTable::translate`] would: each when
    /// its index is the current translation's, in order. A schedule entry
    /// already behind the count (a stale or duplicate index) is never
    /// reached there, so it blocks every later one here too.
    fn advance(&mut self, n: u64) {
        let end = self.translations + n;
        let mut next = self.translations;
        while let Some(&(idx, retries)) = self.faults.front() {
            if idx < next || idx >= end {
                break;
            }
            self.faults.pop_front();
            self.retry_events += 1;
            self.retries_total += retries as u64;
            next = idx + 1;
        }
        self.translations = end;
    }

    /// Mapped virtual pages.
    pub fn mapped_pages(&self) -> usize {
        self.entries.iter().filter(|e| e.is_some()).count()
    }

    /// Total translations served.
    pub fn translations(&self) -> u64 {
        self.translations
    }

    /// Pages needed to map `bytes` of virtual address space.
    pub fn pages_for(bytes: u64) -> usize {
        bytes.div_ceil(PAGE_BYTES) as usize
    }

    /// Accumulate translation and retry totals into an observability
    /// counter set.
    pub fn record_into(&self, c: &mut fpart_obs::CounterSet) {
        use fpart_obs::Ctr;
        c.add(Ctr::PtTranslations, self.translations);
        c.add(Ctr::PtRetryEvents, self.retry_events);
        c.add(Ctr::PtRetriesTotal, self.retries_total);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_populate_translate_round_trip() {
        let mut alloc = PageAllocator::new(1 << 30); // 1 GB = 256 frames
        let frames = alloc.allocate(4).unwrap();
        assert_eq!(frames.len(), 4);
        let mut pt = PageTable::new(16);
        pt.populate(&frames).unwrap();
        assert_eq!(pt.mapped_pages(), 4);

        // Address in page 2, offset 100.
        let vaddr = 2 * PAGE_BYTES + 100;
        let paddr = pt.translate(vaddr).unwrap();
        assert_eq!(paddr, frames[2] as u64 * PAGE_BYTES + 100);
        assert_eq!(pt.translations(), 1);
    }

    #[test]
    fn frames_are_not_identity_mapped() {
        let mut alloc = PageAllocator::new(1 << 30);
        let frames = alloc.allocate(8).unwrap();
        // At least some frames differ from their sequence position —
        // catches vaddr/paddr confusion in circuit code.
        assert!(frames.iter().enumerate().any(|(i, &f)| f != i as u32));
        // All frames unique.
        let mut sorted = frames.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), frames.len());
    }

    #[test]
    fn unmapped_access_faults() {
        let mut pt = PageTable::new(4);
        pt.populate(&[7]).unwrap();
        assert!(pt.translate(0).is_ok());
        let err = pt.translate(PAGE_BYTES).unwrap_err();
        assert!(matches!(err, FpartError::PageFault { .. }));
    }

    #[test]
    fn allocator_exhaustion() {
        let mut alloc = PageAllocator::new(2 * PAGE_BYTES);
        assert_eq!(alloc.free_frames(), 2);
        alloc.allocate(2).unwrap();
        let err = alloc.allocate(1).unwrap_err();
        assert!(matches!(err, FpartError::PageTableFull { .. }));
    }

    #[test]
    fn table_capacity_enforced() {
        let mut pt = PageTable::new(2);
        let err = pt.populate(&[1, 2, 3]).unwrap_err();
        assert!(matches!(
            err,
            FpartError::PageTableFull {
                requested: 3,
                capacity: 2
            }
        ));
    }

    #[test]
    fn transient_faults_retry_and_succeed() {
        let mut pt = PageTable::new(4);
        pt.populate(&[5, 6]).unwrap();
        // Fault translations 1 and 3 (out of order on purpose).
        pt.inject_transients(vec![(3, 2), (1, 1)]);
        for _ in 0..5 {
            assert!(pt.translate(0).is_ok(), "transients are non-fatal");
        }
        assert_eq!(pt.translations(), 5);
        assert_eq!(pt.retry_events(), 2);
        assert_eq!(pt.retries_total(), 3);
        // A faulted index past the end never fires.
        pt.inject_transients(vec![(100, 4)]);
        assert!(pt.translate(PAGE_BYTES / 2).is_ok());
        assert_eq!(pt.retry_events(), 2);
    }

    #[test]
    fn pages_for_rounds_up() {
        assert_eq!(PageTable::pages_for(1), 1);
        assert_eq!(PageTable::pages_for(PAGE_BYTES), 1);
        assert_eq!(PageTable::pages_for(PAGE_BYTES + 1), 2);
        assert_eq!(PageTable::pages_for(0), 0);
    }
}
