//! The fixed counter universe: a macro-generated enum of counter ids with
//! stable snake_case labels, and a plain `u64` set.

macro_rules! counters {
    ($($variant:ident => $label:literal : $doc:literal),+ $(,)?) => {
        /// Identifier of one pipeline counter.
        ///
        /// The discriminant indexes [`CounterSet`] storage;
        /// [`Ctr::name`] yields the stable snake_case label used
        /// in JSON output and golden files.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[repr(usize)]
        pub enum Ctr {
            $(#[doc = $doc] $variant),+
        }

        impl Ctr {
            /// Every counter, in declaration (and JSON) order.
            pub const ALL: &'static [Ctr] = &[$(Ctr::$variant),+];

            /// Stable snake_case label.
            pub fn name(self) -> &'static str {
                match self {
                    $(Ctr::$variant => $label),+
                }
            }

            /// Inverse of [`Ctr::name`]; `None` for unknown labels.
            pub fn from_name(s: &str) -> Option<Ctr> {
                match s {
                    $($label => Some(Ctr::$variant)),+,
                    _ => None,
                }
            }
        }
    };
}

counters! {
    // --- run shape -----------------------------------------------------
    Lanes => "lanes": "Tuple lanes per cache line (8 for 8-byte tuples).",
    Partitions => "partitions": "Fan-out of the partitioning pass.",
    TuplesIn => "tuples_in": "Tuples entering the pipeline.",
    TuplesOut => "tuples_out": "Valid tuples written to partitions.",
    PaddingSlots => "padding_slots": "Dummy tuple slots emitted by cache-line flushes.",
    InputLines => "input_lines": "Input cache lines fetched by the scatter pass.",
    TupleLines => "tuple_lines": "Expanded tuple cache lines entering the lane pipes.",
    LinesWritten => "lines_written": "Output cache lines written over the link.",
    HistLinesRead => "hist_lines_read": "Input cache lines fetched by the histogram pass.",
    HistCycles => "hist_cycles": "Cycles spent in the histogram pass.",
    ScatterCycles => "scatter_cycles": "Cycles spent in the scatter pass.",
    // --- scatter read port (4-way, sums to scatter_cycles) -------------
    RdBusy => "rd_busy_cycles": "Scatter cycles with a read grant.",
    RdStall => "rd_stall_cycles": "Scatter cycles with a read denied by the endpoint.",
    RdThrottled => "rd_throttled_cycles": "Scatter cycles with reads withheld by FIFO credit.",
    RdIdle => "rd_idle_cycles": "Scatter cycles with no input lines left to request.",
    // --- scatter write port (3-way, sums to scatter_cycles) ------------
    WrBusy => "wr_busy_cycles": "Scatter cycles with a write grant.",
    WrStall => "wr_stall_cycles": "Scatter cycles with a write denied by the endpoint.",
    WrIdle => "wr_idle_cycles": "Scatter cycles with nothing to write.",
    RrIdleCycles => "rr_idle_cycles": "Scatter cycles where the writeback round-robin found no combined line.",
    // --- histogram read port (4-way, sums to hist_cycles) --------------
    HistRdBusy => "hist_rd_busy_cycles": "Histogram cycles with a read grant.",
    HistRdStall => "hist_rd_stall_cycles": "Histogram cycles with a read denied by the endpoint.",
    HistRdThrottled => "hist_rd_throttled_cycles": "Histogram cycles with reads withheld by FIFO credit.",
    HistRdIdle => "hist_rd_idle_cycles": "Histogram cycles with no input lines left to request.",
    // --- write combiner -------------------------------------------------
    CombTuplesIn => "comb_tuples_in": "Tuples accepted by the write combiners.",
    CombLinesOut => "comb_lines_out": "Full cache lines emitted by the combiners.",
    CombFlushLines => "comb_flush_lines": "Partial cache lines emitted by the end-of-run flush.",
    CombFlushDummies => "comb_flush_dummies": "Dummy slots inside flushed lines.",
    Fwd1dHits => "fwd_1d_hits": "1-deep write-combiner forwarding hits.",
    Fwd2dHits => "fwd_2d_hits": "2-deep write-combiner forwarding hits.",
    // --- writeback ------------------------------------------------------
    WbLinesEmitted => "wb_lines_emitted": "Addressed lines emitted by the writeback stage.",
    FillBramReads => "fill_bram_reads": "Fill-rate BRAM read issues (all lanes).",
    FillBramWrites => "fill_bram_writes": "Fill-rate BRAM writes (all lanes).",
    CountBramReads => "count_bram_reads": "Partition-count BRAM read issues.",
    CountBramWrites => "count_bram_writes": "Partition-count BRAM writes.",
    PadOverflowEvents => "pad_overflow_events": "PAD partition-overflow aborts observed.",
    // --- page table -----------------------------------------------------
    PtTranslations => "pt_translations": "Page-table translations performed.",
    PtRetryEvents => "pt_retry_events": "Distinct page-table transient-retry episodes.",
    PtRetriesTotal => "pt_retries_total": "Total page-table retry cycles burned.",
    // --- QPI endpoint ---------------------------------------------------
    QpiLinesRead => "qpi_lines_read": "Cache lines granted on the endpoint read port.",
    QpiLinesWritten => "qpi_lines_written": "Cache lines granted on the endpoint write port.",
    QpiReadStallCycles => "qpi_read_stall_cycles": "Endpoint read denials (credit exhausted).",
    QpiWriteStallCycles => "qpi_write_stall_cycles": "Endpoint write denials (credit exhausted).",
    QpiLinkErrors => "qpi_link_errors": "Injected CRC/link errors detected.",
    QpiLinkReplays => "qpi_link_replays": "Link-level replay transactions.",
    QpiReplayStallCycles => "qpi_replay_stall_cycles": "Cycles stalled inside replay windows.",
    EpCacheHits => "ep_cache_hits": "Endpoint set-associative cache hits on input fetches.",
    EpCacheMisses => "ep_cache_misses": "Endpoint set-associative cache misses on input fetches.",
    // --- BRAM integrity -------------------------------------------------
    BramParityEvents => "bram_parity_events": "BRAM parity errors surfaced as soft aborts.",
    // --- CPU (SWWCB) ----------------------------------------------------
    SwwcbFullFlushes => "swwcb_full_flushes": "Software write-combine buffer full-line flushes.",
    SwwcbPartialFlushes => "swwcb_partial_flushes": "SWWCB partial flushes at drain time.",
    SwwcbNtLines => "swwcb_nt_lines": "Cache lines emitted through non-temporal stores.",
    // --- join / net -----------------------------------------------------
    FallbackAttempts => "fallback_attempts": "Attempts recorded by the degradation chain.",
    FallbackWastedCycles => "fallback_wasted_cycles": "Cycles wasted by aborted attempts.",
    NetBytesShuffled => "net_bytes_shuffled": "Bytes moved by the all-to-all exchange.",
    NetMessages => "net_messages": "Non-empty point-to-point transfers in the exchange.",
}

/// A plain, fixed-size set of counter values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSet {
    vals: Vec<u64>,
}

impl Default for CounterSet {
    fn default() -> Self {
        CounterSet {
            vals: vec![0; Ctr::ALL.len()],
        }
    }
}

impl CounterSet {
    /// Current value of `ctr`.
    #[inline]
    pub fn get(&self, ctr: Ctr) -> u64 {
        self.vals[ctr as usize]
    }

    /// Overwrite `ctr` with `v`.
    #[inline]
    pub fn set(&mut self, ctr: Ctr, v: u64) {
        self.vals[ctr as usize] = v;
    }

    /// Add `v` to `ctr`.
    #[inline]
    pub fn add(&mut self, ctr: Ctr, v: u64) {
        self.vals[ctr as usize] += v;
    }

    /// Increment `ctr` by one.
    #[inline]
    pub fn inc(&mut self, ctr: Ctr) {
        self.add(ctr, 1);
    }

    /// Add every counter of `other` into `self`.
    pub fn merge(&mut self, other: &CounterSet) {
        for (dst, src) in self.vals.iter_mut().zip(&other.vals) {
            *dst += src;
        }
    }

    /// Iterate `(counter, value)` pairs in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = (Ctr, u64)> + '_ {
        Ctr::ALL.iter().map(move |&c| (c, self.get(c)))
    }

    /// Iterate only the non-zero `(counter, value)` pairs.
    pub fn nonzero(&self) -> impl Iterator<Item = (Ctr, u64)> + '_ {
        self.iter().filter(|&(_, v)| v != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_round_trip() {
        let mut seen = std::collections::HashSet::new();
        for &c in Ctr::ALL {
            assert!(seen.insert(c.name()), "duplicate label {}", c.name());
            assert_eq!(Ctr::from_name(c.name()), Some(c));
        }
        assert_eq!(Ctr::from_name("no_such_counter"), None);
    }

    #[test]
    fn set_get_merge() {
        let mut a = CounterSet::default();
        a.set(Ctr::TuplesIn, 10);
        a.inc(Ctr::TuplesIn);
        let mut b = CounterSet::default();
        b.add(Ctr::TuplesIn, 5);
        b.set(Ctr::Lanes, 8);
        a.merge(&b);
        assert_eq!(a.get(Ctr::TuplesIn), 16);
        assert_eq!(a.get(Ctr::Lanes), 8);
        assert_eq!(a.nonzero().count(), 2);
    }
}
