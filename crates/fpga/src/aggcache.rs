//! FPGA group-by aggregation with synchronizing caches.
//!
//! The paper's Discussion lists "a hardware conscious group by
//! aggregation" (Absalyamov et al., FPGA-accelerated group-by with
//! synchronizing caches) as a direct application of the partitioning
//! datapath. The design: each lane owns a BRAM-resident **aggregating
//! cache** of `(key, count, sum)` entries indexed by hash bits. An
//! incoming tuple that hits its slot merges into it (read-modify-write
//! with the same 1-cycle-BRAM + forwarding-register hazard structure as
//! the write combiner); a miss on an occupied slot **evicts** the victim
//! partial aggregate to memory. Software synchronises at the end by
//! merging per-lane partials and evicted victims — cheap, because the
//! caches absorb the heavy hitters on-chip.

use fpart_hwsim::{QpiConfig, QpiEndpoint};
use fpart_types::{Key, Relation, Result, Tuple};

use fpart_hash::{murmur3_finalizer_64, PartitionFn};

use crate::config::MAX_BRAM_BITS;

/// One partial aggregate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AggEntry<K: Key> {
    /// Group key.
    pub key: K,
    /// Rows merged into this partial.
    pub count: u64,
    /// Wrapping sum of payload words.
    pub sum: u64,
}

#[derive(Debug, Clone, Copy)]
struct Forward<K: Key> {
    slot: usize,
    entry: AggEntry<K>,
    valid: bool,
}

/// One lane's aggregating cache (a direct-mapped BRAM table with the
/// Code 4-style forwarding network for back-to-back same-slot updates).
#[derive(Debug)]
pub struct AggregatingCache<K: Key> {
    slots: Vec<Option<AggEntry<K>>>,
    mask: u64,
    /// Stage: tuple whose slot read is in flight.
    stage: Option<(usize, K, u64)>,
    fwd: Forward<K>,
    hits: u64,
    evictions: u64,
}

impl<K: Key> AggregatingCache<K> {
    /// A cache of `2^bits` entries.
    pub fn new(bits: u32) -> Self {
        assert!(
            (1..=MAX_BRAM_BITS).contains(&bits),
            "cache bits in 1..={MAX_BRAM_BITS} (BRAM budget)"
        );
        Self {
            slots: vec![None; 1 << bits],
            mask: (1u64 << bits) - 1,
            stage: None,
            fwd: Forward {
                slot: 0,
                entry: AggEntry {
                    key: K::DUMMY,
                    count: 0,
                    sum: 0,
                },
                valid: false,
            },
            hits: 0,
            evictions: 0,
        }
    }

    #[inline]
    fn slot_of(&self, key: K) -> usize {
        (murmur3_finalizer_64(key.to_u64()) & self.mask) as usize
    }

    /// Tuples inside the pipeline.
    pub fn in_flight(&self) -> usize {
        usize::from(self.stage.is_some())
    }

    /// Cache hits (merges) so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Victims evicted so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Advance one clock: accept an optional `(key, payload)` and return
    /// an evicted victim, if the resolving tuple displaced one.
    pub fn clock(&mut self, input: Option<(K, u64)>) -> Option<AggEntry<K>> {
        // Resolve stage (read issued last cycle arrives now).
        let evicted = if let Some((slot, key, payload)) = self.stage.take() {
            // Forwarding: a back-to-back update to the same slot beat the
            // BRAM write.
            let current = if self.fwd.valid && self.fwd.slot == slot {
                Some(self.fwd.entry)
            } else {
                self.slots[slot]
            };
            let (new_entry, victim) = match current {
                Some(e) if e.key == key => {
                    self.hits += 1;
                    (
                        AggEntry {
                            key,
                            count: e.count + 1,
                            sum: e.sum.wrapping_add(payload),
                        },
                        None,
                    )
                }
                Some(e) => {
                    self.evictions += 1;
                    (
                        AggEntry {
                            key,
                            count: 1,
                            sum: payload,
                        },
                        Some(e),
                    )
                }
                None => (
                    AggEntry {
                        key,
                        count: 1,
                        sum: payload,
                    },
                    None,
                ),
            };
            self.slots[slot] = Some(new_entry);
            self.fwd = Forward {
                slot,
                entry: new_entry,
                valid: true,
            };
            victim
        } else {
            self.fwd.valid = false;
            None
        };

        if let Some((key, payload)) = input {
            debug_assert!(!key.is_dummy());
            let slot = self.slot_of(key);
            self.stage = Some((slot, key, payload));
        }
        evicted
    }

    /// Drain the cache contents (the end-of-run flush: one slot per cycle
    /// in hardware; the caller accounts `2^bits` cycles).
    pub fn drain(&mut self) -> Vec<AggEntry<K>> {
        self.slots.iter_mut().filter_map(Option::take).collect()
    }
}

/// Report of an FPGA group-by run.
#[derive(Debug, Clone)]
pub struct AggReport {
    /// Input tuples.
    pub tuples: u64,
    /// Distinct groups in the output.
    pub groups: u64,
    /// Scatter cycles (including the cache drain).
    pub cycles: u64,
    /// On-chip merges (tuples absorbed without memory traffic).
    pub cache_hits: u64,
    /// Victim partials evicted to memory mid-run.
    pub evictions: u64,
    /// FPGA clock (Hz).
    pub clock_hz: f64,
}

impl AggReport {
    /// Simulated seconds.
    pub fn seconds(&self) -> f64 {
        self.cycles as f64 / self.clock_hz
    }

    /// Throughput in million input tuples per second.
    pub fn mtuples_per_sec(&self) -> f64 {
        self.tuples as f64 / self.seconds() / 1e6
    }

    /// Fraction of tuples merged on-chip.
    pub fn hit_rate(&self) -> f64 {
        if self.tuples == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.tuples as f64
        }
    }
}

/// Run `SELECT key, COUNT(*), SUM(payload) GROUP BY key` on the simulated
/// circuit: per-lane aggregating caches of `2^cache_bits` entries, victims
/// streamed to memory, final software synchronisation merge.
pub fn fpga_group_by<T: Tuple>(
    rel: &Relation<T>,
    cache_bits: u32,
    qpi: QpiConfig,
) -> Result<(Vec<AggEntry<T::K>>, AggReport)> {
    let clock_hz = qpi.clock_hz;
    let mut qpi = QpiEndpoint::new(qpi);
    let mut caches: Vec<AggregatingCache<T::K>> = (0..T::LANES)
        .map(|_| AggregatingCache::new(cache_bits))
        .collect();
    let mut victims: Vec<AggEntry<T::K>> = Vec::new();
    let mut cycles = 0u64;

    let total_lines = rel.len().div_ceil(T::LANES);
    let mut read_cursor = 0usize;
    let mut pending: std::collections::VecDeque<usize> = Default::default();

    loop {
        cycles += 1;
        qpi.tick();

        // One delivered line feeds all lanes this cycle.
        if let Some(line_idx) = pending.pop_front() {
            let start = line_idx * T::LANES;
            for (lane, cache) in caches.iter_mut().enumerate() {
                let input = rel
                    .tuples()
                    .get(start + lane)
                    .filter(|t| !t.is_dummy())
                    .map(|t| (t.key(), t.payload_word()));
                if let Some(victim) = cache.clock(input) {
                    // Victim write: one partial per cache line slot; the
                    // stream is sparse so per-victim link accounting
                    // (1 line each) is the conservative choice.
                    while !qpi.try_write() {
                        cycles += 1;
                        qpi.tick();
                    }
                    victims.push(victim);
                }
            }
        } else {
            for cache in caches.iter_mut() {
                if let Some(victim) = cache.clock(None) {
                    while !qpi.try_write() {
                        cycles += 1;
                        qpi.tick();
                    }
                    victims.push(victim);
                }
            }
        }

        if let Some(tag) = qpi.pop_ready_read() {
            pending.push_back(tag as usize);
        }
        if read_cursor < total_lines
            && pending.len() + qpi.reads_in_flight() < 64
            && qpi.try_read(read_cursor as u64)
        {
            read_cursor += 1;
        }

        if read_cursor >= total_lines
            && qpi.reads_in_flight() == 0
            && pending.is_empty()
            && caches.iter().all(|c| c.in_flight() == 0)
        {
            break;
        }
    }

    // Drain: one slot per cycle per lane, lanes in parallel.
    cycles += 1u64 << cache_bits;
    let cache_hits: u64 = caches.iter().map(|c| c.hits()).sum();
    let evictions: u64 = caches.iter().map(|c| c.evictions()).sum();
    for cache in &mut caches {
        victims.extend(cache.drain());
    }

    // Software synchronisation: merge partials (per-lane caches and
    // evicted victims may hold pieces of the same group).
    let mut merged: std::collections::HashMap<T::K, AggEntry<T::K>> =
        std::collections::HashMap::new();
    for v in victims {
        merged
            .entry(v.key)
            .and_modify(|e| {
                e.count += v.count;
                e.sum = e.sum.wrapping_add(v.sum);
            })
            .or_insert(v);
    }
    let mut groups: Vec<AggEntry<T::K>> = merged.into_values().collect();
    groups.sort_unstable_by_key(|g| g.key);

    let report = AggReport {
        tuples: rel.len() as u64,
        groups: groups.len() as u64,
        cycles,
        cache_hits,
        evictions,
        clock_hz,
    };
    Ok((groups, report))
}

/// Convenience: the paper platform's link.
pub fn fpga_group_by_harp<T: Tuple>(
    rel: &Relation<T>,
    cache_bits: u32,
) -> Result<(Vec<AggEntry<T::K>>, AggReport)> {
    fpga_group_by(
        rel,
        cache_bits,
        QpiConfig::harp(fpart_memmodel::BandwidthCurve::fpga_alone()),
    )
}

/// Cache-sizing helper: bits that give roughly one slot per expected
/// group (clamped to the BRAM budget used by Table 2's configurations).
pub fn cache_bits_for_groups(expected_groups: usize) -> u32 {
    let bits = (expected_groups.max(2) as f64).log2().ceil() as u32 + 1;
    bits.clamp(4, 16)
}

/// The partition function an aggregating cache effectively applies (for
/// interop with the partitioner's planner).
pub fn cache_index_fn(bits: u32) -> PartitionFn {
    PartitionFn::Murmur { bits }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpart_datagen::dist::zipf_foreign_keys;
    use fpart_datagen::KeyDistribution;
    use fpart_types::Tuple8;
    use std::collections::HashMap;

    fn reference(rel: &Relation<Tuple8>) -> Vec<AggEntry<u32>> {
        let mut map: HashMap<u32, (u64, u64)> = HashMap::new();
        for t in rel.tuples() {
            let e = map.entry(t.key).or_insert((0, 0));
            e.0 += 1;
            e.1 = e.1.wrapping_add(t.payload as u64);
        }
        let mut out: Vec<AggEntry<u32>> = map
            .into_iter()
            .map(|(key, (count, sum))| AggEntry { key, count, sum })
            .collect();
        out.sort_unstable_by_key(|g| g.key);
        out
    }

    fn zipf_rel(domain: usize, n: usize, z: f64) -> Relation<Tuple8> {
        let keys: Vec<u32> = KeyDistribution::Random.generate_keys(domain, 1);
        Relation::from_keys(&zipf_foreign_keys(&keys, n, z, 2))
    }

    #[test]
    fn matches_software_groupby() {
        let rel = zipf_rel(500, 20_000, 1.0);
        let (groups, report) = fpga_group_by_harp(&rel, 10).unwrap();
        assert_eq!(groups, reference(&rel));
        assert_eq!(report.tuples, 20_000);
        assert_eq!(report.groups, groups.len() as u64);
        assert!(report.mtuples_per_sec() > 0.0);
    }

    #[test]
    fn skewed_input_mostly_hits_on_chip() {
        // Heavy hitters stay resident: high hit rate, few evictions.
        let rel = zipf_rel(10_000, 30_000, 1.25);
        let (groups, report) = fpga_group_by_harp(&rel, 12).unwrap();
        assert_eq!(groups, reference(&rel));
        assert!(
            report.hit_rate() > 0.5,
            "zipf 1.25 should merge >50% on chip, got {:.2}",
            report.hit_rate()
        );
    }

    #[test]
    fn tiny_cache_still_correct_via_evictions() {
        // A 16-slot cache thrashes but the synchronisation merge fixes it.
        let rel = zipf_rel(2_000, 10_000, 0.25);
        let (groups, report) = fpga_group_by_harp(&rel, 4).unwrap();
        assert_eq!(groups, reference(&rel));
        assert!(report.evictions > 1000, "{} evictions", report.evictions);
    }

    #[test]
    fn unique_keys_degenerate_to_histogramming() {
        let keys: Vec<u32> = KeyDistribution::Linear.generate_keys(5_000, 0);
        let rel = Relation::<Tuple8>::from_keys(&keys);
        let (groups, report) = fpga_group_by_harp(&rel, 8).unwrap();
        assert_eq!(groups.len(), 5_000);
        assert!(groups.iter().all(|g| g.count == 1));
        assert_eq!(report.cache_hits, 0, "no duplicates, no merges");
    }

    #[test]
    fn back_to_back_same_key_uses_forwarding() {
        // A burst of one key: every update after the first must merge via
        // the forwarding register (the slot's BRAM write is one cycle
        // behind).
        let mut cache = AggregatingCache::<u32>::new(6);
        for i in 0..100u64 {
            let victim = cache.clock(Some((7, i)));
            assert!(victim.is_none());
        }
        while cache.in_flight() > 0 {
            cache.clock(None);
        }
        let entries = cache.drain();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].count, 100);
        assert_eq!(entries[0].sum, (0..100).sum::<u64>());
        assert_eq!(cache.hits(), 99);
    }

    #[test]
    fn cache_sizing_helper() {
        assert_eq!(cache_bits_for_groups(1000), 11);
        assert_eq!(cache_bits_for_groups(1), 4);
        assert_eq!(cache_bits_for_groups(1 << 20), 16);
        assert_eq!(cache_index_fn(11).fan_out(), 2048);
    }
}
