//! Property-based invariants of the simulation kernel, exercised with a
//! seeded deterministic generator.

use fpart_hwsim::{Bram, Fifo, PageAllocator, PageTable, QpiConfig, QpiEndpoint, PAGE_BYTES};
use fpart_memmodel::BandwidthCurve;
use fpart_types::SplitMix64;

/// A FIFO is exactly a bounded queue: replaying any accept/pop trace
/// against a model VecDeque agrees at every step.
#[test]
fn fifo_matches_model() {
    let mut rng = SplitMix64::seed_from_u64(0x4857_0001);
    for _ in 0..32 {
        let capacity = 1 + rng.below_u64(15) as usize;
        let n_ops = rng.below_u64(200) as usize;
        let mut fifo = Fifo::new(capacity);
        let mut model = std::collections::VecDeque::new();
        for _ in 0..n_ops {
            if rng.next_bool() {
                let item = rng.next_u64() as u8;
                let accepted = fifo.push(item).is_ok();
                assert_eq!(accepted, model.len() < capacity);
                if accepted {
                    model.push_back(item);
                }
            } else {
                assert_eq!(fifo.pop(), model.pop_front());
            }
            assert_eq!(fifo.len(), model.len());
            assert_eq!(fifo.is_full(), model.len() == capacity);
        }
    }
}

/// BRAM reads return the cell value captured at issue time, for any
/// interleaving of reads, writes and ticks.
#[test]
fn bram_reads_capture_issue_time() {
    let mut rng = SplitMix64::seed_from_u64(0x4857_0002);
    for _ in 0..32 {
        let latency = 1 + rng.below_u64(3) as u32;
        let n_ops = rng.below_u64(100) as usize;
        let mut bram = Bram::new(8, 0u16, latency);
        let mut cells = [0u16; 8];
        // (expected_addr, expected_value) in issue order.
        let mut expectations = std::collections::VecDeque::new();
        for _ in 0..n_ops {
            let addr = rng.index(8);
            if rng.next_bool() {
                let v = rng.next_u64() as u16;
                bram.write(addr, v);
                cells[addr] = v;
            } else {
                bram.issue_read(addr);
                expectations.push_back((addr, cells[addr]));
            }
            bram.tick();
            if let Some(out) = bram.data_out() {
                let expect = expectations.pop_front().expect("spurious output");
                assert_eq!(out, expect);
            }
        }
        // Drain the pipeline.
        for _ in 0..latency {
            bram.tick();
            if let Some(out) = bram.data_out() {
                let expect = expectations.pop_front().expect("spurious output");
                assert_eq!(out, expect);
            }
        }
        assert!(expectations.is_empty(), "reads lost in the pipeline");
    }
}

/// The token bucket never grants more bytes than rate × time plus the
/// burst cap, and read responses preserve request order.
#[test]
fn qpi_grant_bound_and_ordering() {
    let mut rng = SplitMix64::seed_from_u64(0x4857_0003);
    for _ in 0..32 {
        let gbps = 1.0 + rng.next_f64() * 29.0;
        let cycles = 10 + rng.below_u64(490);
        let read_bias = rng.below_u64(101) as u8;
        let mut qpi = QpiEndpoint::new(QpiConfig {
            curve: BandwidthCurve::new("flat", vec![(0.0, gbps), (1.0, gbps)]),
            clock_hz: 200e6,
            read_latency: 5,
            max_credit: 8.0 * 64.0,
            mix_update_interval: u64::MAX,
        });
        let mut tag = 0u64;
        let mut received = Vec::new();
        for c in 0..cycles {
            qpi.tick();
            if (c % 100) as u8 <= read_bias {
                if qpi.try_read(tag) {
                    tag += 1;
                }
            } else {
                let _ = qpi.try_write();
            }
            if let Some(t) = qpi.pop_ready_read() {
                received.push(t);
            }
        }
        let stats = qpi.stats();
        let rate_bytes = gbps * 1e9 / 200e6 * cycles as f64;
        assert!(
            stats.total_bytes() as f64 <= rate_bytes + 8.0 * 64.0 + 64.0,
            "granted {} bytes with budget {rate_bytes:.0}",
            stats.total_bytes()
        );
        // In-order delivery.
        assert!(received.windows(2).all(|w| w[0] < w[1]));
    }
}

/// Page-table translation is injective across the mapped space: no two
/// distinct virtual lines share a physical line.
#[test]
fn translation_is_injective() {
    let mut rng = SplitMix64::seed_from_u64(0x4857_0004);
    for _ in 0..32 {
        let pages = 1 + rng.below_u64(11) as usize;
        let n_probes = 1 + rng.below_u64(49) as usize;
        let mut alloc = PageAllocator::new(64 * PAGE_BYTES);
        let frames = alloc.allocate(pages).unwrap();
        let mut pt = PageTable::new(pages);
        pt.populate(&frames).unwrap();
        let span = pages as u64 * PAGE_BYTES;
        let mut seen = std::collections::HashMap::new();
        for _ in 0..n_probes {
            let p = rng.next_u32();
            let vaddr = (p as u64 * 4096) % span;
            let paddr = pt.translate(vaddr).unwrap();
            assert_eq!(paddr % PAGE_BYTES, vaddr % PAGE_BYTES, "offset preserved");
            if let Some(&prev) = seen.get(&paddr) {
                assert_eq!(prev, vaddr, "two vaddrs mapped to one paddr");
            }
            seen.insert(paddr, vaddr);
        }
    }
}
