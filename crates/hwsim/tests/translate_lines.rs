//! Differential test: `PageTable::translate_lines` looks each 4 MB page up
//! once, and must leave the table exactly as a loop of per-line
//! `translate` calls would — same counters, same transient firings, same
//! page fault.

use fpart_hwsim::{PageTable, PAGE_BYTES};
use fpart_types::{FpartError, SplitMix64, CACHE_LINE_BYTES};

const LINE: u64 = CACHE_LINE_BYTES as u64;
const LINES_PER_PAGE: u64 = PAGE_BYTES / LINE;

/// Two identical tables: `capacity` entries, the first `mapped` populated.
fn twin_tables(capacity: usize, mapped: u32) -> (PageTable, PageTable) {
    let frames: Vec<u32> = (0..mapped).map(|i| 7 * i + 3).collect();
    let make = || {
        let mut pt = PageTable::new(capacity);
        pt.populate(&frames).unwrap();
        pt
    };
    (make(), make())
}

/// The reference: one `translate` per line, stopping at the first fault.
fn translate_each(pt: &mut PageTable, first_line: u64, count: u64) -> Result<(), FpartError> {
    for line in first_line..first_line + count {
        pt.translate(line * LINE)?;
    }
    Ok(())
}

fn counters(pt: &PageTable) -> (u64, u64, u64) {
    (pt.translations(), pt.retry_events(), pt.retries_total())
}

/// Translate one range on both tables, require identical outcomes and
/// return the outcome.
fn check(
    batched: &mut PageTable,
    each: &mut PageTable,
    first_line: u64,
    count: u64,
) -> Result<(), FpartError> {
    let got = batched.translate_lines(first_line, count);
    let want = translate_each(each, first_line, count);
    let what = format!("lines {first_line}..+{count}");
    assert_eq!(got, want, "{what}");
    assert_eq!(counters(batched), counters(each), "{what}");
    got
}

/// A transient schedule around the next `count` translations of a table
/// that has served `done`: entries before, inside and after the range.
fn schedule(rng: &mut SplitMix64, done: u64, count: u64) -> Vec<(u64, u32)> {
    (0..rng.below_u64(5))
        .map(|_| {
            let idx = match rng.below_u64(4) {
                0 => done.saturating_sub(1 + rng.below_u64(4)),
                1 => done + count + rng.below_u64(8),
                _ => done + rng.below_u64(count.max(1)),
            };
            (idx, 1 + rng.below_u64(3) as u32)
        })
        .collect()
}

#[test]
fn random_ranges_match_a_translate_loop() {
    let mut rng = SplitMix64::seed_from_u64(0x7a11_0001);
    for _ in 0..24 {
        let (mut batched, mut each) = twin_tables(6, 4);
        for _ in 0..12 {
            // Start near a page boundary (including the unmapped pages 4
            // and 5 and past the table), then cover a few lines to well
            // over one page.
            let page = rng.below_u64(7);
            let first = (page * LINES_PER_PAGE + rng.below_u64(600)).saturating_sub(300);
            let count = match rng.below_u64(4) {
                0 => rng.below_u64(LINES_PER_PAGE + 2000),
                _ => rng.below_u64(900),
            };
            if rng.below_u64(3) == 0 {
                let faults = schedule(&mut rng, batched.translations(), count);
                batched.inject_transients(faults.clone());
                each.inject_transients(faults);
            }
            let _ = check(&mut batched, &mut each, first, count);
        }
    }
}

#[test]
fn ranges_across_page_boundaries() {
    let (mut batched, mut each) = twin_tables(4, 4);
    // Ending exactly on, just past, and two pages past a boundary.
    check(&mut batched, &mut each, LINES_PER_PAGE - 10, 10).unwrap();
    check(&mut batched, &mut each, LINES_PER_PAGE - 10, 11).unwrap();
    check(
        &mut batched,
        &mut each,
        LINES_PER_PAGE - 1,
        2 * LINES_PER_PAGE + 2,
    )
    .unwrap();
    check(&mut batched, &mut each, 0, 4 * LINES_PER_PAGE).unwrap();
    check(&mut batched, &mut each, 5, 0).unwrap();
    assert_eq!(
        batched.translations(),
        10 + 11 + 2 * LINES_PER_PAGE + 2 + 4 * LINES_PER_PAGE
    );
}

#[test]
fn transients_before_inside_and_after_a_range() {
    let (mut batched, mut each) = twin_tables(2, 2);
    check(&mut batched, &mut each, 0, 100).unwrap();
    // Inside at both ends and across the page boundary, then after.
    let faults = vec![(100, 2), (150, 1), (100 + 199, 3), (400, 4)];
    batched.inject_transients(faults.clone());
    each.inject_transients(faults);
    check(&mut batched, &mut each, LINES_PER_PAGE - 120, 200).unwrap();
    assert_eq!(counters(&batched), (300, 3, 6));
    check(&mut batched, &mut each, 7, 150).unwrap();
    assert_eq!(counters(&batched), (450, 4, 10));

    // A scheduled index already behind the count never fires and blocks
    // every later one — on both paths.
    let faults = vec![(10, 1), (460, 2)];
    batched.inject_transients(faults.clone());
    each.inject_transients(faults);
    check(&mut batched, &mut each, 0, 50).unwrap();
    assert_eq!(counters(&batched), (500, 4, 10));

    // Duplicate indices: the first fires, the second is then stale.
    let faults = vec![(510, 1), (510, 5), (520, 1)];
    batched.inject_transients(faults.clone());
    each.inject_transients(faults);
    check(&mut batched, &mut each, 0, 40).unwrap();
    assert_eq!(counters(&batched), (540, 5, 11));
}

#[test]
fn a_range_into_an_unmapped_page_faults_like_the_loop() {
    let (mut batched, mut each) = twin_tables(4, 2);
    let faults = vec![(LINES_PER_PAGE + 5, 2), (2 * LINES_PER_PAGE + 100, 1)];
    batched.inject_transients(faults.clone());
    each.inject_transients(faults);
    // Page 2 is unmapped: the lines of pages 0 and 1 count, then the
    // first line of page 2 faults.
    let got = check(&mut batched, &mut each, 17, 3 * LINES_PER_PAGE);
    let vaddr = 2 * PAGE_BYTES;
    assert_eq!(got, Err(FpartError::PageFault { vaddr }));
    assert_eq!(counters(&batched), (2 * LINES_PER_PAGE - 17, 1, 2));
    // A range starting past the table faults on its first line.
    let got = check(&mut batched, &mut each, 9 * LINES_PER_PAGE + 3, 4);
    let vaddr = (9 * LINES_PER_PAGE + 3) * LINE;
    assert_eq!(got, Err(FpartError::PageFault { vaddr }));
    // An empty range never faults, wherever it points.
    assert_eq!(
        check(&mut batched, &mut each, 9 * LINES_PER_PAGE, 0),
        Ok(())
    );
}
