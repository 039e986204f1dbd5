//! Order statistics for timing samples.

/// Median, quartiles and tail of one set of samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub p50: f64,
    /// Third quartile.
    pub q3: f64,
    /// The highest-ranked sample that still has [`TAIL_BEYOND`] samples
    /// above it (the maximum when there are too few samples).
    pub tail: f64,
    /// Percentile rank of `tail`, in percent.
    pub tail_pct: f64,
    /// Samples strictly above the tail's rank.
    pub beyond: usize,
}

/// Samples a tail percentile must leave above it.
pub const TAIL_BEYOND: usize = 10;

/// Summarise `values`; `None` when empty.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let (tail_idx, beyond) = if n > TAIL_BEYOND {
        (n - 1 - TAIL_BEYOND, TAIL_BEYOND)
    } else {
        (n - 1, 0)
    };
    Some(Summary {
        n,
        q1: quantile(&v, 0.25),
        p50: quantile(&v, 0.5),
        q3: quantile(&v, 0.75),
        tail: v[tail_idx],
        tail_pct: 100.0 * (tail_idx + 1) as f64 / n as f64,
        beyond,
    })
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    summarize(values).map_or(0.0, |s| s.p50)
}

/// Linearly interpolated quantile of sorted, non-empty `v`.
fn quantile(v: &[f64], q: f64) -> f64 {
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_and_tail() {
        let v: Vec<f64> = (1..=21).map(f64::from).collect();
        let s = summarize(&v).unwrap();
        assert_eq!((s.q1, s.p50, s.q3), (6.0, 11.0, 16.0));
        // Ten samples (12..=21) lie above the tail sample 11.
        assert_eq!((s.tail, s.beyond), (11.0, 10));
        assert!((s.tail_pct - 100.0 * 11.0 / 21.0).abs() < 1e-12);
    }

    #[test]
    fn few_samples_tail_is_max() {
        let s = summarize(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.p50, s.tail, s.beyond, s.tail_pct), (2.0, 3.0, 0, 100.0));
        assert_eq!(median(&[]), 0.0);
    }
}
