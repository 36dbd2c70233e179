//! Order statistics of per-operation samples.

/// Median of `values` (mean of the two middle values for an even count);
/// `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// A tail percentile together with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile (nearest rank); 100 means "the maximum", reported
    /// when fewer than eleven samples leave no percentile with ten beyond it.
    pub percentile: usize,
    /// The sample at that rank.
    pub value: f64,
    /// Samples strictly beyond that rank.
    pub beyond: usize,
    /// Sample count.
    pub samples: usize,
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The highest integer percentile (nearest-rank definition) that still has
/// at least [`TAIL_BEYOND`] samples beyond it. With `n ≤ 10` samples no
/// percentile qualifies and the maximum is reported as percentile 100.
pub fn tail(values: &[f64]) -> Tail {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    for p in (1..100).rev() {
        let rank = (p * n).div_ceil(100);
        if rank >= 1 && n - rank >= TAIL_BEYOND {
            return Tail { percentile: p, value: v[rank - 1], beyond: n - rank, samples: n };
        }
    }
    Tail { percentile: 100, value: v.last().copied().unwrap_or(0.0), beyond: 0, samples: n }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled on purpose: the statistics must sort.
        (0..n).rev().map(|i| i as f64 + 1.0).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]).to_bits(), 2.0f64.to_bits());
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]).to_bits(), 2.5f64.to_bits());
        assert_eq!(median(&[]).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        for n in [11, 12, 19, 20, 32, 100, 101, 1000, 1234] {
            let t = tail(&ramp(n));
            assert!(t.beyond >= TAIL_BEYOND, "n={n}: {t:?}");
            // The next percentile up would leave fewer than ten beyond.
            let next_rank = ((t.percentile + 1) * n).div_ceil(100);
            assert!(t.percentile == 99 || n - next_rank < TAIL_BEYOND, "n={n}: {t:?}");
            // Nearest rank: the value is the rank-th smallest sample.
            assert_eq!(t.value.to_bits(), ((n - t.beyond) as f64).to_bits(), "n={n}");
            assert_eq!(t.samples, n);
        }
    }

    #[test]
    fn tail_percentiles_at_known_sizes() {
        assert_eq!(tail(&ramp(32)).percentile, 68);
        assert_eq!(tail(&ramp(100)).percentile, 90);
        assert_eq!(tail(&ramp(1000)).percentile, 99);
        let t = tail(&ramp(11));
        assert_eq!((t.percentile, t.beyond), (9, 10));
    }

    #[test]
    fn tail_of_few_samples_is_the_maximum() {
        for n in [0, 1, 2, 10] {
            let t = tail(&ramp(n));
            assert_eq!((t.percentile, t.beyond), (100, 0), "n={n}");
            assert_eq!(t.value.to_bits(), (n as f64).to_bits());
        }
    }
}
