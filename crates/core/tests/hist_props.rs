//! Property-based tests for the telemetry histogram behind the
//! `/metrics` quantile summaries: quantile estimates must stay inside
//! the observed value range and be monotone in `q`, and the order values
//! are recorded in must not matter — otherwise worker count would leak
//! into exposed metrics.

use ffm_core::telemetry::Hist;
use proptest::prelude::*;

/// Expand a seed into a value sequence spanning many buckets (zeros,
/// small counts, and huge magnitudes all occur).
fn values(seed: u64, n: usize) -> Vec<u64> {
    let mut x = seed | 1;
    (0..n)
        .map(|_| {
            // xorshift64, then collapse to a random magnitude so every
            // log2 bucket is reachable.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let shift = (x >> 58) as u32 % 64;
            x >> shift
        })
        .collect()
}

fn hist_of(vals: &[u64]) -> Hist {
    let mut h = Hist::default();
    for &v in vals {
        h.record(v);
    }
    h
}

proptest! {
    /// Every quantile estimate lies within the exact observed
    /// `[min, max]` — an estimate outside the data's range would be a
    /// lie in the exposition.
    #[test]
    fn quantiles_lie_within_the_observed_range(
        seed in 1u64..u64::MAX,
        n in 1usize..400,
        q_mil in 0u64..=1000,
    ) {
        let q = q_mil as f64 / 1000.0;
        let vals = values(seed, n);
        let h = hist_of(&vals);
        let lo = *vals.iter().min().unwrap();
        let hi = *vals.iter().max().unwrap();
        let est = h.quantile(q);
        prop_assert!(est >= lo && est <= hi, "q={q}: {est} outside [{lo}, {hi}]");
    }

    /// Quantile estimates are monotone non-decreasing in `q`: a summary
    /// where p50 > p99 would be nonsense.
    #[test]
    fn quantiles_are_monotone_in_q(seed in 1u64..u64::MAX, n in 1usize..400) {
        let h = hist_of(&values(seed, n));
        let grid: Vec<u64> =
            (0..=20).map(|i| h.quantile(i as f64 / 20.0)).collect();
        for w in grid.windows(2) {
            prop_assert!(w[0] <= w[1], "quantile sequence not monotone: {grid:?}");
        }
        prop_assert_eq!(h.quantile(1.0), h.max, "q=1 is the exact max");
    }

    /// Recording the same values in any order gives the same histogram.
    /// Threads record into one table in whatever order they run, so this
    /// is what makes the exposed summaries independent of `--jobs`.
    #[test]
    fn recording_order_cannot_change_a_histogram(
        seed in 1u64..u64::MAX,
        n in 0usize..300,
        cut_seed in 0u64..u64::MAX,
    ) {
        let vals = values(seed, n);
        // Another order: rotate at a pseudo-random point, then reverse.
        let mut reordered = vals.clone();
        if n > 0 {
            reordered.rotate_left((cut_seed % n as u64) as usize);
        }
        reordered.reverse();
        let (a, b) = (hist_of(&vals), hist_of(&reordered));
        prop_assert_eq!(&a, &b, "recording order changed the histogram");
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            prop_assert_eq!(a.quantile(q), b.quantile(q));
        }
    }
}
