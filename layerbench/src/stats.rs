//! Order statistics and the regression verdict.
//!
//! Percentiles of one run use the nearest-rank definition (a reported
//! latency is always one that was observed). Quartiles across runs use
//! Python's `statistics.quantiles(values, n=4)` ("exclusive" method), so
//! `--compare` reports the same spreads a reader computes by hand.

use crate::metrics::Better;

/// Nearest-rank percentile: the smallest sample with at least `p`% of
/// the samples at or below it. `None` for an empty sample.
pub fn nearest_rank(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// First quartile, median and third quartile, as
/// `statistics.quantiles(values, n=4)` computes them. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let ld = values.len();
    if ld < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    // Signed: with few values the method extrapolates (delta < 0 or > n).
    let (n, m) = (4i64, ld as i64 + 1);
    let mut out = [0.0; 3];
    for (i, slot) in (1..n).zip(out.iter_mut()) {
        let j = (i * m / n).clamp(1, ld as i64 - 1);
        let delta = (i * m - j * n) as f64;
        let (lo, hi) = (data[j as usize - 1], data[j as usize]);
        *slot = (lo * (n as f64 - delta) + hi * delta) / n as f64;
    }
    Some(out)
}

/// Interquartile distance as a share of the median.
pub fn spread([q1, median, q3]: [f64; 3]) -> f64 {
    (q3 - q1) / median.abs()
}

/// How one end-to-end metric moved between a base set of runs and a
/// candidate set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, and each side repeats within the bound.
    Ok,
    /// The candidate's median is worse than the base's by more than the
    /// bound.
    Worse,
    /// Runs of one side spread wider than the bound, so a move within it
    /// cannot be told from noise.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The candidate's change against the base as a share of the base
/// median, signed so that positive means worse.
pub fn worsening(base_median: f64, cand_median: f64, better: Better) -> f64 {
    let delta = (cand_median - base_median) / base_median.abs();
    match better {
        Better::Lower => delta,
        Better::Higher => -delta,
    }
}

/// The verdict rule: a spread wider than the bound leaves the metric
/// unresolved unless every candidate run beats every base run; otherwise
/// the candidate is worse when its median moved the wrong way by more
/// than the bound.
pub fn verdict(base: &[f64], cand: &[f64], better: Better, bound: f64) -> Option<Verdict> {
    let qa = quartiles(base)?;
    let qb = quartiles(cand)?;
    if spread(qa).max(spread(qb)) > bound {
        let beats = |b: f64, a: f64| match better {
            Better::Lower => b < a,
            Better::Higher => b > a,
        };
        let all_better = cand.iter().all(|&b| base.iter().all(|&a| beats(b, a)));
        return Some(if all_better { Verdict::Ok } else { Verdict::Unresolved });
    }
    Some(if worsening(qa[1], qb[1], better) > bound { Verdict::Worse } else { Verdict::Ok })
}

/// Wall time of a whole pipeline run that the separately timed layers do
/// not account for. Negative when the layers, timed one by one, cost
/// more than the run that chains them.
pub fn unattributed(total_s: f64, layers_s: &[f64]) -> f64 {
    total_s - layers_s.iter().sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_observed_samples() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&xs, 50.0), Some(50.0));
        assert_eq!(nearest_rank(&xs, 99.0), Some(99.0));
        assert_eq!(nearest_rank(&xs, 100.0), Some(100.0));
        // Few samples: p99 is the largest, p50 the lower middle.
        assert_eq!(nearest_rank(&[3.0, 1.0, 2.0], 99.0), Some(3.0));
        assert_eq!(nearest_rank(&[4.0, 1.0, 3.0, 2.0], 50.0), Some(2.0));
        assert_eq!(nearest_rank(&[7.0], 50.0), Some(7.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), Some([7.5, 15.0, 22.5]));
        // statistics.quantiles([3, 1, 2, 10], n=4) == [1.25, 2.5, 8.25]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0, 10.0]), Some([1.25, 2.5, 8.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn verdict_ok_within_bound_worse_beyond_it() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slightly = [104.0, 105.0, 103.0, 104.5, 103.5];
        let much = [120.0, 121.0, 119.0, 120.5, 119.5];
        assert_eq!(verdict(&base, &slightly, Better::Lower, 0.1), Some(Verdict::Ok));
        assert_eq!(verdict(&base, &much, Better::Lower, 0.1), Some(Verdict::Worse));
        // A higher-is-better metric that rose is fine; one that fell is not.
        assert_eq!(verdict(&base, &much, Better::Higher, 0.1), Some(Verdict::Ok));
        assert_eq!(verdict(&much, &base, Better::Higher, 0.1), Some(Verdict::Worse));
    }

    #[test]
    fn verdict_unresolved_when_spread_exceeds_bound() {
        let noisy = [50.0, 100.0, 150.0, 80.0, 120.0];
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(verdict(&steady, &noisy, Better::Lower, 0.1), Some(Verdict::Unresolved));
        assert_eq!(verdict(&noisy, &steady, Better::Lower, 0.1), Some(Verdict::Unresolved));
        // Unless every candidate run beats every base run.
        let all_faster = [10.0, 11.0, 12.0, 13.0, 14.0];
        assert_eq!(verdict(&noisy, &all_faster, Better::Lower, 0.1), Some(Verdict::Ok));
        assert_eq!(verdict(&[1.0], &steady, Better::Lower, 0.1), None);
    }

    #[test]
    fn worsening_is_signed_by_direction() {
        assert!((worsening(10.0, 11.0, Better::Lower) - 0.1).abs() < 1e-12);
        assert!((worsening(10.0, 11.0, Better::Higher) + 0.1).abs() < 1e-12);
    }

    #[test]
    fn unattributed_is_total_minus_layers() {
        assert!((unattributed(10.0, &[2.0, 3.0, 4.5]) - 0.5).abs() < 1e-12);
        assert!((unattributed(5.0, &[2.0, 3.5]) + 0.5).abs() < 1e-12);
        assert_eq!(unattributed(1.0, &[]), 1.0);
    }
}
