//! Order statistics over host-time samples.

/// The median of `xs` (mean of the two middle values for an even count).
/// `None` for an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Percentiles the tail metric may report, highest first, in tenths of a
/// percent so that ranks are exact.
const TAIL_LADDER: [usize; 5] = [999, 990, 950, 900, 750];

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// A tail value and the percentile it sits at.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. `90.0`.
    pub percentile: f64,
    /// The nearest-rank sample at that percentile.
    pub value: f64,
    /// Samples strictly beyond that rank.
    pub beyond: usize,
}

impl Tail {
    /// Whether at least [`TAIL_BEYOND`] samples lie beyond the value.
    pub fn qualified(&self) -> bool {
        self.beyond >= TAIL_BEYOND
    }
}

/// The highest percentile of the ladder (99.9, 99, 95, 90, 75) that has
/// at least [`TAIL_BEYOND`] samples strictly beyond its nearest-rank
/// position. With fewer than 40 samples none qualifies, and p75 is
/// returned with the samples beyond it counted; the tail never drops to
/// the median, and never rests on the single largest sample.
/// A fixed ladder, rather than the exact rank `n - 10`, keeps the reported
/// percentile the same across runs whose sample counts differ a little.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return None;
    }
    // Nearest rank (1-based) of percentile p: ceil(p / 100 * n).
    let rank = |tenths: usize| (tenths * n).div_ceil(1000).clamp(1, n);
    let tenths = TAIL_LADDER
        .into_iter()
        .find(|&p| n - rank(p) >= TAIL_BEYOND)
        .unwrap_or(750);
    Some(Tail {
        percentile: tenths as f64 / 10.0,
        value: v[rank(tenths) - 1],
        beyond: n - rank(tenths),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_leaves_at_least_ten_samples_beyond() {
        for n in 40..1500 {
            let xs = seq(n);
            let t = tail(&xs).unwrap();
            assert!(t.qualified(), "n = {n}");
            let beyond = xs.iter().filter(|&&x| x > t.value).count();
            assert_eq!(beyond, t.beyond, "n = {n}");
            assert!(beyond >= TAIL_BEYOND, "n = {n}: {t:?}");
            // No higher ladder percentile would also qualify.
            for p in TAIL_LADDER.map(|p| p as f64 / 10.0) {
                if p > t.percentile {
                    let r = (p / 100.0 * n as f64).ceil() as usize;
                    assert!(n - r < TAIL_BEYOND, "n = {n}: p{p} also qualifies");
                }
            }
        }
    }

    #[test]
    fn tail_percentiles_at_known_sizes() {
        assert_eq!(tail(&seq(40)).unwrap().percentile, 75.0);
        assert_eq!(tail(&seq(100)).unwrap().percentile, 90.0);
        assert_eq!(tail(&seq(100)).unwrap().value, 90.0);
        assert_eq!(tail(&seq(200)).unwrap().percentile, 95.0);
        assert_eq!(tail(&seq(1000)).unwrap().percentile, 99.0);
        assert_eq!(tail(&seq(10_000)).unwrap().percentile, 99.9);
    }

    #[test]
    fn tail_of_few_samples_is_an_unqualified_p75() {
        let t = tail(&seq(8)).unwrap();
        assert!(!t.qualified());
        assert_eq!((t.percentile, t.value, t.beyond), (75.0, 6.0, 2));
        let t = tail(&seq(39)).unwrap();
        assert_eq!((t.percentile, t.beyond, t.qualified()), (75.0, 9, false));
        assert_eq!(tail(&[5.0]).unwrap().value, 5.0);
        assert_eq!(tail(&[]), None);
    }
}
