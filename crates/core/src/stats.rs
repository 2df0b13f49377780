//! Statistics utilities shared by all analyses: ECDFs, entropy,
//! correlation, and normalization helpers.

/// An empirical CDF over `f64` samples.
///
/// # Examples
/// ```
/// use wearscope_core::stats::Ecdf;
/// let e = Ecdf::from_samples(vec![1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(e.fraction_below(2.5), 0.5);
/// assert_eq!(e.quantile(0.5), 2.0);
/// assert_eq!(e.len(), 4);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds an ECDF (NaNs are dropped).
    pub fn from_samples(mut samples: Vec<f64>) -> Ecdf {
        samples.retain(|x| !x.is_nan());
        samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs after filter"));
        Ecdf { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Fraction of samples strictly below `x` (0 when empty).
    pub fn fraction_below(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&v| v < x);
        idx as f64 / self.sorted.len() as f64
    }

    /// Fraction of samples at or below `x`.
    pub fn fraction_at_or_below(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// The `q`-quantile (nearest-rank, `q` clamped to [0, 1]); 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let idx = ((q * self.sorted.len() as f64).ceil() as usize)
            .saturating_sub(1)
            .min(self.sorted.len() - 1);
        self.sorted[idx]
    }

    /// The median.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// The arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            0.0
        } else {
            self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
        }
    }

    /// Minimum sample (0 when empty).
    pub fn min(&self) -> f64 {
        self.sorted.first().copied().unwrap_or(0.0)
    }

    /// Maximum sample (0 when empty).
    pub fn max(&self) -> f64 {
        self.sorted.last().copied().unwrap_or(0.0)
    }

    /// The sorted samples.
    pub fn samples(&self) -> &[f64] {
        &self.sorted
    }

    /// `(x, F(x))` pairs at each distinct sample, for plotting.
    pub fn curve(&self) -> Vec<(f64, f64)> {
        let n = self.sorted.len();
        let mut out = Vec::new();
        let mut i = 0;
        while i < n {
            let x = self.sorted[i];
            let mut j = i;
            while j < n && self.sorted[j] == x {
                j += 1;
            }
            out.push((x, j as f64 / n as f64));
            i = j;
        }
        out
    }
}

/// Order-stable float summation: sorts ascending before summing, so the
/// result is identical no matter what container order produced `values`
/// (float addition is not associative; analyses iterate `HashMap`s whose
/// order varies run to run).
pub fn stable_sum<I: IntoIterator<Item = f64>>(values: I) -> f64 {
    let mut v: Vec<f64> = values.into_iter().collect();
    v.sort_by(f64::total_cmp);
    v.iter().sum()
}

/// Shannon entropy (nats) of a discrete distribution given by non-negative
/// weights; zero-weight entries are ignored. Returns 0 for degenerate input.
/// Insensitive to the order of `weights`.
pub fn shannon_entropy(weights: &[f64]) -> f64 {
    let mut positive: Vec<f64> = weights.iter().copied().filter(|w| *w > 0.0).collect();
    positive.sort_by(f64::total_cmp);
    let total: f64 = positive.iter().sum();
    if total <= 0.0 {
        return 0.0;
    }
    -positive
        .iter()
        .map(|w| {
            let p = w / total;
            p * p.ln()
        })
        .sum::<f64>()
}

/// Pearson correlation coefficient of paired samples; 0 for degenerate input.
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "pearson needs paired samples");
    let n = xs.len() as f64;
    if xs.len() < 2 {
        return 0.0;
    }
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        cov += (x - mx) * (y - my);
        vx += (x - mx).powi(2);
        vy += (y - my).powi(2);
    }
    if vx <= 0.0 || vy <= 0.0 {
        0.0
    } else {
        cov / (vx * vy).sqrt()
    }
}

/// Spearman rank correlation (Pearson over ranks, mean rank for ties).
pub fn spearman(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "spearman needs paired samples");
    pearson(&ranks(xs), &ranks(ys))
}

fn ranks(xs: &[f64]) -> Vec<f64> {
    let mut idx: Vec<usize> = (0..xs.len()).collect();
    idx.sort_by(|&a, &b| xs[a].partial_cmp(&xs[b]).expect("no NaNs"));
    let mut out = vec![0.0; xs.len()];
    let mut i = 0;
    while i < idx.len() {
        let mut j = i;
        while j < idx.len() && xs[idx[j]] == xs[idx[i]] {
            j += 1;
        }
        let mean_rank = (i + j - 1) as f64 / 2.0 + 1.0;
        for k in i..j {
            out[idx[k]] = mean_rank;
        }
        i = j;
    }
    out
}

/// Least-squares slope of `y` against `x` (per-unit-x growth), 0 when
/// degenerate. Used to fit the Fig. 2(a) adoption trend.
pub fn linear_slope(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len());
    let n = xs.len() as f64;
    if xs.len() < 2 {
        return 0.0;
    }
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut num = 0.0;
    let mut den = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        num += (x - mx) * (y - my);
        den += (x - mx).powi(2);
    }
    if den <= 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ecdf_basics() {
        let e = Ecdf::from_samples(vec![3.0, 1.0, 2.0, 4.0, 5.0]);
        assert_eq!(e.len(), 5);
        assert_eq!(e.min(), 1.0);
        assert_eq!(e.max(), 5.0);
        assert_eq!(e.median(), 3.0);
        assert_eq!(e.mean(), 3.0);
        assert_eq!(e.fraction_below(3.0), 0.4);
        assert_eq!(e.fraction_at_or_below(3.0), 0.6);
        assert_eq!(e.quantile(0.0), 1.0);
        assert_eq!(e.quantile(1.0), 5.0);
    }

    #[test]
    fn ecdf_empty_and_nan() {
        let e = Ecdf::from_samples(vec![]);
        assert!(e.is_empty());
        assert_eq!(e.median(), 0.0);
        assert_eq!(e.fraction_below(1.0), 0.0);
        let e = Ecdf::from_samples(vec![f64::NAN, 1.0]);
        assert_eq!(e.len(), 1);
    }

    #[test]
    fn ecdf_single_sample() {
        let e = Ecdf::from_samples(vec![7.5]);
        assert_eq!(e.len(), 1);
        // Every quantile of a one-point distribution is that point.
        assert_eq!(e.quantile(0.0), 7.5);
        assert_eq!(e.quantile(0.5), 7.5);
        assert_eq!(e.quantile(1.0), 7.5);
        assert_eq!(e.median(), 7.5);
        assert_eq!(e.fraction_below(7.5), 0.0);
        assert_eq!(e.fraction_at_or_below(7.5), 1.0);
        assert_eq!(e.fraction_below(100.0), 1.0);
    }

    #[test]
    fn ecdf_quantile_clamps_and_hits_extremes() {
        let e = Ecdf::from_samples(vec![1.0, 2.0, 3.0, 4.0]);
        // Out-of-range q clamps rather than panics or extrapolates.
        assert_eq!(e.quantile(-0.5), 1.0);
        assert_eq!(e.quantile(1.5), 4.0);
        // q=0 is the minimum, q=1 the maximum (nearest-rank convention).
        assert_eq!(e.quantile(0.0), e.min());
        assert_eq!(e.quantile(1.0), e.max());
        // Just past a rank boundary steps to the next sample.
        assert_eq!(e.quantile(0.25), 1.0);
        assert_eq!(e.quantile(0.26), 2.0);
    }

    #[test]
    fn ecdf_duplicate_heavy_samples() {
        // 7 copies of 2.0 flanked by one 1.0 and two 3.0s.
        let mut v = vec![2.0; 7];
        v.push(1.0);
        v.extend([3.0, 3.0]);
        let e = Ecdf::from_samples(v);
        assert_eq!(e.len(), 10);
        // Strictly-below excludes the duplicate block, at-or-below
        // includes all of it — no partial credit for ties.
        assert_eq!(e.fraction_below(2.0), 0.1);
        assert_eq!(e.fraction_at_or_below(2.0), 0.8);
        // The quantile function is flat across the block.
        assert_eq!(e.quantile(0.2), 2.0);
        assert_eq!(e.quantile(0.5), 2.0);
        assert_eq!(e.quantile(0.8), 2.0);
        assert_eq!(e.quantile(0.81), 3.0);
        assert_eq!(e.curve(), vec![(1.0, 0.1), (2.0, 0.8), (3.0, 1.0)]);
    }

    #[test]
    fn ecdf_empty_quantile_extremes() {
        let e = Ecdf::from_samples(vec![]);
        assert_eq!(e.quantile(0.0), 0.0);
        assert_eq!(e.quantile(1.0), 0.0);
        assert_eq!(e.fraction_at_or_below(0.0), 0.0);
        assert_eq!(e.mean(), 0.0);
        assert_eq!(e.curve(), Vec::<(f64, f64)>::new());
    }

    #[test]
    fn ecdf_curve_collapses_duplicates() {
        let e = Ecdf::from_samples(vec![1.0, 1.0, 2.0]);
        assert_eq!(e.curve(), vec![(1.0, 2.0 / 3.0), (2.0, 1.0)]);
    }

    #[test]
    fn entropy_known_values() {
        assert_eq!(shannon_entropy(&[]), 0.0);
        assert_eq!(shannon_entropy(&[5.0]), 0.0);
        let h = shannon_entropy(&[1.0, 1.0]);
        assert!((h - std::f64::consts::LN_2).abs() < 1e-12);
        let h4 = shannon_entropy(&[1.0, 1.0, 1.0, 1.0]);
        assert!((h4 - 4.0_f64.ln()).abs() < 1e-12);
        // Skew lowers entropy.
        assert!(shannon_entropy(&[9.0, 1.0]) < std::f64::consts::LN_2);
        // Zero weights are ignored.
        assert_eq!(shannon_entropy(&[1.0, 0.0]), 0.0);
    }

    #[test]
    fn pearson_known_values() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((pearson(&xs, &[2.0, 4.0, 6.0, 8.0]) - 1.0).abs() < 1e-12);
        assert!((pearson(&xs, &[8.0, 6.0, 4.0, 2.0]) + 1.0).abs() < 1e-12);
        assert_eq!(pearson(&xs, &[5.0, 5.0, 5.0, 5.0]), 0.0);
        assert_eq!(pearson(&[1.0], &[2.0]), 0.0);
    }

    #[test]
    fn spearman_is_rank_based() {
        // A monotone but non-linear relation has Spearman 1.
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let ys = [1.0, 8.0, 27.0, 64.0, 125.0];
        assert!((spearman(&xs, &ys) - 1.0).abs() < 1e-12);
        assert!(pearson(&xs, &ys) < 1.0);
    }

    #[test]
    fn slope_fits_line() {
        let xs: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 + 0.015 * x).collect();
        assert!((linear_slope(&xs, &ys) - 0.015).abs() < 1e-12);
        assert_eq!(linear_slope(&[1.0], &[1.0]), 0.0);
    }

    #[test]
    fn stable_sum_is_order_insensitive() {
        let a = vec![1e16, 1.0, -1e16, 3.0];
        let mut b = a.clone();
        b.reverse();
        assert_eq!(stable_sum(a.clone()), stable_sum(b));
        assert_eq!(stable_sum(Vec::<f64>::new()), 0.0);
    }

    #[test]
    fn entropy_order_insensitive() {
        let h1 = shannon_entropy(&[0.3, 0.5, 0.2]);
        let h2 = shannon_entropy(&[0.2, 0.3, 0.5]);
        assert_eq!(h1, h2);
    }

    #[test]
    fn ranks_handle_ties() {
        let r = ranks(&[10.0, 20.0, 20.0, 30.0]);
        assert_eq!(r, vec![1.0, 2.5, 2.5, 4.0]);
    }
}
