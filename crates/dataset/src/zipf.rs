//! Bounded discrete Zipf sampling.
//!
//! `rand_distr` is outside the offline dependency set, so the sampler is
//! implemented directly: probabilities `P(i) ∝ (i+1)^(−s)` over `0..n`, a
//! precomputed cumulative table, and inverse-transform sampling by binary
//! search. Build cost is `O(n)`, sampling `O(log n)`; the tables for the
//! paper-scale tag universe (≈300 k entries) are a few megabytes.

use rand::Rng;

/// A bounded Zipf distribution over ranks `0..n` with exponent `s ≥ 0`
/// (`s = 0` degenerates to the uniform distribution).
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the sampler. Panics if `n == 0` or `s` is not finite.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf over an empty support");
        assert!(s.is_finite() && s >= 0.0, "exponent must be finite and ≥ 0");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for i in 0..n {
            acc += ((i + 1) as f64).powf(-s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        // Guard against floating-point drift at the top end.
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        Zipf { cdf }
    }

    /// Support size.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True for a single-point support.
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Draws a rank in `0..n`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        // partition_point returns the first index with cdf[i] >= u.
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }

    /// Probability of rank `i`.
    pub fn pmf(&self, i: usize) -> f64 {
        if i >= self.cdf.len() {
            return 0.0;
        }
        if i == 0 {
            self.cdf[0]
        } else {
            self.cdf[i] - self.cdf[i - 1]
        }
    }
}

/// A discrete bounded power-law over `min..=max` with `P(d) ∝ d^(−alpha)`,
/// used for degree distributions (e.g. `|Tags(r)|` tails).
#[derive(Clone, Debug)]
pub struct BoundedPowerLaw {
    min: u64,
    cdf: Vec<f64>,
}

impl BoundedPowerLaw {
    /// Builds the sampler over `min..=max`. Panics when the range is empty.
    pub fn new(min: u64, max: u64, alpha: f64) -> Self {
        assert!(min >= 1 && max >= min, "invalid power-law support");
        let n = (max - min + 1) as usize;
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for d in min..=max {
            acc += (d as f64).powf(-alpha);
            cdf.push(acc);
        }
        for v in &mut cdf {
            *v /= acc;
        }
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        BoundedPowerLaw { min, cdf }
    }

    /// Draws a degree in `min..=max`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let u: f64 = rng.gen();
        let idx = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1);
        self.min + idx as u64
    }

    /// Mean of the distribution.
    pub fn mean(&self) -> f64 {
        let mut prev = 0.0;
        let mut mean = 0.0;
        for (i, &c) in self.cdf.iter().enumerate() {
            mean += (self.min + i as u64) as f64 * (c - prev);
            prev = c;
        }
        mean
    }

    /// Finds an exponent for which the distribution over `min..=max` has the
    /// requested `target_mean`, by bisection (mean is monotone decreasing in
    /// alpha). Used to calibrate generator presets against Table II.
    pub fn calibrate_alpha(min: u64, max: u64, target_mean: f64) -> f64 {
        assert!(
            target_mean > min as f64 && target_mean < max as f64,
            "target mean must lie inside the support"
        );
        let (mut lo, mut hi) = (0.01f64, 6.0f64);
        for _ in 0..60 {
            let mid = (lo + hi) / 2.0;
            let mean = BoundedPowerLaw::new(min, max, mid).mean();
            if mean > target_mean {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        (lo + hi) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn pmf_sums_to_one() {
        let z = Zipf::new(100, 1.2);
        let total: f64 = (0..100).map(|i| z.pmf(i)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rank_zero_is_most_likely() {
        let z = Zipf::new(50, 1.5);
        assert!(z.pmf(0) > z.pmf(1));
        assert!(z.pmf(1) > z.pmf(10));
    }

    #[test]
    fn zero_exponent_is_uniform() {
        let z = Zipf::new(10, 0.0);
        for i in 0..10 {
            assert!((z.pmf(i) - 0.1).abs() < 1e-9);
        }
    }

    #[test]
    fn samples_follow_pmf_roughly() {
        let z = Zipf::new(20, 1.0);
        let mut rng = StdRng::seed_from_u64(5);
        let mut counts = [0u32; 20];
        let n = 200_000;
        for _ in 0..n {
            counts[z.sample(&mut rng)] += 1;
        }
        for i in [0usize, 1, 5, 19] {
            let emp = f64::from(counts[i]) / n as f64;
            let theory = z.pmf(i);
            assert!(
                (emp - theory).abs() < 0.01,
                "rank {i}: empirical {emp} vs {theory}"
            );
        }
    }

    #[test]
    fn power_law_support_respected() {
        let p = BoundedPowerLaw::new(2, 50, 1.8);
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..10_000 {
            let d = p.sample(&mut rng);
            assert!((2..=50).contains(&d));
        }
    }

    #[test]
    fn calibration_hits_target_mean() {
        for target in [3.0f64, 7.7, 20.0] {
            let alpha = BoundedPowerLaw::calibrate_alpha(2, 1200, target);
            let mean = BoundedPowerLaw::new(2, 1200, alpha).mean();
            assert!(
                (mean - target).abs() < 0.05,
                "target {target}: got mean {mean} (alpha {alpha})"
            );
        }
    }

    #[test]
    fn empirical_mean_matches_table_mean() {
        let p = BoundedPowerLaw::new(1, 100, 1.5);
        let mut rng = StdRng::seed_from_u64(7);
        let n = 100_000;
        let sum: u64 = (0..n).map(|_| p.sample(&mut rng)).sum();
        let emp = sum as f64 / n as f64;
        assert!((emp - p.mean()).abs() < 0.1, "{emp} vs {}", p.mean());
    }
}
