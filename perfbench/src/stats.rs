//! Order statistics, a least-squares slope, and the seeded generator the
//! workloads derive their inputs from.

/// SplitMix64: a fixed, portable stream, so a seed names the same inputs
/// on every machine.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The `k`-th value derived from `seed`, independent of every other `k`.
pub fn derive(seed: u64, k: u64) -> u64 {
    Rng::new(seed ^ k.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) by nearest rank; `0` for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// The median: the mean of the two middle samples for an even count.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Slope of `y` over `x` between the medians of the lowest and the
/// highest quarter of the points by `x`: unlike least squares, a few
/// slow outliers cannot swing it. `0` when `x` does not vary.
pub fn slope(points: &[(f64, f64)]) -> f64 {
    let xs: Vec<f64> = points.iter().map(|p| p.0).collect();
    let (low, high) = (quantile(&xs, 0.25), quantile(&xs, 0.75));
    let centre = |keep: &dyn Fn(f64) -> bool| {
        let (x, y): (Vec<f64>, Vec<f64>) = points.iter().filter(|p| keep(p.0)).copied().unzip();
        (median(&x), median(&y))
    };
    let (x0, y0) = centre(&|x| x <= low);
    let (x1, y1) = centre(&|x| x >= high);
    ratio(y1 - y0, x1 - x0)
}

/// `a / b`, or `0` when `b` is zero.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let s = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&s), 3.0);
        assert_eq!(median(&[1.0, 2.0]), 1.5);
        assert_eq!(quantile(&s, 0.5), 3.0);
        assert_eq!(quantile(&s, 0.99), 5.0);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn slope_of_a_line() {
        let mut pts: Vec<(f64, f64)> =
            (0..40).map(|x| (f64::from(x % 10), 3.0 * f64::from(x % 10) + 7.0)).collect();
        assert!((slope(&pts) - 3.0).abs() < 1e-9);
        // One wild point moves a least-squares fit, not this one.
        pts.push((9.0, 1e6));
        assert!((slope(&pts) - 3.0).abs() < 1e-9);
        assert_eq!(slope(&[(1.0, 2.0), (1.0, 5.0)]), 0.0);
    }
}
