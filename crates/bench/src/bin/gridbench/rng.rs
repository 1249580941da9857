//! The benchmark's own seeded generator. Every input the product sees is
//! drawn from here, so changes to `workloads::campaign` or the kernel's
//! `SimRng` cannot move the load.

/// splitmix64: 64 bits of state, one multiply-xorshift round per draw.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in (0, 1]: never 0, so `ln` is always finite.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Exponential with the given mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * self.unit().ln()
    }

    /// Log-normal with the given median and log-space sigma (Box–Muller).
    pub fn log_normal(&mut self, median: f64, sigma: f64) -> f64 {
        let z = (-2.0 * self.unit().ln()).sqrt() * (std::f64::consts::TAU * self.unit()).cos();
        median * (sigma * z).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_draws_and_moments_are_plausible() {
        let draws = |seed| {
            let mut r = SplitMix64::new(seed);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draws(42), draws(42));
        assert_ne!(draws(42), draws(43));

        let mut r = SplitMix64::new(7);
        let n = 200_000;
        let mean = (0..n).map(|_| r.exp(1800.0)).sum::<f64>() / n as f64;
        assert!((mean - 1800.0).abs() < 20.0, "exp mean {mean}");
        let mut ln: Vec<f64> = (0..n).map(|_| r.log_normal(3600.0, 0.7)).collect();
        ln.sort_by(f64::total_cmp);
        let median = ln[n / 2];
        assert!((median - 3600.0).abs() < 40.0, "log-normal median {median}");
        let sigma = (ln[n * 84 / 100] / ln[n * 16 / 100]).ln() / 2.0;
        assert!((sigma - 0.7).abs() < 0.01, "log-normal sigma {sigma}");
    }
}
