//! Deterministic random number generation and the distributions used by the
//! workload and failure models.
//!
//! All randomness in a simulation flows from a single seeded [`SimRng`].
//! Handlers draw from it through [`crate::component::Ctx::rng`], and since
//! the event loop is single-threaded and deterministic, a seed fully
//! determines a run.

use crate::time::Duration;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// The simulation's random source. A thin wrapper around a seeded [`StdRng`]
/// plus the sampling helpers the grid models need.
#[derive(Clone, Debug)]
pub struct SimRng {
    inner: StdRng,
}

impl SimRng {
    /// Create a generator from a 64-bit seed.
    pub fn new(seed: u64) -> SimRng {
        SimRng {
            inner: StdRng::seed_from_u64(seed),
        }
    }

    /// Derive an independent child stream. Useful to give a subsystem its
    /// own stream so its draws don't perturb others when configurations
    /// change.
    pub fn fork(&mut self) -> SimRng {
        SimRng::new(self.inner.gen())
    }

    /// Uniform draw in `[0, 1)`.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.inner.gen::<f64>() < p
        }
    }

    /// Uniform integer in `[lo, hi)`. Panics if `lo >= hi`.
    #[inline]
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        self.inner.gen_range(lo..hi)
    }

    /// Uniform usize in `[0, n)`. Panics if `n == 0`.
    #[inline]
    pub fn index(&mut self, n: usize) -> usize {
        self.inner.gen_range(0..n)
    }

    /// Uniform float in `[lo, hi)`.
    #[inline]
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        self.inner.gen_range(lo..hi)
    }

    /// Exponential variate with the given mean (inverse-CDF method).
    pub fn exp_f64(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0);
        let u: f64 = self.inner.gen_range(f64::MIN_POSITIVE..1.0);
        -mean * u.ln()
    }

    /// Standard normal variate (Box–Muller).
    pub fn normal_f64(&mut self, mean: f64, std_dev: f64) -> f64 {
        let u1: f64 = self.inner.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = self.inner.gen::<f64>();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        mean + std_dev * z
    }

    /// Log-normal variate parameterized by the *median* and a shape sigma.
    /// Batch-job service times are classically heavy-tailed; log-normal is a
    /// standard fit for them.
    pub fn lognormal_f64(&mut self, median: f64, sigma: f64) -> f64 {
        debug_assert!(median > 0.0);
        let z = self.normal_f64(0.0, 1.0);
        median * (sigma * z).exp()
    }

    /// Bounded Pareto variate (heavy-tailed job sizes).
    pub fn pareto_f64(&mut self, min: f64, max: f64, alpha: f64) -> f64 {
        debug_assert!(min > 0.0 && max > min && alpha > 0.0);
        let u = self.inner.gen::<f64>();
        let lo = min.powf(-alpha);
        let hi = max.powf(-alpha);
        (lo - u * (lo - hi)).powf(-1.0 / alpha)
    }

    /// Sample a [`Duration`] from a [`Dist`].
    pub fn duration(&mut self, dist: &Dist) -> Duration {
        Duration::from_secs_f64(self.sample(dist))
    }

    /// Sample a raw value (interpreted in seconds for durations) from a
    /// [`Dist`].
    pub fn sample(&mut self, dist: &Dist) -> f64 {
        match *dist {
            Dist::Constant(v) => v,
            Dist::Uniform { lo, hi } => {
                if hi <= lo {
                    lo
                } else {
                    self.range_f64(lo, hi)
                }
            }
            Dist::Exp { mean } => self.exp_f64(mean),
            Dist::Normal { mean, std_dev } => self.normal_f64(mean, std_dev).max(0.0),
            Dist::LogNormal { median, sigma } => self.lognormal_f64(median, sigma),
            Dist::Pareto { min, max, alpha } => self.pareto_f64(min, max, alpha),
        }
    }

    /// Shuffle a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }
}

impl RngCore for SimRng {
    fn next_u32(&mut self) -> u32 {
        self.inner.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.inner.fill_bytes(dest)
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.inner.try_fill_bytes(dest)
    }
}

/// A named distribution, used throughout the workload generators and the
/// network / failure models so experiments can be configured declaratively.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Dist {
    /// Always the same value.
    Constant(f64),
    /// Uniform over `[lo, hi)`.
    Uniform {
        /// Inclusive lower bound.
        lo: f64,
        /// Exclusive upper bound.
        hi: f64,
    },
    /// Exponential with the given mean.
    Exp {
        /// The mean (1/rate).
        mean: f64,
    },
    /// Normal, truncated at zero when sampled as a duration.
    Normal {
        /// Location.
        mean: f64,
        /// Scale.
        std_dev: f64,
    },
    /// Log-normal parameterized by median and shape.
    LogNormal {
        /// The distribution's median (`exp(mu)`).
        median: f64,
        /// Shape parameter (sigma of the underlying normal).
        sigma: f64,
    },
    /// Bounded Pareto over `[min, max]` with tail index `alpha`.
    Pareto {
        /// Lower bound.
        min: f64,
        /// Upper bound.
        max: f64,
        /// Tail index (smaller = heavier tail).
        alpha: f64,
    },
}

impl Dist {
    /// The distribution's mean, where it has a closed form (used for
    /// reporting and for sizing experiments).
    pub fn mean(&self) -> f64 {
        match *self {
            Dist::Constant(v) => v,
            Dist::Uniform { lo, hi } => (lo + hi) / 2.0,
            Dist::Exp { mean } => mean,
            Dist::Normal { mean, .. } => mean,
            Dist::LogNormal { median, sigma } => median * (sigma * sigma / 2.0).exp(),
            Dist::Pareto { min, max, alpha } => {
                // Mean of the bounded Pareto on [min, max].
                if (alpha - 1.0).abs() < 1e-12 {
                    (max / min).ln() / (1.0 / min - 1.0 / max)
                } else {
                    min.powf(alpha) / (1.0 - (min / max).powf(alpha))
                        * (alpha / (alpha - 1.0))
                        * (1.0 / min.powf(alpha - 1.0) - 1.0 / max.powf(alpha - 1.0))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn fork_streams_differ() {
        let mut a = SimRng::new(7);
        let mut child = a.fork();
        let xs: Vec<u64> = (0..10).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..10).map(|_| child.next_u64()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(1);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-3.0));
        assert!(r.chance(2.0));
    }

    #[test]
    fn exponential_mean_close() {
        let mut r = SimRng::new(99);
        let n = 20_000;
        let mean = 5.0;
        let sum: f64 = (0..n).map(|_| r.exp_f64(mean)).sum();
        let m = sum / n as f64;
        assert!((m - mean).abs() < 0.2, "sample mean {m}");
    }

    #[test]
    fn normal_moments_close() {
        let mut r = SimRng::new(5);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal_f64(3.0, 2.0)).collect();
        let m = xs.iter().sum::<f64>() / n as f64;
        let v = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / n as f64;
        assert!((m - 3.0).abs() < 0.1, "mean {m}");
        assert!((v - 4.0).abs() < 0.3, "var {v}");
    }

    #[test]
    fn pareto_bounded() {
        let mut r = SimRng::new(12);
        for _ in 0..10_000 {
            let x = r.pareto_f64(1.0, 100.0, 1.2);
            assert!((1.0..=100.0).contains(&x), "{x}");
        }
    }

    #[test]
    fn duration_sampling_nonnegative() {
        let mut r = SimRng::new(3);
        let d = Dist::Normal {
            mean: 0.001,
            std_dev: 10.0,
        };
        for _ in 0..1000 {
            // Must clamp to zero rather than panic on negative draws.
            let _ = r.duration(&d);
        }
    }

    #[test]
    fn pareto_mean_formula_matches_samples() {
        let mut r = SimRng::new(21);
        let d = Dist::Pareto {
            min: 2.0,
            max: 200.0,
            alpha: 1.5,
        };
        let n = 100_000;
        let m: f64 = (0..n).map(|_| r.sample(&d)).sum::<f64>() / n as f64;
        let expect = d.mean();
        assert!(
            (m - expect).abs() / expect < 0.05,
            "sample mean {m}, analytic {expect}"
        );
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SimRng::new(4);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
