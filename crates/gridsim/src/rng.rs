//! Deterministic random number generation and the distributions used by the
//! workload and failure models.
//!
//! All randomness in a simulation flows from a single seeded [`SimRng`].
//! Handlers draw from it through [`crate::component::Ctx::rng`], and since
//! the event loop is single-threaded and deterministic, a seed fully
//! determines a run.

use crate::time::Duration;

/// The simulation's random source: a xoshiro256++ generator seeded through
/// SplitMix64, plus the sampling helpers the grid models need.
#[derive(Clone, Debug)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Create a generator from a 64-bit seed.
    pub fn new(mut seed: u64) -> SimRng {
        let mut s = [0u64; 4];
        for word in &mut s {
            seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            *word = z ^ (z >> 31);
        }
        // xoshiro cannot leave the all-zero state.
        if s == [0; 4] {
            s = [
                0x9E37_79B9_7F4A_7C15,
                0x6A09_E667_F3BC_C909,
                0xBB67_AE85_84CA_A73B,
                0x3C6E_F372_FE94_F82B,
            ];
        }
        SimRng { s }
    }

    /// The next 64 random bits.
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Derive an independent child stream. Useful to give a subsystem its
    /// own stream so its draws don't perturb others when configurations
    /// change.
    pub fn fork(&mut self) -> SimRng {
        SimRng::new(self.next_u64())
    }

    /// Uniform draw in `[0, 1)`: 53 random mantissa bits.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.f64() < p
        }
    }

    /// Uniform integer in `[lo, hi)`. Panics if `lo >= hi`.
    #[inline]
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "range_u64: empty range");
        lo + self.next_u64() % (hi - lo)
    }

    /// Uniform usize in `[0, n)`. Panics if `n == 0`.
    #[inline]
    pub fn index(&mut self, n: usize) -> usize {
        self.range_u64(0, n as u64) as usize
    }

    /// Uniform float in `[lo, hi)`. Panics unless `lo < hi`.
    #[inline]
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "range_f64: empty range");
        lo + self.f64() * (hi - lo)
    }

    /// Exponential variate with the given mean (inverse-CDF method).
    pub fn exp_f64(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0);
        let u = self.range_f64(f64::MIN_POSITIVE, 1.0);
        -mean * u.ln()
    }

    /// Standard normal variate (Box–Muller).
    pub fn normal_f64(&mut self, mean: f64, std_dev: f64) -> f64 {
        let u1 = self.range_f64(f64::MIN_POSITIVE, 1.0);
        let u2 = self.f64();
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
        let u = self.f64();
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

    /// FNV-1a over the little-endian bytes of each word.
    fn fnv(words: impl Iterator<Item = u64>) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in words.flat_map(u64::to_le_bytes) {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
        h
    }

    /// 10,000 draws of every method from three seeds, folded into one hash
    /// per (seed, method) and pinned at `e025d0e`: every golden in the tree
    /// rests on these streams.
    #[test]
    fn draws_are_pinned() {
        type Draw = fn(&mut SimRng) -> u64;
        let methods: [(&str, Draw); 10] = [
            ("f64", |r| r.f64().to_bits()),
            ("chance", |r| r.chance(0.3) as u64),
            ("range_u64", |r| r.range_u64(17, 1_000_003)),
            ("index", |r| r.index(7) as u64),
            ("range_f64", |r| r.range_f64(-2.5, 40.0).to_bits()),
            ("exp_f64", |r| r.exp_f64(5.0).to_bits()),
            ("normal_f64", |r| r.normal_f64(3.0, 2.0).to_bits()),
            ("pareto_f64", |r| r.pareto_f64(1.0, 100.0, 1.2).to_bits()),
            ("fork", |r| r.fork().f64().to_bits()),
            ("shuffle", |r| {
                let mut v: [u64; 10] = std::array::from_fn(|i| i as u64);
                r.shuffle(&mut v);
                v.iter().fold(0, |acc, &x| acc << 4 | x)
            }),
        ];
        let pinned: [(u64, [u64; 10]); 3] = [
            (
                0,
                [
                    0x79fde057e83742c1,
                    0x3bad6b6372ca4785,
                    0xdbed06630bff9816,
                    0x8c91888a18707986,
                    0x3c5afc393387ad60,
                    0xcb5f8e85b3d4c420,
                    0x18f516b66be594fe,
                    0x0239c4cd03edbeab,
                    0x9f3de95a3a6c64bf,
                    0xe52aef4d433490b4,
                ],
            ),
            (
                42,
                [
                    0xcde863a75221876b,
                    0x703cb78933655ca5,
                    0xd459695bb3b3a0a8,
                    0x8306168670929ce6,
                    0x73032af39dc2c0e1,
                    0x30ff704d755da408,
                    0x9a57b06e0acad004,
                    0xe3adfdaadb799bce,
                    0x0808363ae9cb7d63,
                    0x4882a8f260d5af44,
                ],
            ),
            (
                u64::MAX,
                [
                    0x641aa11c588466ea,
                    0x37b8a8a6df5a3145,
                    0x74d9360830a01053,
                    0xaf2b6e755ec00de1,
                    0xd8dd2da050d33233,
                    0x8b7d6e434d691492,
                    0x4c038f52e1d8cee5,
                    0x2f32444066d35d4c,
                    0x98bc538b9d689dac,
                    0x103001b42b24ce13,
                ],
            ),
        ];
        let mut moved = Vec::new();
        for (seed, hashes) in pinned {
            for ((name, draw), want) in methods.iter().zip(hashes) {
                let mut r = SimRng::new(seed);
                let got = fnv((0..10_000).map(|_| draw(&mut r)));
                if got != want {
                    moved.push(format!("seed {seed}, {name}: {got:#018x}"));
                }
            }
        }
        assert!(moved.is_empty(), "{moved:#?}");
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
