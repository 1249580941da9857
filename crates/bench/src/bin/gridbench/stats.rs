//! Order statistics for the two kinds of sample the benchmark takes:
//! per-job sim times (thousands, nearest-rank percentiles) and per-run host
//! measurements (a handful, median and quartiles).

/// Nearest-rank percentile of an ascending slice: the smallest element with
/// at least `p` of the sample at or below it. `p` in (0, 1].
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median and quartiles of a small sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
    /// (the exclusive method), so spreads computed here agree with the
    /// driver's. A single value is its own quartiles.
    pub fn of(values: &[f64]) -> Summary {
        let x = sorted(values.to_vec());
        let n = x.len();
        assert!(n > 0, "summary of an empty sample");
        if n == 1 {
            return Summary {
                median: x[0],
                q1: x[0],
                q3: x[0],
                n,
            };
        }
        let cut = |i: usize| {
            let j = (i * (n + 1) / 4).clamp(1, n - 1);
            let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
            (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0
        };
        Summary {
            median: cut(2),
            q1: cut(1),
            q3: cut(3),
            n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        // 7 samples: p50 is the 4th, p99 the last.
        let v = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0];
        assert_eq!(percentile(&v, 0.5), 4.0);
        assert_eq!(percentile(&v, 0.99), 7.0);
        assert_eq!(percentile(&[9.0], 0.01), 9.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (1.5, 3.0, 4.5, 5));
        // statistics.quantiles([10,20,30,40], n=4) == [12.5, 25.0, 37.5]
        let s = Summary::of(&[10.0, 20.0, 30.0, 40.0]);
        assert_eq!((s.q1, s.median, s.q3), (12.5, 25.0, 37.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
    }
}
