//! The Linear Assignment Problem.
//!
//! Given an `n × n` cost matrix, find the permutation `σ` minimizing
//! `Σ cost[i][σ(i)]`. This is the kernel the paper's QAP campaign solved
//! 540 billion times; here it is the Hungarian algorithm in its O(n³)
//! shortest-augmenting-path form with dual potentials.

/// A solved assignment: `assignment[row] = column`, plus the optimal cost.
#[derive(Clone, Debug, PartialEq)]
pub struct LapSolution {
    /// Column chosen for each row.
    pub assignment: Vec<usize>,
    /// Total cost of the assignment.
    pub cost: f64,
}

/// Solve an `n × n` LAP. Panics if the matrix is not square (programming
/// error: the branch-and-bound always builds square reduced matrices).
///
/// ```
/// let cost = vec![
///     vec![4.0, 1.0, 3.0],
///     vec![2.0, 0.0, 5.0],
///     vec![3.0, 2.0, 2.0],
/// ];
/// let s = workloads::solve_lap(&cost);
/// assert_eq!(s.cost, 5.0);
/// ```
pub fn solve_lap(cost: &[Vec<f64>]) -> LapSolution {
    let n = cost.len();
    assert!(
        cost.iter().all(|row| row.len() == n),
        "cost matrix must be square"
    );
    if n == 0 {
        return LapSolution {
            assignment: Vec::new(),
            cost: 0.0,
        };
    }
    // 1-indexed arrays per the classic formulation.
    let inf = f64::INFINITY;
    let mut u = vec![0.0f64; n + 1]; // row potentials
    let mut v = vec![0.0f64; n + 1]; // column potentials
    let mut p = vec![0usize; n + 1]; // p[col] = row matched to col (0 = none)
    let mut way = vec![0usize; n + 1];
    for i in 1..=n {
        p[0] = i;
        let mut j0 = 0usize;
        let mut minv = vec![inf; n + 1];
        let mut used = vec![false; n + 1];
        loop {
            used[j0] = true;
            let i0 = p[j0];
            let mut delta = inf;
            let mut j1 = 0usize;
            for j in 1..=n {
                if used[j] {
                    continue;
                }
                let cur = cost[i0 - 1][j - 1] - u[i0] - v[j];
                if cur < minv[j] {
                    minv[j] = cur;
                    way[j] = j0;
                }
                if minv[j] < delta {
                    delta = minv[j];
                    j1 = j;
                }
            }
            for j in 0..=n {
                if used[j] {
                    u[p[j]] += delta;
                    v[j] -= delta;
                } else {
                    minv[j] -= delta;
                }
            }
            j0 = j1;
            if p[j0] == 0 {
                break;
            }
        }
        // Augment along the alternating path.
        loop {
            let j1 = way[j0];
            p[j0] = p[j1];
            j0 = j1;
            if j0 == 0 {
                break;
            }
        }
    }
    let mut assignment = vec![0usize; n];
    for j in 1..=n {
        if p[j] != 0 {
            assignment[p[j] - 1] = j - 1;
        }
    }
    let total: f64 = assignment
        .iter()
        .enumerate()
        .map(|(i, &j)| cost[i][j])
        .sum();
    LapSolution {
        assignment,
        cost: total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute_force(cost: &[Vec<f64>]) -> f64 {
        fn go(cost: &[Vec<f64>], row: usize, used: &mut Vec<bool>, acc: f64, best: &mut f64) {
            let n = cost.len();
            if row == n {
                if acc < *best {
                    *best = acc;
                }
                return;
            }
            for j in 0..n {
                if !used[j] {
                    used[j] = true;
                    go(cost, row + 1, used, acc + cost[row][j], best);
                    used[j] = false;
                }
            }
        }
        let mut best = f64::INFINITY;
        go(cost, 0, &mut vec![false; cost.len()], 0.0, &mut best);
        best
    }

    #[test]
    fn trivial_cases() {
        assert_eq!(solve_lap(&[]).cost, 0.0);
        let one = solve_lap(&[vec![7.0]]);
        assert_eq!(one.assignment, vec![0]);
        assert_eq!(one.cost, 7.0);
    }

    #[test]
    fn known_instance() {
        // Classic 3x3: optimal is 5 (0->1, 1->0, 2->2).
        let cost = vec![
            vec![4.0, 1.0, 3.0],
            vec![2.0, 0.0, 5.0],
            vec![3.0, 2.0, 2.0],
        ];
        let s = solve_lap(&cost);
        assert_eq!(s.cost, 5.0);
        // Assignment is a permutation.
        let mut seen = [false; 3];
        for &j in &s.assignment {
            assert!(!seen[j]);
            seen[j] = true;
        }
    }

    #[test]
    fn identity_is_optimal_for_diagonal_dominance() {
        // Strongly diagonal-favoring matrix.
        let n = 6;
        let cost: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                (0..n)
                    .map(|j| if i == j { 0.0 } else { 10.0 + (i + j) as f64 })
                    .collect()
            })
            .collect();
        let s = solve_lap(&cost);
        assert_eq!(s.cost, 0.0);
        assert_eq!(s.assignment, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn matches_brute_force_on_random_instances() {
        let mut rng = gridsim::rng::SimRng::new(99);
        for n in 2..=6 {
            for _ in 0..20 {
                let cost: Vec<Vec<f64>> = (0..n)
                    .map(|_| (0..n).map(|_| rng.range_u64(0, 100) as f64).collect())
                    .collect();
                let fast = solve_lap(&cost).cost;
                let slow = brute_force(&cost);
                assert!(
                    (fast - slow).abs() < 1e-9,
                    "n={n}: hungarian {fast} != brute {slow} for {cost:?}"
                );
            }
        }
    }

    #[test]
    fn handles_negative_costs() {
        let cost = vec![vec![-5.0, 2.0], vec![3.0, -4.0]];
        let s = solve_lap(&cost);
        assert_eq!(s.cost, -9.0);
    }
}
