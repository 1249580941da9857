//! `bench` — the experiment harness.
//!
//! One binary per paper artifact (see DESIGN.md §4 for the full index):
//!
//! | target            | reproduces |
//! |-------------------|------------|
//! | `exp_figure1`     | Figure 1: the remote-execution protocol ladder |
//! | `exp_figure2`     | Figure 2: the GlideIn execution path |
//! | `exp_qap`         | Experience 1: the ten-site QAP campaign |
//! | `exp_cms`         | Experience 2: the CMS pipeline |
//! | `exp_gcat`        | Experience 3: G-Cat streaming to MSS |
//! | `exp_two_phase`   | §3.2: exactly-once vs the one-phase baseline |
//! | `exp_fault_tolerance` | §4.2: the four failure classes × recovery on/off |
//! | `exp_credentials` | §4.3: expiry/hold/refresh vs MyProxy |
//! | `exp_glidein`     | §5: late binding vs direct queue commitment |
//! | `exp_broker`      | §4.4: MDS matchmaking broker vs static list |
//! | `exp_flocking`    | §7: Condor flocking baseline vs Condor-G |
//!
//! Plus Criterion benches (`cargo bench`) for the engine itself:
//! `classads_bench`, `sim_kernel`, `grid_protocols`.
//!
//! Run everything with `scripts/run_experiments.sh`; outputs are recorded
//! in EXPERIMENTS.md.

use workloads::stats::Table;

/// Render an experiment banner + table in the standard format.
pub fn report(experiment: &str, claim: &str, table: &Table) {
    println!("== {experiment} ==");
    println!("paper claim: {claim}");
    println!();
    println!("{}", table.render());
}

/// Parallel replication helper: run `f(seed)` for each seed on its own
/// thread (simulations are single-threaded; replications are not).
pub fn replicate<T: Send>(seeds: &[u64], f: impl Fn(u64) -> T + Sync) -> Vec<T> {
    let mut out: Vec<Option<T>> = seeds.iter().map(|_| None).collect();
    std::thread::scope(|scope| {
        for (slot, &seed) in out.iter_mut().zip(seeds) {
            let f = &f;
            scope.spawn(move || {
                *slot = Some(f(seed));
            });
        }
    });
    out.into_iter()
        .map(|v| v.expect("thread filled slot"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replicate_runs_all_seeds_in_order() {
        let out = replicate(&[1, 2, 3, 4], |s| s * 10);
        assert_eq!(out, vec![10, 20, 30, 40]);
    }
}
