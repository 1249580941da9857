//! Campaign-scale tests: the streaming generator's determinism and the
//! lean testbed's bounded memory bookkeeping.

use condor_g_suite::harness::{Testbed, WanLinkSpec, WanTopology};
use condor_g_suite::workloads::campaign::CampaignSpec;
use condor_g_suite::workloads::farm::CellResult;
use support::cells::{run_campaign, run_cell};
use support::{assert_golden, campaign, Scratch};

mod support;

/// The value of a `RESULT` line's `name=` field.
fn field<'a>(result: &'a str, name: &str) -> &'a str {
    result
        .split_whitespace()
        .find_map(|f| f.strip_prefix(name)?.strip_prefix('='))
        .unwrap_or_else(|| panic!("no {name}= in {result}"))
}

/// Stable-store keys under `prefix`, summed over every node of the testbed.
fn keys_under(tb: &Testbed, prefix: &str) -> usize {
    let store = tb.world.store();
    std::iter::once(tb.submit)
        .chain(tb.sites.iter().flat_map(|s| [s.interface, s.cluster]))
        .map(|node| store.keys_with_prefix(node, prefix).len())
        .sum()
}

#[test]
fn same_seed_campaigns_are_byte_identical_scenarios() {
    // The generator is the scenario: two streams from one spec must match
    // byte for byte, across any mix of arrivals, sweeps and users.
    let spec = CampaignSpec {
        seed: 7,
        jobs: 50_000,
        sites: 30,
        users: 300,
        ..CampaignSpec::default()
    };
    let mut a = Vec::new();
    for j in spec.stream() {
        j.encode(&mut a);
    }
    let mut b = Vec::new();
    for j in spec.stream() {
        j.encode(&mut b);
    }
    assert_eq!(a, b, "same-seed streams diverged");
    assert_eq!(spec.grid(), spec.grid(), "same-seed grids diverged");
}

#[test]
fn lean_campaign_completes_and_reclaims_state() {
    // The one retention value reaches every layer: a lean run leaves no
    // per-job record anywhere once the campaign settles, a full run keeps
    // one per job in the queue, the GridManager and the JobManager logs.
    // And it changes no outcome: at every seed both retentions settle the
    // same jobs, with the same digest, at the same sim time.
    const JOBS: usize = 400;
    let per_job = ["condor_g/jane/job/", "gm/jane/job/", "gram/jm/"];
    for seed in [3, 11, 42] {
        let [lean, full] = [true, false].map(|lean| {
            let (r, tb) = run_campaign(seed, JOBS as u64, lean, None);
            assert_eq!(r.jobs_done + r.jobs_failed, 400, "lean={lean}: {r:?}");
            assert!(r.jobs_done >= 390, "lean={lean}: {r:?}");
            assert_ne!(r.digest, 0xcbf2_9ce4_8422_2325, "digest never advanced");
            let dedup: usize = tb
                .sites
                .iter()
                .map(|s| keys_under(&tb, &format!("gram/gk/{}/dedup/", s.name)))
                .sum();
            let staged = keys_under(&tb, "gassfs/condor_g/out/");
            if lean {
                for prefix in per_job {
                    assert_eq!(keys_under(&tb, prefix), 0, "lean run kept {prefix}");
                }
                assert_eq!(dedup, 0, "lean run kept dedup records");
                assert_eq!(staged, 0, "lean run kept staged output");
            } else {
                for prefix in per_job {
                    assert_eq!(keys_under(&tb, prefix), JOBS, "full run under {prefix}");
                }
                assert_eq!(dedup, JOBS, "full run's dedup records");
                // Only jobs with stdout stage any, but the prefix is live.
                assert!(staged > 0, "full run staged no output");
            }
            r
        });
        let outcome = |r: &CellResult| (r.jobs_done, r.jobs_failed, r.digest, r.sim_secs);
        assert_eq!(outcome(&lean), outcome(&full), "seed {seed}: lean vs full");
    }
}

#[test]
fn a_link_no_route_crosses_changes_nothing() {
    // A bulk transfer is a flow only where its route crosses a declared
    // link. Declaring a link that no site routes over leaves every
    // transfer a sized message: the same jobs settle with the same digest,
    // at the same sim time, through the same events.
    let wan = WanTopology {
        links: vec![WanLinkSpec {
            name: "wan".into(),
            capacity: 1e6,
            latency: 0.03,
        }],
        site_routes: vec![],
    };
    let [bare, linked] = [None, Some(wan)].map(|wan| {
        let (r, tb) = run_campaign(42, 400, true, wan);
        assert!(r.jobs_done >= 390, "{r:?}");
        let flows = tb.world.metrics().counter("net.flows_started");
        assert_eq!(flows, 0, "{r:?}");
        let outcome = (r.jobs_done, r.jobs_failed, r.digest, r.sim_secs);
        (outcome, tb.world.events_processed())
    });
    assert_eq!(bare, linked, "(done, failed, digest, sim_secs), events");
}

#[test]
fn campaign_binary_reproduces_the_recorded_digest() {
    // A kernel or protocol change that moves the digest must say why and
    // re-record the `campaign.2000.*` rows.
    let run = campaign("--jobs 2000 --sites 10 --users 50 --quiet").ok();
    let result = run.stdout.lines().last().unwrap_or_default();
    assert!(result.starts_with("RESULT jobs=2000 "), "{result}");
    assert_golden("campaign.2000.done", field(result, "done"));
    assert_golden("campaign.2000.failed", field(result, "failed"));
    assert_golden("campaign.2000.digest", field(result, "digest"));
}

#[test]
fn removed_flags_are_usage_errors() {
    // The kernel partition flag, the flags `--report-dir` replaced, and
    // the runtime knob nothing set.
    for flag in [
        "--shards",
        "--telemetry-out",
        "--telemetry-interval-mins",
        "--flight",
        "--flight-ring",
        "--flight-out",
        "--stuck-horizon-hours",
        "--mean-runtime-secs",
    ] {
        let run = campaign(&format!("{flag} 4 --jobs 10"));
        assert_eq!(run.code, Some(2), "{flag}");
        let err = &run.stderr;
        assert!(err.starts_with("usage: condor-g-campaign"), "{flag}: {err}");
        assert!(!err.contains(flag), "{err}");
    }
}

#[test]
fn sites_outside_the_grid_are_usage_errors() {
    // Also a report dir under a sweep, whose cells would race on its
    // files, and one that cannot be created: nothing is simulated.
    let uncreatable = format!("{}/Cargo.toml/x", env!("CARGO_MANIFEST_DIR"));
    for args in [
        "--sites 0 --dead-site 0 --jobs 10".to_string(),
        "--sites 2 --dead-site 5 --jobs 10".to_string(),
        "--sweep 2 --jobs 10 --report-dir sweep".to_string(),
        format!("--jobs 10 --report-dir {uncreatable}"),
    ] {
        let run = campaign(&args);
        assert_eq!(run.code, Some(2), "{args}");
        assert!(run.stdout.is_empty(), "{args} simulated");
        let err = &run.stderr;
        assert!(err.contains("usage: condor-g-campaign"), "{args}: {err}");
        assert!(
            !run.path("sweep").exists(),
            "a refused sweep created its report dir"
        );
    }
}

#[test]
fn unsettled_campaign_prints_its_result_and_exits_1() {
    // One site, dead from 30 minutes in: some jobs finish before it
    // goes, some fail, and the rest never reach a terminal state.
    let run = campaign("--jobs 50 --sites 1 --dead-site 0 --duration-hours 1 --quiet");
    let result = &run.stdout;
    assert_eq!(run.code, Some(1), "{result}");
    assert!(result.starts_with("RESULT jobs=50 "), "{result}");
    assert_golden("campaign.one_site_outage.done", field(result, "done"));
    assert_golden("campaign.one_site_outage.failed", field(result, "failed"));
    // Sweeps apply the same rule to the merged totals: with no in-flight
    // window no cell dispatches a job.
    let run = campaign("--sweep 2 --jobs 5 --sites 1 --max-inflight 0 --quiet");
    let result = &run.stdout;
    assert_eq!(run.code, Some(1), "{result}");
    assert!(
        result.starts_with("RESULT jobs=0 done=0 failed=0 "),
        "{result}"
    );
}

#[test]
fn campaign_runs_are_reproducible() {
    let a = run_cell(23, 300);
    let b = run_cell(23, 300);
    assert_eq!(a, b, "same seed, different outcome");
}

#[test]
#[cfg(target_os = "linux")]
fn telemetry_that_cannot_be_written_fails_the_run() {
    // Every write to /dev/full fails with ENOSPC: the run must name the
    // file it lost and exit 2.
    let dir = Scratch::new();
    let telemetry = dir.path().join("telemetry.jsonl");
    std::os::unix::fs::symlink("/dev/full", &telemetry).expect("symlink");
    let run = campaign(&format!(
        "--jobs 400 --sites 4 --users 20 --quiet --report-dir {}",
        dir.path().display()
    ));
    assert_eq!(run.code, Some(2), "stdout: {}", run.stdout);
    assert!(
        run.stderr.contains(&telemetry.display().to_string()),
        "{}",
        run.stderr
    );
    assert!(!run.stdout.contains("RESULT"), "{}", run.stdout);
}
