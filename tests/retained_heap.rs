//! Resident heap per job, pinned host-independently.
//!
//! Peak RSS says how much memory this host's allocator kept; the bytes
//! still allocated when a batch settles say what the stack *holds* for the
//! jobs it ran, and they repeat exactly on any host. `alloc_budget`'s cell
//! (seed 21, 2,000 grid-universe jobs, 10 sites, 20 users) runs once per
//! retention under a wrapper around the system allocator that tracks live
//! bytes, and the growth from installing the campaign driver to the last
//! job settling is reported per job.
//!
//! Measured by this test: 1,304 bytes a job at full retention and 402
//! lean. At `17e9d43`, where the codec wrote every integer in eight fixed
//! bytes (four for a `u32`) and every length as a `u64`, it read 1,585 and
//! 402; varint integers and lengths are the difference. At `7230568`,
//! where each stable-store record was a 40-byte bucket with its key and its
//! value in two heap blocks, it read 1,912 and 403-414; one exact-size
//! block per record behind a 16-byte bucket is the difference. Earlier: 1,955 and 401 at `a5425bd`, before the
//! GridManager's and the scheduler's job maps became dense id tables and
//! the stable store a hash map per node. About one run in ten reads about
//! 10 more on one side: some hash tables are randomly seeded, and where a
//! table doubles can move by one doubling. At `6df8f3f`, where the
//! scheduler kept every finished job and the whole user log in memory
//! beside their stored copies, full retention read 3,093 (lean 401). The
//! full-retention bound sits between 1,304 and 1,585, so a codec that goes
//! back to fixed-width integers fails here, and so, by far, do a store
//! with two blocks per record and a scheduler that keeps finished jobs
//! again.

use condor_g_suite::gridsim::prelude::*;
use condor_g_suite::harness::{build, SiteSpec, TestbedConfig};
use condor_g_suite::workloads::campaign::{CampaignDriver, CampaignSpec, DriverConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering::Relaxed};

/// `System`, keeping a running total of the bytes allocated and not yet
/// freed.
struct Live;

static LIVE: AtomicI64 = AtomicI64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for Live {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Relaxed);
        // SAFETY: the caller's obligations for `alloc` are passed through.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as i64 - layout.size() as i64, Relaxed);
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Relaxed);
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Live = Live;

const JOBS: u64 = 2_000;

/// Live-heap growth per job over one settled batch at the given retention.
fn retained_bytes_per_job(lean: bool) -> i64 {
    let spec = CampaignSpec {
        seed: 21,
        jobs: JOBS,
        sites: 10,
        users: 20,
        duration: Duration::from_hours(4),
        mean_runtime_secs: 900.0,
        ..CampaignSpec::default()
    };
    let sites = spec
        .grid()
        .iter()
        .map(|s| SiteSpec::pbs(&s.name, s.cpus))
        .collect();
    let mut tb = build(TestbedConfig {
        seed: spec.seed,
        sites,
        lean,
        proxy_lifetime: Duration::from_days(30),
        ..TestbedConfig::default()
    });

    let before = LIVE.load(Relaxed);
    let driver = CampaignDriver::new(tb.scheduler, &spec, DriverConfig::default());
    tb.world.add_component(tb.submit, "campaign", driver);
    let horizon = SimTime::ZERO + Duration::from_days(20);
    while CampaignDriver::done(&tb.world, tb.submit) + CampaignDriver::failed(&tb.world, tb.submit)
        < JOBS
        && tb.world.now() < horizon
    {
        let next = tb.world.now() + Duration::from_hours(6);
        tb.world.run_until(next);
    }
    let after = LIVE.load(Relaxed);

    assert_eq!(
        CampaignDriver::done(&tb.world, tb.submit),
        JOBS,
        "lean={lean}"
    );
    (after - before) / JOBS as i64
}

/// One test, so no other test thread allocates while a batch is counted.
#[test]
fn settled_batch_retains_live_jobs_only() {
    let full = retained_bytes_per_job(false);
    let lean = retained_bytes_per_job(true);
    println!("retained heap per job: full {full} bytes, lean {lean} bytes");
    assert!(full < 1_450, "full retention holds {full} bytes a job");
    assert!(lean <= 450, "lean retention holds {lean} bytes a job");
}
