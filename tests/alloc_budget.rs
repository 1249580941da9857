//! Heap allocations per job, pinned host-independently.
//!
//! Wall-clock says how fast this host ran a batch; allocator calls and
//! bytes requested say how much the job path *does*, and they repeat
//! exactly on any host. One lean campaign — 2,000 grid-universe jobs over a
//! 10-site harness testbed, run to completion — is counted by a wrapper
//! around the system allocator and held to half of what the same batch cost
//! before the job path stopped scanning and re-deriving (ISSUE 21).

use condor_g_suite::gridsim::prelude::*;
use condor_g_suite::harness::{build, SiteSpec, TestbedConfig};
use condor_g_suite::workloads::campaign::{CampaignDriver, CampaignSpec, DriverConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

/// `System`, counting calls and bytes requested while `COUNTING` is set.
struct Counting;

static COUNTING: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn note(bytes: usize) {
    // Statistics only: nothing is published through these.
    if COUNTING.load(Relaxed) {
        CALLS.fetch_add(1, Relaxed);
        BYTES.fetch_add(bytes as u64, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations for `alloc` are passed through.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const JOBS: u64 = 2_000;

/// What this batch cost at `da38018`, the parent of ISSUE 21's change,
/// measured by this very test: 860,989 calls and 43,828,713 bytes, or 430
/// calls and 21.9 KB a job (a debug build asks for one 42,000-byte block
/// more). The change itself measures 274,268 calls and 20,419,773 bytes.
/// The full-size `gridbench` batches, which queue far deeper, are counted
/// by an `LD_PRELOAD` shim instead; `CHANGES.md` has those.
const PARENT_CALLS: u64 = 860_989;
const PARENT_BYTES: u64 = 43_828_713;

#[test]
fn a_lean_grid_batch_stays_within_half_the_parents_allocations() {
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
        lean: true,
        proxy_lifetime: Duration::from_days(30),
        ..TestbedConfig::default()
    });
    let driver = CampaignDriver::new(tb.scheduler, &spec, DriverConfig::default());
    tb.world.add_component(tb.submit, "campaign", driver);

    COUNTING.store(true, Relaxed);
    let horizon = SimTime::ZERO + Duration::from_days(20);
    while CampaignDriver::done(&tb.world, tb.submit) + CampaignDriver::failed(&tb.world, tb.submit)
        < JOBS
        && tb.world.now() < horizon
    {
        let next = tb.world.now() + Duration::from_hours(6);
        tb.world.run_until(next);
    }
    COUNTING.store(false, Relaxed);

    assert_eq!(CampaignDriver::done(&tb.world, tb.submit), JOBS);
    let (calls, bytes) = (CALLS.load(Relaxed), BYTES.load(Relaxed));
    println!(
        "{calls} allocator calls, {bytes} bytes: {} calls and {} bytes a job",
        calls / JOBS,
        bytes / JOBS
    );
    assert!(
        calls * 2 <= PARENT_CALLS,
        "{calls} allocator calls is over half the parent's {PARENT_CALLS}"
    );
    assert!(
        bytes * 2 <= PARENT_BYTES,
        "{bytes} bytes requested is over half the parent's {PARENT_BYTES}"
    );
}
