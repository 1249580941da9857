//! Heap allocations per job, pinned host-independently.
//!
//! Wall-clock says how fast this host ran a batch; allocator calls and
//! bytes requested say how much the job path *does*, and they repeat
//! exactly on any host. One lean campaign — 2,000 grid-universe jobs over a
//! 10-site harness testbed, run to completion — is counted by a wrapper
//! around the system allocator and held to half of what the same batch cost
//! before the job path stopped scanning and re-deriving (ISSUE 21). A
//! grid-weather tick, once every site is known, is held to none at all.

use condor_g_suite::gridsim::metrics::Metrics;
use condor_g_suite::gridsim::obs::SiteHealthTracker;
use condor_g_suite::gridsim::prelude::*;
use condor_g_suite::harness::{build, SiteSpec, TestbedConfig};
use condor_g_suite::workloads::campaign::{CampaignDriver, CampaignSpec, DriverConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// `System`, counting the calls and bytes a thread requests while its
/// `COUNTING` is set. Per thread, so the test harness's own threads and a
/// test running beside the counted one add nothing.
struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn note(bytes: usize) {
    if COUNTING.get() {
        CALLS.set(CALLS.get() + 1);
        BYTES.set(BYTES.get() + bytes as u64);
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

/// Run `f`, returning the allocator calls and bytes it asked for.
fn counted(f: impl FnOnce()) -> (u64, u64) {
    let before = (CALLS.get(), BYTES.get());
    COUNTING.set(true);
    f();
    COUNTING.set(false);
    (CALLS.get() - before.0, BYTES.get() - before.1)
}

const JOBS: u64 = 2_000;

/// What this batch cost at `da38018`, the parent of ISSUE 21's change,
/// measured by this very test: 860,989 calls and 43,828,713 bytes, or 430
/// calls and 21.9 KB a job (a debug build asks for one 42,000-byte block
/// more). The change itself measures 274,268 calls and 20,419,773 bytes;
/// `a5425bd` 273,327 and 19,009,837; since the job maps and the stable
/// store stopped being B-trees, 269,887 calls and 16,753,969 bytes; since
/// each site's weather handles are resolved on first write, inside the
/// counted window, 270,070 calls and 16,763,989 bytes (16,771,669 at
/// `7230568`); since a stable-store record is one exact-size block,
/// 260,869 calls and 17,058,095 bytes: a new record asks for one block
/// where it asked for two, but a rewrite that changes a value's length
/// asks for a whole new record, key included, where the old value's
/// spare capacity used to absorb it. Since the codec writes integers and
/// lengths as varints, 263,477 calls and 16,530,856 bytes: records are
/// smaller, but a value whose integers change width is a new length, so
/// more rewrites ask for a new record where they overwrote in place.
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

    let horizon = SimTime::ZERO + Duration::from_days(20);
    let (calls, bytes) = counted(|| {
        while CampaignDriver::done(&tb.world, tb.submit)
            + CampaignDriver::failed(&tb.world, tb.submit)
            < JOBS
            && tb.world.now() < horizon
        {
            let next = tb.world.now() + Duration::from_hours(6);
            tb.world.run_until(next);
        }
    });

    assert_eq!(CampaignDriver::done(&tb.world, tb.submit), JOBS);
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

/// The adaptive broker's health tracker reads every site's weather on each
/// GridManager tick. Once it has seen every site, a tick allocates
/// nothing: it formats no name, builds no row and sorts nothing.
#[test]
fn a_weather_tick_allocates_nothing_once_every_site_is_known() {
    let mut m = Metrics::new();
    for i in 0..50 {
        let site = m.site(&format!("site{i:03}"));
        m.add(site.submits, 3);
        m.add(site.completed, 2);
        m.add(site.commits, 3);
        m.gauge(&site.success_rate, SimTime::ZERO, 1.0);
        for wait in [30.0, 10.0, 20.0] {
            m.observe(&site.queue_wait, wait);
        }
    }
    let mut tracker = SiteHealthTracker::new();
    assert!(tracker.observe(&m, SimTime::ZERO).is_empty());
    let (calls, bytes) = counted(|| {
        for tick in 1..=100 {
            let transitions = tracker.observe(&m, SimTime::ZERO + Duration::from_secs(30 * tick));
            assert!(transitions.is_empty());
        }
    });
    assert_eq!((calls, bytes), (0, 0), "100 ticks over 50 known sites");
}
