//! Heap bytes per home, measured and gated.
//!
//! A home's footprint sets a fleet's peak RSS and the pages its set-up
//! faults in, and a byte count does not drift with the host the way a
//! timing does. So this binary installs its own live/peak-tracking
//! allocator and measures two numbers at fixed seeds:
//!
//! - the marginal peak live heap per home: the peak of a whole batch run
//!   at [`LARGE`] homes minus the peak at [`SMALL`], over the homes
//!   between them, which cancels what a fleet pays once (trained planner
//!   templates, specs, the wheel's slots);
//! - the allocator calls per home that `ServeCtx::session` makes to build
//!   its arenas.
//!
//! One test per binary: the counters are process-wide, and nothing else
//! runs in this process while they count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use coreda_core::metro::{run_scale, MetroConfig, ServeCtx};
use coreda_des::time::SimDuration;

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);
/// Allocator calls (`alloc`, `alloc_zeroed`, `realloc`).
static CALLS: AtomicU64 = AtomicU64::new(0);

fn on_alloc(size: usize) {
    CALLS.fetch_add(1, Ordering::Relaxed);
    let live = LIVE_BYTES.fetch_add(size, Ordering::Relaxed) + size;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System` and
// returns its result, so `System`'s guarantees hold; the bookkeeping is
// relaxed atomic arithmetic, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(p, layout);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
            on_alloc(new_size);
        }
        q
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The two fleets whose peaks the per-home slope is taken between.
const SMALL: usize = 1_000;
const LARGE: usize = 3_000;

/// The gate, under 5 % above the measurement: 3,503 B and 4.02 calls
/// per home (a node vector and a channel vector per system). A per-home
/// copy of the 288 B system config would add 576 B; a 4-entry `HashMap`
/// takes two allocator calls where a `Vec` takes one.
const MAX_BYTES_PER_HOME: f64 = 3_650.0;
const MAX_CALLS_PER_HOME: f64 = 4.2;

/// `batch_100k`'s fleet shape at `homes` homes: its horizon of `gap_min`
/// plus 80 s, seed 2007, one worker.
fn fleet(homes: usize) -> MetroConfig {
    let defaults = MetroConfig::default();
    MetroConfig {
        homes,
        horizon: defaults.gap_min + SimDuration::from_secs(80),
        seed: 2007,
        jobs: 1,
        ..defaults
    }
}

/// Peak live heap while `f` runs, above the live level it started at.
fn peak_during(f: impl FnOnce()) -> usize {
    let start = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(start, Ordering::Relaxed);
    f();
    PEAK_BYTES.load(Ordering::Relaxed) - start
}

#[test]
fn a_home_stays_within_its_byte_and_allocation_budget() {
    let small = peak_during(|| drop(run_scale(&fleet(SMALL))));
    let large = peak_during(|| drop(run_scale(&fleet(LARGE))));
    #[allow(clippy::cast_precision_loss)]
    let bytes_per_home = large.saturating_sub(small) as f64 / (LARGE - SMALL) as f64;

    let cfg = fleet(LARGE);
    let ctx = ServeCtx::new(cfg.clone()).expect("small fleets fit");
    let before = CALLS.load(Ordering::Relaxed);
    let session = ctx.session(0, cfg.homes, false, false);
    let calls = CALLS.load(Ordering::Relaxed) - before;
    drop(session);
    #[allow(clippy::cast_precision_loss)]
    let calls_per_home = calls as f64 / cfg.homes as f64;

    eprintln!("{bytes_per_home:.0} B and {calls_per_home:.2} allocator calls per home");
    assert!(
        bytes_per_home <= MAX_BYTES_PER_HOME,
        "marginal peak heap {bytes_per_home:.0} B per home ({small} B at {SMALL} homes, \
         {large} B at {LARGE}) exceeds the budget of {MAX_BYTES_PER_HOME} B"
    );
    assert!(
        calls_per_home <= MAX_CALLS_PER_HOME,
        "ServeCtx::session made {calls} allocator calls for {LARGE} homes = \
         {calls_per_home:.2} per home (budget {MAX_CALLS_PER_HOME})"
    );
}
