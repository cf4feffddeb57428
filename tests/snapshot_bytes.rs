//! Heap bytes of a fleet snapshot, measured and gated.
//!
//! Every home serves from its activity's trained planner template, so a
//! snapshot that copied the learned tables into each home would hold
//! thousands of copies of two tables. This binary installs its own
//! live/peak-tracking allocator and measures three numbers at
//! `batch_100k`'s fleet shape, seed 2007:
//!
//! - the marginal live heap per home of the snapshot a batch `run`
//!   captures at one stop: the live heap the snapshot holds at [`LARGE`]
//!   homes minus at [`SMALL`], over the homes between them, which cancels
//!   what a snapshot pays once (the templates' shared tables);
//! - the same for the snapshot `load_checkpoint` decodes from that
//!   snapshot's bytes;
//! - the peak heap `save_checkpoint` takes at one worker, over the bytes
//!   it returns.
//!
//! One test per binary: the counters are process-wide, and nothing else
//! runs in this process while they count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use coreda_core::checkpoint::{load_checkpoint, save_checkpoint};
use coreda_core::metro::{run, MetroConfig, RunSpec};
use coreda_des::time::{SimDuration, SimTime};

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

fn on_alloc(size: usize) {
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

/// The two fleets whose snapshots the per-home slope is taken between.
const SMALL: usize = 1_000;
const LARGE: usize = 3_000;

/// The gates, under 5 % above the measurements: 2,655 B per home
/// captured and 2,633 B decoded. A per-home copy of both learned tables
/// (values and visit counts) would add 6,400 B to each.
const MAX_CAPTURED_PER_HOME: f64 = 2_780.0;
const MAX_DECODED_PER_HOME: f64 = 2_760.0;
/// `save_checkpoint`'s peak heap over its output, at one worker
/// (measured 1.34x): the manifest buffer grows by doubling, so its
/// capacity stays under twice what it holds, and nothing else may be
/// held while it grows (a per-home blob or a copy made to freeze it).
const MAX_SAVE_PEAK_RATIO: f64 = 2.0;

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

fn live() -> usize {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// What `f` returns, and the live heap it holds once `f` has returned.
fn held<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let start = live();
    let value = f();
    let held = live() - start;
    (value, held)
}

/// What `f` returns, and the peak live heap while it ran, above the
/// live level it started at.
fn peak_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let start = live();
    PEAK_BYTES.store(start, Ordering::Relaxed);
    let value = f();
    (value, PEAK_BYTES.load(Ordering::Relaxed) - start)
}

/// One fleet's numbers.
struct Snapshot {
    /// Live heap of the snapshot `run` captured at the horizon.
    captured: usize,
    /// Live heap of the snapshot decoded from its bytes.
    decoded: usize,
    /// `save_checkpoint`'s peak heap at one worker.
    save_peak: usize,
    /// The bytes it returned.
    saved: usize,
}

fn measure(homes: usize) -> Snapshot {
    let cfg = fleet(homes);
    let stops = [SimTime::ZERO + cfg.horizon];
    let spec = RunSpec { stops: &stops, ..RunSpec::default() };
    let (snap, captured) =
        held(|| run(&cfg, &spec).expect("a fresh run cannot mismatch").checkpoints.remove(0));
    let (blob, save_peak) = peak_during(|| save_checkpoint(&snap, 1));
    let (back, decoded) = held(|| load_checkpoint(&blob, 1).expect("the bytes just written"));
    assert_eq!(back, snap, "the snapshot survives the codec");
    Snapshot { captured, decoded, save_peak, saved: blob.len() }
}

#[test]
fn a_snapshot_shares_what_the_fleet_shares() {
    // Whatever the first run initialises once stays out of the slope.
    measure(10);
    let small = measure(SMALL);
    let large = measure(LARGE);
    #[allow(clippy::cast_precision_loss)]
    let per_home = |small: usize, large: usize| {
        large.saturating_sub(small) as f64 / (LARGE - SMALL) as f64
    };
    let captured = per_home(small.captured, large.captured);
    let decoded = per_home(small.decoded, large.decoded);
    #[allow(clippy::cast_precision_loss)]
    let save_ratio = large.save_peak as f64 / large.saved as f64;

    eprintln!(
        "{captured:.0} B captured and {decoded:.0} B decoded per home; save_checkpoint peaked at \
         {} B for {} B ({save_ratio:.2}x)",
        large.save_peak, large.saved
    );
    assert!(
        captured <= MAX_CAPTURED_PER_HOME,
        "a captured snapshot holds {captured:.0} B per home ({} B at {SMALL} homes, {} B at \
         {LARGE}), over the budget of {MAX_CAPTURED_PER_HOME} B",
        small.captured,
        large.captured
    );
    assert!(
        decoded <= MAX_DECODED_PER_HOME,
        "a decoded snapshot holds {decoded:.0} B per home ({} B at {SMALL} homes, {} B at \
         {LARGE}), over the budget of {MAX_DECODED_PER_HOME} B",
        small.decoded,
        large.decoded
    );
    assert!(
        save_ratio <= MAX_SAVE_PEAK_RATIO,
        "save_checkpoint peaked at {} B to return {} B ({save_ratio:.2}x, budget \
         {MAX_SAVE_PEAK_RATIO}x)",
        large.save_peak,
        large.saved
    );
}
