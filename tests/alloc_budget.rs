//! Heap allocations on the serving hot path, counted and gated.
//!
//! A wake that allocates pays the allocator and scatters the home's
//! working set, and an allocation count does not drift with the host the
//! way a timing does. So this binary installs its own counting allocator
//! and serves a fixed-seed fleet through the public chain API: one
//! warm-up segment (every buffer reaches its steady capacity), then a
//! second segment whose allocator calls must stay under
//! [`MAX_ALLOCS_PER_TICK`] per 100 ms pipeline tick.
//!
//! One test per binary: the counter is armed per thread, and nothing
//! else runs in this process while it is.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use coreda_core::metro::{collect_served, run_scale, MetroConfig, ServeCtx, ServeSession};
use coreda_des::time::{SimDuration, SimTime};
use coreda_des::Clock;

/// Allocator calls (`alloc`, `alloc_zeroed`, `realloc`) made on a thread
/// while its [`ARMED`] flag is set.
static CALLS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        CALLS.fetch_add(1, Ordering::Relaxed);
    }
}

struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System` and
// returns its result, so `System`'s guarantees hold; the bookkeeping is
// a relaxed atomic add and a read of a const-initialised thread-local
// `Cell`, neither of which allocates or unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(p, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The gate. A pipeline tick itself needs no heap: what is left comes
/// per episode (its buffers and their growth, ~5–6 calls) and per
/// reminder (one prompt text), ~0.012 calls per tick at this seed.
const MAX_ALLOCS_PER_TICK: f64 = 0.05;

/// Ends the first window at the warm-up instant: a late server's view of
/// a backlog that stops there.
struct WarmUp(SimTime);

impl Clock for WarmUp {
    fn wait_until(&mut self, _due: SimTime) {}

    fn servable(&self) -> SimTime {
        self.0
    }
}

#[test]
fn a_steady_state_tick_stays_within_the_allocation_budget() {
    let warm = SimTime::from_secs(1800);
    let cfg = MetroConfig {
        homes: 100,
        horizon: SimDuration::from_secs(3600),
        seed: 2007,
        jobs: 1,
        ..MetroConfig::default()
    };
    let ctx = ServeCtx::new(cfg.clone()).expect("small fleets fit");
    let mut session = ctx.session(0, cfg.homes, false, false);
    let mut due = Vec::new();
    let mut deliveries = Vec::new();
    let mut serve_window = |session: &mut ServeSession<'_>, due: &[u32]| {
        for &home in due {
            while let Some(now) = session.next_wake(home) {
                session.serve_wake(home, now, false, &mut deliveries);
                deliveries.clear();
            }
        }
    };

    let first = session.next_epoch_on(&mut due, &mut WarmUp(warm));
    assert!(first.is_some_and(|t0| t0 <= warm), "the fleet must wake before {warm}");
    serve_window(&mut session, &due);

    ARMED.with(|armed| armed.set(true));
    while session.next_epoch(&mut due).is_some() {
        serve_window(&mut session, &due);
    }
    ARMED.with(|armed| armed.set(false));
    let calls = CALLS.load(Ordering::Relaxed);

    let (out, ..) = collect_served(&cfg, vec![session.finish()]);
    let warm_ticks =
        run_scale(&MetroConfig { horizon: SimDuration::from_secs(1800), ..cfg.clone() })
            .pipeline_ticks();
    let ticks = out.report.pipeline_ticks() - warm_ticks;
    assert!(ticks > 10_000, "the measured segment must serve real work, got {ticks} ticks");
    #[allow(clippy::cast_precision_loss)]
    let per_tick = calls as f64 / ticks as f64;
    assert!(
        per_tick < MAX_ALLOCS_PER_TICK,
        "{calls} allocator calls over {ticks} pipeline ticks = {per_tick:.4} per tick \
         (budget {MAX_ALLOCS_PER_TICK})"
    );
}
