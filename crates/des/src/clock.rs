//! Pacing clocks: how fast simulated instants are allowed to arrive.
//!
//! The batch engine jumps straight from one due instant to the next —
//! virtual time costs nothing. An online server cannot: real traffic
//! arrives on the wall clock. [`Clock`] abstracts over the difference so
//! the *same* serving loop runs in both worlds:
//!
//! - [`SimClock`] never waits. Under it a served fleet is a pure
//!   function of its configuration and seed — bit-identical to the
//!   batch path — which is what deterministic tests and fuzzing run on.
//! - [`WallClock`] sleeps until each simulated instant's wall-clock
//!   image (`origin + due / speedup`). Simulation state is untouched by
//!   the choice: the clock only decides *when* a wake is served, never
//!   *what* it does.
//!
//! Besides waiting, a clock says how far simulated time may run right
//! now ([`Clock::servable`]): a serving loop drains only the wakes
//! already due, so none waits behind a later-due one while the server
//! keeps up.
//!
//! The determinism contract follows directly: everything derived from
//! simulation state (grids, telemetry, delivered records) is identical
//! under either clock; only wall-clock measurements (latency
//! histograms, throughput) differ.

use std::time::{Duration, Instant};

use crate::time::SimTime;

/// Maps simulated due instants onto real time.
pub trait Clock {
    /// Blocks until the simulated instant `due` may be served. Serving
    /// loops call this with non-decreasing instants; a late server asks
    /// for instants whose wall image has already passed, so
    /// implementations must not sleep for past instants.
    fn wait_until(&mut self, due: SimTime);

    /// The latest simulated instant servable now: every wake due at or
    /// before it may be served without waiting. A serving loop caps its
    /// drain window here, so a punctual server serves each wake as it
    /// falls due, and a late one (the instant has run ahead) serves its
    /// whole backlog in one window. Clocks that never wait return
    /// [`SimTime::MAX`], so their windows run to the next stop.
    fn servable(&self) -> SimTime;
}

/// The deterministic clock: never waits, virtual time jumps instantly.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimClock;

impl Clock for SimClock {
    fn wait_until(&mut self, _due: SimTime) {}

    fn servable(&self) -> SimTime {
        SimTime::MAX
    }
}

/// Real-time pacing: simulated instant `t` is served no earlier than
/// `origin + t / speedup` on the wall clock. Clones share the origin,
/// so every shard of a fleet paces against the same epoch.
#[derive(Debug, Clone, Copy)]
pub struct WallClock {
    origin: Instant,
    speedup: f64,
}

impl WallClock {
    /// A real-time clock (1 simulated ms per wall ms) starting now.
    #[must_use]
    pub fn new() -> WallClock {
        WallClock::with_speedup(1.0)
    }

    /// A clock running `speedup` times faster than real time.
    ///
    /// # Panics
    ///
    /// Panics unless `speedup` is finite and positive — a zero or
    /// negative rate would map every instant to the end of time.
    #[must_use]
    pub fn with_speedup(speedup: f64) -> WallClock {
        assert!(
            speedup.is_finite() && speedup > 0.0,
            "speedup must be finite and positive, got {speedup}"
        );
        WallClock { origin: Instant::now(), speedup }
    }

    /// Wall-clock duration since this clock's origin.
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.origin.elapsed()
    }

    /// The wall-clock offset at which `due` becomes servable.
    fn target(&self, due: SimTime) -> Duration {
        #[allow(clippy::cast_precision_loss)]
        Duration::from_secs_f64(due.as_millis() as f64 / 1000.0 / self.speedup)
    }
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::new()
    }
}

impl Clock for WallClock {
    fn wait_until(&mut self, due: SimTime) {
        let target = self.target(due);
        let elapsed = self.origin.elapsed();
        if let Some(remaining) = target.checked_sub(elapsed) {
            if !remaining.is_zero() {
                std::thread::sleep(remaining);
            }
        }
    }

    /// The simulated image of the wall time elapsed since the origin.
    fn servable(&self) -> SimTime {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let ms = (self.origin.elapsed().as_secs_f64() * 1000.0 * self.speedup) as u64;
        SimTime::from_millis(ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_clock_never_waits() {
        let start = Instant::now();
        let mut clock = SimClock;
        clock.wait_until(SimTime::from_millis(u64::MAX / 2));
        assert!(start.elapsed() < Duration::from_millis(50));
        assert_eq!(clock.servable(), SimTime::MAX);
    }

    #[test]
    fn wall_clock_paces_to_the_scaled_instant() {
        let mut clock = WallClock::with_speedup(1000.0);
        // 2 simulated seconds at 1000x = 2 wall ms.
        clock.wait_until(SimTime::from_millis(2_000));
        assert!(clock.elapsed() >= Duration::from_millis(2));
        // The awaited instant is now servable (up to the 1 ms floor of
        // the float round trip), and nothing past the image of the wall
        // time elapsed is.
        let servable = clock.servable();
        assert!(servable >= SimTime::from_millis(1_999), "{servable:?}");
        let image_ms = clock.elapsed().as_secs_f64() * 1000.0 * 1000.0;
        assert!(servable.as_millis() as f64 <= image_ms, "{servable:?} vs {image_ms} ms");
    }

    #[test]
    fn wall_clock_does_not_sleep_for_past_instants() {
        let mut clock = WallClock::with_speedup(1_000_000.0);
        clock.wait_until(SimTime::from_millis(1));
        let before = clock.elapsed();
        clock.wait_until(SimTime::from_millis(1));
        assert!(clock.elapsed() - before < Duration::from_millis(50));
    }

    #[test]
    fn clones_share_the_origin() {
        let clock = WallClock::with_speedup(50.0);
        let copy = clock;
        assert_eq!(clock.origin, copy.origin);
    }

    #[test]
    #[should_panic(expected = "speedup must be finite and positive")]
    fn zero_speedup_is_rejected() {
        let _ = WallClock::with_speedup(0.0);
    }
}
