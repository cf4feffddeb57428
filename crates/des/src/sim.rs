//! The simulation driver: a clock plus an event queue.
//!
//! [`Simulator`] is driven *schedule-and-drain*: the owner schedules
//! typed events with [`Simulator::schedule_at`], takes every event due by
//! an instant with [`Simulator::drain_until`] (which moves the clock to
//! that instant), handles them, and schedules follow-ups at or after it.
//! This avoids callback-style borrow tangles and keeps the control flow
//! of an experiment readable top to bottom.

use crate::event::EventQueue;
use crate::time::SimTime;

/// A discrete-event simulator over a user-chosen event type `E`.
///
/// The clock only moves when a window is drained (or on
/// [`Simulator::advance_to`]), and never moves backwards.
///
/// # Examples
///
/// ```
/// use coreda_des::sim::Simulator;
/// use coreda_des::time::{SimDuration, SimTime};
///
/// #[derive(Debug, PartialEq)]
/// enum Ev { Ping, Pong }
///
/// let mut sim = Simulator::new();
/// sim.schedule_at(SimTime::from_secs(1), Ev::Ping);
/// let mut window = Vec::new();
/// // Drain one second at a time; every Ping is answered a second later.
/// while let Some(due) = sim.next_due() {
///     sim.drain_until(due, &mut window);
///     for (_, ev) in window.drain(..) {
///         if ev == Ev::Ping {
///             sim.schedule_at(sim.now() + SimDuration::from_secs(1), Ev::Pong);
///         }
///     }
/// }
/// assert_eq!(sim.now(), SimTime::from_secs(2));
/// assert_eq!(sim.processed(), 2);
/// ```
#[derive(Debug)]
pub struct Simulator<E> {
    queue: EventQueue<E>,
    now: SimTime,
    processed: u64,
    max_pending: usize,
}

impl<E> Simulator<E> {
    /// Creates a simulator with the clock at [`SimTime::ZERO`], backed by
    /// the timing-wheel [`EventQueue`].
    #[must_use]
    pub fn new() -> Self {
        Simulator { queue: EventQueue::new(), now: SimTime::ZERO, processed: 0, max_pending: 0 }
    }

    /// The current simulation instant.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total number of events processed so far.
    #[must_use]
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// High-water mark of the pending-event count: the deepest the
    /// queue has ever been. A dispatch-span gauge for telemetry — note
    /// it depends on how homes are sharded onto simulators, so it is
    /// *not* a jobs-invariant quantity.
    #[must_use]
    pub fn max_pending(&self) -> usize {
        self.max_pending
    }

    /// Schedules `event` at the absolute instant `due`.
    ///
    /// # Panics
    ///
    /// Panics if `due` is in the past (before [`Simulator::now`]); scheduling
    /// into the past would make the clock non-monotonic.
    pub fn schedule_at(&mut self, due: SimTime, event: E) {
        assert!(
            due >= self.now,
            "cannot schedule into the past: due {due} < now {now}",
            now = self.now
        );
        self.queue.schedule_at(due, event);
        self.max_pending = self.max_pending.max(self.queue.len());
    }

    /// The due instant of the next pending event, without removing it.
    /// Callers that process many independent actors on one queue use this
    /// to find where the next window starts.
    #[must_use]
    pub fn next_due(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Removes every event due at or before `until`, appending them to
    /// `out` in dispatch order (`(due, seq)` FIFO), advances the clock to
    /// `until`, and counts each drained event as processed. Returns the
    /// number drained.
    ///
    /// This is the simulator's only way to take events out. The caller
    /// may re-group a window's events by actor and replay each actor's
    /// chain in due order, which is equivalent to handling the events
    /// one at a time as long as distinct actors never interact within
    /// the window. The window may be as long as the caller likes — the
    /// metro engine drains a whole segment between checkpoint stops at
    /// once — since follow-ups an actor spawns inside it are the caller's
    /// to serve inline (see [`Simulator::note_processed`]).
    ///
    /// # Panics
    ///
    /// Panics if `until` is before [`Simulator::now`].
    pub fn drain_until(&mut self, until: SimTime, out: &mut Vec<(SimTime, E)>) -> usize {
        assert!(
            until >= self.now,
            "cannot drain into the past: until {until} < now {now}",
            now = self.now
        );
        let n = self.queue.drain_until(until, out);
        self.now = until;
        self.processed += n as u64;
        n
    }

    /// Counts `n` extra events as processed. The serve path consumes
    /// some follow-up events inline, without routing them through the
    /// queue; this keeps [`Simulator::processed`] equal to what
    /// scheduling and draining every one of those events would report.
    pub fn note_processed(&mut self, n: u64) {
        self.processed += n;
    }

    /// Advances the clock to `instant` without processing events.
    ///
    /// # Panics
    ///
    /// Panics if an event is due before `instant` (it would be skipped), or
    /// if `instant` is in the past.
    pub fn advance_to(&mut self, instant: SimTime) {
        assert!(instant >= self.now, "cannot rewind the clock");
        if let Some(due) = self.queue.peek_time() {
            assert!(due >= instant, "advancing past a pending event due at {due}");
        }
        self.now = instant;
    }

    /// Borrows every pending event in dispatch order (`(time, seq)`
    /// FIFO) without removing anything: the queue, clock and counters
    /// are untouched. Re-scheduling the list (in this order) onto a
    /// fresh simulator reproduces the exact dispatch sequence, which is
    /// how checkpoint capture walks the pending set.
    pub fn iter_pending(&self) -> impl Iterator<Item = (SimTime, &E)> {
        self.queue.pending_in_order().into_iter().map(|(due, _, event)| (due, event))
    }
}

impl<E> Default for Simulator<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drains the window up to `until`, returning its events.
    fn window<E>(sim: &mut Simulator<E>, until: SimTime) -> Vec<(SimTime, E)> {
        let mut out = Vec::new();
        assert_eq!(sim.drain_until(until, &mut out), out.len());
        out
    }

    #[test]
    fn clock_follows_the_windows() {
        let mut sim = Simulator::new();
        sim.schedule_at(SimTime::from_secs(2), "b");
        sim.schedule_at(SimTime::from_secs(1), "a");
        assert_eq!(window(&mut sim, SimTime::from_secs(1)), vec![(SimTime::from_secs(1), "a")]);
        assert_eq!(sim.now(), SimTime::from_secs(1));
        assert_eq!(window(&mut sim, SimTime::from_secs(3)), vec![(SimTime::from_secs(2), "b")]);
        assert_eq!(sim.now(), SimTime::from_secs(3), "the clock lands on the window's end");
        assert_eq!(window(&mut sim, SimTime::from_secs(3)), vec![]);
        assert_eq!(sim.processed(), 2);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        let mut sim = Simulator::new();
        sim.schedule_at(SimTime::from_secs(1), ());
        window(&mut sim, SimTime::from_secs(1));
        sim.schedule_at(SimTime::ZERO, ());
    }

    #[test]
    #[should_panic(expected = "cannot drain into the past")]
    fn draining_into_past_panics() {
        let mut sim: Simulator<()> = Simulator::new();
        window(&mut sim, SimTime::from_secs(2));
        window(&mut sim, SimTime::from_secs(1));
    }

    #[test]
    fn advance_to_moves_clock_when_idle() {
        let mut sim: Simulator<()> = Simulator::new();
        sim.advance_to(SimTime::from_secs(30));
        assert_eq!(sim.now(), SimTime::from_secs(30));
    }

    #[test]
    #[should_panic(expected = "advancing past a pending event")]
    fn advance_to_cannot_skip_events() {
        let mut sim = Simulator::new();
        sim.schedule_at(SimTime::from_secs(1), ());
        sim.advance_to(SimTime::from_secs(2));
    }

    #[test]
    fn next_due_peeks_without_draining() {
        let mut sim = Simulator::new();
        assert_eq!(sim.next_due(), None);
        sim.schedule_at(SimTime::from_secs(2), "b");
        sim.schedule_at(SimTime::from_secs(1), "a");
        assert_eq!(sim.next_due(), Some(SimTime::from_secs(1)));
        assert_eq!(sim.next_due(), Some(SimTime::from_secs(1)), "peeking must not drain");
        assert_eq!(window(&mut sim, SimTime::from_secs(1)).len(), 1);
        assert_eq!(sim.next_due(), Some(SimTime::from_secs(2)));
    }

    #[test]
    fn iter_pending_matches_the_drain_without_disturbing_the_queue() {
        let mut sim: Simulator<u64> = Simulator::new();
        // Dues spread across wheel levels, the overflow heap, and
        // ties at one instant (seq order must survive the borrow).
        let dues = [5u64, 5, 0, 300, 70_000, 20_000_000, (1 << 33) + 5, 5];
        for (i, &d) in dues.iter().enumerate() {
            sim.schedule_at(SimTime::from_millis(d), i as u64);
        }
        assert_eq!(window(&mut sim, SimTime::ZERO), vec![(SimTime::ZERO, 2)]);
        sim.schedule_at(SimTime::from_millis(1), 99);
        let peeked: Vec<(SimTime, u64)> = sim.iter_pending().map(|(t, &e)| (t, e)).collect();
        assert_eq!(sim.processed(), 1, "iteration must not count as processing");
        assert_eq!(sim.now(), SimTime::ZERO, "iteration must not move the clock");
        let drained = window(&mut sim, SimTime::from_millis(u64::MAX));
        assert_eq!(peeked, drained, "borrowed order must equal dispatch order");
    }

    #[test]
    fn drain_until_advances_clock_and_counts_processed() {
        let mut sim = Simulator::new();
        sim.schedule_at(SimTime::from_millis(10), "a");
        sim.schedule_at(SimTime::from_millis(10), "b");
        sim.schedule_at(SimTime::from_millis(20), "c");
        sim.schedule_at(SimTime::from_millis(500), "late");
        assert_eq!(
            window(&mut sim, SimTime::from_millis(255)),
            vec![
                (SimTime::from_millis(10), "a"),
                (SimTime::from_millis(10), "b"),
                (SimTime::from_millis(20), "c"),
            ]
        );
        assert_eq!(sim.now(), SimTime::from_millis(255), "clock lands on the window end");
        assert_eq!(sim.processed(), 3);
        // Inline-consumed chain events count as processed too.
        sim.note_processed(2);
        assert_eq!(sim.processed(), 5);
        // The clock is at the window end, so scheduling follow-ups
        // inside the next window is legal.
        sim.schedule_at(SimTime::from_millis(300), "follow");
        assert_eq!(
            window(&mut sim, SimTime::from_millis(500)),
            vec![(SimTime::from_millis(300), "follow"), (SimTime::from_millis(500), "late")]
        );
        assert_eq!(sim.processed(), 7);
    }

    #[test]
    fn max_pending_tracks_the_high_water_mark() {
        let mut sim = Simulator::new();
        assert_eq!(sim.max_pending(), 0);
        for i in 1..=4 {
            sim.schedule_at(SimTime::from_secs(i), i);
        }
        assert_eq!(sim.max_pending(), 4);
        assert_eq!(window(&mut sim, SimTime::from_secs(4)).len(), 4);
        sim.schedule_at(SimTime::from_secs(5), 9);
        assert_eq!(sim.max_pending(), 4, "high-water mark survives the drain");
    }
}
