//! The simulation driver: a clock plus an event queue.
//!
//! [`Simulator`] is intentionally *poll based*: the owner schedules typed
//! events and repeatedly calls [`Simulator::step`], handling each event and
//! scheduling follow-ups. This avoids callback-style borrow tangles and
//! keeps the control flow of an experiment readable top to bottom.

use crate::event::EventQueue;
use crate::time::{SimDuration, SimTime};

/// A discrete-event simulator over a user-chosen event type `E`.
///
/// The clock only moves when an event is popped, and never moves backwards.
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
/// sim.schedule_after(SimDuration::from_secs(1), Ev::Ping);
/// while let Some(ev) = sim.step() {
///     if ev == Ev::Ping && sim.now() < SimTime::from_secs(3) {
///         sim.schedule_after(SimDuration::from_secs(1), Ev::Pong);
///     }
/// }
/// assert_eq!(sim.now(), SimTime::from_secs(2));
/// ```
#[derive(Debug)]
pub struct Simulator<E> {
    queue: EventQueue<E>,
    now: SimTime,
    processed: u64,
    scheduled: u64,
    max_pending: usize,
}

impl<E> Simulator<E> {
    /// Creates a simulator with the clock at [`SimTime::ZERO`], backed by
    /// the timing-wheel [`EventQueue`].
    #[must_use]
    pub fn new() -> Self {
        Simulator {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            processed: 0,
            scheduled: 0,
            max_pending: 0,
        }
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

    /// Number of events still pending.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Total number of events ever scheduled.
    #[must_use]
    pub fn scheduled(&self) -> u64 {
        self.scheduled
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
        self.note_scheduled();
    }

    /// Schedules `event` to fire `delay` after the current instant.
    pub fn schedule_after(&mut self, delay: SimDuration, event: E) {
        self.queue.schedule_after(self.now, delay, event);
        self.note_scheduled();
    }

    fn note_scheduled(&mut self) {
        self.scheduled += 1;
        self.max_pending = self.max_pending.max(self.queue.len());
    }

    /// The due instant of the next pending event, without popping it.
    /// Callers that process many independent actors on one queue use this
    /// to collect every event sharing an instant into one batch and sweep
    /// the actors in memory order instead of queue order.
    #[must_use]
    pub fn next_due(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Advances the clock to the next event and returns it, or `None` when
    /// the queue is empty (the clock then stays where it is).
    pub fn step(&mut self) -> Option<E> {
        let (due, event) = self.queue.pop()?;
        debug_assert!(due >= self.now);
        self.now = due;
        self.processed += 1;
        Some(event)
    }

    /// Like [`Simulator::step`], but refuses to move the clock past
    /// `deadline`: an event due after it is left in the queue and the clock
    /// is advanced exactly to `deadline`.
    pub fn step_until(&mut self, deadline: SimTime) -> Option<E> {
        match self.queue.peek_time() {
            Some(due) if due <= deadline => self.step(),
            _ => {
                if deadline > self.now {
                    self.now = deadline;
                }
                None
            }
        }
    }

    /// Removes every event due at or before `until`, appending them to
    /// `out` in dispatch order (`(due, seq)` FIFO), advances the clock to
    /// `until`, and counts each drained event as processed. Returns the
    /// number drained.
    ///
    /// This is the epoch-tiled serve path: the caller re-groups the
    /// drained events by actor and replays each actor's chain in due
    /// order, which is equivalent to popping one event at a time as long
    /// as distinct actors never interact within the window.
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

    /// Counts `n` extra events as processed (and scheduled). The epoch
    /// serve path consumes some follow-up events inline, without routing
    /// them through the queue; this keeps [`Simulator::processed`] and
    /// [`Simulator::scheduled`] equal to what scheduling and popping
    /// every one of those events would report.
    pub fn note_processed(&mut self, n: u64) {
        self.scheduled += n;
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

    /// Drops every pending event.
    pub fn clear_pending(&mut self) {
        self.queue.clear();
    }

    /// Removes and returns every pending event in dispatch order
    /// (`(time, seq)` FIFO), without advancing the clock or counting the
    /// events as processed. This is the checkpoint path: the drained list
    /// can be re-scheduled onto this or a fresh simulator (in the returned
    /// order) to reproduce the exact dispatch sequence.
    pub fn drain_pending(&mut self) -> Vec<(SimTime, E)> {
        let mut out = Vec::with_capacity(self.queue.len());
        while let Some(entry) = self.queue.pop() {
            out.push(entry);
        }
        out
    }

    /// Borrows every pending event in dispatch order (`(time, seq)`
    /// FIFO) without removing anything: the queue, clock and counters
    /// are untouched. This is [`Simulator::drain_pending`] for readers —
    /// frequent checkpoint captures walk the pending set through this
    /// instead of draining and re-inserting the whole queue.
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

    #[test]
    fn clock_follows_events() {
        let mut sim = Simulator::new();
        sim.schedule_at(SimTime::from_secs(2), "b");
        sim.schedule_at(SimTime::from_secs(1), "a");
        assert_eq!(sim.step(), Some("a"));
        assert_eq!(sim.now(), SimTime::from_secs(1));
        assert_eq!(sim.step(), Some("b"));
        assert_eq!(sim.now(), SimTime::from_secs(2));
        assert_eq!(sim.step(), None);
        assert_eq!(sim.now(), SimTime::from_secs(2));
    }

    #[test]
    fn schedule_after_is_relative_to_now() {
        let mut sim = Simulator::new();
        sim.schedule_after(SimDuration::from_secs(5), 1);
        sim.step();
        sim.schedule_after(SimDuration::from_secs(5), 2);
        sim.step();
        assert_eq!(sim.now(), SimTime::from_secs(10));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        let mut sim = Simulator::new();
        sim.schedule_at(SimTime::from_secs(1), ());
        sim.step();
        sim.schedule_at(SimTime::ZERO, ());
    }

    #[test]
    fn step_until_respects_deadline() {
        let mut sim = Simulator::new();
        sim.schedule_at(SimTime::from_secs(10), "late");
        assert_eq!(sim.step_until(SimTime::from_secs(5)), None);
        assert_eq!(sim.now(), SimTime::from_secs(5));
        assert_eq!(sim.pending(), 1);
        assert_eq!(sim.step_until(SimTime::from_secs(10)), Some("late"));
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
    fn processed_counts_events() {
        let mut sim = Simulator::new();
        for i in 0..5 {
            sim.schedule_at(SimTime::from_secs(i), i);
        }
        while sim.step().is_some() {}
        assert_eq!(sim.processed(), 5);
    }

    #[test]
    fn next_due_peeks_without_popping() {
        let mut sim = Simulator::new();
        assert_eq!(sim.next_due(), None);
        sim.schedule_at(SimTime::from_secs(2), "b");
        sim.schedule_at(SimTime::from_secs(1), "a");
        assert_eq!(sim.next_due(), Some(SimTime::from_secs(1)));
        assert_eq!(sim.pending(), 2, "peeking must not pop");
        assert_eq!(sim.step(), Some("a"));
        assert_eq!(sim.next_due(), Some(SimTime::from_secs(2)));
    }

    #[test]
    fn clear_pending_empties_queue() {
        let mut sim = Simulator::new();
        sim.schedule_at(SimTime::from_secs(1), ());
        sim.clear_pending();
        assert_eq!(sim.step(), None);
    }

    #[test]
    fn drain_pending_preserves_dispatch_order_and_clock() {
        let mut sim = Simulator::new();
        sim.schedule_at(SimTime::from_secs(1), "first");
        sim.schedule_at(SimTime::from_secs(3), "late");
        sim.schedule_at(SimTime::from_secs(1), "second");
        assert_eq!(sim.step(), Some("first"));
        let drained = sim.drain_pending();
        assert_eq!(
            drained,
            vec![
                (SimTime::from_secs(1), "second"),
                (SimTime::from_secs(3), "late"),
            ]
        );
        assert_eq!(sim.now(), SimTime::from_secs(1), "drain must not move the clock");
        assert_eq!(sim.processed(), 1, "drained events are not processed");
        assert_eq!(sim.pending(), 0);
        // Rehydrating in drained order reproduces the dispatch sequence.
        for (due, ev) in drained {
            sim.schedule_at(due, ev);
        }
        assert_eq!(sim.step(), Some("second"));
        assert_eq!(sim.step(), Some("late"));
    }

    #[test]
    fn iter_pending_matches_drain_without_disturbing_the_queue() {
        let mut sim: Simulator<u64> = Simulator::new();
        // Dues spread across wheel levels, the overflow heap, and
        // ties at one instant (seq order must survive the borrow).
        let dues = [5u64, 5, 0, 300, 70_000, 20_000_000, (1 << 33) + 5, 5];
        for (i, &d) in dues.iter().enumerate() {
            sim.schedule_at(SimTime::from_millis(d), i as u64);
        }
        assert_eq!(sim.step(), Some(2)); // clock at 0
        sim.schedule_at(SimTime::from_millis(1), 99);
        let peeked: Vec<(SimTime, u64)> =
            sim.iter_pending().map(|(t, &e)| (t, e)).collect();
        assert_eq!(sim.pending(), peeked.len(), "iteration must not pop");
        assert_eq!(sim.processed(), 1);
        let drained = sim.drain_pending();
        assert_eq!(peeked, drained, "borrowed order must equal dispatch order");
    }

    #[test]
    fn drain_until_advances_clock_and_counts_processed() {
        let mut sim = Simulator::new();
        sim.schedule_at(SimTime::from_millis(10), "a");
        sim.schedule_at(SimTime::from_millis(10), "b");
        sim.schedule_at(SimTime::from_millis(20), "c");
        sim.schedule_at(SimTime::from_millis(500), "late");
        let mut out = Vec::new();
        assert_eq!(sim.drain_until(SimTime::from_millis(255), &mut out), 3);
        assert_eq!(
            out,
            vec![
                (SimTime::from_millis(10), "a"),
                (SimTime::from_millis(10), "b"),
                (SimTime::from_millis(20), "c"),
            ]
        );
        assert_eq!(sim.now(), SimTime::from_millis(255), "clock lands on the window end");
        assert_eq!(sim.processed(), 3);
        assert_eq!(sim.pending(), 1);
        // Inline-consumed chain events keep the one-pop-per-event counters.
        sim.note_processed(2);
        assert_eq!(sim.processed(), 5);
        assert_eq!(sim.scheduled(), 6);
        // The clock is at the window end, so scheduling follow-ups
        // inside the next window is legal.
        sim.schedule_at(SimTime::from_millis(300), "follow");
        assert_eq!(sim.step(), Some("follow"));
        assert_eq!(sim.step(), Some("late"));
    }

    #[test]
    fn max_pending_tracks_the_high_water_mark() {
        let mut sim = Simulator::new();
        assert_eq!(sim.max_pending(), 0);
        for i in 1..=4 {
            sim.schedule_at(SimTime::from_secs(i), i);
        }
        assert_eq!(sim.scheduled(), 4);
        assert_eq!(sim.max_pending(), 4);
        while sim.step().is_some() {}
        assert_eq!(sim.pending(), 0);
        sim.schedule_after(SimDuration::from_secs(1), 9);
        assert_eq!(sim.max_pending(), 4, "high-water mark survives the drain");
        assert_eq!(sim.scheduled(), 5);
    }
}
