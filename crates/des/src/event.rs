//! Deterministic time-ordered event queues.
//!
//! Events scheduled for the same instant are delivered in the order they
//! were scheduled (FIFO), which keeps simulations reproducible regardless
//! of queue internals.
//!
//! Two implementations, one contract — a min-priority queue keyed by
//! [`SimTime`] with FIFO tie-breaking at equal dues:
//!
//! - [`EventQueue`] — a hierarchical timing wheel (bucketed calendar
//!   queue). Four levels of 256 slots cover dues up to 2³² ms ahead of
//!   the queue's cursor at 1 ms / 256 ms / ~65 s / ~4.7 h granularity;
//!   anything farther sits in an overflow heap until the cursor reaches
//!   its 2³²-ms block. Push and pop are O(1) on the dense schedules a
//!   metro-scale serving run produces (thousands of homes ticking every
//!   100 ms), where a binary heap pays O(log n) cache-missing compares
//!   per operation.
//! - [`HeapEventQueue`] — the original `BinaryHeap` implementation, kept
//!   only as the reference the wheel's order-equivalence tests compare
//!   against. No simulator runs on it.
//!
//! Both order events by `(due, seq)` where `seq` is a global insertion
//! counter, so their dispatch orders are byte-identical (a property
//! test in `tests/proptests.rs` holds the wheel to that).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::{SimDuration, SimTime};

/// An entry in a queue: the payload plus its due time and a sequence
/// number used to break ties deterministically.
#[derive(Debug)]
struct Scheduled<E> {
    due: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse so the earliest (due, seq) pops first.
        (other.due, other.seq).cmp(&(self.due, self.seq))
    }
}

// ---------------------------------------------------------------------------
// Timing wheel
// ---------------------------------------------------------------------------

/// Bits per wheel level: 256 slots each.
const SLOT_BITS: u32 = 8;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Wheel levels. Level `l` spans dues sharing the cursor's bits above
/// `8·(l+1)`; beyond level 3 (2³² ms ≈ 49.7 days) events overflow to a heap.
const LEVELS: usize = 4;
/// `u64` words in one level's occupancy bitmap.
const OCC_WORDS: usize = SLOTS / 64;

/// A min-priority queue of events keyed by [`SimTime`], with FIFO
/// tie-breaking among events due at the same instant — implemented as a
/// hierarchical timing wheel.
///
/// The wheel keeps a monotone *cursor* (the due of the last event popped
/// from its slots). An event lands at the lowest level whose granularity
/// still separates it from the cursor: level `l` holds dues whose bits
/// above `8·(l+1)` equal the cursor's, indexed by due bits
/// `[8·l, 8·(l+1))`. When level 0 runs dry the first occupied slot of the
/// lowest non-empty level is *cascaded* — its events are redistributed to
/// finer levels — after the cursor teleports to that slot's base, so
/// quiet stretches cost a 4×4-word bitmap scan instead of slot-by-slot
/// stepping. Events scheduled before the cursor (the old heap allowed
/// that) go to a small "overdue" heap that always pops first, preserving
/// the global `(due, seq)` order of [`HeapEventQueue`] exactly.
///
/// # Examples
///
/// ```
/// use coreda_des::event::EventQueue;
/// use coreda_des::time::SimTime;
///
/// let mut q = EventQueue::new();
/// q.schedule_at(SimTime::from_secs(2), "later");
/// q.schedule_at(SimTime::from_secs(1), "sooner");
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1), "sooner")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(2), "later")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// `slots[l][s]` holds level `l`'s bucket `s`. Level-0 buckets hold a
    /// single exact due; higher buckets mix dues within their span.
    slots: Vec<Vec<Vec<Scheduled<E>>>>,
    /// One bit per slot, per level: non-empty buckets.
    occupancy: [[u64; OCC_WORDS]; LEVELS],
    /// Due of the last event popped from the wheel; every wheel/overflow
    /// entry is at or after it, every overdue entry strictly before.
    cursor: u64,
    /// Events scheduled with `due < cursor` (pops first, min (due, seq)).
    overdue: BinaryHeap<Scheduled<E>>,
    /// Events more than 2³² ms past the cursor's block.
    overflow: BinaryHeap<Scheduled<E>>,
    len: usize,
    next_seq: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            slots: (0..LEVELS).map(|_| (0..SLOTS).map(|_| Vec::new()).collect()).collect(),
            occupancy: [[0; OCC_WORDS]; LEVELS],
            cursor: 0,
            overdue: BinaryHeap::new(),
            overflow: BinaryHeap::new(),
            len: 0,
            next_seq: 0,
        }
    }

    /// Schedules `event` to fire at the absolute instant `due`.
    pub fn schedule_at(&mut self, due: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        self.insert(Scheduled { due, seq, event });
    }

    /// Schedules `event` to fire `delay` after `now`.
    pub fn schedule_after(&mut self, now: SimTime, delay: SimDuration, event: E) {
        self.schedule_at(now + delay, event);
    }

    /// The lowest level whose window around the cursor contains `due`,
    /// or `None` when `due` is beyond the wheel's 2³²-ms horizon.
    fn level_for(&self, due: u64) -> Option<usize> {
        (0..LEVELS).find(|&l| {
            let shift = SLOT_BITS * (l as u32 + 1);
            due >> shift == self.cursor >> shift
        })
    }

    fn insert(&mut self, s: Scheduled<E>) {
        let due = s.due.as_millis();
        if due < self.cursor {
            self.overdue.push(s);
            return;
        }
        match self.level_for(due) {
            Some(level) => {
                let slot = ((due >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
                self.slots[level][slot].push(s);
                self.occupancy[level][slot >> 6] |= 1u64 << (slot & 63);
            }
            None => self.overflow.push(s),
        }
    }

    /// The lowest non-empty level and its first occupied slot. Lower
    /// levels always hold earlier dues than higher ones, and within a
    /// level the slot order is the due order, so this is the bucket that
    /// contains the wheel's minimum.
    fn first_occupied(&self) -> Option<(usize, usize)> {
        for (level, words) in self.occupancy.iter().enumerate() {
            for (w, &bits) in words.iter().enumerate() {
                if bits != 0 {
                    return Some((level, (w << 6) | bits.trailing_zeros() as usize));
                }
            }
        }
        None
    }

    fn clear_bit(&mut self, level: usize, slot: usize) {
        self.occupancy[level][slot >> 6] &= !(1u64 << (slot & 63));
    }

    /// Jumps the cursor to the overflow's first 2³²-ms block and pulls
    /// every overflow entry of that block into the wheel. Called only
    /// when the wheel itself is empty, so the jump skips nothing.
    fn refill_from_overflow(&mut self) {
        let block = self.overflow.peek().expect("refill with empty overflow").due.as_millis()
            >> (SLOT_BITS * LEVELS as u32);
        self.cursor = block << (SLOT_BITS * LEVELS as u32);
        while let Some(top) = self.overflow.peek() {
            if top.due.as_millis() >> (SLOT_BITS * LEVELS as u32) != block {
                break;
            }
            let s = self.overflow.pop().expect("peeked entry exists");
            self.insert(s);
        }
    }

    /// Removes and returns the earliest event, with its due time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.len == 0 {
            return None;
        }
        // Overdue entries are strictly before the cursor, and the wheel
        // and overflow hold nothing before it — so they are the global
        // minimum, in (due, seq) heap order.
        if let Some(s) = self.overdue.pop() {
            self.len -= 1;
            return Some((s.due, s.event));
        }
        loop {
            let Some((level, slot)) = self.first_occupied() else {
                // The wheel is drained; teleport to the overflow's block.
                self.refill_from_overflow();
                continue;
            };
            if level == 0 {
                // A level-0 bucket is one exact millisecond; the minimum
                // (due, seq) entry is simply the minimum seq. Selecting by
                // scan (rather than keeping the bucket sorted) stays
                // correct however cascades and live inserts interleave.
                let bucket = &mut self.slots[0][slot];
                let best = bucket
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, s)| s.seq)
                    .map(|(i, _)| i)
                    .expect("occupied slot is non-empty");
                let s = bucket.swap_remove(best);
                if self.slots[0][slot].is_empty() {
                    self.clear_bit(0, slot);
                }
                self.cursor = s.due.as_millis();
                self.len -= 1;
                return Some((s.due, s.event));
            }
            // Cascade: advance the cursor to the slot's base and
            // redistribute its events to finer levels.
            let bucket = std::mem::take(&mut self.slots[level][slot]);
            self.clear_bit(level, slot);
            let upper_shift = SLOT_BITS * (level as u32 + 1);
            self.cursor = (self.cursor >> upper_shift << upper_shift)
                | ((slot as u64) << (SLOT_BITS * level as u32));
            for s in bucket {
                self.insert(s);
            }
        }
    }

    /// Removes every event with `due <= until` in one pass, appending
    /// them to `out` in dispatch order (`(due, seq)` FIFO), and returns
    /// how many were drained. Unlike the pop-loop equivalent this moves
    /// whole level-0 buckets (a bucket holds one exact millisecond) with
    /// a single seq sort each, so draining a dense epoch costs
    /// O(drained) bucket work instead of a min-seq scan per event.
    pub fn drain_until(&mut self, until: SimTime, out: &mut Vec<(SimTime, E)>) -> usize {
        let start = out.len();
        // Overdue entries are strictly before the cursor and therefore
        // before anything in the wheel or overflow: drain them first, in
        // (due, seq) heap order.
        while self.overdue.peek().is_some_and(|s| s.due <= until) {
            let s = self.overdue.pop().expect("peeked entry exists");
            self.len -= 1;
            out.push((s.due, s.event));
        }
        let until_ms = until.as_millis();
        while self.len > 0 {
            let Some((level, slot)) = self.first_occupied() else {
                // The wheel is empty; only overflow remains. Teleport into
                // its first block only if that block still starts at or
                // before `until`.
                if self.overflow.peek().is_some_and(|s| s.due <= until) {
                    self.refill_from_overflow();
                    continue;
                }
                break;
            };
            if level == 0 {
                // Level-0 buckets hold one exact due, so the whole bucket
                // drains together once sorted by seq.
                let due_ms = (self.cursor >> SLOT_BITS << SLOT_BITS) | slot as u64;
                if due_ms > until_ms {
                    break;
                }
                let bucket = &mut self.slots[0][slot];
                bucket.sort_unstable_by_key(|s| s.seq);
                self.len -= bucket.len();
                out.extend(bucket.drain(..).map(|s| (s.due, s.event)));
                self.clear_bit(0, slot);
                self.cursor = due_ms;
            } else {
                // The earliest due this slot can hold is its base; if even
                // that is past `until` the wheel holds nothing drainable
                // (lower levels are empty and later slots are later dues).
                let upper_shift = SLOT_BITS * (level as u32 + 1);
                let slot_base = (self.cursor >> upper_shift << upper_shift)
                    | ((slot as u64) << (SLOT_BITS * level as u32));
                if slot_base > until_ms {
                    break;
                }
                // Cascade exactly as `pop` would, then re-examine.
                let bucket = std::mem::take(&mut self.slots[level][slot]);
                self.clear_bit(level, slot);
                self.cursor = slot_base;
                for s in bucket {
                    self.insert(s);
                }
            }
        }
        out.len() - start
    }

    /// The due time of the earliest event, if any.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        if let Some(s) = self.overdue.peek() {
            return Some(s.due);
        }
        if let Some((level, slot)) = self.first_occupied() {
            if level == 0 {
                // Level-0 slots hold one exact due.
                let base = self.cursor >> SLOT_BITS << SLOT_BITS;
                return Some(SimTime::from_millis(base | slot as u64));
            }
            return self.slots[level][slot].iter().map(|s| s.due).min();
        }
        self.overflow.peek().map(|s| s.due)
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Every pending event as `(due, seq, &event)`, sorted into dispatch
    /// order, without disturbing the wheel. Walks the occupancy bitmaps
    /// plus the overdue/overflow heaps, so the cost is O(pending) — the
    /// checkpoint capture path uses this instead of draining and
    /// re-inserting the whole queue.
    pub(crate) fn pending_in_order(&self) -> Vec<(SimTime, u64, &E)> {
        let mut out: Vec<(SimTime, u64, &E)> = Vec::with_capacity(self.len);
        out.extend(self.overdue.iter().map(|s| (s.due, s.seq, &s.event)));
        for (level, words) in self.occupancy.iter().enumerate() {
            for (w, &bits) in words.iter().enumerate() {
                let mut b = bits;
                while b != 0 {
                    let slot = (w << 6) | b.trailing_zeros() as usize;
                    out.extend(
                        self.slots[level][slot].iter().map(|s| (s.due, s.seq, &s.event)),
                    );
                    b &= b - 1;
                }
            }
        }
        out.extend(self.overflow.iter().map(|s| (s.due, s.seq, &s.event)));
        out.sort_unstable_by_key(|&(due, seq, _)| (due, seq));
        out
    }

    /// Removes all pending events. The cursor (and with it the monotone
    /// ordering guarantee relative to already-popped events) is kept.
    pub fn clear(&mut self) {
        for (level, words) in self.occupancy.iter_mut().enumerate() {
            for (w, bits) in words.iter_mut().enumerate() {
                let mut b = *bits;
                while b != 0 {
                    let slot = (w << 6) | b.trailing_zeros() as usize;
                    self.slots[level][slot].clear();
                    b &= b - 1;
                }
                *bits = 0;
            }
        }
        self.overdue.clear();
        self.overflow.clear();
        self.len = 0;
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

// ---------------------------------------------------------------------------
// Binary-heap reference implementation
// ---------------------------------------------------------------------------

/// The original `BinaryHeap`-backed queue: same API and same dispatch
/// order as [`EventQueue`], retained as the order-equivalence reference
/// the wheel's tests and proptests compare against.
#[derive(Debug)]
pub struct HeapEventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
}

impl<E> HeapEventQueue<E> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        HeapEventQueue { heap: BinaryHeap::new(), next_seq: 0 }
    }

    /// Schedules `event` to fire at the absolute instant `due`.
    pub fn schedule_at(&mut self, due: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { due, seq, event });
    }

    /// Schedules `event` to fire `delay` after `now`.
    pub fn schedule_after(&mut self, now: SimTime, delay: SimDuration, event: E) {
        self.schedule_at(now + delay, event);
    }

    /// Removes and returns the earliest event, with its due time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|s| (s.due, s.event))
    }

    /// The due time of the earliest event, if any.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.due)
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Removes all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
    }

    /// Removes every event with `due <= until`, appending them to `out`
    /// in dispatch order (`(due, seq)` FIFO), and returns how many were
    /// drained.
    pub fn drain_until(&mut self, until: SimTime, out: &mut Vec<(SimTime, E)>) -> usize {
        let start = out.len();
        while self.heap.peek().is_some_and(|s| s.due <= until) {
            let s = self.heap.pop().expect("peeked entry exists");
            out.push((s.due, s.event));
        }
        out.len() - start
    }
}

impl<E> Default for HeapEventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(30), 3);
        q.schedule_at(SimTime::from_millis(10), 1);
        q.schedule_at(SimTime::from_millis(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn same_instant_is_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(5);
        for i in 0..100 {
            q.schedule_at(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn schedule_after_offsets_from_now() {
        let mut q = EventQueue::new();
        q.schedule_after(SimTime::from_secs(10), SimDuration::from_secs(3), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(13)));
    }

    #[test]
    fn len_and_clear() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule_at(SimTime::ZERO, 'a');
        q.schedule_at(SimTime::ZERO, 'b');
        assert_eq!(q.len(), 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn interleaved_schedule_and_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(5), "a");
        q.schedule_at(SimTime::from_millis(1), "b");
        assert_eq!(q.pop().unwrap().1, "b");
        q.schedule_at(SimTime::from_millis(2), "c");
        assert_eq!(q.pop().unwrap().1, "c");
        assert_eq!(q.pop().unwrap().1, "a");
    }

    #[test]
    fn far_future_events_cascade_between_levels() {
        let mut q = EventQueue::new();
        // One due per wheel level plus one beyond the 2^32 ms horizon.
        let dues = [
            7u64,                  // level 0
            300,                   // level 1
            70_000,                // level 2
            20_000_000,            // level 3
            (1u64 << 33) + 5,      // overflow
        ];
        for (i, &d) in dues.iter().enumerate().rev() {
            q.schedule_at(SimTime::from_millis(d), i);
        }
        let order: Vec<(u64, usize)> =
            std::iter::from_fn(|| q.pop().map(|(t, e)| (t.as_millis(), e))).collect();
        assert_eq!(
            order,
            dues.iter().copied().enumerate().map(|(i, d)| (d, i)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn cascaded_ties_keep_fifo() {
        // Two events at the same far-future instant plus a nearer one:
        // the far pair must survive its cascade in insertion order.
        let mut q = EventQueue::new();
        let far = SimTime::from_millis(1 << 20);
        q.schedule_at(far, "first");
        q.schedule_at(SimTime::from_millis(3), "near");
        q.schedule_at(far, "second");
        assert_eq!(q.pop().unwrap().1, "near");
        assert_eq!(q.pop().unwrap().1, "first");
        assert_eq!(q.pop().unwrap().1, "second");
    }

    #[test]
    fn scheduling_before_the_cursor_still_pops_in_global_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(1_000), "late");
        q.schedule_at(SimTime::from_millis(500), "mid");
        assert_eq!(q.pop().unwrap().1, "mid"); // cursor now at 500
        q.schedule_at(SimTime::from_millis(100), "overdue-b");
        q.schedule_at(SimTime::from_millis(50), "overdue-a");
        assert_eq!(q.pop().unwrap().1, "overdue-a");
        assert_eq!(q.pop().unwrap().1, "overdue-b");
        assert_eq!(q.pop().unwrap().1, "late");
        assert!(q.is_empty());
    }

    #[test]
    fn overflow_entries_migrate_when_their_block_arrives() {
        let mut q = EventQueue::new();
        let block = 1u64 << 32;
        q.schedule_at(SimTime::from_millis(block + 10), "b");
        q.schedule_at(SimTime::from_millis(block + 5), "a");
        q.schedule_at(SimTime::from_millis(block + 10), "c"); // tie with "b"
        // After the jump into the overflow block, later inserts near the
        // cursor must not overtake still-pending same-block entries.
        assert_eq!(q.pop().unwrap().1, "a");
        q.schedule_at(SimTime::from_millis(block + 20), "d");
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "c");
        assert_eq!(q.pop().unwrap().1, "d");
    }

    #[test]
    fn peek_time_matches_pop_across_levels() {
        let mut q = EventQueue::new();
        for d in [9_999_999u64, 123, 70_000, (1 << 33) + 1, 0] {
            q.schedule_at(SimTime::from_millis(d), d);
        }
        while let Some(peeked) = q.peek_time() {
            let (due, _) = q.pop().unwrap();
            assert_eq!(peeked, due);
        }
    }

    #[test]
    fn pending_in_order_sees_overdue_entries_first() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(1_000), "late");
        q.schedule_at(SimTime::from_millis(500), "mid");
        assert_eq!(q.pop().unwrap().1, "mid"); // cursor now at 500
        q.schedule_at(SimTime::from_millis(100), "overdue");
        let order: Vec<&str> = q.pending_in_order().into_iter().map(|(_, _, &e)| e).collect();
        assert_eq!(order, vec!["overdue", "late"]);
        assert_eq!(q.len(), 2, "the borrow must not pop");
    }

    #[test]
    fn drain_until_matches_a_pop_loop_across_levels() {
        // Dues spanning every wheel level, same-instant ties, an overdue
        // entry, and the 2^32 ms overflow boundary.
        let dues = [
            5u64,
            5,
            0,
            300,
            300,
            65_536,
            1 << 24,
            (1 << 32) - 1,
            (1 << 32) + 3,
            (1 << 33) + 7,
            100,
            5,
        ];
        for until in [0u64, 4, 5, 299, 300, 1 << 24, (1 << 32) - 1, (1 << 32) + 3, 1 << 34] {
            let mut drained_q = EventQueue::new();
            let mut popped_q = EventQueue::new();
            for (i, &d) in dues.iter().enumerate() {
                drained_q.schedule_at(SimTime::from_millis(d), i);
                popped_q.schedule_at(SimTime::from_millis(d), i);
            }
            // Make one entry overdue in both queues: pop past 100, then
            // schedule at 50.
            while popped_q.peek_time().unwrap() < SimTime::from_millis(300) {
                let (t, e) = popped_q.pop().unwrap();
                assert_eq!(drained_q.pop().unwrap(), (t, e));
            }
            drained_q.schedule_at(SimTime::from_millis(50), 99);
            popped_q.schedule_at(SimTime::from_millis(50), 99);

            let mut drained = Vec::new();
            let n = drained_q.drain_until(SimTime::from_millis(until), &mut drained);
            assert_eq!(n, drained.len());
            let mut by_pop = Vec::new();
            while popped_q.peek_time().is_some_and(|t| t <= SimTime::from_millis(until)) {
                by_pop.push(popped_q.pop().unwrap());
            }
            assert_eq!(drained, by_pop, "until={until}");
            assert_eq!(drained_q.len(), popped_q.len(), "until={until}");
            // Whatever remains pops identically.
            loop {
                let (a, b) = (drained_q.pop(), popped_q.pop());
                assert_eq!(a, b, "until={until}");
                if a.is_none() {
                    break;
                }
            }
        }
    }

    #[test]
    fn drain_until_leaves_later_events_untouched() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(10), "in");
        q.schedule_at(SimTime::from_millis(11), "out");
        let mut out = Vec::new();
        assert_eq!(q.drain_until(SimTime::from_millis(10), &mut out), 1);
        assert_eq!(out, vec![(SimTime::from_millis(10), "in")]);
        assert_eq!(q.len(), 1);
        // A drain before the earliest event takes nothing.
        assert_eq!(q.drain_until(SimTime::from_millis(5), &mut out), 0);
        assert_eq!(q.pop(), Some((SimTime::from_millis(11), "out")));
        // Draining an empty queue is a no-op.
        assert_eq!(q.drain_until(SimTime::from_millis(1 << 40), &mut out), 0);
    }

    #[test]
    fn drain_until_interleaves_with_scheduling() {
        let mut wheel = EventQueue::new();
        let mut heap = HeapEventQueue::new();
        wheel.schedule_at(SimTime::from_millis(3), 0);
        heap.schedule_at(SimTime::from_millis(3), 0);
        wheel.schedule_at(SimTime::from_millis(700), 1);
        heap.schedule_at(SimTime::from_millis(700), 1);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        wheel.drain_until(SimTime::from_millis(400), &mut a);
        heap.drain_until(SimTime::from_millis(400), &mut b);
        assert_eq!(a, b);
        assert_eq!(a, vec![(SimTime::from_millis(3), 0)]);
        // Schedule into the drained window (overdue path) and beyond.
        wheel.schedule_at(SimTime::from_millis(350), 2);
        heap.schedule_at(SimTime::from_millis(350), 2);
        wheel.schedule_at(SimTime::from_millis(800), 3);
        heap.schedule_at(SimTime::from_millis(800), 3);
        a.clear();
        b.clear();
        wheel.drain_until(SimTime::from_millis(900), &mut a);
        heap.drain_until(SimTime::from_millis(900), &mut b);
        assert_eq!(a, b);
        assert_eq!(
            a,
            vec![
                (SimTime::from_millis(350), 2),
                (SimTime::from_millis(700), 1),
                (SimTime::from_millis(800), 3),
            ]
        );
        assert!(wheel.is_empty() && heap.is_empty());
    }

    #[test]
    fn wheel_and_heap_agree_on_a_mixed_schedule() {
        let mut wheel = EventQueue::new();
        let mut heap = HeapEventQueue::new();
        let dues = [5u64, 5, 0, 300, 300, 65_536, 1 << 24, (1 << 32) + 3, 100, 5];
        for (i, &d) in dues.iter().enumerate() {
            wheel.schedule_at(SimTime::from_millis(d), i);
            heap.schedule_at(SimTime::from_millis(d), i);
        }
        loop {
            let (a, b) = (wheel.pop(), heap.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}
