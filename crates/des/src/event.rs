//! Deterministic time-ordered event queues.
//!
//! Events scheduled for the same instant are delivered in the order they
//! were scheduled (FIFO), which keeps simulations reproducible regardless
//! of queue internals.
//!
//! A queue is driven schedule-and-drain: events go in with
//! `schedule_at`, and come out a window at a time through `drain_until`,
//! which takes every event due by an instant in `(due, seq)` order.
//! Two implementations share that contract:
//!
//! - [`EventQueue`] — a hierarchical timing wheel (bucketed calendar
//!   queue). Four levels of 256 slots cover dues up to 2³² ms ahead of
//!   the queue's cursor at 1 ms / 256 ms / ~65 s / ~4.7 h granularity;
//!   anything farther sits in an overflow heap until the cursor reaches
//!   its 2³²-ms block. A push is O(1), and a drain moves whole
//!   millisecond buckets, on the dense schedules a metro-scale serving
//!   run produces (thousands of homes ticking every 100 ms), where a
//!   binary heap pays O(log n) cache-missing compares per operation.
//! - [`HeapEventQueue`] — the original `BinaryHeap` implementation, kept
//!   only as the reference the wheel's order-equivalence tests compare
//!   against. No simulator runs on it.
//!
//! Both order events by `(due, seq)` where `seq` is a global insertion
//! counter, so they drain byte-identical windows (a property test in
//! `tests/proptests.rs` holds the wheel to that).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

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
        // BinaryHeap is a max-heap; reverse so the earliest (due, seq) is on top.
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
/// The wheel keeps a monotone *cursor*: the due of the last event drained,
/// the base of the last slot cascaded, or the start of the last overflow
/// block pulled in — never past the bound of the last drain. An event
/// lands at the lowest level whose granularity still separates it from
/// the cursor: level `l` holds dues whose bits above `8·(l+1)` equal the
/// cursor's, indexed by due bits `[8·l, 8·(l+1))`. When level 0 runs dry
/// the first occupied slot of the lowest non-empty level is *cascaded* —
/// its events are redistributed to finer levels — after the cursor
/// teleports to that slot's base, so quiet stretches cost a 4×4-word
/// bitmap scan instead of slot-by-slot stepping.
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
/// let mut out = Vec::new();
/// assert_eq!(q.drain_until(SimTime::from_secs(1), &mut out), 1);
/// // Scheduling at or after the last drain's bound keeps the order.
/// q.schedule_at(SimTime::from_secs(2), "tied");
/// q.drain_until(SimTime::from_secs(2), &mut out);
/// let order: Vec<&str> = out.iter().map(|&(_, e)| e).collect();
/// assert_eq!(order, ["sooner", "later", "tied"]);
/// assert!(q.is_empty());
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// `slots[l][s]` holds level `l`'s bucket `s`. Level-0 buckets hold a
    /// single exact due; higher buckets mix dues within their span.
    slots: Vec<Vec<Vec<Scheduled<E>>>>,
    /// One bit per slot, per level: non-empty buckets.
    occupancy: [[u64; OCC_WORDS]; LEVELS],
    /// Every wheel/overflow entry is at or after it.
    cursor: u64,
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
            overflow: BinaryHeap::new(),
            len: 0,
            next_seq: 0,
        }
    }

    /// Schedules `event` to fire at the absolute instant `due`.
    ///
    /// `due` must not precede the bound of the last
    /// [`drain_until`](Self::drain_until): the cursor may sit anywhere up
    /// to that bound, and an event filed behind it would drain out of
    /// order. Debug builds check `due` against the cursor.
    pub fn schedule_at(&mut self, due: SimTime, event: E) {
        debug_assert!(
            due.as_millis() >= self.cursor,
            "scheduled at {due}, behind the wheel's cursor at {cursor} ms",
            cursor = self.cursor
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        self.insert(Scheduled { due, seq, event });
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

    /// Removes every event with `due <= until` in one pass, appending
    /// them to `out` in dispatch order (`(due, seq)` FIFO), and returns
    /// how many were drained. This is the wheel's only way out: it moves
    /// whole level-0 buckets (a bucket holds one exact millisecond) with
    /// a single seq sort each, so draining a dense window costs
    /// O(drained) bucket work.
    pub fn drain_until(&mut self, until: SimTime, out: &mut Vec<(SimTime, E)>) -> usize {
        let start = out.len();
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
                // Cascade: advance the cursor to the slot's base,
                // redistribute its events to finer levels, re-examine.
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
    /// plus the overflow heap, so the cost is O(pending) — the
    /// checkpoint capture path uses this instead of draining and
    /// re-inserting the whole queue.
    pub(crate) fn pending_in_order(&self) -> Vec<(SimTime, u64, &E)> {
        let mut out: Vec<(SimTime, u64, &E)> = Vec::with_capacity(self.len);
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
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

// ---------------------------------------------------------------------------
// Binary-heap reference implementation
// ---------------------------------------------------------------------------

/// The original `BinaryHeap`-backed queue: the same schedule-and-drain
/// contract and dispatch order as [`EventQueue`], retained as the
/// order-equivalence reference the wheel's tests and proptests compare
/// against.
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

    /// Every event due by `until`, as `(due ms, event)`.
    fn drain<E>(q: &mut EventQueue<E>, until: u64) -> Vec<(u64, E)> {
        let mut out = Vec::new();
        let n = q.drain_until(SimTime::from_millis(until), &mut out);
        assert_eq!(n, out.len());
        out.into_iter().map(|(t, e)| (t.as_millis(), e)).collect()
    }

    #[test]
    fn drains_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(30), 3);
        q.schedule_at(SimTime::from_millis(10), 1);
        q.schedule_at(SimTime::from_millis(20), 2);
        assert_eq!(drain(&mut q, u64::MAX), vec![(10, 1), (20, 2), (30, 3)]);
    }

    #[test]
    fn same_instant_is_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(5);
        for i in 0..100 {
            q.schedule_at(t, i);
        }
        let order: Vec<i32> = drain(&mut q, 5_000).into_iter().map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn len_counts_pending_events() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule_at(SimTime::ZERO, 'a');
        q.schedule_at(SimTime::from_millis(9), 'b');
        assert_eq!(q.len(), 2);
        assert_eq!(drain(&mut q, 0), vec![(0, 'a')]);
        assert_eq!(q.len(), 1);
        drain(&mut q, 9);
        assert!(q.is_empty());
    }

    #[test]
    fn scheduling_between_windows_keeps_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(5), "a");
        q.schedule_at(SimTime::from_millis(1), "b");
        assert_eq!(drain(&mut q, 1), vec![(1, "b")]);
        q.schedule_at(SimTime::from_millis(2), "c");
        q.schedule_at(SimTime::from_millis(5), "d");
        assert_eq!(drain(&mut q, 5), vec![(2, "c"), (5, "a"), (5, "d")]);
    }

    #[test]
    fn far_future_events_cascade_between_levels() {
        // One due per wheel level plus one beyond the 2^32 ms horizon.
        let dues = [
            7u64,             // level 0
            300,              // level 1
            70_000,           // level 2
            20_000_000,       // level 3
            (1u64 << 33) + 5, // overflow
        ];
        let mut q = EventQueue::new();
        for (i, &d) in dues.iter().enumerate().rev() {
            q.schedule_at(SimTime::from_millis(d), i);
        }
        // One window per due: each cascades or refills down to exactly
        // its event, and a window ending just before a due takes nothing.
        for (i, &d) in dues.iter().enumerate() {
            assert_eq!(drain(&mut q, d - 1), vec![], "window before {d}");
            assert_eq!(q.peek_time(), Some(SimTime::from_millis(d)));
            assert_eq!(drain(&mut q, d), vec![(d, i)]);
        }
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn cascaded_ties_keep_fifo() {
        // Two events at a far-future instant plus a nearer one; a window
        // short of the far instant cascades its slot, and a third event
        // at that instant lands after the cascade.
        let far = 1u64 << 20;
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(far), "first");
        q.schedule_at(SimTime::from_millis(3), "near");
        q.schedule_at(SimTime::from_millis(far), "second");
        assert_eq!(drain(&mut q, far - 1), vec![(3, "near")]);
        q.schedule_at(SimTime::from_millis(far), "third");
        assert_eq!(drain(&mut q, far), vec![(far, "first"), (far, "second"), (far, "third")]);
    }

    #[test]
    fn overflow_entries_migrate_when_their_block_arrives() {
        let block = 1u64 << 32;
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(block + 10), "b");
        q.schedule_at(SimTime::from_millis(block + 5), "a");
        q.schedule_at(SimTime::from_millis(block + 10), "c"); // tie with "b"
        // After the jump into the overflow block, later inserts near the
        // cursor must not overtake still-pending same-block entries.
        assert_eq!(drain(&mut q, block + 5), vec![(block + 5, "a")]);
        q.schedule_at(SimTime::from_millis(block + 20), "d");
        assert_eq!(
            drain(&mut q, block + 20),
            vec![(block + 10, "b"), (block + 10, "c"), (block + 20, "d")]
        );
    }

    #[test]
    fn peek_time_matches_each_window_across_levels() {
        let mut q = EventQueue::new();
        for d in [9_999_999u64, 123, 70_000, (1 << 33) + 1, 0] {
            q.schedule_at(SimTime::from_millis(d), d);
        }
        while let Some(peeked) = q.peek_time() {
            let mut out = Vec::new();
            assert_eq!(q.drain_until(peeked, &mut out), 1);
            assert_eq!(out[0].0, peeked);
        }
        assert!(q.is_empty());
    }

    #[test]
    fn pending_in_order_matches_the_drain_without_popping() {
        let mut q = EventQueue::new();
        for (i, d) in [5u64, 5, 300, 70_000, 20_000_000, (1 << 33) + 5, 5].into_iter().enumerate() {
            q.schedule_at(SimTime::from_millis(d), i);
        }
        // A window that cascades, then a follow-up at its bound.
        drain(&mut q, 300);
        q.schedule_at(SimTime::from_millis(300), 99);
        let peeked: Vec<(u64, usize)> =
            q.pending_in_order().into_iter().map(|(t, _, &e)| (t.as_millis(), e)).collect();
        assert_eq!(q.len(), peeked.len(), "the borrow must not pop");
        assert_eq!(peeked, drain(&mut q, u64::MAX));
    }

    #[test]
    fn drain_until_leaves_later_events_untouched() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(10), "in");
        q.schedule_at(SimTime::from_millis(11), "out");
        assert_eq!(drain(&mut q, 10), vec![(10, "in")]);
        assert_eq!(q.len(), 1);
        assert_eq!(drain(&mut q, 11), vec![(11, "out")]);
        // Draining an empty queue is a no-op.
        assert_eq!(drain(&mut q, 1 << 40), vec![]);
    }

    #[test]
    fn drain_until_interleaves_with_scheduling() {
        let mut wheel = EventQueue::new();
        let mut heap = HeapEventQueue::new();
        // Each round schedules at or after the last window's bound, then
        // drains a window: both queues must hand out the same events.
        let rounds: [(&[u64], u64); 2] = [(&[3, 700], 400), (&[400, 800], 900)];
        let mut drained = Vec::new();
        for (round, &(dues, until)) in rounds.iter().enumerate() {
            for (i, &due) in dues.iter().enumerate() {
                wheel.schedule_at(SimTime::from_millis(due), (round, i));
                heap.schedule_at(SimTime::from_millis(due), (round, i));
            }
            let (mut a, mut b) = (Vec::new(), Vec::new());
            wheel.drain_until(SimTime::from_millis(until), &mut a);
            heap.drain_until(SimTime::from_millis(until), &mut b);
            assert_eq!(a, b, "round {round}");
            drained.extend(a.into_iter().map(|(t, e)| (t.as_millis(), e)));
        }
        assert_eq!(drained, vec![(3, (0, 0)), (400, (1, 0)), (700, (0, 1)), (800, (1, 1))]);
        assert!(wheel.is_empty() && heap.is_empty());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "behind the wheel's cursor")]
    fn scheduling_behind_the_cursor_is_caught_in_debug_builds() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(500), "mid");
        drain(&mut q, 500);
        q.schedule_at(SimTime::from_millis(100), "behind");
    }
}
