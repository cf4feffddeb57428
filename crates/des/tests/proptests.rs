//! Property-based tests for the simulation kernel invariants.

use coreda_des::event::HeapEventQueue;
use coreda_des::prelude::*;
use proptest::prelude::*;

/// Dues spanning every wheel regime: same-tick ties and near dues
/// (level 0), mid-range dues that cascade down from higher levels, and
/// far-future dues beyond the 2^32 ms wheel horizon (overflow heap).
fn due_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..2_000,
        0u64..(1 << 20),
        0u64..(1 << 36),
    ]
}

/// Every event due by `until`, from one drain.
fn window<E>(q: &mut EventQueue<E>, until: u64) -> Vec<(SimTime, E)> {
    let mut out = Vec::new();
    q.drain_until(SimTime::from_millis(until), &mut out);
    out
}

proptest! {
    /// One window drains every event due by its bound, in non-decreasing
    /// time order, whatever the insertion order.
    #[test]
    fn queue_drains_sorted(
        times in proptest::collection::vec(0u64..1_000_000, 1..200),
        until in 0u64..1_000_000,
    ) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule_at(SimTime::from_millis(t), i);
        }
        let drained = window(&mut q, until);
        prop_assert_eq!(drained.len(), times.iter().filter(|&&t| t <= until).count());
        prop_assert!(drained.windows(2).all(|w| w[0].0 <= w[1].0));
        prop_assert_eq!(q.len(), times.len() - drained.len());
    }

    /// Equal-time events preserve insertion (FIFO) order, across windows.
    #[test]
    fn queue_fifo_on_ties(
        groups in proptest::collection::vec((0u64..100, 1usize..5), 1..50),
        cut in 0u64..100,
    ) {
        let mut q = EventQueue::new();
        let mut idx = 0usize;
        for &(t, n) in &groups {
            for _ in 0..n {
                q.schedule_at(SimTime::from_millis(t), idx);
                idx += 1;
            }
        }
        let mut by_time = window(&mut q, cut);
        by_time.extend(window(&mut q, 100));
        prop_assert_eq!(by_time.len(), idx);
        // Within one timestamp, payload indices must be increasing.
        for w in by_time.windows(2) {
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1);
            }
        }
    }

    /// The simulator clock is monotone over any schedule drained in any
    /// windows, and every event is processed exactly once.
    #[test]
    fn simulator_clock_monotone(
        delays in proptest::collection::vec(0u64..10_000, 1..100),
        steps in proptest::collection::vec(0u64..3_000, 1..20),
    ) {
        let mut sim = Simulator::new();
        for &d in &delays {
            sim.schedule_at(SimTime::from_millis(d), d);
        }
        let mut out = Vec::new();
        let mut last = SimTime::ZERO;
        for &step in steps.iter().chain(&[10_000]) {
            sim.drain_until(sim.now() + SimDuration::from_millis(step), &mut out);
            prop_assert!(sim.now() >= last);
            prop_assert!(out.iter().all(|&(due, _)| due <= sim.now()), "an event outran the clock");
            last = sim.now();
        }
        prop_assert_eq!(out.len(), delays.len());
        prop_assert_eq!(sim.processed(), delays.len() as u64);
        prop_assert_eq!(sim.next_due(), None);
    }

    /// Identically seeded RNGs produce identical streams; substreams are
    /// reproducible.
    #[test]
    fn rng_determinism(seed in any::<u64>(), domain_idx in 0u64..32) {
        let mut a = SimRng::seed_from(seed);
        let mut b = SimRng::seed_from(seed);
        for _ in 0..8 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
        let root = SimRng::seed_from(seed);
        let mut s1 = root.substream("d", domain_idx);
        let mut s2 = root.substream("d", domain_idx);
        prop_assert_eq!(s1.next_u64(), s2.next_u64());
    }

    /// Same-tick bursts drain FIFO from the wheel even when the burst is
    /// split across a cascade: half of it is filed high in the wheel and
    /// cascaded by a window that ends just short of it, the other half
    /// is scheduled after that cascade.
    #[test]
    fn wheel_fifo_survives_cascades(tie_due in (1u64 << 16)..(1 << 24), n in 2usize..20) {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(tie_due);
        for i in 0..n / 2 {
            q.schedule_at(t, i);
        }
        q.schedule_at(SimTime::from_millis(1), usize::MAX);
        prop_assert_eq!(window(&mut q, tie_due - 1), vec![(SimTime::from_millis(1), usize::MAX)]);
        for i in n / 2..n {
            q.schedule_at(t, i);
        }
        prop_assert_eq!(window(&mut q, tie_due), (0..n).map(|i| (t, i)).collect::<Vec<_>>());
        prop_assert!(q.is_empty());
    }

    /// Time arithmetic: (t + d) - t == d for in-range values.
    #[test]
    fn time_add_sub_roundtrip(t in 0u64..u64::MAX / 4, d in 0u64..u64::MAX / 4) {
        let t = SimTime::from_millis(t);
        let d = SimDuration::from_millis(d);
        prop_assert_eq!((t + d) - t, d);
        prop_assert_eq!((t + d) - d, t);
    }

    /// The proof of order: the wheel and the reference heap drain
    /// identical windows, window by window, under interleaved
    /// scheduling — same-tick FIFO ties, cascades between levels, and
    /// windows cut anywhere across the 2^32 ms horizon, where the
    /// overflow heap refills the wheel. Each round schedules at or after
    /// the last window's bound (an epoch's follow-up wakes), as the
    /// simulator requires, and then drains a window; both queues must
    /// agree on the next due before every window, and on everything left
    /// at the end.
    #[test]
    fn wheel_and_heap_drain_identical_windows(
        rounds in proptest::collection::vec(
            (proptest::collection::vec(due_strategy(), 0..40), due_strategy()),
            1..12,
        ),
    ) {
        let mut wheel = EventQueue::new();
        let mut heap = HeapEventQueue::new();
        let mut bound = 0u64;
        let mut seq = 0usize;
        let mut from_wheel = Vec::new();
        let mut from_heap = Vec::new();
        for (dues, until) in rounds {
            for due in dues {
                let due = SimTime::from_millis(bound + due);
                wheel.schedule_at(due, seq);
                heap.schedule_at(due, seq);
                seq += 1;
            }
            prop_assert_eq!(wheel.peek_time(), heap.peek_time());
            bound += until;
            let until = SimTime::from_millis(bound);
            let n = wheel.drain_until(until, &mut from_wheel);
            prop_assert_eq!(n, heap.drain_until(until, &mut from_heap));
            prop_assert_eq!(&from_wheel, &from_heap);
            prop_assert!(from_wheel.iter().all(|&(due, _)| due <= until), "a window crossed its bound");
            prop_assert_eq!(wheel.len(), heap.len());
        }
        let rest = SimTime::from_millis(u64::MAX);
        wheel.drain_until(rest, &mut from_wheel);
        heap.drain_until(rest, &mut from_heap);
        prop_assert_eq!(from_wheel.len(), seq);
        prop_assert_eq!(&from_wheel, &from_heap);
        prop_assert!(wheel.is_empty() && heap.is_empty());
    }

    /// Duplicate same-instant entries (the wake-dedup workload) all
    /// drain, FIFO within the tie — the consumer's dedup then collapses
    /// them as handling one event at a time would.
    #[test]
    fn duplicate_instants_drain_complete_and_fifo(
        due in due_strategy(),
        dupes in 2usize..12,
    ) {
        let t = SimTime::from_millis(due);
        let mut q = EventQueue::new();
        for i in 0..dupes {
            q.schedule_at(t, i);
        }
        let out = window(&mut q, due);
        prop_assert_eq!(out.len(), dupes, "a duplicate wake was lost");
        for (i, &(at, e)) in out.iter().enumerate() {
            prop_assert_eq!(at, t);
            prop_assert_eq!(e, i, "ties must stay FIFO");
        }
        prop_assert!(q.is_empty());
    }
}
