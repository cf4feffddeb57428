//! Deterministic parallel fleet-training engine.
//!
//! The ROADMAP north-star is per-user retraining at fleet scale: every
//! sweep in `coreda-bench` runs a `configs × seeds` grid of *independent*
//! training jobs, and a production deployment runs one training job per
//! `(patient, seed, config)` triple. This module fans those jobs out over
//! a scoped worker pool while keeping the results **bit-identical to the
//! serial path at any worker count**.
//!
//! # Why results are worker-count-invariant
//!
//! Parallel numerics usually diverge because threads share a random
//! stream or reduce floating-point sums in arrival order. The fleet
//! engine forbids both by construction:
//!
//! 1. **Jobs are pure functions of their input.** A job receives
//!    everything it needs — including its own RNG seed — in its input
//!    value. Nothing is drawn from a shared stream, so the draws a job
//!    sees do not depend on which worker runs it or when.
//! 2. **Seeds are derived counter-based, not sequentially.** Each job's
//!    seed is a hash/XOR of the sweep's base seed and the job's grid
//!    coordinates (see [`derive_seed`] and `SimRng::substream`), exactly
//!    the scheme the serial sweeps already used. Job *k* gets the same
//!    stream whether it runs first, last, or alone.
//! 3. **Results are returned in input order.** Workers self-schedule
//!    from an atomic cursor and send `(index, output)` pairs back over a
//!    channel; the engine reassembles the output vector by index, so
//!    downstream reductions always fold in the same order.
//!
//! Together these make `map(jobs=N)` literally the identity
//! transformation of `map(jobs=1)` over wall-clock layout: same inputs,
//! same streams, same fold order — same bits.
//!
//! # Job granularity
//!
//! One job = one `(config, seed)` grid cell (one full training run, a
//! few hundred episodes). That is coarse enough that scheduling overhead
//! (one atomic increment + one channel send per job) is noise, and fine
//! enough that a typical sweep (tens of cells) saturates any desktop
//! core count.
//!
//! # Examples
//!
//! ```
//! use coreda_core::fleet::FleetEngine;
//!
//! let engine = FleetEngine::new(4);
//! let squares = engine.map((0u64..64).collect(), |n| n * n);
//! assert_eq!(squares, (0u64..64).map(|n| n * n).collect::<Vec<_>>());
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::thread;

/// The number of workers to use when the caller does not say: the
/// machine's available parallelism (1 if it cannot be determined).
#[must_use]
pub fn default_jobs() -> usize {
    thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Derives a job seed from a sweep's base seed and the job's grid
/// coordinates, FNV-1a style. Counter-based: depends only on the label,
/// never on how many jobs were derived before it.
#[must_use]
pub fn derive_seed(base_seed: u64, domain: &str, index: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in domain.bytes().chain(index.to_le_bytes()) {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h ^ base_seed
}

/// A scoped worker pool for independent training jobs.
#[derive(Debug, Clone, Copy)]
pub struct FleetEngine {
    jobs: usize,
}

impl Default for FleetEngine {
    fn default() -> Self {
        Self::new(default_jobs())
    }
}

impl FleetEngine {
    /// An engine with `jobs` workers (clamped to at least 1).
    #[must_use]
    pub fn new(jobs: usize) -> Self {
        Self { jobs: jobs.max(1) }
    }

    /// The worker count.
    #[must_use]
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Runs `f` over every input and returns the outputs in input order.
    ///
    /// With one worker (or one input) this degenerates to a plain serial
    /// `map` with no threads spawned, which doubles as the reference
    /// implementation the determinism test compares against.
    ///
    /// # Panics
    ///
    /// Propagates a panic from any job after the remaining workers have
    /// drained.
    pub fn map<I, O, F>(&self, inputs: Vec<I>, f: F) -> Vec<O>
    where
        I: Send,
        O: Send,
        F: Fn(I) -> O + Sync,
    {
        let n = inputs.len();
        let workers = self.jobs.min(n);
        if workers <= 1 {
            return inputs.into_iter().map(f).collect();
        }

        // Each slot is taken exactly once by the worker that claims its
        // index from the cursor; the Mutex is uncontended by construction.
        let slots: Vec<Mutex<Option<I>>> =
            inputs.into_iter().map(|i| Mutex::new(Some(i))).collect();
        let cursor = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, O)>();

        let mut outputs: Vec<Option<O>> = std::iter::repeat_with(|| None).take(n).collect();
        thread::scope(|scope| {
            let slots = &slots;
            let cursor = &cursor;
            let f = &f;
            for _ in 0..workers {
                let tx = tx.clone();
                scope.spawn(move || loop {
                    let idx = cursor.fetch_add(1, Ordering::Relaxed);
                    if idx >= n {
                        break;
                    }
                    let input = slots[idx]
                        .lock()
                        .expect("job slot poisoned")
                        .take()
                        .expect("job slot claimed twice");
                    // A send only fails if the receiver is gone, which
                    // means the scope is already unwinding.
                    let _ = tx.send((idx, f(input)));
                });
            }
            drop(tx);
            for (idx, out) in rx {
                outputs[idx] = Some(out);
            }
        });

        outputs
            .into_iter()
            .map(|o| o.expect("every job sends exactly one result"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_input_order() {
        let engine = FleetEngine::new(8);
        let out = engine.map((0..100u64).collect(), |n| n * 3);
        assert_eq!(out, (0..100u64).map(|n| n * 3).collect::<Vec<_>>());
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let work = |seed: u64| {
            // A toy "training job": deterministic in its seed.
            let mut rng = coreda_des::rng::SimRng::seed_from(seed);
            (0..1_000).map(|_| rng.uniform()).sum::<f64>()
        };
        let inputs: Vec<u64> = (0..23).collect();
        let serial = FleetEngine::new(1).map(inputs.clone(), work);
        for jobs in [2, 3, 4, 8, 16] {
            let parallel = FleetEngine::new(jobs).map(inputs.clone(), work);
            assert_eq!(serial, parallel, "jobs={jobs} must be bit-identical");
        }
    }

    #[test]
    fn empty_and_single_inputs() {
        let engine = FleetEngine::new(4);
        assert_eq!(engine.map(Vec::<u64>::new(), |n| n), Vec::<u64>::new());
        assert_eq!(engine.map(vec![42u64], |n| n + 1), vec![43]);
    }

    #[test]
    fn derived_seeds_are_label_stable() {
        assert_eq!(derive_seed(1, "a", 0), derive_seed(1, "a", 0));
        assert_ne!(derive_seed(1, "a", 0), derive_seed(1, "a", 1));
        assert_ne!(derive_seed(1, "a", 0), derive_seed(1, "b", 0));
        assert_ne!(derive_seed(1, "a", 0), derive_seed(2, "a", 0));
    }

    #[test]
    #[should_panic(expected = "panicked")]
    fn job_panics_propagate() {
        let engine = FleetEngine::new(4);
        let _ = engine.map((0..16u64).collect(), |n| {
            assert!(n != 11, "boom");
            n
        });
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
        assert!(FleetEngine::default().jobs() >= 1);
    }
}
