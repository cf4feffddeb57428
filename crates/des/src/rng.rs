//! Deterministic randomness for simulations.
//!
//! Every stochastic component in CoReDA draws from a [`SimRng`] seeded from
//! the experiment configuration, so a run is a pure function of its seed.
//! Independent sub-streams (one per sensor node, per patient, …) are derived
//! with [`SimRng::substream`] so adding a component never perturbs the draws
//! of another.
//!
//! The generator is a self-contained xoshiro256++ with splitmix64 seed
//! expansion — no external crates, identical output on every platform, and
//! cheap enough to fork one stream per fleet job. Stream derivation is
//! counter-based (a hash of `(domain, index)` XORed into the base seed), so
//! a sub-stream's draws depend only on its label, never on how many other
//! streams were derived before it — the property the parallel fleet engine
//! relies on for worker-count-invariant results.

/// A seedable deterministic random source.
///
/// # Examples
///
/// ```
/// use coreda_des::rng::SimRng;
///
/// let mut a = SimRng::seed_from(42);
/// let mut b = SimRng::seed_from(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    state: [u64; 4],
    base_seed: u64,
}

/// splitmix64 step — used only to expand a 64-bit seed into xoshiro state.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    #[must_use]
    pub fn seed_from(seed: u64) -> Self {
        let mut s = seed;
        SimRng {
            state: [
                splitmix64(&mut s),
                splitmix64(&mut s),
                splitmix64(&mut s),
                splitmix64(&mut s),
            ],
            base_seed: seed,
        }
    }

    /// Derives an independent sub-stream for the component labelled
    /// `(domain, index)`.
    ///
    /// Two distinct labels produce streams that do not collide, and the
    /// derivation does not consume randomness from `self`.
    #[must_use]
    pub fn substream(&self, domain: &str, index: u64) -> SimRng {
        // FNV-1a over (domain, index); cheap, stable across runs and platforms.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in domain.bytes().chain(index.to_le_bytes()) {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        SimRng::seed_from(h ^ self.base_seed)
    }

    /// Exposes the generator's full state `(xoshiro words, base seed)` for
    /// checkpointing. Restoring via [`SimRng::from_state_parts`] resumes
    /// the stream at exactly this position, and substream derivation (which
    /// depends only on `base_seed`) is preserved.
    #[must_use]
    pub fn state_parts(&self) -> ([u64; 4], u64) {
        (self.state, self.base_seed)
    }

    /// Rebuilds a generator from [`SimRng::state_parts`].
    #[must_use]
    pub fn from_state_parts(state: [u64; 4], base_seed: u64) -> Self {
        SimRng { state, base_seed }
    }

    /// The next uniformly distributed `u64` (xoshiro256++ step).
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.state;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        let mut s = [s0, s1, s2, s3];
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        self.state = s;
        result
    }

    /// A uniform draw from `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        // Top 53 bits → the full dyadic grid representable in an f64.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform draw from `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        lo + self.uniform() * (hi - lo)
    }

    /// A uniform integer draw from `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform_usize(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        let span = (hi - lo) as u64;
        // Widening multiply maps the u64 draw onto [0, span) without the
        // modulo's low-bit bias.
        let scaled = ((u128::from(self.next_u64()) * u128::from(span)) >> 64) as u64;
        lo + scaled as usize
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn chance(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        self.uniform() < p
    }

    /// A standard-normal draw via Box–Muller: [`SimRng::gaussian_uniforms`]
    /// then [`SimRng::box_muller`].
    pub fn gaussian(&mut self) -> f64 {
        Self::box_muller(self.gaussian_uniforms())
    }

    /// The uniforms one Box–Muller draw consumes, in draw order: `u1`,
    /// rejection-sampled until it exceeds `f64::EPSILON` (so `ln u1` is
    /// finite), then `u2`.
    pub fn gaussian_uniforms(&mut self) -> (f64, f64) {
        loop {
            let u1 = self.uniform();
            if u1 > f64::EPSILON {
                return (u1, self.uniform());
            }
        }
    }

    /// The Box–Muller transform `√(−2 ln u1) · cos(2π u2)` of uniforms
    /// drawn by [`SimRng::gaussian_uniforms`]. Its magnitude is at most
    /// `√(−2 ln u1)`.
    #[must_use]
    pub fn box_muller((u1, u2): (f64, f64)) -> f64 {
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// A normal draw with the given `mean` and standard deviation `sd`.
    ///
    /// # Panics
    ///
    /// Panics if `sd` is negative.
    pub fn normal(&mut self, mean: f64, sd: f64) -> f64 {
        assert!(sd >= 0.0, "standard deviation must be non-negative");
        mean + sd * self.gaussian()
    }

    /// An exponential draw with the given `mean`.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not positive.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "mean must be positive");
        let u = f64::EPSILON + self.uniform() * (1.0 - f64::EPSILON);
        -mean * u.ln()
    }

    /// A uniformly random element of `items`.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "cannot choose from an empty slice");
        &items[self.uniform_usize(0, items.len())]
    }

    /// Shuffles `items` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.uniform_usize(0, i + 1);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2, "streams with different seeds should diverge");
    }

    #[test]
    fn substreams_are_stable_and_distinct() {
        let root = SimRng::seed_from(99);
        let mut s1 = root.substream("node", 1);
        let mut s1_again = root.substream("node", 1);
        let mut s2 = root.substream("node", 2);
        assert_eq!(s1.next_u64(), s1_again.next_u64());
        let mut s1b = root.substream("node", 1);
        assert_ne!(s1b.next_u64(), s2.next_u64());
    }

    #[test]
    fn substream_derivation_does_not_consume() {
        let mut root = SimRng::seed_from(5);
        let _ = root.substream("x", 0);
        let mut fresh = SimRng::seed_from(5);
        assert_eq!(root.next_u64(), fresh.next_u64());
    }

    #[test]
    fn gaussian_moments_are_plausible() {
        let mut rng = SimRng::seed_from(123);
        let n = 20_000;
        let draws: Vec<f64> = (0..n).map(|_| rng.gaussian()).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean} too far from 0");
        assert!((var - 1.0).abs() < 0.05, "variance {var} too far from 1");
    }

    #[test]
    fn exponential_mean_is_plausible() {
        let mut rng = SimRng::seed_from(321);
        let n = 20_000;
        let mean = (0..n).map(|_| rng.exponential(3.0)).sum::<f64>() / f64::from(n);
        assert!((mean - 3.0).abs() < 0.15, "mean {mean} too far from 3");
    }

    #[test]
    fn chance_respects_probability() {
        let mut rng = SimRng::seed_from(55);
        let hits = (0..10_000).filter(|_| rng.chance(0.25)).count();
        assert!((2200..2800).contains(&hits), "got {hits} hits for p=0.25");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SimRng::seed_from(8);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn uniform_usize_covers_range() {
        let mut rng = SimRng::seed_from(77);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            seen[rng.uniform_usize(0, 10)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets should be hit: {seen:?}");
    }

    #[test]
    fn state_parts_round_trip_resumes_stream() {
        let mut rng = SimRng::seed_from(4242);
        for _ in 0..17 {
            rng.next_u64();
        }
        let (state, base) = rng.state_parts();
        let mut resumed = SimRng::from_state_parts(state, base);
        for _ in 0..32 {
            assert_eq!(rng.next_u64(), resumed.next_u64());
        }
        // Substream derivation depends only on base_seed and must survive too.
        let mut a = rng.substream("node", 3);
        let mut b = resumed.substream("node", 3);
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    #[should_panic(expected = "empty slice")]
    fn choose_empty_panics() {
        let mut rng = SimRng::seed_from(1);
        let empty: [u8; 0] = [];
        let _ = rng.choose(&empty);
    }

    #[test]
    #[should_panic(expected = "probability must be in [0, 1]")]
    fn chance_rejects_out_of_range() {
        let mut rng = SimRng::seed_from(1);
        let _ = rng.chance(1.5);
    }
}
