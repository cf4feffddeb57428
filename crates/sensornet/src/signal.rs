//! Synthetic sensor-signal generation.
//!
//! The original experiments read real accelerometers and a pressure sensor
//! while a person manipulated household tools. We replace the physics with
//! a stochastic signal model whose knobs map onto what mattered in the
//! paper's Table 3: how *strongly* a manipulation shows up against sensor
//! noise (`snr`), and what fraction of the time a "being used" tool is
//! actually in motion (`duty` — pouring hot water is one brief tip of the
//! pot; brushing teeth is continuous shaking).

use coreda_des::rng::SimRng;
use serde::{Deserialize, Serialize};

use crate::sensors::{
    Reading, SensorKind, Vec3, AMBIENT_BRIGHTNESS_LUX, AMBIENT_PRESSURE_KPA, AMBIENT_TEMPERATURE_C,
};

/// Parameters of a tool's signal behaviour.
///
/// # Examples
///
/// ```
/// use coreda_des::rng::SimRng;
/// use coreda_sensornet::sensors::SensorKind;
/// use coreda_sensornet::signal::SignalModel;
///
/// let model = SignalModel::accelerometer(0.05, 0.45, 0.8);
/// let mut rng = SimRng::seed_from(1);
/// let quiet = model.sample(false, &mut rng);
/// let busy = model.sample(true, &mut rng);
/// assert_eq!(quiet.kind(), SensorKind::Accelerometer);
/// # let _ = busy;
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SignalModel {
    kind: SensorKind,
    /// Standard deviation of per-sample noise, in activation units.
    noise_sd: f64,
    /// Mean activation amplitude while the tool is actively manipulated.
    active_amplitude: f64,
    /// Probability that a given 100 ms sample during a "in use" period is
    /// actually energised (the hand is moving the tool right now).
    duty: f64,
}

impl SignalModel {
    /// A generic model.
    ///
    /// # Panics
    ///
    /// Panics if `noise_sd` is negative, `active_amplitude` is negative,
    /// or `duty` is outside `[0, 1]`.
    #[must_use]
    pub fn new(kind: SensorKind, noise_sd: f64, active_amplitude: f64, duty: f64) -> Self {
        assert!(noise_sd >= 0.0, "noise_sd must be non-negative");
        assert!(active_amplitude >= 0.0, "active_amplitude must be non-negative");
        assert!((0.0..=1.0).contains(&duty), "duty must be in [0, 1]");
        SignalModel { kind, noise_sd, active_amplitude, duty }
    }

    /// An accelerometer-equipped tool.
    #[must_use]
    pub fn accelerometer(noise_sd: f64, active_amplitude: f64, duty: f64) -> Self {
        Self::new(SensorKind::Accelerometer, noise_sd, active_amplitude, duty)
    }

    /// A pressure-equipped tool (the electronic pot: activation in kPa).
    #[must_use]
    pub fn pressure(noise_sd: f64, active_amplitude: f64, duty: f64) -> Self {
        Self::new(SensorKind::Pressure, noise_sd, active_amplitude, duty)
    }

    /// The sensor kind this model emulates.
    #[must_use]
    pub const fn kind(&self) -> SensorKind {
        self.kind
    }

    /// The duty cycle (fraction of energised samples while in use).
    #[must_use]
    pub const fn duty(&self) -> f64 {
        self.duty
    }

    /// Draws one 100 ms sample. `active` says whether the tool is being
    /// used during this sample's window.
    ///
    /// This is the reference sampler: traces, the Table 3 harness and the
    /// node's checkpoint replay use it, and the node's sampling hot path
    /// draws exactly the same numbers.
    pub fn sample(&self, active: bool, rng: &mut SimRng) -> Reading {
        self.reading(&self.draw(active, rng))
    }

    /// Draws one sample exactly as [`SignalModel::sample`] does — the same
    /// random numbers in the same order — and returns its activation, or
    /// `None` when the draws alone prove that the activation is at most
    /// the threshold `bound` was built for. The proof costs one product of
    /// the noise normals' `u1`s and no `ln`, `sqrt` or `cos`; an energised
    /// sample, or one the bound cannot clear, is computed exactly.
    pub(crate) fn sample_activation(
        &self,
        active: bool,
        bound: NoiseBound,
        rng: &mut SimRng,
    ) -> Option<f64> {
        let draws = self.draw(active, rng);
        let [(ux, _), (uy, _), (uz, _)] = draws.noise;
        if !draws.energised && ux * uy * uz >= bound.cutoff {
            return None;
        }
        Some(self.reading(&draws).activation())
    }

    /// The [`NoiseBound`] that clears this model's noise-only samples
    /// against `threshold`.
    #[must_use]
    pub(crate) fn noise_bound(&self, threshold: f64) -> NoiseBound {
        let cutoff = match baseline(self.kind) {
            // Motion draws no noise normal: never skipped.
            None => f64::INFINITY,
            // An activation of 0 would vote for a negative threshold; and
            // a NaN or infinite one admits no margin.
            Some(_) if !(threshold > 0.0 && threshold.is_finite()) => f64::INFINITY,
            // Without noise a quiet sample reads its baseline exactly.
            Some(_) if self.noise_sd == 0.0 => 0.0,
            Some(baseline) => {
                let t = threshold * (1.0 - THRESHOLD_MARGIN) - BASELINE_MARGIN * baseline;
                if t > 0.0 {
                    (-(t / self.noise_sd).powi(2) / 2.0).exp() * (1.0 + CUTOFF_SLACK)
                } else {
                    f64::INFINITY
                }
            }
        };
        NoiseBound { cutoff }
    }

    /// Every random number one sample consumes, in draw order.
    fn draw(&self, active: bool, rng: &mut SimRng) -> Draws {
        let energised = active && rng.chance(self.duty);
        let burst = if energised { rng.gaussian_uniforms() } else { UNDRAWN };
        let mut noise = [UNDRAWN; 3];
        for slot in &mut noise[..noise_normals(self.kind)] {
            *slot = rng.gaussian_uniforms();
        }
        let theta = if self.kind == SensorKind::Accelerometer {
            rng.uniform_range(0.0, std::f64::consts::TAU)
        } else {
            0.0
        };
        Draws { energised, burst, noise, theta }
    }

    /// The reading `draws` make.
    fn reading(&self, draws: &Draws) -> Reading {
        // `SimRng::normal(0.0, sd)` on uniforms already drawn.
        let normal = |sd: f64, uniforms| 0.0 + sd * SimRng::box_muller(uniforms);
        let amplitude = if draws.energised {
            // Burst amplitudes vary sample to sample; keep them positive.
            (self.active_amplitude + normal(self.active_amplitude * 0.3, draws.burst)).max(0.0)
        } else {
            0.0
        };
        let noise = |axis: usize| normal(self.noise_sd, draws.noise[axis]);
        match self.kind {
            SensorKind::Accelerometer => {
                // Start from gravity, add isotropic noise, then add a burst
                // along a random horizontal-ish direction.
                let noise = Vec3::new(noise(0), noise(1), noise(2));
                let theta = draws.theta;
                // Idle samples (the vast majority) have a zero-amplitude
                // burst: skip the trig (theta is drawn either way). (`0.0 *
                // cos` could yield `-0.0` where this yields `+0.0`;
                // downstream activation squares the components, so the sign
                // of zero is unobservable, and raw readings are never
                // serialised.)
                let burst = if amplitude > 0.0 {
                    Vec3::new(amplitude * theta.cos(), amplitude * theta.sin(), amplitude * 0.5)
                } else {
                    Vec3::new(0.0, 0.0, 0.0)
                };
                Reading::Accel(Vec3::new(
                    noise.x + burst.x,
                    noise.y + burst.y,
                    1.0 + noise.z + burst.z,
                ))
            }
            SensorKind::Pressure => Reading::Pressure(AMBIENT_PRESSURE_KPA + amplitude + noise(0)),
            SensorKind::Brightness => {
                Reading::Brightness(AMBIENT_BRIGHTNESS_LUX + amplitude + noise(0))
            }
            SensorKind::Temperature => {
                Reading::Temperature(AMBIENT_TEMPERATURE_C + amplitude + noise(0))
            }
            SensorKind::Motion => Reading::Motion(draws.energised),
        }
    }

    /// Draws a full one-second detection window of
    /// [`SAMPLES_PER_WINDOW`](crate::hw::SAMPLES_PER_WINDOW) samples.
    pub fn sample_window(&self, active: bool, rng: &mut SimRng) -> Vec<Reading> {
        (0..crate::hw::SAMPLES_PER_WINDOW).map(|_| self.sample(active, rng)).collect()
    }
}

/// Relative margin `δ` between a threshold and the noise radius the
/// [`NoiseBound`] clears against it.
const THRESHOLD_MARGIN: f64 = 1e-6;
/// Absolute margin per unit of a reading's baseline, for the rounding of
/// `baseline + noise` (a few ulps of the baseline).
const BASELINE_MARGIN: f64 = 1e-12;
/// Relative slack on the cutoff, for the rounding of the `u1` product and
/// of the cutoff's own `exp`.
const CUTOFF_SLACK: f64 = 1e-9;

/// A proof, read off the Box–Muller `u1`s a sample has already drawn,
/// that its activation stays at or below one threshold.
///
/// A sample that is not energised reads its baseline (gravity, or the
/// ambient level) plus noise `n`, so its activation is at most `‖n‖`. Each
/// noise component is `sd·√(−2 ln u1)·cos(2π u2)` and `|cos| ≤ 1`, so
/// `‖n‖ ≤ sd·√(−2 ln Πu1)` over the sample's noise normals. Hence
/// `Πu1 ≥ exp(−(t/sd)²/2)` proves `‖n‖ ≤ t`. The bound uses
/// `t = thr·(1 − 1e-6) − 1e-12·baseline` and raises the cutoff by a
/// relative `1e-9`: the floating-point sample is within ~10 ulps
/// (relative) of the exact one, plus a few ulps of the baseline
/// (absolute), and the product and the cutoff are within a few hundred
/// ulps of theirs, so each margin is over a thousand times the rounding
/// it absorbs. DESIGN.md ("Sensing hot path") has the full argument.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct NoiseBound {
    /// A noise-only sample whose `u1` product reaches this is at or below
    /// the threshold: `+∞` never clears a sample, `0` clears every one.
    cutoff: f64,
}

/// Box–Muller uniforms of a normal the sample does not draw. A `u1` of 1
/// leaves the `u1` product unchanged.
const UNDRAWN: (f64, f64) = (1.0, 0.0);

/// Every random number one sample consumes.
#[derive(Debug, Clone, Copy)]
struct Draws {
    /// Whether the duty draw energised the sample (drawn only when active).
    energised: bool,
    /// Box–Muller uniforms of the burst amplitude (energised samples only).
    burst: (f64, f64),
    /// Box–Muller uniforms of the noise normals: three for an
    /// accelerometer, one for a scalar sensor, none for motion.
    noise: [(f64, f64); 3],
    /// Direction of an accelerometer's burst (accelerometers only).
    theta: f64,
}

/// The reading a quiet `kind` sensor deviates from, or `None` for motion,
/// which draws no noise.
fn baseline(kind: SensorKind) -> Option<f64> {
    match kind {
        SensorKind::Accelerometer => Some(1.0),
        SensorKind::Pressure => Some(AMBIENT_PRESSURE_KPA),
        SensorKind::Brightness => Some(AMBIENT_BRIGHTNESS_LUX),
        SensorKind::Temperature => Some(AMBIENT_TEMPERATURE_C),
        SensorKind::Motion => None,
    }
}

/// How many noise normals one `kind` sample draws.
fn noise_normals(kind: SensorKind) -> usize {
    match kind {
        SensorKind::Accelerometer => 3,
        SensorKind::Pressure | SensorKind::Brightness | SensorKind::Temperature => 1,
        SensorKind::Motion => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> SignalModel {
        SignalModel::accelerometer(0.02, 0.5, 0.9)
    }

    #[test]
    fn quiet_samples_have_low_activation() {
        let m = model();
        let mut rng = SimRng::seed_from(3);
        let mean: f64 =
            (0..1000).map(|_| m.sample(false, &mut rng).activation()).sum::<f64>() / 1000.0;
        assert!(mean < 0.1, "quiescent activation {mean} too high");
    }

    #[test]
    fn active_samples_have_high_activation() {
        let m = model();
        let mut rng = SimRng::seed_from(4);
        let mean: f64 =
            (0..1000).map(|_| m.sample(true, &mut rng).activation()).sum::<f64>() / 1000.0;
        assert!(mean > 0.3, "active activation {mean} too low");
    }

    #[test]
    fn duty_controls_energised_fraction() {
        let lazy = SignalModel::accelerometer(0.0, 1.0, 0.2);
        let mut rng = SimRng::seed_from(5);
        let hot = (0..2000)
            .filter(|_| lazy.sample(true, &mut rng).activation() > 0.5)
            .count();
        assert!((250..550).contains(&hot), "expected ~20% energised, got {hot}/2000");
    }

    #[test]
    fn pressure_model_deviates_from_ambient_when_active() {
        let m = SignalModel::pressure(0.05, 3.0, 1.0);
        let mut rng = SimRng::seed_from(6);
        let r = m.sample(true, &mut rng);
        assert!(r.activation() > 1.0, "activation {}", r.activation());
        assert_eq!(r.kind(), SensorKind::Pressure);
    }

    #[test]
    fn window_has_ten_samples() {
        let m = model();
        let mut rng = SimRng::seed_from(7);
        assert_eq!(m.sample_window(true, &mut rng).len(), 10);
    }

    #[test]
    fn motion_model_is_binary() {
        let m = SignalModel::new(SensorKind::Motion, 0.0, 1.0, 1.0);
        let mut rng = SimRng::seed_from(8);
        assert_eq!(m.sample(true, &mut rng), Reading::Motion(true));
        assert_eq!(m.sample(false, &mut rng), Reading::Motion(false));
    }

    #[test]
    fn determinism_under_seed() {
        let m = model();
        let mut a = SimRng::seed_from(11);
        let mut b = SimRng::seed_from(11);
        for _ in 0..100 {
            assert_eq!(m.sample(true, &mut a), m.sample(true, &mut b));
        }
    }

    /// Runs `samples` draws through both samplers on twin streams: each
    /// call draws the same numbers, an exact activation is the reference's
    /// to the bit, and a skipped one is at or below `threshold`. Returns
    /// how many were skipped.
    fn skips(m: SignalModel, active: bool, threshold: f64, samples: usize, seed: u64) -> usize {
        let bound = m.noise_bound(threshold);
        let mut rng = SimRng::seed_from(seed);
        let mut reference = rng.clone();
        let mut skipped = 0;
        for _ in 0..samples {
            let exact = m.sample(active, &mut reference).activation();
            match m.sample_activation(active, bound, &mut rng) {
                Some(a) => assert_eq!(a.to_bits(), exact.to_bits()),
                None => {
                    assert!(exact <= threshold, "skipped {exact} > {threshold}");
                    skipped += 1;
                }
            }
            assert_eq!(rng.state_parts(), reference.state_parts());
        }
        skipped
    }

    #[test]
    fn noiseless_quiet_samples_are_always_skipped() {
        for m in [SignalModel::accelerometer(0.0, 0.5, 0.5), SignalModel::pressure(0.0, 3.0, 0.5)] {
            assert_eq!(skips(m, false, 1e-300, 500, 12), 500);
            // Energised samples are computed exactly, noise or not.
            let energised = SignalModel::new(m.kind(), 0.0, 0.5, 1.0);
            assert_eq!(skips(energised, true, 0.1, 500, 13), 0);
        }
    }

    #[test]
    fn thresholds_without_a_margin_are_never_skipped() {
        let m = SignalModel::accelerometer(0.03, 0.45, 0.8);
        for threshold in [0.0, -0.1, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e-13] {
            assert_eq!(skips(m, false, threshold, 500, 14), 0, "threshold {threshold}");
        }
    }

    #[test]
    fn motion_is_never_skipped() {
        let m = SignalModel::new(SensorKind::Motion, 0.1, 1.0, 0.5);
        assert_eq!(m.noise_bound(0.5).cutoff, f64::INFINITY);
        assert_eq!(skips(m, false, 0.5, 200, 15) + skips(m, true, 0.5, 200, 16), 0);
    }

    /// A threshold just above a sample's noise radius, inside the bound's
    /// margin: a bound without the margin would clear the sample, so the
    /// exact path must run.
    #[test]
    fn a_threshold_inside_the_margin_takes_the_exact_path() {
        let sd = 0.03;
        let m = SignalModel::accelerometer(sd, 0.45, 0.8);
        let mut rng = SimRng::seed_from(17);
        let [(ux, _), (uy, _), (uz, _)] = m.draw(false, &mut rng.clone()).noise;
        let product = ux * uy * uz;
        let threshold = sd * (-2.0 * product.ln()).sqrt() * (1.0 + 1e-7);
        assert!(product >= (-(threshold / sd).powi(2) / 2.0).exp(), "a marginless bound clears it");
        let mut reference = rng.clone();
        let exact = m.sample(false, &mut reference).activation();
        assert_eq!(m.sample_activation(false, m.noise_bound(threshold), &mut rng), Some(exact));
        assert_eq!(rng.state_parts(), reference.state_parts());
    }

    /// Guards against a silently disabled skip: at the catalog's sensing
    /// models (accelerometer noise 0.03 g, the electronic pot's pressure
    /// noise 0.3 kPa) and the default thresholds (5σ and 3.3σ), the bound
    /// clears all but ~3.4e-4 and ~3.9e-3 of idle samples.
    #[test]
    fn the_default_thresholds_skip_almost_every_idle_sample() {
        let thresholds = crate::detect::Thresholds::default();
        let accel = SignalModel::accelerometer(0.03, 0.45, 0.8);
        let pot = SignalModel::pressure(0.3, 3.0, 0.26);
        let n = 20_000;
        for (m, threshold) in [(accel, thresholds.accel), (pot, thresholds.pressure)] {
            let skipped = skips(m, false, threshold, n, 18);
            assert!(skipped * 100 >= n * 99, "{:?}: only {skipped}/{n} skipped", m.kind());
        }
    }

    #[test]
    #[should_panic(expected = "duty must be in [0, 1]")]
    fn bad_duty_rejected() {
        let _ = SignalModel::accelerometer(0.1, 0.5, 2.0);
    }
}
