//! The paper's tool-usage detection rule.
//!
//! "The sampling rate of each sensor is 10 times in one second. If three
//! of these 10 samples surpass a pre-defined threshold, the tool will be
//! considered is using. … We use this mechanism to protect detection
//! against accidental operation." (paper §2.1)

use coreda_des::stats::RunningStats;
use serde::{Deserialize, Serialize};

use crate::hw::{DETECTION_VOTES, SAMPLES_PER_WINDOW};
use crate::sensors::{Reading, SensorKind};
use crate::trace::SignalTrace;

/// Per-sensor-kind activation thresholds.
///
/// Units follow [`Reading::activation`]: g-deviation for accelerometers,
/// kPa for pressure, and so on. The defaults were calibrated against
/// [`SignalModel`](crate::signal::SignalModel)'s noise levels so that a
/// still tool essentially never crosses and a firmly manipulated one
/// usually does.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Thresholds {
    /// Accelerometer threshold in g-deviation.
    pub accel: f64,
    /// Pressure threshold in kPa deviation from ambient.
    pub pressure: f64,
    /// Brightness threshold in lux deviation.
    pub brightness: f64,
    /// Temperature threshold in °C deviation.
    pub temperature: f64,
}

impl Default for Thresholds {
    fn default() -> Self {
        Thresholds { accel: 0.15, pressure: 1.0, brightness: 100.0, temperature: 2.0 }
    }
}

impl Thresholds {
    /// Calibrates thresholds from *quiescent* recordings: for each sensor
    /// kind present in `traces`, the threshold becomes
    /// `mean + k·σ` of the observed idle activations (kinds without data
    /// keep the defaults).
    ///
    /// This is how a real deployment sets its "pre-defined threshold":
    /// record each instrumented tool sitting untouched for a minute, then
    /// derive a level that idle noise practically never crosses.
    ///
    /// # Panics
    ///
    /// Panics if `k` is not positive.
    #[must_use]
    pub fn calibrate(traces: &[SignalTrace], k: f64) -> Self {
        assert!(k > 0.0, "sigma multiplier must be positive");
        let mut per_kind: std::collections::HashMap<SensorKind, RunningStats> =
            std::collections::HashMap::new();
        for trace in traces {
            for reading in &trace.readings {
                per_kind.entry(reading.kind()).or_default().push(reading.activation());
            }
        }
        let mut out = Thresholds::default();
        let level = |stats: &RunningStats| stats.mean() + k * stats.std_dev();
        if let Some(s) = per_kind.get(&SensorKind::Accelerometer) {
            out.accel = level(s);
        }
        if let Some(s) = per_kind.get(&SensorKind::Pressure) {
            out.pressure = level(s);
        }
        if let Some(s) = per_kind.get(&SensorKind::Brightness) {
            out.brightness = level(s);
        }
        if let Some(s) = per_kind.get(&SensorKind::Temperature) {
            out.temperature = level(s);
        }
        out
    }

    /// The threshold that applies to `kind` (motion is inherently binary:
    /// any trigger counts).
    #[must_use]
    pub fn for_kind(&self, kind: SensorKind) -> f64 {
        match kind {
            SensorKind::Accelerometer => self.accel,
            SensorKind::Pressure => self.pressure,
            SensorKind::Brightness => self.brightness,
            SensorKind::Temperature => self.temperature,
            SensorKind::Motion => 0.5,
        }
    }
}

/// The 3-of-10 vote detector for one sensor kind.
///
/// A mote carries one sensor, so its detector holds that kind's
/// threshold alone ([`Thresholds::for_kind`]) and judges every reading
/// against it. Samples are pushed one at a time; every full window of
/// ten yields a verdict. The detector also exposes a one-shot
/// [`Detector::judge_window`] for batch evaluation.
///
/// # Examples
///
/// ```
/// use coreda_sensornet::detect::{Detector, Thresholds};
/// use coreda_sensornet::sensors::{Reading, Vec3};
///
/// let mut det = Detector::new(Thresholds::default().accel);
/// let still = Reading::Accel(Vec3::new(0.0, 0.0, 1.0));
/// for _ in 0..9 {
///     assert_eq!(det.push(still), None); // no verdict until the window fills
/// }
/// assert_eq!(det.push(still), Some(false)); // ten still samples: not in use
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Detector {
    /// The activation a sample must exceed to vote "in use".
    threshold: f64,
    /// The partial window's votes, bit `i` for its `i`-th sample.
    votes: u16,
    /// Samples buffered toward the next verdict (below
    /// [`SAMPLES_PER_WINDOW`]).
    len: u8,
}

const _: () = assert!(SAMPLES_PER_WINDOW <= u16::BITS as usize, "a window fits the vote mask");

impl Detector {
    /// Creates a detector voting on readings above `threshold`.
    #[must_use]
    pub fn new(threshold: f64) -> Self {
        Detector { threshold, votes: 0, len: 0 }
    }

    /// The activation threshold.
    #[must_use]
    pub const fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Whether a single reading surpasses the threshold.
    #[must_use]
    pub fn surpasses(&self, reading: &Reading) -> bool {
        reading.activation() > self.threshold
    }

    /// Pushes one sample. Returns `Some(in_use)` when this sample closes a
    /// ten-sample window, `None` otherwise.
    pub fn push(&mut self, reading: Reading) -> Option<bool> {
        self.push_activation(reading.activation())
    }

    /// [`Detector::push`] with the activation computed by the caller, which
    /// also folds it into the node's per-window peak.
    pub fn push_activation(&mut self, activation: f64) -> Option<bool> {
        self.push_vote(activation > self.threshold)
    }

    /// Pushes one sample's vote: whether it surpassed its threshold.
    pub(crate) fn push_vote(&mut self, vote: bool) -> Option<bool> {
        self.votes |= u16::from(vote) << self.len;
        self.len += 1;
        if usize::from(self.len) < SAMPLES_PER_WINDOW {
            return None;
        }
        let votes = self.votes.count_ones() as usize;
        self.reset();
        Some(votes >= DETECTION_VOTES)
    }

    /// Judges a complete window in one call.
    ///
    /// # Panics
    ///
    /// Panics if `window` does not contain exactly
    /// [`SAMPLES_PER_WINDOW`] readings.
    #[must_use]
    pub fn judge_window(&self, window: &[Reading]) -> bool {
        assert_eq!(
            window.len(),
            SAMPLES_PER_WINDOW,
            "a detection window is exactly {SAMPLES_PER_WINDOW} samples"
        );
        window.iter().filter(|r| self.surpasses(r)).count() >= DETECTION_VOTES
    }

    /// Number of samples buffered toward the next verdict.
    #[must_use]
    pub fn buffered(&self) -> usize {
        usize::from(self.len)
    }

    /// Drops any partially filled window.
    pub fn reset(&mut self) {
        self.votes = 0;
        self.len = 0;
    }

    /// The buffered per-sample votes of the partially filled window, in
    /// arrival order (checkpointing).
    #[must_use]
    pub fn window_votes(&self) -> Vec<bool> {
        (0..self.len).map(|i| self.votes >> i & 1 == 1).collect()
    }

    /// Replaces the partially filled window with `votes` so the next
    /// verdict fires after exactly the same number of further samples as
    /// in the captured detector.
    ///
    /// # Panics
    ///
    /// Panics if `votes` holds a full window or more — those samples
    /// would already have produced a verdict.
    pub fn restore_window(&mut self, votes: &[bool]) {
        assert!(
            votes.len() < SAMPLES_PER_WINDOW,
            "a buffered window holds at most {} samples, got {}",
            SAMPLES_PER_WINDOW - 1,
            votes.len()
        );
        self.votes = votes.iter().rev().fold(0, |mask, &vote| mask << 1 | u16::from(vote));
        self.len = votes.len() as u8;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sensors::Vec3;
    use crate::signal::SignalModel;
    use coreda_des::rng::SimRng;

    fn still() -> Reading {
        Reading::Accel(Vec3::new(0.0, 0.0, 1.0))
    }

    fn shaken() -> Reading {
        Reading::Accel(Vec3::new(0.4, 0.0, 1.2))
    }

    #[test]
    fn still_window_not_in_use() {
        let det = Detector::new(Thresholds::default().accel);
        assert!(!det.judge_window(&vec![still(); 10]));
    }

    #[test]
    fn exactly_three_votes_suffice() {
        let det = Detector::new(Thresholds::default().accel);
        let mut w = vec![still(); 10];
        w[0] = shaken();
        w[4] = shaken();
        assert!(!det.judge_window(&w), "two votes must not trigger");
        w[9] = shaken();
        assert!(det.judge_window(&w), "three votes must trigger");
    }

    #[test]
    fn accidental_single_bump_filtered() {
        // The paper's motivation for the 3-of-10 rule: one accidental knock
        // must not register as usage.
        let det = Detector::new(Thresholds::default().accel);
        let mut w = vec![still(); 10];
        w[3] = Reading::Accel(Vec3::new(2.0, 2.0, 2.0));
        assert!(!det.judge_window(&w));
    }

    #[test]
    fn streaming_matches_batch() {
        let mut det = Detector::new(Thresholds::default().accel);
        let m = SignalModel::accelerometer(0.03, 0.5, 0.8);
        let mut rng = SimRng::seed_from(9);
        for _ in 0..50 {
            let w = m.sample_window(true, &mut rng);
            let batch = det.judge_window(&w);
            let mut streamed = None;
            for r in w {
                if let Some(v) = det.push(r) {
                    streamed = Some(v);
                }
            }
            assert_eq!(streamed, Some(batch));
        }
    }

    #[test]
    fn push_emits_every_ten_samples() {
        let mut det = Detector::new(Thresholds::default().accel);
        let mut verdicts = 0;
        for _ in 0..35 {
            if det.push(still()).is_some() {
                verdicts += 1;
            }
        }
        assert_eq!(verdicts, 3);
        assert_eq!(det.buffered(), 5);
        det.reset();
        assert_eq!(det.buffered(), 0);
    }

    #[test]
    fn pressure_detection_uses_pressure_threshold() {
        let det = Detector::new(Thresholds::default().for_kind(SensorKind::Pressure));
        let active = Reading::Pressure(crate::sensors::AMBIENT_PRESSURE_KPA + 3.0);
        let idle = Reading::Pressure(crate::sensors::AMBIENT_PRESSURE_KPA + 0.2);
        assert!(det.surpasses(&active));
        assert!(!det.surpasses(&idle));
    }

    #[test]
    fn motion_any_trigger_counts() {
        let det = Detector::new(Thresholds::default().for_kind(SensorKind::Motion));
        assert!(det.surpasses(&Reading::Motion(true)));
        assert!(!det.surpasses(&Reading::Motion(false)));
    }

    #[test]
    #[should_panic(expected = "exactly 10 samples")]
    fn short_window_rejected() {
        let det = Detector::new(Thresholds::default().accel);
        let _ = det.judge_window(&vec![still(); 9]);
    }

    #[test]
    fn calibration_learns_noise_floor() {
        use crate::trace::SignalTrace;
        let noisy_model = SignalModel::accelerometer(0.08, 0.45, 0.8);
        let mut rng = SimRng::seed_from(21);
        // A minute of quiescent recording from the noisier sensor.
        let quiet = SignalTrace::record(1, &noisy_model, 600, |_| false, &mut rng);
        let calibrated = Thresholds::calibrate(&[quiet], 4.0);
        // The learned accel threshold sits above the noise floor but
        // below the manipulation amplitude…
        assert!(
            calibrated.accel > Thresholds::default().accel,
            "noisier sensor needs a higher threshold: {calibrated:?}"
        );
        assert!(calibrated.accel < 0.45);
        // …and with it, idle windows stay silent while active windows
        // still detect.
        let det = Detector::new(calibrated.accel);
        let mut false_alarms = 0;
        let mut hits = 0;
        for _ in 0..200 {
            if det.judge_window(&noisy_model.sample_window(false, &mut rng)) {
                false_alarms += 1;
            }
            if det.judge_window(&noisy_model.sample_window(true, &mut rng)) {
                hits += 1;
            }
        }
        assert!(false_alarms <= 2, "calibrated threshold should silence noise: {false_alarms}");
        assert!(hits >= 190, "and keep detecting use: {hits}/200");
    }

    #[test]
    fn calibration_without_data_keeps_defaults() {
        let calibrated = Thresholds::calibrate(&[], 4.0);
        assert_eq!(calibrated, Thresholds::default());
    }

    #[test]
    fn calibration_covers_pressure_too() {
        use crate::trace::SignalTrace;
        let pot = SignalModel::pressure(0.5, 3.0, 0.8);
        let mut rng = SimRng::seed_from(22);
        let quiet = SignalTrace::record(6, &pot, 600, |_| false, &mut rng);
        let calibrated = Thresholds::calibrate(&[quiet], 4.0);
        assert!(calibrated.pressure > Thresholds::default().pressure);
        // Accelerometer untouched: no accel data in the trace.
        assert_eq!(calibrated.accel, Thresholds::default().accel);
    }

    /// End-to-end sanity: with default thresholds and a healthy signal,
    /// active windows are almost always detected and idle ones almost
    /// never are.
    #[test]
    fn detection_quality_with_default_calibration() {
        let det = Detector::new(Thresholds::default().accel);
        let m = SignalModel::accelerometer(0.03, 0.45, 0.85);
        let mut rng = SimRng::seed_from(10);
        let trials = 500;
        let hits = (0..trials)
            .filter(|_| det.judge_window(&m.sample_window(true, &mut rng)))
            .count();
        let false_alarms = (0..trials)
            .filter(|_| det.judge_window(&m.sample_window(false, &mut rng)))
            .count();
        assert!(hits > trials * 95 / 100, "hit rate too low: {hits}/{trials}");
        assert!(false_alarms < trials / 100, "false alarms: {false_alarms}/{trials}");
    }
}
