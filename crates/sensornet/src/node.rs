//! The PAVENET sensor node model.
//!
//! One node is strapped to each tool ("What we need do is only attach one
//! PAVENET to a tool, and configure its uid as the tool ID"). The node
//! samples its sensor at 10 Hz, runs the 3-of-10 detector, and emits a
//! `ToolUse` packet whenever a window closes with a positive verdict.

use coreda_des::rng::SimRng;
use serde::{Deserialize, Serialize};

use crate::detect::{Detector, Thresholds};
use crate::eeprom::Eeprom;
use crate::energy::EnergyMeter;
use crate::led::{LedBank, LedColor};
use crate::packet::{Packet, Payload};
use crate::signal::{NoiseBound, SignalModel};

/// A PAVENET unique ID. CoReDA uses it directly as the tool ID.
///
/// # Examples
///
/// ```
/// use coreda_sensornet::node::NodeId;
///
/// let id = NodeId::new(3);
/// assert_eq!(id.raw(), 3);
/// assert_eq!(format!("{id}"), "node-3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(u16);

impl NodeId {
    /// Wraps a raw uid.
    #[must_use]
    pub const fn new(raw: u16) -> Self {
        NodeId(raw)
    }

    /// The raw uid.
    #[must_use]
    pub const fn raw(self) -> u16 {
        self.0
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node-{}", self.0)
    }
}

/// The resumable mutable state of one [`PavenetNode`], as captured by
/// [`PavenetNode::export_state`]. The signal model, thresholds and EEPROM
/// are not included: they are construction-time configuration (the live
/// pipeline never writes the EEPROM), so a restored node only needs to be
/// built from the same spec.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NodeState {
    /// Buffered detector votes of the partially filled window.
    pub detector_window: Vec<bool>,
    /// Green LED state.
    pub led_green: bool,
    /// Red LED state.
    pub led_red: bool,
    /// Accumulated energy in microjoules (raw accumulator).
    pub energy_uj: f64,
    /// Energy breakdown: (samples, tx bytes, rx bytes, led ms, sleep ms).
    pub energy_breakdown: (u64, u64, u64, u64, u64),
    /// Next radio sequence number.
    pub next_seq: u16,
    /// Peak activation seen in the current detection window.
    pub window_peak_activation: f64,
    /// Detection windows completed.
    pub windows_closed: u64,
    /// `ToolUse` reports emitted.
    pub reports_sent: u64,
    /// Whether the mote is crashed.
    pub failed: bool,
    /// False-positive flip probability.
    pub flip_false_positive: f64,
    /// False-negative flip probability.
    pub flip_false_negative: f64,
    /// Report-timestamp skew in milliseconds.
    pub clock_skew_ms: i64,
}

/// A simulated PAVENET mote: sensor + detector + LEDs + EEPROM + radio
/// sequence counter.
///
/// # Examples
///
/// ```
/// use coreda_des::rng::SimRng;
/// use coreda_sensornet::detect::Thresholds;
/// use coreda_sensornet::node::{NodeId, PavenetNode};
/// use coreda_sensornet::signal::SignalModel;
///
/// let mut node = PavenetNode::new(
///     NodeId::new(1),
///     SignalModel::accelerometer(0.03, 0.5, 0.9),
///     Thresholds::default(),
/// );
/// let mut rng = SimRng::seed_from(0);
/// // Ten ticks of vigorous use close one detection window.
/// let mut report = None;
/// for _ in 0..10 {
///     if let Some(p) = node.sample_tick(true, 0, &mut rng) {
///         report = Some(p);
///     }
/// }
/// assert!(report.is_some(), "an active window should report tool use");
/// ```
#[derive(Debug, Clone)]
pub struct PavenetNode {
    uid: NodeId,
    signal: SignalModel,
    /// Clears this node's noise-only samples against its threshold.
    bound: NoiseBound,
    detector: Detector,
    leds: LedBank,
    eeprom: Eeprom,
    energy: EnergyMeter,
    next_seq: u16,
    /// Peak activation of the current window's exactly computed samples;
    /// [`PavenetNode::settled_peak`] adds the skipped ones.
    window_peak_activation: f64,
    /// `in_use` of each sample of the current window, bit `i` for its
    /// `i`-th sample.
    window_in_use: u16,
    /// Window position of the current window's first skipped sample, if
    /// any: [`PavenetNode::settled_peak`] replays from there.
    replay_from: Option<u8>,
    /// The node's RNG words just before that sample's draws (stale while
    /// `replay_from` is `None`).
    replay_words: [u64; 4],
    windows_closed: u64,
    reports_sent: u64,
    /// Fault injection: a crashed node neither samples nor reports.
    failed: bool,
    /// Fault injection: P(sample reads "in use" while the tool is idle).
    flip_false_positive: f64,
    /// Fault injection: P(sample reads "idle" while the tool is in use).
    flip_false_negative: f64,
    /// Fault injection: offset added to the node's report timestamps.
    clock_skew_ms: i64,
}

impl PavenetNode {
    /// Creates a node attached to a tool with the given signal behaviour.
    #[must_use]
    pub fn new(uid: NodeId, signal: SignalModel, thresholds: Thresholds) -> Self {
        let threshold = thresholds.for_kind(signal.kind());
        PavenetNode {
            uid,
            signal,
            bound: signal.noise_bound(threshold),
            detector: Detector::new(threshold),
            leds: LedBank::new(),
            eeprom: Eeprom::new(),
            energy: EnergyMeter::new(),
            next_seq: 0,
            window_peak_activation: 0.0,
            window_in_use: 0,
            replay_from: None,
            replay_words: [0; 4],
            windows_closed: 0,
            reports_sent: 0,
            failed: false,
            flip_false_positive: 0.0,
            flip_false_negative: 0.0,
            clock_skew_ms: 0,
        }
    }

    /// The node's uid (and therefore the tool ID it reports).
    #[must_use]
    pub const fn uid(&self) -> NodeId {
        self.uid
    }

    /// The node's signal model.
    #[must_use]
    pub const fn signal(&self) -> SignalModel {
        self.signal
    }

    /// Read access to the LED bank (tests and the scenario renderer).
    #[must_use]
    pub const fn leds(&self) -> &LedBank {
        &self.leds
    }

    /// Sets an LED (applied by the network layer when an LED command
    /// arrives).
    pub fn set_led(&mut self, color: LedColor, on: bool) {
        self.leds.set(color, on);
    }

    /// Mutable access to the EEPROM.
    pub fn eeprom_mut(&mut self) -> &mut Eeprom {
        &mut self.eeprom
    }

    /// The node's energy meter.
    #[must_use]
    pub const fn energy(&self) -> &EnergyMeter {
        &self.energy
    }

    /// Mutable access to the energy meter (the network layer charges
    /// radio activity here; LEDs are charged when commands are applied).
    pub fn energy_mut(&mut self) -> &mut EnergyMeter {
        &mut self.energy
    }

    /// Turns all LEDs off (end of a reminder).
    pub fn clear_leds(&mut self) {
        self.leds.clear();
    }

    /// Number of detection windows completed.
    #[must_use]
    pub const fn windows_closed(&self) -> u64 {
        self.windows_closed
    }

    /// Number of `ToolUse` reports emitted.
    #[must_use]
    pub const fn reports_sent(&self) -> u64 {
        self.reports_sent
    }

    /// One 100 ms sampling tick. `in_use` is ground truth from the
    /// behaviour simulation: is the person manipulating this tool right
    /// now? Returns a `ToolUse` packet when a detection window closes with
    /// a positive verdict.
    ///
    /// A quiet sample whose drawn uniforms prove it stays below the
    /// threshold votes `false` without computing its activation. Every
    /// tick of a window must draw from one stream that nothing else draws
    /// from in between (each node of a `Coreda` system owns its stream):
    /// [`PavenetNode::export_state`] replays the skipped samples from it
    /// to report the window's exact peak.
    pub fn sample_tick(&mut self, in_use: bool, now_ms: u64, rng: &mut SimRng) -> Option<Packet> {
        if self.failed {
            // A crashed mote draws no power and produces nothing; its RNG
            // stream is left untouched so a reboot resumes deterministically.
            return None;
        }
        self.energy.charge_samples(1);
        let at = self.detector.buffered();
        let before = rng.state_parts().0;
        let active = self.flip(in_use, rng);
        self.window_in_use |= u16::from(in_use) << at;
        let verdict = match self.signal.sample_activation(active, self.bound, rng) {
            Some(activation) => {
                self.window_peak_activation = self.window_peak_activation.max(activation);
                self.detector.push_activation(activation)
            }
            None => {
                if self.replay_from.is_none() {
                    self.replay_from = Some(at as u8);
                    self.replay_words = before;
                }
                self.detector.push_vote(false)
            }
        }?;
        self.windows_closed += 1;
        // A positive window has at least three samples above the
        // threshold, all computed exactly, and every skipped sample is at
        // or below it: the exact samples' peak is the window's.
        let peak = self.window_peak_activation;
        self.clear_window();
        if !verdict {
            return None;
        }
        let seq = self.next_seq;
        self.next_seq = self.next_seq.wrapping_add(1);
        self.reports_sent += 1;
        let activation_milli = (peak * 1000.0).clamp(0.0, f64::from(u16::MAX)) as u16;
        let stamped_ms = now_ms.saturating_add_signed(self.clock_skew_ms);
        Some(Packet::new(self.uid, seq, stamped_ms, Payload::ToolUse { activation_milli }))
    }

    /// Fault injection: crashes (`true`) or reboots (`false`) the mote. A
    /// crashed node stops sampling, reporting, and applying LED commands.
    pub fn set_failed(&mut self, failed: bool) {
        if !self.failed && failed {
            // Power loss wipes the detector's in-flight window.
            self.reset_detector();
        }
        self.failed = failed;
    }

    /// Whether the mote is currently crashed.
    #[must_use]
    pub const fn is_failed(&self) -> bool {
        self.failed
    }

    /// Fault injection: per-sample sensing flip probabilities.
    ///
    /// # Panics
    ///
    /// Panics if either rate is outside `[0, 1]`.
    pub fn set_sensor_flip(&mut self, false_positive: f64, false_negative: f64) {
        assert!((0.0..=1.0).contains(&false_positive), "false_positive must be a probability");
        assert!((0.0..=1.0).contains(&false_negative), "false_negative must be a probability");
        // The replay draws its flips at the current rates.
        self.window_peak_activation = self.settled_peak();
        self.replay_from = None;
        self.flip_false_positive = false_positive;
        self.flip_false_negative = false_negative;
    }

    /// Fault injection: skews the clock the mote stamps its reports with.
    pub fn set_clock_skew_ms(&mut self, skew_ms: i64) {
        self.clock_skew_ms = skew_ms;
    }

    /// Resets detector state (e.g. between experiment trials).
    pub fn reset_detector(&mut self) {
        self.detector.reset();
        self.clear_window();
    }

    /// Drops the per-window peak and replay state.
    fn clear_window(&mut self) {
        self.window_peak_activation = 0.0;
        self.window_in_use = 0;
        self.replay_from = None;
    }

    /// Applies the sensing flip faults to a sample's `in_use`.
    fn flip(&self, in_use: bool, rng: &mut SimRng) -> bool {
        let flip_p = if in_use { self.flip_false_negative } else { self.flip_false_positive };
        if flip_p > 0.0 && rng.chance(flip_p) {
            !in_use
        } else {
            in_use
        }
    }

    /// The current window's exact peak activation: the exactly computed
    /// samples' peak, raised by replaying every sample from the first
    /// skipped one through [`SignalModel::sample`].
    fn settled_peak(&self) -> f64 {
        let Some(from) = self.replay_from else {
            return self.window_peak_activation;
        };
        // Only `next_u64` is drawn, which the base seed does not affect.
        let mut rng = SimRng::from_state_parts(self.replay_words, 0);
        (from..self.detector.buffered() as u8).fold(self.window_peak_activation, |peak, at| {
            let active = self.flip(self.window_in_use >> at & 1 == 1, &mut rng);
            peak.max(self.signal.sample(active, &mut rng).activation())
        })
    }

    /// Captures the node's resumable mutable state (checkpointing).
    #[must_use]
    pub fn export_state(&self) -> NodeState {
        NodeState {
            detector_window: self.detector.window_votes(),
            led_green: self.leds.is_on(LedColor::Green),
            led_red: self.leds.is_on(LedColor::Red),
            energy_uj: self.energy.consumed_uj(),
            energy_breakdown: self.energy.breakdown(),
            next_seq: self.next_seq,
            window_peak_activation: self.settled_peak(),
            windows_closed: self.windows_closed,
            reports_sent: self.reports_sent,
            failed: self.failed,
            flip_false_positive: self.flip_false_positive,
            flip_false_negative: self.flip_false_negative,
            clock_skew_ms: self.clock_skew_ms,
        }
    }

    /// Restores state captured by [`PavenetNode::export_state`] onto a
    /// freshly built node with the same signal model and thresholds.
    ///
    /// The `failed` flag is written directly (not via
    /// [`PavenetNode::set_failed`]) so the captured in-flight detector
    /// window survives the restore.
    ///
    /// # Panics
    ///
    /// Propagates the panics of the underlying restore methods on
    /// malformed input (oversized window, non-finite energy, flip rates
    /// outside `[0, 1]`).
    pub fn restore_state(&mut self, state: &NodeState) {
        self.detector.restore_window(&state.detector_window);
        self.clear_window();
        self.leds.set(LedColor::Green, state.led_green);
        self.leds.set(LedColor::Red, state.led_red);
        let (samples, tx, rx, led, sleep) = state.energy_breakdown;
        self.energy.restore_totals(state.energy_uj, samples, tx, rx, led, sleep);
        self.next_seq = state.next_seq;
        self.window_peak_activation = state.window_peak_activation;
        self.windows_closed = state.windows_closed;
        self.reports_sent = state.reports_sent;
        self.failed = state.failed;
        self.set_sensor_flip(state.flip_false_positive, state.flip_false_negative);
        self.clock_skew_ms = state.clock_skew_ms;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node() -> PavenetNode {
        PavenetNode::new(
            NodeId::new(7),
            SignalModel::accelerometer(0.03, 0.5, 0.9),
            Thresholds::default(),
        )
    }

    #[test]
    fn idle_tool_stays_silent() {
        let mut n = node();
        let mut rng = SimRng::seed_from(1);
        let mut reports = 0;
        for t in 0..300 {
            if n.sample_tick(false, t * 100, &mut rng).is_some() {
                reports += 1;
            }
        }
        assert_eq!(reports, 0, "a still tool should never report use");
        assert_eq!(n.windows_closed(), 30);
    }

    #[test]
    fn used_tool_reports_most_windows() {
        let mut n = node();
        let mut rng = SimRng::seed_from(2);
        let mut reports = 0;
        for t in 0..300 {
            if n.sample_tick(true, t * 100, &mut rng).is_some() {
                reports += 1;
            }
        }
        assert!(reports >= 28, "expected nearly every active window to report, got {reports}/30");
        assert_eq!(n.reports_sent(), reports);
    }

    #[test]
    fn report_carries_uid_and_increasing_seq() {
        let mut n = node();
        let mut rng = SimRng::seed_from(3);
        let mut seqs = Vec::new();
        for t in 0..200 {
            if let Some(p) = n.sample_tick(true, t * 100, &mut rng) {
                assert_eq!(p.src, NodeId::new(7));
                assert!(matches!(p.payload, Payload::ToolUse { .. }));
                seqs.push(p.seq);
            }
        }
        for w in seqs.windows(2) {
            assert_eq!(w[1], w[0] + 1, "sequence numbers must increment");
        }
    }

    #[test]
    fn activation_milli_reflects_signal_strength() {
        let mut n = node();
        let mut rng = SimRng::seed_from(4);
        let mut activations = Vec::new();
        for t in 0..200 {
            if let Some(Packet { payload: Payload::ToolUse { activation_milli }, .. }) =
                n.sample_tick(true, t * 100, &mut rng)
            {
                activations.push(activation_milli);
            }
        }
        let mean: f64 =
            activations.iter().map(|&a| f64::from(a)).sum::<f64>() / activations.len() as f64;
        assert!(mean > 150.0, "peak activations should exceed threshold scale, mean {mean}");
    }

    #[test]
    fn leds_respond_to_commands() {
        let mut n = node();
        n.set_led(LedColor::Green, true);
        assert!(n.leds().is_on(LedColor::Green));
        assert!(!n.leds().is_on(LedColor::Red));
    }

    #[test]
    fn eeprom_is_usable() {
        let mut n = node();
        n.eeprom_mut().write(0, &[7, 0]).unwrap();
        assert_eq!(n.eeprom_mut().read(0, 2).unwrap(), &[7, 0]);
    }

    #[test]
    fn export_restore_resumes_identically() {
        let mut live = node();
        let mut ghost = node();
        let mut live_rng = SimRng::seed_from(6);
        let mut ghost_rng = SimRng::seed_from(6);
        // Advance both mid-window (37 ticks leaves 7 samples buffered).
        for t in 0..37 {
            let _ = live.sample_tick(true, t * 100, &mut live_rng);
            let _ = ghost.sample_tick(true, t * 100, &mut ghost_rng);
        }
        live.set_clock_skew_ms(250);
        ghost.set_clock_skew_ms(250);
        let state = live.export_state();
        let mut resumed = node();
        resumed.restore_state(&state);
        let (rng_state, rng_base) = live_rng.state_parts();
        let mut resumed_rng = SimRng::from_state_parts(rng_state, rng_base);
        for t in 37..80 {
            let a = resumed.sample_tick(true, t * 100, &mut resumed_rng);
            let b = ghost.sample_tick(true, t * 100, &mut ghost_rng);
            assert_eq!(a, b, "resumed node diverged at tick {t}");
        }
        assert_eq!(resumed.windows_closed(), ghost.windows_closed());
        assert_eq!(resumed.reports_sent(), ghost.reports_sent());
        assert_eq!(resumed.energy().consumed_uj(), ghost.energy().consumed_uj());
    }

    #[test]
    fn reset_detector_drops_partial_window() {
        let mut n = node();
        let mut rng = SimRng::seed_from(5);
        for t in 0..5 {
            let _ = n.sample_tick(true, t * 100, &mut rng);
        }
        n.reset_detector();
        // The next 9 ticks must not close a window (it restarts at 0).
        let mut verdicts = 0;
        for t in 0..9 {
            if n.sample_tick(true, t * 100, &mut rng).is_some() {
                verdicts += 1;
            }
        }
        assert_eq!(verdicts, 0);
    }
}
