//! Property-based tests for the sensor-network substrate.

use coreda_des::rng::SimRng;
use coreda_sensornet::detect::{Detector, Thresholds};
use coreda_sensornet::energy::EnergyMeter;
use coreda_sensornet::led::{BlinkPattern, LedColor};
use coreda_sensornet::node::{NodeId, NodeState, PavenetNode};
use coreda_sensornet::packet::{crc16, Packet, Payload};
use coreda_sensornet::sensors::{Reading, SensorKind, Vec3};
use coreda_sensornet::signal::SignalModel;
use coreda_sensornet::trace::SignalTrace;
use proptest::prelude::*;

fn arb_reading() -> impl Strategy<Value = Reading> {
    prop_oneof![
        (-4.0f64..4.0, -4.0f64..4.0, -4.0f64..4.0)
            .prop_map(|(x, y, z)| Reading::Accel(Vec3::new(x, y, z))),
        (50.0f64..150.0).prop_map(Reading::Pressure),
        (0.0f64..2000.0).prop_map(Reading::Brightness),
        (-20.0f64..60.0).prop_map(Reading::Temperature),
        any::<bool>().prop_map(Reading::Motion),
    ]
}

fn arb_payload() -> impl Strategy<Value = Payload> {
    prop_oneof![
        any::<u16>().prop_map(|a| Payload::ToolUse { activation_milli: a }),
        any::<u16>().prop_map(|s| Payload::Ack { acked_seq: s }),
        Just(Payload::Heartbeat),
        (any::<bool>(), any::<u8>(), 0u64..u64::from(u16::MAX)).prop_map(|(red, blinks, period)| {
            Payload::Led {
                pattern: BlinkPattern {
                    color: if red { LedColor::Red } else { LedColor::Green },
                    blinks,
                    period_ms: period,
                },
            }
        }),
    ]
}

fn arb_packet() -> impl Strategy<Value = Packet> {
    (any::<u16>(), any::<u16>(), any::<u64>(), arb_payload())
        .prop_map(|(src, seq, ts, payload)| Packet::new(NodeId::new(src), seq, ts, payload))
}

proptest! {
    /// Every packet round-trips through the wire format.
    #[test]
    fn packet_roundtrip(p in arb_packet()) {
        let bytes = p.encode();
        prop_assert!(bytes.len() <= coreda_sensornet::packet::MAX_FRAME_LEN);
        prop_assert_eq!(Packet::decode(&bytes).unwrap(), p);
    }

    /// Any single-bit flip anywhere in a frame is rejected.
    #[test]
    fn single_bit_corruption_rejected(p in arb_packet(), byte in 0usize..32, bit in 0u8..8) {
        let mut bytes = p.encode().to_vec();
        let idx = byte % bytes.len();
        bytes[idx] ^= 1 << bit;
        prop_assert!(Packet::decode(&bytes).is_err());
    }

    /// Decoding never panics on arbitrary garbage.
    #[test]
    fn decode_is_total(garbage in proptest::collection::vec(any::<u8>(), 0..80)) {
        let _ = Packet::decode(&garbage);
    }

    /// CRC16 changes under any single-byte change (for short inputs).
    #[test]
    fn crc_detects_single_byte_change(
        data in proptest::collection::vec(any::<u8>(), 1..40),
        idx in 0usize..40,
        delta in 1u8..=255,
    ) {
        let idx = idx % data.len();
        let mut mutated = data.clone();
        mutated[idx] = mutated[idx].wrapping_add(delta);
        prop_assert_ne!(crc16(&data), crc16(&mutated));
    }

    /// The detector verdict equals "at least 3 of 10 above threshold", for
    /// any pattern of sample activations.
    #[test]
    fn detector_matches_specification(activations in proptest::collection::vec(0.0f64..1.0, 10)) {
        let det = Detector::new(Thresholds::default().accel);
        let window: Vec<Reading> = activations
            .iter()
            // Put all deviation on x so activation ≈ |sqrt(x²+1) − 1|… use
            // a direct construction instead: z = 1 + a gives activation a.
            .map(|&a| Reading::Accel(Vec3::new(0.0, 0.0, 1.0 + a)))
            .collect();
        let expected = activations
            .iter()
            .filter(|&&a| a > det.threshold())
            .count()
            >= 3;
        prop_assert_eq!(det.judge_window(&window), expected);
    }

    /// Signal traces round-trip losslessly through the text format.
    #[test]
    fn trace_roundtrip(
        tool in any::<u16>(),
        readings in proptest::collection::vec(arb_reading(), 0..50),
    ) {
        let trace = SignalTrace { tool, period_ms: 100, readings };
        let parsed = SignalTrace::from_text(&trace.to_text()).unwrap();
        prop_assert_eq!(parsed, trace);
    }

    /// Trace parsing never panics on arbitrary text.
    #[test]
    fn trace_parse_is_total(garbage in "\\PC{0,200}") {
        let _ = SignalTrace::from_text(&garbage);
    }

    /// Blink schedules are sorted, alternate on/off, and span the pattern
    /// duration.
    #[test]
    fn blink_schedule_well_formed(blinks in 1u8..20, period in 2u64..5_000) {
        use coreda_des::time::SimTime;
        let p = BlinkPattern { color: LedColor::Green, blinks, period_ms: period };
        let sched = p.schedule(SimTime::from_secs(1));
        prop_assert_eq!(sched.len(), usize::from(blinks) * 2);
        for (i, &(t, on)) in sched.iter().enumerate() {
            prop_assert_eq!(on, i % 2 == 0, "entries must alternate on/off");
            prop_assert!(t >= SimTime::from_secs(1));
        }
        for w in sched.windows(2) {
            prop_assert!(w[0].0 <= w[1].0);
        }
    }
}

/// The node's sampling as it was before the noise bound: every sample's
/// activation computed eagerly through `SignalModel::sample`, and the
/// window peak kept sample by sample.
struct EagerNode {
    uid: NodeId,
    signal: SignalModel,
    detector: Detector,
    energy: EnergyMeter,
    next_seq: u16,
    peak: f64,
    windows_closed: u64,
    reports_sent: u64,
    failed: bool,
    flip: (f64, f64),
}

impl EagerNode {
    fn new(uid: NodeId, signal: SignalModel, thresholds: Thresholds) -> Self {
        EagerNode {
            uid,
            signal,
            detector: Detector::new(thresholds.for_kind(signal.kind())),
            energy: EnergyMeter::new(),
            next_seq: 0,
            peak: 0.0,
            windows_closed: 0,
            reports_sent: 0,
            failed: false,
            flip: (0.0, 0.0),
        }
    }

    fn sample_tick(&mut self, in_use: bool, now_ms: u64, rng: &mut SimRng) -> Option<Packet> {
        if self.failed {
            return None;
        }
        self.energy.charge_samples(1);
        let flip_p = if in_use { self.flip.1 } else { self.flip.0 };
        let in_use = if flip_p > 0.0 && rng.chance(flip_p) { !in_use } else { in_use };
        let reading = self.signal.sample(in_use, rng);
        let activation = reading.activation();
        self.peak = self.peak.max(activation);
        let verdict = self.detector.push_activation(activation)?;
        self.windows_closed += 1;
        let peak = std::mem::replace(&mut self.peak, 0.0);
        if !verdict {
            return None;
        }
        let seq = self.next_seq;
        self.next_seq = seq.wrapping_add(1);
        self.reports_sent += 1;
        let activation_milli = (peak * 1000.0).clamp(0.0, f64::from(u16::MAX)) as u16;
        Some(Packet::new(self.uid, seq, now_ms, Payload::ToolUse { activation_milli }))
    }

    fn set_failed(&mut self, failed: bool) {
        if !self.failed && failed {
            self.reset_detector();
        }
        self.failed = failed;
    }

    fn reset_detector(&mut self) {
        self.detector.reset();
        self.peak = 0.0;
    }

    fn export_state(&self) -> NodeState {
        NodeState {
            detector_window: self.detector.window_votes(),
            led_green: false,
            led_red: false,
            energy_uj: self.energy.consumed_uj(),
            energy_breakdown: self.energy.breakdown(),
            next_seq: self.next_seq,
            window_peak_activation: self.peak,
            windows_closed: self.windows_closed,
            reports_sent: self.reports_sent,
            failed: self.failed,
            flip_false_positive: self.flip.0,
            flip_false_negative: self.flip.1,
            clock_skew_ms: 0,
        }
    }

    fn restore_state(&mut self, s: &NodeState) {
        self.detector.restore_window(&s.detector_window);
        let (samples, tx, rx, led, sleep) = s.energy_breakdown;
        self.energy.restore_totals(s.energy_uj, samples, tx, rx, led, sleep);
        self.next_seq = s.next_seq;
        self.peak = s.window_peak_activation;
        self.windows_closed = s.windows_closed;
        self.reports_sent = s.reports_sent;
        self.failed = s.failed;
        self.flip = (s.flip_false_positive, s.flip_false_negative);
    }
}

/// A node state with its floats as bits, so `-0.0` and `0.0` differ.
fn state_bits(s: &NodeState) -> impl PartialEq + std::fmt::Debug {
    (
        (s.detector_window.clone(), s.led_green, s.led_red, s.energy_uj.to_bits()),
        (s.energy_breakdown, s.next_seq, s.window_peak_activation.to_bits()),
        (s.windows_closed, s.reports_sent, s.failed, s.clock_skew_ms),
        (s.flip_false_positive.to_bits(), s.flip_false_negative.to_bits()),
    )
}

/// One step of the differential drive.
#[derive(Debug, Clone)]
enum NodeOp {
    /// Ticks with these ground-truth in-use flags.
    Ticks(Vec<bool>),
    /// New sensing flip rates, usually mid-window.
    Flip(f64, f64),
    Crash,
    Reboot,
    ResetDetector,
    /// `export_state` → `restore_state` into a freshly built node.
    Restore,
}

fn arb_node_op() -> impl Strategy<Value = NodeOp> {
    let rate = || prop_oneof![Just(0.0), 0.0f64..0.4];
    prop_oneof![
        proptest::collection::vec(any::<bool>(), 1..25).prop_map(NodeOp::Ticks),
        proptest::collection::vec(any::<bool>(), 1..25).prop_map(NodeOp::Ticks),
        proptest::collection::vec(Just(false), 1..25).prop_map(NodeOp::Ticks),
        (rate(), rate()).prop_map(|(fp, fneg)| NodeOp::Flip(fp, fneg)),
        Just(NodeOp::Crash),
        Just(NodeOp::Reboot),
        Just(NodeOp::ResetDetector),
        Just(NodeOp::Restore),
    ]
}

fn arb_kind() -> impl Strategy<Value = SensorKind> {
    prop_oneof![
        Just(SensorKind::Accelerometer),
        Just(SensorKind::Accelerometer),
        Just(SensorKind::Pressure),
        Just(SensorKind::Brightness),
        Just(SensorKind::Temperature),
        Just(SensorKind::Motion),
    ]
}

proptest! {
    /// The node's skip path is exact: driven side by side with the eager
    /// reference through ticks, flip changes mid-window, crashes and
    /// reboots, detector resets and export → restore round trips, it
    /// returns the same packets, exports the same state to the bit
    /// (including the window's running peak) and leaves its stream at
    /// the same position. Thresholds sit within a few σ of the noise, so
    /// both the skip and the exact path run, often near the threshold.
    #[test]
    fn the_skip_path_matches_eager_sampling(
        model in (
            arb_kind(),
            prop_oneof![Just(0.0), 0.001f64..0.5, 0.001f64..0.05],
            0.0f64..2.0,
            0.0f64..=1.0,
        ),
        sigmas in prop_oneof![0.3f64..6.0, 0.3f64..6.0, Just(0.0), Just(-1.0), Just(f64::NAN)],
        seed in any::<u64>(),
        ops in proptest::collection::vec(arb_node_op(), 1..40),
    ) {
        let (kind, noise_sd, amplitude, duty) = model;
        let signal = SignalModel::new(kind, noise_sd, amplitude, duty);
        let threshold = sigmas * if noise_sd > 0.0 { noise_sd } else { 0.05 };
        let thresholds = Thresholds {
            accel: threshold,
            pressure: threshold,
            brightness: threshold,
            temperature: threshold,
        };
        let uid = NodeId::new(3);
        let mut node = PavenetNode::new(uid, signal, thresholds);
        let mut eager = EagerNode::new(uid, signal, thresholds);
        let mut rng = SimRng::seed_from(seed);
        let mut eager_rng = rng.clone();
        let mut now_ms = 0;
        for op in &ops {
            match op {
                NodeOp::Ticks(flags) => {
                    for &in_use in flags {
                        now_ms += 100;
                        prop_assert_eq!(
                            node.sample_tick(in_use, now_ms, &mut rng),
                            eager.sample_tick(in_use, now_ms, &mut eager_rng),
                            "tick at {}ms after {:?}", now_ms, op
                        );
                    }
                }
                &NodeOp::Flip(fp, fneg) => {
                    node.set_sensor_flip(fp, fneg);
                    eager.flip = (fp, fneg);
                }
                NodeOp::Crash => {
                    node.set_failed(true);
                    eager.set_failed(true);
                }
                NodeOp::Reboot => {
                    node.set_failed(false);
                    eager.set_failed(false);
                }
                NodeOp::ResetDetector => {
                    node.reset_detector();
                    eager.reset_detector();
                }
                NodeOp::Restore => {
                    let state = node.export_state();
                    node = PavenetNode::new(uid, signal, thresholds);
                    node.restore_state(&state);
                    let state = eager.export_state();
                    eager = EagerNode::new(uid, signal, thresholds);
                    eager.restore_state(&state);
                }
            }
            prop_assert_eq!(
                state_bits(&node.export_state()),
                state_bits(&eager.export_state()),
                "state after {:?}", op
            );
            prop_assert_eq!(rng.state_parts(), eager_rng.state_parts(), "stream after {:?}", op);
        }
    }
}
