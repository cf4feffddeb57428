//! Node energy accounting.
//!
//! PAVENET motes run on batteries; a reminding system that drains them in
//! a week is not deployable. This model charges every node activity —
//! sampling, radio TX/RX, LED time — against an energy budget using
//! datasheet-scale constants for the PIC18LF4620 + CC1000 combination,
//! and answers "how many days does a tool node last?".

use serde::{Deserialize, Serialize};

/// Energy costs in microjoules, at 3 V supply.
///
/// Derived from typical datasheet figures: CC1000 TX ≈ 26.7 mA, RX ≈
/// 11.8 mA at 3 V; one byte at 76.8 kbps is ~104 µs on air; an ADC
/// sample plus processing on the PIC is on the order of a few µJ; an LED
/// draws ~6 mA while lit.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyModel {
    /// Energy per sensor sample (acquisition + threshold check).
    pub sample_uj: f64,
    /// Energy per transmitted byte.
    pub tx_byte_uj: f64,
    /// Energy per received byte.
    pub rx_byte_uj: f64,
    /// Energy per millisecond an LED is lit.
    pub led_ms_uj: f64,
    /// Idle (sleep) draw per millisecond.
    pub sleep_ms_uj: f64,
}

impl EnergyModel {
    /// The PIC18LF4620 + CC1000 figures every PAVENET mote is charged at.
    pub const PAVENET: EnergyModel = EnergyModel {
        sample_uj: 3.0,
        tx_byte_uj: 8.3,  // 26.7 mA · 3 V · 104 µs
        rx_byte_uj: 3.7,  // 11.8 mA · 3 V · 104 µs
        led_ms_uj: 18.0,  // 6 mA · 3 V · 1 ms
        sleep_ms_uj: 0.03,
    };
}

/// A per-node energy meter, charging at [`EnergyModel::PAVENET`]: every
/// mote is the same hardware, so the model is a constant, not a copy
/// per meter.
///
/// # Examples
///
/// ```
/// use coreda_sensornet::energy::EnergyMeter;
///
/// let mut meter = EnergyMeter::new();
/// meter.charge_samples(10);
/// meter.charge_tx(16);
/// assert!(meter.consumed_uj() > 0.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct EnergyMeter {
    consumed_uj: f64,
    samples: u64,
    tx_bytes: u64,
    rx_bytes: u64,
    led_ms: u64,
    sleep_ms: u64,
}

impl EnergyMeter {
    /// Creates a meter with nothing consumed.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Charges `n` sensor samples.
    pub fn charge_samples(&mut self, n: u64) {
        self.samples += n;
        self.consumed_uj += EnergyModel::PAVENET.sample_uj * n as f64;
    }

    /// Charges a transmission of `bytes`.
    pub fn charge_tx(&mut self, bytes: usize) {
        self.tx_bytes += bytes as u64;
        self.consumed_uj += EnergyModel::PAVENET.tx_byte_uj * bytes as f64;
    }

    /// Charges a reception of `bytes`.
    pub fn charge_rx(&mut self, bytes: usize) {
        self.rx_bytes += bytes as u64;
        self.consumed_uj += EnergyModel::PAVENET.rx_byte_uj * bytes as f64;
    }

    /// Charges `ms` milliseconds of a lit LED.
    pub fn charge_led(&mut self, ms: u64) {
        self.led_ms += ms;
        self.consumed_uj += EnergyModel::PAVENET.led_ms_uj * ms as f64;
    }

    /// Charges `ms` milliseconds of sleep draw.
    pub fn charge_sleep(&mut self, ms: u64) {
        self.sleep_ms += ms;
        self.consumed_uj += EnergyModel::PAVENET.sleep_ms_uj * ms as f64;
    }

    /// Total microjoules consumed.
    #[must_use]
    pub fn consumed_uj(&self) -> f64 {
        self.consumed_uj
    }

    /// Breakdown: (samples, tx bytes, rx bytes, led ms, sleep ms).
    #[must_use]
    pub fn breakdown(&self) -> (u64, u64, u64, u64, u64) {
        (self.samples, self.tx_bytes, self.rx_bytes, self.led_ms, self.sleep_ms)
    }

    /// Days a battery of `capacity_j` joules lasts at the observed mean
    /// power, given the meter covered `elapsed_ms` of simulated time.
    ///
    /// Returns `None` when nothing has been consumed yet.
    #[must_use]
    pub fn battery_days(&self, capacity_j: f64, elapsed_ms: u64) -> Option<f64> {
        if self.consumed_uj <= 0.0 || elapsed_ms == 0 {
            return None;
        }
        let mean_power_w = self.consumed_uj * 1e-6 / (elapsed_ms as f64 / 1000.0);
        let seconds = capacity_j / mean_power_w;
        Some(seconds / 86_400.0)
    }

    /// Resets the meter.
    pub fn reset(&mut self) {
        *self = EnergyMeter::new();
    }

    /// Restores the meter's accumulated totals from a checkpoint. The
    /// consumed energy is restored as the raw accumulated `f64` (not
    /// recomputed from the counters) so a resumed meter is bit-identical
    /// to the captured one.
    ///
    /// # Panics
    ///
    /// Panics if `consumed_uj` is negative or non-finite.
    #[allow(clippy::similar_names)]
    pub fn restore_totals(
        &mut self,
        consumed_uj: f64,
        samples: u64,
        tx_bytes: u64,
        rx_bytes: u64,
        led_ms: u64,
        sleep_ms: u64,
    ) {
        assert!(
            consumed_uj.is_finite() && consumed_uj >= 0.0,
            "consumed energy must be finite and non-negative, got {consumed_uj}"
        );
        self.consumed_uj = consumed_uj;
        self.samples = samples;
        self.tx_bytes = tx_bytes;
        self.rx_bytes = rx_bytes;
        self.led_ms = led_ms;
        self.sleep_ms = sleep_ms;
    }
}

/// Energy of two AA cells (~2×1.5 V · 2000 mAh ≈ 21.6 kJ usable at 3 V).
pub const TWO_AA_JOULES: f64 = 21_600.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate() {
        let mut m = EnergyMeter::new();
        m.charge_samples(100);
        m.charge_tx(32);
        m.charge_rx(8);
        m.charge_led(500);
        m.charge_sleep(10_000);
        let (s, tx, rx, led, sleep) = m.breakdown();
        assert_eq!((s, tx, rx, led, sleep), (100, 32, 8, 500, 10_000));
        let expected = 100.0 * 3.0 + 32.0 * 8.3 + 8.0 * 3.7 + 500.0 * 18.0 + 10_000.0 * 0.03;
        assert!((m.consumed_uj() - expected).abs() < 1e-9);
    }

    #[test]
    fn tx_costs_more_than_rx_per_byte() {
        let model = EnergyModel::PAVENET;
        assert!(model.tx_byte_uj > model.rx_byte_uj);
    }

    #[test]
    fn battery_days_scales_inversely_with_power() {
        let mut light = EnergyMeter::new();
        light.charge_samples(10);
        let mut heavy = EnergyMeter::new();
        heavy.charge_samples(1000);
        let elapsed = 60_000; // one minute
        let d_light = light.battery_days(TWO_AA_JOULES, elapsed).unwrap();
        let d_heavy = heavy.battery_days(TWO_AA_JOULES, elapsed).unwrap();
        assert!((d_light / d_heavy - 100.0).abs() < 1.0);
    }

    #[test]
    fn sampling_only_node_lasts_months() {
        // 10 Hz sampling with no radio: the dominant deployment mode.
        let mut m = EnergyMeter::new();
        let hours = 24;
        let ms = hours * 3600 * 1000;
        m.charge_samples(10 * 3600 * hours);
        m.charge_sleep(ms);
        let days = m.battery_days(TWO_AA_JOULES, ms).unwrap();
        assert!(days > 60.0, "expected months of life, got {days:.1} days");
    }

    #[test]
    fn no_consumption_no_estimate() {
        let m = EnergyMeter::new();
        assert_eq!(m.battery_days(TWO_AA_JOULES, 1000), None);
    }

    #[test]
    fn reset_zeroes() {
        let mut m = EnergyMeter::new();
        m.charge_tx(10);
        m.reset();
        assert_eq!(m.consumed_uj(), 0.0);
    }
}
