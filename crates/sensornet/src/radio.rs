//! The CC1000 radio link model.
//!
//! Airtime follows the real transceiver's bitrate; losses come from a
//! pluggable [`LossModel`] — Bernoulli for memoryless noise, Gilbert–
//! Elliott for the bursty fading a kitchen full of moving people actually
//! produces.

use coreda_des::rng::SimRng;
use coreda_des::time::SimDuration;
use serde::{Deserialize, Serialize};

use crate::hw::RADIO_BITRATE_BPS;

/// Per-frame loss processes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LossModel {
    /// Every frame is delivered.
    Perfect,
    /// Each frame is independently lost with probability `p`.
    Bernoulli {
        /// Loss probability.
        p: f64,
    },
    /// Two-state Markov (Gilbert–Elliott) burst-loss model.
    GilbertElliott {
        /// P(good → bad) per frame.
        p_good_to_bad: f64,
        /// P(bad → good) per frame.
        p_bad_to_good: f64,
        /// Loss probability while in the good state.
        loss_good: f64,
        /// Loss probability while in the bad state.
        loss_bad: f64,
    },
}

impl LossModel {
    /// Validates the model's probabilities.
    ///
    /// # Panics
    ///
    /// Panics if any probability is outside `[0, 1]`.
    pub fn validate(&self) {
        let check = |name: &str, v: f64| {
            assert!((0.0..=1.0).contains(&v), "{name} must be a probability, got {v}");
        };
        match *self {
            LossModel::Perfect => {}
            LossModel::Bernoulli { p } => check("p", p),
            LossModel::GilbertElliott { p_good_to_bad, p_bad_to_good, loss_good, loss_bad } => {
                check("p_good_to_bad", p_good_to_bad);
                check("p_bad_to_good", p_bad_to_good);
                check("loss_good", loss_good);
                check("loss_bad", loss_bad);
            }
        }
    }
}

/// One point-to-point radio link's channel state: the Gilbert–Elliott
/// state and the frame counters. The loss process is not part of it:
/// every link of a [`StarNetwork`](crate::network::StarNetwork) follows
/// the network's one [`LossModel`], which [`RadioLink::transmit`] takes
/// as an argument.
///
/// # Examples
///
/// ```
/// use coreda_des::rng::SimRng;
/// use coreda_sensornet::radio::{LossModel, RadioLink};
///
/// let mut link = RadioLink::default();
/// let mut rng = SimRng::seed_from(0);
/// assert!(link.transmit(&LossModel::Perfect, &mut rng));
/// assert!(RadioLink::airtime(32).as_millis() >= 3);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RadioLink {
    /// Whether the Gilbert–Elliott channel is in the bad state (always
    /// `false` for memoryless models).
    pub(crate) in_bad_state: bool,
    /// Frames attempted so far.
    pub(crate) frames_sent: u64,
    /// Frames lost so far.
    pub(crate) frames_lost: u64,
}

impl RadioLink {
    /// Time on air for a frame of `len_bytes` at the CC1000's bitrate,
    /// rounded up to the next millisecond (plus one ms of MAC overhead).
    #[must_use]
    pub fn airtime(len_bytes: usize) -> SimDuration {
        let bits = len_bytes as u64 * 8;
        let micros = bits * 1_000_000 / RADIO_BITRATE_BPS;
        SimDuration::from_millis(micros / 1000 + 1)
    }

    /// Attempts one frame transmission under `loss`; returns whether it
    /// was delivered. The caller validates `loss` (see
    /// [`LossModel::validate`]).
    pub fn transmit(&mut self, loss: &LossModel, rng: &mut SimRng) -> bool {
        self.frames_sent += 1;
        let lost = match *loss {
            LossModel::Perfect => false,
            LossModel::Bernoulli { p } => p > 0.0 && rng.chance(p),
            LossModel::GilbertElliott { p_good_to_bad, p_bad_to_good, loss_good, loss_bad } => {
                // Advance the channel state, then sample a loss in it.
                if self.in_bad_state {
                    if p_bad_to_good > 0.0 && rng.chance(p_bad_to_good) {
                        self.in_bad_state = false;
                    }
                } else if p_good_to_bad > 0.0 && rng.chance(p_good_to_bad) {
                    self.in_bad_state = true;
                }
                let p = if self.in_bad_state { loss_bad } else { loss_good };
                p > 0.0 && rng.chance(p)
            }
        };
        if lost {
            self.frames_lost += 1;
        }
        !lost
    }

    /// Observed loss rate.
    #[must_use]
    pub fn loss_rate(&self) -> f64 {
        if self.frames_sent == 0 {
            0.0
        } else {
            self.frames_lost as f64 / self.frames_sent as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_link_never_loses() {
        let mut link = RadioLink::default();
        let mut rng = SimRng::seed_from(1);
        for _ in 0..1000 {
            assert!(link.transmit(&LossModel::Perfect, &mut rng));
        }
        assert_eq!(link.loss_rate(), 0.0);
    }

    #[test]
    fn bernoulli_loss_rate_matches() {
        let mut link = RadioLink::default();
        let mut rng = SimRng::seed_from(2);
        for _ in 0..10_000 {
            let _ = link.transmit(&LossModel::Bernoulli { p: 0.3 }, &mut rng);
        }
        assert!((link.loss_rate() - 0.3).abs() < 0.02, "rate {}", link.loss_rate());
    }

    #[test]
    fn gilbert_elliott_is_bursty() {
        let model = LossModel::GilbertElliott {
            p_good_to_bad: 0.05,
            p_bad_to_good: 0.2,
            loss_good: 0.01,
            loss_bad: 0.8,
        };
        let mut link = RadioLink::default();
        let mut rng = SimRng::seed_from(3);
        let outcomes: Vec<bool> = (0..20_000).map(|_| link.transmit(&model, &mut rng)).collect();
        // Burstiness: the probability a loss follows a loss should be well
        // above the marginal loss rate.
        let losses = outcomes.iter().filter(|&&ok| !ok).count() as f64;
        let marginal = losses / outcomes.len() as f64;
        let mut loss_after_loss = 0.0;
        let mut loss_pairs = 0.0;
        for w in outcomes.windows(2) {
            if !w[0] {
                loss_pairs += 1.0;
                if !w[1] {
                    loss_after_loss += 1.0;
                }
            }
        }
        let conditional = loss_after_loss / loss_pairs;
        assert!(
            conditional > marginal * 1.5,
            "expected bursty losses: P(loss|loss) = {conditional:.3} vs marginal {marginal:.3}"
        );
    }

    #[test]
    fn airtime_scales_with_length() {
        let short = RadioLink::airtime(8);
        let long = RadioLink::airtime(64);
        assert!(long > short);
        // 64 bytes = 512 bits at 76.8 kbps ≈ 6.7 ms + 1 overhead.
        assert_eq!(long, SimDuration::from_millis(7));
    }

    #[test]
    fn counters_track_activity() {
        let mut link = RadioLink::default();
        let mut rng = SimRng::seed_from(4);
        assert!(!link.transmit(&LossModel::Bernoulli { p: 1.0 }, &mut rng));
        assert_eq!((link.frames_sent, link.frames_lost), (1, 1));
    }

    #[test]
    #[should_panic(expected = "must be a probability")]
    fn invalid_probability_rejected() {
        LossModel::Bernoulli { p: 1.5 }.validate();
    }
}
