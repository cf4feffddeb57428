//! The star network: tool nodes → base station.
//!
//! The prototype's topology is a single-hop star — every PAVENET node
//! talks directly to the server's base station. This module adds the
//! link-layer behaviour the paper's server relied on: ARQ retransmission
//! with acknowledgements, and duplicate suppression at the base station
//! (a retransmitted frame whose ack was lost arrives twice).

use coreda_des::rng::SimRng;
use coreda_des::time::SimDuration;
use serde::{Deserialize, Serialize};

use crate::node::NodeId;
use crate::packet::{Packet, Payload};
use crate::radio::{LossModel, RadioLink};

/// Link-layer configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkConfig {
    /// Loss process applied to every frame (data and acks alike).
    pub loss: LossModel,
    /// Retransmissions after the first attempt.
    pub max_retries: u8,
    /// Pause before each retransmission.
    pub retry_backoff: SimDuration,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig {
            loss: LossModel::Perfect,
            max_retries: 3,
            retry_backoff: SimDuration::from_millis(20),
        }
    }
}

/// Outcome of an uplink send.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SendOutcome {
    /// The base station received the frame (possibly more than once).
    Delivered {
        /// Time from first transmission to the first successful delivery.
        latency: SimDuration,
        /// Transmissions attempted (1 = no retries needed).
        attempts: u8,
        /// 1-based index of the attempt that first got through.
        first_delivery_attempt: u8,
        /// Extra copies the base station received because acks were lost.
        duplicates: u8,
    },
    /// Every attempt was lost.
    Lost {
        /// Transmissions attempted.
        attempts: u8,
    },
}

impl SendOutcome {
    /// Whether the frame got through at least once.
    #[must_use]
    pub const fn is_delivered(&self) -> bool {
        matches!(self, SendOutcome::Delivered { .. })
    }
}

/// Cumulative link-layer tallies for one traffic direction.
///
/// The network updates these on every send; pull them with
/// [`StarNetwork::take_counters`] to feed a telemetry recorder. Purely
/// observational — reading or resetting them never touches link state
/// or randomness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkCounters {
    /// Logical frames offered to the link.
    pub frames: u64,
    /// Transmission attempts, retries included.
    pub attempts: u64,
    /// Frames that reached the receiver at least once.
    pub delivered: u64,
    /// Frames dropped after exhausting retries.
    pub lost: u64,
    /// Extra deliveries caused by lost acknowledgements.
    pub duplicates: u64,
}

impl LinkCounters {
    fn observe(&mut self, outcome: &SendOutcome) {
        self.frames += 1;
        match *outcome {
            SendOutcome::Delivered { attempts, duplicates, .. } => {
                self.attempts += u64::from(attempts);
                self.delivered += 1;
                self.duplicates += u64::from(duplicates);
            }
            SendOutcome::Lost { attempts } => {
                self.attempts += u64::from(attempts);
                self.lost += 1;
            }
        }
    }
}

/// The single-hop network connecting every tool node to the base station.
///
/// # Examples
///
/// ```
/// use coreda_des::rng::SimRng;
/// use coreda_sensornet::network::{LinkConfig, StarNetwork};
/// use coreda_sensornet::node::NodeId;
/// use coreda_sensornet::packet::{Packet, Payload};
///
/// let mut net = StarNetwork::new(LinkConfig::default());
/// net.register(NodeId::new(1));
/// let p = Packet::new(NodeId::new(1), 0, 0, Payload::Heartbeat);
/// let mut rng = SimRng::seed_from(0);
/// assert!(net.send_uplink(&p, &mut rng).is_delivered());
/// ```
#[derive(Debug, Clone)]
pub struct StarNetwork {
    cfg: LinkConfig,
    /// Each registered node's channel state, sorted by node id. Every
    /// link transmits under `cfg.loss`: there is no per-link model.
    links: Vec<(NodeId, RadioLink)>,
    uplink: LinkCounters,
    downlink: LinkCounters,
}

impl StarNetwork {
    /// Creates an empty network.
    ///
    /// # Panics
    ///
    /// Panics if the loss model holds an invalid probability.
    #[must_use]
    pub fn new(cfg: LinkConfig) -> Self {
        cfg.loss.validate();
        StarNetwork {
            cfg,
            links: Vec::new(),
            uplink: LinkCounters::default(),
            downlink: LinkCounters::default(),
        }
    }

    /// Registers a node, creating its link. Re-registering resets the link.
    pub fn register(&mut self, node: NodeId) {
        match self.links.binary_search_by_key(&node, |&(id, _)| id) {
            Ok(at) => self.links[at].1 = RadioLink::default(),
            Err(at) => self.links.insert(at, (node, RadioLink::default())),
        }
    }

    /// `node`'s link.
    ///
    /// # Panics
    ///
    /// Panics if `node` was never [`register`ed](Self::register).
    fn link(&mut self, node: NodeId) -> &mut RadioLink {
        match self.links.binary_search_by_key(&node, |&(id, _)| id) {
            Ok(at) => &mut self.links[at].1,
            Err(_) => panic!("node {node} is not registered"),
        }
    }

    /// Number of registered nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.links.len()
    }

    /// The link configuration.
    #[must_use]
    pub const fn config(&self) -> LinkConfig {
        self.cfg
    }

    /// Fault injection: swaps the link configuration every link
    /// transmits under (links registered later included) — the loss
    /// process, the ARQ retry budget and the backoff. Frame counters are
    /// preserved; Gilbert–Elliott channels restart in the good state.
    ///
    /// # Panics
    ///
    /// Panics if the loss model holds an invalid probability.
    pub fn set_link(&mut self, cfg: LinkConfig) {
        cfg.loss.validate();
        self.cfg = cfg;
        for (_, link) in &mut self.links {
            link.in_bad_state = false;
        }
    }

    /// Sends `packet` from its source node to the base station with
    /// stop-and-wait ARQ.
    ///
    /// # Panics
    ///
    /// Panics if the packet's source node was never [`register`ed](Self::register).
    pub fn send_uplink(&mut self, packet: &Packet, rng: &mut SimRng) -> SendOutcome {
        let outcome = self.send_via(packet.src, packet, rng);
        self.uplink.observe(&outcome);
        outcome
    }

    /// Sends `packet` from the base station down to `dest` (LED commands
    /// from the reminding subsystem) with the same stop-and-wait ARQ.
    ///
    /// # Panics
    ///
    /// Panics if `dest` was never [`register`ed](Self::register).
    pub fn send_downlink(&mut self, dest: NodeId, packet: &Packet, rng: &mut SimRng) -> SendOutcome {
        let outcome = self.send_via(dest, packet, rng);
        self.downlink.observe(&outcome);
        outcome
    }

    /// Uplink tallies since construction (or the last
    /// [`take_counters`](Self::take_counters)).
    #[must_use]
    pub const fn uplink_counters(&self) -> LinkCounters {
        self.uplink
    }

    /// Downlink tallies since construction (or the last
    /// [`take_counters`](Self::take_counters)).
    #[must_use]
    pub const fn downlink_counters(&self) -> LinkCounters {
        self.downlink
    }

    /// Returns `(uplink, downlink)` tallies and resets both to zero, so
    /// a caller polling once per tick sees per-tick deltas.
    pub fn take_counters(&mut self) -> (LinkCounters, LinkCounters) {
        (std::mem::take(&mut self.uplink), std::mem::take(&mut self.downlink))
    }

    /// Per-node link state `(node, in_bad_state, frames_sent, frames_lost)`
    /// sorted by node id — a deterministic export for checkpointing. Loss
    /// models are not included: a link has none of its own, every link
    /// transmits under `config().loss`, so the snapshot stores it once.
    #[must_use]
    pub fn channel_states(&self) -> Vec<(NodeId, bool, u64, u64)> {
        self.links
            .iter()
            .map(|&(id, l)| (id, l.in_bad_state, l.frames_sent, l.frames_lost))
            .collect()
    }

    /// Restores per-node link state captured by
    /// [`StarNetwork::channel_states`]. Apply the snapshot's link
    /// configuration via [`StarNetwork::set_link`] *before* calling this —
    /// swapping it resets Gilbert–Elliott channels.
    ///
    /// # Panics
    ///
    /// Panics if a state refers to an unregistered node.
    pub fn restore_channel_states(&mut self, states: &[(NodeId, bool, u64, u64)]) {
        for &(id, in_bad_state, frames_sent, frames_lost) in states {
            *self.link(id) = RadioLink { in_bad_state, frames_sent, frames_lost };
        }
    }

    /// Restores the direction tallies from a checkpoint.
    pub fn restore_counters(&mut self, uplink: LinkCounters, downlink: LinkCounters) {
        self.uplink = uplink;
        self.downlink = downlink;
    }

    fn send_via(&mut self, node: NodeId, packet: &Packet, rng: &mut SimRng) -> SendOutcome {
        let cfg = self.cfg;
        let link = self.link(node);
        let data_len = packet.encoded_len();
        let ack_len =
            Packet::new(packet.src, 0, 0, Payload::Ack { acked_seq: packet.seq }).encoded_len();
        let per_attempt = RadioLink::airtime(data_len) + RadioLink::airtime(ack_len);

        let mut latency = SimDuration::ZERO;
        let mut delivered_at: Option<(SimDuration, u8)> = None;
        let mut deliveries: u8 = 0;
        let mut attempts: u8 = 0;
        for attempt in 0..=cfg.max_retries {
            if attempt > 0 {
                latency += cfg.retry_backoff;
            }
            attempts += 1;
            latency += per_attempt;
            let data_ok = link.transmit(&cfg.loss, rng);
            if data_ok {
                deliveries += 1;
                if delivered_at.is_none() {
                    delivered_at = Some((latency, attempts));
                }
                let ack_ok = link.transmit(&cfg.loss, rng);
                if ack_ok {
                    break; // sender hears the ack and stops.
                }
                // Ack lost: sender will retry, producing a duplicate.
            }
        }
        match delivered_at {
            Some((first, first_delivery_attempt)) => SendOutcome::Delivered {
                latency: first,
                attempts,
                first_delivery_attempt,
                duplicates: deliveries.saturating_sub(1),
            },
            None => SendOutcome::Lost { attempts },
        }
    }
}

/// The server-side frame sink with duplicate suppression.
#[derive(Debug, Clone, Default)]
pub struct BaseStation {
    /// Last sequence number seen from each node, sorted by node id.
    last_seq: Vec<(NodeId, u16)>,
    accepted: u64,
    duplicates: u64,
}

impl BaseStation {
    /// Creates a base station with no history.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Processes one received frame. Returns the packet if it is new, or
    /// `None` if it repeats the last sequence number seen from its source.
    pub fn receive(&mut self, packet: Packet) -> Option<Packet> {
        match self.last_seq.binary_search_by_key(&packet.src, |&(id, _)| id) {
            Ok(at) if self.last_seq[at].1 == packet.seq => {
                self.duplicates += 1;
                return None;
            }
            Ok(at) => self.last_seq[at].1 = packet.seq,
            Err(at) => self.last_seq.insert(at, (packet.src, packet.seq)),
        }
        self.accepted += 1;
        Some(packet)
    }

    /// Frames accepted as new.
    #[must_use]
    pub const fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Frames suppressed as duplicates.
    #[must_use]
    pub const fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// Per-node last-seen sequence numbers, sorted by node id
    /// (checkpointing export).
    #[must_use]
    pub fn last_seqs(&self) -> Vec<(NodeId, u16)> {
        self.last_seq.clone()
    }

    /// Restores the dedup history and acceptance counters from a
    /// checkpoint. A node listed twice keeps its last entry.
    pub fn restore_state(&mut self, last_seqs: &[(NodeId, u16)], accepted: u64, duplicates: u64) {
        // A stable sort of the reversed list puts each node's last entry
        // first, and sorting keeps a crafted unsorted list O(n log n).
        self.last_seq = last_seqs.iter().rev().copied().collect();
        self.last_seq.sort_by_key(|&(id, _)| id);
        self.last_seq.dedup_by_key(|&mut (id, _)| id);
        self.accepted = accepted;
        self.duplicates = duplicates;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tool_use(src: u16, seq: u16) -> Packet {
        Packet::new(NodeId::new(src), seq, 0, Payload::ToolUse { activation_milli: 100 })
    }

    #[test]
    fn perfect_link_delivers_first_try() {
        let mut net = StarNetwork::new(LinkConfig::default());
        net.register(NodeId::new(1));
        let mut rng = SimRng::seed_from(1);
        match net.send_uplink(&tool_use(1, 0), &mut rng) {
            SendOutcome::Delivered { attempts, duplicates, latency, first_delivery_attempt } => {
                assert_eq!(attempts, 1);
                assert_eq!(first_delivery_attempt, 1);
                assert_eq!(duplicates, 0);
                assert!(!latency.is_zero());
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn lossy_link_retries_and_mostly_succeeds() {
        let cfg = LinkConfig {
            loss: LossModel::Bernoulli { p: 0.3 },
            max_retries: 5,
            ..LinkConfig::default()
        };
        let mut net = StarNetwork::new(cfg);
        net.register(NodeId::new(1));
        let mut rng = SimRng::seed_from(2);
        let trials = 2_000;
        let delivered = (0..trials)
            .filter(|&i| net.send_uplink(&tool_use(1, i as u16), &mut rng).is_delivered())
            .count();
        // P(all 6 attempts lose the data frame) = 0.3^6 ≈ 0.07 %.
        assert!(delivered as f64 / trials as f64 > 0.99, "delivered {delivered}/{trials}");
    }

    #[test]
    fn total_loss_reports_lost() {
        let cfg = LinkConfig {
            loss: LossModel::Bernoulli { p: 1.0 },
            max_retries: 2,
            ..LinkConfig::default()
        };
        let mut net = StarNetwork::new(cfg);
        net.register(NodeId::new(1));
        let mut rng = SimRng::seed_from(3);
        assert_eq!(
            net.send_uplink(&tool_use(1, 0), &mut rng),
            SendOutcome::Lost { attempts: 3 }
        );
    }

    #[test]
    fn lost_acks_cause_duplicates_sometimes() {
        let cfg = LinkConfig {
            loss: LossModel::Bernoulli { p: 0.4 },
            max_retries: 4,
            ..LinkConfig::default()
        };
        let mut net = StarNetwork::new(cfg);
        net.register(NodeId::new(1));
        let mut rng = SimRng::seed_from(4);
        let mut dup_total = 0u32;
        for i in 0..2_000 {
            if let SendOutcome::Delivered { duplicates, .. } =
                net.send_uplink(&tool_use(1, i as u16), &mut rng)
            {
                dup_total += u32::from(duplicates);
            }
        }
        assert!(dup_total > 0, "a 40% lossy link should produce some duplicates");
    }

    #[test]
    fn retry_latency_grows() {
        let cfg = LinkConfig {
            loss: LossModel::Bernoulli { p: 0.9 },
            max_retries: 8,
            retry_backoff: SimDuration::from_millis(50),
        };
        let mut net = StarNetwork::new(cfg);
        net.register(NodeId::new(1));
        let mut rng = SimRng::seed_from(5);
        // Latency to first delivery must include the backoff of every
        // failed attempt before it.
        for i in 0..400 {
            if let SendOutcome::Delivered { latency, first_delivery_attempt, .. } =
                net.send_uplink(&tool_use(1, i), &mut rng)
            {
                if first_delivery_attempt > 1 {
                    let floor = 50 * u64::from(first_delivery_attempt - 1);
                    assert!(latency >= SimDuration::from_millis(floor));
                    return;
                }
            }
        }
        panic!("expected at least one multi-attempt delivery");
    }

    #[test]
    fn link_counters_tally_both_directions() {
        let cfg = LinkConfig {
            loss: LossModel::Bernoulli { p: 1.0 },
            max_retries: 1,
            ..LinkConfig::default()
        };
        let mut net = StarNetwork::new(cfg);
        net.register(NodeId::new(1));
        let mut rng = SimRng::seed_from(7);
        let _ = net.send_uplink(&tool_use(1, 0), &mut rng);
        net.set_link(LinkConfig { loss: LossModel::Perfect, ..cfg });
        let _ = net.send_uplink(&tool_use(1, 1), &mut rng);
        let _ = net.send_downlink(NodeId::new(1), &tool_use(1, 2), &mut rng);
        let up = net.uplink_counters();
        assert_eq!((up.frames, up.delivered, up.lost), (2, 1, 1));
        assert_eq!(up.attempts, 3, "2 attempts lost frame + 1 perfect");
        let down = net.downlink_counters();
        assert_eq!((down.frames, down.delivered, down.lost), (1, 1, 0));
        let (up2, down2) = net.take_counters();
        assert_eq!((up2, down2), (up, down));
        assert_eq!(net.uplink_counters(), LinkCounters::default(), "take resets");
    }

    #[test]
    fn base_station_dedups_repeated_seq() {
        let mut bs = BaseStation::new();
        assert!(bs.receive(tool_use(1, 0)).is_some());
        assert!(bs.receive(tool_use(1, 0)).is_none());
        assert!(bs.receive(tool_use(1, 1)).is_some());
        // Same seq from a *different* node is not a duplicate.
        assert!(bs.receive(tool_use(2, 1)).is_some());
        assert_eq!(bs.accepted(), 3);
        assert_eq!(bs.duplicates(), 1);
    }

    #[test]
    fn base_station_handles_seq_wrap() {
        let mut bs = BaseStation::new();
        assert!(bs.receive(tool_use(1, u16::MAX)).is_some());
        assert!(bs.receive(tool_use(1, 0)).is_some(), "wrapped seq is a new frame");
    }

    /// Bursty enough that channels are often caught in the bad state.
    const BURSTY: LossModel = LossModel::GilbertElliott {
        p_good_to_bad: 0.3,
        p_bad_to_good: 0.2,
        loss_good: 0.1,
        loss_bad: 0.9,
    };

    /// Nodes 9, 3 and 7, registered in that order, after `rounds` rounds
    /// of one uplink per node, each frame accepted (or not) by `bs`.
    fn out_of_order_network(loss: LossModel, rounds: u16, bs: &mut BaseStation) -> StarNetwork {
        let mut net =
            StarNetwork::new(LinkConfig { loss, max_retries: 2, ..LinkConfig::default() });
        for id in [9, 3, 7] {
            net.register(NodeId::new(id));
        }
        let mut rng = SimRng::seed_from(11);
        for seq in 0..rounds {
            for id in [9, 3, 7] {
                let p = tool_use(id, seq);
                if net.send_uplink(&p, &mut rng).is_delivered() {
                    let _ = bs.receive(p);
                }
            }
        }
        net
    }

    fn ids<T>(states: &[(NodeId, T)]) -> Vec<u16> {
        states.iter().map(|(id, _)| id.raw()).collect()
    }

    #[test]
    fn exports_are_sorted_by_node_id_whatever_the_registration_order() {
        for loss in [LossModel::Bernoulli { p: 0.3 }, BURSTY] {
            let mut bs = BaseStation::new();
            let net = out_of_order_network(loss, 40, &mut bs);
            let channels = net.channel_states();
            let sorted: Vec<u16> = channels.iter().map(|c| c.0.raw()).collect();
            assert_eq!(sorted, [3, 7, 9], "{loss:?}");
            assert!(
                channels.iter().all(|&(_, _, sent, lost)| sent >= 40 && lost > 0),
                "{channels:?}"
            );
            assert_eq!(ids(&bs.last_seqs()), [3, 7, 9], "{loss:?}");
        }
    }

    #[test]
    fn channel_and_dedup_state_round_trip_through_their_exports() {
        for loss in [LossModel::Bernoulli { p: 0.3 }, BURSTY] {
            let mut bs = BaseStation::new();
            let net = out_of_order_network(loss, 40, &mut bs);
            let mut twin = StarNetwork::new(net.config());
            for id in [7, 9, 3] {
                twin.register(NodeId::new(id));
            }
            twin.restore_channel_states(&net.channel_states());
            assert_eq!(twin.channel_states(), net.channel_states(), "{loss:?}");

            let mut restored = BaseStation::new();
            let mut shuffled = bs.last_seqs();
            shuffled.reverse();
            restored.restore_state(&shuffled, bs.accepted(), bs.duplicates());
            assert_eq!(restored.last_seqs(), bs.last_seqs(), "{loss:?}");
            assert_eq!(
                (restored.accepted(), restored.duplicates()),
                (bs.accepted(), bs.duplicates())
            );
            // The restored history suppresses exactly what the original does.
            let (id, seq) = bs.last_seqs()[1];
            assert!(restored.receive(tool_use(id.raw(), seq)).is_none());
            assert!(restored.receive(tool_use(id.raw(), seq.wrapping_add(1))).is_some());
        }
        let mut bs = BaseStation::new();
        bs.restore_state(&[(NodeId::new(9), 4), (NodeId::new(3), 1), (NodeId::new(9), 2)], 0, 0);
        assert_eq!(bs.last_seqs(), [(NodeId::new(3), 1), (NodeId::new(9), 2)], "last entry wins");
    }

    #[test]
    fn re_registering_resets_only_that_nodes_link() {
        let mut bs = BaseStation::new();
        let mut net = out_of_order_network(BURSTY, 40, &mut bs);
        let before = net.channel_states();
        net.register(NodeId::new(7));
        let after = net.channel_states();
        assert_eq!(after[1], (NodeId::new(7), false, 0, 0));
        assert_eq!((after[0], after[2]), (before[0], before[2]));
        assert_eq!(net.node_count(), 3);
    }

    #[test]
    fn set_link_restarts_every_channel_and_reaches_later_links() {
        let mut bs = BaseStation::new();
        let mut net = out_of_order_network(BURSTY, 40, &mut bs);
        let before = net.channel_states();
        assert!(before.iter().any(|c| c.1), "some channel should be caught in the bad state");
        net.set_link(LinkConfig { loss: LossModel::Bernoulli { p: 1.0 }, ..net.config() });
        assert_eq!(net.config().loss, LossModel::Bernoulli { p: 1.0 });
        for (was, now) in before.iter().zip(net.channel_states()) {
            assert_eq!(now, (was.0, false, was.2, was.3), "counters carry on, state restarts");
        }
        net.register(NodeId::new(1));
        let mut rng = SimRng::seed_from(12);
        assert_eq!(
            net.send_uplink(&tool_use(1, 0), &mut rng),
            SendOutcome::Lost { attempts: 3 },
            "a link registered after set_link transmits under the new model"
        );
        assert_eq!(net.channel_states()[0], (NodeId::new(1), false, 3, 3));
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn unknown_node_panics() {
        let mut net = StarNetwork::new(LinkConfig::default());
        let mut rng = SimRng::seed_from(6);
        let _ = net.send_uplink(&tool_use(9, 0), &mut rng);
    }
}
