//! Client-side frame timing for the served workload.
//!
//! [`TimedClient`] wraps the faithful `MoteClient` and stamps every frame
//! it receives against the `WallClock` the server paces on (clones share
//! the origin). That is where the served latency metrics come from:
//!
//! - a `Deliver`'s latency is its receipt minus its wake's due instant
//!   (the instant's image on the clock);
//! - a `Poll`'s lateness is its receipt minus its wake's due instant,
//!   i.e. how late the server ran;
//! - a `Deliver`'s outbox wait is its receipt minus the receipt of its
//!   wake's `Poll`; in simulated time, it is the instant of the wake
//!   whose flush carried it (the next `Poll` or the closing `Bye` in the
//!   same flush) minus its own wake's instant, 0 when it came on its own.
//!
//! `ServeOutcome::latency_us` is not used: it stops at frame encode,
//! ignores how late the wake ran, and its 156 µs bins put every
//! percentile at 78 µs.

use std::sync::Mutex;

use coreda_core::escalation::CareEvent;
use coreda_core::wal::WalRecord;
use coreda_des::time::SimTime;
use coreda_des::WallClock;
use coreda_serve::wire::{try_decode, Frame};
use coreda_serve::{Client, MoteClient};

use crate::ledger::LatHist;

/// Everything the clients of one served run received, merged.
#[derive(Debug)]
pub struct Received {
    pub welcomes: u64,
    pub polls: u64,
    pub delivers: u64,
    pub escalates: u64,
    pub byes: u64,
    /// Server→client frames and bytes received.
    pub frames_in: u64,
    pub bytes_in: u64,
    /// Client→server bytes sent.
    pub bytes_out: u64,
    /// Frames the client could not decode.
    pub decode_errors: u64,
    /// `Deliver`s whose wake's `Poll` was never seen.
    pub unmatched: u64,
    pub poll_late_ns: LatHist,
    pub deliver_ns: Vec<f64>,
    pub outbox_ns: Vec<f64>,
    /// Simulated outbox wait per `Deliver`, in ms.
    pub outbox_sim_ms: Vec<u64>,
    pub escalate_ns: Vec<f64>,
    pub delivered: Vec<WalRecord>,
    pub escalated: Vec<CareEvent>,
}

impl Received {
    pub fn new() -> Received {
        Received {
            welcomes: 0,
            polls: 0,
            delivers: 0,
            escalates: 0,
            byes: 0,
            frames_in: 0,
            bytes_in: 0,
            bytes_out: 0,
            decode_errors: 0,
            unmatched: 0,
            poll_late_ns: LatHist::new(),
            deliver_ns: Vec::new(),
            outbox_ns: Vec::new(),
            outbox_sim_ms: Vec::new(),
            escalate_ns: Vec::new(),
            delivered: Vec::new(),
            escalated: Vec::new(),
        }
    }
}

/// Shared by every client of a run (all on one thread: `jobs = 1`).
pub type Sink = Mutex<Received>;

/// A `MoteClient` that stamps what it receives. Every exchange still
/// goes through the real client, so the server sees the faithful
/// protocol.
pub struct TimedClient<'a> {
    inner: MoteClient,
    clock: WallClock,
    /// Wall nanoseconds per simulated millisecond.
    ns_per_ms: f64,
    sink: &'a Sink,
    /// The last few `Poll`s: `(wake instant, receipt ns)`.
    recent: [(SimTime, f64); 4],
    next: usize,
}

impl<'a> TimedClient<'a> {
    pub fn new(home: u32, digest: u64, clock: WallClock, speedup: f64, sink: &'a Sink) -> Self {
        TimedClient {
            inner: MoteClient::new(home, digest),
            clock,
            ns_per_ms: 1e6 / speedup,
            sink,
            recent: [(SimTime::from_millis(u64::MAX), 0.0); 4],
            next: 0,
        }
    }

    fn image_ns(&self, at: SimTime) -> f64 {
        let ms = at.as_millis() as f64;
        ms * self.ns_per_ms
    }
}

impl Client for TimedClient<'_> {
    fn on_bytes(&mut self, inbound: &[u8], out: &mut Vec<u8>) {
        let recv = self.clock.elapsed().as_secs_f64() * 1e9;
        let mut rx = self.sink.lock().expect("client sink poisoned");
        // Wake instants of this flush's `Deliver`s not yet matched to the
        // wake whose flush carried them.
        let mut carried: Vec<u64> = Vec::new();
        let mut offset = 0;
        while offset < inbound.len() {
            let (frame, used) = match try_decode(&inbound[offset..]) {
                Ok(Some(x)) => x,
                Ok(None) | Err(_) => {
                    rx.decode_errors += 1;
                    break;
                }
            };
            offset += used;
            rx.frames_in += 1;
            rx.bytes_in += used as u64;
            match frame {
                Frame::Welcome { .. } => rx.welcomes += 1,
                Frame::Poll { at, .. } => {
                    let now = at.as_millis();
                    rx.outbox_sim_ms
                        .extend(carried.drain(..).map(|was| now.saturating_sub(was)));
                    rx.polls += 1;
                    rx.poll_late_ns.record(recv - self.image_ns(at));
                    self.recent[self.next] = (at, recv);
                    self.next = (self.next + 1) % self.recent.len();
                }
                Frame::Deliver(rec) => {
                    rx.delivers += 1;
                    rx.deliver_ns.push(recv - self.image_ns(rec.at));
                    match self.recent.iter().find(|&&(at, _)| at == rec.at) {
                        Some(&(_, polled)) => rx.outbox_ns.push(recv - polled),
                        None => rx.unmatched += 1,
                    }
                    carried.push(rec.at.as_millis());
                    rx.delivered.push(rec);
                }
                Frame::Escalate(ev) => {
                    rx.escalates += 1;
                    rx.escalate_ns.push(recv - self.image_ns(ev.at));
                    rx.escalated.push(ev);
                }
                Frame::Bye { at, .. } => {
                    let now = at.as_millis();
                    rx.outbox_sim_ms
                        .extend(carried.drain(..).map(|was| now.saturating_sub(was)));
                    rx.byes += 1;
                }
                Frame::Hello { .. } | Frame::Report { .. } => rx.decode_errors += 1,
            }
        }
        rx.outbox_sim_ms.extend(carried.iter().map(|_| 0));
        let before = out.len();
        self.inner.on_bytes(inbound, out);
        rx.bytes_out += (out.len() - before) as u64;
    }
}
