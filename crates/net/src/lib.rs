//! The wireless communication model (paper Section V, architecture of
//! Section III).
//!
//! Two channels exist, matching the paper's integrated architecture:
//!
//! * the **server channel** ([`ServerChannel`]) between mobile hosts and the
//!   mobile support station — a shared uplink and a shared downlink, each a
//!   FIFO queueing facility of fixed bandwidth (this is the scalability
//!   bottleneck Figure 7 probes);
//! * the **P2P channel** ([`P2pChannel`]) among the hosts — a half-duplex
//!   radio per host with a common bandwidth and transmission range, over
//!   which hosts broadcast requests and exchange replies, retrieves and
//!   cache signatures.
//!
//! Message wire sizes live in [`MessageSizes`]; the power cost of every
//! message is charged by the caller through `grococa-power`. The
//! beacon-maintained neighbour discovery protocol of Section III lives in
//! [`Ndp`].
//!
//! # Examples
//!
//! ```
//! use grococa_net::{MessageSizes, P2pChannel, ServerChannel};
//! use grococa_sim::SimTime;
//!
//! let sizes = MessageSizes::default();
//! let mut server = ServerChannel::new(200, 2_000);
//! let now = SimTime::from_secs(1);
//! let at_mss = server.request_arrival(now, sizes.server_request);
//! let at_mh = server.response_arrival(at_mss, sizes.header + sizes.data_item);
//! assert!(at_mh > at_mss && at_mss > now);
//!
//! let mut p2p = P2pChannel::new(10, 2_000);
//! let delivered = p2p.send(3, now, sizes.p2p_request);
//! assert!(delivered > now);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod ndp;

pub use ndp::{LinkEvent, Ndp, NdpConfig};

use grococa_sim::{transmission_time, Facility, SimTime};

/// Wire sizes of every message kind, in bytes.
///
/// The paper does not publish its message sizes (the scraped table is
/// illegible); these defaults are conventional for the message contents and
/// are all configurable. Signature payloads are *not* included here — their
/// size depends on compression and is computed per message by the signature
/// layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MessageSizes {
    /// A P2P broadcast `request` (item id + requester id), excluding any
    /// piggybacked signature-update lists.
    pub p2p_request: u64,
    /// A P2P `reply` ("I have it").
    pub p2p_reply: u64,
    /// A P2P `retrieve` ("send it to me").
    pub p2p_retrieve: u64,
    /// A `SigRequest` control message, excluding membership list payload.
    pub sig_request: u64,
    /// An NDP `hello` beacon.
    pub beacon: u64,
    /// A request to the MSS (item id + piggybacked location).
    pub server_request: u64,
    /// A validation request / validity approval on the server channel.
    pub validation: u64,
    /// Fixed header prepended to any data-bearing message.
    pub header: u64,
    /// One data item (the paper's `DataSize`, default 3 KB).
    pub data_item: u64,
    /// Per-entry size of a piggybacked signature-update position or a
    /// membership identifier.
    pub per_list_entry: u64,
}

impl Default for MessageSizes {
    fn default() -> Self {
        MessageSizes {
            p2p_request: 64,
            p2p_reply: 32,
            p2p_retrieve: 32,
            sig_request: 32,
            beacon: 32,
            server_request: 64,
            validation: 32,
            header: 32,
            data_item: 3_072,
            per_list_entry: 2,
        }
    }
}

impl MessageSizes {
    /// Size of a data-bearing message (header + item).
    pub fn data_message(&self) -> u64 {
        self.header + self.data_item
    }

    /// Size of a broadcast request carrying `entries` piggybacked
    /// signature-update positions.
    pub fn request_with_updates(&self, entries: usize) -> u64 {
        self.p2p_request + self.per_list_entry * entries as u64
    }

    /// Size of a `SigRequest` carrying `members` membership identifiers.
    pub fn sig_request_with_members(&self, members: usize) -> u64 {
        self.sig_request + self.per_list_entry * members as u64
    }
}

/// The shared channels between the mobile hosts and the mobile support
/// station: one uplink, one downlink, each a FIFO facility. The MSS serves
/// requests first-come-first-served with an unbounded queue — exactly the
/// paper's server model — which the downlink facility realises.
#[derive(Debug, Clone)]
pub struct ServerChannel {
    uplink: Facility,
    downlink: Facility,
    uplink_kbps: u64,
    downlink_kbps: u64,
}

impl ServerChannel {
    /// Creates the channel with the given bandwidths in kilobits/second.
    ///
    /// # Panics
    ///
    /// Panics if either bandwidth is zero.
    pub fn new(uplink_kbps: u64, downlink_kbps: u64) -> Self {
        assert!(
            uplink_kbps > 0 && downlink_kbps > 0,
            "bandwidths must be positive"
        );
        ServerChannel {
            uplink: Facility::new("server-uplink"),
            downlink: Facility::new("server-downlink"),
            uplink_kbps,
            downlink_kbps,
        }
    }

    /// Sends `bytes` up to the MSS at `now`; returns the arrival instant
    /// (uplink queueing + transmission).
    pub fn request_arrival(&mut self, now: SimTime, bytes: u64) -> SimTime {
        self.uplink
            .enqueue(now, transmission_time(bytes, self.uplink_kbps))
    }

    /// Sends `bytes` down to a host at `now`; returns the arrival instant
    /// (downlink queueing + transmission).
    pub fn response_arrival(&mut self, now: SimTime, bytes: u64) -> SimTime {
        self.downlink
            .enqueue(now, transmission_time(bytes, self.downlink_kbps))
    }

    /// Downlink utilisation over `[0, horizon]`.
    pub fn downlink_utilisation(&self, horizon: SimTime) -> f64 {
        self.downlink.utilisation(horizon)
    }

    /// Mean downlink queueing delay per message, seconds.
    pub fn downlink_queue_delay_secs(&self) -> f64 {
        self.downlink.mean_queue_delay_secs()
    }

    /// Messages served by the downlink.
    pub fn downlink_jobs(&self) -> u64 {
        self.downlink.jobs()
    }

    /// Exports the uplink and downlink facility states, for checkpointing.
    #[allow(clippy::type_complexity)]
    pub fn export_state(&self) -> ((SimTime, u64, u64, u64), (SimTime, u64, u64, u64)) {
        (self.uplink.export_state(), self.downlink.export_state())
    }

    /// Restores facility states previously returned by
    /// [`ServerChannel::export_state`].
    #[allow(clippy::type_complexity)]
    pub fn restore_state(&mut self, state: ((SimTime, u64, u64, u64), (SimTime, u64, u64, u64))) {
        self.uplink.restore_state(state.0);
        self.downlink.restore_state(state.1);
    }
}

/// The P2P channel: one half-duplex radio per host, common bandwidth.
///
/// Each host's transmissions serialise on its own radio; a broadcast is
/// delivered to every in-range host at the sender's completion instant, and
/// multi-hop forwarding adds one transmission time per extra hop. Who is in
/// range is geometry, supplied by the mobility layer — this type owns only
/// the timing.
#[derive(Debug, Clone)]
pub struct P2pChannel {
    radios: Vec<Facility>,
    kbps: u64,
}

impl P2pChannel {
    /// Creates radios for `n` hosts at `kbps` kilobits/second.
    ///
    /// # Panics
    ///
    /// Panics if `n` or `kbps` is zero.
    pub fn new(n: usize, kbps: u64) -> Self {
        assert!(n > 0, "need at least one radio");
        assert!(kbps > 0, "bandwidth must be positive");
        P2pChannel {
            radios: (0..n).map(|_| Facility::new("p2p-radio")).collect(),
            kbps,
        }
    }

    /// Number of radios.
    pub fn len(&self) -> usize {
        self.radios.len()
    }

    /// Whether the channel has no radios (never true once constructed).
    pub fn is_empty(&self) -> bool {
        self.radios.is_empty()
    }

    /// Transmits `bytes` from `sender` starting at `now`; returns the
    /// completion (= delivery) instant after the sender's radio queue.
    ///
    /// # Panics
    ///
    /// Panics if `sender` is out of range.
    pub fn send(&mut self, sender: usize, now: SimTime, bytes: u64) -> SimTime {
        self.radios[sender].enqueue(now, transmission_time(bytes, self.kbps))
    }

    /// Delivery instant of a broadcast at a receiver `hops` hops away:
    /// the sender-local completion plus one store-and-forward transmission
    /// per additional hop.
    ///
    /// # Panics
    ///
    /// Panics if `hops` is zero.
    pub fn broadcast_delivery(&self, sent_done: SimTime, bytes: u64, hops: u32) -> SimTime {
        assert!(hops > 0, "a receiver is at least one hop away");
        let per_hop = transmission_time(bytes, self.kbps);
        let mut at = sent_done;
        for _ in 1..hops {
            at = at.saturating_add(per_hop);
        }
        at
    }

    /// One transmission time on this channel for `bytes`.
    pub fn tx_time(&self, bytes: u64) -> SimTime {
        transmission_time(bytes, self.kbps)
    }

    /// Total messages sent by `sender`'s radio.
    pub fn sends_of(&self, sender: usize) -> u64 {
        self.radios[sender].jobs()
    }

    /// Exports every radio's facility state, for checkpointing.
    pub fn export_state(&self) -> Vec<(SimTime, u64, u64, u64)> {
        self.radios.iter().map(Facility::export_state).collect()
    }

    /// Restores radio states previously returned by
    /// [`P2pChannel::export_state`].
    ///
    /// # Panics
    ///
    /// Panics if the radio count differs.
    pub fn restore_state(&mut self, states: &[(SimTime, u64, u64, u64)]) {
        assert_eq!(
            states.len(),
            self.radios.len(),
            "radio count must match the checkpointed run"
        );
        for (radio, &state) in self.radios.iter_mut().zip(states) {
            radio.restore_state(state);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn server_downlink_queues_under_load() {
        let mut ch = ServerChannel::new(200, 2_000);
        let now = SimTime::ZERO;
        // 3 KB data message at 2 Mb/s ≈ 12.4 ms each.
        let sizes = MessageSizes::default();
        let a = ch.response_arrival(now, sizes.data_message());
        let b = ch.response_arrival(now, sizes.data_message());
        assert!(
            b.saturating_sub(a) >= a,
            "second message queued behind the first"
        );
        assert_eq!(ch.downlink_jobs(), 2);
        assert!(ch.downlink_queue_delay_secs() > 0.0);
    }

    #[test]
    fn uplink_and_downlink_are_independent() {
        let mut ch = ServerChannel::new(100, 10_000);
        let up = ch.request_arrival(SimTime::ZERO, 1_000);
        let down = ch.response_arrival(SimTime::ZERO, 1_000);
        // Same bytes, 100x slower uplink → much later arrival.
        assert!(up > down);
    }

    #[test]
    fn p2p_sends_serialise_per_radio() {
        let mut p2p = P2pChannel::new(3, 2_000);
        let t1 = p2p.send(0, SimTime::ZERO, 3_072);
        let t2 = p2p.send(0, SimTime::ZERO, 3_072);
        let t3 = p2p.send(1, SimTime::ZERO, 3_072);
        assert_eq!(t2.as_micros(), 2 * t1.as_micros(), "same radio serialises");
        assert_eq!(t3, t1, "different radio is unaffected");
        assert_eq!(p2p.sends_of(0), 2);
    }

    #[test]
    fn multi_hop_adds_per_hop_latency() {
        let p2p = P2pChannel::new(2, 2_000);
        let done = SimTime::from_millis(10);
        let one = p2p.broadcast_delivery(done, 64, 1);
        let two = p2p.broadcast_delivery(done, 64, 2);
        assert_eq!(one, done);
        assert_eq!(two.saturating_sub(one), p2p.tx_time(64));
    }

    #[test]
    fn message_size_helpers() {
        let s = MessageSizes::default();
        assert_eq!(s.data_message(), 32 + 3_072);
        assert_eq!(s.request_with_updates(10), 64 + 20);
        assert_eq!(s.sig_request_with_members(4), 32 + 8);
    }

    #[test]
    #[should_panic(expected = "at least one hop")]
    fn zero_hop_delivery_rejected() {
        let p2p = P2pChannel::new(1, 2_000);
        p2p.broadcast_delivery(SimTime::ZERO, 64, 0);
    }
}
