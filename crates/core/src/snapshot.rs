//! Run-level checkpoint snapshots: a versioned, checksummed,
//! config-fingerprinted codec over the *complete* mutable state of a
//! mid-run [`Simulation`] — scheduler queue, per-host caches and
//! signatures, in-flight protocol state, fault counters, every RNG
//! substream, metrics — such that a run restored from a snapshot
//! continues **byte-identical** to the uninterrupted original.
//!
//! # What is (and is not) in a snapshot
//!
//! The snapshot holds only *history-dependent* state. Everything
//! derivable from the configuration alone — the access pattern, the
//! low-activity mask, channel geometry, directory thresholds, the
//! completion target — is rebuilt deterministically by
//! [`Simulation::new`] on restore and verified against the recorded
//! [`SimConfig::canonical_fingerprint`]. Mobility movers are *warped*:
//! each model advances in pure monotone catch-up steps from
//! construction-seeded owned RNGs, so replaying the movers forward to
//! the snapshot instant consumes exactly the random draws the original
//! run consumed, and every later query agrees bit-for-bit.
//!
//! Three deliberate omissions: the optional [`Tracer`](crate::trace::Tracer)
//! is observational (it never feeds back into the run) and restores as
//! `None`, the reusable scratch buffers are contentless between
//! events, and each host's two signature bitmaps are derived from its
//! counters (only the non-zero counters are written; restoring them sets
//! the bits).
//!
//! # Wire format
//!
//! ```text
//! [magic u32][version u32][checksum u64][fingerprint u64][body ...]
//! ```
//!
//! all little-endian. The checksum (FNV-1a folded through a SplitMix64
//! finalizer) covers the fingerprint and body, so corruption anywhere
//! past the version field is detected before any state is touched;
//! decoding never panics on hostile bytes.

use std::collections::BTreeSet;
use std::rc::Rc;

use grococa_cache::Entry;
use grococa_mobility::{FieldMemo, Vec2};
use grococa_power::PowerMeter;
use grococa_signature::BloomFilter;
use grococa_sim::{EventId, Scheduler, SchedulerState, SimRng, SimTime, Welford};
use grococa_workload::ItemId;

use crate::config::SimConfig;
use crate::host::{Pending, Phase};
use crate::sim::{Ev, ResumedSimulation, Simulation};
use crate::tcg::MembershipChange;

/// `b"GCKP"` as a little-endian word.
const MAGIC: u32 = u32::from_le_bytes(*b"GCKP");
/// Bumped on any wire-format change; old snapshots are refused, never
/// misread. Version 2 stores signature counters sparsely.
const VERSION: u32 = 2;
/// Bytes before the body: magic, version, checksum, fingerprint.
const HEADER_LEN: usize = 4 + 4 + 8 + 8;

/// Why a snapshot could not be decoded. Every failure is a clean typed
/// error — a torn or corrupted checkpoint must let the caller fall back
/// to an earlier one, never panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// Shorter than the fixed header.
    TooShort,
    /// The leading magic word is not a snapshot's.
    BadMagic(u32),
    /// A snapshot from an incompatible codec version.
    BadVersion(u32),
    /// The body checksum does not match: torn write or bit rot.
    ChecksumMismatch,
    /// The snapshot was taken under a different configuration.
    ConfigMismatch {
        /// Fingerprint of the configuration offered for the resume.
        expected: u64,
        /// Fingerprint recorded in the snapshot.
        found: u64,
    },
    /// Structurally invalid body (despite a matching checksum).
    Malformed(&'static str),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::TooShort => write!(f, "snapshot shorter than its header"),
            SnapshotError::BadMagic(m) => write!(f, "bad snapshot magic {m:#010x}"),
            SnapshotError::BadVersion(v) => write!(f, "unsupported snapshot version {v}"),
            SnapshotError::ChecksumMismatch => write!(f, "snapshot checksum mismatch"),
            SnapshotError::ConfigMismatch { expected, found } => write!(
                f,
                "snapshot taken under a different configuration \
                 (fingerprint {found:#018x}, resume offers {expected:#018x})"
            ),
            SnapshotError::Malformed(what) => write!(f, "malformed snapshot: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// FNV-1a over `bytes`, finished with a SplitMix64 mix — the same
/// construction as [`SimConfig::canonical_fingerprint`], applied to raw
/// bytes.
fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h ^= h >> 30;
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

// ----------------------------------------------------------------------
// Byte writer / reader
// ----------------------------------------------------------------------

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }
    fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }
    /// Exact bit pattern — NaN payloads (the WADM "no observation"
    /// sentinel) round-trip unchanged.
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn time(&mut self, t: SimTime) {
        self.u64(t.as_micros());
    }
    fn opt_time(&mut self, t: Option<SimTime>) {
        match t {
            None => self.u8(0),
            Some(t) => {
                self.u8(1);
                self.time(t);
            }
        }
    }
    fn opt_event_id(&mut self, id: Option<EventId>) {
        match id {
            None => self.u8(0),
            Some(id) => {
                self.u8(1);
                self.u64(id.as_raw());
            }
        }
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(SnapshotError::Malformed("truncated body"))?;
        let s = self
            .buf
            .get(self.pos..end)
            .ok_or(SnapshotError::Malformed("truncated body"))?;
        self.pos = end;
        Ok(s)
    }
    fn done(&self) -> Result<(), SnapshotError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(SnapshotError::Malformed("trailing bytes"))
        }
    }
    fn u8(&mut self) -> Result<u8, SnapshotError> {
        self.take(1)?
            .first()
            .copied()
            .ok_or(SnapshotError::Malformed("truncated body"))
    }
    fn u16(&mut self) -> Result<u16, SnapshotError> {
        let b: [u8; 2] = self
            .take(2)?
            .try_into()
            .map_err(|_| SnapshotError::Malformed("truncated body"))?;
        Ok(u16::from_le_bytes(b))
    }
    fn u32(&mut self) -> Result<u32, SnapshotError> {
        let b: [u8; 4] = self
            .take(4)?
            .try_into()
            .map_err(|_| SnapshotError::Malformed("truncated body"))?;
        Ok(u32::from_le_bytes(b))
    }
    fn u64(&mut self) -> Result<u64, SnapshotError> {
        let b: [u8; 8] = self
            .take(8)?
            .try_into()
            .map_err(|_| SnapshotError::Malformed("truncated body"))?;
        Ok(u64::from_le_bytes(b))
    }
    fn usize(&mut self) -> Result<usize, SnapshotError> {
        usize::try_from(self.u64()?).map_err(|_| SnapshotError::Malformed("oversized count"))
    }
    /// A length prefix, validated against the bytes actually remaining
    /// (`elem_floor` = the minimum encoded size of one element) so a
    /// corrupt count can never trigger a giant allocation.
    fn len(&mut self, elem_floor: usize) -> Result<usize, SnapshotError> {
        let n = self.usize()?;
        let need = n
            .checked_mul(elem_floor.max(1))
            .ok_or(SnapshotError::Malformed("oversized count"))?;
        if need > self.buf.len() - self.pos {
            return Err(SnapshotError::Malformed("count exceeds body"));
        }
        Ok(n)
    }
    fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::Malformed("bad bool")),
        }
    }
    fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }
    fn time(&mut self) -> Result<SimTime, SnapshotError> {
        Ok(SimTime::from_micros(self.u64()?))
    }
    fn opt_time(&mut self) -> Result<Option<SimTime>, SnapshotError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.time()?)),
            _ => Err(SnapshotError::Malformed("bad option tag")),
        }
    }
    fn opt_event_id(&mut self) -> Result<Option<EventId>, SnapshotError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(EventId::from_raw(self.u64()?))),
            _ => Err(SnapshotError::Malformed("bad option tag")),
        }
    }
}

// ----------------------------------------------------------------------
// Composite codecs
// ----------------------------------------------------------------------

fn put_usize_vec(w: &mut Writer, v: impl ExactSizeIterator<Item = usize>) {
    w.usize(v.len());
    for x in v {
        w.usize(x);
    }
}

fn get_usize_set(r: &mut Reader<'_>) -> Result<BTreeSet<usize>, SnapshotError> {
    let n = r.len(8)?;
    let mut s = BTreeSet::new();
    for _ in 0..n {
        s.insert(r.usize()?);
    }
    Ok(s)
}

fn put_u32_set(w: &mut Writer, s: &BTreeSet<u32>) {
    w.usize(s.len());
    for &x in s {
        w.u32(x);
    }
}

fn get_u32_set(r: &mut Reader<'_>) -> Result<BTreeSet<u32>, SnapshotError> {
    let n = r.len(4)?;
    let mut s = BTreeSet::new();
    for _ in 0..n {
        s.insert(r.u32()?);
    }
    Ok(s)
}

fn put_welford(w: &mut Writer, s: &Welford) {
    w.u64(s.count());
    w.f64(s.mean());
    w.f64(s.m2());
}

fn get_welford(r: &mut Reader<'_>) -> Result<Welford, SnapshotError> {
    Ok(Welford::from_parts(r.u64()?, r.f64()?, r.f64()?))
}

fn put_facility(w: &mut Writer, s: (SimTime, u64, u64, u64)) {
    w.time(s.0);
    w.u64(s.1);
    w.u64(s.2);
    w.u64(s.3);
}

fn get_facility(r: &mut Reader<'_>) -> Result<(SimTime, u64, u64, u64), SnapshotError> {
    Ok((r.time()?, r.u64()?, r.u64()?, r.u64()?))
}

fn put_membership(w: &mut Writer, c: MembershipChange) {
    match c {
        MembershipChange::Added(p) => {
            w.u8(0);
            w.usize(p);
        }
        MembershipChange::Removed(p) => {
            w.u8(1);
            w.usize(p);
        }
    }
}

fn get_membership(r: &mut Reader<'_>) -> Result<MembershipChange, SnapshotError> {
    match r.u8()? {
        0 => Ok(MembershipChange::Added(r.usize()?)),
        1 => Ok(MembershipChange::Removed(r.usize()?)),
        _ => Err(SnapshotError::Malformed("bad membership tag")),
    }
}

fn put_membership_list(w: &mut Writer, cs: &[MembershipChange]) {
    w.usize(cs.len());
    for &c in cs {
        put_membership(w, c);
    }
}

fn get_membership_list(r: &mut Reader<'_>) -> Result<Vec<MembershipChange>, SnapshotError> {
    let n = r.len(9)?;
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        v.push(get_membership(r)?);
    }
    Ok(v)
}

/// A bloom filter as its geometry, then its bits packed least position
/// first in ⌈σ/8⌉ bytes: the little-endian bytes of its words, cut to
/// length (the cut bytes lie past σ, so they are zero).
fn put_bloom(w: &mut Writer, b: &BloomFilter) {
    w.u32(b.sigma());
    w.u32(b.k());
    let end = w.buf.len() + (b.sigma() as usize).div_ceil(8);
    for &word in b.words() {
        w.u64(word);
    }
    w.buf.truncate(end);
}

/// Reads a bloom filter written by [`put_bloom`]. Every signature in a
/// run has the configured geometry (`sigma`, `k`); any other is refused,
/// since folding it into a peer vector would panic the resumed run.
fn get_bloom(r: &mut Reader<'_>, sigma: u32, k: u32) -> Result<BloomFilter, SnapshotError> {
    if r.u32()? != sigma || r.u32()? != k {
        return Err(SnapshotError::Malformed("signature geometry"));
    }
    let words = r
        .take((sigma as usize).div_ceil(8))?
        .chunks(8)
        .map(|chunk| {
            let mut le = [0u8; 8];
            le[..chunk.len()].copy_from_slice(chunk);
            u64::from_le_bytes(le)
        })
        .collect();
    BloomFilter::from_words(sigma, k, words)
        .ok_or(SnapshotError::Malformed("signature bits past sigma"))
}

/// A σ-wide counter vector, sparsely: the number of non-zero counters,
/// then each as (position u32, value), least position first.
fn put_sparse<T>(w: &mut Writer, nonzero: impl Iterator<Item = (u32, T)>, put: fn(&mut Writer, T)) {
    let at = w.buf.len();
    w.u64(0); // count backpatched below
    let mut count = 0u64;
    for (pos, value) in nonzero {
        w.u32(pos);
        put(w, value);
        count += 1;
    }
    w.buf[at..at + 8].copy_from_slice(&count.to_le_bytes());
}

/// Reads a counter vector written by [`put_sparse`] for `sigma`
/// counters, each value `value_len` bytes. Positions must be in range
/// and strictly increasing and values non-zero: exactly what
/// [`put_sparse`] writes, so decoding then re-encoding is byte-identical.
fn get_sparse<'a, T: Copy + Default + PartialEq>(
    r: &mut Reader<'a>,
    sigma: u32,
    value_len: usize,
    get: fn(&mut Reader<'a>) -> Result<T, SnapshotError>,
) -> Result<Vec<(u32, T)>, SnapshotError> {
    let n = r.len(4 + value_len)?;
    let mut nonzero = Vec::with_capacity(n);
    let mut next = 0u32; // least position still allowed
    for _ in 0..n {
        let pos = r.u32()?;
        let value = get(r)?;
        if pos >= sigma {
            return Err(SnapshotError::Malformed("counter position out of range"));
        }
        if pos < next {
            return Err(SnapshotError::Malformed("counter positions not increasing"));
        }
        if value == T::default() {
            return Err(SnapshotError::Malformed("zero counter stored"));
        }
        nonzero.push((pos, value));
        next = pos + 1;
    }
    Ok(nonzero)
}

fn put_phase(w: &mut Writer, p: Phase) {
    w.u8(match p {
        Phase::Searching => 0,
        Phase::Retrieving => 1,
        Phase::Server => 2,
        Phase::Validating => 3,
        Phase::Tuning => 4,
    });
}

fn get_phase(r: &mut Reader<'_>) -> Result<Phase, SnapshotError> {
    Ok(match r.u8()? {
        0 => Phase::Searching,
        1 => Phase::Retrieving,
        2 => Phase::Server,
        3 => Phase::Validating,
        4 => Phase::Tuning,
        _ => return Err(SnapshotError::Malformed("bad phase tag")),
    })
}

fn put_pending(w: &mut Writer, p: &Pending) {
    w.u64(p.gen);
    w.u64(p.item.as_u64());
    w.time(p.issued_at);
    w.bool(p.recorded);
    put_phase(w, p.phase);
    w.time(p.broadcast_at);
    w.opt_event_id(p.timeout);
    match p.target {
        None => w.u8(0),
        Some(t) => {
            w.u8(1);
            w.usize(t);
        }
    }
    w.time(p.validating_t_r);
    w.u32(p.attempt);
    w.opt_event_id(p.watchdog);
}

fn get_pending(r: &mut Reader<'_>) -> Result<Pending, SnapshotError> {
    Ok(Pending {
        gen: r.u64()?,
        item: ItemId::new(r.u64()?),
        issued_at: r.time()?,
        recorded: r.bool()?,
        phase: get_phase(r)?,
        broadcast_at: r.time()?,
        timeout: r.opt_event_id()?,
        target: match r.u8()? {
            0 => None,
            1 => Some(r.usize()?),
            _ => return Err(SnapshotError::Malformed("bad option tag")),
        },
        validating_t_r: r.time()?,
        attempt: r.u32()?,
        watchdog: r.opt_event_id()?,
    })
}

fn put_rng(w: &mut Writer, rng: &SimRng) {
    for word in rng.state() {
        w.u64(word);
    }
}

fn get_rng(r: &mut Reader<'_>) -> Result<SimRng, SnapshotError> {
    Ok(SimRng::from_state([r.u64()?, r.u64()?, r.u64()?, r.u64()?]))
}

// ----------------------------------------------------------------------
// Event codec (all 27 variants, declared order)
// ----------------------------------------------------------------------

fn put_ev(w: &mut Writer, ev: &Ev) {
    match ev {
        Ev::NextRequest { mh } => {
            w.u8(0);
            w.usize(*mh);
        }
        Ev::PeerRequest {
            requester,
            gen,
            peer,
            item,
            updates,
        } => {
            w.u8(1);
            w.usize(*requester);
            w.u64(*gen);
            w.usize(*peer);
            w.u64(item.as_u64());
            match updates {
                None => w.u8(0),
                Some(lists) => {
                    w.u8(1);
                    let (ins, ev) = lists.as_ref();
                    w.usize(ins.len());
                    for &x in ins {
                        w.u32(x);
                    }
                    w.usize(ev.len());
                    for &x in ev {
                        w.u32(x);
                    }
                }
            }
        }
        Ev::Reply {
            requester,
            gen,
            from,
        } => {
            w.u8(2);
            w.usize(*requester);
            w.u64(*gen);
            w.usize(*from);
        }
        Ev::Retrieve { requester, gen } => {
            w.u8(3);
            w.usize(*requester);
            w.u64(*gen);
        }
        Ev::PeerData {
            requester,
            gen,
            from,
            expiry,
        } => {
            w.u8(4);
            w.usize(*requester);
            w.u64(*gen);
            w.usize(*from);
            w.time(*expiry);
        }
        Ev::SearchTimeout { requester, gen } => {
            w.u8(5);
            w.usize(*requester);
            w.u64(*gen);
        }
        Ev::RetrieveTimeout { requester, gen } => {
            w.u8(6);
            w.usize(*requester);
            w.u64(*gen);
        }
        Ev::ServerRetry { mh, gen } => {
            w.u8(7);
            w.usize(*mh);
            w.u64(*gen);
        }
        Ev::ServerRequest { mh, gen } => {
            w.u8(8);
            w.usize(*mh);
            w.u64(*gen);
        }
        Ev::ServerData {
            mh,
            gen,
            expiry,
            t_r,
            changes,
        } => {
            w.u8(9);
            w.usize(*mh);
            w.u64(*gen);
            w.time(*expiry);
            w.time(*t_r);
            put_membership_list(w, changes);
        }
        Ev::ValidationRequest { mh, gen } => {
            w.u8(10);
            w.usize(*mh);
            w.u64(*gen);
        }
        Ev::ValidationOk {
            mh,
            gen,
            expiry,
            t_r,
            changes,
        } => {
            w.u8(11);
            w.usize(*mh);
            w.u64(*gen);
            w.time(*expiry);
            w.time(*t_r);
            put_membership_list(w, changes);
        }
        Ev::SigRequest { from, to, members } => {
            w.u8(12);
            w.usize(*from);
            w.usize(*to);
            match members {
                None => w.u8(0),
                Some(m) => {
                    w.u8(1);
                    put_usize_vec(w, m.iter().copied());
                }
            }
        }
        Ev::SigReply { from, to, sig } => {
            w.u8(13);
            w.usize(*from);
            w.usize(*to);
            put_bloom(w, sig);
        }
        Ev::Reconnect { mh } => {
            w.u8(14);
            w.usize(*mh);
        }
        Ev::ReconnectSync { mh } => {
            w.u8(15);
            w.usize(*mh);
        }
        Ev::ReconnectSyncDone { mh, members } => {
            w.u8(16);
            w.usize(*mh);
            put_usize_vec(w, members.iter().copied());
        }
        Ev::ExplicitUpdate { mh } => {
            w.u8(17);
            w.usize(*mh);
        }
        Ev::ExplicitUpdateAtMss { mh, sample } => {
            w.u8(18);
            w.usize(*mh);
            w.usize(sample.len());
            for item in sample.iter() {
                w.u64(item.as_u64());
            }
        }
        Ev::MembershipNews { mh, changes } => {
            w.u8(19);
            w.usize(*mh);
            put_membership_list(w, changes);
        }
        Ev::DbUpdate => w.u8(20),
        Ev::AgeIntervals => w.u8(21),
        Ev::WarmupCap => w.u8(22),
        Ev::BeaconTick => w.u8(23),
        Ev::Delegated { to, item, expiry } => {
            w.u8(24);
            w.usize(*to);
            w.u64(item.as_u64());
            w.time(*expiry);
        }
        Ev::RefreshPushSchedule => w.u8(25),
        Ev::PushArrive { mh, gen } => {
            w.u8(26);
            w.usize(*mh);
            w.u64(*gen);
        }
    }
}

/// Reads one event; (`sigma`, `k`) is the run's signature geometry.
fn get_ev(r: &mut Reader<'_>, sigma: u32, k: u32) -> Result<Ev, SnapshotError> {
    Ok(match r.u8()? {
        0 => Ev::NextRequest { mh: r.usize()? },
        1 => Ev::PeerRequest {
            requester: r.usize()?,
            gen: r.u64()?,
            peer: r.usize()?,
            item: ItemId::new(r.u64()?),
            updates: match r.u8()? {
                0 => None,
                1 => {
                    let ni = r.len(4)?;
                    let mut ins = Vec::with_capacity(ni);
                    for _ in 0..ni {
                        ins.push(r.u32()?);
                    }
                    let ne = r.len(4)?;
                    let mut ev = Vec::with_capacity(ne);
                    for _ in 0..ne {
                        ev.push(r.u32()?);
                    }
                    Some(Rc::new((ins, ev)))
                }
                _ => return Err(SnapshotError::Malformed("bad option tag")),
            },
        },
        2 => Ev::Reply {
            requester: r.usize()?,
            gen: r.u64()?,
            from: r.usize()?,
        },
        3 => Ev::Retrieve {
            requester: r.usize()?,
            gen: r.u64()?,
        },
        4 => Ev::PeerData {
            requester: r.usize()?,
            gen: r.u64()?,
            from: r.usize()?,
            expiry: r.time()?,
        },
        5 => Ev::SearchTimeout {
            requester: r.usize()?,
            gen: r.u64()?,
        },
        6 => Ev::RetrieveTimeout {
            requester: r.usize()?,
            gen: r.u64()?,
        },
        7 => Ev::ServerRetry {
            mh: r.usize()?,
            gen: r.u64()?,
        },
        8 => Ev::ServerRequest {
            mh: r.usize()?,
            gen: r.u64()?,
        },
        9 => Ev::ServerData {
            mh: r.usize()?,
            gen: r.u64()?,
            expiry: r.time()?,
            t_r: r.time()?,
            changes: Rc::new(get_membership_list(r)?),
        },
        10 => Ev::ValidationRequest {
            mh: r.usize()?,
            gen: r.u64()?,
        },
        11 => Ev::ValidationOk {
            mh: r.usize()?,
            gen: r.u64()?,
            expiry: r.time()?,
            t_r: r.time()?,
            changes: Rc::new(get_membership_list(r)?),
        },
        12 => Ev::SigRequest {
            from: r.usize()?,
            to: r.usize()?,
            members: match r.u8()? {
                0 => None,
                1 => {
                    let n = r.len(8)?;
                    let mut m = Vec::with_capacity(n);
                    for _ in 0..n {
                        m.push(r.usize()?);
                    }
                    Some(Rc::new(m))
                }
                _ => return Err(SnapshotError::Malformed("bad option tag")),
            },
        },
        13 => Ev::SigReply {
            from: r.usize()?,
            to: r.usize()?,
            sig: Rc::new(get_bloom(r, sigma, k)?),
        },
        14 => Ev::Reconnect { mh: r.usize()? },
        15 => Ev::ReconnectSync { mh: r.usize()? },
        16 => Ev::ReconnectSyncDone {
            mh: r.usize()?,
            members: {
                let n = r.len(8)?;
                let mut m = Vec::with_capacity(n);
                for _ in 0..n {
                    m.push(r.usize()?);
                }
                Rc::new(m)
            },
        },
        17 => Ev::ExplicitUpdate { mh: r.usize()? },
        18 => Ev::ExplicitUpdateAtMss {
            mh: r.usize()?,
            sample: {
                let n = r.len(8)?;
                let mut s = Vec::with_capacity(n);
                for _ in 0..n {
                    s.push(ItemId::new(r.u64()?));
                }
                Rc::new(s)
            },
        },
        19 => Ev::MembershipNews {
            mh: r.usize()?,
            changes: Rc::new(get_membership_list(r)?),
        },
        20 => Ev::DbUpdate,
        21 => Ev::AgeIntervals,
        22 => Ev::WarmupCap,
        23 => Ev::BeaconTick,
        24 => Ev::Delegated {
            to: r.usize()?,
            item: ItemId::new(r.u64()?),
            expiry: r.time()?,
        },
        25 => Ev::RefreshPushSchedule,
        26 => Ev::PushArrive {
            mh: r.usize()?,
            gen: r.u64()?,
        },
        _ => return Err(SnapshotError::Malformed("bad event tag")),
    })
}

// ----------------------------------------------------------------------
// Encode
// ----------------------------------------------------------------------

/// Encodes the complete mutable state of a mid-run simulation. The
/// scheduler is passed alongside because the run loop owns it.
pub(crate) fn encode(sim: &Simulation, sched: &Scheduler<Ev>) -> Vec<u8> {
    let mut w = Writer {
        buf: Vec::with_capacity(64 * 1024),
    };
    w.u32(MAGIC);
    w.u32(VERSION);
    w.u64(0); // checksum backpatched below
    w.u64(sim.cfg.canonical_fingerprint());

    // --- scheduler -----------------------------------------------------
    let state = sched.export_state();
    w.time(state.now);
    w.u64(state.next_seq);
    w.u64(state.fired);
    w.usize(state.peak_depth);
    w.usize(state.entries.len());
    for (at, seq, ev) in &state.entries {
        w.time(*at);
        w.u64(*seq);
        put_ev(&mut w, ev);
    }
    w.usize(state.cancelled.len());
    for &seq in &state.cancelled {
        w.u64(seq);
    }

    // --- mobility memo -------------------------------------------------
    let memo = sim.field.export_memo();
    w.opt_time(memo.cache_t);
    w.usize(memo.cache.len());
    for p in &memo.cache {
        w.f64(p.x);
        w.f64(p.y);
    }
    w.u64(memo.cache_hits);
    w.u64(memo.cache_misses);
    for key in [memo.grid_key, memo.probe_key] {
        match key {
            None => w.u8(0),
            Some((t, bits)) => {
                w.u8(1);
                w.time(t);
                w.u64(bits);
            }
        }
    }
    w.u8(memo.probe_scans);

    // --- channels ------------------------------------------------------
    let radios = sim.p2p.export_state();
    w.usize(radios.len());
    for s in radios {
        put_facility(&mut w, s);
    }
    let (up, down) = sim.server.export_state();
    put_facility(&mut w, up);
    put_facility(&mut w, down);

    // --- server database ----------------------------------------------
    let (items, updates_applied) = sim.db.export_state();
    w.usize(items.len());
    for (last_updated, interval, stale) in items {
        w.time(last_updated);
        match interval {
            None => w.u8(0),
            Some(v) => {
                w.u8(1);
                w.f64(v);
            }
        }
        w.bool(stale);
    }
    w.u64(updates_applied);

    // --- TCG directory -------------------------------------------------
    match &sim.dir {
        None => w.u8(0),
        Some(dir) => {
            w.u8(1);
            // Access rows are sparse-encoded (most of the NData-wide
            // frequency vector is zero): without this a large-population
            // GroCoca snapshot would be dominated by zeros.
            w.usize(dir.access.len());
            for row in &dir.access {
                let nonzero = row.iter().filter(|&&a| a != 0).count();
                w.usize(nonzero);
                for (i, &a) in row.iter().enumerate() {
                    if a != 0 {
                        w.u32(i as u32);
                        w.u32(a);
                    }
                }
            }
            for matrix in [&dir.dot, &dir.wadm] {
                w.usize(matrix.len());
                for &v in matrix.iter() {
                    w.f64(v);
                }
            }
            w.usize(dir.norm_sq.len());
            for &v in &dir.norm_sq {
                w.f64(v);
            }
            w.usize(dir.last_pos.len());
            for pos in &dir.last_pos {
                match pos {
                    None => w.u8(0),
                    Some(p) => {
                        w.u8(1);
                        w.f64(p.x);
                        w.f64(p.y);
                    }
                }
            }
            w.usize(dir.members.len());
            for m in &dir.members {
                put_usize_vec(&mut w, m.iter().copied());
            }
            w.usize(dir.pending.len());
            for p in &dir.pending {
                put_membership_list(&mut w, p);
            }
        }
    }

    // --- hosts ---------------------------------------------------------
    w.usize(sim.hosts.len());
    for h in &sim.hosts {
        w.bool(h.connected);
        w.usize(h.cache.len());
        for (key, e) in h.cache.iter() {
            w.u64(key.as_u64());
            w.time(e.last_access);
            w.time(e.inserted_at);
            w.u64(e.access_count);
            w.time(e.retrieved_at);
            w.time(e.expires_at);
            w.u32(e.singlet_ttl);
        }
        put_sparse(&mut w, h.counting.nonzero_counters(), Writer::u16);
        put_sparse(&mut w, h.peer_vector.nonzero_counters(), Writer::u32);
        put_usize_vec(&mut w, h.tcg.iter().copied());
        put_usize_vec(&mut w, h.outstand_sig.iter().copied());
        put_u32_set(&mut w, &h.pending_insert);
        put_u32_set(&mut w, &h.pending_evict);
        w.u32(h.departed_since_recollect);
        w.usize(h.peer_retrieved_log.len());
        for item in &h.peer_retrieved_log {
            w.u64(item.as_u64());
        }
        put_welford(&mut w, &h.search_stats);
        w.u64(h.gen);
        match &h.pending {
            None => w.u8(0),
            Some(p) => {
                w.u8(1);
                put_pending(&mut w, p);
            }
        }
        w.time(h.last_server_contact);
        w.bool(h.cache_filled);
        w.u32(h.consecutive_search_failures);
        w.u32(h.solo_requests_left);
    }

    // --- push schedule, popularity, NDP, activity ----------------------
    w.usize(sim.push.items().len());
    for &item in sim.push.items() {
        w.u64(item);
    }
    w.time(sim.push.slot_time());
    w.usize(sim.popularity.len());
    for &p in &sim.popularity {
        w.u64(p);
    }
    match &sim.ndp {
        None => w.u8(0),
        Some(ndp) => {
            w.u8(1);
            let (linked, missed) = ndp.export_state();
            w.usize(linked.len());
            for &b in linked {
                w.bool(b);
            }
            w.usize(missed.len());
            for &m in missed {
                w.u32(m);
            }
        }
    }
    w.usize(sim.active.len());
    for &b in &sim.active {
        w.bool(b);
    }

    // --- RNG substreams ------------------------------------------------
    w.usize(sim.host_rngs.len());
    for rng in &sim.host_rngs {
        put_rng(&mut w, rng);
    }
    put_rng(&mut w, &sim.rng_updates);
    put_rng(&mut w, &sim.fault_rng);

    // --- fault stats ---------------------------------------------------
    let f = &sim.fstats;
    for v in [
        f.p2p_lost,
        f.corrupted,
        f.departures,
        f.outage_drops,
        f.beacons_lost,
        f.search_retries,
        f.retrieve_retries,
        f.server_retries,
        f.delegation_retransmits,
        f.solo_entries,
        f.solo_skips,
        f.solo_exits,
        f.stale_serves,
    ] {
        w.u64(v);
    }

    // --- metrics -------------------------------------------------------
    let m = &sim.metrics;
    put_welford(&mut w, &m.latency);
    for v in [
        m.local_hits,
        m.global_hits,
        m.server_requests,
        m.push_hits,
        m.global_hits_from_tcg,
        m.validations,
        m.validation_refreshes,
        m.search_timeouts,
        m.filter_bypasses,
        m.retrieve_fallbacks,
        m.signature_messages,
        m.signature_bytes,
        m.broadcasts,
        m.replicated_evictions,
        m.singlet_drops,
        m.delegations,
    ] {
        w.u64(v);
    }
    w.f64(m.power.total_uws());
    w.f64(m.power.sent_uws());
    w.f64(m.power.received_uws());
    w.f64(m.power.discarded_uws());
    w.time(m.recorded_duration);

    // --- run-loop scalars ----------------------------------------------
    w.time(sim.last_event_time);
    w.bool(sim.warm);
    w.time(sim.warmed_at);
    w.usize(sim.full_caches);
    w.u64(sim.completed_recorded);

    // Backpatch the checksum over fingerprint + body.
    let sum = hash_bytes(&w.buf[16..]);
    w.buf[8..16].copy_from_slice(&sum.to_le_bytes());
    w.buf
}

// ----------------------------------------------------------------------
// Decode
// ----------------------------------------------------------------------

/// Rebuilds a mid-run simulation from snapshot bytes taken under `cfg`.
///
/// All config-derived state is reconstructed by [`Simulation::new`];
/// the snapshot overlays only history-dependent state, then the
/// mobility movers are warped forward to the snapshot instant (see the
/// module docs for why that reproduces the original draw consumption
/// exactly).
pub(crate) fn decode(cfg: SimConfig, bytes: &[u8]) -> Result<ResumedSimulation, SnapshotError> {
    if bytes.len() < HEADER_LEN {
        return Err(SnapshotError::TooShort);
    }
    let mut r = Reader { buf: bytes, pos: 0 };
    let magic = r.u32()?;
    if magic != MAGIC {
        return Err(SnapshotError::BadMagic(magic));
    }
    let version = r.u32()?;
    if version != VERSION {
        return Err(SnapshotError::BadVersion(version));
    }
    let checksum = r.u64()?;
    if checksum != hash_bytes(&bytes[16..]) {
        return Err(SnapshotError::ChecksumMismatch);
    }
    let found = r.u64()?;
    let expected = cfg.canonical_fingerprint();
    if found != expected {
        return Err(SnapshotError::ConfigMismatch { expected, found });
    }

    let mut sim = Simulation::new(cfg);
    let n = sim.hosts.len();

    // --- scheduler -----------------------------------------------------
    let now = r.time()?;
    let next_seq = r.u64()?;
    let fired = r.u64()?;
    let peak_depth = r.usize()?;
    let n_entries = r.len(17)?;
    let mut entries = Vec::with_capacity(n_entries);
    for _ in 0..n_entries {
        let at = r.time()?;
        let seq = r.u64()?;
        entries.push((at, seq, get_ev(&mut r, sim.cfg.sigma, sim.cfg.bloom_k)?));
    }
    let n_cancelled = r.len(8)?;
    let mut cancelled = Vec::with_capacity(n_cancelled);
    for _ in 0..n_cancelled {
        cancelled.push(r.u64()?);
    }
    let sched = Scheduler::from_state(SchedulerState {
        now,
        next_seq,
        fired,
        peak_depth,
        entries,
        cancelled,
    });

    // --- mobility: warp forward, then overlay the memo exactly ---------
    let cache_t = r.opt_time()?;
    let n_cache = r.len(16)?;
    if n_cache != n {
        return Err(SnapshotError::Malformed("position cache length"));
    }
    let mut cache = Vec::with_capacity(n_cache);
    for _ in 0..n_cache {
        cache.push(Vec2 {
            x: r.f64()?,
            y: r.f64()?,
        });
    }
    let cache_hits = r.u64()?;
    let cache_misses = r.u64()?;
    let mut keys = [None, None];
    for key in &mut keys {
        *key = match r.u8()? {
            0 => None,
            1 => Some((r.time()?, r.u64()?)),
            _ => return Err(SnapshotError::Malformed("bad option tag")),
        };
    }
    let probe_scans = r.u8()?;
    sim.field.warp_to(now);
    sim.field.restore_memo(FieldMemo {
        cache_t,
        cache,
        cache_hits,
        cache_misses,
        grid_key: keys[0],
        probe_key: keys[1],
        probe_scans,
    });

    // --- channels ------------------------------------------------------
    let n_radios = r.len(32)?;
    if n_radios != n {
        return Err(SnapshotError::Malformed("radio count"));
    }
    let mut radios = Vec::with_capacity(n_radios);
    for _ in 0..n_radios {
        radios.push(get_facility(&mut r)?);
    }
    sim.p2p.restore_state(&radios);
    let up = get_facility(&mut r)?;
    let down = get_facility(&mut r)?;
    sim.server.restore_state((up, down));

    // --- server database ----------------------------------------------
    let n_items = r.len(10)?;
    if n_items as u64 != sim.cfg.n_data {
        return Err(SnapshotError::Malformed("database size"));
    }
    let mut items = Vec::with_capacity(n_items);
    for _ in 0..n_items {
        let last_updated = r.time()?;
        let interval = match r.u8()? {
            0 => None,
            1 => Some(r.f64()?),
            _ => return Err(SnapshotError::Malformed("bad option tag")),
        };
        items.push((last_updated, interval, r.bool()?));
    }
    let updates_applied = r.u64()?;
    sim.db.restore_state(&items, updates_applied);

    // --- TCG directory -------------------------------------------------
    let has_dir = r.bool()?;
    if has_dir != sim.dir.is_some() {
        return Err(SnapshotError::Malformed("directory presence"));
    }
    if let Some(dir) = sim.dir.as_mut() {
        let rows = r.len(8)?;
        if rows != n {
            return Err(SnapshotError::Malformed("access matrix rows"));
        }
        for row in dir.access.iter_mut() {
            let nonzero = r.len(8)?;
            if nonzero > row.len() {
                return Err(SnapshotError::Malformed("access matrix columns"));
            }
            row.fill(0);
            for _ in 0..nonzero {
                let idx = r.u32()? as usize;
                let val = r.u32()?;
                let slot = row
                    .get_mut(idx)
                    .ok_or(SnapshotError::Malformed("access column index"))?;
                *slot = val;
            }
        }
        for matrix in [&mut dir.dot, &mut dir.wadm] {
            let len = r.len(8)?;
            if len != n * n {
                return Err(SnapshotError::Malformed("pair matrix length"));
            }
            for v in matrix.iter_mut() {
                *v = r.f64()?;
            }
        }
        let len = r.len(8)?;
        if len != n {
            return Err(SnapshotError::Malformed("norm vector length"));
        }
        for v in dir.norm_sq.iter_mut() {
            *v = r.f64()?;
        }
        let len = r.len(1)?;
        if len != n {
            return Err(SnapshotError::Malformed("position vector length"));
        }
        for pos in dir.last_pos.iter_mut() {
            *pos = match r.u8()? {
                0 => None,
                1 => Some(Vec2 {
                    x: r.f64()?,
                    y: r.f64()?,
                }),
                _ => return Err(SnapshotError::Malformed("bad option tag")),
            };
        }
        let len = r.len(8)?;
        if len != n {
            return Err(SnapshotError::Malformed("member list count"));
        }
        for m in dir.members.iter_mut() {
            *m = get_usize_set(&mut r)?;
        }
        let len = r.len(8)?;
        if len != n {
            return Err(SnapshotError::Malformed("pending list count"));
        }
        for p in dir.pending.iter_mut() {
            *p = get_membership_list(&mut r)?;
        }
    }

    // --- hosts ---------------------------------------------------------
    let n_hosts = r.len(1)?;
    if n_hosts != n {
        return Err(SnapshotError::Malformed("host count"));
    }
    let sigma = sim.cfg.sigma;
    for h in sim.hosts.iter_mut() {
        h.connected = r.bool()?;
        let n_entries = r.len(49)?;
        if n_entries > h.cache.capacity() {
            return Err(SnapshotError::Malformed("cache overflow"));
        }
        for _ in 0..n_entries {
            let key = ItemId::new(r.u64()?);
            let entry = Entry {
                last_access: r.time()?,
                inserted_at: r.time()?,
                access_count: r.u64()?,
                retrieved_at: r.time()?,
                expires_at: r.time()?,
                singlet_ttl: r.u32()?,
            };
            h.cache.restore_entry(key, entry);
        }
        h.counting
            .restore_counters(&get_sparse(&mut r, sigma, 2, Reader::u16)?);
        h.peer_vector
            .restore_counters(&get_sparse(&mut r, sigma, 4, Reader::u32)?);
        h.tcg = get_usize_set(&mut r)?;
        h.outstand_sig = get_usize_set(&mut r)?;
        h.pending_insert = get_u32_set(&mut r)?;
        h.pending_evict = get_u32_set(&mut r)?;
        h.departed_since_recollect = r.u32()?;
        let len = r.len(8)?;
        h.peer_retrieved_log = (0..len)
            .map(|_| r.u64().map(ItemId::new))
            .collect::<Result<_, _>>()?;
        h.search_stats = get_welford(&mut r)?;
        h.gen = r.u64()?;
        h.pending = match r.u8()? {
            0 => None,
            1 => Some(get_pending(&mut r)?),
            _ => return Err(SnapshotError::Malformed("bad option tag")),
        };
        h.last_server_contact = r.time()?;
        h.cache_filled = r.bool()?;
        h.consecutive_search_failures = r.u32()?;
        h.solo_requests_left = r.u32()?;
    }

    // --- push schedule, popularity, NDP, activity ----------------------
    let len = r.len(8)?;
    let mut push_items = Vec::with_capacity(len);
    for _ in 0..len {
        push_items.push(r.u64()?);
    }
    let slot_time = r.time()?;
    if !push_items.is_empty() && slot_time == SimTime::ZERO {
        return Err(SnapshotError::Malformed("zero push slot"));
    }
    sim.push = grococa_net::PushSchedule::new(push_items, slot_time);
    let len = r.len(8)?;
    if len != sim.popularity.len() {
        return Err(SnapshotError::Malformed("popularity length"));
    }
    for p in sim.popularity.iter_mut() {
        *p = r.u64()?;
    }
    let has_ndp = r.bool()?;
    if has_ndp != sim.ndp.is_some() {
        return Err(SnapshotError::Malformed("NDP presence"));
    }
    if let Some(ndp) = sim.ndp.as_mut() {
        let pairs = n * (n - 1) / 2;
        let len = r.len(1)?;
        if len != pairs {
            return Err(SnapshotError::Malformed("NDP link vector length"));
        }
        let mut linked = Vec::with_capacity(len);
        for _ in 0..len {
            linked.push(r.bool()?);
        }
        let len = r.len(4)?;
        if len != pairs {
            return Err(SnapshotError::Malformed("NDP miss vector length"));
        }
        let mut missed = Vec::with_capacity(len);
        for _ in 0..len {
            missed.push(r.u32()?);
        }
        ndp.restore_state(&linked, &missed);
    }
    let len = r.len(1)?;
    if len != n {
        return Err(SnapshotError::Malformed("activity vector length"));
    }
    for b in sim.active.iter_mut() {
        *b = r.bool()?;
    }

    // --- RNG substreams ------------------------------------------------
    let len = r.len(32)?;
    if len != n {
        return Err(SnapshotError::Malformed("host RNG count"));
    }
    for rng in sim.host_rngs.iter_mut() {
        *rng = get_rng(&mut r)?;
    }
    sim.rng_updates = get_rng(&mut r)?;
    sim.fault_rng = get_rng(&mut r)?;

    // --- fault stats ---------------------------------------------------
    let f = &mut sim.fstats;
    for v in [
        &mut f.p2p_lost,
        &mut f.corrupted,
        &mut f.departures,
        &mut f.outage_drops,
        &mut f.beacons_lost,
        &mut f.search_retries,
        &mut f.retrieve_retries,
        &mut f.server_retries,
        &mut f.delegation_retransmits,
        &mut f.solo_entries,
        &mut f.solo_skips,
        &mut f.solo_exits,
        &mut f.stale_serves,
    ] {
        *v = r.u64()?;
    }

    // --- metrics -------------------------------------------------------
    sim.metrics.latency = get_welford(&mut r)?;
    let m = &mut sim.metrics;
    for v in [
        &mut m.local_hits,
        &mut m.global_hits,
        &mut m.server_requests,
        &mut m.push_hits,
        &mut m.global_hits_from_tcg,
        &mut m.validations,
        &mut m.validation_refreshes,
        &mut m.search_timeouts,
        &mut m.filter_bypasses,
        &mut m.retrieve_fallbacks,
        &mut m.signature_messages,
        &mut m.signature_bytes,
        &mut m.broadcasts,
        &mut m.replicated_evictions,
        &mut m.singlet_drops,
        &mut m.delegations,
    ] {
        *v = r.u64()?;
    }
    let total = r.f64()?;
    let sent = r.f64()?;
    let received = r.f64()?;
    let discarded = r.f64()?;
    sim.metrics.power = PowerMeter::from_parts(total, sent, received, discarded);
    sim.metrics.recorded_duration = r.time()?;

    // --- run-loop scalars ----------------------------------------------
    sim.last_event_time = r.time()?;
    sim.warm = r.bool()?;
    sim.warmed_at = r.time()?;
    sim.full_caches = r.usize()?;
    sim.completed_recorded = r.u64()?;
    r.done()?;

    Ok(ResumedSimulation { sim, sched })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body(write: impl FnOnce(&mut Writer)) -> Vec<u8> {
        let mut w = Writer { buf: Vec::new() };
        write(&mut w);
        w.buf
    }

    fn reader(buf: &[u8]) -> Reader<'_> {
        Reader { buf, pos: 0 }
    }

    fn sparse_u16(pairs: &[(u32, u16)]) -> Vec<u8> {
        body(|w| put_sparse(w, pairs.iter().copied(), Writer::u16))
    }

    #[test]
    fn bloom_round_trips_word_wise() {
        for sigma in [1, 7, 63, 64, 65, 130, 10_000] {
            let mut b = BloomFilter::new(sigma, 2);
            for key in 0..20 {
                b.insert(key);
            }
            let buf = body(|w| put_bloom(w, &b));
            assert_eq!(buf.len(), 8 + (sigma as usize).div_ceil(8));
            let mut r = reader(&buf);
            assert_eq!(get_bloom(&mut r, sigma, 2), Ok(b));
            assert_eq!(r.done(), Ok(()));
        }
    }

    #[test]
    fn bloom_of_a_foreign_geometry_is_malformed() {
        let buf = body(|w| put_bloom(w, &BloomFilter::new(128, 2)));
        for (sigma, k) in [(256, 2), (64, 2), (128, 3)] {
            assert_eq!(
                get_bloom(&mut reader(&buf), sigma, k),
                Err(SnapshotError::Malformed("signature geometry"))
            );
        }
    }

    #[test]
    fn bloom_bits_past_sigma_are_malformed() {
        let mut buf = body(|w| put_bloom(w, &BloomFilter::new(60, 2)));
        if let Some(last) = buf.last_mut() {
            *last |= 0x80; // bit 63 of a 60-bit filter
        }
        assert_eq!(
            get_bloom(&mut reader(&buf), 60, 2),
            Err(SnapshotError::Malformed("signature bits past sigma"))
        );
    }

    #[test]
    fn sparse_counters_round_trip() {
        let pairs = [(0, 1), (5, 7), (127, u16::MAX)];
        let buf = sparse_u16(&pairs);
        assert_eq!(buf.len(), 8 + 3 * 6);
        let mut r = reader(&buf);
        assert_eq!(get_sparse(&mut r, 128, 2, Reader::u16), Ok(pairs.to_vec()));
        assert_eq!(r.done(), Ok(()));
        let empty = sparse_u16(&[]);
        assert_eq!(
            get_sparse(&mut reader(&empty), 128, 2, Reader::u16),
            Ok(vec![])
        );
    }

    #[test]
    fn structurally_bad_sparse_counters_are_malformed() {
        let cases: [(&[(u32, u16)], &str); 5] = [
            (&[(128, 1)], "counter position out of range"),
            (&[(4, 1), (u32::MAX, 1)], "counter position out of range"),
            (&[(3, 1), (3, 2)], "counter positions not increasing"),
            (&[(9, 1), (4, 2)], "counter positions not increasing"),
            (&[(1, 1), (2, 0)], "zero counter stored"),
        ];
        for (pairs, why) in cases {
            assert_eq!(
                get_sparse(&mut reader(&sparse_u16(pairs)), 128, 2, Reader::u16),
                Err(SnapshotError::Malformed(why)),
                "{pairs:?}"
            );
        }
        let zero_peer = body(|w| put_sparse(w, [(6, 0u32)].into_iter(), Writer::u32));
        assert_eq!(
            get_sparse(&mut reader(&zero_peer), 128, 4, Reader::u32),
            Err(SnapshotError::Malformed("zero counter stored"))
        );
        let overlong = body(|w| w.u64(3));
        assert_eq!(
            get_sparse(&mut reader(&overlong), 128, 2, Reader::u16),
            Err(SnapshotError::Malformed("count exceeds body"))
        );
    }
}
