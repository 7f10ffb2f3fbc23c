//! Layer probes: short timed loops over one layer's public API, run with
//! a workload's own settings (n, σ, k, π_c, cache size, field
//! configuration, seed). Each returns raw samples; the caller summarises
//! them with [`crate::stats::summarize`].
//!
//! Sub-microsecond operations are timed in batches and reported per
//! operation, so the clock's own cost stays out of the figure.

use std::hint::black_box;

use grococa_cache::ClientCache;
use grococa_core::{SimConfig, TcgDirectory};
use grococa_mobility::{FieldConfig, MobilityField};
use grococa_signature::{
    compression_choice, data_positions, CompressedSignature, CountingFilter, PeerVector,
};
use grococa_sim::{Scheduler, SimRng, SimTime};
use grococa_workload::{ItemId, Zipf};

use crate::clock;

/// Substream base for probe inputs, clear of the simulator's own
/// substreams (0–4 and 1,000 + host).
const PROBE_STREAM: u64 = 0x5052_4f42_0000;

/// The mobility field a simulation of `cfg` builds.
fn field_of(cfg: &SimConfig) -> MobilityField {
    MobilityField::new(
        FieldConfig {
            model: cfg.motion_model,
            width: cfg.space.0,
            height: cfg.space.1,
            v_min: cfg.speed.0,
            v_max: cfg.speed.1,
            pause: SimTime::from_secs(1),
            group_size: cfg.group_size,
            group_radius: cfg.group_radius,
        },
        cfg.num_clients,
        cfg.seed,
    )
}

/// Zipf-distributed item keys over the cell's access range.
fn zipf_keys(cfg: &SimConfig, stream: u64, count: usize) -> Vec<u64> {
    let zipf = Zipf::new(cfg.access_range as usize, cfg.theta);
    let mut rng = SimRng::substream(cfg.seed, PROBE_STREAM + stream);
    (0..count)
        .map(|_| zipf.sample(&mut rng) as u64 - 1)
        .collect()
}

/// `sim-core`: ns per scheduler operation (one `schedule_at` or one
/// `pop`) on a queue held at `depth` pending events.
pub fn scheduler(seed: u64, depth: usize, samples: usize, batch: usize) -> Vec<f64> {
    let mut rng = SimRng::substream(seed, PROBE_STREAM + 1);
    let mut sched: Scheduler<u64> = Scheduler::new();
    for i in 0..depth.max(1) {
        sched.schedule_at(SimTime::from_micros(rng.uniform_u64(1_000_000)), i as u64);
    }
    let delays: Vec<SimTime> = (0..batch)
        .map(|_| SimTime::from_micros(1 + rng.uniform_u64(1_000_000)))
        .collect();
    (0..samples)
        .map(|_| {
            let t0 = clock::now();
            for &delay in &delays {
                if let Some((at, ev)) = sched.pop() {
                    sched.schedule_at(at + delay, black_box(ev));
                }
            }
            clock::secs_since(t0) * 1e9 / (2 * batch) as f64
        })
        .collect()
}

/// `mobility`: ns per `reachable_within_hops_into` query (the broadcast
/// search reach), each at a fresh instant as request arrivals are.
pub fn reach(cfg: &SimConfig, samples: usize) -> Vec<f64> {
    let n = cfg.num_clients;
    let mut field = field_of(cfg);
    let active = vec![true; n];
    let mut rng = SimRng::substream(cfg.seed, PROBE_STREAM + 2);
    let step = SimTime::from_secs_f64(cfg.mean_interarrival_secs / n as f64);
    let mut t = SimTime::from_secs(1);
    let mut out = Vec::new();
    (0..samples)
        .map(|_| {
            t += step;
            let src = rng.uniform_usize(n);
            let t0 = clock::now();
            field.reachable_within_hops_into(
                src,
                cfg.tran_range,
                cfg.hop_dist,
                t,
                &active,
                &mut out,
            );
            let ns = clock::secs_since(t0) * 1e9;
            black_box(out.len());
            ns
        })
        .collect()
}

/// A counting filter over a full cache of Zipf keys, as a warm host
/// holds.
fn full_filter(cfg: &SimConfig) -> (CountingFilter, Vec<u64>) {
    let mut filter = CountingFilter::new(cfg.sigma, cfg.bloom_k, cfg.pi_c);
    let mut cached = Vec::new();
    for key in zipf_keys(cfg, 3, cfg.cache_size * 20) {
        if cached.len() == cfg.cache_size {
            break;
        }
        if !cached.contains(&key) {
            filter.insert(key);
            cached.push(key);
        }
    }
    (filter, cached)
}

/// `signature`: ns per full signature rebuild and exchange — the
/// counting filter folded to a bloom filter, compressed when the paper's
/// rule says it pays, and added to a peer vector.
pub fn signature_rebuild(cfg: &SimConfig, samples: usize) -> Vec<f64> {
    let (filter, _) = full_filter(cfg);
    let mut peers = PeerVector::new(cfg.sigma, cfg.bloom_k);
    (0..samples)
        .map(|i| {
            if i % 64 == 0 {
                peers.reset();
            }
            let t0 = clock::now();
            let bloom = filter.to_bloom();
            let bytes = match compression_choice(cfg.cache_size as u64, cfg.sigma, cfg.bloom_k) {
                Some(r) => CompressedSignature::encode(&bloom, r).wire_bytes(),
                None => bloom.wire_bytes(),
            };
            peers.add_signature(&bloom);
            let ns = clock::secs_since(t0) * 1e9;
            black_box(bytes);
            ns
        })
        .collect()
}

/// `signature`: ns per incremental update — one piggybacked
/// `apply_update` (the transitions of one insertion and one eviction)
/// plus one `covers` filter test.
pub fn signature_update(cfg: &SimConfig, samples: usize, batch: usize) -> Vec<f64> {
    let (mut filter, mut cached) = full_filter(cfg);
    let mut peers = PeerVector::new(cfg.sigma, cfg.bloom_k);
    peers.add_signature(&filter.to_bloom());
    // Precompute the churn so only the peer-vector work is timed.
    let keys = zipf_keys(cfg, 4, samples * batch);
    let mut ops = Vec::with_capacity(keys.len());
    for (i, &key) in keys.iter().enumerate() {
        let query = data_positions(key, cfg.sigma, cfg.bloom_k);
        let (ins, ev) = if cached.contains(&key) || cached.is_empty() {
            (Vec::new(), Vec::new())
        } else {
            let victim = cached.swap_remove(i % cached.len());
            let ev = filter.remove_transitions(victim).unwrap_or_default();
            cached.push(key);
            (filter.insert_transitions(key), ev)
        };
        ops.push((ins, ev, query));
    }
    ops.chunks(batch.max(1))
        .map(|chunk| {
            let t0 = clock::now();
            for (ins, ev, query) in chunk {
                peers.apply_update(ins, ev);
                black_box(peers.covers(query));
            }
            clock::secs_since(t0) * 1e9 / chunk.len() as f64
        })
        .collect()
}

/// `tcg`: seconds per `TcgDirectory::new` at the workload's n.
pub fn tcg_new(cfg: &SimConfig, samples: usize) -> Vec<f64> {
    (0..samples)
        .map(|_| {
            let t0 = clock::now();
            let dir = TcgDirectory::new(
                cfg.num_clients,
                cfg.n_data,
                cfg.tcg_distance,
                cfg.tcg_similarity,
                cfg.omega,
            );
            let s = clock::secs_since(t0);
            drop(black_box(dir));
            s
        })
        .collect()
}

/// `tcg`: ns per MSS observation — `record_location` plus
/// `record_access` for one host, both O(n) at the workload's n.
pub fn tcg_update(cfg: &SimConfig, samples: usize) -> Vec<f64> {
    let n = cfg.num_clients;
    let mut dir = TcgDirectory::new(
        n,
        cfg.n_data,
        cfg.tcg_distance,
        cfg.tcg_similarity,
        cfg.omega,
    );
    let mut field = field_of(cfg);
    let mut rng = SimRng::substream(cfg.seed, PROBE_STREAM + 5);
    let items = zipf_keys(cfg, 6, samples);
    let step = SimTime::from_secs_f64(cfg.mean_interarrival_secs / n as f64);
    let mut t = SimTime::from_secs(1);
    // Every host reports once first, so each sample folds a full row.
    for i in 0..n {
        let pos = field.cached_position_at(i, t);
        dir.record_location(i, pos);
        dir.drain_changes(i);
    }
    items
        .into_iter()
        .map(|item| {
            t += step;
            let host = rng.uniform_usize(n);
            let pos = field.cached_position_at(host, t);
            let t0 = clock::now();
            dir.record_location(host, pos);
            dir.record_access(host, item);
            let ns = clock::secs_since(t0) * 1e9;
            black_box(dir.drain_changes(host));
            ns
        })
        .collect()
}

/// `cache`: ns per client-cache access on Zipf keys at the cell's cache
/// size — a `get`, and on a miss an `insert` (LRU victim) or, every
/// other miss, an `insert_evicting` with an explicit victim.
pub fn cache(cfg: &SimConfig, samples: usize, batch: usize) -> Vec<f64> {
    let mut cache: ClientCache<ItemId> = ClientCache::with_policy(cfg.cache_size, cfg.cache_policy);
    let keys: Vec<ItemId> = zipf_keys(cfg, 7, samples * batch)
        .into_iter()
        .map(ItemId::new)
        .collect();
    let expiry = SimTime::MAX;
    let mut now = SimTime::ZERO;
    let mut misses = 0u64;
    keys.chunks(batch.max(1))
        .map(|chunk| {
            let t0 = clock::now();
            for &key in chunk {
                now += SimTime::from_micros(1);
                if cache.get(key, now).is_some() {
                    continue;
                }
                misses += 1;
                match cache.victim_key() {
                    Some(victim) if cache.is_full() && misses.is_multiple_of(2) => {
                        black_box(cache.insert_evicting(key, now, expiry, victim));
                    }
                    _ => {
                        black_box(cache.insert(key, now, expiry));
                    }
                }
            }
            clock::secs_since(t0) * 1e9 / chunk.len() as f64
        })
        .collect()
}
