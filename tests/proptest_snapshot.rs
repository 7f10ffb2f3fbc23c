//! Adversarial property tests of the run-level checkpoint codec:
//! snapshot → restore → snapshot is **byte-identical** for arbitrary
//! configurations and fault plans; a run resumed from any checkpoint
//! replays **bit-for-bit** (report, metrics, fault counters and the
//! invariant audit all match the uninterrupted run, and the resumed
//! run re-emits the exact same downstream checkpoints); and corruption
//! at **every byte offset** — plus truncation at every length — is
//! rejected with a typed error, never a panic.

use grococa::core::{DataDelivery, FaultPlan, Scheme, SimConfig, Simulation};
use proptest::prelude::*;

/// Checkpoint cadence for the fixed-world corruption tests: small
/// enough that the tiny deterministic run emits a snapshot early.
const EVERY: u64 = 400;

/// Cadence for a generated world, derived from its measured event
/// count: every world checkpoints a handful of times regardless of how
/// large (deadline-walled chaos) or small (five hosts, three requests)
/// its run turns out to be.
fn cadence_for(events: u64) -> u64 {
    (events / 6).max(25)
}

/// A deliberately small world: the properties quantify over structure
/// (scheme, faults, toggles, seed), not scale, so the database and
/// population shrink until one case runs in milliseconds.
fn small_cfg(
    scheme: usize,
    clients: usize,
    requests: u64,
    seed: u64,
    fault: usize,
    bits: u8,
) -> SimConfig {
    let scheme = [Scheme::Conventional, Scheme::Coca, Scheme::GroCoca][scheme % 3];
    let mut cfg = SimConfig::for_scheme(scheme);
    cfg.seed = seed;
    cfg.num_clients = clients;
    cfg.requests_per_mh = requests;
    cfg.n_data = 240;
    cfg.access_range = 100;
    cfg.cache_size = 20;
    // Signature counters are stored sparsely, but each in-flight
    // `SigReply` still carries a σ-bit payload; the default 10 000 is
    // sized for the paper's database, not this 240-item world. A small
    // σ keeps snapshots short, so the exhaustive per-offset corruption
    // sweep (quadratic in snapshot length) stays fast.
    cfg.sigma = 128;
    cfg.faults =
        FaultPlan::profile(FaultPlan::PROFILE_NAMES[fault % FaultPlan::PROFILE_NAMES.len()])
            .expect("named profile");
    if bits & 1 != 0 {
        cfg.update_rate = 2.0;
    }
    if bits & 2 != 0 {
        cfg.delivery = DataDelivery::hybrid();
    }
    if bits & 4 != 0 {
        cfg.ndp_tables = true;
    }
    if bits & 8 != 0 {
        cfg.p_disc = 0.05;
    }
    if bits & 16 != 0 {
        cfg.low_activity_fraction = 0.3;
        cfg.delegate_singlets = true;
    }
    // Some fault/disconnection draws can stall progress almost
    // indefinitely; the simulator's own hang wall bounds every generated
    // run (and puts the deadline path itself under the properties).
    cfg.warmup_cap_secs = 40.0;
    cfg.hang_deadline_secs = Some(120.0);
    cfg.validate().expect("small config is valid");
    cfg
}

/// Runs `cfg` uninterrupted and checkpointed, returning the baseline
/// output, the cadence used, and every emitted snapshot. The
/// checkpointed run must not be perturbed by observation.
fn baseline_and_snapshots(cfg: &SimConfig) -> (grococa::core::RunOutput, u64, Vec<Vec<u8>>) {
    let (baseline, _) = Simulation::new(cfg.clone())
        .try_run_inspect()
        .expect("baseline run");
    let every = cadence_for(baseline.events);
    let mut snapshots: Vec<Vec<u8>> = Vec::new();
    let (checkpointed, _) = Simulation::new(cfg.clone())
        .try_run_inspect_checkpointed(every, &mut |b| snapshots.push(b.to_vec()))
        .expect("checkpointed run");
    assert_eq!(
        format!("{checkpointed:?}"),
        format!("{baseline:?}"),
        "emitting checkpoints perturbed the run"
    );
    (baseline, every, snapshots)
}

proptest! {
    /// Restoring any checkpoint and immediately re-encoding it
    /// reproduces the original snapshot byte for byte, across random
    /// schemes, populations, fault profiles and extension toggles.
    /// The same snapshot under a *different* configuration is refused.
    #[test]
    fn snapshot_restore_snapshot_is_byte_identical(
        scheme in 0usize..3,
        clients in 5usize..8,
        requests in 3u64..7,
        seed in any::<u64>(),
        fault in 0usize..5,
        bits in any::<u8>(),
    ) {
        let cfg = small_cfg(scheme, clients, requests, seed, fault, bits);
        let (_, _, snapshots) = baseline_and_snapshots(&cfg);
        prop_assert!(!snapshots.is_empty(), "run too short to checkpoint");
        for idx in [0, snapshots.len() / 2, snapshots.len() - 1] {
            let resumed = Simulation::resume(cfg.clone(), &snapshots[idx])
                .expect("clean snapshot restores");
            prop_assert_eq!(
                resumed.snapshot(),
                snapshots[idx].clone(),
                "round-trip diverged at checkpoint {}", idx
            );
        }
        // A different configuration has a different fingerprint: the
        // same bytes must be refused, not silently reinterpreted.
        let mut other = cfg.clone();
        other.seed = cfg.seed.wrapping_add(1);
        prop_assert!(Simulation::resume(other, &snapshots[0]).is_err());
    }

    /// A run resumed from a mid-flight checkpoint finishes bit-for-bit
    /// identical to the uninterrupted run — same report, same metrics,
    /// same fault counters, same invariant audit — and, continued with
    /// the same cadence, re-emits exactly the checkpoints the original
    /// would have written after that point.
    #[test]
    fn resumed_runs_replay_bit_for_bit(
        scheme in 0usize..3,
        clients in 5usize..8,
        requests in 3u64..7,
        seed in any::<u64>(),
        fault in 0usize..5,
        bits in any::<u8>(),
    ) {
        let cfg = small_cfg(scheme, clients, requests, seed, fault, bits);
        let (baseline, every, snapshots) = baseline_and_snapshots(&cfg);
        prop_assert!(!snapshots.is_empty(), "run too short to checkpoint");
        let mid = snapshots.len() / 2;
        let resumed = Simulation::resume(cfg.clone(), &snapshots[mid])
            .expect("clean snapshot restores");
        let mut tail: Vec<Vec<u8>> = Vec::new();
        let (replayed, _) = resumed
            .try_run_inspect_checkpointed(every, &mut |b| tail.push(b.to_vec()))
            .expect("resumed run completes");
        // The invariant audit and the fault counters are asserted on
        // their own — a resumed run must not lose or double-count
        // injected faults, and must audit identically at the end.
        prop_assert_eq!(format!("{:?}", replayed.audit), format!("{:?}", baseline.audit));
        prop_assert_eq!(
            format!("{:?}", replayed.fault_stats),
            format!("{:?}", baseline.fault_stats)
        );
        prop_assert_eq!(format!("{:?}", replayed.report), format!("{:?}", baseline.report));
        prop_assert_eq!(format!("{replayed:?}"), format!("{baseline:?}"));
        // The resumed run's checkpoint instants coincide with the
        // original's, so the snapshot streams must match byte for byte.
        prop_assert_eq!(tail, snapshots[mid + 1..].to_vec());
    }

    /// Random multi-byte corruption anywhere in a snapshot is rejected
    /// with a typed error — resume never panics and never accepts
    /// damaged state.
    #[test]
    fn random_corruption_is_rejected(
        seed in any::<u64>(),
        offsets in proptest::collection::vec((any::<u64>(), 1u8..=255), 1..4),
    ) {
        let cfg = small_cfg(2, 5, 4, seed, 0, 0);
        let mut snapshots: Vec<Vec<u8>> = Vec::new();
        Simulation::new(cfg.clone())
            .try_run_inspect_checkpointed(EVERY, &mut |b| snapshots.push(b.to_vec()))
            .expect("checkpointed run");
        prop_assert!(!snapshots.is_empty());
        let mut corrupt = snapshots[0].clone();
        for (at, flip) in &offsets {
            let at = (*at as usize) % corrupt.len();
            corrupt[at] ^= *flip;
        }
        prop_assert!(Simulation::resume(cfg, &corrupt).is_err());
    }
}

/// Exhaustive single-bit corruption at **every byte offset**, plus
/// truncation at **every length** and trailing garbage: each one must
/// come back as a typed error. One deterministic snapshot keeps the
/// sweep exhaustive yet fast.
#[test]
fn corruption_at_every_byte_offset_is_rejected() {
    let cfg = small_cfg(2, 5, 4, 0xC0CA_C0DE, 4, 0);
    let mut snapshots: Vec<Vec<u8>> = Vec::new();
    Simulation::new(cfg.clone())
        .try_run_inspect_checkpointed(EVERY, &mut |b| snapshots.push(b.to_vec()))
        .expect("checkpointed run");
    let snapshot = snapshots.first().expect("run emits a checkpoint");
    assert!(
        Simulation::resume(cfg.clone(), snapshot).is_ok(),
        "pristine snapshot restores"
    );
    for at in 0..snapshot.len() {
        let mut corrupt = snapshot.clone();
        corrupt[at] ^= 1 << (at % 8);
        assert!(
            Simulation::resume(cfg.clone(), &corrupt).is_err(),
            "bit flip at offset {at} went undetected"
        );
    }
    for cut in 0..snapshot.len() {
        assert!(
            Simulation::resume(cfg.clone(), &snapshot[..cut]).is_err(),
            "truncation to {cut} bytes went undetected"
        );
    }
    let mut extended = snapshot.clone();
    extended.push(0);
    assert!(
        Simulation::resume(cfg, &extended).is_err(),
        "trailing garbage went undetected"
    );
}
