//! The chaos suite: property tests driving the simulator through random
//! fault schedules (message loss, payload corruption, mid-transfer
//! departures, server outages, beacon jitter) and asserting the hardened
//! protocols never panic, never wedge, and degrade gracefully.
//!
//! Every run carries a generous `hang_deadline_secs`, so a protocol wedge
//! surfaces as a loud auditor failure instead of a hung test process.
//! Case count defaults to 64 per property (`PROPTEST_CASES` to raise).

use grococa::{FaultPlan, RetryPolicy, Scheme, SimConfig, Simulation};
use proptest::prelude::*;

/// A small, fast world with a deadline far beyond any sane completion
/// time: a clean run never reaches it, a wedged one fails its audit.
fn chaos_cfg(scheme: Scheme, seed: u64, plan: FaultPlan) -> SimConfig {
    let mut cfg = SimConfig {
        scheme,
        num_clients: 16,
        requests_per_mh: 30,
        seed,
        hang_deadline_secs: Some(500_000.0),
        ..SimConfig::default()
    };
    cfg.faults = plan;
    cfg
}

fn scheme_strategy() -> impl Strategy<Value = Scheme> {
    prop_oneof![
        Just(Scheme::Conventional),
        Just(Scheme::Coca),
        Just(Scheme::GroCoca),
    ]
}

fn outage_strategy() -> impl Strategy<Value = Option<(f64, f64)>> {
    prop_oneof![
        Just(None::<(f64, f64)>),
        ((10.0f64..120.0), (0.05f64..0.9)).prop_map(|(period, frac)| Some((period, period * frac))),
    ]
}

proptest! {
    /// Any random fault schedule: the run terminates (no hang, no panic),
    /// completes recorded requests, and passes the invariant audit.
    #[test]
    fn random_fault_schedules_never_wedge(
        scheme in scheme_strategy(),
        seed in any::<u64>(),
        loss in 0.0f64..=1.0,
        corruption in 0.0f64..=0.5,
        departure in 0.0f64..=0.5,
        jitter in 0.0f64..=0.5,
        outage in outage_strategy(),
    ) {
        let plan = FaultPlan {
            p2p_loss: loss,
            corruption,
            departure,
            server_outage: outage,
            beacon_jitter_secs: jitter,
        };
        let out = Simulation::new(chaos_cfg(scheme, seed, plan)).run();
        prop_assert!(
            out.audit.is_clean(),
            "audit failed under {plan:?} (scheme {scheme:?}, seed {seed}): {}",
            out.audit
        );
        prop_assert!(out.report.completed > 0, "nothing completed under {plan:?}");
    }

    /// The same (seed, fault plan) pair replays byte-identically: the
    /// fault stream is part of the deterministic state, not ambient
    /// randomness.
    #[test]
    fn fault_schedules_replay_identically(
        seed in any::<u64>(),
        loss in 0.0f64..=0.6,
        departure in 0.0f64..=0.4,
    ) {
        let plan = FaultPlan {
            p2p_loss: loss,
            departure,
            ..FaultPlan::default()
        };
        let a = Simulation::new(chaos_cfg(Scheme::GroCoca, seed, plan)).run();
        let b = Simulation::new(chaos_cfg(Scheme::GroCoca, seed, plan)).run();
        prop_assert_eq!(a.report, b.report);
        prop_assert_eq!(a.events, b.events);
        prop_assert_eq!(a.fault_stats, b.fault_stats);
        prop_assert_eq!(a.finished_at, b.finished_at);
    }
}

/// An inert fault plan must be bit-for-bit the current simulator, even
/// with the retry machinery configured to absurd values and the hang
/// deadline armed: the hardening layer draws nothing and schedules
/// nothing unless the plan is active.
#[test]
fn inert_plan_with_wild_retry_knobs_is_bit_identical() {
    let base = SimConfig {
        scheme: Scheme::GroCoca,
        num_clients: 20,
        requests_per_mh: 50,
        seed: 0xBEEF,
        ..SimConfig::default()
    };
    let pristine = Simulation::new(base.clone()).run();
    let mut hardened = base;
    hardened.hang_deadline_secs = Some(1e9);
    hardened.retry = RetryPolicy {
        max_search_retries: 9,
        max_retrieve_retries: 11,
        max_validation_retries: 13,
        backoff_factor: 7.5,
        server_retry_secs: 0.001,
        max_backoff_secs: 1e6,
        solo_after_failures: 1,
        solo_probe_every: 2,
        ndp_grace_rounds: 17,
    };
    let out = Simulation::new(hardened).run();
    assert_eq!(out.report, pristine.report);
    assert_eq!(out.events, pristine.events);
    assert_eq!(out.finished_at, pristine.finished_at);
    assert_eq!(
        out.fault_stats,
        Default::default(),
        "inert plan drew faults"
    );
    assert!(out.audit.is_clean());
}

/// At 100% peer-link loss the cooperative schemes must converge to
/// conventional caching: solo mode suppresses the doomed searches, so the
/// residual overhead (occasional probes) stays within 5% of CC latency.
#[test]
fn total_link_loss_converges_to_conventional_caching() {
    let run = |scheme: Scheme| {
        let plan = FaultPlan {
            p2p_loss: 1.0,
            ..FaultPlan::default()
        };
        let mut cfg = chaos_cfg(scheme, 0xC0CA, plan);
        cfg.num_clients = 30;
        cfg.requests_per_mh = 100;
        Simulation::new(cfg).run()
    };
    let cc = run(Scheme::Conventional);
    for scheme in [Scheme::Coca, Scheme::GroCoca] {
        let out = run(scheme);
        assert!(out.audit.is_clean(), "{scheme:?} audit: {}", out.audit);
        assert_eq!(
            out.report.global_hit_ratio_pct, 0.0,
            "{scheme:?} cannot score global hits on a dead channel"
        );
        let rel = (out.report.access_latency_ms - cc.report.access_latency_ms).abs()
            / cc.report.access_latency_ms;
        assert!(
            rel <= 0.05,
            "{scheme:?} latency {:.2} ms vs CC {:.2} ms — {:.1}% off (> 5%)",
            out.report.access_latency_ms,
            cc.report.access_latency_ms,
            rel * 100.0
        );
    }
}

/// A deadline the run cannot meet must fail loudly through the auditor
/// (`hung`), never silently return a truncated report.
#[test]
fn a_hung_run_fails_the_audit_loudly() {
    let mut cfg = SimConfig {
        scheme: Scheme::GroCoca,
        num_clients: 16,
        requests_per_mh: 30,
        seed: 0xC0CA,
        hang_deadline_secs: Some(0.5),
        ..SimConfig::default()
    };
    cfg.faults.p2p_loss = 0.1;
    let out = Simulation::new(cfg).run();
    assert!(out.audit.hung, "deadline unmet must set hung");
    assert!(!out.audit.is_clean());
    assert!(format!("{}", out.audit).contains("hung"));
}
