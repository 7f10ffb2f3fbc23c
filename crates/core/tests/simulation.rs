//! End-to-end simulation tests: determinism, scheme ordering, protocol
//! behaviour under updates and disconnection.
//!
//! These use scaled-down populations/request counts so the whole suite runs
//! in seconds; the paper-scale sweeps live in the bench harness.

use grococa_core::{GroCocaToggles, Outcome, Scheme, SimConfig, Simulation};
use grococa_sim::SimTime;

fn small(scheme: Scheme) -> SimConfig {
    SimConfig {
        scheme,
        num_clients: 40,
        requests_per_mh: 120,
        seed: 20_240_601,
        ..SimConfig::default()
    }
}

#[test]
fn runs_are_deterministic_in_the_seed() {
    let a = Simulation::new(small(Scheme::GroCoca)).run();
    let b = Simulation::new(small(Scheme::GroCoca)).run();
    assert_eq!(a.report, b.report);
    assert_eq!(a.events, b.events);
    assert_eq!(a.finished_at, b.finished_at);
}

#[test]
fn different_seeds_give_different_runs() {
    let a = Simulation::new(small(Scheme::Coca)).run();
    let mut cfg = small(Scheme::Coca);
    cfg.seed ^= 0xDEAD_BEEF;
    let b = Simulation::new(cfg).run();
    assert_ne!(a.report, b.report);
}

#[test]
fn conventional_caching_never_hits_peers() {
    let out = Simulation::new(small(Scheme::Conventional)).run();
    assert_eq!(out.report.global_hit_ratio_pct, 0.0);
    assert_eq!(out.metrics.broadcasts, 0);
    assert_eq!(out.metrics.signature_messages, 0);
    assert_eq!(
        out.report.total_power_uws, 0.0,
        "no P2P traffic, no P2P power"
    );
}

#[test]
fn cooperative_schemes_achieve_global_hits() {
    let coca = Simulation::new(small(Scheme::Coca)).run();
    let gc = Simulation::new(small(Scheme::GroCoca)).run();
    assert!(
        coca.report.global_hit_ratio_pct > 10.0,
        "COCA GCH too low: {:.1}%",
        coca.report.global_hit_ratio_pct
    );
    assert!(
        gc.report.global_hit_ratio_pct > 10.0,
        "GroCoca GCH too low: {:.1}%",
        gc.report.global_hit_ratio_pct
    );
}

#[test]
fn cooperation_beats_conventional_on_latency_and_server_load() {
    // Cooperation pays on latency once the shared downlink is contended
    // (the paper's regime); emulate it at this small population by scaling
    // the downlink bandwidth down.
    let mut cc_cfg = small(Scheme::Conventional);
    cc_cfg.downlink_kbps = 800;
    let mut coca_cfg = small(Scheme::Coca);
    coca_cfg.downlink_kbps = 800;
    let cc = Simulation::new(cc_cfg).run();
    let coca = Simulation::new(coca_cfg).run();
    assert!(
        coca.report.access_latency_ms < cc.report.access_latency_ms,
        "COCA {:.2} ms should beat CC {:.2} ms under downlink contention",
        coca.report.access_latency_ms,
        cc.report.access_latency_ms
    );
    assert!(coca.report.server_request_ratio_pct < cc.report.server_request_ratio_pct);
}

#[test]
fn grococa_forms_tcgs_and_uses_the_filter() {
    let (out, world) = Simulation::new(small(Scheme::GroCoca)).run_inspect();
    let dir = world.tcg_directory().expect("GroCoca keeps a directory");
    let edges: usize = (0..40).map(|i| dir.members_of(i).len()).sum();
    assert!(edges > 0, "no TCG ever formed");
    // TCGs should overwhelmingly track motion groups. Occasional
    // cross-group edges are legitimate — two co-located hosts with
    // overlapping access windows genuinely satisfy both thresholds — but
    // they must stay a small minority.
    let same_group: usize = (0..40)
        .map(|i| {
            dir.members_of(i)
                .iter()
                .filter(|&&j| world.group_of(i) == world.group_of(j))
                .count()
        })
        .sum();
    assert!(
        same_group * 10 >= edges * 8,
        "only {same_group}/{edges} TCG edges follow motion groups"
    );
    assert!(out.metrics.filter_bypasses > 0, "filter never engaged");
    assert!(
        out.metrics.signature_messages > 0,
        "no signatures exchanged"
    );
}

#[test]
fn completion_accounting_balances() {
    let out = Simulation::new(small(Scheme::GroCoca)).run();
    let m = &out.metrics;
    assert_eq!(
        m.completed(),
        m.local_hits + m.global_hits + m.server_requests
    );
    assert_eq!(m.completed(), 40 * 120);
    assert!(m.global_hits_from_tcg <= m.global_hits);
}

#[test]
fn data_updates_cause_validations_and_lower_gch() {
    let no_upd = Simulation::new(small(Scheme::GroCoca)).run();
    let mut cfg = small(Scheme::GroCoca);
    cfg.update_rate = 50.0;
    let upd = Simulation::new(cfg).run();
    assert_eq!(
        no_upd.metrics.validations, 0,
        "no updates → TTLs never expire"
    );
    assert!(
        upd.metrics.validations > 0,
        "updates must trigger revalidation"
    );
    assert!(
        upd.report.global_hit_ratio_pct < no_upd.report.global_hit_ratio_pct,
        "updates should depress GCH: {:.1}% vs {:.1}%",
        upd.report.global_hit_ratio_pct,
        no_upd.report.global_hit_ratio_pct
    );
}

#[test]
fn disconnection_lowers_global_hits() {
    let stable = Simulation::new(small(Scheme::Coca)).run();
    let mut cfg = small(Scheme::Coca);
    cfg.p_disc = 0.3;
    let flaky = Simulation::new(cfg).run();
    assert!(
        flaky.report.global_hit_ratio_pct < stable.report.global_hit_ratio_pct,
        "disconnection should depress GCH: {:.1}% vs {:.1}%",
        flaky.report.global_hit_ratio_pct,
        stable.report.global_hit_ratio_pct
    );
}

#[test]
fn skewed_access_improves_local_hits() {
    let mut flat = small(Scheme::Conventional);
    flat.theta = 0.0;
    let mut skewed = small(Scheme::Conventional);
    skewed.theta = 0.95;
    let flat_out = Simulation::new(flat).run();
    let skew_out = Simulation::new(skewed).run();
    assert!(
        skew_out.report.local_hit_ratio_pct > flat_out.report.local_hit_ratio_pct + 5.0,
        "skew must raise LCH: {:.1}% vs {:.1}%",
        skew_out.report.local_hit_ratio_pct,
        flat_out.report.local_hit_ratio_pct
    );
}

#[test]
fn larger_cache_reduces_server_requests() {
    let mut small_cache = small(Scheme::Coca);
    small_cache.cache_size = 50;
    let mut big_cache = small(Scheme::Coca);
    big_cache.cache_size = 250;
    let s = Simulation::new(small_cache).run();
    let b = Simulation::new(big_cache).run();
    assert!(
        b.report.server_request_ratio_pct < s.report.server_request_ratio_pct,
        "bigger cache must cut server requests: {:.1}% vs {:.1}%",
        b.report.server_request_ratio_pct,
        s.report.server_request_ratio_pct
    );
}

#[test]
fn ablation_toggles_change_behaviour() {
    let full = Simulation::new(small(Scheme::GroCoca)).run();
    let mut cfg = small(Scheme::GroCoca);
    cfg.toggles = GroCocaToggles {
        signature_filter: false,
        admission_control: false,
        cooperative_replacement: false,
        compress_signatures: false,
        piggyback_updates: false,
    };
    let bare = Simulation::new(cfg).run();
    assert_eq!(bare.metrics.filter_bypasses, 0);
    assert_eq!(bare.metrics.replicated_evictions, 0);
    assert_eq!(bare.metrics.singlet_drops, 0);
    // With everything off, GroCoca degenerates towards COCA behaviour.
    let coca = Simulation::new(small(Scheme::Coca)).run();
    let gap = (bare.report.global_hit_ratio_pct - coca.report.global_hit_ratio_pct).abs();
    assert!(
        gap < 6.0,
        "bare GroCoca should be close to COCA, gap {gap:.1}%"
    );
    let _ = full;
}

#[test]
fn warmup_precedes_recording() {
    let out = Simulation::new(small(Scheme::Coca)).run();
    assert!(out.warmed_at > SimTime::ZERO);
    assert!(out.finished_at > out.warmed_at);
    assert_eq!(
        out.metrics.recorded_duration,
        out.finished_at - out.warmed_at
    );
}

#[test]
fn ndp_link_tables_approximate_geometry() {
    let exact = Simulation::new(small(Scheme::Coca)).run();
    let mut cfg = small(Scheme::Coca);
    cfg.ndp_tables = true;
    let via_ndp = Simulation::new(cfg).run();
    // The stale table must still support substantial cooperation...
    assert!(
        via_ndp.report.global_hit_ratio_pct > exact.report.global_hit_ratio_pct * 0.5,
        "NDP tables collapsed cooperation: {:.1}% vs {:.1}%",
        via_ndp.report.global_hit_ratio_pct,
        exact.report.global_hit_ratio_pct
    );
    // ...but the detection lag makes the runs genuinely different.
    assert_ne!(exact.report, via_ndp.report);
}

#[test]
fn beacon_accounting_adds_power() {
    let silent = Simulation::new(small(Scheme::Coca)).run();
    let mut cfg = small(Scheme::Coca);
    cfg.account_beacons = true;
    let metered = Simulation::new(cfg).run();
    assert!(
        metered.report.total_power_uws > silent.report.total_power_uws,
        "beacon metering must add energy"
    );
}

#[test]
fn outcome_enum_is_exhaustive_in_reporting() {
    // Guard against adding an Outcome variant without wiring the report.
    let outcomes = [Outcome::Local, Outcome::Global, Outcome::Server];
    assert_eq!(outcomes.len(), 3);
}
