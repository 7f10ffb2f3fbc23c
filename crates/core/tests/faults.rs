//! Integration tests of the fault-injection layer and the protocol
//! hardening it exercises: forced mid-transfer departures, the reconnect
//! path, retry/backoff accounting, solo-mode degradation, server outages
//! and the end-of-run invariant auditor.
//!
//! These use scaled-down populations so the whole suite runs in seconds.

use grococa_core::{FaultPlan, Scheme, SimConfig, Simulation, TraceKind, Tracer};

fn small(scheme: Scheme) -> SimConfig {
    SimConfig {
        scheme,
        num_clients: 24,
        requests_per_mh: 60,
        seed: 0xFA_07,
        // A hang would otherwise run forever; any test below that ends
        // with an unmet target fails loudly through the auditor instead.
        hang_deadline_secs: Some(200_000.0),
        ..SimConfig::default()
    }
}

#[test]
fn forced_departures_still_complete() {
    // Every idle provider departs mid-transfer: each cooperative retrieve
    // loses its data message and must recover through the retrieve
    // watchdog and the server fallback.
    let mut cfg = small(Scheme::Coca);
    cfg.faults.departure = 1.0;
    let out = Simulation::new(cfg).run();
    assert!(out.audit.is_clean(), "audit: {}", out.audit);
    assert!(out.fault_stats.departures > 0, "{:?}", out.fault_stats);
    assert!(
        out.fault_stats.retrieve_retries > 0,
        "{:?}",
        out.fault_stats
    );
    assert!(out.report.completed > 0);
}

#[test]
fn departed_hosts_reconnect_and_resync() {
    // Under GroCoca a departed host must run the full reconnection
    // protocol: Disconnected → Reconnected trace pair, then the MSS
    // membership sync and the signature recollection.
    let mut cfg = small(Scheme::GroCoca);
    cfg.faults.departure = 0.5;
    let mut sim = Simulation::new(cfg);
    sim.set_tracer(Tracer::unbounded());
    let (out, world) = sim.run_inspect();
    assert!(out.audit.is_clean(), "audit: {}", out.audit);
    assert!(out.fault_stats.departures > 0);
    let trace = world.tracer().expect("tracer attached");
    let down = trace.count(|r| matches!(r.kind, TraceKind::Disconnected));
    let up = trace.count(|r| matches!(r.kind, TraceKind::Reconnected));
    assert!(down > 0, "no departures traced");
    assert!(up > 0, "no reconnections traced");
}

#[test]
fn lossy_links_drive_search_and_retrieve_retries() {
    let mut cfg = small(Scheme::Coca);
    cfg.faults = FaultPlan::profile("lossy").expect("named profile");
    let out = Simulation::new(cfg).run();
    assert!(out.audit.is_clean(), "audit: {}", out.audit);
    assert!(out.fault_stats.p2p_lost > 0);
    assert!(
        out.fault_stats.search_retries > 0 || out.fault_stats.retrieve_retries > 0,
        "loss never triggered a retry: {:?}",
        out.fault_stats
    );
}

#[test]
fn server_outages_trigger_backed_off_server_retries() {
    let mut cfg = small(Scheme::Conventional);
    cfg.faults.server_outage = Some((20.0, 5.0));
    let out = Simulation::new(cfg).run();
    assert!(out.audit.is_clean(), "audit: {}", out.audit);
    assert!(out.fault_stats.outage_drops > 0, "{:?}", out.fault_stats);
    assert!(out.fault_stats.server_retries > 0, "{:?}", out.fault_stats);
    assert!(out.report.completed > 0);
}

#[test]
fn total_link_loss_enters_solo_mode() {
    let mut cfg = small(Scheme::Coca);
    cfg.faults.p2p_loss = 1.0;
    let out = Simulation::new(cfg).run();
    assert!(out.audit.is_clean(), "audit: {}", out.audit);
    assert!(out.fault_stats.solo_entries > 0, "{:?}", out.fault_stats);
    assert!(out.fault_stats.solo_skips > 0, "{:?}", out.fault_stats);
    assert_eq!(
        out.report.global_hit_ratio_pct, 0.0,
        "no peer data can survive a fully dead channel"
    );
}

#[test]
fn corruption_is_detected_and_dropped() {
    let mut cfg = small(Scheme::GroCoca);
    cfg.faults.corruption = 0.3;
    cfg.faults.p2p_loss = 0.05;
    let out = Simulation::new(cfg).run();
    assert!(out.audit.is_clean(), "audit: {}", out.audit);
    assert!(out.fault_stats.corrupted > 0, "{:?}", out.fault_stats);
}

#[test]
fn try_new_rejects_invalid_configs_without_panicking() {
    let mut cfg = small(Scheme::Coca);
    cfg.faults.p2p_loss = 1.5;
    let err = Simulation::try_new(cfg).expect_err("must be rejected");
    assert!(err.message().contains("p2p loss"), "got: {err}");
}

#[test]
fn beacon_faults_leave_ndp_links_usable() {
    // Beacon loss plus jitter, with NDP link tables driving reachability:
    // the grace rounds must keep enough links alive for peers to still
    // serve some traffic, and the run must stay clean.
    let mut cfg = small(Scheme::Coca);
    cfg.ndp_tables = true;
    cfg.faults.p2p_loss = 0.15;
    cfg.faults.beacon_jitter_secs = 0.3;
    let out = Simulation::new(cfg).run();
    assert!(out.audit.is_clean(), "audit: {}", out.audit);
    assert!(out.fault_stats.beacons_lost > 0, "{:?}", out.fault_stats);
    assert!(
        out.report.global_hit_ratio_pct > 0.0,
        "grace rounds should keep some links up"
    );
}
