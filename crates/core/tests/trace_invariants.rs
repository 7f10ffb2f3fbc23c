//! Protocol-invariant tests driven by the trace facility: every completed
//! request must have walked a legal lifecycle path.

use grococa_core::{Scheme, SimConfig, Simulation, TraceKind, Tracer};

fn traced(scheme: Scheme, p_disc: f64) -> (grococa_core::RunOutput, Simulation) {
    let mut cfg = SimConfig::for_scheme(scheme);
    cfg.num_clients = 30;
    cfg.requests_per_mh = 80;
    cfg.p_disc = p_disc;
    cfg.seed = 77;
    let mut sim = Simulation::new(cfg);
    sim.set_tracer(Tracer::unbounded());
    sim.run_inspect()
}

fn is_terminal(kind: &TraceKind) -> bool {
    matches!(
        kind,
        TraceKind::LocalHit | TraceKind::GlobalHit { .. } | TraceKind::ServerDelivered
    )
}

#[test]
fn every_request_walks_a_legal_lifecycle() {
    let (_out, world) = traced(Scheme::GroCoca, 0.0);
    let trace = world.tracer().expect("tracer attached");
    assert_eq!(trace.dropped(), 0, "unbounded tracer must not drop");
    for mh in 0..30 {
        let mut open = false; // a request is in flight
        let mut searched = false;
        let mut replied = false;
        for r in trace.of_host(mh) {
            match r.kind {
                TraceKind::RequestIssued { .. } => {
                    assert!(!open, "mh{mh}: request issued while one is in flight");
                    open = true;
                    searched = false;
                    replied = false;
                }
                TraceKind::SearchStarted { .. } => {
                    assert!(open, "mh{mh}: search outside a request");
                    searched = true;
                }
                TraceKind::ReplyAccepted { .. } => {
                    assert!(searched, "mh{mh}: reply without a search");
                    replied = true;
                }
                TraceKind::GlobalHit { .. } => {
                    assert!(
                        open && searched && replied,
                        "mh{mh}: global hit without search+reply"
                    );
                    open = false;
                }
                TraceKind::LocalHit | TraceKind::ServerDelivered => {
                    assert!(open, "mh{mh}: completion outside a request");
                    open = false;
                }
                TraceKind::SearchTimedOut => {
                    assert!(searched, "mh{mh}: timeout without a search");
                }
                _ => {}
            }
        }
    }
}

#[test]
fn terminal_records_match_completed_count() {
    let (out, world) = traced(Scheme::Coca, 0.0);
    let trace = world.tracer().expect("tracer attached");
    let issued = trace.count(|r| matches!(r.kind, TraceKind::RequestIssued { .. }));
    let terminals = trace.count(|r| is_terminal(&r.kind));
    // Every issued request completed (the run stops only between requests,
    // except the per-host requests in flight at the stop instant).
    assert!(issued >= terminals);
    assert!(
        issued - terminals <= 30,
        "at most one open request per host"
    );
    // Recorded completions are a subset of total completions (warm-up).
    assert!(out.metrics.completed() as usize <= terminals);
}

#[test]
fn disconnects_and_reconnects_alternate() {
    let (_out, world) = traced(Scheme::GroCoca, 0.25);
    let trace = world.tracer().expect("tracer attached");
    let mut any_disconnect = false;
    for mh in 0..30 {
        let mut down = false;
        for r in trace.of_host(mh) {
            match r.kind {
                TraceKind::Disconnected => {
                    assert!(!down, "mh{mh}: double disconnect");
                    down = true;
                    any_disconnect = true;
                }
                TraceKind::Reconnected => {
                    assert!(down, "mh{mh}: reconnect while connected");
                    down = false;
                }
                TraceKind::RequestIssued { .. } => {
                    assert!(!down, "mh{mh}: issued a request while disconnected");
                }
                _ => {}
            }
        }
    }
    assert!(any_disconnect, "P_disc = 0.25 must disconnect someone");
}

#[test]
fn tcg_membership_trace_is_consistent() {
    let (_out, world) = traced(Scheme::GroCoca, 0.0);
    let trace = world.tracer().expect("tracer attached");
    // A host can only be announced as leaving a TCG it had joined.
    for mh in 0..30 {
        let mut members = std::collections::BTreeSet::new();
        for r in trace.of_host(mh) {
            match r.kind {
                TraceKind::TcgJoined { peer } => {
                    assert!(members.insert(peer), "mh{mh}: duplicate join of {peer}");
                }
                TraceKind::TcgLeft { peer } => {
                    assert!(members.remove(&peer), "mh{mh}: left {peer} never joined");
                }
                _ => {}
            }
        }
    }
    let joins = trace.count(|r| matches!(r.kind, TraceKind::TcgJoined { .. }));
    assert!(joins > 0, "GroCoca must form TCGs in this scenario");
}

#[test]
fn conventional_scheme_traces_no_peer_activity() {
    let (_out, world) = traced(Scheme::Conventional, 0.0);
    let trace = world.tracer().expect("tracer attached");
    assert_eq!(
        trace.count(|r| matches!(
            r.kind,
            TraceKind::SearchStarted { .. }
                | TraceKind::GlobalHit { .. }
                | TraceKind::TcgJoined { .. }
        )),
        0
    );
    assert!(trace.count(|r| matches!(r.kind, TraceKind::ServerDelivered)) > 0);
}

#[test]
fn trace_times_are_monotone() {
    let (_out, world) = traced(Scheme::GroCoca, 0.1);
    let trace = world.tracer().expect("tracer attached");
    let mut prev = grococa_sim::SimTime::ZERO;
    for r in trace.records() {
        assert!(r.time >= prev, "trace went backwards at {:?}", r);
        prev = r.time;
    }
}
