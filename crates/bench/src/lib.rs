//! The figure-reproduction harness: one sweep per figure of the paper's
//! evaluation (Section VI), each comparing conventional caching (CC),
//! standard COCA and GroCoca (GC) on identical seeds, printing the same
//! series the paper plots.
//!
//! Scale control via environment variables:
//!
//! * `GROCOCA_FULL=1` — paper-scale runs (2 000 recorded requests per host
//!   instead of the quick default of 300);
//! * `GROCOCA_SEEDS=k` — average every point over `k` seeds (default 1);
//! * `GROCOCA_JOBS=n` — run sweep cells on `n` worker threads (default:
//!   all available cores). Every (x, scheme, seed) cell is an independent
//!   deterministic run and results are collected in cell order, so the
//!   output is byte-identical whatever the worker count.
//!
//! Each `figN_*` function both prints its table and returns the data, so
//! the shape assertions in `benches/` and `tests/` can validate trends.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use grococa_core::{Report, RunOutput, Scheme, SimConfig, Simulation};
use grococa_sim::derive_seed;

/// Simulation events dispatched since the last [`take_events`] call, summed
/// across every run started by this crate (sweeps and the one-off
/// experiments alike). `figures.rs` drains it per figure to print
/// throughput.
static TOTAL_EVENTS: AtomicU64 = AtomicU64::new(0);

/// Drains and returns the event counter accumulated since the last call.
pub fn take_events() -> u64 {
    TOTAL_EVENTS.swap(0, Ordering::Relaxed)
}

/// Runs one configuration, folding its event count into the crate-wide
/// throughput counter.
fn run_one(cfg: SimConfig) -> RunOutput {
    let out = Simulation::new(cfg).run();
    TOTAL_EVENTS.fetch_add(out.events, Ordering::Relaxed);
    out
}

/// The three schemes every figure compares.
pub const SCHEMES: [Scheme; 3] = [Scheme::Conventional, Scheme::Coca, Scheme::GroCoca];

/// One x-axis point of a sweep: the parameter value and the per-scheme
/// reports.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// The swept parameter value.
    pub x: f64,
    /// Per-scheme (by label) averaged reports.
    pub reports: BTreeMap<&'static str, Report>,
}

impl SweepPoint {
    /// The report of `scheme` at this point.
    ///
    /// # Panics
    ///
    /// Panics if the scheme was not part of the sweep.
    pub fn of(&self, scheme: Scheme) -> &Report {
        &self.reports[scheme.label()]
    }
}

/// Recorded requests per host for the current scale
/// (300, or 2 000 under `GROCOCA_FULL=1`).
pub fn requests_per_mh() -> u64 {
    if std::env::var("GROCOCA_FULL").is_ok_and(|v| v == "1") {
        2_000
    } else {
        300
    }
}

/// Seeds averaged per point (`GROCOCA_SEEDS`, default 1).
pub fn seeds_per_point() -> u64 {
    std::env::var("GROCOCA_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&k| k > 0)
        .unwrap_or(1)
}

/// The base configuration every figure starts from (Table II defaults at
/// the harness scale).
pub fn base_config(scheme: Scheme) -> SimConfig {
    SimConfig {
        scheme,
        requests_per_mh: requests_per_mh(),
        ..SimConfig::default()
    }
}

fn mean_reports(reports: &[Report]) -> Report {
    let n = reports.len() as f64;
    let mut out = reports[0];
    if reports.len() == 1 {
        return out;
    }
    macro_rules! avg {
        ($($f:ident),*) => { $( out.$f = reports.iter().map(|r| r.$f).sum::<f64>() / n; )* };
    }
    avg!(
        access_latency_ms,
        latency_stddev_ms,
        local_hit_ratio_pct,
        global_hit_ratio_pct,
        server_request_ratio_pct,
        tcg_share_of_global_pct,
        total_power_uws,
        power_per_gch_uws,
        power_per_request_uws
    );
    // Average in f64 and round — integer division would truncate, biasing
    // the mean low whenever the per-seed counts don't divide evenly.
    out.completed = (reports.iter().map(|r| r.completed).sum::<u64>() as f64 / n).round() as u64;
    out
}

/// Runs one sweep: for every `x`, runs every scheme (averaged over the
/// configured seeds) with `configure(scheme, x)` building the point's
/// configuration. Cells run on `GROCOCA_JOBS` worker threads (default: all
/// cores); see [`run_sweep_with_jobs`] for the determinism guarantee.
pub fn run_sweep(
    xs: &[f64],
    configure: impl Fn(Scheme, f64) -> SimConfig + Sync,
) -> Vec<SweepPoint> {
    run_sweep_with_jobs(xs, grococa_par::jobs_from_env(), configure)
}

/// [`run_sweep`] with an explicit worker count.
///
/// Every (x, scheme, seed) cell is one fully independent simulation:
/// configurations are built up front, fanned out over a self-scheduling
/// scoped-thread pool, and collected **by cell index**. Only the plain-data
/// [`SimConfig`] crosses threads — each worker constructs the (`Rc`-based,
/// non-`Send`) [`Simulation`] locally. The returned points are therefore
/// byte-identical for any `jobs`, including the inline `jobs == 1` path.
pub fn run_sweep_with_jobs(
    xs: &[f64],
    jobs: usize,
    configure: impl Fn(Scheme, f64) -> SimConfig + Sync,
) -> Vec<SweepPoint> {
    let seeds = seeds_per_point();
    let mut cells: Vec<SimConfig> = Vec::with_capacity(xs.len() * SCHEMES.len() * seeds as usize);
    for &x in xs {
        for scheme in SCHEMES {
            for s in 0..seeds {
                let mut cfg = configure(scheme, x);
                // SplitMix64-mix the seed index so nearby indices yield
                // decorrelated streams (a plain additive offset lets
                // substreams of adjacent seeds collide).
                cfg.seed = derive_seed(cfg.seed, s);
                cells.push(cfg);
            }
        }
    }
    let outputs = grococa_par::run_indexed(&cells, jobs, |cfg| Simulation::new(cfg.clone()).run());
    let events: u64 = outputs.iter().map(|o| o.events).sum();
    TOTAL_EVENTS.fetch_add(events, Ordering::Relaxed);
    let per_scheme = seeds as usize;
    let per_x = SCHEMES.len() * per_scheme;
    xs.iter()
        .enumerate()
        .map(|(i, &x)| {
            let mut reports = BTreeMap::new();
            for (k, scheme) in SCHEMES.iter().enumerate() {
                let start = i * per_x + k * per_scheme;
                let per_seed: Vec<Report> = outputs[start..start + per_scheme]
                    .iter()
                    .map(|o| o.report)
                    .collect();
                reports.insert(scheme.label(), mean_reports(&per_seed));
            }
            SweepPoint { x, reports }
        })
        .collect()
}

/// Prints one panel of a figure: the metric extracted per scheme, one row
/// per x value — the same series the paper plots.
pub fn print_panel(
    title: &str,
    x_label: &str,
    points: &[SweepPoint],
    extract: impl Fn(&Report) -> f64,
) {
    println!("\n## {title}");
    println!("{:<22} {:>12} {:>12} {:>12}", x_label, "CC", "COCA", "GC");
    for p in points {
        let v = |s: Scheme| {
            let val = extract(p.of(s));
            if val.is_finite() {
                format!("{val:.2}")
            } else {
                "—".to_string()
            }
        };
        println!(
            "{:<22} {:>12} {:>12} {:>12}",
            trim_float(p.x),
            v(Scheme::Conventional),
            v(Scheme::Coca),
            v(Scheme::GroCoca)
        );
    }
}

fn trim_float(x: f64) -> String {
    if (x - x.round()).abs() < 1e-9 {
        format!("{}", x.round() as i64)
    } else {
        format!("{x:.2}")
    }
}

/// Prints the standard four panels (latency, server ratio, GCH, power/GCH)
/// used by Figures 2, 3(θ), 4, 5 and 8.
pub fn print_four_panels(fig: &str, x_label: &str, points: &[SweepPoint]) {
    print_panel(
        &format!("{fig}(a) — Access latency (ms)"),
        x_label,
        points,
        |r| r.access_latency_ms,
    );
    print_panel(
        &format!("{fig}(b) — Server request ratio (%)"),
        x_label,
        points,
        |r| r.server_request_ratio_pct,
    );
    print_panel(
        &format!("{fig}(c) — Global cache hit ratio (%)"),
        x_label,
        points,
        |r| r.global_hit_ratio_pct,
    );
    print_panel(
        &format!("{fig}(d) — Power per GCH (µW·s)"),
        x_label,
        points,
        |r| r.power_per_gch_uws,
    );
}

// ----------------------------------------------------------------------
// The seven experiments
// ----------------------------------------------------------------------

/// Figure 2 — effect of cache size (50–250 items).
pub fn fig2_cache_size() -> Vec<SweepPoint> {
    let xs = [50.0, 100.0, 150.0, 200.0, 250.0];
    let points = run_sweep(&xs, |scheme, x| SimConfig {
        cache_size: x as usize,
        ..base_config(scheme)
    });
    print_four_panels("Figure 2", "cache size (items)", &points);
    points
}

/// Figure 3 — effect of access skewness (θ from 0 to 1).
pub fn fig3_skewness() -> Vec<SweepPoint> {
    let xs = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0];
    let points = run_sweep(&xs, |scheme, x| SimConfig {
        theta: x,
        ..base_config(scheme)
    });
    print_four_panels("Figure 3", "Zipf skew θ", &points);
    points
}

/// Figure 4 — effect of access range (250–5 000 items).
pub fn fig4_access_range() -> Vec<SweepPoint> {
    let xs = [250.0, 500.0, 1_000.0, 2_000.0, 5_000.0];
    let points = run_sweep(&xs, |scheme, x| SimConfig {
        access_range: x as u64,
        ..base_config(scheme)
    });
    print_four_panels("Figure 4", "access range (items)", &points);
    points
}

/// Figure 5 — effect of motion group size (1–25 hosts).
pub fn fig5_group_size() -> Vec<SweepPoint> {
    let xs = [1.0, 2.0, 5.0, 10.0, 20.0, 25.0];
    let points = run_sweep(&xs, |scheme, x| SimConfig {
        group_size: x as usize,
        ..base_config(scheme)
    });
    print_four_panels("Figure 5", "motion group size", &points);
    points
}

/// Figure 6 — effect of the data item update rate (0–100 items/s).
pub fn fig6_update_rate() -> Vec<SweepPoint> {
    let xs = [0.0, 5.0, 10.0, 20.0, 50.0, 100.0];
    let points = run_sweep(&xs, |scheme, x| SimConfig {
        update_rate: x,
        ..base_config(scheme)
    });
    print_panel(
        "Figure 6(a) — Global cache hit ratio (%)",
        "updates per second",
        &points,
        |r| r.global_hit_ratio_pct,
    );
    print_panel(
        "Figure 6(b) — Power per GCH (µW·s)",
        "updates per second",
        &points,
        |r| r.power_per_gch_uws,
    );
    points
}

/// Figure 7 — scalability in the number of mobile hosts (50–500).
pub fn fig7_num_clients() -> Vec<SweepPoint> {
    let xs = [50.0, 100.0, 200.0, 300.0, 400.0, 500.0];
    let points = run_sweep(&xs, |scheme, x| SimConfig {
        num_clients: x as usize,
        ..base_config(scheme)
    });
    print_panel(
        "Figure 7(a) — Access latency (ms)",
        "number of MHs",
        &points,
        |r| r.access_latency_ms,
    );
    print_panel(
        "Figure 7(b) — Power per GCH (µW·s)",
        "number of MHs",
        &points,
        |r| r.power_per_gch_uws,
    );
    points
}

/// Figure 8 — effect of client disconnection (P_disc from 0 to 0.3).
pub fn fig8_disconnection() -> Vec<SweepPoint> {
    let xs = [0.0, 0.05, 0.1, 0.15, 0.2, 0.3];
    let points = run_sweep(&xs, |scheme, x| SimConfig {
        p_disc: x,
        ..base_config(scheme)
    });
    print_four_panels("Figure 8", "disconnection probability", &points);
    points
}

/// Figure 8L (extension) — effect of peer-link message loss, via the
/// fault-injection layer. As the P2P channel degrades, the cooperative
/// schemes' hardened protocols (bounded retries, server fallback, solo
/// mode) degrade them gracefully toward conventional caching; at 100%
/// loss all three schemes should be near-indistinguishable in latency.
pub fn fig8_loss_rate() -> Vec<SweepPoint> {
    let xs = [0.0, 0.1, 0.25, 0.5, 0.75, 1.0];
    let points = run_sweep(&xs, |scheme, x| {
        let mut cfg = base_config(scheme);
        cfg.faults.p2p_loss = x;
        cfg
    });
    print_four_panels("Figure 8L", "P2P message loss", &points);
    points
}

// ----------------------------------------------------------------------
// Ablations (beyond the paper)
// ----------------------------------------------------------------------

/// One ablation row: GroCoca with a single mechanism disabled.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// The mechanism switched off (or "full" for the intact scheme).
    pub variant: &'static str,
    /// The resulting report.
    pub report: Report,
}

/// Runs GroCoca with each mechanism disabled in turn, isolating every
/// mechanism's contribution. Not an experiment of the paper — an extension
/// the design section calls for.
pub fn ablations() -> Vec<AblationRow> {
    use grococa_core::GroCocaToggles;
    type Tweak = Box<dyn Fn(&mut GroCocaToggles)>;
    let variants: Vec<(&'static str, Tweak)> = vec![
        ("full", Box::new(|_| {})),
        (
            "no-signature-filter",
            Box::new(|t| t.signature_filter = false),
        ),
        (
            "no-admission-control",
            Box::new(|t| t.admission_control = false),
        ),
        (
            "no-coop-replacement",
            Box::new(|t| t.cooperative_replacement = false),
        ),
        (
            "no-compression",
            Box::new(|t| t.compress_signatures = false),
        ),
        ("no-piggyback", Box::new(|t| t.piggyback_updates = false)),
    ];
    let mut rows = Vec::new();
    println!("\n## Ablations — GroCoca with one mechanism disabled");
    println!(
        "{:<24} {:>10} {:>8} {:>8} {:>12} {:>10}",
        "variant", "lat(ms)", "GCH(%)", "SRV(%)", "pw/GCH", "sig msgs"
    );
    for (name, tweak) in variants {
        let mut cfg = base_config(Scheme::GroCoca);
        tweak(&mut cfg.toggles);
        let report = run_one(cfg).report;
        println!(
            "{:<24} {:>10.2} {:>8.2} {:>8.2} {:>12.0} {:>10}",
            name,
            report.access_latency_ms,
            report.global_hit_ratio_pct,
            report.server_request_ratio_pct,
            report.power_per_gch_uws,
            report.signature_messages
        );
        rows.push(AblationRow {
            variant: name,
            report,
        });
    }
    rows
}

/// Compares the client-cache replacement policies under each scheme (the
/// paper uses LRU throughout; LFU and FIFO are baselines — extension).
pub fn policy_comparison() -> Vec<(Scheme, &'static str, Report)> {
    use grococa_core::ReplacementPolicy;
    let mut rows = Vec::new();
    println!("\n## Replacement policies — latency (ms) / GCH (%) per scheme");
    println!("{:<8} {:>14} {:>14} {:>14}", "scheme", "LRU", "LFU", "FIFO");
    for scheme in [Scheme::Coca, Scheme::GroCoca] {
        let mut cells = Vec::new();
        for (name, policy) in [
            ("LRU", ReplacementPolicy::Lru),
            ("LFU", ReplacementPolicy::Lfu),
            ("FIFO", ReplacementPolicy::Fifo),
        ] {
            let mut cfg = base_config(scheme);
            cfg.cache_policy = policy;
            let report = run_one(cfg).report;
            cells.push(format!(
                "{:.1}/{:.1}",
                report.access_latency_ms, report.global_hit_ratio_pct
            ));
            rows.push((scheme, name, report));
        }
        println!(
            "{:<8} {:>14} {:>14} {:>14}",
            scheme.label(),
            cells[0],
            cells[1],
            cells[2]
        );
    }
    rows
}

/// Mobility-model ablation (extension): the same logical groups under
/// different motion coupling. GroCoca's distance condition only holds
/// when hosts actually move together, so the alternatives isolate how
/// much of GroCoca's win comes from physical group mobility.
pub fn mobility_models() -> Vec<(&'static str, Scheme, Report)> {
    use grococa_core::MotionModel;
    let mut rows = Vec::new();
    println!("\n## Mobility models — latency (ms) / GCH (%) per scheme");
    println!("{:<20} {:>14} {:>14}", "model", "COCA", "GC");
    for (name, model) in [
        ("group-waypoint", MotionModel::GroupWaypoint),
        ("individual-waypoint", MotionModel::IndividualWaypoint),
        ("gauss-markov", MotionModel::GaussMarkov),
        ("manhattan", MotionModel::Manhattan),
    ] {
        let mut cells = Vec::new();
        for scheme in [Scheme::Coca, Scheme::GroCoca] {
            let mut cfg = base_config(scheme);
            cfg.motion_model = model;
            let report = run_one(cfg).report;
            cells.push(format!(
                "{:.1}/{:.1}",
                report.access_latency_ms, report.global_hit_ratio_pct
            ));
            rows.push((name, scheme, report));
        }
        println!("{:<20} {:>14} {:>14}", name, cells[0], cells[1]);
    }
    rows
}

/// Sensitivity of TCG formation to the Δ / δ thresholds (extension).
pub fn threshold_sensitivity() -> Vec<SweepPoint> {
    let xs = [0.01, 0.03, 0.05, 0.1, 0.2];
    let points = run_sweep(&xs, |scheme, x| SimConfig {
        tcg_similarity: x,
        ..base_config(scheme)
    });
    print_panel(
        "Threshold sensitivity — GCH (%) vs δ",
        "similarity threshold δ",
        &points,
        |r| r.global_hit_ratio_pct,
    );
    print_panel(
        "Threshold sensitivity — latency (ms) vs δ",
        "similarity threshold δ",
        &points,
        |r| r.access_latency_ms,
    );
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_config_honours_scale_env() {
        // Whatever the env, the constructor must produce a valid config.
        base_config(Scheme::Coca)
            .validate()
            .expect("base config must be valid");
        assert!(requests_per_mh() >= 300);
        assert!(seeds_per_point() >= 1);
    }

    #[test]
    fn sweep_runs_all_schemes() {
        let points = run_sweep(&[0.5], |scheme, x| SimConfig {
            theta: x,
            num_clients: 20,
            requests_per_mh: 40,
            ..SimConfig::for_scheme(scheme)
        });
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].reports.len(), 3);
        assert_eq!(points[0].of(Scheme::Conventional).global_hit_ratio_pct, 0.0);
    }

    #[test]
    fn mean_reports_averages() {
        let mut a = Simulation::new(SimConfig {
            num_clients: 10,
            requests_per_mh: 20,
            ..SimConfig::for_scheme(Scheme::Conventional)
        })
        .run()
        .report;
        let mut b = a;
        a.access_latency_ms = 10.0;
        b.access_latency_ms = 20.0;
        let m = mean_reports(&[a, b]);
        assert!((m.access_latency_ms - 15.0).abs() < 1e-9);
    }

    #[test]
    fn mean_reports_rounds_completed_instead_of_truncating() {
        let base = Simulation::new(SimConfig {
            num_clients: 10,
            requests_per_mh: 20,
            ..SimConfig::for_scheme(Scheme::Conventional)
        })
        .run()
        .report;
        // An odd seed count whose completion total does not divide evenly:
        // (1 + 2 + 2) / 3 = 5/3 ≈ 1.67 must round to 2, where the old
        // integer division truncated to 1.
        let mut a = base;
        let mut b = base;
        let mut c = base;
        a.completed = 1;
        b.completed = 2;
        c.completed = 2;
        assert_eq!(mean_reports(&[a, b, c]).completed, 2);
    }

    #[test]
    fn faulty_sweeps_are_deterministic_across_worker_counts() {
        // The fault stream must be replay-identical whatever the worker
        // count: each cell owns its own substream, so fanning the grid
        // out cannot change what any single run draws.
        let configure = |scheme: Scheme, x: f64| {
            let mut cfg = SimConfig {
                num_clients: 16,
                requests_per_mh: 30,
                ..SimConfig::for_scheme(scheme)
            };
            cfg.faults = grococa_core::FaultPlan::profile("chaos").expect("named profile");
            cfg.faults.p2p_loss = x;
            cfg
        };
        let xs = [0.1, 0.5];
        let serial = run_sweep_with_jobs(&xs, 1, configure);
        let parallel = run_sweep_with_jobs(&xs, 4, configure);
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.reports, p.reports, "x = {}", s.x);
        }
    }

    #[test]
    fn sweep_is_deterministic_across_worker_counts() {
        // A fig2-shaped sweep at quick scale: identical cell grids must
        // yield byte-identical reports whether run inline or on 4 workers.
        let configure = |scheme: Scheme, x: f64| SimConfig {
            cache_size: x as usize,
            num_clients: 20,
            requests_per_mh: 40,
            ..SimConfig::for_scheme(scheme)
        };
        let xs = [50.0, 100.0];
        let serial = run_sweep_with_jobs(&xs, 1, configure);
        let parallel = run_sweep_with_jobs(&xs, 4, configure);
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.x, p.x);
            assert_eq!(s.reports, p.reports, "x = {}", s.x);
        }
    }
}
