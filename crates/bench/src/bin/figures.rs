//! Runs the paper's experiments from the command line:
//!
//! ```text
//! cargo run --release -p grococa-bench --bin figures            # all seven
//! cargo run --release -p grococa-bench --bin figures fig2 fig7  # a subset
//! cargo run --release -p grococa-bench --bin figures ablations
//! GROCOCA_FULL=1 cargo run --release -p grococa-bench --bin figures
//! ```
//!
//! Every name and the scale variables are checked before any cell runs:
//! an unknown name or a malformed `GROCOCA_SEEDS` / `GROCOCA_FULL` exits 1.

use std::process::ExitCode;
use std::time::Instant;

/// Runs one table and prints its throughput line to stderr.
fn timed<T>(name: &str, jobs: usize, run: impl FnOnce() -> T) {
    grococa_bench::take_events(); // reset the counter for this table
    let t0 = Instant::now();
    run();
    let elapsed = t0.elapsed();
    let events = grococa_bench::take_events();
    eprintln!(
        "[{name}] finished in {:?} — {events} events, {:.0} events/sec, {jobs} job(s)",
        elapsed,
        events as f64 / elapsed.as_secs_f64().max(f64::EPSILON),
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();

    type Figure = fn() -> Vec<grococa_bench::SweepPoint>;
    let figures: [(&str, Figure); 8] = [
        ("fig2", grococa_bench::fig2_cache_size),
        ("fig3", grococa_bench::fig3_skewness),
        ("fig4", grococa_bench::fig4_access_range),
        ("fig5", grococa_bench::fig5_group_size),
        ("fig6", grococa_bench::fig6_update_rate),
        ("fig7", grococa_bench::fig7_num_clients),
        ("fig8", grococa_bench::fig8_disconnection),
        ("fig8loss", grococa_bench::fig8_loss_rate),
    ];
    let names: Vec<&str> = figures
        .iter()
        .map(|&(name, _)| name)
        .chain(["ablations"])
        .collect();
    let unknown: Vec<&String> = args
        .iter()
        .filter(|a| !names.contains(&a.as_str()))
        .collect();
    if !unknown.is_empty() {
        eprintln!(
            "unknown figure(s) {unknown:?}; expected any of {}",
            names.join(", ")
        );
        return ExitCode::FAILURE;
    }
    if let Err(e) = grococa_bench::check_env() {
        eprintln!("figures: {e}");
        return ExitCode::FAILURE;
    }

    let all = args.is_empty();
    let want = |name: &str| all || args.iter().any(|a| a == name);
    let jobs = grococa_par::jobs_from_env();
    for (name, run) in figures {
        if want(name) {
            timed(name, jobs, run);
        }
    }
    if want("ablations") && !all {
        timed("ablations", jobs, || {
            grococa_bench::ablations();
            grococa_bench::policy_comparison();
            grococa_bench::mobility_models();
            grococa_bench::threshold_sensitivity();
        });
    }
    ExitCode::SUCCESS
}
