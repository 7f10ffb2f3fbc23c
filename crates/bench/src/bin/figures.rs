//! Runs the paper's experiments from the command line:
//!
//! ```text
//! cargo run --release -p grococa-bench --bin figures            # all seven
//! cargo run --release -p grococa-bench --bin figures fig2 fig7  # a subset
//! cargo run --release -p grococa-bench --bin figures ablations
//! GROCOCA_FULL=1 cargo run --release -p grococa-bench --bin figures
//! ```

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let all = args.is_empty();
    let want = |name: &str| all || args.iter().any(|a| a == name);
    let mut ran = 0;

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
    let jobs = grococa_par::jobs_from_env();
    for (name, run) in figures {
        if want(name) {
            let t0 = std::time::Instant::now();
            grococa_bench::take_events(); // reset the counter for this figure
            run();
            let elapsed = t0.elapsed();
            let events = grococa_bench::take_events();
            eprintln!(
                "[{name}] finished in {:?} — {events} events, {:.0} events/sec, {jobs} job(s)",
                elapsed,
                events as f64 / elapsed.as_secs_f64().max(f64::EPSILON),
            );
            ran += 1;
        }
    }
    if want("ablations") && !all {
        let t0 = std::time::Instant::now();
        grococa_bench::take_events();
        grococa_bench::ablations();
        grococa_bench::policy_comparison();
        grococa_bench::mobility_models();
        grococa_bench::threshold_sensitivity();
        let elapsed = t0.elapsed();
        let events = grococa_bench::take_events();
        eprintln!(
            "[ablations] finished in {:?} — {events} events, {:.0} events/sec",
            elapsed,
            events as f64 / elapsed.as_secs_f64().max(f64::EPSILON),
        );
        ran += 1;
    }
    if ran == 0 {
        eprintln!("unknown figure(s) {args:?}; expected fig2..fig8, fig8loss or ablations");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
