//! GroCoca mechanism ablations and threshold sensitivity (extensions
//! beyond the paper). Run: `cargo bench -p grococa-bench --bench ablations`.

fn main() {
    let t0 = std::time::Instant::now();
    grococa_bench::ablations();
    grococa_bench::policy_comparison();
    grococa_bench::mobility_models();
    grococa_bench::threshold_sensitivity();
    eprintln!("\n[ablations] done in {:?}", t0.elapsed());
}
