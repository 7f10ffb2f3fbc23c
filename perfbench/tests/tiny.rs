//! The benchmark's own checks, on tiny versions of every workload (same
//! cell structure, a few hosts and requests per cell).

use perfbench::workloads::{self, cells, pinned};
use perfbench::{run, Options, Outcome, Scale, Workload, END_TO_END, HARNESS_SEED, PER_LAYER};

fn tiny(workload: Workload, seed: u64, trace: bool) -> Outcome {
    let opts = Options {
        workload,
        seed,
        seconds: 0.0,
        trace,
        scale: Scale::Tiny,
    };
    run(&opts, None)
}

fn digests(out: &Outcome) -> Vec<(String, u64)> {
    out.cells
        .iter()
        .map(|c| (c.label.clone(), c.digest))
        .collect()
}

#[test]
fn every_metric_is_printed_with_its_unit() {
    let declared =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json sits at the repository root");
    for workload in Workload::ALL {
        for (trace, expected) in [(false, END_TO_END), (true, PER_LAYER)] {
            let out = tiny(workload, HARNESS_SEED, trace);
            assert!(out.correct(), "{}: {:?}", workload.name(), out.problems);
            let printed: Vec<(&str, &str)> = out.metrics.iter().map(|m| (m.name, m.unit)).collect();
            assert_eq!(printed, expected, "{} trace={trace}", workload.name());
            let json = out.to_json();
            for m in &out.metrics {
                assert!(
                    m.value.is_finite(),
                    "{}: {} = {}",
                    workload.name(),
                    m.name,
                    m.value
                );
                let entry = format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                );
                assert!(json.contains(&entry), "{entry} missing from {json}");
                let declaration = format!("\"name\": \"{}\", \"unit\": \"{}\"", m.name, m.unit);
                assert!(
                    declared.contains(&declaration),
                    "BENCHMARK.json does not declare {declaration}"
                );
                if !trace {
                    assert!(m.value > 0.0, "{}: {} reads 0", workload.name(), m.name);
                }
            }
            assert!(json.starts_with("{\"correct\": true, \"attempted\": "));
        }
    }
}

#[test]
fn a_wrong_pinned_digest_is_a_failed_operation() {
    let opts = Options {
        workload: Workload::Fig2Sweep,
        seed: HARNESS_SEED,
        seconds: 0.0,
        trace: false,
        scale: Scale::Tiny,
    };
    let good = run(&opts, None);
    assert!(good.correct(), "{:?}", good.problems);
    let mut pins: Vec<(&str, u64)> = good
        .cells
        .iter()
        .map(|c| (c.label.as_str(), c.digest))
        .collect();
    let right = run(&opts, Some(&pins));
    assert_eq!((right.attempted, right.failed), (good.attempted, 0));

    pins[1].1 ^= 1;
    let wrong = run(&opts, Some(&pins));
    assert_eq!(wrong.attempted, good.attempted);
    assert_eq!(wrong.failed, 1);
    assert!(
        wrong.problems[0].contains(pins[1].0),
        "{:?}",
        wrong.problems
    );
    assert!(wrong.to_json().starts_with("{\"correct\": false, "));
    assert_eq!(wrong.metrics.len(), END_TO_END.len());
}

#[test]
fn the_seed_changes_the_cells() {
    for workload in Workload::ALL {
        let a = tiny(workload, 1, false);
        let again = tiny(workload, 1, false);
        let b = tiny(workload, 2, false);
        assert!(
            a.correct() && b.correct(),
            "{:?} {:?}",
            a.problems,
            b.problems
        );
        assert_eq!(
            digests(&a),
            digests(&again),
            "{}: same seed, same cells",
            workload.name()
        );
        for (x, y) in digests(&a).iter().zip(digests(&b)) {
            assert_eq!(x.0, y.0);
            assert_ne!(
                x.1,
                y.1,
                "{}: cell {} ignores the seed",
                workload.name(),
                x.0
            );
        }
    }
}

#[test]
fn every_full_size_cell_has_a_pinned_digest() {
    for workload in Workload::ALL {
        let labels: Vec<String> = cells(workload, HARNESS_SEED, Scale::Full)
            .into_iter()
            .map(|c| c.label)
            .collect();
        let pinned: Vec<&str> = pinned(workload).iter().map(|&(l, _)| l).collect();
        assert_eq!(labels, pinned, "{}", workload.name());
    }
}

#[test]
fn full_size_cells_are_the_figure_harness_cells() {
    let fig2 = cells(Workload::Fig2Sweep, HARNESS_SEED, Scale::Full);
    assert_eq!(fig2.len(), 15);
    // `figures fig2` keeps SimConfig's default seed and mixes in seed
    // index 0.
    let harness_seed = grococa_sim::derive_seed(grococa_core::SimConfig::default().seed, 0);
    assert!(fig2.iter().all(|c| c.cfg.seed == harness_seed));
    assert!(fig2
        .iter()
        .all(|c| c.cfg.requests_per_mh == 300 && c.cfg.num_clients == 100));
    let fig8 = cells(Workload::Fig8ChurnCkpt, HARNESS_SEED, Scale::Full);
    assert_eq!(fig8.len(), 1);
    assert_eq!(fig8[0].cfg.p_disc, 0.3);
    assert_eq!(
        workloads::checkpoint_every(Workload::Fig8ChurnCkpt, Scale::Full),
        Some(20_000)
    );
    assert!(cells(Workload::Fig7N500, HARNESS_SEED, Scale::Full)
        .iter()
        .all(|c| c.cfg.num_clients == 500));
}
