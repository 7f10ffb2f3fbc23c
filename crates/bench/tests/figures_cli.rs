//! `figures` checks its whole command line and its scale variables before
//! any cell runs: a bad name or a malformed `GROCOCA_SEEDS` /
//! `GROCOCA_FULL` exits 1 with nothing on stdout.

use std::process::Command;

/// Runs `figures` with `args` and `env`, asserting it refused to start;
/// returns its stderr.
fn refused(args: &[&str], env: &[(&str, &str)]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .env_remove("GROCOCA_SEEDS")
        .env_remove("GROCOCA_FULL")
        .envs(env.iter().copied())
        .output()
        .expect("figures binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(1), "{args:?} {env:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} {env:?} printed a table");
    stderr
}

#[test]
fn an_unknown_name_fails_even_beside_a_known_one() {
    for args in [
        &["fig6", "fig9"][..],
        &["fig9"],
        &["ablations", "fig2", "Fig3"],
    ] {
        let stderr = refused(args, &[]);
        let bad = args.last().expect("non-empty");
        assert!(stderr.contains(bad), "{args:?}: {stderr}");
        for name in ["fig2", "fig8", "fig8loss", "ablations"] {
            assert!(stderr.contains(name), "{args:?} must list {name}: {stderr}");
        }
    }
}

#[test]
fn malformed_scale_variables_are_refused() {
    for (var, value) in [
        ("GROCOCA_SEEDS", "3x"),
        ("GROCOCA_SEEDS", "0"),
        ("GROCOCA_SEEDS", ""),
        ("GROCOCA_FULL", "true"),
        ("GROCOCA_FULL", "2"),
    ] {
        let stderr = refused(&["fig6"], &[(var, value)]);
        assert!(
            stderr.contains(var) && stderr.contains(&format!("{value:?}")),
            "{var}={value:?}: {stderr}"
        );
    }
}
