//! Minimal dependency-free argument parsing for the `grococa` binary.
//!
//! Flags are `--name value` pairs (plus a few boolean switches); unknown
//! flags are errors listing the accepted set, so typos fail loudly.

use std::fmt;

use grococa_core::{DataDelivery, FaultPlan, ReplacementPolicy, Scheme, SimConfig};

/// A parsed command line.
#[derive(Debug, Clone)]
pub struct Cli {
    /// The subcommand to run.
    pub command: Command,
    /// Emit CSV instead of aligned text.
    pub csv: bool,
}

/// Default checkpoint cadence (`--checkpoint-every`): every 20 000
/// dispatched events. Sized for default-scale worlds: at 100 clients a
/// snapshot is up to ~2 MB and this cadence adds about a third to a
/// one-second run. Snapshot bytes grow linearly with `num_clients`
/// through per-host state and quadratically through the TCG
/// directory's pair matrices, so large populations want a much coarser
/// interval — `BENCH_checkpoint.json` has the measured curve at 800
/// clients and a rule of thumb.
pub const DEFAULT_CHECKPOINT_EVERY: u64 = 20_000;

/// The `grococa` subcommands.
#[derive(Debug, Clone)]
pub enum Command {
    /// Run one configuration and print its report.
    Run {
        /// The configuration to simulate.
        cfg: Box<SimConfig>,
        /// Run-level checkpoint journal path (`--checkpoint`): the full
        /// simulation state is snapshotted every `checkpoint_every`
        /// events, so a killed run can resume mid-flight.
        checkpoint: Option<std::path::PathBuf>,
        /// Events between checkpoints (`--checkpoint-every`).
        checkpoint_every: u64,
        /// Resume from the newest good checkpoint in this journal
        /// (`--resume-run`); falls back through older checkpoints on
        /// corruption and to a fresh run when none is usable.
        resume_run: Option<std::path::PathBuf>,
    },
    /// Run all three schemes on one configuration.
    Compare(Box<SimConfig>),
    /// Sweep one parameter across values, all three schemes.
    Sweep {
        /// Base configuration (scheme field ignored — all three run).
        base: Box<SimConfig>,
        /// The swept parameter name.
        param: String,
        /// The values to sweep.
        values: Vec<f64>,
        /// Write-ahead result journal path (`--journal`): each completed
        /// cell is appended and fsync'd, so a killed sweep can resume.
        journal: Option<std::path::PathBuf>,
        /// Resume from the journal (`--resume`): verified completed cells
        /// are skipped, missing/failed ones re-run.
        resume: bool,
        /// Quarantine panicking cells as FAILED rows instead of aborting
        /// the grid (`--keep-going`); maps to exit code 3.
        keep_going: bool,
        /// Run each cell in a re-exec'd child process (`--isolate`) so
        /// deadline/memory limits are enforced by `kill()`, not advisory.
        isolate: bool,
        /// Per-cell wall-clock deadline (`--cell-deadline SECS`). With
        /// `--isolate` an overrunning cell is killed; in thread mode the
        /// deadline is advisory (classifies slow failing cells).
        cell_deadline: Option<std::time::Duration>,
        /// Per-cell RSS ceiling in MiB (`--cell-mem-mb N`); requires
        /// `--isolate` (only a child process can be killed over it).
        cell_mem_mb: Option<u64>,
        /// Per-cell checkpoint directory (`--checkpoint DIR`; requires
        /// `--isolate`): each worker snapshots its run into
        /// `DIR/cell-<idx>.gcc`, so a killed/OOMed cell's retry resumes
        /// mid-run instead of restarting from zero.
        checkpoint: Option<std::path::PathBuf>,
        /// Events between per-cell checkpoints (`--checkpoint-every`).
        checkpoint_every: u64,
    },
    /// Print usage.
    Help,
}

/// A fatal argument error with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

fn err(msg: impl Into<String>) -> ArgError {
    ArgError(msg.into())
}

/// The usage text printed by `grococa help`.
pub const USAGE: &str = "\
grococa — group-based P2P cooperative caching simulator

USAGE:
    grococa run     [OPTIONS]          one run, one scheme
    grococa compare [OPTIONS]          one configuration, all three schemes
    grococa sweep --param NAME --values V1,V2,... [SWEEP OPTIONS] [OPTIONS]
    grococa help

OPTIONS (all optional; defaults are the paper's Table II):
    --scheme cc|coca|gc        caching scheme            [default: gc]
    --clients N                number of mobile hosts    [default: 100]
    --requests N               recorded requests / host  [default: 300]
    --seed N                   master random seed        [default: 0xC0CA]
    --cache-size N             items per client cache    [default: 100]
    --policy lru|lfu|fifo      replacement policy        [default: lru]
    --theta X                  Zipf skew                 [default: 0.5]
    --access-range N           items per group window    [default: 1000]
    --group-size N             hosts per motion group    [default: 5]
    --update-rate X            server updates / second   [default: 0]
    --p-disc X                 disconnection probability [default: 0]
    --hop-dist N               broadcast search hops     [default: 2]
    --tran-range M             P2P range, metres         [default: 100]
    --downlink-kbps N          server downlink bandwidth [default: 2000]
    --delta-distance M         TCG distance threshold Δ  [default: 100]
    --delta-similarity X       TCG similarity threshold δ[default: 0.05]
    --hybrid-slots N           enable push channel with N hot slots
    --low-activity X           fraction of low-activity hosts    [default: 0]
    --faults PROFILE           fault injection: none|lossy|flaky|outage|chaos
                               [default: none]
    --delegate-singlets        delegate singlet evictions to low-activity TCG members
    --ndp-tables               use NDP link tables instead of geometry
    --account-beacons          meter NDP beacon power
    --csv                      machine-readable CSV output

RUN CRASH SAFETY (run command only):
    --checkpoint FILE          snapshot the full run state into a fsync'd
                               checkpoint journal every N events; a killed
                               run resumes mid-flight, byte-identical
    --checkpoint-every N       events between checkpoints
                               [default: 20000; requires --checkpoint]
    --resume-run FILE          resume from the newest good checkpoint in
                               FILE (corrupted checkpoints fall back to
                               older ones; none usable = fresh run);
                               combine with --checkpoint FILE to keep
                               checkpointing the resumed run

SWEEP OPTIONS (crash safety; sweeps run on a GROCOCA_JOBS-wide pool):
    --journal FILE             append each completed cell to a fsync'd
                               write-ahead journal (crash-safe)
    --resume                   skip cells already completed in FILE
                               (verifies checksums + sweep fingerprint;
                               requires --journal)
    --keep-going               quarantine panicking cells as FAILED rows
                               instead of aborting the sweep
    --isolate                  run each cell in a re-exec'd child process;
                               deadline/memory limits become hard kills
    --cell-deadline SECS       per-cell wall-clock deadline (enforced with
                               --isolate, advisory otherwise)
    --cell-mem-mb N            per-cell RSS ceiling in MiB (requires
                               --isolate)
    --checkpoint DIR           with --isolate: workers checkpoint each
                               cell into DIR/cell-<idx>.gcc, so a killed
                               cell's retry resumes mid-run (files are
                               removed once the cell result is journaled)

SWEEPABLE PARAMETERS:
    cache_size, theta, access_range, group_size, update_rate, p_disc,
    clients, hop_dist, delta_similarity

EXIT CODES:
    0  success
    1  usage mistake, journal refusal, or aborted sweep
    2  semantically invalid configuration
    3  sweep completed with quarantined (FAILED) cells
    4  sweep drained by SIGINT/SIGTERM (journal flushed; resume with
       --journal FILE --resume)
";

/// Applies `--flag value` to the config. Returns whether the flag consumed
/// a value.
fn apply_flag(cfg: &mut SimConfig, flag: &str, value: Option<&str>) -> Result<bool, ArgError> {
    fn parse<T: std::str::FromStr>(flag: &str, v: Option<&str>) -> Result<T, ArgError> {
        let v = v.ok_or_else(|| err(format!("{flag} needs a value")))?;
        v.parse()
            .map_err(|_| err(format!("invalid value {v:?} for {flag}")))
    }
    match flag {
        "--scheme" => {
            cfg.scheme = match parse::<String>(flag, value)?.as_str() {
                "cc" => Scheme::Conventional,
                "coca" => Scheme::Coca,
                "gc" | "grococa" => Scheme::GroCoca,
                other => return Err(err(format!("unknown scheme {other:?} (cc|coca|gc)"))),
            }
        }
        "--clients" => cfg.num_clients = parse(flag, value)?,
        "--requests" => cfg.requests_per_mh = parse(flag, value)?,
        "--seed" => cfg.seed = parse(flag, value)?,
        "--cache-size" => cfg.cache_size = parse(flag, value)?,
        "--policy" => {
            cfg.cache_policy = match parse::<String>(flag, value)?.as_str() {
                "lru" => ReplacementPolicy::Lru,
                "lfu" => ReplacementPolicy::Lfu,
                "fifo" => ReplacementPolicy::Fifo,
                other => return Err(err(format!("unknown policy {other:?} (lru|lfu|fifo)"))),
            }
        }
        "--theta" => cfg.theta = parse(flag, value)?,
        "--access-range" => cfg.access_range = parse(flag, value)?,
        "--group-size" => cfg.group_size = parse(flag, value)?,
        "--update-rate" => cfg.update_rate = parse(flag, value)?,
        "--p-disc" => cfg.p_disc = parse(flag, value)?,
        "--hop-dist" => cfg.hop_dist = parse(flag, value)?,
        "--tran-range" => cfg.tran_range = parse(flag, value)?,
        "--downlink-kbps" => cfg.downlink_kbps = parse(flag, value)?,
        "--delta-distance" => cfg.tcg_distance = parse(flag, value)?,
        "--delta-similarity" => cfg.tcg_similarity = parse(flag, value)?,
        "--hybrid-slots" => {
            cfg.delivery = DataDelivery::Hybrid {
                push_slots: parse(flag, value)?,
                push_kbps: 2_000,
                refresh_secs: 10.0,
                max_wait_secs: 3.0,
            }
        }
        "--low-activity" => cfg.low_activity_fraction = parse(flag, value)?,
        "--faults" => {
            let name = parse::<String>(flag, value)?;
            cfg.faults = FaultPlan::profile(&name).ok_or_else(|| {
                err(format!(
                    "unknown fault profile {name:?} (one of: {})",
                    FaultPlan::PROFILE_NAMES.join("|")
                ))
            })?;
        }
        "--delegate-singlets" => {
            cfg.delegate_singlets = true;
            return Ok(false);
        }
        "--ndp-tables" => {
            cfg.ndp_tables = true;
            return Ok(false);
        }
        "--account-beacons" => {
            cfg.account_beacons = true;
            return Ok(false);
        }
        _ => return Err(err(format!("unknown option {flag} (see `grococa help`)"))),
    }
    Ok(true)
}

/// Sets a swept parameter on a config.
pub fn apply_sweep_value(cfg: &mut SimConfig, param: &str, x: f64) -> Result<(), ArgError> {
    match param {
        "cache_size" => cfg.cache_size = x as usize,
        "theta" => cfg.theta = x,
        "access_range" => cfg.access_range = x as u64,
        "group_size" => cfg.group_size = x as usize,
        "update_rate" => cfg.update_rate = x,
        "p_disc" => cfg.p_disc = x,
        "clients" => cfg.num_clients = x as usize,
        "hop_dist" => cfg.hop_dist = x as u32,
        "delta_similarity" => cfg.tcg_similarity = x,
        other => {
            return Err(err(format!(
                "unknown sweep parameter {other:?} (see `grococa help`)"
            )))
        }
    }
    Ok(())
}

/// Parses a full command line (without the program name).
///
/// # Errors
///
/// Returns an [`ArgError`] describing the first malformed argument.
pub fn parse_args(args: &[String]) -> Result<Cli, ArgError> {
    let Some(command) = args.first() else {
        return Ok(Cli {
            command: Command::Help,
            csv: false,
        });
    };
    let mut cfg = SimConfig {
        requests_per_mh: 300,
        ..SimConfig::default()
    };
    let mut csv = false;
    let mut param: Option<String> = None;
    let mut values: Vec<f64> = Vec::new();
    let mut journal: Option<std::path::PathBuf> = None;
    let mut resume = false;
    let mut keep_going = false;
    let mut isolate = false;
    let mut cell_deadline: Option<std::time::Duration> = None;
    let mut cell_mem_mb: Option<u64> = None;
    let mut checkpoint: Option<std::path::PathBuf> = None;
    let mut checkpoint_every: Option<u64> = None;
    let mut resume_run: Option<std::path::PathBuf> = None;

    let mut i = 1;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = args.get(i + 1).map(String::as_str);
        match flag {
            "--csv" => {
                csv = true;
                i += 1;
            }
            "--journal" => {
                journal = Some(
                    value
                        .ok_or_else(|| err("--journal needs a file path"))?
                        .into(),
                );
                i += 2;
            }
            "--resume" => {
                resume = true;
                i += 1;
            }
            "--keep-going" => {
                keep_going = true;
                i += 1;
            }
            "--isolate" => {
                isolate = true;
                i += 1;
            }
            "--cell-deadline" => {
                let secs: f64 = value
                    .ok_or_else(|| err("--cell-deadline needs a value in seconds"))?
                    .parse()
                    .map_err(|_| err("invalid --cell-deadline (seconds, e.g. 30 or 0.5)"))?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err(err("--cell-deadline must be a positive number of seconds"));
                }
                cell_deadline = Some(std::time::Duration::from_secs_f64(secs));
                i += 2;
            }
            "--cell-mem-mb" => {
                let mb: u64 = value
                    .ok_or_else(|| err("--cell-mem-mb needs a value in MiB"))?
                    .parse()
                    .map_err(|_| err("invalid --cell-mem-mb (whole MiB, e.g. 512)"))?;
                if mb == 0 {
                    return Err(err("--cell-mem-mb must be positive"));
                }
                cell_mem_mb = Some(mb);
                i += 2;
            }
            "--checkpoint" => {
                checkpoint = Some(
                    value
                        .ok_or_else(|| err("--checkpoint needs a path"))?
                        .into(),
                );
                i += 2;
            }
            "--checkpoint-every" => {
                let every: u64 = value
                    .ok_or_else(|| err("--checkpoint-every needs a value in events"))?
                    .parse()
                    .map_err(|_| err("invalid --checkpoint-every (whole events, e.g. 20000)"))?;
                if every == 0 {
                    return Err(err("--checkpoint-every must be positive"));
                }
                checkpoint_every = Some(every);
                i += 2;
            }
            "--resume-run" => {
                resume_run = Some(
                    value
                        .ok_or_else(|| err("--resume-run needs a file path"))?
                        .into(),
                );
                i += 2;
            }
            "--param" => {
                param = Some(
                    value
                        .ok_or_else(|| err("--param needs a value"))?
                        .to_string(),
                );
                i += 2;
            }
            "--values" => {
                let list = value.ok_or_else(|| err("--values needs a value"))?;
                values = list
                    .split(',')
                    .map(|v| {
                        v.trim()
                            .parse()
                            .map_err(|_| err(format!("invalid sweep value {v:?}")))
                    })
                    .collect::<Result<_, _>>()?;
                i += 2;
            }
            _ => {
                let consumed = apply_flag(&mut cfg, flag, value)?;
                i += if consumed { 2 } else { 1 };
            }
        }
    }

    if command.as_str() != "sweep" {
        for (set, flag) in [
            (journal.is_some(), "--journal"),
            (resume, "--resume"),
            (keep_going, "--keep-going"),
            (isolate, "--isolate"),
            (cell_deadline.is_some(), "--cell-deadline"),
            (cell_mem_mb.is_some(), "--cell-mem-mb"),
        ] {
            if set {
                return Err(err(format!("{flag} is only valid with `sweep`")));
            }
        }
    }
    if resume && journal.is_none() {
        return Err(err("--resume requires --journal FILE"));
    }
    if cell_mem_mb.is_some() && !isolate {
        return Err(err(
            "--cell-mem-mb requires --isolate (only a child process can be killed over it)",
        ));
    }
    if !matches!(command.as_str(), "run" | "sweep") && checkpoint.is_some() {
        return Err(err("--checkpoint is only valid with `run` or `sweep`"));
    }
    if checkpoint_every.is_some() && checkpoint.is_none() {
        return Err(err("--checkpoint-every requires --checkpoint"));
    }
    if resume_run.is_some() && command.as_str() != "run" {
        return Err(err("--resume-run is only valid with `run`"));
    }
    if command.as_str() == "sweep" {
        if resume_run.is_some() {
            return Err(err("--resume-run is only valid with `run`"));
        }
        if checkpoint.is_some() && !isolate {
            return Err(err(
                "sweep --checkpoint requires --isolate (only re-exec'd cells checkpoint)",
            ));
        }
    }
    let checkpoint_every = checkpoint_every.unwrap_or(DEFAULT_CHECKPOINT_EVERY);

    let command = match command.as_str() {
        "run" => Command::Run {
            cfg: Box::new(cfg),
            checkpoint,
            checkpoint_every,
            resume_run,
        },
        "compare" => Command::Compare(Box::new(cfg)),
        "sweep" => {
            let param = param.ok_or_else(|| err("sweep requires --param"))?;
            if values.is_empty() {
                return Err(err("sweep requires --values v1,v2,..."));
            }
            // Validate the parameter name eagerly.
            apply_sweep_value(&mut cfg.clone(), &param, values[0])?;
            Command::Sweep {
                base: Box::new(cfg),
                param,
                values,
                journal,
                resume,
                keep_going,
                isolate,
                cell_deadline,
                cell_mem_mb,
                checkpoint,
                checkpoint_every,
            }
        }
        "help" | "--help" | "-h" => Command::Help,
        other => {
            return Err(err(format!(
                "unknown command {other:?} (see `grococa help`)"
            )))
        }
    };
    Ok(Cli { command, csv })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn run_with_options() {
        let cli = parse_args(&argv(
            "run --scheme coca --clients 42 --theta 0.8 --csv --seed 7",
        ))
        .unwrap();
        assert!(cli.csv);
        match cli.command {
            Command::Run { cfg, .. } => {
                assert_eq!(cfg.scheme, Scheme::Coca);
                assert_eq!(cfg.num_clients, 42);
                assert_eq!(cfg.theta, 0.8);
                assert_eq!(cfg.seed, 7);
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn sweep_parses_param_and_values() {
        let cli = parse_args(&argv(
            "sweep --param cache_size --values 50,100,150 --scheme gc",
        ))
        .unwrap();
        match cli.command {
            Command::Sweep { param, values, .. } => {
                assert_eq!(param, "cache_size");
                assert_eq!(values, vec![50.0, 100.0, 150.0]);
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn sweep_requires_param_and_values() {
        assert!(parse_args(&argv("sweep --values 1,2")).is_err());
        assert!(parse_args(&argv("sweep --param theta")).is_err());
        assert!(parse_args(&argv("sweep --param bogus --values 1")).is_err());
    }

    #[test]
    fn sweep_durability_flags_parse() {
        let cli = parse_args(&argv(
            "sweep --param theta --values 0.2,0.8 --journal out.gcj --resume --keep-going",
        ))
        .unwrap();
        match cli.command {
            Command::Sweep {
                journal,
                resume,
                keep_going,
                ..
            } => {
                assert_eq!(journal.as_deref(), Some(std::path::Path::new("out.gcj")));
                assert!(resume);
                assert!(keep_going);
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn durability_flags_are_sweep_only_and_consistent() {
        let e = parse_args(&argv("run --journal j.gcj")).unwrap_err();
        assert!(e.to_string().contains("only valid with `sweep`"));
        assert!(parse_args(&argv("compare --resume")).is_err());
        assert!(parse_args(&argv("run --keep-going")).is_err());
        let e = parse_args(&argv("sweep --param theta --values 0.2 --resume")).unwrap_err();
        assert!(e.to_string().contains("requires --journal"));
        assert!(parse_args(&argv("sweep --param theta --values 0.2 --journal")).is_err());
    }

    #[test]
    fn isolation_flags_parse() {
        let cli = parse_args(&argv(
            "sweep --param theta --values 0.2 --isolate --cell-deadline 2.5 --cell-mem-mb 512",
        ))
        .unwrap();
        match cli.command {
            Command::Sweep {
                isolate,
                cell_deadline,
                cell_mem_mb,
                ..
            } => {
                assert!(isolate);
                assert_eq!(cell_deadline, Some(std::time::Duration::from_secs_f64(2.5)));
                assert_eq!(cell_mem_mb, Some(512));
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn isolation_flags_are_validated() {
        // --cell-mem-mb without --isolate cannot be enforced.
        let e =
            parse_args(&argv("sweep --param theta --values 0.2 --cell-mem-mb 512")).unwrap_err();
        assert!(e.to_string().contains("requires --isolate"), "{e}");
        // Sweep-only.
        assert!(parse_args(&argv("run --isolate")).is_err());
        assert!(parse_args(&argv("run --cell-deadline 2")).is_err());
        assert!(parse_args(&argv("compare --cell-mem-mb 10")).is_err());
        // Malformed values.
        for bad in [
            "sweep --param theta --values 0.2 --cell-deadline 0",
            "sweep --param theta --values 0.2 --cell-deadline -1",
            "sweep --param theta --values 0.2 --cell-deadline soon",
            "sweep --param theta --values 0.2 --isolate --cell-mem-mb 0",
            "sweep --param theta --values 0.2 --isolate --cell-mem-mb lots",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad} must be rejected");
        }
        // A thread-mode (advisory) deadline without --isolate is fine.
        assert!(parse_args(&argv("sweep --param theta --values 0.2 --cell-deadline 30")).is_ok());
    }

    #[test]
    fn boolean_switches_consume_no_value() {
        let cli = parse_args(&argv("run --ndp-tables --account-beacons --clients 9")).unwrap();
        match cli.command {
            Command::Run { cfg, .. } => {
                assert!(cfg.ndp_tables);
                assert!(cfg.account_beacons);
                assert_eq!(cfg.num_clients, 9);
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn hybrid_flag_sets_delivery() {
        let cli = parse_args(&argv("run --hybrid-slots 500")).unwrap();
        match cli.command {
            Command::Run { cfg, .. } => {
                assert!(matches!(
                    cfg.delivery,
                    DataDelivery::Hybrid {
                        push_slots: 500,
                        ..
                    }
                ));
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn unknown_flags_and_schemes_error() {
        assert!(parse_args(&argv("run --bogus 1")).is_err());
        assert!(parse_args(&argv("run --scheme magic")).is_err());
        assert!(parse_args(&argv("run --policy random")).is_err());
        assert!(parse_args(&argv("explode")).is_err());
        assert!(parse_args(&argv("run --clients")).is_err());
        assert!(parse_args(&argv("run --clients nine")).is_err());
    }

    #[test]
    fn faults_flag_selects_a_profile() {
        let cli = parse_args(&argv("run --faults chaos --clients 9")).unwrap();
        match cli.command {
            Command::Run { cfg, .. } => {
                assert!(cfg.faults.active());
                assert_eq!(cfg.faults.p2p_loss, 0.25);
            }
            other => panic!("wrong command {other:?}"),
        }
        let none = parse_args(&argv("run --faults none")).unwrap();
        match none.command {
            Command::Run { cfg, .. } => assert!(!cfg.faults.active()),
            other => panic!("wrong command {other:?}"),
        }
        let e = parse_args(&argv("run --faults mayhem")).unwrap_err();
        assert!(e.to_string().contains("mayhem"));
        assert!(e.to_string().contains("chaos"));
    }

    #[test]
    fn no_args_is_help() {
        assert!(matches!(parse_args(&[]).unwrap().command, Command::Help));
        assert!(matches!(
            parse_args(&argv("help")).unwrap().command,
            Command::Help
        ));
    }

    #[test]
    fn apply_sweep_value_covers_documented_params() {
        let mut cfg = SimConfig::default();
        for (p, v) in [
            ("cache_size", 64.0),
            ("theta", 0.7),
            ("access_range", 500.0),
            ("group_size", 8.0),
            ("update_rate", 2.0),
            ("p_disc", 0.1),
            ("clients", 33.0),
            ("hop_dist", 3.0),
            ("delta_similarity", 0.2),
        ] {
            apply_sweep_value(&mut cfg, p, v).unwrap();
        }
        assert_eq!(cfg.cache_size, 64);
        assert_eq!(cfg.num_clients, 33);
        assert_eq!(cfg.hop_dist, 3);
    }
}
