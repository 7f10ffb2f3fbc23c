//! Library behind the `grococa` command-line binary: argument parsing,
//! command execution and report rendering. Split from `main.rs` so the
//! whole surface is unit-testable.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod args;
pub mod cells;
pub mod checkpoint;
pub mod drain;
pub mod output;
pub mod worker;

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use grococa_core::{ConfigError, Scheme, SimConfig, Simulation};
use grococa_journal::{FaultScript, FaultyBackend, Journal, JournalError};
use grococa_par::{
    payload_text, run_attempts, warn_once, AttemptFailure, FailureKind, JobFailure, Slot,
    SuperviseOptions,
};

use args::{apply_sweep_value, ArgError, Cli, Command};
use cells::CellRecord;
use output::Row;

/// Everything that can go wrong executing a command line. The binary maps
/// the variants to distinct exit codes: 1 for usage mistakes, journal
/// refusals and aborted sweeps; 2 for semantically invalid
/// configurations. (Exit 3 — a sweep that *completed* with quarantined
/// cells — is not an error; see [`ExecOutcome::quarantined`].)
#[derive(Debug, Clone, PartialEq)]
pub enum CliError {
    /// The command line itself was malformed.
    Args(ArgError),
    /// The arguments parsed but describe an invalid simulation
    /// configuration (caught by [`grococa_core::SimConfig::validate`]
    /// before any simulation is built).
    Config(ConfigError),
    /// The result journal refused to open: unreadable header, fingerprint
    /// mismatch, or an I/O failure.
    Journal(JournalError),
    /// A sweep cell failed past its retry budget and `--keep-going` was
    /// not given; the message names the first failing cell.
    Sweep(String),
    /// The simulation core reported an internal error (invariant
    /// breach) instead of completing the run.
    Sim(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Args(e) => write!(f, "{e}"),
            CliError::Config(e) => write!(f, "{e}"),
            CliError::Journal(e) => write!(f, "{e}"),
            CliError::Sweep(e) => write!(f, "{e}"),
            CliError::Sim(e) => write!(f, "simulation error: {e}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Args(e)
    }
}

impl From<ConfigError> for CliError {
    fn from(e: ConfigError) -> Self {
        CliError::Config(e)
    }
}

impl From<JournalError> for CliError {
    fn from(e: JournalError) -> Self {
        CliError::Journal(e)
    }
}

/// The result of executing a command line: the rendered output plus how
/// many sweep cells were quarantined as `FAILED` rows (always zero
/// outside `sweep --keep-going`). The binary maps a non-zero count to
/// exit code 3 — "completed with quarantined cells" — and a drained
/// sweep to exit code 4.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecOutcome {
    /// The rendered table or CSV. Empty for a drained sweep: a partial
    /// grid must never masquerade as results, and the resume renders the
    /// full byte-identical output instead.
    pub rendered: String,
    /// Sweep cells that failed past their retry budget.
    pub quarantined: usize,
    /// Quarantine reasons grouped by kind (e.g. `2 panic, 1 deadline`),
    /// for the end-of-sweep summary line. `None` when nothing failed.
    pub quarantine_summary: Option<String>,
    /// A drained sweep's stderr note ("journal flushed, N/M cells done,
    /// resume with ..."); `Some` exactly when the sweep drained.
    pub drained: Option<String>,
}

impl ExecOutcome {
    fn completed(rendered: String) -> ExecOutcome {
        ExecOutcome {
            rendered,
            quarantined: 0,
            quarantine_summary: None,
            drained: None,
        }
    }
}

/// The environment variable of the chaos test hook: a comma-separated
/// list of sweep cell indices that panic instead of simulating. Exists so
/// the quarantine/`FAILED`/exit-3 path is drivable end-to-end from the
/// integration tests and CI; never set it in real use.
pub const CHAOS_ENV: &str = "GROCOCA_CHAOS_FAIL_CELLS";

/// The environment variable of the journal chaos hook: a
/// [`grococa_journal::FaultScript`] spec (`<mode>:<op>[:persist]`, mode
/// one of `full|eio|short|sync`) injected between the journal and its
/// file, so the disk-fault degrade paths are drivable end-to-end from
/// integration tests and CI. Never set it in real use.
pub const CHAOS_JOURNAL_ENV: &str = "GROCOCA_CHAOS_JOURNAL";

pub(crate) fn chaos_cells() -> Vec<usize> {
    std::env::var(CHAOS_ENV)
        .ok()
        .map(|v| v.split(',').filter_map(|t| t.trim().parse().ok()).collect())
        .unwrap_or_default()
}

/// Executes a parsed command line, returning the rendered output (the
/// binary prints it; tests inspect it). Shorthand for
/// [`execute_outcome`] when the quarantine count is not needed.
///
/// # Errors
///
/// See [`execute_outcome`].
pub fn execute(cli: &Cli) -> Result<String, CliError> {
    execute_outcome(cli).map(|out| out.rendered)
}

/// Executes a parsed command line, returning the rendered output and the
/// number of quarantined sweep cells.
///
/// # Errors
///
/// Returns [`CliError::Args`] if a sweep value is invalid for its
/// parameter, [`CliError::Config`] if any resulting configuration fails
/// validation — every config is validated before a simulation is
/// constructed, so a bad cell in a sweep fails fast instead of panicking
/// mid-grid — [`CliError::Journal`] if the result journal refuses to
/// open, and [`CliError::Sweep`] if a cell fails without `--keep-going`.
pub fn execute_outcome(cli: &Cli) -> Result<ExecOutcome, CliError> {
    let render = |rows: &[Row]| {
        if cli.csv {
            output::to_csv(rows)
        } else {
            output::to_table(rows)
        }
    };
    let done = ExecOutcome::completed;
    match &cli.command {
        Command::Help => Ok(done(args::USAGE.to_string())),
        Command::Run {
            cfg,
            checkpoint,
            checkpoint_every,
            resume_run,
        } => {
            cfg.validate()?;
            let report = run_single(
                (**cfg).clone(),
                checkpoint.as_deref(),
                *checkpoint_every,
                resume_run.as_deref(),
            )?;
            Ok(done(render(&[Row::ok(cfg.scheme, None, report)])))
        }
        Command::Compare(cfg) => {
            cfg.validate()?;
            let rows: Vec<Row> = [Scheme::Conventional, Scheme::Coca, Scheme::GroCoca]
                .into_iter()
                .map(|scheme| {
                    let mut c = (**cfg).clone();
                    c.scheme = scheme;
                    Row::ok(scheme, None, Simulation::new(c).run().report)
                })
                .collect();
            Ok(done(render(&rows)))
        }
        Command::Sweep {
            base,
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
        } => {
            let cells = build_cells(base, param, values)?;
            let outcome = run_sweep(
                &cells,
                SweepSettings {
                    fingerprint: cells::sweep_fingerprint(base, param, values, cells.len()),
                    journal: journal.as_deref(),
                    resume: *resume,
                    keep_going: *keep_going,
                    isolate: *isolate,
                    isolation: worker::Isolation {
                        deadline: *cell_deadline,
                        mem_limit_bytes: cell_mem_mb.map(|mb| mb << 20),
                    },
                    checkpoint: checkpoint.as_deref().map(|dir| (dir, *checkpoint_every)),
                },
            )?;
            match outcome {
                SweepOutcome::Finished { rows, failures } => Ok(ExecOutcome {
                    rendered: render(&rows),
                    quarantined: failures.len(),
                    quarantine_summary: quarantine_summary(&failures),
                    drained: None,
                }),
                SweepOutcome::Drained { settled, total } => Ok(ExecOutcome {
                    rendered: String::new(),
                    quarantined: 0,
                    quarantine_summary: None,
                    drained: Some(format!(
                        "sweep drained by shutdown signal: {settled}/{total} cells done{}",
                        match journal {
                            Some(path) => format!(
                                "; journal flushed — resume with \
                                 `--journal {} --resume`",
                                path.display()
                            ),
                            None =>
                                "; no journal was configured, completed cells are lost".to_string(),
                        }
                    )),
                }),
            }
        }
    }
}

/// Runs one validated configuration, optionally checkpointing every
/// `every` events into `ckpt` and/or resuming from the newest good
/// checkpoint in `resume_from` (see [`checkpoint`] for the format and
/// the fallback ladder).
///
/// Resume semantics are total: a missing file, an empty journal or a
/// journal whose every checkpoint is corrupt all degrade to a fresh run
/// with a warning. Only a *fingerprint* mismatch — the file belongs to a
/// different configuration or binary — refuses, because silently
/// restarting a different run is worse than stopping.
fn run_single(
    cfg: SimConfig,
    ckpt: Option<&std::path::Path>,
    every: u64,
    resume_from: Option<&std::path::Path>,
) -> Result<grococa_core::Report, CliError> {
    let fp = checkpoint::fingerprint(&cfg);
    let mut journal: Option<Journal> = None;
    let mut next_seq = 0u64;
    let mut resumed: Option<grococa_core::ResumedSimulation> = None;

    if let Some(rp) = resume_from {
        if rp.exists() {
            let recovered = Journal::open_or_create(rp, &fp)?;
            if let Some(warning) = &recovered.warning {
                warn_once("checkpoint-truncated", warning);
            }
            let rec = checkpoint::reassemble(&recovered.records);
            next_seq = rec.next_seq;
            match checkpoint::latest_usable(&cfg, rp, &rec.snapshots) {
                Some((seq, r)) => {
                    eprintln!(
                        "note: resuming from checkpoint {seq} in {} \
                         ({} events already simulated)",
                        rp.display(),
                        r.events_fired(),
                    );
                    resumed = Some(r);
                }
                None => warn_once(
                    "checkpoint-none",
                    &format!("no usable checkpoint in {}; starting fresh", rp.display()),
                ),
            }
            // Same file for --resume-run and --checkpoint: keep appending
            // to the journal we just recovered.
            if ckpt == Some(rp) {
                journal = Some(recovered.journal);
            }
        } else {
            warn_once(
                "checkpoint-missing",
                &format!(
                    "--resume-run {}: no such file; starting fresh",
                    rp.display()
                ),
            );
        }
    }
    if journal.is_none() {
        if let Some(path) = ckpt {
            journal = Some(Journal::create(path, &fp)?);
            next_seq = 0;
        }
    }

    // Chaos seam: scripted disk faults between the checkpoint journal
    // and its file, exactly as for sweep result journals.
    if let (Some(j), Ok(spec)) = (journal.as_mut(), std::env::var(CHAOS_JOURNAL_ENV)) {
        let script = FaultScript::parse(&spec).map_err(|e| {
            CliError::Args(args::ArgError(format!("{CHAOS_JOURNAL_ENV}={spec:?}: {e}")))
        })?;
        j.wrap_backend(|inner| Box::new(FaultyBackend::new(inner, script)));
    }

    let mut writer = checkpoint::Writer::new(journal, next_seq);
    let every = if writer.active() { every } else { 0 };
    let mut sink = |bytes: &[u8]| {
        writer.append(bytes);
    };
    // `GROCOCA_TIMING=1` prints a throughput line to stderr (stdout
    // stays byte-identical, so timing never perturbs CSV comparisons).
    // This is how BENCH_checkpoint.json measures checkpoint overhead.
    let timing_from = std::env::var_os("GROCOCA_TIMING").map(|_| Instant::now());
    let result = match resumed {
        Some(r) => r.try_run_inspect_checkpointed(every, &mut sink),
        None => Simulation::new(cfg).try_run_inspect_checkpointed(every, &mut sink),
    };
    let (mut out, _sim) = result.map_err(|e| CliError::Sim(e.to_string()))?;
    if let Some(started) = timing_from {
        let elapsed = started.elapsed().as_secs_f64();
        out.record_wall_time(elapsed);
        eprintln!(
            "timing: {} events in {elapsed:.2}s ({:.0} events/sec)",
            out.events, out.events_per_sec
        );
    }
    Ok(out.report)
}

/// Builds and validates the full sweep grid up front: a bad cell aborts
/// before any simulation time is spent. Shared by the sweep driver and
/// the isolation worker (which must derive the *identical* grid from
/// the same argv).
pub(crate) fn build_cells(
    base: &SimConfig,
    param: &str,
    values: &[f64],
) -> Result<Vec<(f64, Scheme, SimConfig)>, CliError> {
    let mut cells = Vec::new();
    for &x in values {
        for scheme in [Scheme::Conventional, Scheme::Coca, Scheme::GroCoca] {
            let mut c = base.clone();
            c.scheme = scheme;
            apply_sweep_value(&mut c, param, x)?;
            c.validate()?;
            cells.push((x, scheme, c));
        }
    }
    Ok(cells)
}

/// Formats quarantine reasons by kind (`2 panic, 1 deadline`).
fn quarantine_summary(failures: &[(usize, JobFailure)]) -> Option<String> {
    if failures.is_empty() {
        return None;
    }
    let kinds = [
        FailureKind::Panic,
        FailureKind::Deadline,
        FailureKind::MemLimit,
        FailureKind::DrainKilled,
    ];
    let parts: Vec<String> = kinds
        .into_iter()
        .filter_map(|kind| {
            let count = failures.iter().filter(|(_, f)| f.kind == kind).count();
            (count > 0).then(|| format!("{count} {}", kind.label()))
        })
        .collect();
    Some(parts.join(", "))
}

/// Settings threaded into [`run_sweep`]: durability and enforcement.
struct SweepSettings<'a> {
    fingerprint: grococa_journal::Fingerprint,
    journal: Option<&'a std::path::Path>,
    resume: bool,
    keep_going: bool,
    isolate: bool,
    isolation: worker::Isolation,
    /// Per-cell checkpoint directory + cadence (`--checkpoint DIR`
    /// `--checkpoint-every N`; isolate mode only).
    checkpoint: Option<(&'a std::path::Path, u64)>,
}

/// How a sweep ended.
enum SweepOutcome {
    /// Every cell was attempted; rows are complete (quarantined cells
    /// render as FAILED under `--keep-going`).
    Finished {
        rows: Vec<Row>,
        failures: Vec<(usize, JobFailure)>,
    },
    /// A shutdown signal drained the sweep: in-flight cells finished
    /// and were journaled, unclaimed cells were never started. No rows
    /// are rendered — the resumed run renders the full output.
    Drained { settled: usize, total: usize },
}

/// A journal that can degrade mid-sweep: appends route through
/// [`SweepJournal::append`], which on a classified disk fault either
/// degrades to un-journaled execution (`--keep-going`) or records a
/// fatal error and asks the pool to stop claiming cells.
struct SweepJournal {
    journal: Mutex<Option<Journal>>,
    fatal: Mutex<Option<CliError>>,
    abort: AtomicBool,
    keep_going: bool,
}

impl SweepJournal {
    fn new(journal: Option<Journal>, keep_going: bool) -> SweepJournal {
        SweepJournal {
            journal: Mutex::new(journal),
            fatal: Mutex::new(None),
            abort: AtomicBool::new(false),
            keep_going,
        }
    }

    fn append(&self, payload: &[u8]) {
        let mut guard = self
            .journal
            .lock()
            .expect("journal lock never poisons: appends don't panic");
        let Some(journal) = guard.as_mut() else {
            return;
        };
        if let Err(e) = journal.append(payload) {
            // The append rolled back (or wedged): the on-disk prefix is
            // still clean either way. What happens next is policy.
            if self.keep_going {
                warn_once(
                    "journal-degrade",
                    &format!(
                        "{e}; continuing WITHOUT journaling — cells completed \
                         from here on will not be resumable"
                    ),
                );
            } else {
                *self.fatal.lock().unwrap_or_else(|p| p.into_inner()) =
                    Some(CliError::Journal(e.into()));
                self.abort.store(true, Ordering::SeqCst);
            }
            *guard = None;
        }
    }

    fn aborting(&self) -> bool {
        self.abort.load(Ordering::SeqCst)
    }

    fn into_fatal(self) -> Option<CliError> {
        self.fatal.into_inner().unwrap_or_else(|p| p.into_inner())
    }
}

/// Runs a validated sweep grid on the `GROCOCA_JOBS`-wide supervised
/// pool, journaling each completed cell when a journal is configured.
///
/// Cell results are collected **by grid index**, so the rendered rows are
/// byte-identical to the old serial path for any worker count — and,
/// because every cell is deterministic, a killed, drained or resumed
/// sweep renders byte-identical output to an uninterrupted one.
///
/// With `--isolate`, cells run in re-exec'd child processes and the
/// deadline/memory limits are enforced by `kill()` (see [`worker`]);
/// otherwise cells run on threads with the deadline advisory.
fn run_sweep(
    cells: &[(f64, Scheme, SimConfig)],
    settings: SweepSettings<'_>,
) -> Result<SweepOutcome, CliError> {
    let n = cells.len();
    let mut settled: Vec<Option<grococa_core::Report>> = vec![None; n];

    // Open the journal first: completed cells recorded by a previous
    // (killed or drained) run are settled before any simulation time is
    // spent. A `Drained` trailer or `Failed` record just means "re-run
    // whatever is not recorded Ok".
    let journal = match settings.journal {
        None => None,
        Some(path) if settings.resume => {
            let recovered = Journal::open_or_create(path, &settings.fingerprint)?;
            if let Some(warning) = &recovered.warning {
                warn_once("journal-truncated", warning);
            }
            for raw in &recovered.records {
                if let Some((idx, CellRecord::Ok(report))) = cells::decode(raw) {
                    if idx < n {
                        settled[idx] = Some(report);
                    }
                }
            }
            Some(recovered.journal)
        }
        Some(path) => Some(Journal::create(path, &settings.fingerprint)?),
    };

    let pending: Vec<usize> = (0..n).filter(|&i| settled[i].is_none()).collect();

    // Preflight: refuse to start hours of work against a disk that
    // cannot hold the journal the sweep is counting on (degradable
    // under --keep-going, like any other append-path fault).
    let mut journal = journal;
    if let (Some(path), false) = (settings.journal, pending.is_empty()) {
        // Generous per-record estimate: payload (~150 bytes) + framing.
        let estimate = (pending.len() as u64 + 1) * 256;
        if let Err(e) = grococa_journal::preflight_space(path, estimate) {
            if settings.keep_going {
                warn_once(
                    "journal-degrade",
                    &format!(
                        "journal preflight failed ({e}); continuing WITHOUT \
                         journaling — completed cells will not be resumable"
                    ),
                );
                journal = None;
            } else {
                return Err(CliError::Journal(JournalError::Append(e)));
            }
        }
    }

    // Chaos seam: scripted disk faults between the journal and its file.
    if let (Some(journal), Ok(spec)) = (journal.as_mut(), std::env::var(CHAOS_JOURNAL_ENV)) {
        let script = FaultScript::parse(&spec)
            .map_err(|e| CliError::Sweep(format!("{CHAOS_JOURNAL_ENV}={spec:?}: {e}")))?;
        journal.wrap_backend(|inner| Box::new(FaultyBackend::new(inner, script)));
    }

    // Per-cell checkpointing is an optimisation: a directory that cannot
    // be created degrades with a warning, it never aborts the sweep.
    let mut cell_checkpoint = settings.checkpoint;
    if let Some((dir, _)) = cell_checkpoint {
        if let Err(e) = std::fs::create_dir_all(dir) {
            warn_once(
                "checkpoint-dir",
                &format!(
                    "cannot create checkpoint directory {} ({e}); \
                     cells will run without checkpointing",
                    dir.display()
                ),
            );
            cell_checkpoint = None;
        }
    }

    let journal = SweepJournal::new(journal, settings.keep_going);
    let chaos = chaos_cells();
    let mut opts = SuperviseOptions::with_jobs(grococa_par::jobs_from_env());
    opts.deadline = settings.isolation.deadline;
    let fingerprint_hash = settings.fingerprint.config_hash;
    let drain_check = || drain::DRAIN.drain_requested() || journal.aborting();

    let attempt = |&cell: &usize, _idx: usize| -> Result<grococa_core::Report, AttemptFailure> {
        let result = if settings.isolate {
            worker::attempt_isolated(cell, fingerprint_hash, &settings.isolation, cell_checkpoint)
        } else {
            let started = Instant::now();
            match catch_unwind(AssertUnwindSafe(|| {
                assert!(
                    !chaos.contains(&cell),
                    "chaos hook: injected panic for sweep cell {cell}"
                );
                Simulation::new(cells[cell].2.clone()).run().report
            })) {
                Ok(report) => Ok(report),
                Err(payload) => {
                    let overran = opts.deadline.is_some_and(|d| started.elapsed() > d);
                    Err(AttemptFailure {
                        kind: if overran {
                            FailureKind::Deadline
                        } else {
                            FailureKind::Panic
                        },
                        message: payload_text(payload.as_ref()).to_string(),
                    })
                }
            }
        };
        if let Ok(report) = &result {
            // Write-ahead: the cell is durable before it counts as done.
            journal.append(&cells::encode_ok(cell, report));
            // The cell result is durable; its mid-run checkpoint file
            // has nothing left to protect.
            if let Some((dir, _)) = cell_checkpoint {
                std::fs::remove_file(worker::cell_checkpoint_path(dir, cell)).ok();
            }
        }
        result
    };

    let slots = run_attempts(&pending, &opts, Some(&drain_check), attempt);

    let mut failures: Vec<(usize, JobFailure)> = Vec::new();
    let mut skipped = 0usize;
    for (&cell, slot) in pending.iter().zip(slots) {
        match slot {
            Slot::Done(report) => settled[cell] = Some(report),
            Slot::Failed(failure) => failures.push((cell, failure)),
            Slot::Skipped => skipped += 1,
        }
    }

    for (cell, failure) in &failures {
        let (x, scheme, _) = &cells[*cell];
        eprintln!(
            "warning: sweep cell {cell} ({} at x={x}) quarantined: {failure}",
            scheme.label()
        );
        journal.append(&cells::encode_failed(
            *cell,
            failure.kind,
            failure.attempts,
            &failure.message,
        ));
    }

    // A journal fault without --keep-going aborted the pool: surface it
    // as the sweep's error (takes precedence over a concurrent drain —
    // the journal can no longer certify what was saved).
    let drained = drain::DRAIN.drain_requested() && skipped > 0;
    if drained {
        // Stamp the flushed journal so a later `--resume` knows this was
        // a clean drain, not a crash.
        journal.append(&cells::encode_drained());
    }
    if let Some(fatal) = journal.into_fatal() {
        return Err(fatal);
    }
    if drained {
        return Ok(SweepOutcome::Drained {
            settled: settled.iter().filter(|s| s.is_some()).count(),
            total: n,
        });
    }

    if let Some((cell, failure)) = failures.first() {
        if !settings.keep_going {
            return Err(CliError::Sweep(format!(
                "sweep {failure} \
                 (use --keep-going to quarantine failing cells and finish the grid; \
                 first failing cell: {cell})"
            )));
        }
    }

    let rows = cells
        .iter()
        .enumerate()
        .map(|(i, (x, scheme, _))| match settled[i] {
            Some(report) => Row::ok(*scheme, Some(*x), report),
            None => {
                let failure = failures.iter().find(|(cell, _)| *cell == i).map(|(_, f)| f);
                match failure {
                    Some(f) => Row::failed(*scheme, Some(*x), f.kind.label(), f.attempts),
                    // Unreachable in a finished sweep, but total anyway.
                    None => Row::failed(*scheme, Some(*x), "unknown", 0),
                }
            }
        })
        .collect();
    Ok(SweepOutcome::Finished { rows, failures })
}

#[cfg(test)]
mod tests {
    use super::*;
    use args::parse_args;

    fn run(line: &str) -> String {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        execute(&parse_args(&argv).unwrap()).unwrap()
    }

    #[test]
    fn help_prints_usage() {
        assert!(run("help").contains("USAGE"));
    }

    #[test]
    fn run_produces_one_row() {
        let out = run("run --clients 10 --requests 15 --scheme cc");
        assert_eq!(out.lines().count(), 2);
        assert!(out.contains("CC"));
    }

    #[test]
    fn compare_produces_three_rows() {
        let out = run("compare --clients 10 --requests 15 --csv");
        assert_eq!(out.lines().count(), 4);
        for label in ["CC", "COCA", "GC"] {
            assert!(out.contains(label), "missing {label} in output");
        }
    }

    #[test]
    fn sweep_produces_values_times_schemes_rows() {
        let out = run("sweep --param theta --values 0.2,0.8 --clients 10 --requests 15 --csv");
        assert_eq!(out.lines().count(), 1 + 2 * 3);
        assert!(out.contains("COCA,0.2,"));
        assert!(out.contains("GC,0.8,"));
    }

    #[test]
    fn cli_runs_are_deterministic() {
        let a = run("run --clients 10 --requests 15 --seed 3 --csv");
        let b = run("run --clients 10 --requests 15 --seed 3 --csv");
        assert_eq!(a, b);
    }

    #[test]
    fn fault_profiles_run_end_to_end() {
        let out = run("run --clients 10 --requests 15 --faults lossy --csv");
        assert_eq!(out.lines().count(), 2);
    }

    #[test]
    fn invalid_configs_are_config_errors_not_panics() {
        for (args, why) in [
            ("run --clients 0", "at least one client"),
            ("run --downlink-kbps 0", "bandwidths must be positive"),
            ("run --tran-range NaN", "transmission range"),
            ("run --tran-range -5", "transmission range"),
            ("run --delta-distance NaN", "TCG distance threshold"),
            ("run --delta-similarity NaN", "TCG similarity threshold"),
            ("run --update-rate NaN", "update rate"),
        ] {
            let argv: Vec<String> = args.split_whitespace().map(String::from).collect();
            let err = execute(&parse_args(&argv).unwrap()).unwrap_err();
            assert!(matches!(err, CliError::Config(_)), "{args}: got {err:?}");
            assert!(err.to_string().contains(why), "{args}: {err}");
        }
    }

    #[test]
    fn invalid_sweep_cell_fails_before_running() {
        // p_disc = 1.5 parses as an argument but is semantically invalid.
        let argv: Vec<String> = "sweep --param p_disc --values 0.1,1.5 --clients 10 --requests 15"
            .split_whitespace()
            .map(String::from)
            .collect();
        let err = execute(&parse_args(&argv).unwrap()).unwrap_err();
        assert!(matches!(err, CliError::Config(_)), "got: {err:?}");
    }
}
