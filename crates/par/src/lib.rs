//! A bounded, self-scheduling, supervised worker pool over scoped threads.
//!
//! The figure harness and `grococa sweep` run grids of fully independent
//! simulation cells — every (x-value, scheme, seed) triple is its own
//! deterministic run. This crate fans such grids out across OS threads with
//! no external dependencies: [`std::thread::scope`] workers pull the next
//! job index from a shared atomic cursor (the idle steal the slow workers'
//! backlog), and results are collected **by input index**, so the output
//! order — and therefore everything printed or asserted downstream — is
//! byte-identical to a serial run. A failing job is retried and then
//! quarantined, never allowed to take its siblings down.
//!
//! The job *inputs* stay on the caller's stack and are only shared (`Sync`);
//! the worker builds whatever non-`Send` machinery it needs (the simulator
//! is `Rc`-based) inside the closure.
//!
//! # Examples
//!
//! ```
//! use grococa_par::{run_supervised, SuperviseOptions};
//!
//! let squares = run_supervised(&[1u64, 2, 3, 4], &SuperviseOptions::with_jobs(2), |&x| x * x);
//! assert_eq!(squares, vec![Ok(1), Ok(4), Ok(9), Ok(16)]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Best-effort extraction of a panic payload's message (the `&str` or
/// `String` carried by `panic!`/`assert!`). Non-string payloads yield a
/// placeholder, never a panic.
pub fn payload_text(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

/// The environment variable selecting the degree of parallelism.
pub const JOBS_ENV: &str = "GROCOCA_JOBS";

/// The environment variable silencing every harness warning. Any
/// non-empty value other than `0` suppresses [`warn_once`] output so
/// test harnesses that assert on stderr stay clean.
pub const QUIET_ENV: &str = "GROCOCA_QUIET";

/// Whether [`QUIET_ENV`] asks for silence.
pub fn quiet() -> bool {
    std::env::var(QUIET_ENV).is_ok_and(|v| {
        let v = v.trim();
        !v.is_empty() && v != "0"
    })
}

/// Prints `warning: {message}` to stderr **once per process per `key`**,
/// unless [`QUIET_ENV`] is set. Every harness-side warning (unparsable
/// `GROCOCA_JOBS`, journal truncation, journaling degradation) routes
/// through here so repeated work never spams and tests can opt out
/// wholesale.
pub fn warn_once(key: &str, message: &str) {
    static EMITTED: Mutex<Vec<String>> = Mutex::new(Vec::new());
    if quiet() {
        return;
    }
    let mut emitted = EMITTED.lock().unwrap_or_else(|p| p.into_inner());
    if emitted.iter().any(|k| k == key) {
        return;
    }
    emitted.push(key.to_string());
    eprintln!("warning: {message}");
}

/// A malformed positive-integer count in the environment (`GROCOCA_JOBS`,
/// `GROCOCA_SEEDS`): set, but not a positive integer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobsEnvError {
    /// The variable's name.
    pub var: &'static str,
    /// The offending value, verbatim.
    pub raw: String,
}

impl std::fmt::Display for JobsEnvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}={:?} is not a positive integer", self.var, self.raw)
    }
}

impl std::error::Error for JobsEnvError {}

/// Parses the raw value of the count variable `var`. A set-but-invalid
/// value is an error rather than a silent fallback, so a typo like
/// `GROCOCA_JOBS=eight` cannot quietly serialise a sweep.
///
/// # Errors
///
/// Returns [`JobsEnvError`] naming `var` and the offending value when it
/// is not a positive integer.
///
/// # Examples
///
/// ```
/// use grococa_par::{jobs_from_value, JOBS_ENV};
///
/// assert_eq!(jobs_from_value(JOBS_ENV, "3"), Ok(3));
/// assert!(jobs_from_value(JOBS_ENV, "eight").is_err());
/// assert!(jobs_from_value(JOBS_ENV, "0").is_err());
/// ```
pub fn jobs_from_value(var: &'static str, raw: &str) -> Result<usize, JobsEnvError> {
    raw.trim()
        .parse()
        .ok()
        .filter(|&n| n > 0)
        .ok_or_else(|| JobsEnvError {
            var,
            raw: raw.to_string(),
        })
}

/// The worker count selected by `GROCOCA_JOBS`, defaulting to the number of
/// available cores (minimum 1). Zero or unparsable values fall back to the
/// default — but loudly: the first such fallback per process prints a
/// [`warn_once`] warning naming the offending value (silenced by
/// [`QUIET_ENV`]), so typos don't silently change the degree of
/// parallelism.
///
/// # Examples
///
/// ```
/// assert!(grococa_par::jobs_from_env() >= 1);
/// ```
pub fn jobs_from_env() -> usize {
    let Ok(raw) = std::env::var(JOBS_ENV) else {
        return default_jobs();
    };
    jobs_from_value(JOBS_ENV, &raw).unwrap_or_else(|e| {
        warn_once(
            "jobs-env",
            &format!("{e}; falling back to {} worker(s)", default_jobs()),
        );
        default_jobs()
    })
}

/// The default degree of parallelism: the number of available cores.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Why a quarantined job failed — the enforced classification that the
/// sweep harness renders, journals and maps to operator-facing reasons.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The job panicked (thread mode), or an isolated worker process
    /// died or broke the cell protocol.
    Panic,
    /// The job overran its wall-clock deadline. Advisory in thread mode
    /// (measured after a panicking attempt returns); a hard `kill()` in
    /// process-isolated mode.
    Deadline,
    /// The job exceeded its RSS ceiling (process-isolated mode only).
    MemLimit,
    /// The job was killed by drain escalation: a second shutdown signal
    /// arrived while it was in flight.
    DrainKilled,
}

impl FailureKind {
    /// Short operator-facing label (`panic`, `deadline`, `oom`,
    /// `drain-kill`) used in FAILED rows and summary lines.
    pub fn label(self) -> &'static str {
        match self {
            FailureKind::Panic => "panic",
            FailureKind::Deadline => "deadline",
            FailureKind::MemLimit => "oom",
            FailureKind::DrainKilled => "drain-kill",
        }
    }
}

/// Why one supervised job was quarantined instead of returning a result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobFailure {
    /// The failing job's input index.
    pub index: usize,
    /// Human-readable failure text of the final attempt (panic message,
    /// or a description of the enforced kill).
    pub message: String,
    /// How many attempts were actually made (≤ 1 + retries; a drain can
    /// cut the retry budget short).
    pub attempts: u32,
    /// The enforced classification of the final attempt's failure.
    pub kind: FailureKind,
}

impl std::fmt::Display for JobFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "job {} failed after {} attempt(s)",
            self.index, self.attempts
        )?;
        if self.kind != FailureKind::Panic {
            write!(f, " [{}]", self.kind.label())?;
        }
        write!(f, ": {}", self.message)
    }
}

/// One failed attempt, as classified by the attempt runner: the kind
/// plus a human-readable message. The building block of
/// [`run_attempts`]; the retry loop turns the final one into a
/// [`JobFailure`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttemptFailure {
    /// The enforced failure classification.
    pub kind: FailureKind,
    /// Human-readable failure text.
    pub message: String,
}

impl AttemptFailure {
    /// A panic-kind failure with this message.
    pub fn panic(message: impl Into<String>) -> Self {
        AttemptFailure {
            kind: FailureKind::Panic,
            message: message.into(),
        }
    }
}

/// The thread-mode attempt runner: runs `f` under `catch_unwind` and
/// classifies a panic as [`FailureKind::Deadline`] when the attempt also
/// overran `deadline`, else as [`FailureKind::Panic`]. [`run_supervised`]
/// and the CLI's in-process sweep both run their attempts through it.
///
/// # Errors
///
/// Returns the classified [`AttemptFailure`], carrying the panic text,
/// when `f` panics.
pub fn catch_attempt<O>(
    deadline: Option<Duration>,
    f: impl FnOnce() -> O,
) -> Result<O, AttemptFailure> {
    let started = Instant::now(); // tidy:allow(wall-clock): harness watchdog; never feeds back into the sim
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        // The advisory watchdog cannot preempt a running job; it
        // classifies a panicking attempt that also overran the deadline,
        // distinguishing "panicked instantly" from "ground for minutes,
        // then died".
        let overran = deadline.is_some_and(|d| started.elapsed() > d);
        AttemptFailure {
            kind: if overran {
                FailureKind::Deadline
            } else {
                FailureKind::Panic
            },
            message: payload_text(payload.as_ref()).to_string(),
        }
    })
}

/// The outcome of one supervised slot under [`run_attempts`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Slot<O> {
    /// The job completed with this output.
    Done(O),
    /// The job failed past its retry budget and was quarantined.
    Failed(JobFailure),
    /// The job was never attempted: the drain check reported true before
    /// the job was claimed. Only possible when a drain check is given.
    Skipped,
}

/// Tuning for [`run_supervised`]: pool width, bounded retry, watchdog.
#[derive(Debug, Clone)]
pub struct SuperviseOptions {
    /// Worker threads, clamped to `1..=inputs.len()`.
    pub jobs: usize,
    /// Re-attempts after a job's first panic. Retries are deterministic —
    /// the same input is re-run by the same closure — so they only help
    /// against harness-transient failures (allocation pressure, injected
    /// chaos), never against a deterministic bug; keep the bound small.
    pub max_retries: u32,
    /// Per-attempt watchdog deadline on the monotonic clock; failing
    /// attempts that ran past it are classified
    /// [`FailureKind::Deadline`]. Advisory in thread mode (it cannot
    /// preempt a healthy job); the CLI's process-isolation mode turns it
    /// into a hard kill.
    pub deadline: Option<Duration>,
}

impl SuperviseOptions {
    /// Options for a pool of `jobs` workers: one retry, no deadline.
    pub fn with_jobs(jobs: usize) -> Self {
        SuperviseOptions {
            jobs,
            max_retries: 1,
            deadline: None,
        }
    }
}

/// A drain predicate: `true` asks workers to stop claiming new jobs
/// (in-flight jobs finish; unclaimed slots come back [`Slot::Skipped`]).
pub type DrainCheck<'a> = &'a (dyn Fn() -> bool + Sync);

/// Runs one supervised job through the pluggable attempt runner:
/// bounded retry, drain-aware (a drain mid-budget stops further
/// retries — an in-flight cell finishes, it doesn't get fresh starts).
fn attempt_with_retry<I, O>(
    attempt: &impl Fn(&I, usize) -> Result<O, AttemptFailure>,
    input: &I,
    index: usize,
    opts: &SuperviseOptions,
    draining: &impl Fn() -> bool,
) -> Result<O, JobFailure> {
    let budget = opts.max_retries.saturating_add(1);
    let mut made = 0u32;
    let mut last: Option<AttemptFailure> = None;
    while made < budget {
        if made > 0 && draining() {
            break;
        }
        made += 1;
        match attempt(input, index) {
            Ok(out) => return Ok(out),
            Err(failure) => last = Some(failure),
        }
    }
    let failure = last.expect("retry budget is at least one attempt");
    Err(JobFailure {
        index,
        message: failure.message,
        attempts: made,
        kind: failure.kind,
    })
}

/// The generalised supervision engine: runs the pluggable `attempt`
/// runner over every input on a pool of [`SuperviseOptions::jobs`]
/// scoped threads, with bounded retry and an optional **drain check**.
///
/// This is the repository's one cell pool and the seam both execution
/// modes share: thread mode ([`run_supervised`], `figures`, the CLI
/// without `--isolate`) runs [`catch_attempt`], and the CLI's
/// process-isolation mode passes a runner that re-execs each cell as a
/// child process and hard-kills it on deadline or memory-ceiling
/// overrun. The engine itself never catches panics — the attempt runner
/// must be total (return `Err`, not unwind).
///
/// When `drain` reports `true`, workers stop claiming new inputs;
/// in-flight attempts finish and every unclaimed slot is returned as
/// [`Slot::Skipped`]. Slots are returned **in input order** regardless
/// of worker count.
pub fn run_attempts<I, O, F>(
    inputs: &[I],
    opts: &SuperviseOptions,
    drain: Option<DrainCheck<'_>>,
    attempt: F,
) -> Vec<Slot<O>>
where
    I: Sync,
    O: Send,
    F: Fn(&I, usize) -> Result<O, AttemptFailure> + Sync,
{
    let n = inputs.len();
    let jobs = opts.jobs.max(1).min(n.max(1));
    let draining = || drain.is_some_and(|check| check());
    let mut slots: Vec<Slot<O>> = (0..n).map(|_| Slot::Skipped).collect();
    if jobs <= 1 || n <= 1 {
        for (idx, input) in inputs.iter().enumerate() {
            if draining() {
                break;
            }
            slots[idx] = match attempt_with_retry(&attempt, input, idx, opts, &draining) {
                Ok(out) => Slot::Done(out),
                Err(failure) => Slot::Failed(failure),
            };
        }
        return slots;
    }
    let cursor = AtomicUsize::new(0);
    let mut collected: Vec<(usize, Slot<O>)> = Vec::with_capacity(n);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        if draining() {
                            return local;
                        }
                        let idx = cursor.fetch_add(1, Ordering::Relaxed);
                        if idx >= n {
                            return local;
                        }
                        let slot = match attempt_with_retry(
                            &attempt,
                            &inputs[idx],
                            idx,
                            opts,
                            &draining,
                        ) {
                            Ok(out) => Slot::Done(out),
                            Err(failure) => Slot::Failed(failure),
                        };
                        local.push((idx, slot));
                    }
                })
            })
            .collect();
        for handle in handles {
            let local = handle
                .join()
                .expect("attempt runners are total; workers never panic");
            collected.extend(local);
        }
    });
    for (idx, slot) in collected {
        slots[idx] = slot;
    }
    slots
}

/// Runs `f` over every input on the [`run_attempts`] pool with the
/// [`catch_attempt`] runner, **quarantining** failures instead of aborting
/// the grid: a panicking job is retried up to
/// [`SuperviseOptions::max_retries`] times and, if it keeps failing, its
/// slot records a [`JobFailure`] (panic text, job index, attempt count,
/// watchdog flag) while every other job still runs to completion.
///
/// Outputs are returned **in input order**, so downstream rendering is
/// byte-identical for any worker count — the crash-safe sweep harness
/// builds directly on this.
///
/// # Examples
///
/// ```
/// use grococa_par::{run_supervised, SuperviseOptions};
///
/// let results = run_supervised(&[1u32, 2, 3], &SuperviseOptions::with_jobs(2), |&x| {
///     assert!(x != 2, "boom");
///     x * 10
/// });
/// assert_eq!(results[0].as_ref().unwrap(), &10);
/// assert_eq!(results[1].as_ref().unwrap_err().index, 1);
/// assert_eq!(results[2].as_ref().unwrap(), &30);
/// ```
pub fn run_supervised<I, O, F>(
    inputs: &[I],
    opts: &SuperviseOptions,
    f: F,
) -> Vec<Result<O, JobFailure>>
where
    I: Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    let slots = run_attempts(inputs, opts, None, |input, _idx| {
        catch_attempt(opts.deadline, || f(input))
    });
    slots
        .into_iter()
        .map(|slot| match slot {
            Slot::Done(out) => Ok(out),
            Slot::Failed(failure) => Err(failure),
            Slot::Skipped => unreachable!("no drain check was given"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn output_order_matches_input_order() {
        // Make early indices the slowest so completion order inverts
        // submission order; collection must still be index-ordered.
        let inputs: Vec<u64> = (0..64).collect();
        let out = run_supervised(&inputs, &SuperviseOptions::with_jobs(8), |&x| {
            std::thread::sleep(std::time::Duration::from_micros((64 - x) * 50));
            x * 3
        });
        assert_eq!(out, inputs.iter().map(|x| Ok(x * 3)).collect::<Vec<_>>());
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let counter = AtomicU64::new(0);
        let inputs: Vec<u32> = (0..1000).collect();
        let out = run_supervised(&inputs, &SuperviseOptions::with_jobs(7), |&x| {
            counter.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
        assert_eq!(out.len(), 1000);
    }

    #[test]
    fn oversized_pool_is_clamped() {
        let out = run_supervised(&[1u8, 2], &SuperviseOptions::with_jobs(100), |&x| x + 1);
        assert_eq!(out, vec![Ok(2), Ok(3)]);
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }

    #[test]
    fn jobs_from_value_accepts_positive_integers_only() {
        assert_eq!(jobs_from_value(JOBS_ENV, "4"), Ok(4));
        assert_eq!(jobs_from_value(JOBS_ENV, " 2 "), Ok(2));
        for bad in ["0", "-3", "eight", "", "1.5", "3x"] {
            let err = jobs_from_value("GROCOCA_SEEDS", bad).expect_err(bad);
            assert_eq!(err.raw, bad);
            assert!(err.to_string().contains("GROCOCA_SEEDS"), "got: {err}");
        }
    }

    #[test]
    fn supervised_quarantines_failures_and_completes_the_rest() {
        let inputs: Vec<u32> = (0..64).collect();
        let opts = SuperviseOptions::with_jobs(8);
        let results = run_supervised(&inputs, &opts, |&x| {
            assert!(x % 13 != 5, "unlucky {x}");
            x * 2
        });
        assert_eq!(results.len(), 64);
        for (i, r) in results.iter().enumerate() {
            if i % 13 == 5 {
                let fail = r.as_ref().expect_err("quarantined");
                assert_eq!(fail.index, i);
                assert_eq!(fail.attempts, 2);
                assert!(fail.message.contains(&format!("unlucky {i}")));
                assert_eq!(fail.kind, FailureKind::Panic);
            } else {
                assert_eq!(*r.as_ref().expect("completed"), i as u32 * 2);
            }
        }
    }

    #[test]
    fn supervised_serial_and_parallel_agree() {
        let inputs: Vec<u32> = (0..97).collect();
        let work = |&x: &u32| {
            assert!(x % 11 != 3, "boom {x}");
            x.wrapping_mul(2654435761)
        };
        let serial = run_supervised(&inputs, &SuperviseOptions::with_jobs(1), work);
        for jobs in [2, 5, 16] {
            let par = run_supervised(&inputs, &SuperviseOptions::with_jobs(jobs), work);
            assert_eq!(par, serial, "jobs={jobs}");
        }
    }

    #[test]
    fn supervised_retry_rescues_transient_failures() {
        use std::sync::Mutex;
        // Fail every input's first attempt, succeed on the retry.
        let seen = Mutex::new(std::collections::BTreeSet::new());
        let inputs: Vec<u32> = (0..8).collect();
        let opts = SuperviseOptions {
            jobs: 3,
            max_retries: 1,
            deadline: None,
        };
        let results = run_supervised(&inputs, &opts, |&x| {
            let fresh = seen.lock().unwrap().insert(x);
            assert!(!fresh, "transient failure for {x}");
            x + 100
        });
        for (i, r) in results.iter().enumerate() {
            assert_eq!(*r.as_ref().expect("rescued on retry"), i as u32 + 100);
        }
    }

    #[test]
    fn supervised_zero_retries_fails_immediately() {
        let opts = SuperviseOptions {
            jobs: 1,
            max_retries: 0,
            deadline: None,
        };
        let results = run_supervised(&[1u32], &opts, |_| -> u32 { panic!("once") });
        let fail = results[0].as_ref().expect_err("fails");
        assert_eq!(fail.attempts, 1);
    }

    #[test]
    fn watchdog_flags_slow_failing_cells() {
        let opts = SuperviseOptions {
            jobs: 2,
            max_retries: 0,
            deadline: Some(Duration::from_millis(1)),
        };
        let results = run_supervised(&[0u32, 1], &opts, |&x| -> u32 {
            if x == 1 {
                std::thread::sleep(Duration::from_millis(25));
            }
            panic!("dies either way")
        });
        assert_eq!(results[0].as_ref().unwrap_err().kind, FailureKind::Panic);
        assert_eq!(results[1].as_ref().unwrap_err().kind, FailureKind::Deadline);
        let shown = results[1].as_ref().unwrap_err().to_string();
        assert!(shown.contains("[deadline]"), "got: {shown}");
    }

    #[test]
    fn run_attempts_drain_skips_unclaimed_slots() {
        // Drain flips after the third completion; remaining slots must
        // come back Skipped, completed ones keep their outputs.
        let done = AtomicU64::new(0);
        let inputs: Vec<u32> = (0..32).collect();
        let opts = SuperviseOptions {
            jobs: 1,
            max_retries: 0,
            deadline: None,
        };
        let drain = || done.load(Ordering::Relaxed) >= 3;
        let slots = run_attempts(&inputs, &opts, Some(&drain), |&x, _| {
            done.fetch_add(1, Ordering::Relaxed);
            Ok::<u32, AttemptFailure>(x * 2)
        });
        let completed = slots.iter().filter(|s| matches!(s, Slot::Done(_))).count();
        let skipped = slots.iter().filter(|s| **s == Slot::Skipped).count();
        assert_eq!(completed, 3);
        assert_eq!(completed + skipped, 32);
        assert_eq!(slots[0], Slot::Done(0));
        assert_eq!(slots[31], Slot::Skipped);
    }

    #[test]
    fn run_attempts_drain_cuts_retry_budget() {
        // With the drain already asserted, a failing job gets exactly one
        // attempt even with retries budgeted... but only if it was
        // claimed before the drain; here the serial loop checks the drain
        // first, so we assert the attempt-count path via a drain that
        // flips after the first attempt.
        let tried = AtomicU64::new(0);
        let opts = SuperviseOptions {
            jobs: 1,
            max_retries: 5,
            deadline: None,
        };
        let drain = || tried.load(Ordering::Relaxed) >= 1;
        let slots = run_attempts(&[1u32], &opts, Some(&drain), |_, _| {
            tried.fetch_add(1, Ordering::Relaxed);
            Err::<u32, _>(AttemptFailure::panic("always"))
        });
        match &slots[0] {
            Slot::Failed(fail) => {
                assert_eq!(fail.attempts, 1, "drain must cut the retry budget");
                assert_eq!(fail.kind, FailureKind::Panic);
            }
            other => panic!("expected failure, got {other:?}"),
        }
    }

    #[test]
    fn attempt_kinds_survive_into_job_failures() {
        let opts = SuperviseOptions {
            jobs: 2,
            max_retries: 0,
            deadline: None,
        };
        let kinds = [
            FailureKind::Panic,
            FailureKind::Deadline,
            FailureKind::MemLimit,
            FailureKind::DrainKilled,
        ];
        let slots = run_attempts(&kinds, &opts, None, |&kind, _| {
            Err::<u32, _>(AttemptFailure {
                kind,
                message: format!("kind {}", kind.label()),
            })
        });
        for (i, slot) in slots.iter().enumerate() {
            match slot {
                Slot::Failed(fail) => {
                    assert_eq!(fail.kind, kinds[i]);
                    assert_eq!(fail.index, i);
                    assert!(fail.message.contains(kinds[i].label()));
                }
                other => panic!("expected failure, got {other:?}"),
            }
        }
    }

    #[test]
    fn supervised_empty_input() {
        let out: Vec<Result<u32, _>> =
            run_supervised(&[] as &[u32], &SuperviseOptions::with_jobs(4), |&x| x);
        assert!(out.is_empty());
    }
}
