//! One-thread benchmark of the GroCoca simulator: three named workloads
//! run in one process, their outputs checked, their host-time cost
//! reported end to end (untraced run) or per layer (traced run).
//!
//! The simulator crates are used as libraries and never modified; every
//! timing is taken from outside, around the benchmark's own calls into
//! each layer's public functions (see `README.md` in this directory).

#![forbid(unsafe_code)]

pub mod clock;
pub mod probes;
pub mod rss;
pub mod spans;
pub mod stats;
pub mod workloads;

use std::collections::BTreeMap;
use std::path::Path;

use grococa_cli::checkpoint;
use grococa_core::{ResumedSimulation, RunOutput, Scheme, SimConfig, SimError, Simulation};
use grococa_journal::{Backend, Fingerprint, Journal, MemBackend};

use crate::spans::Spans;
use crate::stats::{median, summarize};
pub use crate::workloads::{Scale, Workload, HARNESS_SEED};

/// End-to-end metrics (the untraced run prints exactly these), with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("resume_s", "s"),
    ("snapshot_bytes_per_host", "B"),
];

/// Per-layer metrics (the traced run prints exactly these), with units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.new_s", "s"),
    ("core.drive_s.cc", "s"),
    ("core.drive_s.coca", "s"),
    ("core.drive_s.gc", "s"),
    ("core.events.cc", "count"),
    ("core.events.coca", "count"),
    ("core.events.gc", "count"),
    ("core.ns_per_event.cc", "ns"),
    ("core.ns_per_event.coca", "ns"),
    ("core.ns_per_event.gc", "ns"),
    ("core.events_per_s", "1/s"),
    ("sim-core.peak_heap_depth", "count"),
    ("sim-core.sched_ns_per_op.p50", "ns"),
    ("sim-core.sched_ns_per_op.tail", "ns"),
    ("sim-core.sched_ns_per_op.tail_pct", "%"),
    ("sim-core.sched_ns_per_op.samples", "count"),
    ("mobility.pos_queries", "count"),
    ("mobility.pos_cache_hit_ratio", "ratio"),
    ("mobility.reach_ns_per_query.p50", "ns"),
    ("mobility.reach_ns_per_query.tail", "ns"),
    ("mobility.reach_ns_per_query.tail_pct", "%"),
    ("mobility.reach_ns_per_query.samples", "count"),
    ("net.broadcasts", "count"),
    ("signature.messages", "count"),
    ("signature.bytes", "B"),
    ("signature.filter_bypasses", "count"),
    ("signature.rebuild_ns.p50", "ns"),
    ("signature.rebuild_ns.tail", "ns"),
    ("signature.rebuild_ns.tail_pct", "%"),
    ("signature.rebuild_ns.samples", "count"),
    ("signature.update_ns.p50", "ns"),
    ("signature.update_ns.tail", "ns"),
    ("signature.update_ns.tail_pct", "%"),
    ("signature.update_ns.samples", "count"),
    ("tcg.new_s.p50", "s"),
    ("tcg.new_s.tail", "s"),
    ("tcg.new_s.tail_pct", "%"),
    ("tcg.new_s.samples", "count"),
    ("tcg.update_ns.p50", "ns"),
    ("tcg.update_ns.tail", "ns"),
    ("tcg.update_ns.tail_pct", "%"),
    ("tcg.update_ns.samples", "count"),
    ("cache.access_ns.p50", "ns"),
    ("cache.access_ns.tail", "ns"),
    ("cache.access_ns.tail_pct", "%"),
    ("cache.access_ns.samples", "count"),
    ("snapshot.bytes", "B"),
    ("snapshot.encode_s", "s"),
    ("snapshot.decode_s", "s"),
    ("journal.append_s", "s"),
    ("journal.bytes", "B"),
    ("journal.recover_s", "s"),
    ("trace.run_s", "s"),
    ("trace.overhead_s", "s"),
];

/// Which per-layer counters cover only the recorded (post-warm-up)
/// window and which cover the whole run; printed with every traced run.
pub const COUNTER_SCOPE: &str = "net.*, signature.messages/bytes/filter_bypasses count the \
recorded window only; core.events.*, mobility.pos_* and sim-core.peak_heap_depth cover the whole \
run, warm-up included";

/// `Simulation::new` calls timed per cell per pass; the median of all of
/// a cell's calls is its set-up time.
const SETUP_REPS: usize = 5;

/// Diagnostic name of the in-memory checkpoint journal.
const JOURNAL_LABEL: &str = "perfbench-checkpoints.journal";

const MIB: f64 = 1024.0 * 1024.0;

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload to run.
    pub workload: Workload,
    /// Master seed; cell seeds derive from it as the figure harness's do.
    pub seed: u64,
    /// Measurement budget; sets the number of passes over the cells
    /// (see [`workloads::passes`]).
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Workload size.
    pub scale: Scale,
}

/// One printed metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, from [`END_TO_END`] or [`PER_LAYER`].
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// A cell in the output: its label, event count, digest and run times.
#[derive(Debug, Clone, PartialEq)]
pub struct CellReport {
    /// Cell label.
    pub label: String,
    /// Events dispatched by the whole run.
    pub events: u64,
    /// [`workloads::digest`] of the run.
    pub digest: u64,
    /// Host seconds of each untraced pass's run of this cell.
    pub run_s: Vec<f64>,
}

/// Everything a run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted: cell runs, checkpoints decoded and resumes.
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// One line per failed operation.
    pub problems: Vec<String>,
    /// Passes made over the cells.
    pub passes: usize,
    /// Every cell that completed, with its first pass's digest.
    pub cells: Vec<CellReport>,
    /// The metrics, in declaration order.
    pub metrics: Vec<Metric>,
    /// Recorded spans as JSON lines (traced runs only).
    pub spans_jsonl: String,
}

impl Outcome {
    /// Whether every operation's output checked out.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Failed-operation bookkeeping: one problem line per failed operation.
#[derive(Debug, Default)]
struct Checks {
    attempted: u64,
    problems: Vec<String>,
}

impl Checks {
    fn op(&mut self, problem: Option<String>) {
        self.attempted += 1;
        self.problems.extend(problem);
    }
}

/// What one checkpointed run wrote.
struct CheckpointLog {
    mem: MemBackend,
    fp: Fingerprint,
    snapshots: u64,
    snapshot_bytes: u64,
    append_failures: u64,
}

/// Runs `sim` to completion, checkpointing every `every` events when
/// asked: through the CLI's checkpoint writer into a fresh journal in
/// `store`, whose earlier contents are discarded. Reusing one in-memory
/// store keeps the benchmark's own page faults out of later passes.
/// Journal appends are spanned as children of `parent`.
fn drive(
    sim: Simulation,
    every: Option<u64>,
    store: &MemBackend,
    spans: &mut Spans,
    cell: usize,
    parent: Option<usize>,
) -> (Result<RunOutput, SimError>, Option<CheckpointLog>) {
    let Some(every) = every else {
        return (sim.try_run_inspect().map(|(out, _)| out), None);
    };
    let fp = checkpoint::fingerprint(sim.config());
    let mem = store.handle();
    // Truncating and creating a journal in memory cannot fail; if it
    // somehow did, every append would count as a failed checkpoint.
    let journal = mem.handle().truncate_to(0).ok().and_then(|()| {
        Journal::with_backend(Box::new(mem.handle()), Path::new(JOURNAL_LABEL), &fp).ok()
    });
    let mut writer = checkpoint::Writer::new(journal, 0);
    let mut log = CheckpointLog {
        mem,
        fp,
        snapshots: 0,
        snapshot_bytes: 0,
        append_failures: 0,
    };
    let result = {
        let mut sink = |snapshot: &[u8]| {
            let span = spans.begin("journal.append", cell, parent);
            let landed = writer.append(snapshot);
            spans.end(span);
            log.snapshots += 1;
            log.snapshot_bytes += snapshot.len() as u64;
            log.append_failures += u64::from(!landed);
        };
        sim.try_run_inspect_checkpointed(every, &mut sink)
            .map(|(out, _)| out)
    };
    (result, Some(log))
}

/// Checks one cell run: a clean audit, the same digest as the first
/// pass, and (when pinned) the pinned digest.
fn check_cell(
    label: &str,
    out: &RunOutput,
    first: Option<&RunOutput>,
    pins: Option<&[(&str, u64)]>,
) -> Option<String> {
    if !out.audit.is_clean() {
        return Some(format!("{label}: audit not clean: {}", out.audit));
    }
    let got = workloads::digest(out);
    if let Some(first) = first {
        let want = workloads::digest(first);
        if got != want {
            return Some(format!(
                "{label}: digest {got:016x} differs from the first pass's {want:016x}"
            ));
        }
    }
    match pins.map(|p| p.iter().find(|(l, _)| *l == label)) {
        None => None,
        Some(Some(&(_, want))) if want == got => None,
        Some(Some(&(_, want))) => Some(format!("{label}: digest {got:016x}, pinned {want:016x}")),
        Some(None) => Some(format!("{label}: no pinned digest")),
    }
}

/// One timed reopening of a checkpoint journal: what `grococa run
/// --resume-run` does before the run continues — reading the journal,
/// `recover` (the scan inside `Journal::open_or_create`) and
/// repositioning the journal, `checkpoint::reassemble` and
/// `checkpoint::latest_usable`.
struct Reopened {
    secs: f64,
    journal_bytes: u64,
    snapshots: Result<Vec<(u64, Vec<u8>)>, String>,
    latest: Option<(u64, ResumedSimulation)>,
}

fn reopen(cfg: &SimConfig, log: &CheckpointLog, cell: usize, spans: &mut Spans) -> Reopened {
    let path = Path::new(JOURNAL_LABEL);
    let cfg = cfg.clone();
    let t0 = clock::now();
    let span = spans.begin("journal.recover", cell, None);
    let bytes = log.mem.contents();
    let recovered = grococa_journal::recover(&bytes, &log.fp).map(|r| {
        let journal = Journal::resume_with_backend(Box::new(log.mem.handle()), path, r.keep as u64);
        (checkpoint::reassemble(&r.records), journal)
    });
    spans.end(span);
    let span = spans.begin("checkpoint.latest_usable", cell, None);
    let latest = recovered
        .as_ref()
        .ok()
        .and_then(|(rec, _)| checkpoint::latest_usable(&cfg, path, &rec.snapshots));
    spans.end(span);
    let secs = clock::secs_since(t0);
    Reopened {
        secs,
        journal_bytes: bytes.len() as u64,
        snapshots: recovered
            .map(|(rec, _)| rec.snapshots)
            .map_err(|e| e.to_string()),
        latest,
    }
}

/// What the resume checks found out about the checkpointed run.
struct Resumed {
    journal_bytes: u64,
    snapshot_bytes: u64,
    snapshots: u64,
    num_clients: usize,
}

/// Runs the newest usable checkpoint to the end and compares it with the
/// uninterrupted run, then decodes and re-encodes every checkpoint.
#[allow(clippy::too_many_arguments)]
fn check_resume(
    cfg: &SimConfig,
    label: &str,
    reopened: Reopened,
    log: &CheckpointLog,
    uninterrupted: &RunOutput,
    cell: usize,
    spans: &mut Spans,
    checks: &mut Checks,
) -> Resumed {
    let problem = match reopened.latest {
        None => Some(format!("{label}: no usable checkpoint to resume from")),
        Some((seq, resumed)) => match resumed.try_run_inspect() {
            Err(e) => Some(format!(
                "{label}: run resumed from checkpoint {seq} failed: {e}"
            )),
            Ok((out, _)) if workloads::digest(&out) != workloads::digest(uninterrupted) => {
                Some(format!(
                    "{label}: run resumed from checkpoint {seq} differs from the uninterrupted run"
                ))
            }
            Ok((out, _)) if !out.audit.is_clean() => Some(format!(
                "{label}: run resumed from checkpoint {seq}: audit not clean: {}",
                out.audit
            )),
            Ok(_) => None,
        },
    };
    checks.op(problem);

    let snapshots = reopened.snapshots.unwrap_or_else(|e| {
        checks.op(Some(format!("{label}: checkpoint journal unreadable: {e}")));
        Vec::new()
    });
    for (seq, snapshot) in &snapshots {
        let cfg = cfg.clone();
        let span = spans.begin("snapshot.decode", cell, None);
        let decoded = Simulation::resume(cfg, snapshot);
        spans.end(span);
        let problem = match decoded {
            Err(e) => Some(format!("{label}: checkpoint {seq} does not decode: {e}")),
            Ok(resumed) => {
                let span = spans.begin("snapshot.encode", cell, None);
                let again = resumed.snapshot();
                spans.end(span);
                (again != *snapshot).then(|| {
                    format!("{label}: checkpoint {seq} is not byte-identical after decode and re-encode")
                })
            }
        };
        checks.op(problem);
    }
    let landed = log.snapshots - log.append_failures;
    for _ in snapshots.len() as u64..log.snapshots {
        checks.op(Some(format!(
            "{label}: {} checkpoint(s) written, {landed} appended, {} recovered",
            log.snapshots,
            snapshots.len()
        )));
    }
    Resumed {
        journal_bytes: reopened.journal_bytes,
        snapshot_bytes: log.snapshot_bytes,
        snapshots: log.snapshots,
        num_clients: cfg.num_clients,
    }
}

/// Runs one workload as `opts` asks. `pins` are the expected digests per
/// cell label; `None` checks only audit, determinism across passes,
/// checkpoint round trips and resume.
pub fn run(opts: &Options, pins: Option<&[(&str, u64)]>) -> Outcome {
    let cells = workloads::cells(opts.workload, opts.seed, opts.scale);
    let every = workloads::checkpoint_every(opts.workload, opts.scale);
    let n = cells.len();
    let mut checks = Checks::default();
    let mut spans = Spans::new();
    let mut setup: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut untraced: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut traced: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut outputs: Vec<Option<RunOutput>> = vec![None; n];
    let store = MemBackend::new();
    let mut log: Option<(usize, CheckpointLog)> = None;
    let mut reopened: Option<Reopened> = None;
    let mut resume_times = Vec::new();
    let mut peak_rss = 0;

    // Whole passes over the cells, one after another on this thread, each
    // followed by one timed reopening of the checkpoint journal. Repeats
    // are spread over the run so that a slow spell on a shared host hits
    // only some of them. A traced run alternates untraced and traced
    // passes so the tracing overhead is measured in the same process.
    let passes = workloads::passes(opts.workload, opts.seconds, opts.trace);
    for pass in 0..passes {
        let traced_pass = opts.trace && pass % 2 == 1;
        spans.set_enabled(traced_pass);
        for (i, cell) in cells.iter().enumerate() {
            let mut sim = None;
            for _ in 0..SETUP_REPS {
                drop(sim.take());
                let cfg = cell.cfg.clone();
                let span = spans.begin("core.new", i, None);
                let t0 = clock::now();
                let built = Simulation::new(cfg);
                setup[i].push(clock::secs_since(t0));
                spans.end(span);
                sim = Some(built);
            }
            let sim = sim.expect("SETUP_REPS is positive");
            if every.is_some() {
                // Free the previous pass's journal before this run starts.
                drop(reopened.take());
                drop(log.take());
            }
            let span = spans.begin("core.drive", i, None);
            let t0 = clock::now();
            let (result, cell_log) = drive(sim, every, &store, &mut spans, i, span);
            let secs = clock::secs_since(t0);
            spans.end(span);
            if traced_pass {
                traced[i].push(secs);
            } else {
                untraced[i].push(secs);
            }
            let problem = match &result {
                Err(e) => Some(format!("{}: simulation failed: {e}", cell.label)),
                Ok(out) => check_cell(&cell.label, out, outputs[i].as_ref(), pins),
            };
            checks.op(problem);
            if let Some(l) = cell_log {
                log = Some((i, l));
            }
            if let (None, Ok(out)) = (&outputs[i], result) {
                outputs[i] = Some(out);
            }
        }
        // Outside the cells' runs, a traced run traces every pass.
        spans.set_enabled(opts.trace);
        let hwm = (pass == 0).then(rss::peak_bytes);
        if pass == 0 && log.is_none() {
            // No checkpoints in the measured run: checkpoint the first
            // cell once, mid-run, in a separate unmeasured run, so that
            // every workload reports resume cost and checks resume.
            log = checkpointed_rerun(&cells, &outputs, &store, &mut spans, &mut checks);
        }
        if let Some((cell, l)) = &log {
            // A single small checkpoint reopens in a few hundredths of a
            // second, so it is timed several times per pass.
            let reopens = if every.is_some() { 1 } else { 5 };
            for _ in 0..reopens {
                drop(reopened.take());
                let r = reopen(&cells[*cell].cfg, l, *cell, &mut spans);
                resume_times.push(r.secs);
                reopened = Some(r);
            }
        }
        if let Some(hwm) = hwm {
            // Every cell has run once; later passes repeat them exactly.
            // Checkpoint bytes the benchmark itself holds in memory are
            // not the simulator's footprint.
            let held = match (&reopened, every) {
                (Some(r), Some(_)) => r.journal_bytes,
                _ => 0,
            };
            peak_rss = hwm.unwrap_or(0).saturating_sub(held);
        }
    }

    let resumed = match (reopened, &log) {
        // A cell without a completed run already counts as failed.
        (Some(r), Some((cell, l))) => outputs[*cell].as_ref().map(|uninterrupted| {
            check_resume(
                &cells[*cell].cfg,
                &cells[*cell].label,
                r,
                l,
                uninterrupted,
                *cell,
                &mut spans,
                &mut checks,
            )
        }),
        _ => {
            checks.op(Some("no checkpoint journal to resume from".to_string()));
            None
        }
    };

    let metrics = if opts.trace {
        per_layer(
            &cells,
            &outputs,
            &spans,
            &untraced,
            &traced,
            resumed.as_ref(),
            opts,
        )
    } else {
        let r = resumed.as_ref();
        let values = [
            setup.iter().map(|s| median(s)).sum(),
            untraced.iter().map(|s| fastest(s)).sum(),
            peak_rss as f64 / MIB,
            fastest(&resume_times),
            r.map_or(0.0, |r| {
                r.snapshot_bytes as f64 / r.snapshots.max(1) as f64 / r.num_clients as f64
            }),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric { name, value, unit })
            .collect()
    };

    let labels: Vec<String> = cells.iter().map(|c| c.label.clone()).collect();
    Outcome {
        attempted: checks.attempted,
        failed: checks.problems.len() as u64,
        problems: checks.problems,
        passes,
        cells: cells
            .iter()
            .zip(&outputs)
            .zip(untraced)
            .filter_map(|((c, o), run_s)| {
                o.as_ref().map(|o| CellReport {
                    label: c.label.clone(),
                    events: o.events,
                    digest: workloads::digest(o),
                    run_s,
                })
            })
            .collect(),
        metrics,
        spans_jsonl: if opts.trace {
            spans.to_jsonl(&labels)
        } else {
            String::new()
        },
    }
}

/// Re-runs the first cell with one checkpoint halfway through its events
/// and checks that checkpointing left the run unchanged.
fn checkpointed_rerun(
    cells: &[workloads::CellSpec],
    outputs: &[Option<RunOutput>],
    store: &MemBackend,
    spans: &mut Spans,
    checks: &mut Checks,
) -> Option<(usize, CheckpointLog)> {
    let label = &cells[0].label;
    let Some(first) = outputs[0].as_ref() else {
        checks.op(Some(format!("{label}: no completed run to checkpoint")));
        return None;
    };
    let sim = Simulation::new(cells[0].cfg.clone());
    let span = spans.begin("core.drive_checkpointed", 0, None);
    let (result, log) = drive(sim, Some(first.events / 2 + 1), store, spans, 0, span);
    spans.end(span);
    if !matches!(&result, Ok(out) if workloads::digest(out) == workloads::digest(first)) {
        checks.op(Some(format!(
            "{label}: checkpointed run differs from the uninterrupted run"
        )));
    }
    log.map(|l| (0, l))
}

/// The fastest of a cell's passes (0 for none). Interference on a shared host only
/// ever adds time, so the minimum is the steadiest estimate of the
/// cell's own cost.
fn fastest(samples: &[f64]) -> f64 {
    samples.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Metric-name suffix of a scheme.
fn scheme_key(scheme: Scheme) -> &'static str {
    match scheme {
        Scheme::Conventional => "cc",
        Scheme::Coca => "coca",
        Scheme::GroCoca => "gc",
    }
}

/// Probe sample counts: (scheduler, reach, rebuild, update, tcg new,
/// tcg update, cache) and the batch size for batched probes.
fn probe_sizes(scale: Scale) -> ([usize; 7], usize) {
    match scale {
        Scale::Full => ([1_000, 2_000, 500, 1_000, 40, 2_000, 1_000], 64),
        Scale::Tiny => ([50, 50, 30, 50, 3, 50, 50], 8),
    }
}

/// The traced run's metrics: spans, whole-run and recorded-window
/// counters of the first pass, and the layer probes.
fn per_layer(
    cells: &[workloads::CellSpec],
    outputs: &[Option<RunOutput>],
    spans: &Spans,
    untraced: &[Vec<f64>],
    traced: &[Vec<f64>],
    resumed: Option<&Resumed>,
    opts: &Options,
) -> Vec<Metric> {
    let mut v: BTreeMap<String, f64> = BTreeMap::new();
    let all = spans.all();
    let durations = |name: &str, cell: Option<usize>| -> Vec<f64> {
        all.iter()
            .filter(|s| s.name == name && cell.is_none_or(|c| s.cell == c))
            .map(|s| s.duration())
            .collect()
    };

    v.insert(
        "core.new_s".into(),
        (0..cells.len())
            .map(|i| median(&durations("core.new", Some(i))))
            .sum(),
    );
    let mut total_events = 0u64;
    let mut total_drive = 0.0;
    for scheme in workloads::SCHEMES {
        let mut drive_s = 0.0;
        let mut events = 0u64;
        for (i, cell) in cells.iter().enumerate() {
            if cell.cfg.scheme != scheme {
                continue;
            }
            let self_times: Vec<f64> = all
                .iter()
                .enumerate()
                .filter(|(_, s)| s.name == "core.drive" && s.cell == i)
                .map(|(id, _)| spans.self_time(id))
                .collect();
            drive_s += fastest(&self_times);
            events += outputs[i].as_ref().map_or(0, |o| o.events);
        }
        let key = scheme_key(scheme);
        let per_event = if events > 0 {
            drive_s * 1e9 / events as f64
        } else {
            0.0
        };
        v.insert(format!("core.drive_s.{key}"), drive_s);
        v.insert(format!("core.events.{key}"), events as f64);
        v.insert(format!("core.ns_per_event.{key}"), per_event);
        total_events += events;
        total_drive += drive_s;
    }
    v.insert(
        "core.events_per_s".into(),
        if total_drive > 0.0 {
            total_events as f64 / total_drive
        } else {
            0.0
        },
    );

    let outs: Vec<&RunOutput> = outputs.iter().flatten().collect();
    let sum = |f: fn(&RunOutput) -> u64| outs.iter().map(|o| f(o)).sum::<u64>() as f64;
    let depth = outs.iter().map(|o| o.peak_heap_depth).max().unwrap_or(0);
    v.insert("sim-core.peak_heap_depth".into(), depth as f64);
    let hits = sum(|o| o.pos_cache_hits);
    let queries = hits + sum(|o| o.pos_cache_misses);
    v.insert("mobility.pos_queries".into(), queries);
    v.insert(
        "mobility.pos_cache_hit_ratio".into(),
        if queries > 0.0 { hits / queries } else { 0.0 },
    );
    v.insert("net.broadcasts".into(), sum(|o| o.metrics.broadcasts));
    v.insert(
        "signature.messages".into(),
        sum(|o| o.metrics.signature_messages),
    );
    v.insert("signature.bytes".into(), sum(|o| o.metrics.signature_bytes));
    v.insert(
        "signature.filter_bypasses".into(),
        sum(|o| o.metrics.filter_bypasses),
    );

    // Probes, with the workload's own settings: one run per distinct
    // value of the setting a probe depends on, samples split evenly.
    let ([n_sched, n_reach, n_rebuild, n_update, n_tcg_new, n_tcg_update, n_cache], batch) =
        probe_sizes(opts.scale);
    let distinct = |key: fn(&SimConfig) -> usize, gc_only: bool| -> Vec<&SimConfig> {
        let mut seen = Vec::new();
        let mut out = Vec::new();
        for c in cells {
            if gc_only && c.cfg.scheme != Scheme::GroCoca {
                continue;
            }
            if !seen.contains(&key(&c.cfg)) {
                seen.push(key(&c.cfg));
                out.push(&c.cfg);
            }
        }
        out
    };
    let by_n = distinct(|c| c.num_clients, false);
    let gc_by_n = distinct(|c| c.num_clients, true);
    let gc_by_cache = distinct(|c| c.cache_size, true);
    let by_cache = distinct(|c| c.cache_size, false);
    let split = |total: usize, parts: usize| total.div_ceil(parts.max(1));

    let put_summary = |v: &mut BTreeMap<String, f64>, prefix: &str, samples: &[f64]| {
        let s = summarize(samples);
        v.insert(format!("{prefix}.p50"), s.p50);
        v.insert(format!("{prefix}.tail"), s.tail);
        v.insert(format!("{prefix}.tail_pct"), s.tail_pct);
        v.insert(format!("{prefix}.samples"), s.samples as f64);
    };
    let sched = probes::scheduler(opts.seed, depth, n_sched, batch * 4);
    put_summary(&mut v, "sim-core.sched_ns_per_op", &sched);
    let reach: Vec<f64> = by_n
        .iter()
        .flat_map(|c| probes::reach(c, split(n_reach, by_n.len())))
        .collect();
    put_summary(&mut v, "mobility.reach_ns_per_query", &reach);
    let rebuild: Vec<f64> = gc_by_cache
        .iter()
        .flat_map(|c| probes::signature_rebuild(c, split(n_rebuild, gc_by_cache.len())))
        .collect();
    put_summary(&mut v, "signature.rebuild_ns", &rebuild);
    let update: Vec<f64> = gc_by_cache
        .iter()
        .flat_map(|c| probes::signature_update(c, split(n_update, gc_by_cache.len()), batch))
        .collect();
    put_summary(&mut v, "signature.update_ns", &update);
    let tcg_new: Vec<f64> = gc_by_n
        .iter()
        .flat_map(|c| probes::tcg_new(c, split(n_tcg_new, gc_by_n.len())))
        .collect();
    put_summary(&mut v, "tcg.new_s", &tcg_new);
    let tcg_update: Vec<f64> = gc_by_n
        .iter()
        .flat_map(|c| probes::tcg_update(c, split(n_tcg_update, gc_by_n.len())))
        .collect();
    put_summary(&mut v, "tcg.update_ns", &tcg_update);
    let cache: Vec<f64> = by_cache
        .iter()
        .flat_map(|c| probes::cache(c, split(n_cache, by_cache.len()), batch))
        .collect();
    put_summary(&mut v, "cache.access_ns", &cache);

    // Snapshot and journal layers.
    let append_totals: Vec<f64> = {
        let mut per_parent: BTreeMap<Option<usize>, f64> = BTreeMap::new();
        for s in all.iter().filter(|s| s.name == "journal.append") {
            *per_parent.entry(s.parent).or_default() += s.duration();
        }
        per_parent.into_values().collect()
    };
    v.insert(
        "snapshot.bytes".into(),
        resumed.map_or(0.0, |r| r.snapshot_bytes as f64),
    );
    v.insert(
        "snapshot.encode_s".into(),
        median(&durations("snapshot.encode", None)),
    );
    v.insert(
        "snapshot.decode_s".into(),
        median(&durations("snapshot.decode", None)),
    );
    v.insert("journal.append_s".into(), median(&append_totals));
    v.insert(
        "journal.bytes".into(),
        resumed.map_or(0.0, |r| r.journal_bytes as f64),
    );
    v.insert(
        "journal.recover_s".into(),
        median(&durations("journal.recover", None)),
    );

    let traced_run: f64 = traced.iter().map(|s| fastest(s)).sum();
    let untraced_run: f64 = untraced.iter().map(|s| fastest(s)).sum();
    v.insert("trace.run_s".into(), traced_run);
    v.insert("trace.overhead_s".into(), traced_run - untraced_run);

    PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: v[name],
            unit,
        })
        .collect()
}
