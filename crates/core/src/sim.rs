//! The GroCoca discrete-event simulation: COCA's communication protocol
//! (Section III) plus all of GroCoca's mechanisms (Section IV), over the
//! mobility, network, power and workload substrates.
//!
//! One [`Simulation`] runs one configuration to completion and yields a
//! [`RunOutput`] with the metrics the paper's figures plot. Runs are
//! deterministic in the configuration seed.

use std::rc::Rc;

use grococa_mobility::{FieldConfig, MobilityField};
use grococa_net::{Ndp, NdpConfig, P2pChannel, ServerChannel};
use grococa_power::{BroadcastRole, P2pRole};
use grococa_signature::{compression_choice, data_positions, BloomFilter, CompressedSignature};
use grococa_sim::{transmission_time, Scheduler, SimRng, SimTime};
use grococa_workload::{AccessPattern, ItemId, ServerDb};

use crate::config::{Scheme, SimConfig};
use crate::error::SimError;
use crate::fault::{AuditReport, ConfigError, FaultStats};
use crate::host::{Host, Pending, Phase};
use crate::metrics::{Metrics, Outcome, Report};
use crate::tcg::{MembershipChange, TcgDirectory};
use crate::trace::{TraceKind, Tracer};

/// Simulation events. Each carries the minimum identifying state; handlers
/// re-validate against the current world (generation numbers, connectivity)
/// so stale deliveries are ignored, never mis-applied.
#[derive(Debug, Clone)]
pub(crate) enum Ev {
    /// A host wakes up to issue its next request.
    NextRequest { mh: usize },
    /// A broadcast search request reaches a peer.
    PeerRequest {
        requester: usize,
        gen: u64,
        peer: usize,
        item: ItemId,
        updates: Option<Rc<(Vec<u32>, Vec<u32>)>>,
    },
    /// A peer's "I have it" reply reaches the requester.
    Reply {
        requester: usize,
        gen: u64,
        from: usize,
    },
    /// The requester's retrieve reaches the chosen target peer.
    Retrieve { requester: usize, gen: u64 },
    /// The target peer's data message reaches the requester.
    PeerData {
        requester: usize,
        gen: u64,
        from: usize,
        expiry: SimTime,
    },
    /// The adaptive peer-search timeout τ fired.
    SearchTimeout { requester: usize, gen: u64 },
    /// Fault-hardening watchdog: the data a retrieving host was promised
    /// never arrived (lost, corrupted, or the provider departed). Armed
    /// only while the fault plan is active.
    RetrieveTimeout { requester: usize, gen: u64 },
    /// Fault-hardening watchdog: a server interaction produced no
    /// response (request dropped in an outage window). Armed only while
    /// the fault plan is active.
    ServerRetry { mh: usize, gen: u64 },
    /// A request reaches the MSS over the uplink.
    ServerRequest { mh: usize, gen: u64 },
    /// The MSS's data message reaches the host over the downlink.
    ///
    /// The membership-change list rides behind `Rc` (as signature payloads
    /// already do) so cloning the event on dispatch never copies the list.
    ServerData {
        mh: usize,
        gen: u64,
        expiry: SimTime,
        t_r: SimTime,
        changes: Rc<Vec<MembershipChange>>,
    },
    /// A TTL validation request reaches the MSS.
    ValidationRequest { mh: usize, gen: u64 },
    /// The MSS approved the cached copy (not modified); new TTL attached.
    ValidationOk {
        mh: usize,
        gen: u64,
        expiry: SimTime,
        t_r: SimTime,
        changes: Rc<Vec<MembershipChange>>,
    },
    /// A `SigRequest` reaches a host. `members` is present on broadcast
    /// recollection requests and lists who must answer.
    SigRequest {
        from: usize,
        to: usize,
        members: Option<Rc<Vec<usize>>>,
    },
    /// A full cache signature reaches the host that asked for it.
    SigReply {
        from: usize,
        to: usize,
        sig: Rc<BloomFilter>,
    },
    /// A disconnected host comes back.
    Reconnect { mh: usize },
    /// A reconnection membership sync reaches the MSS.
    ReconnectSync { mh: usize },
    /// The MSS's full-membership answer reaches the host.
    ReconnectSyncDone { mh: usize, members: Rc<Vec<usize>> },
    /// An explicit location/access update timer (τ_P) fired at a host.
    ExplicitUpdate { mh: usize },
    /// The explicit update reaches the MSS; `sample` is the ρ_P portion of
    /// the peer-retrieved access history.
    ExplicitUpdateAtMss { mh: usize, sample: Rc<Vec<ItemId>> },
    /// The MSS's membership-change answer to an explicit update arrives.
    MembershipNews {
        mh: usize,
        changes: Rc<Vec<MembershipChange>>,
    },
    /// The server-side Poisson update process ticks.
    DbUpdate,
    /// The MSS's periodic stale-interval aging pass.
    AgeIntervals,
    /// Warm-up hard cap reached.
    WarmupCap,
    /// Periodic NDP beacon power-accounting tick (only when
    /// `account_beacons` is enabled).
    BeaconTick,
}

/// The complete result of one simulation run.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// The derived per-run summary (what the figures plot).
    pub report: Report,
    /// The raw counters behind the report.
    pub metrics: Metrics,
    /// Simulated time at which warm-up finished.
    pub warmed_at: SimTime,
    /// Simulated time at which the run stopped.
    pub finished_at: SimTime,
    /// Total events dispatched.
    pub events: u64,
    /// Downlink utilisation over the recorded window.
    pub downlink_utilisation: f64,
    /// Events dispatched per wall-clock second — the simulator's raw
    /// throughput for this run. The simulator itself is wall-clock-free
    /// (a determinism invariant enforced by `grococa-tidy`), so this is
    /// zero until a harness measures elapsed time around the run and
    /// threads it in via [`RunOutput::record_wall_time`].
    pub events_per_sec: f64,
    /// Geometric queries served without a full position pass: a range or
    /// reach query answered from the spatial index built at this or an
    /// earlier instant, or one host's position (from the last pass, or
    /// computed point-wise).
    pub pos_cache_hits: u64,
    /// Geometric queries that paid a full O(n) position pass (and, for a
    /// range or reach query, an index rebuild).
    pub pos_cache_misses: u64,
    /// High-water mark of the scheduler's pending-event queue.
    pub peak_heap_depth: usize,
    /// Whole-run fault-injection and recovery counters (all zero under
    /// the zero-fault profile; not reset at the warm-up boundary).
    pub fault_stats: FaultStats,
    /// The end-of-run invariant audit: proves the run terminated cleanly
    /// instead of wedging silently.
    pub audit: AuditReport,
}

impl RunOutput {
    /// Derives [`RunOutput::events_per_sec`] from an externally measured
    /// wall-clock duration.
    ///
    /// `grococa-core` never reads the wall clock itself — ambient time is
    /// a nondeterminism source, and the `grococa-tidy` `wall-clock` rule
    /// bans it from simulation crates. A harness that wants throughput
    /// numbers measures elapsed time around [`Simulation::run`] and
    /// threads it in here. A non-positive duration leaves the rate at
    /// zero.
    pub fn record_wall_time(&mut self, elapsed_secs: f64) {
        self.events_per_sec = if elapsed_secs > 0.0 {
            self.events as f64 / elapsed_secs
        } else {
            0.0
        };
    }
}

/// A mid-run simulation reconstructed from a checkpoint snapshot by
/// [`Simulation::resume`], paired with its restored event queue.
///
/// Continue it with [`ResumedSimulation::run`] (or the inspecting /
/// checkpointing variants); the remainder of the run is byte-identical
/// to the uninterrupted original.
#[derive(Debug)]
pub struct ResumedSimulation {
    pub(crate) sim: Simulation,
    pub(crate) sched: Scheduler<Ev>,
}

impl ResumedSimulation {
    /// Runs the resumed simulation to completion.
    ///
    /// # Panics
    ///
    /// Panics if an internal invariant breaks mid-run, like
    /// [`Simulation::run`].
    pub fn run(self) -> RunOutput {
        self.run_inspect().0
    }

    /// Like [`ResumedSimulation::run`] but returns the whole world
    /// alongside the output.
    ///
    /// # Panics
    ///
    /// Panics if an internal invariant breaks mid-run.
    pub fn run_inspect(self) -> (RunOutput, Simulation) {
        self.try_run_inspect()
            .expect("simulation invariant violated")
    }

    /// Continues the run, surfacing invariant violations as [`SimError`].
    pub fn try_run_inspect(self) -> Result<(RunOutput, Simulation), SimError> {
        let ResumedSimulation { mut sim, mut sched } = self;
        sim.drive(&mut sched, None)?;
        Ok(sim.finish(sched))
    }

    /// Continues the run while emitting fresh checkpoints every `every`
    /// fired events, exactly like
    /// [`Simulation::try_run_inspect_checkpointed`]. Because the restored
    /// event counter picks up where the original left off, checkpoint
    /// instants coincide with the uninterrupted run's.
    pub fn try_run_inspect_checkpointed(
        self,
        every: u64,
        sink: &mut dyn FnMut(&[u8]),
    ) -> Result<(RunOutput, Simulation), SimError> {
        let ResumedSimulation { mut sim, mut sched } = self;
        sim.drive(&mut sched, Some((every, sink)))?;
        Ok(sim.finish(sched))
    }

    /// Re-encodes the restored state as a fresh snapshot. A decode
    /// followed by this is byte-identical to the snapshot decoded — the
    /// round-trip property the proptest suite pins down.
    pub fn snapshot(&self) -> Vec<u8> {
        crate::snapshot::encode(&self.sim, &self.sched)
    }

    /// Simulated time the snapshot was taken at (where the run resumes).
    pub fn now(&self) -> SimTime {
        self.sched.now()
    }

    /// Events already dispatched before the snapshot.
    pub fn events_fired(&self) -> u64 {
        self.sched.events_fired()
    }

    /// The configuration the resumed run continues under.
    pub fn config(&self) -> &SimConfig {
        self.sim.config()
    }
}

/// One configured simulation instance.
///
/// # Examples
///
/// ```no_run
/// use grococa_core::{Scheme, SimConfig, Simulation};
///
/// let mut cfg = SimConfig::for_scheme(Scheme::GroCoca);
/// cfg.num_clients = 50;
/// cfg.requests_per_mh = 100;
/// let out = Simulation::new(cfg).run();
/// println!("latency {:.1} ms", out.report.access_latency_ms);
/// ```
#[derive(Debug)]
pub struct Simulation {
    pub(crate) cfg: SimConfig,
    pub(crate) field: MobilityField,
    pub(crate) p2p: P2pChannel,
    pub(crate) server: ServerChannel,
    pub(crate) pattern: AccessPattern,
    pub(crate) db: ServerDb,
    pub(crate) dir: Option<TcgDirectory>,
    pub(crate) hosts: Vec<Host>,
    pub(crate) ndp: Option<Ndp>,
    pub(crate) active: Vec<bool>,
    pub(crate) host_rngs: Vec<SimRng>,
    pub(crate) rng_updates: SimRng,
    /// The dedicated fault-injection stream (substream 4). All fault
    /// draws come from here in event-dispatch order, so a
    /// `(seed, fault_profile)` pair replays byte-identically; the
    /// zero-fault profile never draws from it.
    pub(crate) fault_rng: SimRng,
    /// Cached `cfg.faults.active()` — the single gate on every fault
    /// draw and every hardening timer.
    pub(crate) faults_active: bool,
    pub(crate) fstats: FaultStats,
    pub(crate) metrics: Metrics,
    pub(crate) tracer: Option<Tracer>,
    pub(crate) last_event_time: SimTime,
    pub(crate) warm: bool,
    pub(crate) warmed_at: SimTime,
    pub(crate) full_caches: usize,
    pub(crate) completed_recorded: u64,
    pub(crate) target_completed: u64,
    /// Reusable neighbour-query buffers (sender/destination ranges in
    /// `charge_p2p`, per-host rows elsewhere) — the geometric hot paths
    /// never allocate once these are warm.
    nbr_a: Vec<usize>,
    nbr_b: Vec<usize>,
    /// Reusable broadcast-reach buffer for `broadcast_reach_into`.
    reach_scratch: Vec<(usize, u32)>,
    /// Reusable CSR adjacency (row offsets + neighbour indices) built once
    /// per beacon tick and shared by the NDP round and power accounting.
    csr_starts: Vec<usize>,
    csr_nbrs: Vec<u32>,
    /// Activity bitmask (bit per host), packed once per beacon tick for
    /// the word-filtered neighbour queries, plus the per-host row buffer
    /// they fill (`u32`, so appending to `csr_nbrs` is a plain copy).
    active_bits: Vec<u64>,
    csr_row: Vec<u32>,
}

/// An optional mid-run checkpoint hook threaded into the event loop: the
/// cadence in fired events plus the sink receiving each encoded snapshot.
type CheckpointHook<'a> = Option<(u64, &'a mut dyn FnMut(&[u8]))>;

impl Simulation {
    /// Builds a simulation from a validated configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`SimConfig::validate`].
    pub fn new(cfg: SimConfig) -> Self {
        cfg.validate_or_panic();
        let n = cfg.num_clients;
        let field = MobilityField::new(
            FieldConfig {
                model: cfg.motion_model,
                width: cfg.space.0,
                height: cfg.space.1,
                v_min: cfg.speed.0,
                v_max: cfg.speed.1,
                pause: SimTime::from_secs(1),
                group_size: cfg.group_size,
                group_radius: cfg.group_radius,
            },
            n,
            cfg.seed,
        );
        let groups = (0..n).map(|i| field.group_of(i)).max().unwrap_or(0) + 1;
        let mut rng_pattern = SimRng::substream(cfg.seed, 2);
        let pattern = AccessPattern::new(
            cfg.n_data,
            cfg.access_range,
            cfg.theta,
            groups,
            &mut rng_pattern,
        );
        let hosts = (0..n)
            .map(|i| {
                Host::new(
                    i,
                    cfg.cache_size,
                    cfg.cache_policy,
                    cfg.sigma,
                    cfg.bloom_k,
                    cfg.pi_c,
                    cfg.replace_delay,
                )
            })
            .collect();
        let dir = (cfg.scheme == Scheme::GroCoca).then(|| {
            TcgDirectory::new(
                n,
                cfg.n_data,
                cfg.tcg_distance,
                cfg.tcg_similarity,
                cfg.omega,
            )
        });
        Simulation {
            field,
            p2p: P2pChannel::new(n, cfg.p2p_kbps),
            server: ServerChannel::new(cfg.uplink_kbps, cfg.downlink_kbps),
            pattern,
            db: ServerDb::new(cfg.n_data, cfg.alpha),
            dir,
            hosts,
            ndp: cfg.ndp_tables.then(|| {
                let ndp_cfg = NdpConfig {
                    miss_threshold: cfg.ndp_miss_threshold,
                };
                // Under injected beacon loss a healthy link misses rounds
                // at the loss rate; the staleness grace keeps the table
                // from flapping on lost frames.
                let ndp_cfg = if cfg.faults.active() {
                    ndp_cfg.with_grace(cfg.retry.ndp_grace_rounds)
                } else {
                    ndp_cfg
                };
                Ndp::new(n, ndp_cfg)
            }),
            active: vec![true; n],
            host_rngs: (0..n)
                .map(|i| SimRng::substream(cfg.seed, 1_000 + i as u64))
                .collect(),
            rng_updates: SimRng::substream(cfg.seed, 1),
            fault_rng: SimRng::substream(cfg.seed, 4),
            faults_active: cfg.faults.active(),
            fstats: FaultStats::default(),
            metrics: Metrics::new(),
            tracer: None,
            last_event_time: SimTime::ZERO,
            warm: false,
            warmed_at: SimTime::ZERO,
            full_caches: 0,
            completed_recorded: 0,
            target_completed: cfg.requests_per_mh * n as u64,
            nbr_a: Vec::new(),
            nbr_b: Vec::new(),
            reach_scratch: Vec::new(),
            csr_starts: Vec::new(),
            active_bits: Vec::new(),
            csr_row: Vec::new(),
            csr_nbrs: Vec::new(),
            cfg,
        }
    }

    /// Builds a simulation, reporting a configuration violation as an
    /// error instead of panicking (the CLI front end maps this to a
    /// clean diagnostic).
    pub fn try_new(cfg: SimConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        Ok(Self::new(cfg))
    }

    /// The configuration this simulation runs.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The MSS's TCG directory (present only under [`Scheme::GroCoca`]) —
    /// exposed for inspection, tests and the example binaries.
    pub fn tcg_directory(&self) -> Option<&TcgDirectory> {
        self.dir.as_ref()
    }

    /// Attaches a trace sink recording the protocol lifecycle of every
    /// request. Retrieve it after [`Simulation::run_inspect`] via
    /// [`Simulation::tracer`].
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = Some(tracer);
    }

    /// The attached tracer, if any.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    #[inline]
    fn trace(&mut self, time: SimTime, mh: usize, kind: TraceKind) {
        if let Some(tracer) = self.tracer.as_mut() {
            tracer.record(time, mh, kind);
        }
    }

    /// The motion group of host `mh` (delegates to the mobility field).
    pub fn group_of(&self, mh: usize) -> usize {
        self.field.group_of(mh)
    }

    /// Runs the simulation like [`Simulation::run`] but returns the whole
    /// world alongside the output, for post-mortem inspection.
    ///
    /// Panics if an internal invariant breaks mid-run; use
    /// [`Simulation::try_run_inspect`] to receive the violation as a
    /// typed [`SimError`] instead.
    pub fn run_inspect(self) -> (RunOutput, Simulation) {
        // A SimError is always a simulator bug (see `crate::error`), so
        // the ergonomic public API keeps panicking at the boundary.
        self.try_run_inspect()
            .expect("simulation invariant violated") // tidy:allow(panic-discipline): the panicking boundary of the typed-error dispatcher; invariant bugs must still abort figure runs loudly
    }

    /// Runs the simulation like [`Simulation::run_inspect`] but surfaces
    /// broken internal invariants as [`SimError`] values instead of
    /// panicking, so embedding harnesses can quarantine a bad run.
    pub fn try_run_inspect(mut self) -> Result<(RunOutput, Simulation), SimError> {
        let mut sched: Scheduler<Ev> = Scheduler::new();
        self.bootstrap(&mut sched)?;
        self.drive(&mut sched, None)?;
        Ok(self.finish(sched))
    }

    /// Like [`Simulation::try_run_inspect`], but additionally encodes a
    /// full [snapshot](crate::snapshot) of the run every `every` fired
    /// events and hands the bytes to `sink`. The caller owns durability
    /// (typically a journal append); a failing sink must not abort the
    /// run, so the sink is infallible and swallows its own errors.
    ///
    /// A run resumed from any such snapshot (via
    /// [`Simulation::resume`]) continues byte-identical to this one.
    pub fn try_run_inspect_checkpointed(
        mut self,
        every: u64,
        sink: &mut dyn FnMut(&[u8]),
    ) -> Result<(RunOutput, Simulation), SimError> {
        let mut sched: Scheduler<Ev> = Scheduler::new();
        self.bootstrap(&mut sched)?;
        self.drive(&mut sched, Some((every, sink)))?;
        Ok(self.finish(sched))
    }

    /// The shared event loop: pops and dispatches until the deadline,
    /// quiescence or the completion target, optionally emitting a
    /// snapshot every `every` fired events.
    ///
    /// The checkpoint cadence is keyed on [`Scheduler::events_fired`],
    /// which a restored run resumes exactly, so a resumed run emits
    /// checkpoints at the same event counts as an uninterrupted one.
    fn drive(
        &mut self,
        sched: &mut Scheduler<Ev>,
        mut checkpoint: CheckpointHook<'_>,
    ) -> Result<(), SimError> {
        let deadline = self.cfg.hang_deadline_secs.map(SimTime::from_secs_f64);
        loop {
            let next = match deadline {
                Some(d) => sched.pop_until(d),
                None => sched.pop(),
            };
            let Some((_, ev)) = next else { break };
            self.handle(sched, ev)?;
            if self.completed_recorded >= self.target_completed {
                break;
            }
            if let Some((every, ref mut sink)) = checkpoint {
                if every > 0 && sched.events_fired().is_multiple_of(every) {
                    let bytes = crate::snapshot::encode(self, sched);
                    sink(&bytes);
                }
            }
        }
        Ok(())
    }

    /// Audits the quiesced world and assembles the [`RunOutput`].
    fn finish(mut self, sched: Scheduler<Ev>) -> (RunOutput, Simulation) {
        let audit = self.audit(&sched);
        let finished_at = sched.now();
        self.metrics.recorded_duration = finished_at.saturating_sub(self.warmed_at);
        let (pos_cache_hits, pos_cache_misses) = self.field.cache_stats();
        let out = RunOutput {
            report: self.metrics.report(),
            warmed_at: self.warmed_at,
            finished_at,
            events: sched.events_fired(),
            downlink_utilisation: self
                .server
                .downlink_utilisation(finished_at.max(SimTime::from_micros(1))),
            events_per_sec: 0.0,
            pos_cache_hits,
            pos_cache_misses,
            peak_heap_depth: sched.peak_depth(),
            fault_stats: self.fstats,
            audit,
            metrics: self.metrics.clone(),
        };
        (out, self)
    }

    /// Reconstructs a mid-run simulation from a snapshot produced by a
    /// checkpointed run of the *same* configuration.
    ///
    /// `cfg` must be the original run's configuration (the snapshot
    /// records its [fingerprint](SimConfig::canonical_fingerprint) and
    /// refuses a mismatch): all config-derived state is rebuilt from it
    /// deterministically, then the history-dependent state is overlaid
    /// from the snapshot bytes. The returned [`ResumedSimulation`]
    /// continues byte-identical to the uninterrupted run.
    pub fn resume(
        cfg: SimConfig,
        bytes: &[u8],
    ) -> Result<ResumedSimulation, crate::snapshot::SnapshotError> {
        crate::snapshot::decode(cfg, bytes)
    }

    /// Runs to completion and returns the collected metrics.
    pub fn run(self) -> RunOutput {
        self.run_inspect().0
    }

    /// Bounds-checked host lookup: an out-of-range index is a simulator
    /// bug surfaced as a typed [`SimError`] instead of an indexing
    /// panic.
    fn host(&self, mh: usize, context: &'static str) -> Result<&Host, SimError> {
        self.hosts
            .get(mh)
            .ok_or(SimError::HostIndex { mh, context })
    }

    /// Mutable [`Simulation::host`].
    fn host_mut(&mut self, mh: usize, context: &'static str) -> Result<&mut Host, SimError> {
        self.hosts
            .get_mut(mh)
            .ok_or(SimError::HostIndex { mh, context })
    }

    fn bootstrap(&mut self, sched: &mut Scheduler<Ev>) -> Result<(), SimError> {
        for mh in 0..self.hosts.len() {
            let rng = self.host_rngs.get_mut(mh).ok_or(SimError::HostIndex {
                mh,
                context: "bootstrap think draw",
            })?;
            let think = rng.exponential(self.cfg.mean_interarrival_secs);
            sched.schedule_at(SimTime::from_secs_f64(think), Ev::NextRequest { mh });
            if self.cfg.scheme == Scheme::GroCoca {
                sched.schedule_at(
                    SimTime::from_secs_f64(self.cfg.tau_p_secs),
                    Ev::ExplicitUpdate { mh },
                );
            }
        }
        if self.cfg.update_rate > 0.0 {
            let gap = self.rng_updates.exponential(1.0 / self.cfg.update_rate);
            sched.schedule_at(SimTime::from_secs_f64(gap), Ev::DbUpdate);
            sched.schedule_at(
                SimTime::from_secs_f64(self.cfg.aging_period_secs),
                Ev::AgeIntervals,
            );
        }
        sched.schedule_at(
            SimTime::from_secs_f64(self.cfg.warmup_cap_secs),
            Ev::WarmupCap,
        );
        if self.cfg.account_beacons || self.cfg.ndp_tables {
            sched.schedule_at(
                SimTime::from_secs_f64(self.cfg.beacon_period_secs),
                Ev::BeaconTick,
            );
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Event dispatch
    // ------------------------------------------------------------------

    fn handle(&mut self, sched: &mut Scheduler<Ev>, ev: Ev) -> Result<(), SimError> {
        self.last_event_time = sched.now();
        match ev {
            Ev::NextRequest { mh } => self.on_next_request(sched, mh)?,
            Ev::PeerRequest {
                requester,
                gen,
                peer,
                item,
                updates,
            } => self.on_peer_request(sched, requester, gen, peer, item, updates),
            Ev::Reply {
                requester,
                gen,
                from,
            } => self.on_reply(sched, requester, gen, from)?,
            Ev::Retrieve { requester, gen } => self.on_retrieve(sched, requester, gen)?,
            Ev::PeerData {
                requester,
                gen,
                from,
                expiry,
            } => self.on_peer_data(sched, requester, gen, from, expiry)?,
            Ev::SearchTimeout { requester, gen } => {
                self.on_search_timeout(sched, requester, gen)?
            }
            Ev::RetrieveTimeout { requester, gen } => {
                self.on_retrieve_timeout(sched, requester, gen)?
            }
            Ev::ServerRetry { mh, gen } => self.on_server_retry(sched, mh, gen)?,
            Ev::ServerRequest { mh, gen } => self.on_server_request(sched, mh, gen)?,
            Ev::ServerData {
                mh,
                gen,
                expiry,
                t_r,
                changes,
            } => self.on_server_data(sched, mh, gen, expiry, t_r, changes)?,
            Ev::ValidationRequest { mh, gen } => self.on_validation_request(sched, mh, gen)?,
            Ev::ValidationOk {
                mh,
                gen,
                expiry,
                t_r,
                changes,
            } => self.on_validation_ok(sched, mh, gen, expiry, t_r, changes)?,
            Ev::SigRequest { from, to, members } => self.on_sig_request(sched, from, to, members),
            Ev::SigReply { from, to, sig } => self.on_sig_reply(from, to, sig),
            Ev::Reconnect { mh } => self.on_reconnect(sched, mh),
            Ev::ReconnectSync { mh } => self.on_reconnect_sync(sched, mh)?,
            Ev::ReconnectSyncDone { mh, members } => {
                self.on_reconnect_sync_done(sched, mh, members)
            }
            Ev::ExplicitUpdate { mh } => self.on_explicit_update(sched, mh),
            Ev::ExplicitUpdateAtMss { mh, sample } => {
                self.on_explicit_update_at_mss(sched, mh, sample)
            }
            Ev::MembershipNews { mh, changes } => self.apply_membership(sched, mh, &changes)?,
            Ev::DbUpdate => self.on_db_update(sched),
            Ev::AgeIntervals => self.on_age_intervals(sched),
            Ev::WarmupCap => self.begin_recording(sched.now()),
            Ev::BeaconTick => self.on_beacon_tick(sched),
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Fault injection (deterministic substream 4) & hardening timers
    // ------------------------------------------------------------------

    /// Draws the loss channel for one P2P delivery. The sender has
    /// already transmitted (and been charged); a `true` result means the
    /// receiver never decodes the frame. Never draws when the loss
    /// channel is off, keeping the zero-fault profile byte-identical.
    fn fault_lost(&mut self) -> bool {
        let p = self.cfg.faults.p2p_loss;
        if p > 0.0 && self.fault_rng.chance(p) {
            self.fstats.p2p_lost += 1;
            true
        } else {
            false
        }
    }

    /// Draws the corruption channel for one data-bearing P2P payload. A
    /// `true` result models a payload that fails the receiver's
    /// signature/integrity check and is dropped.
    fn fault_corrupted(&mut self) -> bool {
        let p = self.cfg.faults.corruption;
        if p > 0.0 && self.fault_rng.chance(p) {
            self.fstats.corrupted += 1;
            true
        } else {
            false
        }
    }

    /// Any delivered P2P frame is proof the receiving host is not
    /// partitioned: its own reply-less searches were bad luck (or cold
    /// caches elsewhere), not isolation. Clears the partition-evidence
    /// streak and ends solo mode early, so mild loss rates don't push
    /// well-connected hosts into needless server-only operation. Under
    /// total loss no frame is ever delivered, so solo convergence to
    /// conventional caching is untouched.
    fn note_peer_traffic(&mut self, h: usize) {
        if !self.faults_active {
            return;
        }
        let host = &mut self.hosts[h];
        host.consecutive_search_failures = 0;
        if host.solo_requests_left > 0 {
            host.solo_requests_left = 0;
            self.fstats.solo_exits += 1;
        }
    }

    /// Whether the MSS drops a request arriving at `now` (outage
    /// window). Counts the drop.
    fn server_outage_drop(&mut self, now: SimTime) -> bool {
        if self.faults_active && self.cfg.faults.server_down(now.as_secs_f64()) {
            self.fstats.outage_drops += 1;
            true
        } else {
            false
        }
    }

    /// The retrieve-phase watchdog delay for retry `attempt`: the
    /// retrieve + data transmission times plus the initial-timeout
    /// margin, backed off exponentially.
    fn retrieve_retry_delay(&self, attempt: u32) -> SimTime {
        let base = transmission_time(self.cfg.msg.p2p_retrieve, self.cfg.p2p_kbps)
            .saturating_add(transmission_time(
                self.cfg.msg.data_message(),
                self.cfg.p2p_kbps,
            ))
            .saturating_add(self.cfg.initial_timeout());
        let factor = self.cfg.retry.backoff_factor.powi(attempt.min(16) as i32);
        SimTime::from_secs_f64(base.as_secs_f64() * factor)
    }

    /// The server watchdog delay for retry `attempt`: exponential
    /// backoff from the configured base, capped at the ceiling so
    /// retries keep probing through long outages without runaway gaps.
    fn server_retry_delay(&self, attempt: u32) -> SimTime {
        let secs = (self.cfg.retry.server_retry_secs
            * self.cfg.retry.backoff_factor.powi(attempt.min(30) as i32))
        .min(self.cfg.retry.max_backoff_secs);
        SimTime::from_secs_f64(secs)
    }

    /// Arms the server-interaction watchdog on `mh`'s request (no-op
    /// under the zero-fault profile).
    fn arm_server_watchdog(
        &mut self,
        sched: &mut Scheduler<Ev>,
        mh: usize,
        gen: u64,
    ) -> Result<(), SimError> {
        if !self.faults_active {
            return Ok(());
        }
        let attempt = self
            .host_mut(mh, "server watchdog")?
            .pending_mut(gen)
            .map_or(0, |p| p.attempt);
        let delay = self.server_retry_delay(attempt);
        let wd = sched.schedule_after(delay, Ev::ServerRetry { mh, gen });
        if let Some(p) = self.host_mut(mh, "server watchdog")?.pending_mut(gen) {
            p.watchdog = Some(wd);
        }
        Ok(())
    }

    /// Mid-transfer departure: `provider` drops off the network at the
    /// instant it would start streaming data. Only idle providers (no
    /// pending request of their own) depart, preserving the invariant
    /// that a disconnected host has nothing in flight; the ordinary
    /// reconnection path brings them back.
    fn maybe_depart_provider(&mut self, sched: &mut Scheduler<Ev>, provider: usize) -> bool {
        let p = self.cfg.faults.departure;
        if p <= 0.0 || self.hosts[provider].pending.is_some() || !self.fault_rng.chance(p) {
            return false;
        }
        self.fstats.departures += 1;
        let now = sched.now();
        self.hosts[provider].connected = false;
        self.active[provider] = false;
        self.trace(now, provider, TraceKind::Disconnected);
        let dur = self
            .fault_rng
            .uniform_f64(self.cfg.disc_time.0, self.cfg.disc_time.1);
        sched.schedule_after(SimTime::from_secs_f64(dur), Ev::Reconnect { mh: provider });
        true
    }

    /// The retrieve watchdog fired: the promised data never arrived.
    /// Bounded retransmission with exponential backoff, then the server
    /// fallback.
    fn on_retrieve_timeout(
        &mut self,
        sched: &mut Scheduler<Ev>,
        requester: usize,
        gen: u64,
    ) -> Result<(), SimError> {
        if !self.hosts[requester].pending_matches(gen, Phase::Retrieving) {
            return Ok(());
        }
        let (target, attempt) = {
            let p = self.hosts[requester]
                .pending
                .as_ref()
                .ok_or(SimError::MissingPending {
                    mh: requester,
                    context: "retrieve timeout",
                })?;
            (
                p.target.ok_or(SimError::MissingTarget { mh: requester })?,
                p.attempt,
            )
        };
        if attempt >= self.cfg.retry.max_retrieve_retries {
            if self.warm {
                self.metrics.retrieve_fallbacks += 1;
            }
            self.enter_server_phase(sched, requester, gen)?;
            return Ok(());
        }
        self.fstats.retrieve_retries += 1;
        self.trace_now(requester, TraceKind::Retried);
        let now = sched.now();
        let done = self.p2p.send(requester, now, self.cfg.msg.p2p_retrieve);
        self.charge_p2p(requester, target, self.cfg.msg.p2p_retrieve, now);
        if !self.fault_lost() {
            sched.schedule_at(done, Ev::Retrieve { requester, gen });
        }
        let delay = self.retrieve_retry_delay(attempt + 1);
        let wd = sched.schedule_after(delay, Ev::RetrieveTimeout { requester, gen });
        if let Some(p) = self.hosts[requester].pending_mut(gen) {
            p.attempt = attempt + 1;
            p.watchdog = Some(wd);
        }
        Ok(())
    }

    /// The server watchdog fired: the interaction produced no response
    /// (dropped in an outage window, or still queued). Validations are
    /// bounded — after `max_validation_retries` the host degrades
    /// gracefully by serving its stale local copy. Plain fetches retry
    /// with capped backoff until served: the MSS is the authority of
    /// last resort and outage windows are finite by construction, so
    /// termination is guaranteed.
    fn on_server_retry(
        &mut self,
        sched: &mut Scheduler<Ev>,
        mh: usize,
        gen: u64,
    ) -> Result<(), SimError> {
        let (phase, attempt, item) = match self.hosts[mh].pending.as_ref() {
            Some(p) if p.gen == gen && matches!(p.phase, Phase::Server | Phase::Validating) => {
                (p.phase, p.attempt, p.item)
            }
            _ => return Ok(()),
        };
        let now = sched.now();
        if phase == Phase::Validating && attempt >= self.cfg.retry.max_validation_retries {
            // Graceful degradation: the copy is stale, not wrong — serve
            // it rather than hang on an unreachable validator.
            self.fstats.stale_serves += 1;
            self.hosts[mh].cache.get(item, now);
            self.complete(sched, mh, Outcome::Local, false)?;
            return Ok(());
        }
        self.fstats.server_retries += 1;
        self.trace_now(mh, TraceKind::Retried);
        let bytes = match phase {
            Phase::Server => self.cfg.msg.server_request,
            _ => self.cfg.msg.validation,
        };
        let arr = self.server.request_arrival(now, bytes);
        match phase {
            Phase::Server => sched.schedule_at(arr, Ev::ServerRequest { mh, gen }),
            _ => sched.schedule_at(arr, Ev::ValidationRequest { mh, gen }),
        };
        self.hosts[mh].last_server_contact = now;
        let delay = self.server_retry_delay(attempt + 1);
        let wd = sched.schedule_after(delay, Ev::ServerRetry { mh, gen });
        if let Some(p) = self.hosts[mh].pending_mut(gen) {
            p.attempt = attempt + 1;
            p.watchdog = Some(wd);
        }
        Ok(())
    }

    /// The end-of-run invariant audit (see [`AuditReport`]): every
    /// in-flight request must still have a live event able to advance
    /// it, every idle host a wake-up, every disconnected host a
    /// reconnection — and the completion target must have been reached
    /// before any hang deadline.
    fn audit(&self, sched: &Scheduler<Ev>) -> AuditReport {
        let n = self.hosts.len();
        let reached_target = self.completed_recorded >= self.target_completed;
        // A live event "advances" a host when it can move the host's
        // *current* request (gen-matched protocol events) or its
        // lifecycle (wake-ups, reconnections). Stale events for old
        // generations linger in the heap by design and must not count.
        let mut advances = vec![false; n];
        let mut wakes = vec![false; n];
        let mut reconnects = vec![false; n];
        sched.for_each_pending(|_, ev| {
            let request = match *ev {
                Ev::PeerRequest { requester, gen, .. }
                | Ev::Reply { requester, gen, .. }
                | Ev::Retrieve { requester, gen }
                | Ev::PeerData { requester, gen, .. }
                | Ev::SearchTimeout { requester, gen }
                | Ev::RetrieveTimeout { requester, gen } => Some((requester, gen)),
                Ev::ServerRequest { mh, gen }
                | Ev::ServerData { mh, gen, .. }
                | Ev::ValidationRequest { mh, gen }
                | Ev::ValidationOk { mh, gen, .. }
                | Ev::ServerRetry { mh, gen } => Some((mh, gen)),
                Ev::NextRequest { mh } => {
                    if let Some(w) = wakes.get_mut(mh) {
                        *w = true;
                    }
                    None
                }
                Ev::Reconnect { mh } => {
                    if let Some(r) = reconnects.get_mut(mh) {
                        *r = true;
                    }
                    None
                }
                _ => None,
            };
            if let Some((mh, gen)) = request {
                if self.hosts.get(mh).is_some_and(|h| h.gen == gen) {
                    if let Some(a) = advances.get_mut(mh) {
                        *a = true;
                    }
                }
            }
        });
        let mut report = AuditReport {
            hung: !reached_target && !sched.is_empty(),
            starved: !reached_target && sched.is_empty(),
            ..AuditReport::default()
        };
        for (i, host) in self.hosts.iter().enumerate() {
            // The flag vectors were built with one slot per host, so a
            // miss is unreachable; `false` (the pessimistic reading)
            // keeps the audit panic-free regardless.
            let advanced = advances.get(i).copied().unwrap_or(false);
            let woke = wakes.get(i).copied().unwrap_or(false);
            let reconnecting = reconnects.get(i).copied().unwrap_or(false);
            if host.pending.is_some() {
                report.in_flight += 1;
                if !advanced {
                    report.wedged_hosts.push(i);
                }
            } else if !host.connected {
                if !reconnecting {
                    report.lost_hosts.push(i);
                }
            } else if !woke {
                report.lost_hosts.push(i);
            }
        }
        report
    }

    // ------------------------------------------------------------------
    // Request lifecycle
    // ------------------------------------------------------------------

    fn on_next_request(&mut self, sched: &mut Scheduler<Ev>, mh: usize) -> Result<(), SimError> {
        if !self.hosts[mh].connected {
            return Ok(()); // reconnection reschedules
        }
        let now = sched.now();
        let group = self.field.group_of(mh);
        let item = self.pattern.sample(group, &mut self.host_rngs[mh]);
        let host = &mut self.hosts[mh];
        host.gen += 1;
        let gen = host.gen;
        host.pending = Some(Pending {
            gen,
            item,
            issued_at: now,
            recorded: self.warm,
            phase: Phase::Searching,
            broadcast_at: now,
            timeout: None,
            target: None,
            validating_t_r: SimTime::ZERO,
            attempt: 0,
            watchdog: None,
        });
        self.trace(now, mh, TraceKind::RequestIssued { item });
        let host = &mut self.hosts[mh];

        // 1. Local cache.
        if let Some(entry) = host.cache.peek(item).copied() {
            if entry.is_valid(now) {
                host.cache.get(item, now);
                self.trace(now, mh, TraceKind::LocalHit);
                self.complete(sched, mh, Outcome::Local, false)?;
            } else {
                // TTL expired: consult the MSS (Section IV.F).
                let host = &mut self.hosts[mh];
                let p = host.pending.as_mut().ok_or(SimError::MissingPending {
                    mh,
                    context: "validation of a request just created",
                })?;
                p.phase = Phase::Validating;
                p.validating_t_r = entry.retrieved_at;
                if self.warm {
                    self.metrics.validations += 1;
                }
                let arr = self.server.request_arrival(now, self.cfg.msg.validation);
                self.hosts[mh].last_server_contact = now;
                self.trace(now, mh, TraceKind::ValidationStarted);
                sched.schedule_at(arr, Ev::ValidationRequest { mh, gen });
                self.arm_server_watchdog(sched, mh, gen)?;
            }
            return Ok(());
        }

        // 2. Local miss: peer search or straight to the MSS. A host in
        // solo mode (graceful degradation after repeated silent searches)
        // skips the hopeless search and pays the server price directly,
        // probing the peers again once the solo budget runs out.
        if self.cfg.scheme.is_cooperative() && self.should_search_peers(mh, item) {
            if self.faults_active && self.hosts[mh].solo_requests_left > 0 {
                self.hosts[mh].solo_requests_left -= 1;
                self.fstats.solo_skips += 1;
                self.enter_server_phase(sched, mh, gen)?;
            } else {
                self.start_search(sched, mh, gen, item)?;
            }
        } else {
            self.enter_server_phase(sched, mh, gen)?;
        }
        Ok(())
    }

    /// GroCoca's filtering mechanism: test the search signature against the
    /// peer signature; a host with no TCG members has no filter information
    /// and searches unconditionally (COCA behaviour).
    fn should_search_peers(&mut self, mh: usize, item: ItemId) -> bool {
        if self.cfg.scheme != Scheme::GroCoca || !self.cfg.toggles.signature_filter {
            return true;
        }
        let host = &self.hosts[mh];
        if host.tcg.is_empty() {
            return true;
        }
        let positions = data_positions(item.as_u64(), self.cfg.sigma, self.cfg.bloom_k);
        if host.peer_vector.covers(&positions) {
            true
        } else {
            if self.warm {
                self.metrics.filter_bypasses += 1;
            }
            self.trace_now(mh, TraceKind::FilterBypass);
            false
        }
    }

    /// Trace helper for spots where only a host is at hand; stamps the
    /// record with the last dispatched event's time.
    fn trace_now(&mut self, mh: usize, kind: TraceKind) {
        if let Some(tracer) = self.tracer.as_mut() {
            tracer.record(self.last_event_time, mh, kind);
        }
    }

    fn start_search(
        &mut self,
        sched: &mut Scheduler<Ev>,
        mh: usize,
        gen: u64,
        item: ItemId,
    ) -> Result<(), SimError> {
        let now = sched.now();
        let updates = if self.cfg.scheme == Scheme::GroCoca && self.cfg.toggles.piggyback_updates {
            let (ins, evs) = self.hosts[mh].take_update_lists();
            if ins.is_empty() && evs.is_empty() {
                None
            } else {
                Some(Rc::new((ins, evs)))
            }
        } else {
            None
        };
        let entries = updates.as_ref().map_or(0, |u| u.0.len() + u.1.len());
        let bytes = self.cfg.msg.request_with_updates(entries);
        let sent_done = self.p2p.send(mh, now, bytes);
        let reached = std::mem::take(&mut self.reach_scratch);
        let reached = self.broadcast_reach_into(mh, now, reached);
        self.charge_broadcast(mh, &reached, bytes);
        for &(peer, hop) in &reached {
            // Each broadcast leg draws the loss channel independently:
            // the frame was transmitted (and charged), the peer just
            // never decodes it.
            if self.fault_lost() {
                continue;
            }
            let at = self.p2p.broadcast_delivery(sent_done, bytes, hop);
            sched.schedule_at(
                at,
                Ev::PeerRequest {
                    requester: mh,
                    gen,
                    peer,
                    item,
                    updates: updates.clone(),
                },
            );
        }
        self.trace(
            now,
            mh,
            TraceKind::SearchStarted {
                peers_reached: reached.len(),
            },
        );
        self.reach_scratch = reached;
        let mut tau = self.search_timeout(mh);
        if self.faults_active {
            // Retried searches back off exponentially.
            let attempt = self.hosts[mh].pending.as_ref().map_or(0, |p| p.attempt);
            if attempt > 0 {
                let factor = self.cfg.retry.backoff_factor.powi(attempt.min(16) as i32);
                tau = SimTime::from_secs_f64(tau.as_secs_f64() * factor);
            }
        }
        let host = &mut self.hosts[mh];
        let p = host.pending.as_mut().ok_or(SimError::MissingPending {
            mh,
            context: "search on live request",
        })?;
        p.broadcast_at = now;
        p.timeout = Some(sched.schedule_after(tau, Ev::SearchTimeout { requester: mh, gen }));
        Ok(())
    }

    /// Who a broadcast from `mh` reaches within `HopDist` hops: exact
    /// geometry by default (grid-accelerated BFS into the reusable
    /// buffer), or the (possibly stale) NDP link table when `ndp_tables`
    /// is enabled. Takes and returns the buffer so callers can keep it in
    /// `reach_scratch` without fighting the borrow checker.
    fn broadcast_reach_into(
        &mut self,
        mh: usize,
        now: SimTime,
        mut out: Vec<(usize, u32)>,
    ) -> Vec<(usize, u32)> {
        match &self.ndp {
            Some(ndp) => {
                out.clear();
                out.extend(
                    ndp.reachable_within_hops(mh, self.cfg.hop_dist)
                        .into_iter()
                        .filter(|&(peer, _)| self.active.get(peer).copied().unwrap_or(false)),
                );
            }
            None => self.field.reachable_within_hops_into(
                mh,
                self.cfg.tran_range,
                self.cfg.hop_dist,
                now,
                &self.active,
                &mut out,
            ),
        }
        out
    }

    /// The adaptive timeout of Section III: τ = τ̄ + φ′·σ_τ, floored at the
    /// initial estimate (the HopDist round-trip scaled by the congestion
    /// factor φ). The floor keeps adaptivity one-sided: τ *grows* under
    /// congestion but never shrinks below the design baseline — without it,
    /// near-deterministic reply delays make σ_τ ≈ 0 and the timeout races
    /// (and, by FIFO tie-break, beats) every reply it has ever observed.
    fn search_timeout(&self, mh: usize) -> SimTime {
        let stats = &self.hosts[mh].search_stats;
        let baseline = self.cfg.initial_timeout();
        if stats.count() == 0 {
            baseline
        } else {
            SimTime::from_secs_f64(stats.mean() + self.cfg.phi_deviation * stats.stddev())
                .max(baseline)
        }
    }

    fn on_peer_request(
        &mut self,
        sched: &mut Scheduler<Ev>,
        requester: usize,
        gen: u64,
        peer: usize,
        item: ItemId,
        updates: Option<Rc<(Vec<u32>, Vec<u32>)>>,
    ) {
        if !self.hosts[peer].connected {
            return;
        }
        self.note_peer_traffic(peer);
        let now = sched.now();
        // Piggybacked signature updates apply when the requester is in the
        // receiver's TCG (Section IV.D.4).
        if let Some(u) = updates {
            if self.hosts[peer].tcg.contains(&requester) {
                self.hosts[peer].peer_vector.apply_update(&u.0, &u.1);
            }
        }
        // A peer only turns in a TTL-valid copy (Section IV.F).
        if self.hosts[peer].has_valid(item, now) {
            let done = self.p2p.send(peer, now, self.cfg.msg.p2p_reply);
            self.charge_p2p(peer, requester, self.cfg.msg.p2p_reply, now);
            if self.fault_lost() {
                return;
            }
            sched.schedule_at(
                done,
                Ev::Reply {
                    requester,
                    gen,
                    from: peer,
                },
            );
        }
    }

    fn on_reply(
        &mut self,
        sched: &mut Scheduler<Ev>,
        requester: usize,
        gen: u64,
        from: usize,
    ) -> Result<(), SimError> {
        if !self.hosts[requester].pending_matches(gen, Phase::Searching) {
            return Ok(()); // late or duplicate reply
        }
        let now = sched.now();
        let missing = SimError::MissingPending {
            mh: requester,
            context: "peer reply",
        };
        let host = &mut self.hosts[requester];
        let p = host.pending.as_mut().ok_or(missing)?;
        let observed = now.saturating_sub(p.broadcast_at);
        host.search_stats.record(observed.as_secs_f64());
        let p = self.hosts[requester].pending.as_mut().ok_or(missing)?;
        if let Some(id) = p.timeout.take() {
            sched.cancel(id);
        }
        p.phase = Phase::Retrieving;
        p.target = Some(from);
        p.attempt = 0;
        self.note_peer_traffic(requester);
        self.trace(now, requester, TraceKind::ReplyAccepted { from });
        let done = self.p2p.send(requester, now, self.cfg.msg.p2p_retrieve);
        self.charge_p2p(requester, from, self.cfg.msg.p2p_retrieve, now);
        if !self.fault_lost() {
            sched.schedule_at(done, Ev::Retrieve { requester, gen });
        }
        if self.faults_active {
            // The retrieve watchdog backstops every way the data can
            // fail to arrive: lost retrieve, lost or corrupted data,
            // provider departure.
            let delay = self.retrieve_retry_delay(0);
            let wd = sched.schedule_after(delay, Ev::RetrieveTimeout { requester, gen });
            if let Some(p) = self.hosts[requester].pending_mut(gen) {
                p.watchdog = Some(wd);
            }
        }
        Ok(())
    }

    fn on_retrieve(
        &mut self,
        sched: &mut Scheduler<Ev>,
        requester: usize,
        gen: u64,
    ) -> Result<(), SimError> {
        if !self.hosts[requester].pending_matches(gen, Phase::Retrieving) {
            return Ok(());
        }
        let now = sched.now();
        let (item, target) = {
            let p = self.hosts[requester]
                .pending
                .as_ref()
                .ok_or(SimError::MissingPending {
                    mh: requester,
                    context: "retrieve send",
                })?;
            (
                p.item,
                p.target.ok_or(SimError::MissingTarget { mh: requester })?,
            )
        };
        if !self.hosts[target].connected || !self.hosts[target].has_valid(item, now) {
            // The target vanished or evicted/expired the copy since its
            // reply: fall back to the MSS.
            if self.warm {
                self.metrics.retrieve_fallbacks += 1;
            }
            self.enter_server_phase(sched, requester, gen)?;
            return Ok(());
        }
        // Mid-transfer departure: the provider drops off the network at
        // the instant it would start streaming. The requester's retrieve
        // watchdog retries, finds the target gone and falls back to the
        // MSS; the provider reconnects through the ordinary path.
        if self.faults_active && self.maybe_depart_provider(sched, target) {
            return Ok(());
        }
        // Cooperative admission, provider side: a TCG member serving the
        // item refreshes its last-access timestamp so the copy is retained
        // longer in the global cache.
        if self.cfg.scheme == Scheme::GroCoca
            && self.cfg.toggles.admission_control
            && self.hosts[target].tcg.contains(&requester)
        {
            self.hosts[target].cache.touch(item, now);
        }
        let expiry = self.hosts[target]
            .cache
            .peek(item)
            .ok_or(SimError::MissingCacheEntry {
                mh: target,
                context: "validity just checked",
            })?
            .expires_at;
        let bytes = self.cfg.msg.data_message();
        let done = self.p2p.send(target, now, bytes);
        self.charge_p2p(target, requester, bytes, now);
        if self.fault_lost() {
            return Ok(());
        }
        sched.schedule_at(
            done,
            Ev::PeerData {
                requester,
                gen,
                from: target,
                expiry,
            },
        );
        Ok(())
    }

    fn on_peer_data(
        &mut self,
        sched: &mut Scheduler<Ev>,
        requester: usize,
        gen: u64,
        from: usize,
        expiry: SimTime,
    ) -> Result<(), SimError> {
        if !self.hosts[requester].pending_matches(gen, Phase::Retrieving) {
            return Ok(());
        }
        // A corrupted payload fails the signature/integrity check and is
        // dropped; the retrieve watchdog recovers.
        if self.fault_corrupted() {
            return Ok(());
        }
        let item = self.hosts[requester]
            .pending
            .as_ref()
            .ok_or(SimError::MissingPending {
                mh: requester,
                context: "peer data arrival",
            })?
            .item;
        let from_tcg =
            self.cfg.scheme == Scheme::GroCoca && self.hosts[requester].tcg.contains(&from);
        self.admit_item(sched, requester, item, expiry, Some((from, from_tcg)))?;
        if self.cfg.scheme == Scheme::GroCoca {
            self.hosts[requester].peer_retrieved_log.push(item);
        }
        self.trace(sched.now(), requester, TraceKind::GlobalHit { from });
        self.complete(sched, requester, Outcome::Global, from_tcg)
    }

    fn on_search_timeout(
        &mut self,
        sched: &mut Scheduler<Ev>,
        requester: usize,
        gen: u64,
    ) -> Result<(), SimError> {
        if !self.hosts[requester].pending_matches(gen, Phase::Searching) {
            return Ok(());
        }
        if self.warm {
            self.metrics.search_timeouts += 1;
        }
        self.trace(sched.now(), requester, TraceKind::SearchTimedOut);
        if self.faults_active {
            let (item, attempt) = {
                let p = self.hosts[requester]
                    .pending
                    .as_ref()
                    .ok_or(SimError::MissingPending {
                        mh: requester,
                        context: "search timeout",
                    })?;
                (p.item, p.attempt)
            };
            if attempt < self.cfg.retry.max_search_retries {
                // Bounded rebroadcast: the whole search may have been
                // lost on the air; one more round with a backed-off τ
                // is cheaper than a premature server fallback.
                self.fstats.search_retries += 1;
                self.trace_now(requester, TraceKind::Retried);
                if let Some(p) = self.hosts[requester].pending_mut(gen) {
                    p.attempt = attempt + 1;
                }
                self.start_search(sched, requester, gen, item)?;
                return Ok(());
            }
            // A terminally silent search: after enough consecutive ones
            // the host assumes it is partitioned and goes solo. Streaks
            // only count once the host's own cache has filled — while
            // everyone is cold, empty searches are the norm, not
            // partition evidence, and condemning hosts to solo mode
            // during warm-up would wreck cooperation for the whole run.
            let host = &mut self.hosts[requester];
            if host.cache_filled {
                host.consecutive_search_failures += 1;
                if host.consecutive_search_failures >= self.cfg.retry.solo_after_failures
                    && host.solo_requests_left == 0
                {
                    host.solo_requests_left = self.cfg.retry.solo_probe_every;
                    self.fstats.solo_entries += 1;
                }
            }
        }
        self.enter_server_phase(sched, requester, gen)?;
        Ok(())
    }

    fn enter_server_phase(
        &mut self,
        sched: &mut Scheduler<Ev>,
        mh: usize,
        gen: u64,
    ) -> Result<(), SimError> {
        let now = sched.now();
        let host = self.host_mut(mh, "server phase")?;
        let Some(p) = host.pending_mut(gen) else {
            return Ok(());
        };
        p.phase = Phase::Server;
        p.timeout = None;
        p.attempt = 0;
        let stale_watchdog = p.watchdog.take();
        host.last_server_contact = now;
        if let Some(id) = stale_watchdog {
            sched.cancel(id);
        }
        self.trace(now, mh, TraceKind::ServerContacted);
        let arr = self
            .server
            .request_arrival(now, self.cfg.msg.server_request);
        sched.schedule_at(arr, Ev::ServerRequest { mh, gen });
        self.arm_server_watchdog(sched, mh, gen)
    }

    fn on_server_request(
        &mut self,
        sched: &mut Scheduler<Ev>,
        mh: usize,
        gen: u64,
    ) -> Result<(), SimError> {
        if !self.hosts[mh].pending_matches(gen, Phase::Server) {
            return Ok(());
        }
        if self.server_outage_drop(sched.now()) {
            return Ok(());
        }
        let now = sched.now();
        let item = self.hosts[mh]
            .pending
            .as_ref()
            .ok_or(SimError::MissingPending {
                mh,
                context: "server request arrival",
            })?
            .item;
        let changes = self.mss_observe(mh, Some(item), now);
        let expiry = self.db.expiry_for(item, now);
        let bytes =
            self.cfg.msg.data_message() + self.cfg.msg.per_list_entry * changes.len() as u64;
        let arr = self.server.response_arrival(now, bytes);
        sched.schedule_at(
            arr,
            Ev::ServerData {
                mh,
                gen,
                expiry,
                t_r: now,
                changes: Rc::new(changes),
            },
        );
        Ok(())
    }

    fn on_server_data(
        &mut self,
        sched: &mut Scheduler<Ev>,
        mh: usize,
        gen: u64,
        expiry: SimTime,
        t_r: SimTime,
        changes: Rc<Vec<MembershipChange>>,
    ) -> Result<(), SimError> {
        let matches_server = self.hosts[mh].pending_matches(gen, Phase::Server)
            || self.hosts[mh].pending_matches(gen, Phase::Validating);
        if !matches_server {
            return Ok(());
        }
        self.apply_membership(sched, mh, &changes)?;
        let item = self.hosts[mh]
            .pending
            .as_ref()
            .ok_or(SimError::MissingPending {
                mh,
                context: "server data arrival",
            })?
            .item;
        self.admit_item(sched, mh, item, expiry, None)?;
        // Record the true retrieve time for future validations.
        self.hosts[mh].cache.set_expiry(item, expiry, t_r);
        self.trace(sched.now(), mh, TraceKind::ServerDelivered);
        self.complete(sched, mh, Outcome::Server, false)
    }

    // ------------------------------------------------------------------
    // Cache consistency (Section IV.F)
    // ------------------------------------------------------------------

    fn on_validation_request(
        &mut self,
        sched: &mut Scheduler<Ev>,
        mh: usize,
        gen: u64,
    ) -> Result<(), SimError> {
        if !self.hosts[mh].pending_matches(gen, Phase::Validating) {
            return Ok(());
        }
        if self.server_outage_drop(sched.now()) {
            return Ok(());
        }
        let now = sched.now();
        let (item, t_r) = {
            let p = self.hosts[mh]
                .pending
                .as_ref()
                .ok_or(SimError::MissingPending {
                    mh,
                    context: "validation request arrival",
                })?;
            (p.item, p.validating_t_r)
        };
        let changes = Rc::new(self.mss_observe(mh, Some(item), now));
        let expiry = self.db.expiry_for(item, now);
        if self.db.modified_since(item, t_r) {
            // Fresh copy required: full data message downlink.
            if self.warm {
                self.metrics.validation_refreshes += 1;
            }
            let bytes =
                self.cfg.msg.data_message() + self.cfg.msg.per_list_entry * changes.len() as u64;
            let arr = self.server.response_arrival(now, bytes);
            sched.schedule_at(
                arr,
                Ev::ServerData {
                    mh,
                    gen,
                    expiry,
                    t_r: now,
                    changes,
                },
            );
        } else {
            let bytes =
                self.cfg.msg.validation + self.cfg.msg.per_list_entry * changes.len() as u64;
            let arr = self.server.response_arrival(now, bytes);
            sched.schedule_at(
                arr,
                Ev::ValidationOk {
                    mh,
                    gen,
                    expiry,
                    t_r: now,
                    changes,
                },
            );
        }
        Ok(())
    }

    fn on_validation_ok(
        &mut self,
        sched: &mut Scheduler<Ev>,
        mh: usize,
        gen: u64,
        expiry: SimTime,
        t_r: SimTime,
        changes: Rc<Vec<MembershipChange>>,
    ) -> Result<(), SimError> {
        if !self.hosts[mh].pending_matches(gen, Phase::Validating) {
            return Ok(());
        }
        self.apply_membership(sched, mh, &changes)?;
        let now = sched.now();
        let item = self.hosts[mh]
            .pending
            .as_ref()
            .ok_or(SimError::MissingPending {
                mh,
                context: "validation reply",
            })?
            .item;
        let host = &mut self.hosts[mh];
        host.cache.set_expiry(item, expiry, t_r);
        host.cache.get(item, now);
        self.complete(sched, mh, Outcome::Local, false)
    }

    // ------------------------------------------------------------------
    // Admission control & cooperative replacement (Section IV.E)
    // ------------------------------------------------------------------

    /// Inserts a freshly obtained item, applying GroCoca's cooperative
    /// admission control and replacement when enabled. `provider` is
    /// `Some((peer, in_tcg))` for global hits, `None` for server copies.
    fn admit_item(
        &mut self,
        sched: &mut Scheduler<Ev>,
        mh: usize,
        item: ItemId,
        expiry: SimTime,
        provider: Option<(usize, bool)>,
    ) -> Result<(), SimError> {
        let now = sched.now();
        let grococa = self.cfg.scheme == Scheme::GroCoca;
        let host = self.host_mut(mh, "admission")?;
        if host.cache.contains(item) {
            host.cache.insert(item, now, expiry); // refresh in place
            return Ok(());
        }
        if host.cache.is_full() {
            // Cooperative admission: an item readily available from a TCG
            // member is not worth a replica.
            if grococa
                && self.cfg.toggles.admission_control
                && provider.is_some_and(|(_, in_tcg)| in_tcg)
            {
                return Ok(());
            }
            let victim = if grococa && self.cfg.toggles.cooperative_replacement {
                self.coop_victim(mh)?
            } else {
                self.host(mh, "admission victim")?
                    .cache
                    .victim_key()
                    .ok_or(SimError::NoVictim { mh })?
            };
            let host = self.host_mut(mh, "admission evict")?;
            host.cache.insert_evicting(item, now, expiry, victim);
            if grococa {
                host.note_evict(victim);
                host.note_insert(item);
            }
        } else {
            let host = self.host_mut(mh, "admission insert")?;
            host.cache.insert(item, now, expiry);
            if grococa {
                host.note_insert(item);
            }
            if !host.cache_filled && host.cache.is_full() {
                host.cache_filled = true;
                self.full_caches += 1;
                if self.full_caches == self.hosts.len() && !self.warm {
                    self.begin_recording(now);
                }
            }
        }
        Ok(())
    }

    /// The cooperative replacement victim: among the `ReplaceCandidate`
    /// least-valuable items, prefer one replicated in the TCG (peer
    /// signature test); an exhausted singlet is dropped outright; otherwise
    /// the least-valuable item goes, and a skipped least-valuable singlet
    /// loses one SingletTTL.
    fn coop_victim(&mut self, mh: usize) -> Result<ItemId, SimError> {
        let host = &self.hosts[mh];
        let candidates = host.cache.victim_candidates(self.cfg.replace_candidate);
        let least = candidates[0];
        if host
            .cache
            .peek(least)
            .ok_or(SimError::MissingCacheEntry {
                mh,
                context: "victim candidate",
            })?
            .singlet_ttl
            == 0
        {
            if self.warm {
                self.metrics.singlet_drops += 1;
            }
            return Ok(least);
        }
        for &cand in &candidates {
            let positions = data_positions(cand.as_u64(), self.cfg.sigma, self.cfg.bloom_k);
            if host.peer_vector.covers(&positions) {
                if cand != least {
                    self.hosts[mh].cache.decrement_singlet(least);
                }
                if self.warm {
                    self.metrics.replicated_evictions += 1;
                }
                return Ok(cand);
            }
        }
        Ok(least)
    }

    // ------------------------------------------------------------------
    // Completion, disconnection
    // ------------------------------------------------------------------

    fn complete(
        &mut self,
        sched: &mut Scheduler<Ev>,
        mh: usize,
        outcome: Outcome,
        from_tcg: bool,
    ) -> Result<(), SimError> {
        let now = sched.now();
        let p = self.hosts[mh]
            .pending
            .take()
            .ok_or(SimError::MissingPending {
                mh,
                context: "completing a live request",
            })?;
        if let Some(id) = p.watchdog {
            sched.cancel(id);
        }
        if p.recorded && self.warm {
            let latency = now.saturating_sub(p.issued_at);
            self.metrics.record_completion(outcome, latency, from_tcg);
            self.completed_recorded += 1;
        }
        // Client disconnection model (Section V.B).
        if self.cfg.p_disc > 0.0 && self.host_rngs[mh].chance(self.cfg.p_disc) {
            self.hosts[mh].connected = false;
            self.active[mh] = false;
            self.trace(now, mh, TraceKind::Disconnected);
            let dur = self.host_rngs[mh].uniform_f64(self.cfg.disc_time.0, self.cfg.disc_time.1);
            sched.schedule_after(SimTime::from_secs_f64(dur), Ev::Reconnect { mh });
        } else {
            let think = self.host_rngs[mh].exponential(self.cfg.mean_interarrival_secs);
            sched.schedule_after(SimTime::from_secs_f64(think), Ev::NextRequest { mh });
        }
        Ok(())
    }

    fn on_reconnect(&mut self, sched: &mut Scheduler<Ev>, mh: usize) {
        let now = sched.now();
        self.hosts[mh].connected = true;
        self.active[mh] = true;
        self.trace(now, mh, TraceKind::Reconnected);
        if self.cfg.scheme == Scheme::GroCoca {
            // Disconnection handling protocol (Section IV.D.5): first sync
            // membership with the MSS.
            let arr = self.server.request_arrival(now, self.cfg.msg.validation);
            sched.schedule_at(arr, Ev::ReconnectSync { mh });
            // Peers holding this host in their OutstandSigList detect the
            // reconnection beacon and ask for the fresh signature.
            let mut in_range = std::mem::take(&mut self.nbr_a);
            self.field.neighbors_within_into(
                mh,
                self.cfg.tran_range,
                now,
                &self.active,
                &mut in_range,
            );
            for &p in &in_range {
                if self.hosts[p].outstand_sig.contains(&mh) {
                    self.send_sig_request(sched, p, mh, None);
                }
            }
            self.nbr_a = in_range;
        }
        let think = self.host_rngs[mh].exponential(self.cfg.mean_interarrival_secs);
        sched.schedule_after(SimTime::from_secs_f64(think), Ev::NextRequest { mh });
    }

    fn on_reconnect_sync(&mut self, sched: &mut Scheduler<Ev>, mh: usize) -> Result<(), SimError> {
        // A sync lost to an MSS outage is not retried: membership stays
        // stale until the next ordinary server contact re-syncs it, which
        // is conservative (the host merely cooperates less).
        if self.server_outage_drop(sched.now()) {
            return Ok(());
        }
        let now = sched.now();
        // Location is piggybacked on the sync; the access vector is not.
        let _ = self.mss_observe(mh, None, now);
        let dir = self.dir.as_mut().ok_or(SimError::SchemeMismatch {
            context: "reconnect sync without a TCG directory",
        })?;
        let members: Vec<usize> = dir.members_of(mh).iter().copied().collect();
        let _ = dir.drain_changes(mh); // the full set supersedes deltas
        let bytes = self.cfg.msg.validation + self.cfg.msg.per_list_entry * members.len() as u64;
        let arr = self.server.response_arrival(now, bytes);
        sched.schedule_at(
            arr,
            Ev::ReconnectSyncDone {
                mh,
                members: Rc::new(members),
            },
        );
        Ok(())
    }

    fn on_reconnect_sync_done(
        &mut self,
        sched: &mut Scheduler<Ev>,
        mh: usize,
        members: Rc<Vec<usize>>,
    ) {
        let host = &mut self.hosts[mh];
        host.tcg = members.iter().copied().collect();
        host.peer_vector.reset();
        host.departed_since_recollect = 0;
        host.outstand_sig = host.tcg.clone();
        if !members.is_empty() {
            self.broadcast_sig_request(sched, mh, members);
        }
    }

    // ------------------------------------------------------------------
    // TCG membership & the signature exchange protocol (Section IV.D.4–5)
    // ------------------------------------------------------------------

    /// The MSS folds a contact from `mh` into the TCG directory and returns
    /// the membership changes to announce (empty for non-GroCoca schemes).
    fn mss_observe(
        &mut self,
        mh: usize,
        item: Option<ItemId>,
        now: SimTime,
    ) -> Vec<MembershipChange> {
        let Some(dir) = self.dir.as_mut() else {
            return Vec::new();
        };
        let pos = self.field.cached_position_at(mh, now);
        dir.record_location(mh, pos);
        if let Some(item) = item {
            dir.record_access(mh, item.as_u64());
        }
        dir.drain_changes(mh)
    }

    fn apply_membership(
        &mut self,
        sched: &mut Scheduler<Ev>,
        mh: usize,
        changes: &[MembershipChange],
    ) -> Result<(), SimError> {
        if changes.is_empty() {
            return Ok(());
        }
        let mut departed = false;
        for &change in changes {
            match change {
                MembershipChange::Added(p) => {
                    let host = self.host_mut(mh, "membership add")?;
                    if host.tcg.insert(p) {
                        host.outstand_sig.insert(p);
                        self.trace(sched.now(), mh, TraceKind::TcgJoined { peer: p });
                        self.send_sig_request(sched, mh, p, None);
                    }
                }
                MembershipChange::Removed(p) => {
                    let host = self.host_mut(mh, "membership remove")?;
                    if host.tcg.remove(&p) {
                        host.outstand_sig.remove(&p);
                        host.departed_since_recollect += 1;
                        departed = true;
                        self.trace(sched.now(), mh, TraceKind::TcgLeft { peer: p });
                    }
                }
            }
        }
        // A departure invalidates the superimposed vector: reset and
        // recollect from the remaining members (batched by the threshold in
        // extremely dynamic networks).
        if departed
            && self
                .host(mh, "membership recollect")?
                .departed_since_recollect
                >= self.cfg.recollect_threshold
        {
            let host = self.host_mut(mh, "membership recollect")?;
            host.departed_since_recollect = 0;
            host.peer_vector.reset();
            let members: Vec<usize> = host.tcg.iter().copied().collect();
            host.outstand_sig = host.tcg.clone();
            if !members.is_empty() {
                self.broadcast_sig_request(sched, mh, Rc::new(members));
            }
        }
        Ok(())
    }

    /// Point-to-point `SigRequest` from `from` to `to`.
    fn send_sig_request(
        &mut self,
        sched: &mut Scheduler<Ev>,
        from: usize,
        to: usize,
        members: Option<Rc<Vec<usize>>>,
    ) {
        let now = sched.now();
        let bytes = self.cfg.msg.sig_request;
        let done = self.p2p.send(from, now, bytes);
        self.charge_p2p(from, to, bytes, now);
        if self.warm {
            self.metrics.signature_messages += 1;
        }
        if self.fault_lost() {
            return; // `from` keeps `to` in its OutstandSigList
        }
        sched.schedule_at(done, Ev::SigRequest { from, to, members });
    }

    /// Broadcast `SigRequest` carrying the membership list; each listed
    /// member in reach replies with its full cache signature. The list is
    /// already shared (`Rc`) by the caller, so fan-out is copy-free.
    fn broadcast_sig_request(
        &mut self,
        sched: &mut Scheduler<Ev>,
        mh: usize,
        members: Rc<Vec<usize>>,
    ) {
        let now = sched.now();
        let bytes = self.cfg.msg.sig_request_with_members(members.len());
        let done = self.p2p.send(mh, now, bytes);
        let reached = std::mem::take(&mut self.reach_scratch);
        let reached = self.broadcast_reach_into(mh, now, reached);
        self.charge_broadcast(mh, &reached, bytes);
        if self.warm {
            self.metrics.signature_messages += 1;
        }
        for &(peer, hop) in &reached {
            if self.fault_lost() {
                continue;
            }
            let at = self.p2p.broadcast_delivery(done, bytes, hop);
            sched.schedule_at(
                at,
                Ev::SigRequest {
                    from: mh,
                    to: peer,
                    members: Some(members.clone()),
                },
            );
        }
        self.reach_scratch = reached;
    }

    fn on_sig_request(
        &mut self,
        sched: &mut Scheduler<Ev>,
        from: usize,
        to: usize,
        members: Option<Rc<Vec<usize>>>,
    ) {
        if !self.hosts[to].connected {
            return; // `from` keeps `to` in its OutstandSigList
        }
        if let Some(m) = &members {
            if !m.contains(&to) {
                return; // overheard a recollection meant for others
            }
        }
        let now = sched.now();
        let sig = Rc::new(self.hosts[to].counting.to_bloom());
        // Compress when the paper's rule says it pays off (based on the
        // cache capacity ε, the filter size σ and the hash count k).
        let payload = if self.cfg.scheme == Scheme::GroCoca && self.cfg.toggles.compress_signatures
        {
            match compression_choice(self.cfg.cache_size as u64, self.cfg.sigma, self.cfg.bloom_k) {
                Some(r) => CompressedSignature::encode(&sig, r).wire_bytes(),
                None => sig.wire_bytes(),
            }
        } else {
            sig.wire_bytes()
        };
        let bytes = self.cfg.msg.header + payload;
        let done = self.p2p.send(to, now, bytes);
        self.charge_p2p(to, from, bytes, now);
        if self.warm {
            self.metrics.signature_messages += 1;
            self.metrics.signature_bytes += bytes;
        }
        if self.fault_lost() {
            return; // the requester keeps `to` in its OutstandSigList
        }
        sched.schedule_at(
            done,
            Ev::SigReply {
                from: to,
                to: from,
                sig,
            },
        );
    }

    fn on_sig_reply(&mut self, from: usize, to: usize, sig: Rc<BloomFilter>) {
        // A corrupted signature is detected by its checksum and dropped —
        // folding garbage into the counter vector would poison filtering.
        if self.fault_corrupted() {
            return;
        }
        let host = &mut self.hosts[to];
        if !host.connected || !host.tcg.contains(&from) {
            return;
        }
        // Only fold in a signature we are still waiting for — duplicates
        // would double-count bits in the counter vector.
        if host.outstand_sig.remove(&from) {
            host.peer_vector.add_signature(&sig);
        }
    }

    // ------------------------------------------------------------------
    // Explicit updates (τ_P, ρ_P)
    // ------------------------------------------------------------------

    fn on_explicit_update(&mut self, sched: &mut Scheduler<Ev>, mh: usize) {
        let now = sched.now();
        // Always re-arm the timer.
        sched.schedule_after(
            SimTime::from_secs_f64(self.cfg.tau_p_secs),
            Ev::ExplicitUpdate { mh },
        );
        let host = &mut self.hosts[mh];
        if !host.connected {
            return;
        }
        let idle = now.saturating_sub(host.last_server_contact).as_secs_f64();
        if idle < self.cfg.tau_p_secs {
            return; // regular traffic kept the MSS current
        }
        let take = ((host.peer_retrieved_log.len() as f64) * self.cfg.rho_p).ceil() as usize;
        let sample: Vec<ItemId> = host
            .peer_retrieved_log
            .drain(..take.min(host.peer_retrieved_log.len()))
            .collect();
        host.last_server_contact = now;
        let bytes = self.cfg.msg.validation + self.cfg.msg.per_list_entry * sample.len() as u64;
        let arr = self.server.request_arrival(now, bytes);
        sched.schedule_at(
            arr,
            Ev::ExplicitUpdateAtMss {
                mh,
                sample: Rc::new(sample),
            },
        );
    }

    fn on_explicit_update_at_mss(
        &mut self,
        sched: &mut Scheduler<Ev>,
        mh: usize,
        sample: Rc<Vec<ItemId>>,
    ) {
        // An explicit update lost to an MSS outage is simply skipped; the
        // τ_P timer fires again regardless.
        if self.server_outage_drop(sched.now()) {
            return;
        }
        let now = sched.now();
        let changes = {
            let Some(dir) = self.dir.as_mut() else { return };
            let pos = self.field.cached_position_at(mh, now);
            dir.record_location(mh, pos);
            for item in sample.iter() {
                dir.record_access(mh, item.as_u64());
            }
            dir.drain_changes(mh)
        };
        if changes.is_empty() {
            return;
        }
        let bytes = self.cfg.msg.validation + self.cfg.msg.per_list_entry * changes.len() as u64;
        let arr = self.server.response_arrival(now, bytes);
        sched.schedule_at(
            arr,
            Ev::MembershipNews {
                mh,
                changes: Rc::new(changes),
            },
        );
    }

    // ------------------------------------------------------------------
    // Server database processes
    // ------------------------------------------------------------------

    fn on_db_update(&mut self, sched: &mut Scheduler<Ev>) {
        let now = sched.now();
        self.db.random_update(now, &mut self.rng_updates);
        let gap = self.rng_updates.exponential(1.0 / self.cfg.update_rate);
        sched.schedule_after(SimTime::from_secs_f64(gap), Ev::DbUpdate);
    }

    fn on_age_intervals(&mut self, sched: &mut Scheduler<Ev>) {
        self.db.age_stale_intervals(sched.now());
        sched.schedule_after(
            SimTime::from_secs_f64(self.cfg.aging_period_secs),
            Ev::AgeIntervals,
        );
    }

    // ------------------------------------------------------------------
    // Power accounting (Section V.A, Table I)
    // ------------------------------------------------------------------

    /// Charges a point-to-point P2P message: sender, destination and every
    /// bystander in either transmission range. The two range queries fill
    /// reusable sorted buffers and the union is a linear merge — no hash
    /// sets, no per-message allocation. (The discard charges are
    /// integer-valued constants, so the f64 total is exact in any
    /// iteration order — the merged order matches the old hash-set union
    /// byte for byte.)
    fn charge_p2p(&mut self, sender: usize, dest: usize, bytes: u64, now: SimTime) {
        if !self.warm {
            return;
        }
        let model = self.cfg.power;
        self.metrics
            .power
            .charge_p2p(&model, P2pRole::Sender, bytes);
        self.metrics
            .power
            .charge_p2p(&model, P2pRole::Destination, bytes);
        let mut s_range = std::mem::take(&mut self.nbr_a);
        let mut d_range = std::mem::take(&mut self.nbr_b);
        self.field.neighbors_within_into(
            sender,
            self.cfg.tran_range,
            now,
            &self.active,
            &mut s_range,
        );
        self.field.neighbors_within_into(
            dest,
            self.cfg.tran_range,
            now,
            &self.active,
            &mut d_range,
        );
        let (mut i, mut j) = (0, 0);
        while i < s_range.len() || j < d_range.len() {
            let (m, in_s, in_d) =
                if j >= d_range.len() || (i < s_range.len() && s_range[i] < d_range[j]) {
                    let m = s_range[i];
                    i += 1;
                    (m, true, false)
                } else if i >= s_range.len() || d_range[j] < s_range[i] {
                    let m = d_range[j];
                    j += 1;
                    (m, false, true)
                } else {
                    let m = s_range[i];
                    i += 1;
                    j += 1;
                    (m, true, true)
                };
            if m == sender || m == dest {
                continue;
            }
            let role = match (in_s, in_d) {
                (true, true) => P2pRole::DiscardBothRanges,
                (true, false) => P2pRole::DiscardSenderRange,
                (false, true) => P2pRole::DiscardDestRange,
                (false, false) => unreachable!("member of the union"), // tidy:allow(panic-discipline): m is drawn from the merge of s_range and d_range, so it is in at least one of them
            };
            self.metrics.power.charge_p2p(&model, role, bytes);
        }
        self.nbr_a = s_range;
        self.nbr_b = d_range;
    }

    /// Charges a multi-hop broadcast: the originator and every forwarder
    /// (reached nodes short of the last hop re-broadcast under flooding)
    /// pay the send cost; every reached node pays one receive.
    fn charge_broadcast(&mut self, _sender: usize, reached: &[(usize, u32)], bytes: u64) {
        if !self.warm {
            return;
        }
        let model = self.cfg.power;
        self.metrics
            .power
            .charge_broadcast(&model, BroadcastRole::Sender, bytes);
        let mut sends = 1u64;
        for &(_, hop) in reached {
            self.metrics
                .power
                .charge_broadcast(&model, BroadcastRole::Receiver, bytes);
            if hop < self.cfg.hop_dist {
                self.metrics
                    .power
                    .charge_broadcast(&model, BroadcastRole::Sender, bytes);
                sends += 1;
            }
        }
        self.metrics.broadcasts += sends;
    }

    /// One NDP beacon round: every connected host broadcasts a hello and
    /// every connected neighbour receives it. The paper assumes NDP "is
    /// available" and does not meter it; this optional accounting
    /// quantifies that assumption.
    ///
    /// Instead of the historical n(n−1)/2 pairwise sweep, the round is one
    /// spatial-grid build plus n local-cell queries: the resulting CSR
    /// adjacency feeds the NDP link table (sparse up/down aging) and the
    /// per-host receiver counts for power accounting.
    fn on_beacon_tick(&mut self, sched: &mut Scheduler<Ev>) {
        let now = sched.now();
        let mut period = self.cfg.beacon_period_secs;
        if self.faults_active && self.cfg.faults.beacon_jitter_secs > 0.0 {
            // Clock drift: the next round slips by a uniform jitter.
            period += self
                .fault_rng
                .uniform_f64(0.0, self.cfg.faults.beacon_jitter_secs);
        }
        sched.schedule_after(SimTime::from_secs_f64(period), Ev::BeaconTick);
        let account = self.warm && self.cfg.account_beacons;
        if self.ndp.is_none() && !account {
            return;
        }
        let n = self.hosts.len();
        let mut starts = std::mem::take(&mut self.csr_starts);
        let mut nbrs = std::mem::take(&mut self.csr_nbrs);
        let mut row = std::mem::take(&mut self.csr_row);
        let mut bits = std::mem::take(&mut self.active_bits);
        grococa_mobility::pack_active_bits(&self.active, &mut bits);
        starts.clear();
        nbrs.clear();
        starts.push(0);
        let beacon_loss = self.cfg.faults.p2p_loss;
        for mh in 0..n {
            self.field
                .neighbors_within_bits(mh, self.cfg.tran_range, now, &bits, &mut row);
            if beacon_loss > 0.0 {
                // Each neighbour independently misses this host's hello;
                // the NDP grace rounds absorb transient misses.
                let before = row.len();
                let rng = &mut self.fault_rng;
                row.retain(|_| !rng.chance(beacon_loss));
                self.fstats.beacons_lost += (before - row.len()) as u64;
            }
            nbrs.extend_from_slice(&row);
            starts.push(nbrs.len());
        }
        if let Some(ndp) = self.ndp.as_mut() {
            let _ = ndp.beacon_round_adjacency(&starts, &nbrs, &self.active);
        }
        if account {
            let model = self.cfg.power;
            let bytes = self.cfg.msg.beacon;
            for mh in 0..n {
                if !self.hosts[mh].connected {
                    continue;
                }
                self.metrics
                    .power
                    .charge_broadcast(&model, BroadcastRole::Sender, bytes);
                let heard = starts[mh + 1] - starts[mh];
                for _ in 0..heard {
                    self.metrics
                        .power
                        .charge_broadcast(&model, BroadcastRole::Receiver, bytes);
                }
            }
        }
        self.csr_starts = starts;
        self.csr_nbrs = nbrs;
        self.csr_row = row;
        self.active_bits = bits;
    }

    fn begin_recording(&mut self, now: SimTime) {
        if self.warm {
            return;
        }
        self.warm = true;
        self.warmed_at = now;
        self.metrics = Metrics::new();
    }
}
