//! Simulation configuration (the paper's Table II plus protocol toggles).
//!
//! Every parameter the paper's experiments vary is a field here; defaults
//! reconstruct Table II (see `DESIGN.md` for the reconstruction notes, since
//! the scraped paper text lost most numerals).

use grococa_cache::ReplacementPolicy;
use grococa_mobility::MotionModel;
use grococa_net::MessageSizes;
use grococa_power::PowerModel;
use grococa_sim::SimTime;

use crate::fault::{ConfigError, FaultPlan, RetryPolicy};

/// Which caching scheme a run simulates (the paper's CC / COCA / GC
/// series).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Scheme {
    /// Conventional caching: local cache + server only, no cooperation.
    Conventional,
    /// Standard COCA: peer search before the server, plain LRU everywhere.
    Coca,
    /// GroCoca: COCA plus tightly-coupled groups, cache signatures and the
    /// two cooperative cache-management protocols.
    #[default]
    GroCoca,
}

impl Scheme {
    /// The label used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            Scheme::Conventional => "CC",
            Scheme::Coca => "COCA",
            Scheme::GroCoca => "GC",
        }
    }

    /// Whether the scheme searches peer caches at all.
    pub fn is_cooperative(self) -> bool {
        !matches!(self, Scheme::Conventional)
    }
}

/// Feature toggles for GroCoca's individual mechanisms — all on by default;
/// the ablation benches switch them off one at a time. Ignored by the other
/// schemes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroCocaToggles {
    /// Use the peer-signature filter to bypass hopeless peer searches.
    pub signature_filter: bool,
    /// Cooperative cache admission control (don't replicate what a TCG
    /// member already serves).
    pub admission_control: bool,
    /// Cooperative cache replacement (prefer evicting group-replicated
    /// items, SingletTTL).
    pub cooperative_replacement: bool,
    /// VLFL-compress cache signatures when beneficial.
    pub compress_signatures: bool,
    /// Piggyback signature-update lists on broadcast requests.
    pub piggyback_updates: bool,
}

impl Default for GroCocaToggles {
    fn default() -> Self {
        GroCocaToggles {
            signature_filter: true,
            admission_control: true,
            cooperative_replacement: true,
            compress_signatures: true,
            piggyback_updates: true,
        }
    }
}

/// The full simulation configuration (paper Table II).
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Caching scheme under test.
    pub scheme: Scheme,
    /// GroCoca mechanism toggles (ablation hooks).
    pub toggles: GroCocaToggles,
    /// Master random seed; identical seeds give identical runs.
    pub seed: u64,

    // --- population -----------------------------------------------------
    /// `NumClient`: number of mobile hosts.
    pub num_clients: usize,
    /// Members per motion group (`GroupSize`).
    pub group_size: usize,
    /// The mobility model (the paper uses reference point group mobility;
    /// the alternatives are ablation extensions).
    pub motion_model: MotionModel,
    /// Space width and height, metres.
    pub space: (f64, f64),
    /// Host speed range `[v_min, v_max]`, m/s.
    pub speed: (f64, f64),
    /// Radius members roam around their group reference point, metres.
    pub group_radius: f64,

    // --- data & access --------------------------------------------------
    /// `NData`: items at the server.
    pub n_data: u64,
    /// `DataSize`: bytes per item.
    pub data_size: u64,
    /// `CacheSize`: client cache capacity, items.
    pub cache_size: usize,
    /// Client-cache victim policy (the paper uses LRU everywhere; LFU and
    /// FIFO are ablation baselines).
    pub cache_policy: ReplacementPolicy,
    /// `AccessRange`: items each motion group draws from.
    pub access_range: u64,
    /// Zipf skewness θ.
    pub theta: f64,
    /// Mean think time between a completion and the next request, seconds
    /// (exponential; the paper uses one second).
    pub mean_interarrival_secs: f64,
    /// `DataUpdateRate`: server-side updates per second (0 = none).
    pub update_rate: f64,
    /// EWMA weight α for per-item update intervals.
    pub alpha: f64,

    // --- network --------------------------------------------------------
    /// Server uplink bandwidth, kb/s.
    pub uplink_kbps: u64,
    /// Server downlink bandwidth, kb/s.
    pub downlink_kbps: u64,
    /// P2P channel bandwidth, kb/s.
    pub p2p_kbps: u64,
    /// `TranRange`: P2P transmission range, metres.
    pub tran_range: f64,
    /// `HopDist`: maximum broadcast search hops.
    pub hop_dist: u32,
    /// Message wire sizes.
    pub msg: MessageSizes,
    /// Power coefficients (Table I).
    pub power: PowerModel,

    // --- COCA timeout ---------------------------------------------------
    /// Initial-timeout congestion scale φ.
    pub phi_initial: f64,
    /// Adaptive-timeout deviation weight φ′ (τ = τ̄ + φ′·σ_τ).
    pub phi_deviation: f64,

    // --- GroCoca --------------------------------------------------------
    /// Δ: weighted-average-distance threshold for TCG membership, metres.
    pub tcg_distance: f64,
    /// δ: access-similarity threshold for TCG membership.
    pub tcg_similarity: f64,
    /// EWMA weight ω for weighted average distances.
    pub omega: f64,
    /// Bloom filter size σ, bits.
    pub sigma: u32,
    /// Bloom filter hash count k.
    pub bloom_k: u32,
    /// Counter width π_c of the local counting filter, bits.
    pub pi_c: u32,
    /// `ReplaceCandidate`: how many LRU candidates cooperative replacement
    /// considers.
    pub replace_candidate: usize,
    /// `ReplaceDelay`: the SingletTTL budget.
    pub replace_delay: u32,
    /// τ_P: explicit location/access update period, seconds.
    pub tau_p_secs: f64,
    /// ρ_P: portion of the peer-retrieved access history sent in an explicit
    /// update.
    pub rho_p: f64,
    /// Recollect signatures only after this many members departed
    /// (1 = immediately; the paper's dynamic-network batching knob).
    pub recollect_threshold: u32,

    // --- disconnection --------------------------------------------------
    /// `P_disc`: disconnect probability after completing a request.
    pub p_disc: f64,
    /// Disconnection duration range `[d_min, d_max]`, seconds.
    pub disc_time: (f64, f64),

    // --- run control ----------------------------------------------------
    /// Recorded requests per mobile host after warm-up (the paper runs
    /// 2 000).
    pub requests_per_mh: u64,
    /// Hard cap on warm-up (fallback when caches cannot fill), seconds.
    pub warmup_cap_secs: f64,
    /// Period of the MSS's stale-interval aging pass, seconds.
    pub aging_period_secs: f64,
    /// Meter NDP beacon power (off by default: the paper assumes NDP is
    /// freely available).
    pub account_beacons: bool,
    /// NDP hello-beacon period, seconds (drives both beacon power
    /// accounting and the NDP link tables).
    pub beacon_period_secs: f64,
    /// Answer broadcast-reachability queries from the beacon-maintained
    /// NDP link table instead of exact geometry. Off by default — the
    /// paper's own simulator assumes NDP "is available" and uses true
    /// connectivity — but turning it on models the protocol's detection
    /// lag (stale links, late discoveries).
    pub ndp_tables: bool,
    /// Beacon rounds a known NDP link may miss before it is declared
    /// failed.
    pub ndp_miss_threshold: u32,

    // --- fault injection (extension) ------------------------------------
    /// The fault-injection plan. Inert by default; see
    /// [`FaultPlan::active`] for the determinism contract.
    pub faults: FaultPlan,
    /// Retry/backoff bounds for the hardened protocol paths. Consulted
    /// only when `faults` is active.
    pub retry: RetryPolicy,
    /// Optional wall on simulated time: when set, the run stops once the
    /// clock passes this many seconds and the invariant auditor reports
    /// the run as hung if the completion target was not met. `None`
    /// (the default) runs the event loop exactly as before.
    pub hang_deadline_secs: Option<f64>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            scheme: Scheme::GroCoca,
            toggles: GroCocaToggles::default(),
            seed: 0xC0CA,
            num_clients: 100,
            group_size: 5,
            motion_model: MotionModel::GroupWaypoint,
            space: (1_000.0, 1_000.0),
            speed: (1.0, 5.0),
            group_radius: 50.0,
            n_data: 10_000,
            data_size: 3_072,
            cache_size: 100,
            cache_policy: ReplacementPolicy::Lru,
            access_range: 1_000,
            theta: 0.5,
            mean_interarrival_secs: 1.0,
            update_rate: 0.0,
            alpha: 0.5,
            uplink_kbps: 200,
            downlink_kbps: 2_000,
            p2p_kbps: 2_000,
            tran_range: 100.0,
            hop_dist: 2,
            msg: MessageSizes::default(),
            power: PowerModel::default(),
            phi_initial: 10.0,
            phi_deviation: 3.0,
            tcg_distance: 100.0,
            tcg_similarity: 0.05,
            omega: 0.5,
            sigma: 10_000,
            bloom_k: 2,
            pi_c: 4,
            replace_candidate: 5,
            replace_delay: 2,
            tau_p_secs: 10.0,
            rho_p: 0.5,
            recollect_threshold: 1,
            p_disc: 0.0,
            disc_time: (1.0, 5.0),
            requests_per_mh: 300,
            warmup_cap_secs: 2_000.0,
            aging_period_secs: 10.0,
            account_beacons: false,
            beacon_period_secs: 1.0,
            ndp_tables: false,
            ndp_miss_threshold: 3,
            faults: FaultPlan::default(),
            retry: RetryPolicy::default(),
            hang_deadline_secs: None,
        }
    }
}

impl SimConfig {
    /// A configuration for `scheme` with everything else at Table II
    /// defaults.
    pub fn for_scheme(scheme: Scheme) -> Self {
        SimConfig {
            scheme,
            ..SimConfig::default()
        }
    }

    /// The initial peer-search timeout of Section III:
    /// `HopDist · (|request| + |reply|) / BW_P2P · φ`.
    pub fn initial_timeout(&self) -> SimTime {
        let bytes = self.msg.p2p_request + self.msg.p2p_reply;
        let secs = self.hop_dist as f64 * (bytes * 8) as f64 / (self.p2p_kbps as f64 * 1_000.0);
        SimTime::from_secs_f64(secs * self.phi_initial)
    }

    /// Validates cross-field invariants, returning the first violation.
    ///
    /// The error messages are the same strings the old panicking
    /// validator used; [`SimConfig::validate_or_panic`] re-raises them
    /// for callers (mostly tests) that still want a panic.
    pub fn validate(&self) -> Result<(), ConfigError> {
        macro_rules! ensure {
            // Matching on the bool (rather than `if !cond`) keeps clippy's
            // neg_cmp_op_on_partial_ord out of float-comparison call sites.
            ($cond:expr, $msg:expr) => {
                match $cond {
                    true => {}
                    false => return Err(ConfigError($msg.to_string())),
                }
            };
        }
        ensure!(self.num_clients > 0, "need at least one client");
        ensure!(self.group_size > 0, "group size must be positive");
        ensure!(self.n_data > 0, "database must be non-empty");
        ensure!(
            (1..=self.n_data).contains(&self.access_range),
            "access range must lie in 1..=NData"
        );
        ensure!(self.cache_size > 0, "cache must hold at least one item");
        ensure!(self.theta >= 0.0, "Zipf skew must be non-negative");
        ensure!(self.hop_dist > 0, "HopDist must be at least 1");
        ensure!(
            self.uplink_kbps > 0 && self.downlink_kbps > 0 && self.p2p_kbps > 0,
            "bandwidths must be positive"
        );
        for (value, name) in [
            (self.tran_range, "transmission range"),
            (self.tcg_distance, "TCG distance threshold"),
            (self.tcg_similarity, "TCG similarity threshold"),
            (self.update_rate, "update rate"),
        ] {
            ensure!(
                value.is_finite() && value >= 0.0,
                format!("{name} must be finite and non-negative")
            );
        }
        ensure!(
            (0.0..=1.0).contains(&self.p_disc),
            "disconnection probability must lie in [0, 1]"
        );
        ensure!(
            (0.0..=1.0).contains(&self.omega) && (0.0..=1.0).contains(&self.alpha),
            "EWMA weights must lie in [0, 1]"
        );
        ensure!(
            (0.0..=1.0).contains(&self.rho_p),
            "rho_p must lie in [0, 1]"
        );
        ensure!(
            self.sigma > 0 && self.bloom_k > 0,
            "bloom geometry must be positive"
        );
        ensure!(self.requests_per_mh > 0, "must record at least one request");
        ensure!(
            self.replace_candidate > 0,
            "need at least one replacement candidate"
        );
        ensure!(
            self.speed.0 > 0.0 && self.speed.1 >= self.speed.0,
            "bad speed range"
        );
        ensure!(
            self.disc_time.1 >= self.disc_time.0 && self.disc_time.0 >= 0.0,
            "bad disconnection time range"
        );
        ensure!(
            (0.0..=1.0).contains(&self.faults.p2p_loss),
            "fault p2p loss probability must lie in [0, 1]"
        );
        ensure!(
            (0.0..=1.0).contains(&self.faults.corruption),
            "fault corruption probability must lie in [0, 1]"
        );
        ensure!(
            (0.0..=1.0).contains(&self.faults.departure),
            "fault departure probability must lie in [0, 1]"
        );
        if let Some((period, outage)) = self.faults.server_outage {
            ensure!(
                period > 0.0 && outage > 0.0 && outage < period,
                "server outage must satisfy 0 < outage < period"
            );
        }
        ensure!(
            self.faults.beacon_jitter_secs >= 0.0,
            "beacon jitter cannot be negative"
        );
        ensure!(
            self.retry.backoff_factor >= 1.0,
            "retry backoff factor must be at least 1"
        );
        ensure!(
            self.retry.server_retry_secs > 0.0,
            "server retry delay must be positive"
        );
        ensure!(
            self.retry.max_backoff_secs >= self.retry.server_retry_secs,
            "backoff ceiling must be at least the base delay"
        );
        ensure!(
            self.retry.solo_after_failures > 0 && self.retry.solo_probe_every > 0,
            "solo-mode thresholds must be positive"
        );
        if let Some(deadline) = self.hang_deadline_secs {
            ensure!(deadline > 0.0, "hang deadline must be positive");
        }
        Ok(())
    }

    /// A canonical 64-bit fingerprint covering **every** configuration
    /// field.
    ///
    /// Folds the derived `Debug` rendering — which lists each field by
    /// name in declaration order, floats included — through FNV-1a and a
    /// SplitMix64 finaliser. Two configs fingerprint equal exactly when
    /// all their fields are equal, and adding a field to the struct
    /// changes every fingerprint, which is the right failure mode for its
    /// one consumer: the sweep journal header, where a stale fingerprint
    /// must refuse resume rather than mix results from different
    /// configurations.
    ///
    /// # Examples
    ///
    /// ```
    /// use grococa_core::SimConfig;
    ///
    /// let a = SimConfig::default();
    /// let mut b = SimConfig::default();
    /// assert_eq!(a.canonical_fingerprint(), b.canonical_fingerprint());
    /// b.theta = 0.9;
    /// assert_ne!(a.canonical_fingerprint(), b.canonical_fingerprint());
    /// ```
    pub fn canonical_fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in format!("{self:?}").bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        // SplitMix64 finaliser spreads the low-entropy FNV state.
        let mut z = h;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// [`SimConfig::validate`], but panicking with the violation message
    /// — the old behaviour, kept for tests and for callers that treat an
    /// invalid configuration as a programming error.
    ///
    /// # Panics
    ///
    /// Panics with a description of the first violated invariant.
    pub fn validate_or_panic(&self) {
        if let Err(err) = self.validate() {
            panic!("{}", err.message());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        SimConfig::default().validate().expect("defaults are valid");
    }

    #[test]
    fn validate_reports_errors_instead_of_panicking() {
        let cfg = SimConfig {
            num_clients: 0,
            ..SimConfig::default()
        };
        let err = cfg.validate().unwrap_err();
        assert_eq!(err.message(), "need at least one client");
    }

    #[test]
    fn validate_rejects_reversed_disconnection_range() {
        let cfg = SimConfig {
            disc_time: (5.0, 1.0),
            ..SimConfig::default()
        };
        let err = cfg.validate().unwrap_err();
        assert!(err.message().contains("disconnection time range"));
        let cfg = SimConfig {
            disc_time: (-1.0, 2.0),
            ..SimConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validate_rejects_bad_bandwidths_ranges_and_thresholds() {
        let zero_bandwidths: [fn(&mut SimConfig); 3] = [
            |c| c.uplink_kbps = 0,
            |c| c.downlink_kbps = 0,
            |c| c.p2p_kbps = 0,
        ];
        for zero in zero_bandwidths {
            let mut cfg = SimConfig::default();
            zero(&mut cfg);
            let err = cfg.validate().unwrap_err();
            assert_eq!(err.message(), "bandwidths must be positive");
        }
        type Setter = fn(&mut SimConfig, f64);
        let setters: [(Setter, &str); 4] = [
            (|c, x| c.tran_range = x, "transmission range"),
            (|c, x| c.tcg_distance = x, "TCG distance threshold"),
            (|c, x| c.tcg_similarity = x, "TCG similarity threshold"),
            (|c, x| c.update_rate = x, "update rate"),
        ];
        for (set, name) in setters {
            for bad in [f64::NAN, -5.0, f64::INFINITY] {
                let mut cfg = SimConfig::default();
                set(&mut cfg, bad);
                let err = cfg.validate().unwrap_err();
                assert!(err.message().starts_with(name), "{name} = {bad}: {err}");
            }
            let mut cfg = SimConfig::default();
            set(&mut cfg, 0.0);
            assert!(cfg.validate().is_ok(), "{name} = 0 is valid");
        }
    }

    #[test]
    fn validate_rejects_bad_fault_plans() {
        let cfg = SimConfig {
            faults: FaultPlan {
                p2p_loss: 1.5,
                ..FaultPlan::default()
            },
            ..SimConfig::default()
        };
        assert!(cfg.validate().unwrap_err().message().contains("p2p loss"));
        let cfg = SimConfig {
            faults: FaultPlan {
                corruption: -0.1,
                ..FaultPlan::default()
            },
            ..SimConfig::default()
        };
        assert!(cfg.validate().is_err());
        let cfg = SimConfig {
            faults: FaultPlan {
                server_outage: Some((10.0, 10.0)),
                ..FaultPlan::default()
            },
            ..SimConfig::default()
        };
        assert!(cfg.validate().unwrap_err().message().contains("outage"));
        let cfg = SimConfig {
            retry: RetryPolicy {
                backoff_factor: 0.5,
                ..RetryPolicy::default()
            },
            ..SimConfig::default()
        };
        assert!(cfg.validate().unwrap_err().message().contains("backoff"));
        let cfg = SimConfig {
            hang_deadline_secs: Some(0.0),
            ..SimConfig::default()
        };
        assert!(cfg
            .validate()
            .unwrap_err()
            .message()
            .contains("hang deadline"));
    }

    #[test]
    fn fingerprint_tracks_every_kind_of_field() {
        let base = SimConfig::default();
        let fp = base.canonical_fingerprint();
        assert_eq!(fp, SimConfig::default().canonical_fingerprint());
        for cfg in [
            SimConfig {
                scheme: Scheme::Coca,
                ..SimConfig::default()
            },
            SimConfig {
                seed: 1,
                ..SimConfig::default()
            },
            SimConfig {
                theta: 0.500001,
                ..SimConfig::default()
            },
            SimConfig {
                motion_model: MotionModel::Manhattan,
                ..SimConfig::default()
            },
            SimConfig {
                faults: FaultPlan::profile("lossy").unwrap(),
                ..SimConfig::default()
            },
        ] {
            assert_ne!(cfg.canonical_fingerprint(), fp, "{cfg:?}");
        }
    }

    #[test]
    fn scheme_labels_match_paper() {
        assert_eq!(Scheme::Conventional.label(), "CC");
        assert_eq!(Scheme::Coca.label(), "COCA");
        assert_eq!(Scheme::GroCoca.label(), "GC");
        assert!(!Scheme::Conventional.is_cooperative());
        assert!(Scheme::Coca.is_cooperative());
    }

    #[test]
    fn initial_timeout_formula() {
        let cfg = SimConfig::default();
        // (64+32) bytes = 768 bits over 2 Mb/s = 384 µs; ×2 hops ×10 = 7.68 ms.
        assert_eq!(cfg.initial_timeout().as_micros(), 7_680);
    }

    #[test]
    #[should_panic(expected = "access range")]
    fn validate_rejects_oversized_access_range() {
        let cfg = SimConfig {
            access_range: 20_000,
            ..SimConfig::default()
        };
        cfg.validate_or_panic();
    }

    #[test]
    #[should_panic(expected = "HopDist")]
    fn validate_rejects_zero_hops() {
        let cfg = SimConfig {
            hop_dist: 0,
            ..SimConfig::default()
        };
        cfg.validate_or_panic();
    }
}
