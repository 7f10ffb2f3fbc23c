//! Deterministic fault injection: the plan, the retry policy, the
//! counters, and the end-of-run invariant auditor.
//!
//! The paper's only failure mode is the Bernoulli post-request
//! disconnection of Fig. 8. Real MANETs also lose and corrupt frames,
//! drop hosts mid-transfer and suffer server outages, so the simulator
//! carries a [`FaultPlan`]: a set of independently seeded fault channels
//! threaded through the event handlers of `sim.rs`.
//!
//! # Determinism contract
//!
//! All fault draws come from one dedicated RNG substream
//! (`SimRng::substream(seed, 4)`), consumed in event-dispatch order, so a
//! `(seed, fault_profile)` pair replays byte-identically — including
//! across `GROCOCA_JOBS` worker counts, because each simulation cell owns
//! its stream. Every draw is guarded by its channel's `p > 0` check and
//! every hardening timer is armed only when [`FaultPlan::active`] holds,
//! so the zero-fault profile consumes no randomness, schedules no extra
//! events, and is bit-for-bit the pristine paper protocol.

use std::fmt;

/// Probabilities and schedules for the injected fault channels.
///
/// The default plan is inert (all channels off); [`FaultPlan::active`]
/// is the single switch the simulator consults before arming any
/// fault-handling machinery.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultPlan {
    /// Per-delivery loss probability on every P2P leg (broadcast search
    /// legs, replies, retrieves, data transfers, signature traffic and
    /// NDP beacon receptions). The transmitter still pays power — the
    /// frame was sent, the receiver just never decodes it.
    pub p2p_loss: f64,
    /// Per-delivery payload-corruption probability on data-bearing P2P
    /// messages (peer data, signature replies). A corrupted payload
    /// fails the signature/integrity check at the receiver and is
    /// dropped — recovery rides the same retry paths as loss.
    pub corruption: f64,
    /// Probability that a provider departs (disconnects) at the moment
    /// it would start streaming data to a requester, modelling
    /// mid-transfer host departure. Only idle providers (no pending
    /// request of their own) depart; the requester recovers through the
    /// retrieve watchdog and the provider through the ordinary
    /// reconnection path.
    pub departure: f64,
    /// Periodic server outage windows `(period_secs, outage_secs)`: the
    /// MSS drops every arriving request during
    /// `[k·period, k·period + outage)`. Must satisfy
    /// `0 < outage < period` so every outage ends.
    pub server_outage: Option<(f64, f64)>,
    /// Uniform extra delay in `[0, jitter]` seconds added to each NDP
    /// beacon round, desynchronising link maintenance from the protocol
    /// timers.
    pub beacon_jitter_secs: f64,
}

impl FaultPlan {
    /// Whether any fault channel is enabled. When this is `false` the
    /// simulator runs the pristine protocol: no fault RNG draws, no
    /// watchdog timers, byte-identical output to a build without the
    /// fault layer.
    pub fn active(&self) -> bool {
        self.p2p_loss > 0.0
            || self.corruption > 0.0
            || self.departure > 0.0
            || self.server_outage.is_some()
            || self.beacon_jitter_secs > 0.0
    }

    /// Whether the server is inside an outage window at `now_secs`.
    pub fn server_down(&self, now_secs: f64) -> bool {
        match self.server_outage {
            Some((period, outage)) => now_secs.rem_euclid(period) < outage,
            None => false,
        }
    }

    /// A named fault profile for the CLI and the chaos suite, or `None`
    /// for an unknown name. Profiles: `none` (inert), `lossy` (20% link
    /// loss), `flaky` (loss + corruption + departures + beacon jitter),
    /// `outage` (server down 5 s out of every 60 s), `chaos`
    /// (everything at once).
    pub fn profile(name: &str) -> Option<FaultPlan> {
        let plan = match name {
            "none" => FaultPlan::default(),
            "lossy" => FaultPlan {
                p2p_loss: 0.2,
                ..FaultPlan::default()
            },
            "flaky" => FaultPlan {
                p2p_loss: 0.1,
                corruption: 0.05,
                departure: 0.05,
                beacon_jitter_secs: 0.2,
                ..FaultPlan::default()
            },
            "outage" => FaultPlan {
                server_outage: Some((60.0, 5.0)),
                ..FaultPlan::default()
            },
            "chaos" => FaultPlan {
                p2p_loss: 0.25,
                corruption: 0.1,
                departure: 0.1,
                server_outage: Some((60.0, 5.0)),
                beacon_jitter_secs: 0.3,
            },
            _ => return None,
        };
        Some(plan)
    }

    /// The names accepted by [`FaultPlan::profile`], for diagnostics.
    pub const PROFILE_NAMES: &'static [&'static str] =
        &["none", "lossy", "flaky", "outage", "chaos"];
}

/// Bounds and backoffs for the protocol-hardening machinery. Consulted
/// only when the fault plan is active; under the zero-fault profile the
/// original unhardened protocol runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Extra broadcast search rounds after a silent timeout before the
    /// host falls back to the server.
    pub max_search_retries: u32,
    /// Retrieve re-sends (after a reply was accepted but the data never
    /// arrived) before falling back to the server.
    pub max_retrieve_retries: u32,
    /// Server re-sends for a *validation* request before the host serves
    /// its stale local copy instead (graceful degradation). Plain server
    /// fetches retry without bound — the MSS is the authority of last
    /// resort and its outages are finite by construction.
    pub max_validation_retries: u32,
    /// Timeout multiplier applied per retry attempt (exponential
    /// backoff).
    pub backoff_factor: f64,
    /// Base watchdog delay for a server interaction, seconds. Doubled
    /// per attempt up to [`RetryPolicy::max_backoff_secs`].
    pub server_retry_secs: f64,
    /// Backoff ceiling for the server watchdog, seconds.
    pub max_backoff_secs: f64,
    /// Consecutive reply-less peer searches after which a host enters
    /// solo mode (skips the peer search and goes straight to the
    /// server).
    pub solo_after_failures: u32,
    /// Requests a solo host serves directly before probing the peers
    /// again. Amortises the probe cost so a fully partitioned
    /// cooperative host converges to conventional-caching latency.
    pub solo_probe_every: u32,
    /// Extra beacon rounds of NDP staleness grace: a link under faults
    /// may miss `ndp_miss_threshold + ndp_grace_rounds` rounds before it
    /// is declared failed, so lost beacons do not flap the link table.
    pub ndp_grace_rounds: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_search_retries: 1,
            max_retrieve_retries: 2,
            max_validation_retries: 4,
            backoff_factor: 2.0,
            server_retry_secs: 1.0,
            max_backoff_secs: 60.0,
            solo_after_failures: 3,
            solo_probe_every: 64,
            ndp_grace_rounds: 2,
        }
    }
}

/// Whole-run fault and recovery counters, surfaced on `RunOutput`.
///
/// Unlike `Metrics` these are not reset at the warm-up boundary: they
/// describe everything the fault layer did over the entire run, which is
/// what the determinism and chaos tests compare.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// P2P deliveries dropped by the loss channel.
    pub p2p_lost: u64,
    /// Data-bearing deliveries dropped by the corruption channel.
    pub corrupted: u64,
    /// Providers departed mid-transfer.
    pub departures: u64,
    /// Requests the MSS dropped inside outage windows.
    pub outage_drops: u64,
    /// NDP beacon receptions suppressed by the loss channel.
    pub beacons_lost: u64,
    /// Broadcast search rounds re-issued after silent timeouts.
    pub search_retries: u64,
    /// Retrieve messages re-sent by the retrieve watchdog.
    pub retrieve_retries: u64,
    /// Server interactions re-sent by the server watchdog.
    pub server_retries: u64,
    /// Times a host entered solo mode.
    pub solo_entries: u64,
    /// Peer searches skipped while in solo mode.
    pub solo_skips: u64,
    /// Times overheard peer traffic pulled a host back out of solo mode
    /// before its probe budget ran out.
    pub solo_exits: u64,
    /// Validations that exhausted their retries and served the stale
    /// local copy.
    pub stale_serves: u64,
}

/// End-of-run invariant audit: turns silent hangs and leaked state into
/// loud, attributable failures.
///
/// Checked invariants: the run reached its completion target before any
/// hang deadline (`hung`), the event heap never drained with requests
/// still owed (`starved`), every in-flight request still had a live
/// event able to advance it (`wedged_hosts`), and every disconnected
/// host had a reconnection scheduled (`lost_hosts`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AuditReport {
    /// The hang deadline elapsed before the completion target was met.
    pub hung: bool,
    /// The event heap drained with the completion target unmet.
    pub starved: bool,
    /// Hosts left holding a pending request with no live event that
    /// could advance it.
    pub wedged_hosts: Vec<usize>,
    /// Disconnected hosts with no reconnection scheduled.
    pub lost_hosts: Vec<usize>,
    /// Requests still legitimately in flight when the run stopped
    /// (informational — the completion target stops the loop with the
    /// remaining hosts mid-request).
    pub in_flight: usize,
}

impl AuditReport {
    /// `true` when every invariant held.
    pub fn is_clean(&self) -> bool {
        !self.hung && !self.starved && self.wedged_hosts.is_empty() && self.lost_hosts.is_empty()
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return write!(f, "audit clean ({} request(s) in flight)", self.in_flight);
        }
        write!(
            f,
            "audit FAILED: hung={} starved={} wedged={:?} lost={:?}",
            self.hung, self.starved, self.wedged_hosts, self.lost_hosts
        )
    }
}

/// A rejected [`SimConfig`](crate::SimConfig): the first violated
/// invariant, with the same message text the old panicking validator
/// used.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError(pub(crate) String);

impl ConfigError {
    /// The human-readable description of the violated invariant.
    pub fn message(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid configuration: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_inert() {
        let plan = FaultPlan::default();
        assert!(!plan.active());
        assert!(!plan.server_down(0.0));
        assert!(!plan.server_down(123.4));
    }

    #[test]
    fn any_channel_activates_the_plan() {
        for plan in [
            FaultPlan {
                p2p_loss: 0.1,
                ..FaultPlan::default()
            },
            FaultPlan {
                corruption: 0.1,
                ..FaultPlan::default()
            },
            FaultPlan {
                departure: 0.1,
                ..FaultPlan::default()
            },
            FaultPlan {
                server_outage: Some((60.0, 5.0)),
                ..FaultPlan::default()
            },
            FaultPlan {
                beacon_jitter_secs: 0.1,
                ..FaultPlan::default()
            },
        ] {
            assert!(plan.active(), "{plan:?} should be active");
        }
    }

    #[test]
    fn outage_windows_are_periodic() {
        let plan = FaultPlan {
            server_outage: Some((60.0, 5.0)),
            ..FaultPlan::default()
        };
        assert!(plan.server_down(0.0));
        assert!(plan.server_down(4.999));
        assert!(!plan.server_down(5.0));
        assert!(!plan.server_down(59.9));
        assert!(plan.server_down(60.0));
        assert!(plan.server_down(64.0));
        assert!(!plan.server_down(66.0));
    }

    #[test]
    fn every_named_profile_resolves() {
        for name in FaultPlan::PROFILE_NAMES {
            let plan = FaultPlan::profile(name).expect("listed profile must resolve");
            if *name == "none" {
                assert!(!plan.active());
            } else {
                assert!(plan.active(), "profile {name} should enable something");
            }
        }
        assert_eq!(FaultPlan::profile("bogus"), None);
    }

    #[test]
    fn audit_report_cleanliness() {
        let clean = AuditReport {
            in_flight: 7,
            ..AuditReport::default()
        };
        assert!(clean.is_clean());
        assert!(clean.to_string().contains("clean"));
        let hung = AuditReport {
            hung: true,
            ..AuditReport::default()
        };
        assert!(!hung.is_clean());
        let wedged = AuditReport {
            wedged_hosts: vec![3],
            ..AuditReport::default()
        };
        assert!(!wedged.is_clean());
        assert!(wedged.to_string().contains("FAILED"));
    }

    #[test]
    fn config_error_displays_its_message() {
        let err = ConfigError("need at least one client".into());
        assert_eq!(err.message(), "need at least one client");
        assert!(err.to_string().contains("need at least one client"));
    }
}
