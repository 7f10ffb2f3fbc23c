//! # GroCoca — group-based P2P cooperative caching for mobile environments
//!
//! The umbrella crate of the GroCoca workspace: a complete, from-scratch
//! reproduction of *"GroCoca: Group-based Peer-to-Peer Cooperative Caching
//! in Mobile Environment"* (Chow, Leong & Chan — the journal extension of
//! their ICDCS 2004 "Peer-to-Peer Cooperative Caching in Mobile
//! Environments" paper), including the COCA substrate, the cache-signature
//! scheme, tightly-coupled-group discovery, both cooperative cache
//! management protocols, and the full simulation used to evaluate them.
//!
//! This crate re-exports every component crate:
//!
//! * [`core`] — the schemes (CC / COCA / GroCoca), TCG discovery, the
//!   simulator and its metrics;
//! * [`sim`] — the deterministic discrete-event engine;
//! * [`mobility`] — random waypoint and reference-point group mobility;
//! * [`net`] — server and P2P channel models;
//! * [`power`] — the Feeney–Nilsson power model;
//! * [`cache`] — the LRU + TTL client cache;
//! * [`signature`] — bloom-filter cache signatures and VLFL compression;
//! * [`workload`] — Zipf access patterns and the server database;
//! * [`par`] — the supervised worker pool behind parallel sweeps;
//! * [`journal`] — the crash-safe write-ahead result journal.
//!
//! The most common entry points are re-exported at the top level.
//!
//! # Examples
//!
//! Compare the three schemes of the paper on one configuration:
//!
//! ```no_run
//! use grococa::{Scheme, SimConfig, Simulation};
//!
//! for scheme in [Scheme::Conventional, Scheme::Coca, Scheme::GroCoca] {
//!     let mut cfg = SimConfig::for_scheme(scheme);
//!     cfg.num_clients = 100;
//!     cfg.requests_per_mh = 300;
//!     let out = Simulation::new(cfg).run();
//!     println!(
//!         "{:>5}: {:.1} ms, GCH {:.1} %",
//!         scheme.label(),
//!         out.report.access_latency_ms,
//!         out.report.global_hit_ratio_pct
//!     );
//! }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use grococa_cache as cache;
pub use grococa_core as core;
pub use grococa_journal as journal;
pub use grococa_mobility as mobility;
pub use grococa_net as net;
pub use grococa_par as par;
pub use grococa_power as power;
pub use grococa_signature as signature;
pub use grococa_sim as sim;
pub use grococa_workload as workload;

pub use grococa_core::{
    AuditReport, ConfigError, FaultPlan, FaultStats, GroCocaToggles, MembershipChange, Metrics,
    MotionModel, Outcome, ReplacementPolicy, Report, RetryPolicy, Scheme, SimConfig, Simulation,
    TcgDirectory,
};
pub use grococa_sim::SimTime;
pub use grococa_workload::ItemId;
