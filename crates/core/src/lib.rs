//! # GroCoca — group-based peer-to-peer cooperative caching
//!
//! A from-scratch reproduction of *"GroCoca: Group-based Peer-to-Peer
//! Cooperative Caching in Mobile Environment"* (Chow, Leong & Chan; the
//! journal extension of their ICDCS/ICPP 2004 COCA papers). This crate is
//! the paper's primary contribution: the COCA communication protocol, the
//! tightly-coupled-group (TCG) discovery algorithms, the cache-signature
//! scheme, the two cooperative cache-management protocols, TTL-based cache
//! consistency, and the full simulation that evaluates them.
//!
//! ## The three schemes
//!
//! * [`Scheme::Conventional`] — each mobile host uses only its local LRU
//!   cache and the mobile support station (MSS).
//! * [`Scheme::Coca`] — on a local miss the host broadcasts a request to
//!   peers within `HopDist` hops and retrieves from the first replier,
//!   falling back to the MSS on an adaptive timeout.
//! * [`Scheme::GroCoca`] — COCA plus: the MSS passively groups hosts with
//!   common mobility (EWMA distance ≤ Δ) and data affinity (cosine
//!   similarity ≥ δ) into TCGs; hosts exchange bloom-filter cache
//!   signatures within their TCG, filter hopeless peer searches, avoid
//!   replicating what a group member already caches, and cooperatively
//!   pick replacement victims.
//!
//! ## Quick start
//!
//! ```no_run
//! use grococa_core::{Scheme, SimConfig, Simulation};
//!
//! let mut cfg = SimConfig::for_scheme(Scheme::GroCoca);
//! cfg.num_clients = 50;
//! cfg.requests_per_mh = 200;
//! cfg.seed = 7;
//! let out = Simulation::new(cfg).run();
//! println!(
//!     "latency {:.1} ms, GCH {:.1} %, power/GCH {:.0} µWs",
//!     out.report.access_latency_ms,
//!     out.report.global_hit_ratio_pct,
//!     out.report.power_per_gch_uws,
//! );
//! ```
//!
//! Runs are deterministic in `cfg.seed`: identical configurations produce
//! bit-identical reports.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod config;
mod error;
mod fault;
mod host;
mod metrics;
mod sim;
mod snapshot;
mod tcg;
mod trace;

pub use config::{GroCocaToggles, Scheme, SimConfig};
pub use error::SimError;
pub use fault::{AuditReport, ConfigError, FaultPlan, FaultStats, RetryPolicy};
pub use grococa_cache::ReplacementPolicy;
pub use grococa_mobility::MotionModel;
pub use host::{Host, Pending, Phase};
pub use metrics::{Metrics, Outcome, Report};
pub use sim::{ResumedSimulation, RunOutput, Simulation};
pub use snapshot::SnapshotError;
pub use tcg::{MembershipChange, TcgDirectory};
pub use trace::{TraceKind, TraceRecord, Tracer};
