//! The three named workloads, the cells each one runs, and the pinned
//! digests that check their outputs at the harness seed.

use grococa_core::{RunOutput, Scheme, SimConfig};
use grococa_sim::derive_seed;

/// The figure harness's default seed (`SimConfig::default().seed`).
/// Only at this seed are cell digests checked against the pinned table.
pub const HARNESS_SEED: u64 = 0xC0CA;

/// The schemes every figure compares, in the harness's cell order.
pub const SCHEMES: [Scheme; 3] = [Scheme::Conventional, Scheme::Coca, Scheme::GroCoca];

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The 15 cells of `figures fig2` at quick scale.
    Fig2Sweep,
    /// Figure 7's largest population, n = 500, all three schemes.
    Fig7N500,
    /// GroCoca at P_disc = 0.3, checkpointed, then resumed.
    Fig8ChurnCkpt,
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 3] = [
        Workload::Fig2Sweep,
        Workload::Fig7N500,
        Workload::Fig8ChurnCkpt,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig2Sweep => "fig2_sweep",
            Workload::Fig7N500 => "fig7_n500",
            Workload::Fig8ChurnCkpt => "fig8_churn_ckpt",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Full size for measurement; tiny for the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the documentation describes.
    Full,
    /// A few hosts and requests per cell, same cell structure.
    Tiny,
}

/// One simulation run of a workload.
#[derive(Debug, Clone)]
pub struct CellSpec {
    /// Stable label, e.g. `cache=50/CC`; keys the pinned digests.
    pub label: String,
    /// The full configuration handed to `Simulation::new`.
    pub cfg: SimConfig,
}

/// The cells of `workload` at `scale`, with every cell seed derived from
/// `seed` the way the figure harness derives it (seed index 0).
pub fn cells(workload: Workload, seed: u64, scale: Scale) -> Vec<CellSpec> {
    let tiny = scale == Scale::Tiny;
    let base = |scheme: Scheme, requests_per_mh: u64| SimConfig {
        scheme,
        requests_per_mh,
        seed: derive_seed(seed, 0),
        ..SimConfig::default()
    };
    match workload {
        Workload::Fig2Sweep => {
            let sizes: &[usize] = if tiny {
                &[50, 250]
            } else {
                &[50, 100, 150, 200, 250]
            };
            let mut out = Vec::new();
            for &cache_size in sizes {
                for scheme in SCHEMES {
                    let mut cfg = base(scheme, if tiny { 10 } else { 300 });
                    cfg.cache_size = cache_size;
                    if tiny {
                        cfg.num_clients = 20;
                    }
                    out.push(CellSpec {
                        label: format!("cache={cache_size}/{}", scheme.label()),
                        cfg,
                    });
                }
            }
            out
        }
        Workload::Fig7N500 => SCHEMES
            .into_iter()
            .map(|scheme| {
                let mut cfg = base(scheme, FIG7_REQUESTS_PER_MH);
                cfg.num_clients = if tiny { 40 } else { 500 };
                CellSpec {
                    label: format!("n={}/{}", cfg.num_clients, scheme.label()),
                    cfg,
                }
            })
            .collect(),
        Workload::Fig8ChurnCkpt => {
            let mut cfg = base(Scheme::GroCoca, if tiny { 20 } else { 300 });
            cfg.p_disc = 0.3;
            if tiny {
                cfg.num_clients = 20;
            }
            vec![CellSpec {
                label: format!("pdisc=0.3/{}", Scheme::GroCoca.label()),
                cfg,
            }]
        }
    }
}

/// Recorded requests per host in `fig7_n500`: warm-up dominates the run,
/// so a short recorded window keeps the cell cheap without changing
/// where its time goes.
const FIG7_REQUESTS_PER_MH: u64 = 10;

/// Whole passes over the cells for a `seconds` budget. The count follows
/// from the budget and a fixed per-workload pass length, never from
/// measured speed, so a faster build runs exactly as many passes as a
/// slower one. `fig8_churn_ckpt`'s single cell gets the most repeats: a
/// lone cell has no other cells to average out a slow spell on the host.
/// A traced run makes at least two: one untraced, one traced.
pub fn passes(workload: Workload, seconds: f64, trace: bool) -> usize {
    let nominal_s = match workload {
        Workload::Fig2Sweep => 9.5,
        Workload::Fig7N500 => 10.5,
        Workload::Fig8ChurnCkpt => 3.3,
    };
    ((seconds / nominal_s) as usize).max(if trace { 2 } else { 1 })
}

/// The checkpoint cadence in fired events, for the workload that
/// checkpoints inside its measured run: the CLI default of 20,000.
pub fn checkpoint_every(workload: Workload, scale: Scale) -> Option<u64> {
    match (workload, scale) {
        (Workload::Fig8ChurnCkpt, Scale::Full) => Some(20_000),
        (Workload::Fig8ChurnCkpt, Scale::Tiny) => Some(2_000),
        _ => None,
    }
}

/// FNV-1a over a cell's report fields (floats by bit pattern) and its
/// event count: any change to simulated behaviour changes the digest.
pub fn digest(out: &RunOutput) -> u64 {
    let r = &out.report;
    let words = [
        out.events,
        r.completed,
        r.signature_messages,
        r.signature_bytes,
        r.search_timeouts,
        r.filter_bypasses,
        r.validations,
        r.access_latency_ms.to_bits(),
        r.latency_stddev_ms.to_bits(),
        r.local_hit_ratio_pct.to_bits(),
        r.global_hit_ratio_pct.to_bits(),
        r.server_request_ratio_pct.to_bits(),
        r.push_hit_ratio_pct.to_bits(),
        r.tcg_share_of_global_pct.to_bits(),
        r.total_power_uws.to_bits(),
        r.power_per_gch_uws.to_bits(),
        r.power_per_request_uws.to_bits(),
    ];
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Digests of every full-size cell at [`HARNESS_SEED`]. A mismatch means
/// the simulator's behaviour changed; re-pin only for a change that is
/// meant to alter simulated results.
pub fn pinned(workload: Workload) -> &'static [(&'static str, u64)] {
    match workload {
        Workload::Fig2Sweep => &[
            ("cache=50/CC", 0x8924_3cdf_5c3f_dec5),
            ("cache=50/COCA", 0x8e58_9621_2949_736b),
            ("cache=50/GC", 0x5d9f_f682_868b_356c),
            ("cache=100/CC", 0x6014_c6b0_8539_4b28),
            ("cache=100/COCA", 0xe41d_90e3_3392_f083),
            ("cache=100/GC", 0x223a_1473_0bf5_de6e),
            ("cache=150/CC", 0x9490_b32d_fd08_0cc5),
            ("cache=150/COCA", 0xf390_c106_b817_fe0c),
            ("cache=150/GC", 0x4bc5_5d35_5c8d_cacb),
            ("cache=200/CC", 0x1fde_c071_ee58_d47a),
            ("cache=200/COCA", 0x2756_1a35_4738_94a0),
            ("cache=200/GC", 0xa083_8a48_882b_649a),
            ("cache=250/CC", 0x39e2_4bbd_4568_f6c0),
            ("cache=250/COCA", 0x4f72_4d5b_76db_9418),
            ("cache=250/GC", 0xaa9a_d885_234a_2832),
        ],
        Workload::Fig7N500 => &[
            ("n=500/CC", 0x9870_899e_c15e_75ce),
            ("n=500/COCA", 0xed4f_979c_dac5_0db2),
            ("n=500/GC", 0x98fa_6fdd_a5c4_98ec),
        ],
        Workload::Fig8ChurnCkpt => &[("pdisc=0.3/GC", 0xd4a4_0035_f8af_1120)],
    }
}
