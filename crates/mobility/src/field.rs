//! The mobility field: the positions of every mobile host over time, plus
//! geometric neighbourhood queries (transmission range, multi-hop
//! reachability).

use grococa_sim::{SimRng, SimTime};

use crate::{
    GaussMarkov, GaussMarkovParams, GroupParams, Manhattan, ManhattanParams, MotionGroup,
    RandomWaypoint, SpatialGrid, Vec2, WaypointParams,
};

/// How far, as a fraction of the query range, a host may have moved since
/// the spatial index's snapshot before a query rebuilds the index instead
/// of reusing it. A wider skin rebuilds less often but widens every
/// query's candidate disc to `range + drift`. Interleaved perfbench runs
/// (2-vCPU VM, default seed) found `fig2_sweep` (n = 100, where rebuilds
/// dominate) flat within noise from 0.05 to 0.5, while the COCA cell of
/// `fig7_n500` (n = 500, where candidates dominate) ran ~20% slower at
/// 0.5 than at 0.1–0.25. A quarter sits in the middle of the flat range.
#[cfg(not(feature = "oracle"))]
const SKIN: f64 = 0.25;

/// Packs a bool activity slice into the `u64` bitmask form consumed by
/// [`MobilityField::neighbors_within_bits`] (bit `i` set ⇔ `active[i]`).
/// `out` is cleared and resized, so a warm caller never allocates.
pub fn pack_active_bits(active: &[bool], out: &mut Vec<u64>) {
    out.clear();
    out.resize(active.len().div_ceil(64), 0);
    for (i, &a) in active.iter().enumerate() {
        out[i >> 6] |= (a as u64) << (i & 63);
    }
}

/// Whether bit `i` of a packed mask is set (bits past its end are clear).
fn bit(words: &[u64], i: usize) -> bool {
    words.get(i >> 6).is_some_and(|w| w >> (i & 63) & 1 == 1)
}

/// Which mobility model drives the hosts.
///
/// The paper's client model is [`MotionModel::GroupWaypoint`] (reference
/// point group mobility, degenerating to individual random waypoint at
/// group size 1); the other models are extensions for the mobility-model
/// ablation. Under every model, hosts are still *logically* partitioned
/// into groups of `group_size` for access-pattern purposes — only the
/// motion coupling changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MotionModel {
    /// Reference point group mobility (the paper's model).
    #[default]
    GroupWaypoint,
    /// Independent random waypoint per host, regardless of group size.
    IndividualWaypoint,
    /// Independent Gauss–Markov motion (momentum, no group structure).
    GaussMarkov,
    /// Independent Manhattan-grid motion (urban streets).
    Manhattan,
}

/// Configuration of a [`MobilityField`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FieldConfig {
    /// The mobility model hosts follow.
    pub model: MotionModel,
    /// Space width, metres.
    pub width: f64,
    /// Space height, metres.
    pub height: f64,
    /// Host speed range, m/s.
    pub v_min: f64,
    /// Upper host speed, m/s.
    pub v_max: f64,
    /// Pause at waypoints (the paper uses one second).
    pub pause: SimTime,
    /// Members per motion group; `1` degenerates to individual random
    /// waypoint motion, exactly as in the paper's Section VI.C.
    pub group_size: usize,
    /// How far members roam from their group reference point, metres.
    pub group_radius: f64,
}

impl Default for FieldConfig {
    fn default() -> Self {
        FieldConfig {
            model: MotionModel::GroupWaypoint,
            width: 1000.0,
            height: 1000.0,
            v_min: 1.0,
            v_max: 5.0,
            pause: SimTime::from_secs(1),
            group_size: 5,
            group_radius: 50.0,
        }
    }
}

#[derive(Debug)]
enum Mover {
    Individual(RandomWaypoint),
    Grouped { group: usize, member: usize },
    GaussMarkov(GaussMarkov),
    Manhattan(Manhattan),
}

impl Mover {
    fn position_at(&mut self, groups: &mut [MotionGroup], t: SimTime) -> Vec2 {
        match self {
            Mover::Individual(w) => w.position_at(t),
            Mover::Grouped { group, member } => groups[*group].member_at(*member, t),
            Mover::GaussMarkov(g) => g.position_at(t),
            Mover::Manhattan(m) => m.position_at(t),
        }
    }
}

/// Positions of `n` mobile hosts over time, grouped per the reference point
/// group mobility model, with neighbourhood queries.
///
/// Hosts are identified by dense indices `0..n`.
///
/// # Examples
///
/// ```
/// use grococa_mobility::{FieldConfig, MobilityField};
/// use grococa_sim::SimTime;
///
/// let mut field = MobilityField::new(FieldConfig::default(), 20, 42);
/// let t = SimTime::from_secs(10);
/// let positions = field.positions_at(t).to_vec();
/// assert_eq!(positions.len(), 20);
/// assert_eq!(field.group_of(0), field.group_of(4)); // group size 5
/// assert_ne!(field.group_of(0), field.group_of(5));
/// ```
#[derive(Debug)]
pub struct MobilityField {
    config: FieldConfig,
    groups: Vec<MotionGroup>,
    movers: Vec<Mover>,
    group_of: Vec<usize>,
    /// No host moves faster than this, m/s: the motion model's bound.
    #[cfg_attr(feature = "oracle", allow(dead_code))]
    speed_bound: f64,
    /// The last full position pass: every host's position at `cache_t`.
    cache_t: Option<SimTime>,
    cache: Vec<Vec2>,
    cache_hits: u64,
    cache_misses: u64,
    /// Exact positions computed one host at a time, each stamped with its
    /// instant. A query at an instant the full pass does not cover reads
    /// (and fills) these, so it never pays for hosts it does not touch.
    point: Vec<(Option<SimTime>, Vec2)>,
    /// Spatial index over `cache`, keyed `(cache_t, range)`. Queries at
    /// later instants reuse it while no host can have left the skin (see
    /// [`MobilityField::ready_grid`]). (Idle in `oracle` builds, which
    /// route every query through the brute force.)
    #[cfg_attr(feature = "oracle", allow(dead_code))]
    grid: SpatialGrid,
    grid_key: Option<(SimTime, u64)>,
    /// The newest instant a grid query has asked about.
    #[cfg_attr(feature = "oracle", allow(dead_code))]
    latest: SimTime,
    /// Candidate scratch for queries away from the grid's instant, sized
    /// to n up front so no query grows it.
    #[cfg_attr(feature = "oracle", allow(dead_code))]
    cand: Vec<u32>,
    /// Bitset scratch: one bit per host, set for in-range candidates and
    /// swept in ascending index order (cleared during the sweep). This is
    /// how grid queries reproduce the brute-force output order without
    /// sorting.
    #[cfg_attr(feature = "oracle", allow(dead_code))]
    mask: Vec<u64>,
    /// BFS scratch for `reachable_within_hops` (reused, sized to n up
    /// front).
    #[cfg_attr(feature = "oracle", allow(dead_code))]
    bfs_dist: Vec<u32>,
    #[cfg_attr(feature = "oracle", allow(dead_code))]
    bfs_frontier: Vec<u32>,
    #[cfg_attr(feature = "oracle", allow(dead_code))]
    bfs_next: Vec<u32>,
}

/// The memoised query-cache state of a [`MobilityField`], exported by
/// [`MobilityField::export_memo`] for run-level checkpoints. Restoring it
/// (after warping the movers) makes the field's observable behaviour —
/// positions, cache hit/miss accounting, grid build decisions —
/// indistinguishable from the checkpointed run's.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldMemo {
    /// The instant of the last full position pass, if any.
    pub cache_t: Option<SimTime>,
    /// The positions of that pass (meaningful when `cache_t` is set).
    pub cache: Vec<Vec2>,
    /// Position-cache hits accumulated so far.
    pub cache_hits: u64,
    /// Position-cache misses accumulated so far.
    pub cache_misses: u64,
    /// The `(t, range.to_bits())` key of the built spatial index, if any.
    /// The index is always built from the full pass, so `t == cache_t`.
    pub grid_key: Option<(SimTime, u64)>,
}

impl MobilityField {
    /// Creates a field of `n` hosts partitioned into ⌈n / group_size⌉ motion
    /// groups (the last group may be smaller).
    ///
    /// # Panics
    ///
    /// Panics if `n` or `config.group_size` is zero, or the waypoint
    /// parameters are invalid.
    pub fn new(config: FieldConfig, n: usize, seed: u64) -> Self {
        assert!(n > 0, "a field needs at least one host");
        assert!(config.group_size > 0, "group size must be positive");
        let wp = WaypointParams {
            width: config.width,
            height: config.height,
            v_min: config.v_min,
            v_max: config.v_max,
            pause: config.pause,
        };
        let mut rng = SimRng::substream(seed, 0xF1E1D);
        let mut groups = Vec::new();
        let mut movers = Vec::with_capacity(n);
        let mut group_of = Vec::with_capacity(n);
        // Logical (access-pattern) grouping is model-independent.
        let logical_groups = |group_of: &mut Vec<usize>| {
            for i in 0..n {
                group_of.push(i / config.group_size);
            }
        };
        let speed_bound = match config.model {
            MotionModel::IndividualWaypoint => {
                logical_groups(&mut group_of);
                for _ in 0..n {
                    movers.push(Mover::Individual(RandomWaypoint::new(wp, &mut rng)));
                }
                wp.speed_bound()
            }
            MotionModel::GaussMarkov => {
                logical_groups(&mut group_of);
                let gm = GaussMarkovParams {
                    width: config.width,
                    height: config.height,
                    mean_speed: 0.5 * (config.v_min + config.v_max),
                    ..GaussMarkovParams::default()
                };
                for _ in 0..n {
                    movers.push(Mover::GaussMarkov(GaussMarkov::new(gm, &mut rng)));
                }
                gm.speed_bound()
            }
            MotionModel::Manhattan => {
                logical_groups(&mut group_of);
                let mp = ManhattanParams {
                    width: config.width,
                    height: config.height,
                    v_min: config.v_min,
                    v_max: config.v_max,
                    ..ManhattanParams::default()
                };
                for _ in 0..n {
                    movers.push(Mover::Manhattan(Manhattan::new(mp, &mut rng)));
                }
                mp.speed_bound()
            }
            MotionModel::GroupWaypoint if config.group_size == 1 => {
                // Degenerate case: plain individual random waypoint motion.
                for i in 0..n {
                    movers.push(Mover::Individual(RandomWaypoint::new(wp, &mut rng)));
                    group_of.push(i);
                }
                wp.speed_bound()
            }
            MotionModel::GroupWaypoint => {
                let gp = GroupParams {
                    reference: wp,
                    group_radius: config.group_radius,
                    member_v_min: (config.v_min * 0.5).max(0.1),
                    member_v_max: (config.v_max * 0.5).max(0.2),
                };
                let mut i = 0;
                while i < n {
                    let members = config.group_size.min(n - i);
                    let gi = groups.len();
                    groups.push(MotionGroup::new(gp, members, &mut rng));
                    for m in 0..members {
                        movers.push(Mover::Grouped {
                            group: gi,
                            member: m,
                        });
                        group_of.push(gi);
                    }
                    i += members;
                }
                gp.speed_bound()
            }
        };
        MobilityField {
            config,
            groups,
            movers,
            group_of,
            speed_bound,
            cache_t: None,
            cache: vec![Vec2::ZERO; n],
            cache_hits: 0,
            cache_misses: 0,
            point: vec![(None, Vec2::ZERO); n],
            grid: SpatialGrid::new(),
            grid_key: None,
            latest: SimTime::ZERO,
            cand: Vec::with_capacity(n),
            mask: vec![0; n.div_ceil(64)],
            bfs_dist: vec![u32::MAX; n],
            bfs_frontier: Vec::with_capacity(n),
            bfs_next: Vec::with_capacity(n),
        }
    }

    /// Number of hosts.
    pub fn len(&self) -> usize {
        self.movers.len()
    }

    /// Whether the field is empty (never true for constructed fields).
    pub fn is_empty(&self) -> bool {
        self.movers.is_empty()
    }

    /// The configuration the field was built with.
    pub fn config(&self) -> &FieldConfig {
        &self.config
    }

    /// The motion-group index of host `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn group_of(&self, i: usize) -> usize {
        self.group_of[i]
    }

    /// Position of host `i` at time `t`.
    pub fn position_at(&mut self, i: usize, t: SimTime) -> Vec2 {
        self.movers[i].position_at(&mut self.groups, t)
    }

    /// One full O(n) position pass: every host's position at `t`.
    fn full_pass(&mut self, t: SimTime) {
        for (p, m) in self.cache.iter_mut().zip(self.movers.iter_mut()) {
            *p = m.position_at(&mut self.groups, t);
        }
        self.cache_t = Some(t);
    }

    /// Positions of all hosts at `t`; cached so repeated calls at the same
    /// instant cost one pass.
    pub fn positions_at(&mut self, t: SimTime) -> &[Vec2] {
        if self.cache_t == Some(t) {
            self.cache_hits += 1;
        } else {
            self.cache_misses += 1;
            self.full_pass(t);
            // The index is built from the pass it was keyed with; this
            // pass replaced it.
            self.grid_key = None;
        }
        &self.cache
    }

    /// Position-cache hits and misses accumulated so far. Every geometric
    /// query counts once: a miss is a query that paid a full O(n) position
    /// pass (and, for a range query, an index rebuild); every other query
    /// — the index reused, or one host's position computed point-wise — is
    /// a hit.
    pub fn cache_stats(&self) -> (u64, u64) {
        (self.cache_hits, self.cache_misses)
    }

    /// Advances every mover's internal catch-up state to `t` without
    /// touching the memo counters or caches.
    ///
    /// Every mover owns its RNG (seeded at construction) and advances by
    /// pure monotone catch-up, so a freshly constructed field warped to
    /// `t` answers every later query with exactly the positions — and
    /// exactly the RNG draws — of a field that simulated its way to `t`.
    /// This is the restore primitive for run-level checkpoints.
    pub fn warp_to(&mut self, t: SimTime) {
        for i in 0..self.movers.len() {
            let _ = self.movers[i].position_at(&mut self.groups, t);
        }
    }

    /// Exports the memoised query-cache state for checkpointing: the last
    /// full position pass, the hit/miss counters and the spatial-index
    /// key. The grid contents themselves are not exported — they are a
    /// deterministic function of the pass and are rebuilt by
    /// [`MobilityField::restore_memo`]. Point-wise positions are not
    /// exported either: they are a pure function of the instant, and no
    /// counter depends on them.
    pub fn export_memo(&self) -> FieldMemo {
        FieldMemo {
            cache_t: self.cache_t,
            cache: self.cache.clone(),
            cache_hits: self.cache_hits,
            cache_misses: self.cache_misses,
            grid_key: self.grid_key,
        }
    }

    /// Restores memo state previously returned by
    /// [`MobilityField::export_memo`] into a freshly constructed (and
    /// warped) field of the same size, rebuilding the spatial index from
    /// the restored pass. A grid key whose instant is not the pass's
    /// cannot be rebuilt and is dropped (snapshot decoding refuses such a
    /// memo before it gets here).
    ///
    /// # Panics
    ///
    /// Panics if the host count differs.
    pub fn restore_memo(&mut self, memo: FieldMemo) {
        assert_eq!(
            memo.cache.len(),
            self.cache.len(),
            "host count must match the checkpointed run"
        );
        self.cache_t = memo.cache_t;
        self.cache = memo.cache;
        self.cache_hits = memo.cache_hits;
        self.cache_misses = memo.cache_misses;
        self.grid_key = memo.grid_key.filter(|&(t, _)| Some(t) == memo.cache_t);
        #[cfg(not(feature = "oracle"))]
        if let Some((_, range_bits)) = self.grid_key {
            let range = f64::from_bits(range_bits);
            self.grid.rebuild(
                &self.cache,
                self.config.width,
                self.config.height,
                range * 0.5,
            );
        }
    }

    /// Host `i`'s exact position at `t`: from the full pass when it covers
    /// `t`, else from the point memo, computed on first use at `t`.
    fn exact_at(&mut self, i: usize, t: SimTime) -> Vec2 {
        if self.cache_t == Some(t) {
            return self.cache[i]; // tidy:allow(panic-discipline): host indices are < n by contract
        }
        let (at, p) = &mut self.point[i]; // tidy:allow(panic-discipline): host indices are < n by contract
        if *at != Some(t) {
            *p = self.movers[i].position_at(&mut self.groups, t); // tidy:allow(panic-discipline): host indices are < n by contract
            *at = Some(t);
        }
        *p
    }

    /// Position of host `i` at `t` without a full O(n) pass: served from
    /// the last pass when it covers `t` (the common case inside one
    /// event), else computed point-wise and memoised for the instant.
    /// Always counts a hit.
    pub fn cached_position_at(&mut self, i: usize, t: SimTime) -> Vec2 {
        self.cache_hits += 1;
        self.exact_at(i, t)
    }

    /// Euclidean distance between hosts `a` and `b` at `t` (via the
    /// memoised positions).
    pub fn distance_at(&mut self, a: usize, b: usize, t: SimTime) -> f64 {
        let pa = self.cached_position_at(a, t);
        let pb = self.cached_position_at(b, t);
        pa.distance(pb)
    }

    /// Readies the spatial index for a query at `(t, range)` and returns
    /// how far any host may have moved since the index's instant t₀ —
    /// zero when t₀ is `t`.
    ///
    /// An index built at t₀ serves a later `t` while no host can have
    /// moved more than the skin, `speed_bound·(t − t₀) ≤ SKIN·range`, and
    /// counts a hit. Otherwise the query pays one full position pass at
    /// `t` and a rebuild, and counts a miss. The returned drift is widened
    /// for rounding: travel times round to whole microseconds (a segment
    /// can run a hair faster than its drawn speed, and a sub-µs leg jumps
    /// a few µm at once), and float arithmetic adds a little more.
    #[cfg(not(feature = "oracle"))]
    fn ready_grid(&mut self, t: SimTime, range: f64) -> f64 {
        if t < self.latest {
            // Movers answer only non-decreasing instants; a caller going
            // back gets a full pass, as the brute force would give it.
            self.grid_key = None;
        }
        self.latest = t;
        if let Some((t0, range_bits)) = self.grid_key {
            if range_bits == range.to_bits() && t >= t0 {
                if t == t0 {
                    self.cache_hits += 1;
                    return 0.0;
                }
                let drift = self.speed_bound * (t - t0).as_secs_f64();
                if drift <= SKIN * range {
                    self.cache_hits += 1;
                    return drift * (1.0 + 1e-9) + 1e-3;
                }
            }
        }
        self.cache_misses += 1;
        self.full_pass(t);
        // Cell edge at half the range: the covered rectangle hugs the
        // query disc tighter, cutting the candidate superset by ~30%
        // versus edge == range for a handful more (contiguous) cells.
        self.grid.rebuild(
            &self.cache,
            self.config.width,
            self.config.height,
            range * 0.5,
        );
        self.grid_key = Some((t, range.to_bits()));
        0.0
    }

    /// Sets the mask bit of every host within `range` of `p` at `t`,
    /// where `drift` is what [`MobilityField::ready_grid`] returned.
    /// Hosts failing `keep` may be left unmarked, so callers still filter
    /// in their sweep, which must also clear the mask to restore its
    /// all-zero invariant.
    #[cfg(not(feature = "oracle"))]
    fn mark_in_range(
        &mut self,
        p: Vec2,
        t: SimTime,
        range: f64,
        drift: f64,
        keep: impl Fn(usize) -> bool,
    ) {
        let range_sq = range * range;
        if drift == 0.0 {
            // The index holds the exact positions at `t`: test them
            // branchlessly, writing every candidate's word and carrying a
            // bit only on a hit.
            let mask = &mut self.mask;
            self.grid.for_each_slice(p, range, |idx, pos| {
                // Copy the captures into locals so the mask stores below
                // cannot force per-iteration reloads of loop-invariant
                // values.
                let (p, range_sq) = (p, range_sq);
                for (q, &i) in pos.iter().zip(idx) {
                    let hit = p.distance_sq(*q) <= range_sq;
                    let i = i as usize;
                    mask[i >> 6] |= (hit as u64) << (i & 63); // tidy:allow(panic-discipline): the index holds hosts 0..n only
                }
            });
            return;
        }
        // A host within `range` of `p` at `t` was within `range + drift`
        // of it at t₀ (triangle inequality), so the wider disc over the
        // index yields a superset of the hits. Only those candidates get
        // exact positions at `t`, and the exact test is the brute force's.
        let reach = range + drift;
        let reach_sq = reach * reach;
        let mut cand = std::mem::take(&mut self.cand);
        cand.clear();
        self.grid.for_each_slice(p, reach, |idx, pos| {
            for (q, &i) in pos.iter().zip(idx) {
                if p.distance_sq(*q) <= reach_sq && keep(i as usize) {
                    cand.push(i);
                }
            }
        });
        for &i in &cand {
            let i = i as usize;
            let hit = p.distance_sq(self.exact_at(i, t)) <= range_sq;
            self.mask[i >> 6] |= (hit as u64) << (i & 63); // tidy:allow(panic-discipline): the index holds hosts 0..n only
        }
        self.cand = cand;
    }

    /// Hosts within `range` metres of host `src` at `t` (excluding `src`
    /// itself), filtered by `active` (e.g. connected, powered-on hosts).
    ///
    /// Convenience wrapper over [`MobilityField::neighbors_within_into`]
    /// that allocates the result; hot paths should pass their own reusable
    /// buffer instead.
    pub fn neighbors_within(
        &mut self,
        src: usize,
        range: f64,
        t: SimTime,
        active: &[bool],
    ) -> Vec<usize> {
        let mut out = Vec::new();
        self.neighbors_within_into(src, range, t, active, &mut out);
        out
    }

    /// [`MobilityField::neighbors_within`] into a caller-supplied buffer
    /// (cleared first). Grid-accelerated: candidates come from the cells
    /// around `src`, marked in a bitmask swept in ascending index order,
    /// so the output order is identical to a brute-force `0..n` scan. A
    /// warm call performs no heap allocation.
    pub fn neighbors_within_into(
        &mut self,
        src: usize,
        range: f64,
        t: SimTime,
        active: &[bool],
        out: &mut Vec<usize>,
    ) {
        #[cfg(feature = "oracle")]
        {
            let brute = self.neighbors_within_brute(src, range, t, active);
            out.clear();
            out.extend(brute);
        }
        #[cfg(not(feature = "oracle"))]
        {
            out.clear();
            let is_active = |i: usize| active.get(i).copied().unwrap_or(false);
            let drift = self.ready_grid(t, range);
            let p = self.exact_at(src, t);
            self.mark_in_range(p, t, range, drift, |i| i != src && is_active(i));
            // `src` marks itself (distance zero); drop it before the sweep.
            self.mask[src >> 6] &= !(1u64 << (src & 63)); // tidy:allow(panic-discipline): src < n by contract

            // Sweeping set bits in word order visits hosts in ascending
            // index order — exactly the brute-force scan order.
            for (w, mw) in self.mask.iter_mut().enumerate() {
                let mut m = *mw;
                *mw = 0;
                while m != 0 {
                    let i = (w << 6) + m.trailing_zeros() as usize;
                    m &= m - 1;
                    if is_active(i) {
                        out.push(i);
                    }
                }
            }
        }
    }

    /// [`MobilityField::neighbors_within_into`] with the activity filter
    /// given as a packed bitmask (bit `i` set ⇔ host `i` active) instead
    /// of a bool slice. The per-hit activity test becomes one word-level
    /// AND during the sweep, which is what makes a beacon round — n
    /// queries against one activity snapshot — cheapest: the caller packs
    /// the bits once per round with [`pack_active_bits`].
    ///
    /// Hosts at index ≥ `64 × active_bits.len()` are treated as inactive.
    /// Output is identical to `neighbors_within_into` with the unpacked
    /// mask — ascending host index, exactly the brute-force scan order —
    /// but as `u32` so a CSR adjacency caller appends rows with a plain
    /// `extend_from_slice`.
    pub fn neighbors_within_bits(
        &mut self,
        src: usize,
        range: f64,
        t: SimTime,
        active_bits: &[u64],
        out: &mut Vec<u32>,
    ) {
        #[cfg(feature = "oracle")]
        {
            out.clear();
            let p = self.positions_at(t)[src]; // tidy:allow(panic-discipline): src < n by contract
            let range_sq = range * range;
            for (i, q) in self.cache.iter().enumerate() {
                if i != src && bit(active_bits, i) && p.distance_sq(*q) <= range_sq {
                    out.push(i as u32);
                }
            }
        }
        #[cfg(not(feature = "oracle"))]
        {
            out.clear();
            let drift = self.ready_grid(t, range);
            let p = self.exact_at(src, t);
            self.mark_in_range(p, t, range, drift, |i| i != src && bit(active_bits, i));
            // `src` marks itself (distance zero); drop it before the sweep.
            self.mask[src >> 6] &= !(1u64 << (src & 63)); // tidy:allow(panic-discipline): src < n by contract

            // Word-wise AND applies the activity filter to 64 hosts at a
            // time; the zip truncates at the shorter side, so any tail
            // hosts without an activity word stay unreported (inactive).
            for (w, (mw, &aw)) in self.mask.iter_mut().zip(active_bits).enumerate() {
                let mut m = *mw & aw;
                *mw = 0;
                let base = (w as u32) << 6;
                while m != 0 {
                    let i = base + m.trailing_zeros();
                    m &= m - 1;
                    out.push(i);
                }
            }
            // Hosts beyond `active_bits` (zip-truncated) still hold marks.
            for mw in self.mask.iter_mut().skip(active_bits.len()) {
                *mw = 0;
            }
        }
    }

    /// All hosts reachable from `src` within `hops` broadcast hops of
    /// `range` metres each, with the hop count at which each is first
    /// reached. Breadth-first over the geometric graph induced by `active`
    /// hosts. `src` itself is excluded.
    ///
    /// Convenience wrapper over
    /// [`MobilityField::reachable_within_hops_into`].
    pub fn reachable_within_hops(
        &mut self,
        src: usize,
        range: f64,
        hops: u32,
        t: SimTime,
        active: &[bool],
    ) -> Vec<(usize, u32)> {
        let mut out = Vec::new();
        self.reachable_within_hops_into(src, range, hops, t, active, &mut out);
        out
    }

    /// [`MobilityField::reachable_within_hops`] into a caller-supplied
    /// buffer (cleared first). Grid-accelerated BFS expanding each frontier
    /// host's cell neighbourhood in ascending index order — the discovery
    /// order (and therefore the output) is identical to the brute-force
    /// scan. Only unvisited active candidates get exact positions, and
    /// the scratch buffers live in the field, so a warm call performs no
    /// heap allocation.
    pub fn reachable_within_hops_into(
        &mut self,
        src: usize,
        range: f64,
        hops: u32,
        t: SimTime,
        active: &[bool],
        out: &mut Vec<(usize, u32)>,
    ) {
        #[cfg(feature = "oracle")]
        {
            let brute = self.reachable_within_hops_brute(src, range, hops, t, active);
            out.clear();
            out.extend(brute);
        }
        #[cfg(not(feature = "oracle"))]
        {
            out.clear();
            let is_active = |i: usize| active.get(i).copied().unwrap_or(false);
            let drift = self.ready_grid(t, range);
            let mut dist = std::mem::take(&mut self.bfs_dist);
            let mut frontier = std::mem::take(&mut self.bfs_frontier);
            let mut next = std::mem::take(&mut self.bfs_next);
            let unseen = |dist: &[u32], v: usize| dist.get(v) == Some(&u32::MAX);
            dist.fill(u32::MAX);
            if let Some(d) = dist.get_mut(src) {
                *d = 0;
            }
            frontier.clear();
            frontier.push(src as u32);
            for hop in 1..=hops {
                next.clear();
                for &u in &frontier {
                    let pu = self.exact_at(u as usize, t);
                    self.mark_in_range(pu, t, range, drift, |v| unseen(&dist, v) && is_active(v));
                    // The ascending sweep visits this node's candidates in
                    // brute-scan order; visited nodes (including `u`
                    // itself) fail the distance-unset test, so discovery
                    // order and hop labels match the brute BFS exactly.
                    for (w, mw) in self.mask.iter_mut().enumerate() {
                        let mut m = *mw;
                        *mw = 0;
                        while m != 0 {
                            let v = (w << 6) + m.trailing_zeros() as usize;
                            m &= m - 1;
                            if unseen(&dist, v) && is_active(v) {
                                if let Some(d) = dist.get_mut(v) {
                                    *d = hop;
                                }
                                next.push(v as u32);
                                out.push((v, hop));
                            }
                        }
                    }
                }
                if next.is_empty() {
                    break;
                }
                std::mem::swap(&mut frontier, &mut next);
            }
            self.bfs_dist = dist;
            self.bfs_frontier = frontier;
            self.bfs_next = next;
        }
    }

    /// Brute-force O(n) reference for [`MobilityField::neighbors_within`]:
    /// the pre-grid implementation, kept as the differential-testing oracle
    /// (and as the active implementation under the `oracle` feature).
    pub fn neighbors_within_brute(
        &mut self,
        src: usize,
        range: f64,
        t: SimTime,
        active: &[bool],
    ) -> Vec<usize> {
        let positions = self.positions_at(t);
        let p = positions[src];
        let range_sq = range * range;
        positions
            .iter()
            .enumerate()
            .filter(|&(i, q)| i != src && active[i] && p.distance_sq(*q) <= range_sq)
            .map(|(i, _)| i)
            .collect()
    }

    /// Brute-force O(frontier·n) reference for
    /// [`MobilityField::reachable_within_hops`]: the pre-grid
    /// implementation, kept as the differential-testing oracle (and as the
    /// active implementation under the `oracle` feature).
    pub fn reachable_within_hops_brute(
        &mut self,
        src: usize,
        range: f64,
        hops: u32,
        t: SimTime,
        active: &[bool],
    ) -> Vec<(usize, u32)> {
        let positions = self.positions_at(t).to_vec();
        let n = positions.len();
        let range_sq = range * range;
        let mut dist = vec![u32::MAX; n];
        dist[src] = 0;
        let mut frontier = vec![src];
        let mut out = Vec::new();
        for hop in 1..=hops {
            let mut next = Vec::new();
            for &u in &frontier {
                let pu = positions[u];
                for v in 0..n {
                    if dist[v] == u32::MAX && active[v] && pu.distance_sq(positions[v]) <= range_sq
                    {
                        dist[v] = hop;
                        next.push(v);
                        out.push((v, hop));
                    }
                }
            }
            if next.is_empty() {
                break;
            }
            frontier = next;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_field(n: usize, group_size: usize) -> MobilityField {
        MobilityField::new(
            FieldConfig {
                group_size,
                ..FieldConfig::default()
            },
            n,
            123,
        )
    }

    #[test]
    fn alternative_models_keep_logical_groups() {
        for model in [
            MotionModel::IndividualWaypoint,
            MotionModel::GaussMarkov,
            MotionModel::Manhattan,
        ] {
            let mut f = MobilityField::new(
                FieldConfig {
                    model,
                    group_size: 4,
                    ..FieldConfig::default()
                },
                9,
                55,
            );
            // Logical grouping independent of motion coupling.
            assert_eq!(f.group_of(0), 0);
            assert_eq!(f.group_of(3), 0);
            assert_eq!(f.group_of(4), 1);
            assert_eq!(f.group_of(8), 2);
            // Positions are produced and in bounds.
            let t = SimTime::from_secs(100);
            for i in 0..9 {
                let p = f.position_at(i, t);
                assert!((0.0..=1000.0).contains(&p.x), "{model:?}: {p}");
                assert!((0.0..=1000.0).contains(&p.y), "{model:?}: {p}");
            }
        }
    }

    #[test]
    fn grouping_assigns_contiguous_blocks() {
        let f = small_field(12, 5);
        assert_eq!(f.group_of(0), 0);
        assert_eq!(f.group_of(4), 0);
        assert_eq!(f.group_of(5), 1);
        assert_eq!(f.group_of(9), 1);
        assert_eq!(f.group_of(10), 2); // trailing partial group
        assert_eq!(f.group_of(11), 2);
        assert_eq!(f.len(), 12);
    }

    #[test]
    fn group_size_one_is_individual_motion() {
        let f = small_field(5, 1);
        let groups: Vec<usize> = (0..5).map(|i| f.group_of(i)).collect();
        assert_eq!(groups, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn group_members_stay_close_strangers_roam() {
        let mut f = small_field(50, 5);
        let t = SimTime::from_secs(500);
        // Members of the same group must be within the group box diameter.
        let d_same = f.distance_at(0, 4, t);
        assert!(d_same <= 2.0 * 50.0 * std::f64::consts::SQRT_2 + 1e-9);
    }

    #[test]
    fn neighbors_within_excludes_self_and_inactive() {
        let mut f = small_field(10, 5);
        let t = SimTime::from_secs(5);
        let mut active = vec![true; 10];
        let nbrs = f.neighbors_within(0, 1e9, t, &active);
        assert_eq!(nbrs.len(), 9, "everyone in range with infinite radius");
        assert!(!nbrs.contains(&0));
        active[1] = false;
        let nbrs = f.neighbors_within(0, 1e9, t, &active);
        assert_eq!(nbrs.len(), 8);
        assert!(!nbrs.contains(&1));
    }

    #[test]
    fn bfs_hop_counts_are_minimal() {
        let mut f = small_field(30, 5);
        let t = SimTime::from_secs(100);
        let active = vec![true; 30];
        let one_hop: Vec<usize> = f
            .reachable_within_hops(0, 150.0, 1, t, &active)
            .into_iter()
            .map(|(i, _)| i)
            .collect();
        let two_hop = f.reachable_within_hops(0, 150.0, 2, t, &active);
        // Every 1-hop node appears in the 2-hop result at hop 1.
        for i in &one_hop {
            assert!(two_hop.iter().any(|&(j, h)| j == *i && h == 1));
        }
        // And 2-hop nodes are strictly new.
        for &(j, h) in &two_hop {
            if h == 2 {
                assert!(!one_hop.contains(&j));
            }
        }
    }

    #[test]
    fn positions_cache_consistent_with_point_queries() {
        let mut f = small_field(8, 4);
        let t = SimTime::from_secs(77);
        let from_cache = f.positions_at(t).to_vec();
        for (i, p) in from_cache.iter().enumerate() {
            assert_eq!(f.position_at(i, t), *p);
        }
    }
}
