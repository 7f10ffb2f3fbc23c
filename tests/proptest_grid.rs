//! Differential property tests of the spatial-grid query paths against
//! the brute-force oracles: random layouts, ranges, instants and activity
//! masks (including all-inactive), border-cell positions, host pairs at
//! exactly the transmission range, and an index reused across later
//! instants under every motion model. Every public query must reproduce
//! the brute-force result — same hosts, same order — because the
//! simulator's determinism contract depends on it.

use grococa::mobility::{
    pack_active_bits, FieldConfig, MobilityField, MotionModel, SpatialGrid, Vec2,
};
use grococa::sim::SimTime;
use proptest::prelude::*;

/// Brute-force range query over raw positions (ascending index order).
fn brute_candidates(positions: &[Vec2], p: Vec2, range: f64) -> Vec<u32> {
    positions
        .iter()
        .enumerate()
        .filter(|&(_, q)| p.distance_sq(*q) <= range * range)
        .map(|(i, _)| i as u32)
        .collect()
}

/// A gap between query instants, from a `(scale, raw)` draw: the same
/// instant, 1 µs–1 ms, up to 1 s (inside the skin at ordinary ranges), or
/// up to 8 s (past it for every motion model).
fn gap(scale: u8, raw: u64) -> SimTime {
    SimTime::from_micros(match scale {
        0 => 0,
        1 => 1 + raw % 1_000,
        2 => raw % 1_000_000,
        _ => raw % 8_000_000,
    })
}

/// Deterministic patchy activity mask from one seed word; `kind` folds in
/// the two degenerate masks every query path must survive.
fn activity_mask(n: usize, seed: u64, kind: u8) -> Vec<bool> {
    (0..n)
        .map(|i| match kind {
            0 => true,
            1 => false,
            _ => (seed >> (i % 64)) & 1 == 1 || i % 13 == 2,
        })
        .collect()
}

proptest! {
    /// The raw grid's candidate superset, filtered by the exact range
    /// test, equals the brute-force scan — on arbitrary layouts with
    /// hosts snapped onto the field border (the clamped edge cells) and
    /// one partner at *exactly* the query range.
    #[test]
    fn grid_candidates_match_brute(
        coords in proptest::collection::vec((0.0f64..1_000.0, 0.0f64..1_000.0), 1..90),
        src_x in 0.0f64..650.0,
        src_y in 0.0f64..1_000.0,
        range in 10.0f64..300.0,
    ) {
        let mut positions: Vec<Vec2> = coords.iter().map(|&(x, y)| Vec2::new(x, y)).collect();
        // Border and corner hosts land in the clamped edge cells.
        for i in 0..positions.len().min(4) {
            let snapped = match i {
                0 => Vec2::new(0.0, positions[i].y),
                1 => Vec2::new(1_000.0, positions[i].y),
                2 => Vec2::new(positions[i].x, 0.0),
                _ => Vec2::new(1_000.0, 1_000.0),
            };
            positions[i] = snapped;
        }
        // A pair separated by exactly `range` must stay a hit (`<=`).
        // Both coordinates quantised to 1/16 so `src.x + range` is exact
        // in f64 and the pair's distance is bit-for-bit `range`.
        let src_x = (src_x * 16.0).floor() / 16.0;
        let range = (range * 16.0).floor() / 16.0;
        let src = Vec2::new(src_x, src_y);
        positions.push(src + Vec2::new(range, 0.0));
        let mut grid = SpatialGrid::new();
        grid.rebuild(&positions, 1_000.0, 1_000.0, range * 0.5);
        let mut cand = Vec::new();
        grid.candidates_into(src, range, &mut cand);
        cand.retain(|&i| src.distance_sq(positions[i as usize]) <= range * range);
        let brute = brute_candidates(&positions, src, range);
        prop_assert_eq!(&cand, &brute);
        prop_assert!(
            cand.contains(&((positions.len() - 1) as u32)),
            "host exactly at range {range} was dropped"
        );
    }

    /// Every public neighbour query path — bool mask, packed-bits mask —
    /// reproduces the brute-force oracle exactly, across random field
    /// sizes, seeds, instants, ranges and activity masks (all-active,
    /// all-inactive, patchy). Repeated queries exercise the memoised
    /// position pass and the built grid.
    #[test]
    fn neighbour_queries_match_brute(
        n in 1usize..120,
        seed in any::<u64>(),
        t0 in 0u64..5_000,
        range in 5.0f64..400.0,
        mask_seed in any::<u64>(),
        mask_kind in 0u8..3,
    ) {
        let mut field = MobilityField::new(FieldConfig::default(), n, seed);
        let mut oracle = MobilityField::new(FieldConfig::default(), n, seed);
        let active = activity_mask(n, mask_seed, mask_kind);
        let mut bits = Vec::new();
        pack_active_bits(&active, &mut bits);
        let mut out = Vec::new();
        let mut out32 = Vec::new();
        // Two instants, revisited: the second pass at `t` hits the warm
        // caches, and the hop between instants forces invalidation.
        for t in [t0, t0 + 7, t0] {
            let t = SimTime::from_secs(t);
            for src in 0..n {
                let brute = oracle.neighbors_within_brute(src, range, t, &active);
                field.neighbors_within_into(src, range, t, &active, &mut out);
                prop_assert_eq!(&out, &brute);
                field.neighbors_within_bits(src, range, t, &bits, &mut out32);
                prop_assert!(
                    out32.iter().map(|&i| i as usize).eq(brute.iter().copied()),
                    "bits variant diverged at src {} t {:?}", src, t
                );
            }
        }
    }

    /// A packed activity mask truncated to fewer words treats the tail
    /// hosts as inactive — identical to the bool variant with those
    /// hosts masked off.
    #[test]
    fn truncated_bits_mask_tail_inactive(
        n in 65usize..140,
        seed in any::<u64>(),
        t in 0u64..1_000,
    ) {
        let mut field = MobilityField::new(FieldConfig::default(), n, seed);
        let t = SimTime::from_secs(t);
        let active = vec![true; n];
        let mut bits = Vec::new();
        pack_active_bits(&active, &mut bits);
        bits.pop(); // drop the last word: hosts 64·(w−1).. become inactive
        let covered = bits.len() * 64;
        let mut masked = active.clone();
        for a in masked.iter_mut().skip(covered) {
            *a = false;
        }
        let mut out = Vec::new();
        let mut out32 = Vec::new();
        for src in 0..n {
            field.neighbors_within_into(src, 100.0, t, &masked, &mut out);
            field.neighbors_within_bits(src, 100.0, t, &bits, &mut out32);
            prop_assert!(
                out32.iter().map(|&i| i as usize).eq(out.iter().copied()),
                "truncated mask diverged at src {}", src
            );
        }
    }

    /// Multi-hop BFS reachability (hosts and hop counts, in discovery
    /// order) matches the brute-force BFS for arbitrary hop budgets and
    /// activity masks.
    #[test]
    fn bfs_matches_brute(
        n in 1usize..90,
        seed in any::<u64>(),
        t in 0u64..3_000,
        range in 20.0f64..250.0,
        hops in 0u32..4,
        mask_seed in any::<u64>(),
        mask_kind in 0u8..3,
    ) {
        let mut field = MobilityField::new(FieldConfig::default(), n, seed);
        let mut oracle = MobilityField::new(FieldConfig::default(), n, seed);
        let active = activity_mask(n, mask_seed, mask_kind);
        let t = SimTime::from_secs(t);
        let mut reach = Vec::new();
        for src in 0..n.min(12) {
            field.reachable_within_hops_into(src, range, hops, t, &active, &mut reach);
            let brute = oracle.reachable_within_hops_brute(src, range, hops, t, &active);
            prop_assert_eq!(&reach, &brute);
        }
    }

    /// Queries at non-decreasing instants — gaps from 1 µs to past the
    /// skin, so an index built at one instant serves later ones — under
    /// every motion model, while the activity mask flips, the range
    /// changes mid-sequence, and the memo moves into a freshly warped
    /// field mid-sequence. Every answer equals the brute force on a twin
    /// field, and after the move the restored field answers and counts
    /// exactly like the original it was taken from.
    #[test]
    fn grid_reuse_across_instants_matches_brute(
        model in 0usize..4,
        group_size in 1usize..6,
        n in 1usize..80,
        seed in any::<u64>(),
        start in 0u64..3_000_000_000,
        gaps in proptest::collection::vec((0u8..4, any::<u64>()), 4..14),
        ranges in (20.0f64..250.0, 20.0f64..250.0),
        hops in 0u32..4,
        mask_seed in any::<u64>(),
        restore_at in 0usize..14,
    ) {
        let model = [
            MotionModel::GroupWaypoint,
            MotionModel::IndividualWaypoint,
            MotionModel::GaussMarkov,
            MotionModel::Manhattan,
        ][model];
        let cfg = FieldConfig {
            model,
            group_size,
            ..FieldConfig::default()
        };
        let mut field = MobilityField::new(cfg, n, seed);
        let mut twin = MobilityField::new(cfg, n, seed);
        let mut restored: Option<MobilityField> = None;
        let mut t = SimTime::from_micros(start);
        let (mut out, mut out32, mut reach, mut bits) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for (step, &(scale, raw)) in gaps.iter().enumerate() {
            t += gap(scale, raw);
            let range = if step < gaps.len() / 2 { ranges.0 } else { ranges.1 };
            let active = activity_mask(n, mask_seed.rotate_left(step as u32), (step % 4) as u8);
            pack_active_bits(&active, &mut bits);
            if step == restore_at {
                let mut fresh = MobilityField::new(cfg, n, seed);
                fresh.warp_to(t);
                fresh.restore_memo(field.export_memo());
                restored = Some(fresh);
            }
            for src in [raw as usize % n, (raw >> 32) as usize % n] {
                let brute = twin.neighbors_within_brute(src, range, t, &active);
                let brute_reach = twin.reachable_within_hops_brute(src, range, hops, t, &active);
                for f in std::iter::once(&mut field).chain(restored.as_mut()) {
                    f.neighbors_within_into(src, range, t, &active, &mut out);
                    prop_assert_eq!(&out, &brute, "{:?} step {} src {}", model, step, src);
                    f.neighbors_within_bits(src, range, t, &bits, &mut out32);
                    prop_assert!(
                        out32.iter().map(|&i| i as usize).eq(brute.iter().copied()),
                        "bits variant diverged: {:?} step {} src {}", model, step, src
                    );
                    f.reachable_within_hops_into(src, range, hops, t, &active, &mut reach);
                    prop_assert_eq!(&reach, &brute_reach, "{:?} step {} src {}", model, step, src);
                }
            }
            if let Some(r) = &restored {
                prop_assert_eq!(r.cache_stats(), field.cache_stats());
            }
        }
    }
}
