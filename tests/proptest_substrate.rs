//! Property tests of the remaining substrates: mobility models stay in
//! bounds and within their speed bounds under arbitrary parameters (the
//! spatial index relies on the latter), the NDP link table matches a naive
//! reference automaton, and facilities obey the FIFO queueing law.

use grococa::mobility::{
    FieldConfig, GaussMarkov, GaussMarkovParams, GroupParams, Manhattan, ManhattanParams,
    MobilityField, MotionGroup, MotionModel, RandomWaypoint, Vec2, WaypointParams,
};
use grococa::net::{LinkEvent, Ndp, NdpConfig};
use grococa::sim::{transmission_time, Facility, SimRng, SimTime};
use proptest::prelude::*;

/// The farthest a host under `bound` m/s may move in `secs`, with the
/// slack the spatial index allows for microsecond rounding and floats.
fn drift_allowance(bound: f64, secs: f64) -> f64 {
    bound * secs * (1.0 + 1e-9) + 1e-3
}

proptest! {
    /// Random waypoint stays inside any legal area for any seed.
    #[test]
    fn waypoint_stays_in_bounds(
        width in 10.0f64..5_000.0,
        height in 10.0f64..5_000.0,
        v_min in 0.1f64..3.0,
        dv in 0.0f64..10.0,
        seed in any::<u64>(),
    ) {
        let params = WaypointParams {
            width,
            height,
            v_min,
            v_max: v_min + dv,
            pause: SimTime::from_secs(1),
        };
        let mut rng = SimRng::new(seed);
        let mut m = RandomWaypoint::new(params, &mut rng);
        for s in (0..600).step_by(13) {
            let p = m.position_at(SimTime::from_secs(s));
            prop_assert!((0.0..=width).contains(&p.x));
            prop_assert!((0.0..=height).contains(&p.y));
        }
    }

    /// Gauss–Markov stays inside the area for any α and speed.
    #[test]
    fn gauss_markov_stays_in_bounds(
        alpha in 0.0f64..=1.0,
        mean_speed in 0.5f64..20.0,
        seed in any::<u64>(),
    ) {
        let params = GaussMarkovParams {
            alpha,
            mean_speed,
            ..GaussMarkovParams::default()
        };
        let mut rng = SimRng::new(seed);
        let mut m = GaussMarkov::new(params, &mut rng);
        for s in (0..400).step_by(7) {
            let p = m.position_at(SimTime::from_secs(s));
            prop_assert!((0.0..=1_000.0).contains(&p.x));
            prop_assert!((0.0..=1_000.0).contains(&p.y));
        }
    }

    /// A Gauss–Markov mover is continuous across step boundaries: in the
    /// microsecond around each boundary it moves no farther than its
    /// speed bound allows (the anchor advances with the velocity the
    /// ending step was interpolated with).
    #[test]
    fn gauss_markov_is_continuous_at_step_boundaries(
        alpha in 0.0f64..=1.0,
        mean_speed in 0.5f64..20.0,
        seed in any::<u64>(),
    ) {
        let params = GaussMarkovParams {
            alpha,
            mean_speed,
            ..GaussMarkovParams::default()
        };
        let bound = params.speed_bound();
        let mut m = GaussMarkov::new(params, &mut SimRng::new(seed));
        for k in 1..300 {
            let boundary = SimTime::from_secs(k);
            let before = m.position_at(SimTime::from_micros(boundary.as_micros() - 1));
            let after = m.position_at(boundary);
            let jump = before.distance(after);
            prop_assert!(
                jump <= drift_allowance(bound, 1e-6),
                "jumped {jump} m across the boundary at {k} s (bound {bound} m/s)"
            );
        }
    }

    /// Every mover's displacement between two instants stays within its
    /// model's speed bound times the elapsed time (plus the rounding
    /// allowance the spatial index adds), over gaps from 1 µs to minutes.
    #[test]
    fn movers_respect_their_speed_bounds(
        v_min in 0.2f64..3.0,
        dv in 0.0f64..8.0,
        seed in any::<u64>(),
        gaps in proptest::collection::vec((0u8..3, 1u64..120_000_000), 20..80),
    ) {
        let wp = WaypointParams {
            width: 1_000.0,
            height: 1_000.0,
            v_min,
            v_max: v_min + dv,
            pause: SimTime::from_secs(1),
        };
        let gp = GroupParams {
            reference: wp,
            group_radius: 50.0,
            member_v_min: (v_min * 0.5).max(0.1),
            member_v_max: ((v_min + dv) * 0.5).max(0.2),
        };
        let gm = GaussMarkovParams {
            mean_speed: v_min + 0.5 * dv,
            ..GaussMarkovParams::default()
        };
        let mp = ManhattanParams {
            v_min,
            v_max: v_min + dv,
            ..ManhattanParams::default()
        };
        let mut rng = SimRng::new(seed);
        let mut waypoint = RandomWaypoint::new(wp, &mut rng);
        let mut group = MotionGroup::new(gp, 3, &mut rng);
        let mut gauss = GaussMarkov::new(gm, &mut rng);
        let mut manhattan = Manhattan::new(mp, &mut rng);
        let mut sample = |t: SimTime| -> [(Vec2, f64); 4] {
            [
                (waypoint.position_at(t), wp.speed_bound()),
                (group.member_at(2, t), gp.speed_bound()),
                (gauss.position_at(t), gm.speed_bound()),
                (manhattan.position_at(t), mp.speed_bound()),
            ]
        };
        let mut t = SimTime::ZERO;
        let mut prev = sample(t);
        for &(scale, raw) in &gaps {
            let dt = SimTime::from_micros(match scale {
                0 => 1 + raw % 1_000,
                1 => raw % 2_000_000,
                _ => raw,
            });
            t += dt;
            let cur = sample(t);
            for (model, ((p, bound), (q, _))) in prev.iter().zip(&cur).enumerate() {
                let moved = p.distance(*q);
                prop_assert!(
                    moved <= drift_allowance(*bound, dt.as_secs_f64()),
                    "mover {model} moved {moved} m in {dt} (bound {bound} m/s)"
                );
            }
            prev = cur;
        }
    }

    /// Manhattan movers never leave the street grid.
    #[test]
    fn manhattan_stays_on_grid(block in 20.0f64..250.0, seed in any::<u64>()) {
        let params = ManhattanParams {
            block,
            ..ManhattanParams::default()
        };
        let mut rng = SimRng::new(seed);
        let mut m = Manhattan::new(params, &mut rng);
        for s in (0..300).step_by(5) {
            let p = m.position_at(SimTime::from_secs(s));
            let on_v = (p.x / block - (p.x / block).round()).abs() < 1e-6;
            let on_h = (p.y / block - (p.y / block).round()).abs() < 1e-6;
            prop_assert!(on_v || on_h, "off-street at {p} (block {block})");
        }
    }

    /// Field BFS hop counts are consistent: hop-1 nodes are exactly the
    /// in-range neighbours, and reachability grows monotonically in hops.
    #[test]
    fn field_bfs_consistent(n in 2usize..40, range in 50.0f64..400.0, seed in any::<u64>()) {
        let mut field = MobilityField::new(
            FieldConfig {
                model: MotionModel::IndividualWaypoint,
                group_size: 1,
                ..FieldConfig::default()
            },
            n,
            seed,
        );
        let active = vec![true; n];
        let t = SimTime::from_secs(30);
        let direct: std::collections::BTreeSet<usize> =
            field.neighbors_within(0, range, t, &active).into_iter().collect();
        let via_bfs: std::collections::BTreeSet<usize> = field
            .reachable_within_hops(0, range, 1, t, &active)
            .into_iter()
            .map(|(i, _)| i)
            .collect();
        prop_assert_eq!(&direct, &via_bfs);
        let two: std::collections::BTreeSet<usize> = field
            .reachable_within_hops(0, range, 2, t, &active)
            .into_iter()
            .map(|(i, _)| i)
            .collect();
        prop_assert!(two.is_superset(&direct));
    }

    /// The NDP automaton matches a per-pair reference state machine under
    /// arbitrary hearing patterns.
    #[test]
    fn ndp_matches_reference(
        threshold in 1u32..5,
        rounds in proptest::collection::vec(any::<bool>(), 1..60),
    ) {
        let mut ndp = Ndp::new(2, NdpConfig { miss_threshold: threshold });
        let active = [true, true];
        let mut ref_linked = false;
        let mut ref_missed = 0u32;
        for &hear in &rounds {
            let events = ndp.beacon_round(|_, _| hear, &active);
            // Reference automaton.
            let mut expect = Vec::new();
            if hear {
                ref_missed = 0;
                if !ref_linked {
                    ref_linked = true;
                    expect.push(LinkEvent::Up(0, 1));
                }
            } else if ref_linked {
                ref_missed += 1;
                if ref_missed >= threshold {
                    ref_linked = false;
                    ref_missed = 0;
                    expect.push(LinkEvent::Down(0, 1));
                }
            }
            prop_assert_eq!(events, expect);
            prop_assert_eq!(ndp.is_linked(0, 1), ref_linked);
        }
    }

    /// A FIFO facility obeys the queueing recurrence
    /// `end_i = max(arrival_i, end_{i-1}) + service_i` for monotone
    /// arrivals.
    #[test]
    fn facility_fifo_law(jobs in proptest::collection::vec((0u64..1_000, 1u64..500), 1..60)) {
        let mut f = Facility::new("prop");
        let mut clock = 0u64;
        let mut prev_end = 0u64;
        for (gap, service) in jobs {
            clock += gap;
            let end = f
                .enqueue(SimTime::from_micros(clock), SimTime::from_micros(service))
                .as_micros();
            let expect = clock.max(prev_end) + service;
            prop_assert_eq!(end, expect);
            prev_end = end;
        }
    }

    /// Transmission time is monotone in size and inversely so in
    /// bandwidth, and never zero for non-empty messages.
    #[test]
    fn transmission_time_monotone(bytes in 1u64..1_000_000, kbps in 1u64..1_000_000) {
        let t = transmission_time(bytes, kbps);
        prop_assert!(t > SimTime::ZERO);
        prop_assert!(transmission_time(bytes + 1, kbps) >= t);
        prop_assert!(transmission_time(bytes, kbps + 1) <= t);
    }
}
