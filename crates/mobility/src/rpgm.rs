//! The reference point group mobility model (Hong et al., MSWiM '99).
//!
//! Each motion group has a *reference point* that roams the whole space under
//! random waypoint; each member performs its own small random-waypoint motion
//! relative to the reference point, inside a disc-like box of radius
//! `group_radius`. The member's absolute position is the reference point plus
//! its offset, clamped to the space.

use grococa_sim::{SimRng, SimTime};

use crate::{RandomWaypoint, Vec2, WaypointParams};

/// Parameters for a motion group.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupParams {
    /// Parameters of the reference point's waypoint motion (the whole
    /// space).
    pub reference: WaypointParams,
    /// Half-width of the box members roam within, relative to the reference
    /// point, metres.
    pub group_radius: f64,
    /// Speed range of member motion relative to the reference point, m/s.
    pub member_v_min: f64,
    /// Upper member relative speed, m/s.
    pub member_v_max: f64,
}

impl GroupParams {
    /// The fastest a member moves, m/s: its reference point's speed plus
    /// its own speed relative to it. Clamping to the space is 1-Lipschitz,
    /// so it cannot add speed.
    pub fn speed_bound(&self) -> f64 {
        self.reference.speed_bound() + self.member_v_max
    }

    fn member_params(&self, pause: SimTime) -> WaypointParams {
        WaypointParams {
            width: 2.0 * self.group_radius,
            height: 2.0 * self.group_radius,
            v_min: self.member_v_min,
            v_max: self.member_v_max,
            pause,
        }
    }
}

/// A motion group: one shared reference mover plus per-member offsets.
///
/// # Examples
///
/// ```
/// use grococa_mobility::{GroupParams, MotionGroup, WaypointParams};
/// use grococa_sim::{SimRng, SimTime};
///
/// let params = GroupParams {
///     reference: WaypointParams {
///         width: 1000.0,
///         height: 1000.0,
///         v_min: 1.0,
///         v_max: 5.0,
///         pause: SimTime::from_secs(1),
///     },
///     group_radius: 50.0,
///     member_v_min: 0.5,
///     member_v_max: 2.0,
/// };
/// let mut g = MotionGroup::new(params, 5, &mut SimRng::new(9));
/// let t = SimTime::from_secs(30);
/// let reference = g.reference_at(t);
/// for m in 0..5 {
///     // Members stay near the reference point (within the box + clamping).
///     assert!(g.member_at(m, t).distance(reference) <= 80.0);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct MotionGroup {
    params: GroupParams,
    reference: RandomWaypoint,
    offsets: Vec<RandomWaypoint>,
}

impl MotionGroup {
    /// Creates a group with `members` mobile hosts.
    ///
    /// # Panics
    ///
    /// Panics if `members` is zero, the radius is non-positive, or the
    /// waypoint parameters are invalid.
    pub fn new(params: GroupParams, members: usize, seed_source: &mut SimRng) -> Self {
        assert!(members > 0, "a motion group needs at least one member");
        assert!(params.group_radius > 0.0, "group radius must be positive");
        let reference = RandomWaypoint::new(params.reference, seed_source);
        let member_params = params.member_params(params.reference.pause);
        let offsets = (0..members)
            .map(|_| {
                let seed = seed_source.uniform_u64(u64::MAX);
                // Offsets start at the box centre, i.e. on the reference point.
                RandomWaypoint::from_position(
                    member_params,
                    Vec2::new(params.group_radius, params.group_radius),
                    seed,
                )
            })
            .collect();
        MotionGroup {
            params,
            reference,
            offsets,
        }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.offsets.len()
    }

    /// Whether the group has no members (never true for constructed groups).
    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }

    /// Position of the group's reference point at `t`.
    pub fn reference_at(&mut self, t: SimTime) -> Vec2 {
        self.reference.position_at(t)
    }

    /// Absolute position of member `m` at `t`, clamped to the space.
    ///
    /// # Panics
    ///
    /// Panics if `m` is out of range.
    pub fn member_at(&mut self, m: usize, t: SimTime) -> Vec2 {
        let reference = self.reference.position_at(t);
        let r = self.params.group_radius;
        let offset = self.offsets[m].position_at(t) - Vec2::new(r, r);
        (reference + offset).clamp_to(self.params.reference.width, self.params.reference.height)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> GroupParams {
        GroupParams {
            reference: WaypointParams {
                width: 1000.0,
                height: 1000.0,
                v_min: 1.0,
                v_max: 5.0,
                pause: SimTime::from_secs(1),
            },
            group_radius: 50.0,
            member_v_min: 0.5,
            member_v_max: 2.0,
        }
    }

    #[test]
    fn members_track_reference() {
        let mut seed = SimRng::new(77);
        let mut g = MotionGroup::new(params(), 8, &mut seed);
        let max_offset = 50.0 * std::f64::consts::SQRT_2 + 1e-9;
        for s in (0..3_600).step_by(13) {
            let t = SimTime::from_secs(s);
            let reference = g.reference_at(t);
            for m in 0..8 {
                let p = g.member_at(m, t);
                assert!(
                    p.distance(reference) <= max_offset,
                    "member {m} strayed {} m from the reference at {t}",
                    p.distance(reference)
                );
            }
        }
    }

    #[test]
    fn members_stay_in_space() {
        let mut seed = SimRng::new(3);
        let mut g = MotionGroup::new(params(), 4, &mut seed);
        for s in (0..7_200).step_by(11) {
            let t = SimTime::from_secs(s);
            for m in 0..4 {
                let p = g.member_at(m, t);
                assert!((0.0..=1000.0).contains(&p.x));
                assert!((0.0..=1000.0).contains(&p.y));
            }
        }
    }

    #[test]
    fn members_move_relative_to_each_other() {
        let mut seed = SimRng::new(5);
        let mut g = MotionGroup::new(params(), 2, &mut seed);
        let d0 = g
            .member_at(0, SimTime::from_secs(10))
            .distance(g.member_at(1, SimTime::from_secs(10)));
        let d1 = g
            .member_at(0, SimTime::from_secs(200))
            .distance(g.member_at(1, SimTime::from_secs(200)));
        assert!((d0 - d1).abs() > 1e-9, "relative motion is frozen");
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn empty_group_rejected() {
        let mut seed = SimRng::new(1);
        let _ = MotionGroup::new(params(), 0, &mut seed);
    }
}
