//! The random waypoint mobility model (Broch et al., MobiCom '98).
//!
//! A mover repeatedly picks a uniform destination in its area, travels there
//! in a straight line at a uniform random speed in `[v_min, v_max]`, pauses,
//! and repeats. Positions are produced analytically per segment, so querying
//! a position is O(segments elapsed) amortised O(1).

use grococa_sim::{SimRng, SimTime};

use crate::Vec2;

/// Movement area and speed parameters shared by waypoint movers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WaypointParams {
    /// Area width, metres.
    pub width: f64,
    /// Area height, metres.
    pub height: f64,
    /// Minimum speed, m/s (must be > 0 to avoid the RWP speed-decay
    /// pathology).
    pub v_min: f64,
    /// Maximum speed, m/s.
    pub v_max: f64,
    /// Pause at each waypoint.
    pub pause: SimTime,
}

impl WaypointParams {
    /// Validates the parameter set.
    ///
    /// # Panics
    ///
    /// Panics if the area is empty, speeds are non-positive or inverted.
    pub fn validate(&self) {
        assert!(
            self.width > 0.0 && self.height > 0.0,
            "area must be non-empty"
        );
        assert!(self.v_min > 0.0, "v_min must be positive (RWP speed decay)");
        assert!(self.v_max >= self.v_min, "v_max must be >= v_min");
    }

    /// The fastest a mover under these parameters travels, m/s: every
    /// segment's speed is drawn from `[v_min, v_max]`.
    pub fn speed_bound(&self) -> f64 {
        self.v_max
    }
}

#[derive(Debug, Clone, Copy)]
struct Segment {
    from: Vec2,
    to: Vec2,
    depart: SimTime, // when movement starts (after pause)
    arrive: SimTime, // when the destination is reached
    pause_until: SimTime,
}

/// One random-waypoint mover.
///
/// # Examples
///
/// ```
/// use grococa_mobility::{RandomWaypoint, WaypointParams};
/// use grococa_sim::{SimRng, SimTime};
///
/// let params = WaypointParams {
///     width: 1000.0,
///     height: 1000.0,
///     v_min: 1.0,
///     v_max: 5.0,
///     pause: SimTime::from_secs(1),
/// };
/// let mut m = RandomWaypoint::new(params, &mut SimRng::new(1));
/// let p0 = m.position_at(SimTime::ZERO);
/// let p1 = m.position_at(SimTime::from_secs(60));
/// assert!(p0.x >= 0.0 && p1.x <= 1000.0);
/// ```
#[derive(Debug, Clone)]
pub struct RandomWaypoint {
    params: WaypointParams,
    rng: SimRng,
    seg: Segment,
}

impl RandomWaypoint {
    /// Creates a mover at a uniform random position, immediately en route to
    /// its first waypoint.
    ///
    /// # Panics
    ///
    /// Panics if `params` fails [`WaypointParams::validate`].
    pub fn new(params: WaypointParams, seed_source: &mut SimRng) -> Self {
        params.validate();
        let mut rng = SimRng::new(seed_source.uniform_u64(u64::MAX));
        let from = Vec2::new(
            rng.uniform_f64(0.0, params.width),
            rng.uniform_f64(0.0, params.height),
        );
        let seg = Self::next_segment(&params, &mut rng, from, SimTime::ZERO);
        RandomWaypoint { params, rng, seg }
    }

    /// Creates a mover pinned at `start` (useful for tests and for RPGM
    /// member offsets that should begin at the reference point).
    pub fn from_position(params: WaypointParams, start: Vec2, rng_seed: u64) -> Self {
        params.validate();
        let mut rng = SimRng::new(rng_seed);
        let seg = Self::next_segment(&params, &mut rng, start, SimTime::ZERO);
        RandomWaypoint { params, rng, seg }
    }

    fn next_segment(
        params: &WaypointParams,
        rng: &mut SimRng,
        from: Vec2,
        depart: SimTime,
    ) -> Segment {
        let to = Vec2::new(
            rng.uniform_f64(0.0, params.width),
            rng.uniform_f64(0.0, params.height),
        );
        let speed = rng
            .uniform_f64(params.v_min, params.v_max)
            .max(params.v_min);
        let travel = SimTime::from_secs_f64(from.distance(to) / speed);
        let arrive = depart.saturating_add(travel);
        Segment {
            from,
            to,
            depart,
            arrive,
            pause_until: arrive.saturating_add(params.pause),
        }
    }

    /// The mover's position at time `t`.
    ///
    /// Queries must be non-decreasing in `t` across calls (the simulator
    /// processes events in time order); a query earlier than the current
    /// segment's departure is answered from the current segment start.
    pub fn position_at(&mut self, t: SimTime) -> Vec2 {
        while t >= self.seg.pause_until {
            self.seg = Self::next_segment(
                &self.params,
                &mut self.rng,
                self.seg.to,
                self.seg.pause_until,
            );
        }
        if t >= self.seg.arrive {
            return self.seg.to; // pausing at the waypoint
        }
        if t <= self.seg.depart {
            return self.seg.from;
        }
        let frac =
            (t - self.seg.depart).as_secs_f64() / (self.seg.arrive - self.seg.depart).as_secs_f64();
        self.seg.from.lerp(self.seg.to, frac)
    }

    /// The parameters this mover was built with.
    pub fn params(&self) -> &WaypointParams {
        &self.params
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> WaypointParams {
        WaypointParams {
            width: 500.0,
            height: 400.0,
            v_min: 1.0,
            v_max: 5.0,
            pause: SimTime::from_secs(1),
        }
    }

    #[test]
    fn stays_in_bounds_over_long_horizon() {
        let mut seed = SimRng::new(42);
        let mut m = RandomWaypoint::new(params(), &mut seed);
        for s in 0..5_000 {
            let p = m.position_at(SimTime::from_secs(s));
            assert!((0.0..=500.0).contains(&p.x), "x out of bounds: {p}");
            assert!((0.0..=400.0).contains(&p.y), "y out of bounds: {p}");
        }
    }

    #[test]
    fn speed_respects_limits() {
        let mut seed = SimRng::new(7);
        let mut m = RandomWaypoint::new(params(), &mut seed);
        let dt = SimTime::from_millis(100);
        let mut prev = m.position_at(SimTime::ZERO);
        let mut t = SimTime::ZERO;
        for _ in 0..20_000 {
            t += dt;
            let cur = m.position_at(t);
            let v = prev.distance(cur) / dt.as_secs_f64();
            // Allow tiny numerical slack; pauses give v == 0.
            assert!(v <= 5.0 + 1e-6, "speed {v} exceeds v_max");
            prev = cur;
        }
    }

    #[test]
    fn pauses_at_waypoints() {
        let mut seed = SimRng::new(3);
        let mut m = RandomWaypoint::new(params(), &mut seed);
        // Find a pause: scan times at fine resolution and require at least
        // one interval of ~1s with zero displacement.
        let mut paused_intervals = 0;
        let mut prev = m.position_at(SimTime::ZERO);
        let mut still = 0;
        for ms in (100..2_000_000).step_by(100) {
            let cur = m.position_at(SimTime::from_millis(ms));
            if prev.distance(cur) < 1e-12 {
                still += 1;
                if still == 9 {
                    paused_intervals += 1;
                }
            } else {
                still = 0;
            }
            prev = cur;
        }
        assert!(paused_intervals > 0, "never observed a pause");
    }

    #[test]
    fn deterministic_given_seed() {
        let mut s1 = SimRng::new(11);
        let mut s2 = SimRng::new(11);
        let mut a = RandomWaypoint::new(params(), &mut s1);
        let mut b = RandomWaypoint::new(params(), &mut s2);
        for s in (0..1000).step_by(7) {
            let t = SimTime::from_secs(s);
            assert_eq!(a.position_at(t), b.position_at(t));
        }
    }

    #[test]
    fn from_position_starts_there() {
        let start = Vec2::new(100.0, 100.0);
        let mut m = RandomWaypoint::from_position(params(), start, 5);
        assert_eq!(m.position_at(SimTime::ZERO), start);
    }

    #[test]
    #[should_panic(expected = "v_min")]
    fn zero_speed_rejected() {
        let mut p = params();
        p.v_min = 0.0;
        let mut seed = SimRng::new(1);
        let _ = RandomWaypoint::new(p, &mut seed);
    }
}
