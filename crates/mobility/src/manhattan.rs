//! The Manhattan grid mobility model.
//!
//! Movers travel along the streets of a regular grid (spacing `block`),
//! choosing at every intersection to continue straight (probability ½) or
//! turn left / right (¼ each), at a uniform random per-street speed.
//! Models urban pedestrian/vehicle motion; included as an extension for
//! the mobility-model ablation.

use grococa_sim::{SimRng, SimTime};

use crate::Vec2;

/// Manhattan grid parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ManhattanParams {
    /// Area width, metres.
    pub width: f64,
    /// Area height, metres.
    pub height: f64,
    /// Street spacing, metres.
    pub block: f64,
    /// Speed range along a street, m/s.
    pub v_min: f64,
    /// Upper street speed, m/s.
    pub v_max: f64,
}

impl Default for ManhattanParams {
    fn default() -> Self {
        ManhattanParams {
            width: 1_000.0,
            height: 1_000.0,
            block: 100.0,
            v_min: 1.0,
            v_max: 5.0,
        }
    }
}

impl ManhattanParams {
    fn validate(&self) {
        assert!(
            self.width > 0.0 && self.height > 0.0,
            "area must be non-empty"
        );
        assert!(
            self.block > 0.0 && self.block <= self.width && self.block <= self.height,
            "block must fit the area"
        );
        assert!(
            self.v_min > 0.0 && self.v_max >= self.v_min,
            "bad speed range"
        );
    }

    /// The fastest a mover travels, m/s: each street is walked at a speed
    /// from `[v_min, v_max]`, and a straight line is never longer than the
    /// path along the streets.
    pub fn speed_bound(&self) -> f64 {
        self.v_max
    }

    fn cols(&self) -> i64 {
        (self.width / self.block).floor() as i64
    }

    fn rows(&self) -> i64 {
        (self.height / self.block).floor() as i64
    }
}

/// A compass direction along the grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Heading {
    East,
    West,
    North,
    South,
}

impl Heading {
    fn delta(self) -> (i64, i64) {
        match self {
            Heading::East => (1, 0),
            Heading::West => (-1, 0),
            Heading::North => (0, 1),
            Heading::South => (0, -1),
        }
    }

    fn left(self) -> Heading {
        match self {
            Heading::East => Heading::North,
            Heading::North => Heading::West,
            Heading::West => Heading::South,
            Heading::South => Heading::East,
        }
    }

    fn right(self) -> Heading {
        self.left().left().left()
    }
}

/// One Manhattan-grid mover.
///
/// # Examples
///
/// ```
/// use grococa_mobility::{Manhattan, ManhattanParams};
/// use grococa_sim::{SimRng, SimTime};
///
/// let mut m = Manhattan::new(ManhattanParams::default(), &mut SimRng::new(8));
/// let p = m.position_at(SimTime::from_secs(300));
/// // Always on a street: one coordinate is a multiple of the block size.
/// let on_street = (p.x / 100.0).fract().abs() < 1e-9
///     || (p.y / 100.0).fract().abs() < 1e-9;
/// assert!(on_street);
/// ```
#[derive(Debug, Clone)]
pub struct Manhattan {
    params: ManhattanParams,
    rng: SimRng,
    /// The intersection (column, row) the current street segment started
    /// from.
    node: (i64, i64),
    heading: Heading,
    speed: f64,
    depart: SimTime,
    arrive: SimTime,
}

impl Manhattan {
    /// Creates a mover at a uniform random intersection with a random
    /// heading.
    ///
    /// # Panics
    ///
    /// Panics on invalid parameters.
    pub fn new(params: ManhattanParams, seed_source: &mut SimRng) -> Self {
        params.validate();
        let mut rng = SimRng::new(seed_source.uniform_u64(u64::MAX));
        let node = (
            rng.uniform_u64(params.cols() as u64 + 1) as i64,
            rng.uniform_u64(params.rows() as u64 + 1) as i64,
        );
        let heading =
            [Heading::East, Heading::West, Heading::North, Heading::South][rng.uniform_usize(4)];
        let mut mover = Manhattan {
            params,
            rng,
            node,
            heading,
            speed: 1.0,
            depart: SimTime::ZERO,
            arrive: SimTime::ZERO,
        };
        mover.begin_segment(SimTime::ZERO);
        mover
    }

    fn in_grid(&self, node: (i64, i64)) -> bool {
        (0..=self.params.cols()).contains(&node.0) && (0..=self.params.rows()).contains(&node.1)
    }

    fn next_node(&self, heading: Heading) -> (i64, i64) {
        let (dx, dy) = heading.delta();
        (self.node.0 + dx, self.node.1 + dy)
    }

    /// Picks the next heading at the current intersection: straight ½,
    /// left ¼, right ¼, re-drawing against walls (U-turn as last resort).
    fn choose_heading(&mut self) -> Heading {
        for _ in 0..8 {
            let u = self.rng.unit_f64();
            let candidate = if u < 0.5 {
                self.heading
            } else if u < 0.75 {
                self.heading.left()
            } else {
                self.heading.right()
            };
            if self.in_grid(self.next_node(candidate)) {
                return candidate;
            }
        }
        // Dead end (corner): turn around.
        let back = self.heading.left().left();
        if self.in_grid(self.next_node(back)) {
            back
        } else {
            self.heading
        }
    }

    fn begin_segment(&mut self, at: SimTime) {
        self.heading = self.choose_heading();
        self.speed = self.rng.uniform_f64(self.params.v_min, self.params.v_max);
        self.depart = at;
        let travel = SimTime::from_secs_f64(self.params.block / self.speed);
        self.arrive = at.saturating_add(travel);
    }

    fn node_pos(&self, node: (i64, i64)) -> Vec2 {
        Vec2::new(
            node.0 as f64 * self.params.block,
            node.1 as f64 * self.params.block,
        )
    }

    /// The mover's position at `t` (non-decreasing queries).
    pub fn position_at(&mut self, t: SimTime) -> Vec2 {
        while t >= self.arrive {
            self.node = self.next_node(self.heading);
            let at = self.arrive;
            self.begin_segment(at);
        }
        let from = self.node_pos(self.node);
        let to = self.node_pos(self.next_node(self.heading));
        if t <= self.depart {
            return from;
        }
        let frac = (t - self.depart).as_secs_f64() / (self.arrive - self.depart).as_secs_f64();
        from.lerp(to, frac)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> ManhattanParams {
        ManhattanParams::default()
    }

    #[test]
    fn always_on_a_street() {
        let mut seed = SimRng::new(21);
        let mut m = Manhattan::new(params(), &mut seed);
        for s in 0..5_000u64 {
            let p = m.position_at(SimTime::from_millis(s * 700));
            let on_vertical = (p.x / 100.0 - (p.x / 100.0).round()).abs() < 1e-6;
            let on_horizontal = (p.y / 100.0 - (p.y / 100.0).round()).abs() < 1e-6;
            assert!(on_vertical || on_horizontal, "left the street grid at {p}");
            assert!((0.0..=1000.0).contains(&p.x) && (0.0..=1000.0).contains(&p.y));
        }
    }

    #[test]
    fn covers_multiple_blocks() {
        let mut seed = SimRng::new(22);
        let mut m = Manhattan::new(params(), &mut seed);
        let start = m.position_at(SimTime::ZERO);
        let far = m.position_at(SimTime::from_secs(3_000));
        // Virtually certain to have wandered away from the start.
        assert!(
            start.distance(far) > 0.0 || {
                // Extremely unlikely return-to-start: accept if it moved at all
                // mid-way.
                m.position_at(SimTime::from_secs(4_000)).distance(start) > 0.0
            }
        );
    }

    #[test]
    fn speed_bounded_by_street_speed() {
        let mut seed = SimRng::new(23);
        let mut m = Manhattan::new(params(), &mut seed);
        let dt = SimTime::from_millis(250);
        let mut prev = m.position_at(SimTime::ZERO);
        let mut t = SimTime::ZERO;
        for _ in 0..10_000 {
            t += dt;
            let cur = m.position_at(t);
            // Straight-line displacement can cut a corner within one
            // sample, bounding it by √2·v_max.
            let v = prev.distance(cur) / dt.as_secs_f64();
            assert!(v <= 5.0 * std::f64::consts::SQRT_2 + 1e-6, "speed {v}");
            prev = cur;
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mut s1 = SimRng::new(24);
        let mut s2 = SimRng::new(24);
        let mut a = Manhattan::new(params(), &mut s1);
        let mut b = Manhattan::new(params(), &mut s2);
        for s in (0..1_000).step_by(17) {
            let t = SimTime::from_secs(s);
            assert_eq!(a.position_at(t), b.position_at(t));
        }
    }

    #[test]
    #[should_panic(expected = "block must fit")]
    fn oversized_block_rejected() {
        let mut seed = SimRng::new(1);
        Manhattan::new(
            ManhattanParams {
                block: 5_000.0,
                ..params()
            },
            &mut seed,
        );
    }
}
