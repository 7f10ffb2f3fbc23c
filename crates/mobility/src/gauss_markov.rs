//! The Gauss–Markov mobility model.
//!
//! Unlike random waypoint's straight dashes, Gauss–Markov movers evolve
//! speed and heading as mean-reverting autoregressive processes sampled at
//! a fixed step:
//!
//! ```text
//! s_{n+1} = α·s_n + (1 − α)·s̄ + √(1 − α²)·σ_s·w
//! θ_{n+1} = α·θ_n + (1 − α)·θ̄_n + √(1 − α²)·σ_θ·w
//! ```
//!
//! producing smooth, temporally correlated trajectories. Included as an
//! extension: the paper's client model uses random waypoint / RPGM, and
//! the mobility-model ablation shows how GroCoca's distance-based TCG
//! discovery behaves when motion has momentum instead of group structure.

use grococa_sim::{SimRng, SimTime};

use crate::Vec2;

/// Gauss–Markov parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaussMarkovParams {
    /// Area width, metres.
    pub width: f64,
    /// Area height, metres.
    pub height: f64,
    /// Memory parameter α ∈ [0, 1]: 0 = fully random walk per step,
    /// 1 = frozen velocity.
    pub alpha: f64,
    /// Mean (asymptotic) speed s̄, m/s.
    pub mean_speed: f64,
    /// Speed randomness σ_s, m/s.
    pub speed_stddev: f64,
    /// Heading randomness σ_θ, radians.
    pub heading_stddev: f64,
    /// Discretisation step.
    pub step: SimTime,
}

impl Default for GaussMarkovParams {
    fn default() -> Self {
        GaussMarkovParams {
            width: 1_000.0,
            height: 1_000.0,
            alpha: 0.85,
            mean_speed: 3.0,
            speed_stddev: 1.0,
            heading_stddev: 0.5,
            step: SimTime::from_secs(1),
        }
    }
}

/// Scale of [`GaussMarkov::gaussian_ish`]: a sum of four uniforms in
/// `[-1, 1)` times this, so every draw lies strictly within `±4 × 0.6124`.
const GAUSS_SCALE: f64 = 0.6124;

impl GaussMarkovParams {
    /// The fastest a mover travels, m/s. A step's speed is
    /// `α·s + (1 − α)·s̄ + √(1 − α²)·σ_s·w` with `|w| < 4 × 0.6124`, so a
    /// mover starting at `s̄` never exceeds the recurrence's fixed point
    /// `s̄ + √(1 − α²)·|σ_s|·2.4496 / (1 − α)`; at `α = 1` its speed stays
    /// `s̄`. Position is interpolated at the step's own speed, so this
    /// bounds displacement too.
    pub fn speed_bound(&self) -> f64 {
        let a = self.alpha;
        if a >= 1.0 {
            return self.mean_speed;
        }
        let noise = (1.0 - a * a).max(0.0).sqrt() * self.speed_stddev.abs() * 4.0 * GAUSS_SCALE;
        self.mean_speed + noise / (1.0 - a)
    }

    fn validate(&self) {
        assert!(
            self.width > 0.0 && self.height > 0.0,
            "area must be non-empty"
        );
        assert!(
            (0.0..=1.0).contains(&self.alpha),
            "alpha must lie in [0, 1]"
        );
        assert!(self.mean_speed > 0.0, "mean speed must be positive");
        assert!(self.step > SimTime::ZERO, "step must be positive");
    }
}

/// One Gauss–Markov mover.
///
/// # Examples
///
/// ```
/// use grococa_mobility::{GaussMarkov, GaussMarkovParams};
/// use grococa_sim::{SimRng, SimTime};
///
/// let mut m = GaussMarkov::new(GaussMarkovParams::default(), &mut SimRng::new(4));
/// let p = m.position_at(SimTime::from_secs(120));
/// assert!((0.0..=1000.0).contains(&p.x));
/// ```
#[derive(Debug, Clone)]
pub struct GaussMarkov {
    params: GaussMarkovParams,
    rng: SimRng,
    /// Start of the current step.
    at: SimTime,
    pos: Vec2,
    speed: f64,
    heading: f64,
}

impl GaussMarkov {
    /// Creates a mover at a uniform random position with the mean speed
    /// and a uniform random heading.
    ///
    /// # Panics
    ///
    /// Panics on invalid parameters.
    pub fn new(params: GaussMarkovParams, seed_source: &mut SimRng) -> Self {
        params.validate();
        let mut rng = SimRng::new(seed_source.uniform_u64(u64::MAX));
        let pos = Vec2::new(
            rng.uniform_f64(0.0, params.width),
            rng.uniform_f64(0.0, params.height),
        );
        let heading = rng.uniform_f64(0.0, std::f64::consts::TAU);
        GaussMarkov {
            params,
            rng,
            at: SimTime::ZERO,
            pos,
            speed: params.mean_speed,
            heading,
        }
    }

    /// A zero-mean unit-variance-ish draw (sum of uniforms — cheap,
    /// deterministic, adequate for mobility noise).
    fn gaussian_ish(rng: &mut SimRng) -> f64 {
        (0..4).map(|_| rng.uniform_f64(-1.0, 1.0)).sum::<f64>() * GAUSS_SCALE
    }

    /// Closes the current step and opens the next. The anchor moves with
    /// the velocity [`GaussMarkov::position_at`] interpolated the ending
    /// step with, so the trajectory is continuous at the boundary; only
    /// then are the next step's speed and heading drawn.
    fn advance_one_step(&mut self) {
        let p = self.params;
        let dt = p.step.as_secs_f64();
        let delta = Vec2::new(
            self.speed * self.heading.cos() * dt,
            self.speed * self.heading.sin() * dt,
        );
        self.pos = (self.pos + delta).clamp_to(p.width, p.height);
        self.at += p.step;
        let a = p.alpha;
        let decay = (1.0 - a * a).max(0.0).sqrt();
        self.speed = (a * self.speed
            + (1.0 - a) * p.mean_speed
            + decay * p.speed_stddev * Self::gaussian_ish(&mut self.rng))
        .max(0.0);
        // Mean heading steers away from the walls so movers do not cling
        // to the boundary (the standard Gauss–Markov edge treatment).
        let mean_heading = self.edge_mean_heading();
        self.heading = a * self.heading
            + (1.0 - a) * mean_heading
            + decay * p.heading_stddev * Self::gaussian_ish(&mut self.rng);
    }

    fn edge_mean_heading(&self) -> f64 {
        use std::f64::consts::{FRAC_PI_2, PI};
        let p = self.params;
        let margin = 0.1;
        let (x, y) = (self.pos.x / p.width, self.pos.y / p.height);
        match (x < margin, x > 1.0 - margin, y < margin, y > 1.0 - margin) {
            (true, _, true, _) => 0.25 * PI,  // bottom-left → NE
            (true, _, _, true) => -0.25 * PI, // top-left → SE
            (_, true, true, _) => 0.75 * PI,  // bottom-right → NW
            (_, true, _, true) => -0.75 * PI, // top-right → SW
            (true, ..) => 0.0,                // left wall → E
            (_, true, ..) => PI,              // right wall → W
            (_, _, true, _) => FRAC_PI_2,     // bottom wall → N
            (_, _, _, true) => -FRAC_PI_2,    // top wall → S
            _ => self.heading,                // interior: keep course
        }
    }

    /// The mover's position at `t`. Queries must be non-decreasing across
    /// calls; within the current step the position is interpolated
    /// linearly.
    pub fn position_at(&mut self, t: SimTime) -> Vec2 {
        while t >= self.at + self.params.step {
            self.advance_one_step();
        }
        let frac = t.saturating_sub(self.at).as_secs_f64() / self.params.step.as_secs_f64();
        let delta = Vec2::new(
            self.speed * self.heading.cos() * frac * self.params.step.as_secs_f64(),
            self.speed * self.heading.sin() * frac * self.params.step.as_secs_f64(),
        );
        (self.pos + delta).clamp_to(self.params.width, self.params.height)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stays_in_bounds() {
        let mut seed = SimRng::new(9);
        let mut m = GaussMarkov::new(GaussMarkovParams::default(), &mut seed);
        for s in 0..10_000 {
            let p = m.position_at(SimTime::from_secs(s));
            assert!((0.0..=1000.0).contains(&p.x), "x escaped: {p}");
            assert!((0.0..=1000.0).contains(&p.y), "y escaped: {p}");
        }
    }

    #[test]
    fn trajectories_are_smooth() {
        // Successive 1-second displacements should be positively
        // correlated (momentum), unlike a random walk.
        let mut seed = SimRng::new(10);
        let mut m = GaussMarkov::new(GaussMarkovParams::default(), &mut seed);
        let mut prev_pos = m.position_at(SimTime::ZERO);
        let mut prev_delta: Option<Vec2> = None;
        let mut dot_sum = 0.0;
        let mut count = 0;
        for s in 1..2_000u64 {
            let pos = m.position_at(SimTime::from_secs(s));
            let delta = pos - prev_pos;
            if let Some(pd) = prev_delta {
                dot_sum += pd.x * delta.x + pd.y * delta.y;
                count += 1;
            }
            prev_delta = Some(delta);
            prev_pos = pos;
        }
        assert!(
            dot_sum / count as f64 > 0.0,
            "no momentum: mean dot {dot_sum}"
        );
    }

    #[test]
    fn mean_speed_is_respected() {
        let mut seed = SimRng::new(11);
        let params = GaussMarkovParams {
            mean_speed: 2.0,
            ..GaussMarkovParams::default()
        };
        let mut m = GaussMarkov::new(params, &mut seed);
        let mut travelled = 0.0;
        let mut prev = m.position_at(SimTime::ZERO);
        let horizon = 5_000u64;
        for s in 1..=horizon {
            let pos = m.position_at(SimTime::from_secs(s));
            travelled += prev.distance(pos);
            prev = pos;
        }
        let speed = travelled / horizon as f64;
        // Boundary clamping eats some distance; allow a broad band.
        assert!(
            (0.8..=2.6).contains(&speed),
            "mean observed speed {speed} out of band"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let mut s1 = SimRng::new(12);
        let mut s2 = SimRng::new(12);
        let mut a = GaussMarkov::new(GaussMarkovParams::default(), &mut s1);
        let mut b = GaussMarkov::new(GaussMarkovParams::default(), &mut s2);
        for s in (0..500).step_by(3) {
            let t = SimTime::from_secs(s);
            assert_eq!(a.position_at(t), b.position_at(t));
        }
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn invalid_alpha_rejected() {
        let mut seed = SimRng::new(1);
        GaussMarkov::new(
            GaussMarkovParams {
                alpha: 1.5,
                ..GaussMarkovParams::default()
            },
            &mut seed,
        );
    }
}
