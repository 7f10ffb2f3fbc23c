//! The benchmark's one wall-clock seam.
//!
//! The simulator crates never read the clock (a determinism rule the
//! repository's linter enforces); the benchmark times them from outside,
//! and every host-time reading in this package starts here.

use std::time::Instant;

/// The current instant.
pub fn now() -> Instant {
    Instant::now() // tidy:allow(wall-clock): host time measured around simulator calls from outside; no reading feeds back into a run
}

/// Seconds elapsed since `start`.
pub fn secs_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}
