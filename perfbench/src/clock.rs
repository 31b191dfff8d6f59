//! Host wall-clock measurement. The only place the benchmark reads the
//! host clock, so the `instant-wallclock` exemptions stay in one file.
//! Nothing measured here feeds a simulated quantity.

// lint:allow(instant-wallclock, benchmark host-cost measurement; never feeds simulated time)
use std::time::Instant;

/// A started host timer.
#[derive(Clone, Copy)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    pub fn start() -> Stopwatch {
        // lint:allow(instant-wallclock, benchmark host-cost measurement; never feeds simulated time)
        Stopwatch(Instant::now())
    }

    pub fn ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    pub fn s(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }

    pub fn ms(&self) -> f64 {
        self.s() * 1e3
    }
}
