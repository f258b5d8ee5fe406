//! Host-speed calibration.
//!
//! The sandbox this benchmark was defined on slows down for seconds at a
//! time (a neighbour on shared hardware): the same binary on the same
//! input then runs 30–50 % slower, which no amount of within-run medians
//! removes. So every timed batch is followed by one *tick* of a fixed
//! calibration kernel — a small mix of arithmetic, sorting, allocation,
//! ordered-map inserts and string formatting that calls nothing in the
//! program — and the batch's time is scaled by how much slower than
//! [`REFERENCE_TICK_NS`] that tick ran. Timed metrics are therefore in
//! **calibrated seconds**: seconds of a host that runs the kernel at the
//! reference speed. A change to the program moves the batch and not the
//! tick, so it shows in full; a slow spell moves both and cancels.
//!
//! The correction is approximate (the kernel and the overlay do not slow
//! by exactly the same factor), which is why runs still report medians
//! over many batches; raw rates are printed beside the calibrated ones.

use std::collections::BTreeMap;
use std::time::Instant;

/// Nanoseconds one tick takes between batches of a workload on the quiet
/// host that defined the benchmark (a 2.1 GHz Xeon, 2 cores), so that a
/// calibrated second there is a second. A constant, so that calibrated seconds mean the same on
/// every run; on a faster or slower host all timed metrics simply scale
/// together.
pub const REFERENCE_TICK_NS: f64 = 260_000.0;

/// Kernel rounds per tick.
const ROUNDS: usize = 2;

/// One round of the calibration kernel.
fn round(state: &mut u64) -> u64 {
    let mut v: Vec<u64> = (0..2048)
        .map(|_| {
            *state ^= *state << 13;
            *state ^= *state >> 7;
            *state ^= *state << 17;
            *state
        })
        .collect();
    v.sort_unstable();
    let mut m = BTreeMap::new();
    for (i, x) in v.iter().enumerate().take(512) {
        m.insert(*x, format!("t{i:010}"));
    }
    m.iter().fold(0u64, |acc, (k, s)| {
        acc.wrapping_add(*k).wrapping_add(s.len() as u64)
    })
}

/// Runs calibration ticks and remembers how long they took.
#[derive(Clone, Debug)]
pub struct Calibrator {
    state: u64,
    last_ns: f64,
    ticks_ns: Vec<f64>,
}

impl Default for Calibrator {
    fn default() -> Self {
        Self::new()
    }
}

impl Calibrator {
    /// A calibrator that has taken one tick, so the first
    /// [`Calibrator::tick`] already has a reading to average with.
    pub fn new() -> Self {
        let mut c = Calibrator {
            state: 0x9E37_79B9_7F4A_7C15,
            last_ns: REFERENCE_TICK_NS,
            ticks_ns: Vec::new(),
        };
        c.tick();
        c
    }

    /// Runs one tick and returns how much slower than the reference the
    /// host ran it, averaged with the previous tick: the slowdown over
    /// the stretch of work between the two.
    pub fn tick(&mut self) -> f64 {
        let t0 = Instant::now();
        let mut acc = 0u64;
        for _ in 0..ROUNDS {
            acc ^= round(&mut self.state);
        }
        std::hint::black_box(acc);
        let ns = t0.elapsed().as_nanos() as f64;
        let factor = (self.last_ns + ns) / 2.0 / REFERENCE_TICK_NS;
        self.last_ns = ns;
        self.ticks_ns.push(ns);
        factor
    }

    /// Every tick so far, in nanoseconds.
    pub fn ticks_ns(&self) -> &[f64] {
        &self.ticks_ns
    }

    /// A line for the report: how the host ran the kernel during the run.
    pub fn note(&self) -> String {
        let q = crate::stats::quartiles(&self.ticks_ns).unwrap_or((0.0, 0.0, 0.0));
        format!(
            "# calibration: {} ticks, quartiles {:.0} / {:.0} / {:.0} us against a reference of {:.0} us (timed metrics are in calibrated seconds)",
            self.ticks_ns.len(),
            q.0 / 1e3,
            q.1 / 1e3,
            q.2 / 1e3,
            REFERENCE_TICK_NS / 1e3
        )
    }
}

/// Times `work` and returns its result with its calibrated seconds: the
/// wall time divided by the slowdown ticks before and after it measured.
pub fn calibrated<T>(cal: &mut Calibrator, work: impl FnOnce() -> T) -> (T, f64, f64) {
    cal.tick();
    let t0 = Instant::now();
    let out = work();
    let raw = t0.elapsed().as_secs_f64();
    let factor = cal.tick();
    (out, raw / factor, raw)
}

/// Ticks on each side of a set-up. A set-up is timed once, not as one of
/// hundreds of batches whose median forgives a tick that was itself
/// disturbed, so its slowdown is the median of several.
const SETUP_TICKS: usize = 9;

/// Times one set-up and returns its result with its calibrated and its raw
/// seconds.
pub fn calibrated_setup<T>(cal: &mut Calibrator, setup: impl FnOnce() -> T) -> (T, f64, f64) {
    let median_tick_ns = |cal: &mut Calibrator| {
        let first = cal.ticks_ns.len();
        for _ in 0..SETUP_TICKS {
            cal.tick();
        }
        crate::stats::median(&cal.ticks_ns[first..]).expect("ticks were taken")
    };
    let before = median_tick_ns(cal);
    let t0 = Instant::now();
    let out = setup();
    let raw = t0.elapsed().as_secs_f64();
    let after = median_tick_ns(cal);
    (out, raw * REFERENCE_TICK_NS / ((before + after) / 2.0), raw)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticks_take_time_and_factors_are_positive() {
        let mut c = Calibrator::new();
        let f = c.tick();
        assert!(f > 0.0 && f.is_finite());
        assert_eq!(c.ticks_ns().len(), 2);
        assert!(c.ticks_ns().iter().all(|&ns| ns > 0.0));
    }

    #[test]
    fn the_kernel_is_deterministic() {
        let (mut a, mut b) = (1u64, 1u64);
        assert_eq!(round(&mut a), round(&mut b));
        assert_eq!(a, b);
    }

    #[test]
    fn a_set_up_is_scaled_by_the_ticks_around_it() {
        let mut c = Calibrator::new();
        let (out, cal_s, raw_s) = calibrated_setup(&mut c, || 7);
        assert_eq!(out, 7);
        assert!(cal_s >= 0.0 && cal_s.is_finite() && raw_s >= 0.0);
        assert_eq!(c.ticks_ns().len(), 1 + 2 * SETUP_TICKS);
    }

    #[test]
    fn calibrated_reports_raw_and_scaled_time() {
        let mut c = Calibrator::new();
        let (out, cal_s, raw_s) = calibrated(&mut c, || 7);
        assert_eq!(out, 7);
        assert!(raw_s >= 0.0 && cal_s >= 0.0);
    }
}
