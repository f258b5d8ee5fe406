//! The statistics every workload reports through: median and quartiles,
//! the highest percentile a sample can support, and process CPU time and
//! peak memory read from `/proc/self` (no FFI, so the crate stays
//! `#![forbid(unsafe_code)]`).

use std::time::Duration;

/// Samples needed beyond a percentile before it is reported.
pub const TAIL_SAMPLES: usize = 10;

/// Samples below which a 99th percentile is refused.
pub const P99_MIN_SAMPLES: usize = 1_000;

/// Linear-interpolated quantile `q` in `[0, 1]` of an ascending slice.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn sorted_copy(values: &[f64]) -> Vec<f64> {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    v.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
    v
}

/// The median of `values` (`None` when empty).
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted_copy(values);
    (!v.is_empty()).then(|| quantile_sorted(&v, 0.5))
}

/// First quartile, median and third quartile of `values`.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let v = sorted_copy(values);
    (!v.is_empty()).then(|| {
        (
            quantile_sorted(&v, 0.25),
            quantile_sorted(&v, 0.5),
            quantile_sorted(&v, 0.75),
        )
    })
}

/// The interquartile range as a share of the median — the spread the
/// benchmark contract is judged on. `None` when empty or the median is 0.
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    let (q1, med, q3) = quartiles(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// A reported percentile: its rank, its value and how many samples back it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    /// The percentile rank in `(0, 100)`, e.g. `99.0`.
    pub rank: f64,
    /// The value at that rank.
    pub value: f64,
    /// Total samples.
    pub samples: usize,
}

/// The value at percentile `rank` (0–100), provided at least
/// [`TAIL_SAMPLES`] samples lie beyond it; the 99th additionally needs
/// [`P99_MIN_SAMPLES`] samples in total.
pub fn percentile(values: &[f64], rank: f64) -> Option<Percentile> {
    let v = sorted_copy(values);
    let n = v.len();
    if n == 0 || !(0.0..100.0).contains(&rank) {
        return None;
    }
    // Samples at or below the rank, rounded up; the epsilon keeps a product
    // like 0.999 * 10_000 = 9990.000000000002 from costing a sample.
    let within = (rank / 100.0 * n as f64 - 1e-9).ceil().max(0.0) as usize;
    let beyond = n.saturating_sub(within);
    if beyond < TAIL_SAMPLES || (rank >= 99.0 && n < P99_MIN_SAMPLES) {
        return None;
    }
    Some(Percentile {
        rank,
        value: quantile_sorted(&v, rank / 100.0),
        samples: n,
    })
}

/// The highest of the usual tail ranks (99.9, 99, 95, 90, 75) that the
/// sample supports, with its value and the sample count.
pub fn highest_percentile(values: &[f64]) -> Option<Percentile> {
    [99.9, 99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find_map(|rank| percentile(values, rank))
}

/// Process CPU time (user + system) so far, from `/proc/self/stat` fields
/// 14 and 15, which count clock ticks of 1/100 s on Linux. `None` where
/// `/proc` is absent.
pub fn process_cpu_time() -> Option<Duration> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    parse_cpu_ticks(&stat).map(|ticks| Duration::from_millis(ticks * 10))
}

/// Sums `utime` and `stime` out of a `/proc/<pid>/stat` line. The command
/// name (field 2) may contain spaces and parentheses, so fields are
/// counted from the last `)`.
fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // `rest` starts at field 3 (state); utime is field 14, stime field 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set size in MiB (`VmHWM` of `/proc/self/status`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kb(&status).map(|kb| kb as f64 / 1024.0)
}

fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_ascii_whitespace().next())
        .and_then(|kb| kb.parse().ok())
}

/// The least of `n` timings of `f`, in nanoseconds per call, each timing
/// covering `inner` back-to-back calls. Min-of-N discards scheduler noise,
/// which only ever adds time.
pub fn min_of_n_ns(n: usize, inner: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..n.max(1) {
        let t0 = std::time::Instant::now();
        for _ in 0..inner.max(1) {
            f();
        }
        let ns = t0.elapsed().as_nanos() as f64 / inner.max(1) as f64;
        best = best.min(ns);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_interpolate() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        let (q1, med, q3) = quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!((q1, med, q3), (2.0, 3.0, 4.0));
        let spread = iqr_share(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert!((spread - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(
            iqr_share(&[0.0, 0.0, 0.0]),
            None,
            "zero median has no share"
        );
    }

    #[test]
    fn non_finite_samples_are_dropped() {
        assert_eq!(median(&[f64::NAN, 1.0, f64::INFINITY, 3.0]), Some(2.0));
    }

    #[test]
    fn p99_is_refused_under_a_thousand_samples() {
        let small: Vec<f64> = (0..999).map(f64::from).collect();
        assert!(percentile(&small, 99.0).is_none());
        let p = highest_percentile(&small).expect("p95 has 49 samples beyond it");
        assert_eq!(p.rank, 95.0);
        assert_eq!(p.samples, 999);

        let big: Vec<f64> = (0..1000).map(f64::from).collect();
        let p = percentile(&big, 99.0).expect("1000 samples leave 10 beyond p99");
        assert!((p.value - 989.01).abs() < 1e-9);
        assert_eq!(highest_percentile(&big).unwrap().rank, 99.0);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (0..39).map(f64::from).collect();
        assert!(percentile(&v, 75.0).is_none(), "only 9 samples beyond p75");
        let v: Vec<f64> = (0..40).map(f64::from).collect();
        assert_eq!(highest_percentile(&v).unwrap().rank, 75.0);
        let v: Vec<f64> = (0..10_000).map(f64::from).collect();
        assert_eq!(highest_percentile(&v).unwrap().rank, 99.9);
    }

    #[test]
    fn cpu_ticks_skip_a_command_name_with_spaces() {
        let line = "4242 (my (odd) cmd) S 1 2 3 4 5 6 7 8 9 10 120 30 0 0 20 0 1 0 99";
        assert_eq!(parse_cpu_ticks(line), Some(150));
        assert_eq!(parse_cpu_ticks("garbage"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kib() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(2048));
        assert_eq!(parse_vm_hwm_kb("Name: x\n"), None);
    }

    #[test]
    fn proc_readers_work_on_this_host() {
        // Burn a little CPU so the tick counter is not trivially zero.
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_add(i * i);
        }
        std::hint::black_box(x);
        if let Some(cpu) = process_cpu_time() {
            assert!(cpu.as_secs() < 3600);
        }
        if let Some(rss) = peak_rss_mb() {
            assert!(rss > 0.0);
        }
    }

    #[test]
    fn min_of_n_reports_time_per_call() {
        let mut calls = 0u64;
        let ns = min_of_n_ns(3, 100, || {
            calls += 1;
            std::hint::black_box(calls);
        });
        assert_eq!(calls, 300);
        assert!(ns.is_finite() && ns >= 0.0);
    }
}
