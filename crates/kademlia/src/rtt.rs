//! Per-contact RTT estimation and adaptive lookup concurrency — the
//! protocol side of the latency-aware overlay.
//!
//! Every request/response RPC yields one round-trip sample for the peer it
//! was addressed to. [`RttBook`] folds those samples into a **decayed
//! EWMA** per contact: each new sample first decays the accumulated weight
//! of the old estimate by `0.5^(Δt / half_life)`, then blends in with unit
//! weight. A contact sampled recently is therefore dominated by fresh
//! measurements, while a contact silent for several half-lives converges
//! back toward whatever it reports next — stale estimates lose their vote
//! instead of anchoring the mean forever.
//!
//! The estimates feed three consumers, each individually gated by
//! [`LatencyConfig`] so ablations can toggle them independently:
//!
//! * **Proximity neighbor selection** (`pns`) — the routing table prefers
//!   measurably-near contacts when a full bucket forces a choice;
//! * **Shortlist bias** (`bias_shortlist`) — lookups query low-RTT
//!   candidates first within the classic `k`-nearest eligibility window,
//!   shifting the *order* of queries without changing the result set;
//! * **Adaptive α** (`adaptive_alpha`) — each lookup carries its own
//!   [`AlphaController`], widening that lookup's parallelism toward
//!   `alpha_max` as its own RPCs time out (loss hides behind redundancy)
//!   and narrowing back toward `alpha_min` on clean streaks. Scoping the
//!   controller to the lookup keeps the datagram budget honest: only the
//!   lookups actually experiencing loss pay for redundancy, instead of one
//!   bad path inflating every future lookup the node issues;
//! * **Adaptive timeouts** (`adaptive_timeout`) — lookup queries to
//!   measured peers time out after `rto_beta × srtt` instead of the global
//!   worst-case `rpc_timeout_us`, so recovery from a lost query costs
//!   milliseconds on a nearby link.

use dharma_types::{FxHashMap, Id160};

dharma_types::config! {
    /// Latency-aware behaviour knobs, hung off `KadConfig::latency`.
    /// `None` there disables every consumer and keeps the protocol
    /// byte-identical to the latency-oblivious versions.
    #[derive(Clone, Debug)]
    #[non_exhaustive]
    pub struct LatencyConfig => LatencyConfigBuilder {
        /// Lower bound for lookup parallelism (the classic Kademlia α).
        alpha_min: usize = 3,
        /// Upper bound for lookup parallelism under loss.
        alpha_max: usize = 8,
        /// Half-life of the decayed RTT estimator: a sample this old carries
        /// half the weight of a fresh one.
        rtt_half_life_us: u64 = 30_000_000,
        /// Proximity neighbor selection: full buckets demote the slowest
        /// measured resident in favour of a measurably faster newcomer.
        pns: bool = true,
        /// Latency-biased shortlists: lookups query low-RTT eligible
        /// candidates first (never changing the eligibility window).
        bias_shortlist: bool = true,
        /// Adaptive lookup concurrency between `alpha_min` and `alpha_max`.
        adaptive_alpha: bool = true,
        /// RTT-adaptive per-query timeouts for lookup RPCs: a query to a
        /// measured peer times out after [`LatencyConfig::rto_beta`] × its
        /// smoothed RTT (clamped to `rto_min_us ..= rpc_timeout_us`) instead
        /// of the conservative global `rpc_timeout_us`, so a query lost on a
        /// nearby link is re-dispatched in milliseconds, not hundreds of them.
        /// Maintenance RPCs (probes, repair, revalidation) keep the global
        /// timeout — misjudging those evicts live contacts.
        adaptive_timeout: bool = true,
        /// Multiple of the smoothed RTT a lookup query may stay unanswered.
        /// Per-link delay varies only by jitter here, but β must absorb both
        /// jitter and estimator lag, hence the comfortable default of 3.
        rto_beta: f64 = 3.0,
        /// Floor of the adaptive timeout (µs), guarding against a thin book
        /// producing hair-trigger timeouts.
        rto_min_us: u64 = 10_000,
    }
}

impl LatencyConfig {
    fn validate(&self) -> Result<(), String> {
        if self.alpha_min == 0 || self.alpha_min > self.alpha_max {
            return Err(format!(
                "alpha bounds {}..{} invalid: need 0 < min <= max",
                self.alpha_min, self.alpha_max
            ));
        }
        if self.rtt_half_life_us == 0 {
            return Err("rtt_half_life_us must be positive".into());
        }
        if !(self.rto_beta >= 1.0 && self.rto_beta.is_finite()) {
            return Err(format!(
                "rto_beta {} must be finite and >= 1",
                self.rto_beta
            ));
        }
        if self.rto_min_us == 0 {
            return Err("rto_min_us must be positive".into());
        }
        Ok(())
    }
}

/// One contact's decayed estimate.
#[derive(Clone, Copy, Debug)]
struct RttEntry {
    /// Smoothed round-trip time (µs).
    srtt_us: f64,
    /// Accumulated sample weight (decays between observations).
    weight: f64,
    /// Virtual time of the last sample.
    seen_us: u64,
}

/// Decayed per-contact RTT book. Pure state, no I/O; all arithmetic is
/// deterministic, so recording samples never perturbs simulation history.
#[derive(Clone, Debug)]
pub struct RttBook {
    half_life_us: u64,
    entries: FxHashMap<Id160, RttEntry>,
    samples: u64,
}

impl RttBook {
    /// An empty book with the given decay half-life (µs, ≥ 1).
    pub fn new(half_life_us: u64) -> Self {
        RttBook {
            half_life_us: half_life_us.max(1),
            entries: FxHashMap::default(),
            samples: 0,
        }
    }

    /// Folds one round-trip sample for `id` taken at virtual time `now_us`.
    pub fn observe(&mut self, id: Id160, rtt_us: u64, now_us: u64) {
        self.samples += 1;
        let e = self.entries.entry(id).or_insert(RttEntry {
            srtt_us: rtt_us as f64,
            weight: 0.0,
            seen_us: now_us,
        });
        let dt = now_us.saturating_sub(e.seen_us) as f64;
        let decayed = e.weight * 0.5f64.powf(dt / self.half_life_us as f64);
        e.srtt_us = (e.srtt_us * decayed + rtt_us as f64) / (decayed + 1.0);
        e.weight = decayed + 1.0;
        e.seen_us = now_us;
    }

    /// The smoothed RTT estimate for `id` (µs), if any sample exists.
    pub fn estimate_us(&self, id: &Id160) -> Option<u64> {
        self.entries.get(id).map(|e| e.srtt_us.round() as u64)
    }

    /// Contacts with at least one sample.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no contact has been sampled yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total samples ever folded in.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// The `q`-quantile (`0.0..=1.0`) of the current per-contact estimates
    /// (µs) — the observability surface ("how far away do my neighbors
    /// look"). `None` on an empty book.
    pub fn percentile_us(&self, q: f64) -> Option<u64> {
        if self.entries.is_empty() {
            return None;
        }
        // dharma-lint: allow(D3): values are collected then fully sorted — order-independent
        let mut v: Vec<u64> = self
            .entries
            .values()
            .map(|e| e.srtt_us.round() as u64)
            .collect();
        v.sort_unstable();
        let idx = ((v.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        Some(v[idx])
    }
}

/// Adaptive lookup-concurrency controller: α widens by one on every RPC
/// timeout (up to `alpha_max`) and narrows by one after a full α-sized
/// streak of clean replies (down to `alpha_min`). One controller is
/// created per lookup operation, so the adaptation is scoped to the
/// lookup that actually observed the loss.
#[derive(Clone, Debug)]
pub struct AlphaController {
    min: usize,
    max: usize,
    alpha: usize,
    clean_streak: usize,
}

impl AlphaController {
    /// A controller starting at `alpha_min`.
    pub fn new(cfg: &LatencyConfig) -> Self {
        let min = cfg.alpha_min.max(1);
        AlphaController {
            min,
            max: cfg.alpha_max.max(min),
            alpha: min,
            clean_streak: 0,
        }
    }

    /// The α new and pumped lookups should use right now.
    pub fn current(&self) -> usize {
        self.alpha
    }

    /// An RPC timed out: reset the clean streak and widen by one.
    /// Returns true when α actually widened.
    pub fn on_timeout(&mut self) -> bool {
        self.clean_streak = 0;
        if self.alpha < self.max {
            self.alpha += 1;
            true
        } else {
            false
        }
    }

    /// A request/response RPC completed without timing out. After α clean
    /// replies in a row, narrow by one. Returns true when α narrowed.
    pub fn on_clean_reply(&mut self) -> bool {
        self.clean_streak += 1;
        if self.clean_streak >= self.alpha && self.alpha > self.min {
            self.alpha -= 1;
            self.clean_streak = 0;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dharma_types::sha1;

    #[test]
    fn config_table_defaults_and_setters() {
        let d = LatencyConfig::default();
        assert_eq!(
            (
                d.alpha_min,
                d.alpha_max,
                d.rtt_half_life_us,
                d.rto_beta,
                d.rto_min_us
            ),
            (3, 8, 30_000_000, 3.0, 10_000)
        );
        assert_eq!(
            (
                d.pns,
                d.bias_shortlist,
                d.adaptive_alpha,
                d.adaptive_timeout
            ),
            (true, true, true, true)
        );

        let c = LatencyConfig::builder()
            .alpha_min(2)
            .alpha_max(5)
            .rtt_half_life_us(7)
            .pns(false)
            .bias_shortlist(false)
            .adaptive_alpha(false)
            .adaptive_timeout(false)
            .rto_beta(1.5)
            .rto_min_us(9)
            .build()
            .expect("valid config");
        assert_eq!(
            (
                c.alpha_min,
                c.alpha_max,
                c.rtt_half_life_us,
                c.rto_beta,
                c.rto_min_us
            ),
            (2, 5, 7, 1.5, 9)
        );
        assert_eq!(
            (
                c.pns,
                c.bias_shortlist,
                c.adaptive_alpha,
                c.adaptive_timeout
            ),
            (false, false, false, false)
        );
    }

    #[test]
    fn config_builder_names_each_bad_knob() {
        let err = |b: LatencyConfigBuilder| b.build().unwrap_err();
        assert_eq!(
            err(LatencyConfig::builder().alpha_min(0)),
            "alpha bounds 0..8 invalid: need 0 < min <= max"
        );
        assert_eq!(
            err(LatencyConfig::builder().alpha_min(9)),
            "alpha bounds 9..8 invalid: need 0 < min <= max"
        );
        assert_eq!(
            err(LatencyConfig::builder().rtt_half_life_us(0)),
            "rtt_half_life_us must be positive"
        );
        assert_eq!(
            err(LatencyConfig::builder().rto_beta(0.5)),
            "rto_beta 0.5 must be finite and >= 1"
        );
        assert_eq!(
            err(LatencyConfig::builder().rto_beta(f64::INFINITY)),
            "rto_beta inf must be finite and >= 1"
        );
        assert_eq!(
            err(LatencyConfig::builder().rto_min_us(0)),
            "rto_min_us must be positive"
        );
    }

    #[test]
    fn observe_and_estimate_single_contact() {
        let id = sha1(b"a");
        let mut book = RttBook::new(1_000_000);
        assert!(book.estimate_us(&id).is_none());
        book.observe(id, 10_000, 0);
        assert_eq!(book.estimate_us(&id), Some(10_000));
        // A second immediate sample averages evenly.
        book.observe(id, 30_000, 0);
        assert_eq!(book.estimate_us(&id), Some(20_000));
        assert_eq!(book.samples(), 2);
    }

    #[test]
    fn old_samples_lose_weight_after_half_lives() {
        let id = sha1(b"a");
        let mut book = RttBook::new(1_000_000);
        book.observe(id, 10_000, 0);
        // Ten half-lives later the old sample's weight is ~1/1024: the new
        // sample dominates.
        book.observe(id, 50_000, 10_000_000);
        let est = book.estimate_us(&id).unwrap();
        assert!(est > 49_900, "stale sample still anchoring: {est}");
    }

    #[test]
    fn recent_samples_blend_instead_of_replacing() {
        let id = sha1(b"a");
        let mut book = RttBook::new(10_000_000);
        book.observe(id, 10_000, 0);
        // Well within one half-life: close to an even blend.
        book.observe(id, 30_000, 1_000);
        let est = book.estimate_us(&id).unwrap();
        assert!((19_000..=21_000).contains(&est), "blend off: {est}");
    }

    #[test]
    fn percentiles_span_the_book() {
        let mut book = RttBook::new(1_000_000);
        assert!(book.percentile_us(0.5).is_none());
        for n in 1..=100u64 {
            book.observe(sha1(&n.to_le_bytes()), n * 1_000, 0);
        }
        assert_eq!(book.len(), 100);
        let p50 = book.percentile_us(0.5).unwrap();
        let p95 = book.percentile_us(0.95).unwrap();
        assert!((45_000..=55_000).contains(&p50), "p50 {p50}");
        assert!((90_000..=100_000).contains(&p95), "p95 {p95}");
        assert!(book.percentile_us(0.0).unwrap() <= p50);
        assert_eq!(book.percentile_us(1.0).unwrap(), 100_000);
    }

    #[test]
    fn alpha_widens_on_timeouts_and_narrows_on_clean_streaks() {
        let cfg = LatencyConfig {
            alpha_min: 3,
            alpha_max: 5,
            ..LatencyConfig::default()
        };
        let mut ctl = AlphaController::new(&cfg);
        assert_eq!(ctl.current(), 3);
        assert!(ctl.on_timeout());
        assert!(ctl.on_timeout());
        assert_eq!(ctl.current(), 5);
        assert!(!ctl.on_timeout(), "saturates at alpha_max");
        // A clean streak of α replies narrows by one step.
        for _ in 0..5 {
            ctl.on_clean_reply();
        }
        assert_eq!(ctl.current(), 4);
        // A timeout mid-streak resets progress toward narrowing.
        ctl.on_clean_reply();
        ctl.on_timeout();
        assert_eq!(ctl.current(), 5);
        for _ in 0..20 {
            ctl.on_clean_reply();
        }
        assert_eq!(ctl.current(), 3, "floors at alpha_min");
    }
}
