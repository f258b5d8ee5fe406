//! Hot-block caching and adaptive replication for the DHARMA overlay.
//!
//! The folksonomy workload is Zipf-distributed (paper §III): a handful of
//! popular `t̄`/`t̂` blocks attract nearly all GET traffic, which lands on
//! the `k` nodes closest to their keys — the classic DHT hot-spot problem.
//! This crate provides the two standard cures, packaged so that the
//! `dharma-kademlia` node (and any future overlay) can adopt them without
//! new dependencies:
//!
//! * [`HotCache`] — a bounded, per-node cache of filtered block reads keyed
//!   by `(Id160, top_n)`. Admission is TinyLFU-style: a compact
//!   frequency sketch ([`FreqSketch`]) decides whether a candidate is
//!   likelier to be re-read than the eviction victim, and a segmented LRU
//!   (probation + protected) preserves recency within the admitted set.
//!   Entries carry a TTL and the write's **origin stamp**
//!   ([`dharma_types::VersionStamp`]), so a cached view can never survive a
//!   local write to the same key: any token append on the caching node
//!   invalidates its cached views of that key, which preserves
//!   read-your-writes for writers while remote staleness stays bounded by
//!   the TTL — consistent with the commutative token-append semantics,
//!   where a stale view is merely an *older* (never a contradictory) set
//!   of weights.
//!
//! * [`PopularityEstimator`] — an exponentially-decayed per-key arrival
//!   rate. Storage nodes feed every GET arrival into it; keys whose decayed
//!   rate crosses a threshold are *hot* and report a positive
//!   [`PopularityEstimator::extra_replicas`], which the overlay uses to
//!   push idempotent replica snapshots beyond the base `k` (adaptive
//!   replication). Cold keys decay back below the threshold and stop
//!   gaining extras, but nothing reclaims the extras already pushed:
//!   records do not expire, and a holder's storage only grows.
//!
//! * [`FreshnessBook`] / [`HitHistory`] ([`fresh`], the `dharma-fresh`
//!   subsystem) — the requester-side state of **version gossip** and
//!   **cache-aware lookup routing**: the highest gossiped origin stamp per
//!   key (the monotone-freshness serving gate, plus TTL extension on fresh
//!   confirmations via [`HotCache::confirm_fresh`] and revalidation drops
//!   via [`HotCache::invalidate_stale`]), and a decayed per-peer history of
//!   who recently served each key (warm-peer shortlist seeding).
//!
//! * [`FetcherBook`] ([`fetchers`]) — the holder-side dual for
//!   write-triggered invalidation push: who recently fetched each held
//!   key, so an applied write can notify them directly (bounded fan-out)
//!   instead of waiting for gossip to reach them.
//!
//! Everything here is deterministic and allocation-conscious: the cache is
//! a slab with intrusive lists (no per-op allocation), the sketch is a few
//! kilobytes of packed 4-bit counters, and time is caller-provided
//! microseconds so the discrete-event simulator stays reproducible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fetchers;
pub mod fresh;
pub mod hot;
pub mod popularity;
pub mod sketch;

pub use fetchers::FetcherBook;
pub use fresh::{FreshConfig, FreshConfigBuilder, FreshnessBook, HitHistory};
pub use hot::{CacheConfig, CacheKey, CacheStats, HotCache};
pub use popularity::{PopularityConfig, PopularityEstimator};
pub use sketch::FreqSketch;
