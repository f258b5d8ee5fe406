//! Holder-side recent-fetcher tracking for write-triggered invalidation
//! push.
//!
//! When a holder serves a key authoritatively it records who asked; when
//! it later applies a write to that key it pushes an `InvalidatePush` to
//! the most recent fetchers, bounded by the configured fan-out and
//! recency window. The book is the holder-side dual of the requester's
//! `HitHistory`: that one remembers *servers* to route toward, this one
//! remembers *clients* to notify.
//!
//! Everything is deterministic and bounded: per-key fetcher lists are
//! plain vectors ordered by recency (ties by fetcher id), and key
//! eviction is least-recently-touched with ties by key — no hash-order
//! dependence ever escapes (`dharma-lint` D3 also flags any iteration
//! over a `FetcherBook`-typed binding, should one grow).

use dharma_types::{FxHashMap, Id160};

#[derive(Clone, Copy, Debug)]
struct Fetcher {
    id: Id160,
    addr: u32,
    /// The filter width the fetcher asked with — the push echoes it back
    /// so the refreshed view lands in the fetcher's exact cache slot.
    top_n: u32,
    at_us: u64,
}

#[derive(Clone, Debug, Default)]
struct KeyFetchers {
    fetchers: Vec<Fetcher>,
    touched_us: u64,
}

/// Bounded per-key record of who recently fetched each held key.
#[derive(Clone, Debug)]
pub struct FetcherBook {
    max_keys: usize,
    max_per_key: usize,
    window_us: u64,
    keys: FxHashMap<Id160, KeyFetchers>,
}

impl FetcherBook {
    /// A book remembering at most `max_per_key` fetchers for each of at
    /// most `max_keys` keys, forgetting interest older than `window_us`.
    pub fn new(max_keys: usize, max_per_key: usize, window_us: u64) -> Self {
        FetcherBook {
            max_keys: max_keys.max(1),
            max_per_key: max_per_key.max(1),
            window_us: window_us.max(1),
            keys: FxHashMap::default(),
        }
    }

    /// Keys currently tracked.
    pub fn tracked(&self) -> usize {
        self.keys.len()
    }

    /// Records that `fetcher` (at transport `addr`) fetched `key` with
    /// filter width `top_n` at `now_us`. Re-fetches refresh the existing
    /// entry (latest addr and filter width win).
    pub fn record(&mut self, key: Id160, fetcher: Id160, addr: u32, top_n: u32, now_us: u64) {
        let entry = self.keys.entry(key).or_default();
        entry.touched_us = entry.touched_us.max(now_us);
        match entry.fetchers.iter_mut().find(|f| f.id == fetcher) {
            Some(f) => {
                f.at_us = f.at_us.max(now_us);
                f.addr = addr;
                f.top_n = top_n;
            }
            None => {
                if entry.fetchers.len() >= self.max_per_key {
                    // Evict the stalest interest; deterministic ties by id.
                    let stalest = entry
                        .fetchers
                        .iter()
                        .enumerate()
                        .min_by(|(_, a), (_, b)| a.at_us.cmp(&b.at_us).then(a.id.cmp(&b.id)))
                        .map(|(i, _)| i)
                        .expect("non-empty");
                    entry.fetchers.remove(stalest);
                }
                entry.fetchers.push(Fetcher {
                    id: fetcher,
                    addr,
                    top_n,
                    at_us: now_us,
                });
            }
        }
        if self.keys.len() > self.max_keys {
            // Evict the least-recently-touched key (deterministic ties by key).
            // dharma-lint: allow(D3): `min_by` with a (touched, key) total order is order-independent
            if let Some(victim) = self
                .keys
                .iter()
                .filter(|(k, _)| **k != key)
                .min_by(|(ka, a), (kb, b)| a.touched_us.cmp(&b.touched_us).then(ka.cmp(kb)))
                .map(|(k, _)| *k)
            {
                self.keys.remove(&victim);
            }
        }
    }

    /// The fetchers of `key` seen within the recency window, newest first
    /// (deterministic ties by id), as
    /// `(fetcher id, transport addr, filter width)`.
    pub fn recent(&self, key: &Id160, now_us: u64) -> Vec<(Id160, u32, u32)> {
        let Some(entry) = self.keys.get(key) else {
            return Vec::new();
        };
        let mut live: Vec<&Fetcher> = entry
            .fetchers
            .iter()
            .filter(|f| now_us.saturating_sub(f.at_us) <= self.window_us)
            .collect();
        live.sort_unstable_by(|a, b| b.at_us.cmp(&a.at_us).then(a.id.cmp(&b.id)));
        live.into_iter().map(|f| (f.id, f.addr, f.top_n)).collect()
    }

    /// Drops a fetcher everywhere (it departed or was evicted from routing).
    pub fn forget_peer(&mut self, peer: &Id160) {
        // dharma-lint: allow(D3): each entry is mutated independently; no order escapes
        for entry in self.keys.values_mut() {
            entry.fetchers.retain(|f| f.id != *peer);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dharma_types::sha1;

    #[test]
    fn records_and_ranks_by_recency() {
        let mut b = FetcherBook::new(8, 4, 1_000_000);
        let k = sha1(b"k");
        let (p1, p2, p3) = (sha1(b"p1"), sha1(b"p2"), sha1(b"p3"));
        b.record(k, p1, 1, 10, 100);
        b.record(k, p2, 2, 10, 200);
        b.record(k, p3, 3, 10, 300);
        assert_eq!(
            b.recent(&k, 300),
            vec![(p3, 3, 10), (p2, 2, 10), (p1, 1, 10)]
        );
        // A re-fetch moves the fetcher to the front and updates its addr
        // and filter width.
        b.record(k, p1, 9, 5, 400);
        assert_eq!(b.recent(&k, 400).first(), Some(&(p1, 9, 5)));
        // Unknown key: nobody to push to.
        assert!(b.recent(&sha1(b"other"), 400).is_empty());
    }

    #[test]
    fn window_expires_old_interest() {
        let mut b = FetcherBook::new(8, 4, 1_000);
        let k = sha1(b"k");
        b.record(k, sha1(b"p"), 1, 0, 0);
        assert_eq!(b.recent(&k, 1_000).len(), 1, "inside the window");
        assert!(b.recent(&k, 1_001).is_empty(), "outside the window");
    }

    #[test]
    fn bounds_keys_and_fetchers_per_key() {
        let mut b = FetcherBook::new(4, 2, u64::MAX / 2);
        let k = sha1(b"k");
        for i in 0..10u32 {
            b.record(k, sha1(&i.to_le_bytes()), i, 0, u64::from(i));
        }
        assert!(b.recent(&k, 10).len() <= 2, "per-key bound holds");
        // Newest interest survives the per-key eviction.
        assert_eq!(b.recent(&k, 10).first().map(|(_, a, _)| *a), Some(9));
        for i in 0..50u32 {
            b.record(sha1(&i.to_le_bytes()), sha1(b"p"), 0, 0, 100 + u64::from(i));
        }
        assert!(b.tracked() <= 4, "tracked {}", b.tracked());
    }

    /// A forgotten peer leaves every key's fetchers; the other fetchers
    /// of those keys stay.
    #[test]
    fn forget_removes_peers_and_keys() {
        let mut b = FetcherBook::new(8, 4, u64::MAX / 2);
        let (ka, kb) = (sha1(b"a"), sha1(b"b"));
        let (p, q) = (sha1(b"gone"), sha1(b"kept"));
        b.record(ka, p, 7, 0, 0);
        b.record(kb, p, 7, 0, 0);
        b.record(kb, q, 8, 0, 1);
        b.forget_peer(&p);
        assert!(b.recent(&ka, 1).is_empty());
        assert_eq!(b.recent(&kb, 1), vec![(q, 8, 0)]);
    }
}
