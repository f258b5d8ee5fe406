//! The per-node hot-block cache: TinyLFU admission over a segmented LRU.
//!
//! Layout follows the W-TinyLFU design (Einziger et al.): new entries land
//! in a *probation* segment; a hit promotes them to the *protected* segment
//! (bounded to 4/5 of capacity, demoting its LRU back to probation). When
//! the cache is full, the candidate is admitted only if the frequency
//! sketch says it has been requested more often than the probation LRU
//! victim — one-hit wonders never displace proven hot blocks, which is
//! exactly the right bias for a Zipf-shaped folksonomy workload.
//!
//! Entries are keyed by `(block key, top_n)` because DHARMA's index-side
//! filtering makes differently-filtered reads of the same block distinct
//! payloads. Two staleness guards apply:
//!
//! * a TTL (`ttl_us`) bounds how long any cached view can be served;
//! * a **version** tag (the write's origin stamp, [`VersionStamp`] — exact
//!   across holders) plus [`HotCache::invalidate_key`] remove every view of
//!   a key the moment the caching node itself observes a write to it —
//!   read-your-writes for the writer, monotone (never contradictory) views
//!   for everyone else.
//!
//! The structure is a slab (`Vec`) with intrusive doubly-linked lists; no
//! per-operation allocation once warm.

use dharma_types::{FxHashMap, Id160, VersionStamp};

use crate::sketch::FreqSketch;

/// Cache key: block key plus the index-side filtering limit it was read at.
pub type CacheKey = (Id160, u32);

/// Hot-cache parameters.
#[derive(Clone, Debug)]
pub struct CacheConfig {
    /// Maximum number of cached views (across all keys). 0 disables.
    pub capacity: usize,
    /// Time-to-live of one cached view, µs. Bounds remote staleness.
    pub ttl_us: u64,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            capacity: 512,
            // 30 s — an eternity for a DES experiment, short for humans.
            ttl_us: 30_000_000,
        }
    }
}

/// Operation counters (monotone, per cache instance).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Served lookups.
    pub hits: u64,
    /// Lookups that found nothing valid.
    pub misses: u64,
    /// Values accepted (fresh inserts and replacements).
    pub insertions: u64,
    /// Candidates turned away by TinyLFU admission.
    pub rejected: u64,
    /// Entries displaced to make room.
    pub evictions: u64,
    /// Entries dropped because their TTL lapsed.
    pub expirations: u64,
    /// Entries dropped by [`HotCache::invalidate_key`].
    pub invalidations: u64,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Seg {
    Probation,
    Protected,
}

const NIL: u32 = u32::MAX;

#[derive(Debug)]
struct Slot<V> {
    key: CacheKey,
    value: V,
    version: VersionStamp,
    cached_at_us: u64,
    /// When this view (at this version) first entered the cache. Unlike
    /// `cached_at_us`, digest confirmations never move it — it anchors the
    /// hard ceiling on how long gossip may keep a view alive past its TTL.
    inserted_at_us: u64,
    prev: u32,
    next: u32,
    seg: Seg,
}

#[derive(Clone, Copy, Debug, Default)]
struct List {
    head: u32,
    tail: u32,
    len: usize,
}

/// The bounded hot-block cache.
#[derive(Debug)]
pub struct HotCache<V> {
    cfg: CacheConfig,
    sketch: FreqSketch,
    slots: Vec<Option<Slot<V>>>,
    free: Vec<u32>,
    map: FxHashMap<CacheKey, u32>,
    /// Secondary index: every cached view of a block key, for invalidation.
    by_id: FxHashMap<Id160, Vec<u32>>,
    probation: List,
    protected: List,
    stats: CacheStats,
}

#[inline]
fn hash_key(key: &CacheKey) -> u64 {
    use std::hash::{BuildHasher, BuildHasherDefault};
    let bh: BuildHasherDefault<dharma_types::fx::FxHasher> = Default::default();
    bh.hash_one(key)
}

impl<V: Clone> HotCache<V> {
    /// Creates a cache with the given bounds.
    pub fn new(cfg: CacheConfig) -> Self {
        let cap = cfg.capacity;
        HotCache {
            sketch: FreqSketch::with_capacity(cap.max(1)),
            cfg,
            slots: Vec::with_capacity(cap),
            free: Vec::new(),
            map: FxHashMap::default(),
            by_id: FxHashMap::default(),
            probation: List {
                head: NIL,
                tail: NIL,
                len: 0,
            },
            protected: List {
                head: NIL,
                tail: NIL,
                len: 0,
            },
            stats: CacheStats::default(),
        }
    }

    /// Number of cached views.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.cfg.capacity
    }

    /// Operation counters so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Protected-segment bound: 4/5 of capacity (at least 1 when cap > 1).
    fn protected_cap(&self) -> usize {
        (self.cfg.capacity * 4 / 5).max(usize::from(self.cfg.capacity > 1))
    }

    /// Looks up a cached view. Touches the frequency sketch (misses count
    /// toward future admission — that is what lets a hot key eventually
    /// displace a colder resident), expires stale entries, and promotes
    /// hits into the protected segment. Returns the view and its stamp.
    pub fn get(&mut self, key: &CacheKey, now_us: u64) -> Option<(V, VersionStamp)> {
        self.sketch.touch(hash_key(key));
        let Some(&idx) = self.map.get(key) else {
            self.stats.misses += 1;
            return None;
        };
        let (cached_at, version) = {
            let slot = self.slots[idx as usize].as_ref().expect("mapped slot");
            (slot.cached_at_us, slot.version)
        };
        if now_us.saturating_sub(cached_at) > self.cfg.ttl_us {
            self.remove_slot(idx);
            self.stats.expirations += 1;
            self.stats.misses += 1;
            return None;
        }
        self.promote(idx);
        self.stats.hits += 1;
        let slot = self.slots[idx as usize].as_ref().expect("mapped slot");
        Some((slot.value.clone(), version))
    }

    /// Looks up without promoting or counting (tests/diagnostics).
    pub fn peek(&self, key: &CacheKey) -> Option<&V> {
        let &idx = self.map.get(key)?;
        self.slots[idx as usize].as_ref().map(|s| &s.value)
    }

    /// How long ago a cached view was last minted or confirmed fresh
    /// (drives the refresh-ahead probe of the `dharma-fresh` subsystem).
    pub fn age_of(&self, key: &CacheKey, now_us: u64) -> Option<u64> {
        let &idx = self.map.get(key)?;
        self.slots[idx as usize]
            .as_ref()
            .map(|s| now_us.saturating_sub(s.cached_at_us))
    }

    /// Offers a view for caching. Replaces an existing view of the same key
    /// unless the resident is strictly *newer* (higher origin stamp) — an
    /// equal-or-newer candidate wins and restamps the TTL clock, which is
    /// sound because callers only mint cache entries from freshly-read
    /// authoritative views. Origin stamps compare exactly across holders,
    /// so "newer" here is the true write order, not a per-holder guess.
    /// When full, TinyLFU admission compares the candidate's sketch
    /// frequency against the probation-LRU victim's and keeps the
    /// likelier-to-be-read one. Returns true when the value is resident
    /// afterwards.
    pub fn insert(&mut self, key: CacheKey, version: VersionStamp, value: V, now_us: u64) -> bool {
        if self.cfg.capacity == 0 {
            return false;
        }
        let hash = hash_key(&key);
        self.sketch.touch(hash);

        if let Some(&idx) = self.map.get(&key) {
            let slot = self.slots[idx as usize].as_mut().expect("mapped slot");
            if version >= slot.version {
                slot.value = value;
                // The lifetime anchor moves only when the *stamp*
                // advances: an equal-stamp re-insert refreshes the TTL
                // clock but not the confirmation ceiling, so repeated
                // confirmations of the same write can never re-arm the
                // hard lifetime cap.
                if version > slot.version {
                    slot.inserted_at_us = now_us;
                }
                slot.version = version;
                slot.cached_at_us = now_us;
                self.stats.insertions += 1;
            }
            self.promote(idx);
            return true;
        }

        if self.map.len() >= self.cfg.capacity {
            // Victim: probation LRU when the segment is non-empty, else the
            // protected LRU (degenerate small-capacity case).
            let victim = if self.probation.len > 0 {
                self.probation.tail
            } else {
                self.protected.tail
            };
            let victim_key = self.slots[victim as usize].as_ref().expect("victim").key;
            if self.sketch.estimate(hash) <= self.sketch.estimate(hash_key(&victim_key)) {
                self.stats.rejected += 1;
                return false;
            }
            self.remove_slot(victim);
            self.stats.evictions += 1;
        }

        let idx = match self.free.pop() {
            Some(i) => i,
            None => {
                self.slots.push(None);
                (self.slots.len() - 1) as u32
            }
        };
        self.slots[idx as usize] = Some(Slot {
            key,
            value,
            version,
            cached_at_us: now_us,
            inserted_at_us: now_us,
            prev: NIL,
            next: NIL,
            seg: Seg::Probation,
        });
        self.push_front(Seg::Probation, idx);
        self.map.insert(key, idx);
        self.by_id.entry(key.0).or_default().push(idx);
        self.stats.insertions += 1;
        true
    }

    /// Drops every cached view of block `id` (all `top_n` variants).
    /// Called by the owning node whenever it applies a write to `id`, which
    /// is what makes cached reads consistent with token-append semantics:
    /// a writer can never observe its own cache serving the pre-write view.
    /// Returns how many views were dropped.
    pub fn invalidate_key(&mut self, id: &Id160) -> usize {
        let Some(indices) = self.by_id.remove(id) else {
            return 0;
        };
        let mut dropped = 0;
        for idx in indices {
            // The slot may have been reused since; verify it still maps.
            if let Some(slot) = self.slots[idx as usize].as_ref() {
                if slot.key.0 == *id && self.map.get(&slot.key) == Some(&idx) {
                    self.remove_slot(idx);
                    dropped += 1;
                }
            }
        }
        self.stats.invalidations += dropped as u64;
        dropped
    }

    /// True when some view of block `id` (any `top_n` variant) is cached.
    pub fn holds_any(&self, id: &Id160) -> bool {
        self.by_id.contains_key(id)
    }

    /// Version-gossip revalidation, the *drop* half: removes every cached
    /// view of block `id` whose stamp is strictly below `below` (a digest
    /// claimed a newer write exists, so these views must not be served
    /// again). Returns the `top_n` variants dropped, so the caller can
    /// refresh the ones worth refreshing.
    pub fn invalidate_stale(&mut self, id: &Id160, below: VersionStamp) -> Vec<u32> {
        let mut dropped = Vec::new();
        // Walks the key's views in place: a removal takes its index out of
        // the list, so the walk stays at `at` and meets the next one there.
        let mut at = 0;
        while let Some(&idx) = self.by_id.get(id).and_then(|views| views.get(at)) {
            match self.slots[idx as usize].as_ref() {
                Some(slot)
                    if slot.key.0 == *id
                        && self.map.get(&slot.key) == Some(&idx)
                        && slot.version < below =>
                {
                    dropped.push(slot.key.1);
                    self.remove_slot(idx);
                }
                _ => at += 1,
            }
        }
        self.stats.invalidations += dropped.len() as u64;
        dropped
    }

    /// Version-gossip revalidation, the *keep* half: a digest confirmed
    /// `id` is still at `version`, so restamp the TTL clock of every
    /// cached view holding exactly that stamp — still-valid entries
    /// outlive their TTL without widening the staleness window. The
    /// extension is capped: a view whose *first insertion* is more than
    /// `max_lifetime_us` ago is not restamped (defence in depth — even a
    /// buggy or hostile stamp must not pin a view forever). Returns how
    /// many views were restamped.
    pub fn confirm_fresh(
        &mut self,
        id: &Id160,
        version: VersionStamp,
        now_us: u64,
        max_lifetime_us: u64,
    ) -> usize {
        let Some(indices) = self.by_id.get(id) else {
            return 0;
        };
        let mut confirmed = 0;
        for &idx in indices {
            if let Some(slot) = self.slots[idx as usize].as_mut() {
                if slot.key.0 == *id
                    && slot.version == version
                    && now_us.saturating_sub(slot.inserted_at_us) <= max_lifetime_us
                {
                    slot.cached_at_us = slot.cached_at_us.max(now_us);
                    confirmed += 1;
                }
            }
        }
        confirmed
    }

    /// Drops one cached view.
    pub fn remove(&mut self, key: &CacheKey) -> bool {
        match self.map.get(key) {
            Some(&idx) => {
                self.remove_slot(idx);
                true
            }
            None => false,
        }
    }

    // ----- intrusive-list plumbing ------------------------------------

    fn list(&mut self, seg: Seg) -> &mut List {
        match seg {
            Seg::Probation => &mut self.probation,
            Seg::Protected => &mut self.protected,
        }
    }

    fn push_front(&mut self, seg: Seg, idx: u32) {
        let old_head = self.list(seg).head;
        {
            let slot = self.slots[idx as usize].as_mut().expect("slot");
            slot.seg = seg;
            slot.prev = NIL;
            slot.next = old_head;
        }
        if old_head != NIL {
            self.slots[old_head as usize].as_mut().expect("head").prev = idx;
        }
        let list = self.list(seg);
        list.head = idx;
        if list.tail == NIL {
            list.tail = idx;
        }
        list.len += 1;
    }

    fn detach(&mut self, idx: u32) {
        let (seg, prev, next) = {
            let slot = self.slots[idx as usize].as_ref().expect("slot");
            (slot.seg, slot.prev, slot.next)
        };
        if prev != NIL {
            self.slots[prev as usize].as_mut().expect("prev").next = next;
        }
        if next != NIL {
            self.slots[next as usize].as_mut().expect("next").prev = prev;
        }
        let list = self.list(seg);
        if list.head == idx {
            list.head = next;
        }
        if list.tail == idx {
            list.tail = prev;
        }
        list.len -= 1;
    }

    fn remove_slot(&mut self, idx: u32) {
        self.detach(idx);
        let slot = self.slots[idx as usize].take().expect("slot");
        self.map.remove(&slot.key);
        if let Some(list) = self.by_id.get_mut(&slot.key.0) {
            list.retain(|&i| i != idx);
            if list.is_empty() {
                self.by_id.remove(&slot.key.0);
            }
        }
        self.free.push(idx);
    }

    /// Hit handling: probation → protected (demoting the protected LRU when
    /// over bound), protected → its own MRU position.
    fn promote(&mut self, idx: u32) {
        let seg = self.slots[idx as usize].as_ref().expect("slot").seg;
        self.detach(idx);
        match seg {
            Seg::Probation => {
                if self.protected.len >= self.protected_cap() {
                    let demote = self.protected.tail;
                    if demote != NIL {
                        self.detach(demote);
                        self.push_front(Seg::Probation, demote);
                    }
                }
                self.push_front(Seg::Protected, idx);
            }
            Seg::Protected => self.push_front(Seg::Protected, idx),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dharma_types::sha1;

    fn key(n: u8, top: u32) -> CacheKey {
        (sha1(&[n]), top)
    }

    fn v(seq: u64) -> VersionStamp {
        VersionStamp::new(seq, sha1(b"writer"))
    }

    fn cache(capacity: usize, ttl_us: u64) -> HotCache<String> {
        HotCache::new(CacheConfig { capacity, ttl_us })
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut c = cache(4, 1_000);
        assert!(c.insert(key(1, 0), v(1), "v".into(), 0));
        assert_eq!(c.get(&key(1, 0), 10), Some(("v".into(), v(1))));
        assert_eq!(c.get(&key(1, 5), 10), None, "top_n is part of the key");
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn ttl_expires_views() {
        let mut c = cache(4, 1_000);
        c.insert(key(1, 0), v(1), "v".into(), 0);
        assert!(c.get(&key(1, 0), 1_000).is_some(), "at the TTL edge");
        assert!(c.get(&key(1, 0), 1_001).is_none(), "past the TTL");
        assert_eq!(c.stats().expirations, 1);
        assert!(c.is_empty());
    }

    #[test]
    fn capacity_is_never_exceeded_and_hot_wins() {
        let mut c = cache(2, u64::MAX);
        c.insert(key(1, 0), v(1), "a".into(), 0);
        c.insert(key(2, 0), v(1), "b".into(), 0);
        // key 3 is cold: one touch. The probation victim has equal
        // frequency, so admission rejects the newcomer.
        assert!(!c.insert(key(3, 0), v(1), "c".into(), 0));
        assert_eq!(c.len(), 2);
        // Heat key 3 up: repeated misses accumulate sketch frequency.
        for _ in 0..4 {
            let _ = c.get(&key(3, 0), 0);
        }
        assert!(
            c.insert(key(3, 0), v(1), "c".into(), 0),
            "hot candidate admitted"
        );
        assert_eq!(c.len(), 2, "capacity still respected");
        assert!(c.stats().evictions >= 1);
    }

    #[test]
    fn hits_protect_entries_from_eviction() {
        let mut c = cache(3, u64::MAX);
        c.insert(key(1, 0), v(1), "a".into(), 0);
        c.insert(key(2, 0), v(1), "b".into(), 0);
        c.insert(key(3, 0), v(1), "c".into(), 0);
        // Hit 1 twice: it moves to protected.
        let _ = c.get(&key(1, 0), 0);
        let _ = c.get(&key(1, 0), 0);
        // A hot newcomer displaces from probation, never from protected.
        for _ in 0..6 {
            let _ = c.get(&key(4, 0), 0);
        }
        assert!(c.insert(key(4, 0), v(1), "d".into(), 0));
        assert!(c.peek(&key(1, 0)).is_some(), "protected entry survives");
    }

    #[test]
    fn invalidate_key_drops_all_topn_variants() {
        let mut c = cache(8, u64::MAX);
        c.insert(key(1, 0), v(1), "full".into(), 0);
        c.insert(key(1, 10), v(1), "top10".into(), 0);
        c.insert(key(2, 0), v(1), "other".into(), 0);
        assert_eq!(c.invalidate_key(&sha1(&[1])), 2);
        assert!(c.peek(&key(1, 0)).is_none());
        assert!(c.peek(&key(1, 10)).is_none());
        assert!(c.peek(&key(2, 0)).is_some());
        assert_eq!(c.invalidate_key(&sha1(&[9])), 0);
    }

    #[test]
    fn replacement_keeps_newest_version() {
        let mut c = cache(4, u64::MAX);
        c.insert(key(1, 0), v(5), "v5".into(), 0);
        // An older snapshot must not clobber a newer cached view.
        c.insert(key(1, 0), v(3), "v3".into(), 1);
        assert_eq!(c.get(&key(1, 0), 1), Some(("v5".into(), v(5))));
        c.insert(key(1, 0), v(8), "v8".into(), 2);
        assert_eq!(c.peek(&key(1, 0)).map(String::as_str), Some("v8"));
    }

    #[test]
    fn zero_capacity_disables_cleanly() {
        let mut c = cache(0, 1_000);
        assert!(!c.insert(key(1, 0), v(1), "v".into(), 0));
        assert!(c.get(&key(1, 0), 0).is_none());
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn invalidate_stale_drops_only_older_versions() {
        let mut c = cache(8, u64::MAX);
        c.insert(key(1, 0), v(3), "v3-full".into(), 0);
        c.insert(key(1, 10), v(5), "v5-top10".into(), 0);
        c.insert(key(2, 0), v(1), "other".into(), 0);
        let mut dropped = c.invalidate_stale(&sha1(&[1]), v(5));
        dropped.sort_unstable();
        assert_eq!(dropped, vec![0], "only the version-3 view is stale");
        assert!(c.peek(&key(1, 0)).is_none());
        assert!(c.peek(&key(1, 10)).is_some(), "equal version survives");
        assert!(c.peek(&key(2, 0)).is_some(), "other keys untouched");
        assert!(c.invalidate_stale(&sha1(&[9]), v(99)).is_empty());
    }

    #[test]
    fn confirm_fresh_extends_ttl_up_to_the_lifetime_cap() {
        let mut c = cache(4, 1_000);
        c.insert(key(1, 0), v(7), "v".into(), 0);
        // Confirmation at t=900 restamps the TTL clock: the view survives
        // past its original expiry at t=1000.
        assert_eq!(c.confirm_fresh(&sha1(&[1]), v(7), 900, 10_000), 1);
        assert!(c.get(&key(1, 0), 1_800).is_some(), "outlives the TTL");
        // A mismatched version confirms nothing.
        assert_eq!(c.confirm_fresh(&sha1(&[1]), v(8), 1_900, 10_000), 0);
        // Past the insertion-age cap, confirmations stop extending.
        assert_eq!(c.confirm_fresh(&sha1(&[1]), v(7), 11_000, 10_000), 0);
    }

    #[test]
    fn slab_reuses_freed_slots() {
        let mut c = cache(2, u64::MAX);
        for round in 0..20u8 {
            c.insert(key(round, 0), v(1), format!("v{round}"), u64::from(round));
            c.remove(&key(round, 0));
        }
        assert!(c.slots.len() <= 2, "slab must recycle: {}", c.slots.len());
    }
}
