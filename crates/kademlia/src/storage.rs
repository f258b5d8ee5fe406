//! Per-node key/value storage with weighted-set semantics.
//!
//! Each key holds an optional blob plus a weighted entry set. The only
//! mutation the set supports is **token append** — `weight += tokens` — so
//! concurrent writers commute (paper §IV-A: "a block's structure is modified
//! only by the addition of one-bit tokens"). Reads support index-side
//! filtering: the heaviest `top_n` entries, bounded further by an encoded
//! payload budget so replies fit one UDP datagram (§V-A).
//!
//! ## Memory layout
//!
//! Node state is the dominant RAM cost of large simulations, and record
//! storage dominates node state, so the representation is compact by
//! construction:
//!
//! * entry names are interned **once per node** in a [`NameInterner`] —
//!   every value stores `(Sym, weight)` pairs (12 bytes each, sorted by
//!   symbol for binary-search lookup) instead of an owned `String` per
//!   entry per key. Tag vocabularies are tiny compared to key counts, so
//!   the shared table amortizes to near-zero per record;
//! * blobs are `Box<[u8]>` — no spare `Vec` capacity is retained;
//! * a value that has been read since its last write also holds its **rank
//!   memo**: the permutation of its entries in reply order (weight
//!   descending, name ascending) as a `Box<[u32]>` — 4 bytes per entry,
//!   never more. Every filtered read is a prefix of that order, so the
//!   `α` holders a GET asks, and every GET until the next write, walk a
//!   prefix instead of selecting and sorting the block again. The memo is
//!   built by the first [`Storage::encode_filtered`] after a write and
//!   dropped by every mutation of the entry set (`append`, a `merge_max`
//!   that raises or adds anything; `put_blob` leaves it) and with the
//!   value itself (`remove`, `expire`). It has no capacity, TTL or knob,
//!   and [`Storage::heap_bytes`] counts it.
//!
//! The compact layout is an internal detail: reads resolve symbols back to
//! names ([`Storage::snapshot`], [`Storage::read_filtered`]) and all
//! observable semantics — ordering, truncation, versioning, expiry — are
//! unchanged from the string-keyed representation.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::ops::Bound;

use bytes::BytesMut;
use dharma_types::{Id160, NameInterner, Sym, VersionStamp, WriteBytes};

use crate::messages::{put_entry, put_opt_blob, StoredEntry};

/// A stored value (compact form; names are interned per [`Storage`]).
#[derive(Clone, Debug, Default)]
pub struct ValueState {
    /// Blob payload (`r̃` URI records), stored without spare capacity.
    blob: Option<Box<[u8]>>,
    /// Weighted entries, `(interned name, token count)`, sorted by symbol.
    entries: Vec<(Sym, u64)>,
    /// Last write (or replication refresh) time, µs. Drives expiry.
    pub refreshed_us: u64,
    /// The highest origin stamp applied to this value. Every write carries
    /// the [`VersionStamp`] minted at its origin, and holders keep the
    /// max, so any two holders of the same key report *comparable*
    /// versions: cached views, digests and stale-drops order exactly, with
    /// no per-holder counter ambiguity.
    pub version: VersionStamp,
    /// Rank memo (module docs): indices into `entries` in reply order.
    /// `None` until the first served read after a write.
    rank: Option<Box<[u32]>>,
}

impl ValueState {
    /// The blob payload, if stored.
    pub fn blob(&self) -> Option<&[u8]> {
        self.blob.as_deref()
    }

    /// Number of weighted entries.
    pub fn entry_count(&self) -> usize {
        self.entries.len()
    }

    fn weight_of(&self, sym: Sym) -> Option<u64> {
        self.entries
            .binary_search_by_key(&sym, |&(s, _)| s)
            .ok()
            .map(|ix| self.entries[ix].1)
    }

    /// Adds `tokens` to `sym`'s weight (inserting at the sort position on
    /// first sight) and returns the new weight.
    fn add(&mut self, sym: Sym, tokens: u64) -> u64 {
        self.rank = None;
        match self.entries.binary_search_by_key(&sym, |&(s, _)| s) {
            Ok(ix) => {
                self.entries[ix].1 += tokens;
                self.entries[ix].1
            }
            Err(ix) => {
                self.entries.insert(ix, (sym, tokens));
                tokens
            }
        }
    }

    /// Raises `sym`'s weight to at least `weight`; true when it changed.
    fn raise_to(&mut self, sym: Sym, weight: u64) -> bool {
        match self.entries.binary_search_by_key(&sym, |&(s, _)| s) {
            Ok(ix) if weight <= self.entries[ix].1 => return false,
            Ok(ix) => self.entries[ix].1 = weight,
            Err(ix) => self.entries.insert(ix, (sym, weight)),
        }
        self.rank = None;
        true
    }

    /// The first `limit` entries in reply order — weight descending, ties
    /// by name ascending — as indices into `entries`. Ranked as compact
    /// `(weight, symbol, index)` triples: a comparison reads nothing else,
    /// and resolves names only to break a weight tie. Names are unique per
    /// key, so the order is total and selecting then sorting a prefix
    /// equals sorting everything.
    fn rank_prefix(&self, names: &NameInterner, limit: usize) -> Vec<u32> {
        let by_rank = |a: &(u64, Sym, u32), b: &(u64, Sym, u32)| {
            (b.0.cmp(&a.0)).then_with(|| names.resolve(a.1).cmp(names.resolve(b.1)))
        };
        let indexed = self.entries.iter().zip(0u32..);
        let mut ranked: Vec<_> = indexed.map(|(&(sym, w), ix)| (w, sym, ix)).collect();
        if limit < ranked.len() {
            if limit > 0 {
                ranked.select_nth_unstable_by(limit - 1, by_rank);
            }
            ranked.truncate(limit);
        }
        ranked.sort_unstable_by(by_rank);
        ranked.into_iter().map(|(_, _, ix)| ix).collect()
    }

    /// The one rank-and-budget walk behind both read emitters: the indices
    /// of the heaviest `top_n` entries (0 = all) whose encodings fit
    /// `byte_budget` (varint-accurate), in reply order, and whether
    /// anything was cut. A prefix of the rank memo when the value has one,
    /// a freshly ranked prefix otherwise.
    fn select(
        &self,
        names: &NameInterner,
        top_n: u32,
        byte_budget: usize,
    ) -> (Cow<'_, [u32]>, bool) {
        let len = self.entries.len();
        let limit = if top_n == 0 {
            len
        } else {
            len.min(top_n as usize)
        };
        let mut order = match &self.rank {
            Some(memo) => Cow::Borrowed(&memo[..limit]),
            None => Cow::Owned(self.rank_prefix(names, limit)),
        };
        let mut used = 0usize;
        let fits = order.iter().take_while(|&&ix| {
            let (sym, weight) = self.entries[ix as usize];
            used += entry_encoded_len(names.resolve(sym), weight);
            used <= byte_budget
        });
        let keep = fits.count();
        match &mut order {
            Cow::Borrowed(memo) => *memo = &memo[..keep],
            Cow::Owned(ranked) => ranked.truncate(keep),
        }
        (order, limit < len || keep < limit)
    }
}

/// Node-local storage.
#[derive(Clone, Debug, Default)]
pub struct Storage {
    values: BTreeMap<Id160, ValueState>,
    /// Shared name table: every entry name across every key, stored once.
    names: NameInterner,
}

/// Result of a filtered read.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FilteredRead {
    /// Entries sorted by weight descending (ties by name ascending).
    pub entries: Vec<StoredEntry>,
    /// Blob, if stored.
    pub blob: Option<Vec<u8>>,
    /// True when entries were cut by `top_n` or the byte budget.
    pub truncated: bool,
    /// The value's origin stamp at read time (cache freshness tag).
    pub version: VersionStamp,
}

impl Storage {
    /// Empty storage.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of keys held.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// True when `key` is present.
    pub fn contains(&self, key: &Id160) -> bool {
        self.values.contains_key(key)
    }

    /// Stores/replaces the blob at `key`, raising the value's origin
    /// stamp to `stamp` (stamps only ever go up — a late replay of an
    /// older write cannot roll the version back).
    pub fn put_blob(&mut self, key: Id160, blob: Vec<u8>, stamp: VersionStamp) {
        let state = self.values.entry(key).or_default();
        state.blob = Some(blob.into_boxed_slice());
        state.version = state.version.max(stamp);
    }

    /// Appends `tokens` to entry `name` at `key` (creating both as
    /// needed), raising the value's origin stamp to `stamp`. Returns the
    /// new weight.
    pub fn append(&mut self, key: Id160, name: &str, tokens: u64, stamp: VersionStamp) -> u64 {
        let sym = self.names.intern(name);
        let state = self.values.entry(key).or_default();
        state.version = state.version.max(stamp);
        state.add(sym, tokens)
    }

    /// The origin stamp of `key` ([`VersionStamp::ZERO`] when absent or
    /// never written).
    pub fn stamp(&self, key: &Id160) -> VersionStamp {
        self.values.get(key).map(|v| v.version).unwrap_or_default()
    }

    /// Marks `key` as refreshed at `now_us` (writes and replication both
    /// count — expiry measures staleness, not age).
    pub fn touch(&mut self, key: Id160, now_us: u64) {
        if let Some(state) = self.values.get_mut(&key) {
            state.refreshed_us = state.refreshed_us.max(now_us);
        }
    }

    /// Replication repair: merges an incoming replica **idempotently** —
    /// the blob is adopted if absent and each entry takes
    /// `max(local, incoming)` tokens. Re-replicating the same snapshot any
    /// number of times is a no-op, unlike `append` (which is the *client*
    /// write primitive and must keep adding).
    pub fn merge_max(
        &mut self,
        key: Id160,
        blob: Option<&[u8]>,
        entries: &[crate::messages::StoredEntry],
        stamp: VersionStamp,
        now_us: u64,
    ) {
        let syms: Vec<Sym> = entries.iter().map(|e| self.names.intern(&e.name)).collect();
        let state = self.values.entry(key).or_default();
        if state.blob.is_none() {
            if let Some(b) = blob {
                state.blob = Some(b.to_vec().into_boxed_slice());
            }
        }
        for (e, sym) in entries.iter().zip(syms) {
            state.raise_to(sym, e.weight);
        }
        // The replica carries the *origin* stamp of the snapshot it came
        // from; taking the max keeps re-replication idempotent (replaying
        // the same snapshot never moves the version) while still letting a
        // repair carry news to a holder that missed the write.
        state.version = state.version.max(stamp);
        state.refreshed_us = state.refreshed_us.max(now_us);
    }

    /// Drops one value outright (replica demotion / manual reclamation).
    /// Returns true when the key was present. Interned names are kept —
    /// the vocabulary table only grows, which is fine: it is shared and
    /// tiny relative to the values it deduplicates.
    pub fn remove(&mut self, key: &Id160) -> bool {
        self.values.remove(key).is_some()
    }

    /// Drops every value not refreshed within `ttl_us` of `now_us`.
    /// Returns the number of expired keys.
    pub fn expire(&mut self, now_us: u64, ttl_us: u64) -> usize {
        let before = self.values.len();
        self.values
            .retain(|_, v| now_us.saturating_sub(v.refreshed_us) <= ttl_us);
        before - self.values.len()
    }

    /// Raw read of a value.
    pub fn get(&self, key: &Id160) -> Option<&ValueState> {
        self.values.get(key)
    }

    /// A `Replicate`-ready snapshot of one held value: the blob, every
    /// entry with its name resolved from the intern table, and the value's
    /// origin stamp (replication forwards the *existing* stamp — repair
    /// never mints). Entry order is symbol order (deterministic; receivers
    /// re-rank by weight anyway).
    pub fn snapshot(
        &self,
        key: &Id160,
    ) -> Option<(Option<Vec<u8>>, Vec<StoredEntry>, VersionStamp)> {
        self.values.get(key).map(|state| {
            let entries: Vec<StoredEntry> = state
                .entries
                .iter()
                .map(|&(sym, weight)| StoredEntry {
                    name: self.names.resolve(sym).to_owned(),
                    weight,
                })
                .collect();
            (
                state.blob.as_deref().map(<[u8]>::to_vec),
                entries,
                state.version,
            )
        })
    }

    /// The weight of one entry (0 when absent).
    pub fn weight(&self, key: &Id160, name: &str) -> u64 {
        let Some(sym) = self.names.lookup(name) else {
            return 0;
        };
        self.values
            .get(key)
            .and_then(|v| v.weight_of(sym))
            .unwrap_or(0)
    }

    /// Filtered read: the heaviest `top_n` entries (0 = unlimited) that fit
    /// within `byte_budget` encoded bytes. This is the paper's index-side
    /// filtering: the storing node ranks by weight so that "only the most
    /// relevant objects are returned" within one UDP payload.
    pub fn read_filtered(
        &self,
        key: &Id160,
        top_n: u32,
        byte_budget: usize,
    ) -> Option<FilteredRead> {
        let state = self.values.get(key)?;
        let (order, truncated) = state.select(&self.names, top_n, byte_budget);
        let entries = order.iter().map(|&ix| {
            let (sym, weight) = state.entries[ix as usize];
            StoredEntry {
                name: self.names.resolve(sym).to_owned(),
                weight,
            }
        });
        Some(FilteredRead {
            entries: entries.collect(),
            blob: state.blob.as_deref().map(<[u8]>::to_vec),
            truncated,
            version: state.version,
        })
    }

    /// The serving form of [`Self::read_filtered`]: writes the same read —
    /// the blob option, then the entry list — onto `buf` in `FoundValue`
    /// wire layout, straight from the interner (no `String`, no owned
    /// entry), and returns `(truncated, version)` for the reply's tail.
    /// Writes nothing when `key` is absent. This is the read that builds
    /// the value's rank memo (module docs), hence `&mut self`.
    pub fn encode_filtered(
        &mut self,
        key: &Id160,
        top_n: u32,
        byte_budget: usize,
        buf: &mut BytesMut,
    ) -> Option<(bool, VersionStamp)> {
        let state = self.values.get_mut(key)?;
        if state.rank.is_none() {
            let all = state.rank_prefix(&self.names, state.entries.len());
            state.rank = Some(all.into_boxed_slice());
        }
        let (order, truncated) = state.select(&self.names, top_n, byte_budget);
        put_opt_blob(buf, state.blob());
        buf.put_varint(order.len() as u64);
        for &ix in order.iter() {
            let (sym, weight) = state.entries[ix as usize];
            put_entry(buf, self.names.resolve(sym), weight);
        }
        Some((truncated, state.version))
    }

    /// Iterates all keys in id order (replication/maintenance).
    pub fn keys(&self) -> impl Iterator<Item = &Id160> {
        self.values.keys()
    }

    /// The keys strictly after `cursor` in id order (all of them for
    /// `None`) — where a budgeted sweep resumes.
    pub fn keys_after(&self, cursor: Option<&Id160>) -> impl Iterator<Item = &Id160> {
        let lower = cursor.map_or(Bound::Unbounded, Bound::Excluded);
        self.values
            .range((lower, Bound::Unbounded))
            .map(|(key, _)| key)
    }

    /// Approximate heap bytes held: values, entry vectors, rank memos,
    /// blobs, and the shared name table. Used by scale runs to report
    /// per-node state size.
    pub fn heap_bytes(&self) -> usize {
        let per_value = std::mem::size_of::<Id160>() + std::mem::size_of::<ValueState>();
        let values: usize = self
            .values
            .values()
            .map(|v| {
                v.entries.len() * std::mem::size_of::<(Sym, u64)>()
                    + v.rank.as_ref().map_or(0, |r| std::mem::size_of_val(&**r))
                    + v.blob.as_ref().map(|b| b.len()).unwrap_or(0)
            })
            .sum();
        self.values.len() * per_value + values + self.names.heap_bytes()
    }
}

/// Encoded size of one entry (length-prefixed name + varint weight).
fn entry_encoded_len(name: &str, weight: u64) -> usize {
    dharma_types::wire::varint_len(name.len() as u64)
        + name.len()
        + dharma_types::wire::varint_len(weight)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::{put_found_value_head, put_found_value_tail, Contact, Message};
    use dharma_types::{sha1, WireEncode};
    use proptest::prelude::*;

    /// Mints test stamps from one writer; seq order = write order.
    fn st(seq: u64) -> VersionStamp {
        VersionStamp::new(seq, sha1(b"writer"))
    }

    #[test]
    fn append_creates_and_accumulates() {
        let mut s = Storage::new();
        let k = sha1(b"k");
        assert_eq!(s.append(k, "rock", 1, st(1)), 1);
        assert_eq!(s.append(k, "rock", 2, st(2)), 3);
        assert_eq!(s.append(k, "pop", 1, st(3)), 1);
        assert_eq!(s.weight(&k, "rock"), 3);
        assert_eq!(s.weight(&k, "jazz"), 0);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn append_commutes() {
        let k = sha1(b"k");
        let mut a = Storage::new();
        a.append(k, "x", 1, st(4));
        a.append(k, "y", 5, st(5));
        a.append(k, "x", 2, st(6));
        let mut b = Storage::new();
        b.append(k, "x", 2, st(7));
        b.append(k, "x", 1, st(8));
        b.append(k, "y", 5, st(9));
        assert_eq!(a.weight(&k, "x"), b.weight(&k, "x"));
        assert_eq!(a.weight(&k, "y"), b.weight(&k, "y"));
    }

    #[test]
    fn filtered_read_ranks_by_weight() {
        let mut s = Storage::new();
        let k = sha1(b"k");
        s.append(k, "a", 5, st(10));
        s.append(k, "b", 9, st(11));
        s.append(k, "c", 5, st(12));
        s.append(k, "d", 1, st(13));
        let r = s.read_filtered(&k, 3, usize::MAX).unwrap();
        let names: Vec<&str> = r.entries.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, vec!["b", "a", "c"]);
        assert!(r.truncated);
        let r = s.read_filtered(&k, 0, usize::MAX).unwrap();
        assert_eq!(r.entries.len(), 4);
        assert!(!r.truncated);
    }

    #[test]
    fn byte_budget_truncates() {
        let mut s = Storage::new();
        let k = sha1(b"k");
        for i in 0..100 {
            s.append(k, &format!("entry-{i:03}"), 100 - i, st(i + 1));
        }
        // Each entry is ~11 bytes; a 50-byte budget keeps only a few.
        let r = s.read_filtered(&k, 0, 50).unwrap();
        assert!(r.truncated);
        assert!(r.entries.len() < 6);
        // The heaviest entries survive.
        assert_eq!(r.entries[0].name, "entry-000");
    }

    #[test]
    fn blob_and_set_coexist() {
        let mut s = Storage::new();
        let k = sha1(b"k");
        s.put_blob(k, b"uri://thing".to_vec(), st(20));
        s.append(k, "rock", 1, st(14));
        let r = s.read_filtered(&k, 0, usize::MAX).unwrap();
        assert_eq!(r.blob.as_deref(), Some(b"uri://thing".as_slice()));
        assert_eq!(r.entries.len(), 1);
    }

    #[test]
    fn merge_max_is_idempotent() {
        let mut s = Storage::new();
        let k = sha1(b"k");
        s.append(k, "rock", 3, st(15));
        let snapshot = vec![
            StoredEntry {
                name: "rock".into(),
                weight: 5,
            },
            StoredEntry {
                name: "pop".into(),
                weight: 2,
            },
        ];
        s.merge_max(k, Some(b"uri"), &snapshot, st(50), 100);
        s.merge_max(k, Some(b"uri"), &snapshot, st(50), 200);
        assert_eq!(s.weight(&k, "rock"), 5, "max, not sum");
        assert_eq!(s.weight(&k, "pop"), 2);
        assert_eq!(s.get(&k).unwrap().blob(), Some(b"uri".as_slice()));
        // Local value above the snapshot survives.
        s.append(k, "rock", 10, st(16));
        s.merge_max(k, None, &snapshot, st(50), 300);
        assert_eq!(s.weight(&k, "rock"), 15);
    }

    #[test]
    fn expiry_drops_stale_values_only() {
        let mut s = Storage::new();
        let old = sha1(b"old");
        let fresh = sha1(b"fresh");
        s.append(old, "x", 1, st(1));
        s.touch(old, 1_000);
        s.append(fresh, "y", 1, st(2));
        s.touch(fresh, 9_000);
        let dropped = s.expire(10_000, 5_000);
        assert_eq!(dropped, 1);
        assert!(!s.contains(&old));
        assert!(s.contains(&fresh));
        // touch never moves time backwards.
        s.touch(fresh, 1);
        assert_eq!(s.get(&fresh).unwrap().refreshed_us, 9_000);
    }

    #[test]
    fn missing_key_reads_none() {
        let s = Storage::new();
        assert!(s.read_filtered(&sha1(b"nope"), 10, 1000).is_none());
        assert!(!s.contains(&sha1(b"nope")));
    }

    #[test]
    fn snapshot_resolves_interned_names() {
        let mut s = Storage::new();
        let k1 = sha1(b"k1");
        let k2 = sha1(b"k2");
        s.append(k1, "rock", 3, st(17));
        s.append(k1, "pop", 1, st(18));
        // Same names on another key: the intern table stores them once.
        s.append(k2, "rock", 7, st(19));
        s.put_blob(k2, b"uri://x".to_vec(), st(21));
        let (blob, entries, _) = s.snapshot(&k1).unwrap();
        assert!(blob.is_none());
        let mut names: Vec<&str> = entries.iter().map(|e| e.name.as_str()).collect();
        names.sort_unstable();
        assert_eq!(names, vec!["pop", "rock"]);
        assert_eq!(entries.iter().find(|e| e.name == "rock").unwrap().weight, 3);
        let (blob, entries, _) = s.snapshot(&k2).unwrap();
        assert_eq!(blob.as_deref(), Some(b"uri://x".as_slice()));
        assert_eq!(entries.len(), 1);
        assert!(s.snapshot(&sha1(b"absent")).is_none());
        assert!(s.heap_bytes() > 0);
    }

    #[test]
    fn heap_bytes_counts_the_rank_memo() {
        let mut s = Storage::new();
        let k = sha1(b"k");
        for i in 0..50u64 {
            s.append(k, &format!("tag-{i:02}"), i % 7, st(i + 1));
        }
        let written = s.heap_bytes();
        // The owned read ranks for itself and leaves nothing behind ...
        s.read_filtered(&k, 10, usize::MAX).unwrap();
        assert_eq!(s.heap_bytes(), written);
        // ... the serving read builds the memo: 4 bytes per entry, once.
        let mut buf = BytesMut::new();
        s.encode_filtered(&k, 10, usize::MAX, &mut buf).unwrap();
        assert_eq!(s.heap_bytes(), written + 50 * 4);
        s.encode_filtered(&k, 0, 64, &mut buf).unwrap();
        s.put_blob(k, Vec::new(), st(60));
        assert_eq!(s.heap_bytes(), written + 50 * 4, "blobs leave it alone");
        // A write drops it (an existing name: the entry vector is as long).
        s.append(k, "tag-07", 1, st(61));
        assert_eq!(s.heap_bytes(), written);
        // A replica that raises nothing is not a write; one that does, is.
        s.encode_filtered(&k, 0, usize::MAX, &mut buf).unwrap();
        let mut entry = StoredEntry {
            name: "tag-07".into(),
            weight: 1,
        };
        s.merge_max(k, None, std::slice::from_ref(&entry), st(62), 0);
        assert_eq!(s.heap_bytes(), written + 50 * 4);
        entry.weight = 99;
        s.merge_max(k, None, std::slice::from_ref(&entry), st(63), 0);
        assert_eq!(s.heap_bytes(), written);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 64 }))]

        /// Two emitters, one read: the datagram `encode_filtered` serves is
        /// byte for byte the `FoundValue` encoded from `read_filtered` —
        /// under heavy weight ties, at the `top_n` edges, with budgets
        /// cutting mid-prefix, with and without a blob — and the owned
        /// read is the same before the memo exists and after.
        #[test]
        fn served_bytes_equal_the_encoded_owned_read(
            appends in proptest::collection::vec(("[a-dé]{1,3}", 1u64..4), 0..60),
            blob in proptest::option::of(proptest::collection::vec(any::<u8>(), 0..20)),
            budget_cut in 0usize..300,
            extra_top_n in 0u32..70,
        ) {
            let key = sha1(b"k");
            let from = Contact { id: sha1(b"holder"), addr: 9 };
            let mut s = Storage::new();
            s.append(key, "seed", 2, st(1));
            for (i, (name, w)) in appends.iter().enumerate() {
                s.append(key, name, *w, st(i as u64 + 2));
            }
            if let Some(b) = blob {
                s.put_blob(key, b, st(1_000));
            }
            let len = s.get(&key).unwrap().entry_count() as u32;
            for top_n in [0, 1, len, len + 1, extra_top_n] {
                for budget in [0, budget_cut, usize::MAX] {
                    // Drop the memo, so the first read of each round ranks
                    // for itself and the last walks the memo.
                    s.append(key, "seed", 1, st(2_000));
                    let unranked = s.read_filtered(&key, top_n, budget).unwrap();
                    let mut served = BytesMut::new();
                    put_found_value_head(&mut served, 7, &from);
                    let (truncated, version) =
                        s.encode_filtered(&key, top_n, budget, &mut served).unwrap();
                    put_found_value_tail(&mut served, truncated, &version, false, &[]);
                    let read = s.read_filtered(&key, top_n, budget).unwrap();
                    prop_assert_eq!(&read, &unranked, "top_n {} budget {}", top_n, budget);
                    let owned = Message::FoundValue {
                        rpc: 7,
                        from: from.clone(),
                        blob: read.blob,
                        entries: read.entries,
                        truncated: read.truncated,
                        version: read.version,
                        from_cache: false,
                        digest: Vec::new(),
                    };
                    prop_assert_eq!(
                        &served[..],
                        &owned.encode_to_bytes()[..],
                        "top_n {} budget {}", top_n, budget
                    );
                }
            }
            let mut untouched = BytesMut::new();
            prop_assert!(s.encode_filtered(&sha1(b"absent"), 0, 99, &mut untouched).is_none());
            prop_assert!(untouched.is_empty());
        }
    }

    #[test]
    fn shared_vocabulary_is_stored_once() {
        // 200 keys × the same 4 tags: entry storage is 200×4 (Sym, u64)
        // pairs, but the name bytes appear exactly 4 times.
        let mut s = Storage::new();
        for i in 0..200u32 {
            let k = sha1(&i.to_be_bytes());
            for tag in ["rock", "pop", "jazz", "metal"] {
                s.append(k, tag, u64::from(i) + 1, st(u64::from(i) + 1));
            }
        }
        assert_eq!(s.len(), 200);
        for i in 0..200u32 {
            let k = sha1(&i.to_be_bytes());
            assert_eq!(s.weight(&k, "jazz"), u64::from(i) + 1);
            assert_eq!(s.get(&k).unwrap().entry_count(), 4);
        }
        // Against a store with 800 *distinct* names, the shared-vocabulary
        // store is strictly smaller: name bytes are paid once, not per key.
        let mut unique = Storage::new();
        for i in 0..200u32 {
            let k = sha1(&i.to_be_bytes());
            for tag in ["rock", "pop", "jazz", "metal"] {
                unique.append(
                    k,
                    &format!("{tag}-{i}"),
                    u64::from(i) + 1,
                    st(u64::from(i) + 1),
                );
            }
        }
        assert!(s.heap_bytes() < unique.heap_bytes());
    }
}
