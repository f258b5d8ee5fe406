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
//! * a value that has been read since its last write also holds its **wire
//!   memo** — the one memo a value has: the encoded reply body (blob
//!   option, then the ranked entry list — the layout `FoundValue`,
//!   `CachePush` and `InvalidatePush` share) for the `(top_n, byte_budget)`
//!   it was last served at, with that read's `truncated` flag. Blocks
//!   change only by token appends and hub blocks are read far more often
//!   than they are written, so the `α` holders a GET asks, and every GET
//!   until the next write, answer with one copy of bytes already ranked
//!   and encoded instead of walking entries and the name table again.
//!   The memo is built by the first [`Storage::encode_filtered`] after a
//!   write — never by a write — and re-built when a read asks a different
//!   width or budget (callers ask a key at one width). It is dropped by
//!   **every** mutation of what it encodes: `append`, a `merge_max` that
//!   raises or adds an entry or adopts a blob, `put_blob`; a `merge_max`
//!   that changes nothing keeps it (the stamp travels beside the body, not
//!   in it), and it goes with the value itself (`remove`, `expire`). Its
//!   size is bounded by what it answers: at most the blob plus the reply
//!   budget, per key read since its last write. It has no capacity, TTL
//!   or knob, and [`Storage::heap_bytes`] counts it.
//!
//! The compact layout is an internal detail: reads resolve symbols back to
//! names ([`Storage::snapshot`], [`Storage::read_filtered`]) and all
//! observable semantics — ordering, truncation, versioning, expiry — are
//! unchanged from the string-keyed representation.

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
    /// Wire memo (module docs). `None` until the first served read after
    /// a write.
    memo: Option<WireMemo>,
}

/// A value's encoded reply body and the read it answers.
#[derive(Clone, Debug)]
struct WireMemo {
    top_n: u32,
    byte_budget: usize,
    truncated: bool,
    /// Blob option + entry list, in `FoundValue` wire layout.
    body: Box<[u8]>,
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
        self.memo = None;
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
        self.memo = None;
        true
    }

    /// The one rank-and-budget walk behind both read emitters: the heaviest
    /// `top_n` entries (0 = all) whose encodings fit `byte_budget`
    /// (varint-accurate), in reply order — weight descending, ties by name
    /// ascending — and whether anything was cut. Ranked as the compact
    /// pairs they are stored as: a comparison resolves names only to break
    /// a weight tie. Names are unique per key, so the order is total and
    /// selecting then sorting a prefix equals sorting everything.
    fn select(
        &self,
        names: &NameInterner,
        top_n: u32,
        byte_budget: usize,
    ) -> (Vec<(Sym, u64)>, bool) {
        let by_rank = |a: &(Sym, u64), b: &(Sym, u64)| {
            (b.1.cmp(&a.1)).then_with(|| names.resolve(a.0).cmp(names.resolve(b.0)))
        };
        let len = self.entries.len();
        let limit = if top_n == 0 {
            len
        } else {
            len.min(top_n as usize)
        };
        let mut ranked = self.entries.clone();
        if limit < len {
            if limit > 0 {
                ranked.select_nth_unstable_by(limit - 1, by_rank);
            }
            ranked.truncate(limit);
        }
        ranked.sort_unstable_by(by_rank);
        let mut used = 0usize;
        let fits = ranked.iter().take_while(|&&(sym, weight)| {
            used += entry_encoded_len(names.resolve(sym), weight);
            used <= byte_budget
        });
        let keep = fits.count();
        ranked.truncate(keep);
        (ranked, limit < len || keep < limit)
    }

    /// Encodes the filtered read into a fresh memo.
    fn encode(&self, names: &NameInterner, top_n: u32, byte_budget: usize) -> WireMemo {
        let (entries, truncated) = self.select(names, top_n, byte_budget);
        let mut body = BytesMut::new();
        put_opt_blob(&mut body, self.blob());
        body.put_varint(entries.len() as u64);
        for (sym, weight) in entries {
            put_entry(&mut body, names.resolve(sym), weight);
        }
        WireMemo {
            top_n,
            byte_budget,
            truncated,
            body: body[..].into(),
        }
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
        state.memo = None;
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
                state.memo = None;
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
        let (entries, truncated) = state.select(&self.names, top_n, byte_budget);
        let entries = entries.into_iter().map(|(sym, weight)| StoredEntry {
            name: self.names.resolve(sym).to_owned(),
            weight,
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
    /// wire layout and returns `(truncated, version)` for the reply's tail.
    /// Writes nothing when `key` is absent. The bytes are the value's wire
    /// memo (module docs): encoded by the first call after a write, or at
    /// a new width or budget, and one copy from then on — hence
    /// `&mut self`.
    pub fn encode_filtered(
        &mut self,
        key: &Id160,
        top_n: u32,
        byte_budget: usize,
        buf: &mut BytesMut,
    ) -> Option<(bool, VersionStamp)> {
        let state = self.values.get_mut(key)?;
        let asked = |m: &WireMemo| (m.top_n, m.byte_budget) == (top_n, byte_budget);
        let memo = (state.memo.take().filter(asked))
            .unwrap_or_else(|| state.encode(&self.names, top_n, byte_budget));
        let memo = state.memo.insert(memo);
        buf.extend_from_slice(&memo.body);
        Some((memo.truncated, state.version))
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

    /// Approximate heap bytes held: values, entry vectors, wire memos,
    /// blobs, and the shared name table. Used by scale runs to report
    /// per-node state size.
    pub fn heap_bytes(&self) -> usize {
        let per_value = std::mem::size_of::<Id160>() + std::mem::size_of::<ValueState>();
        let values: usize = self
            .values
            .values()
            .map(|v| {
                v.entries.len() * std::mem::size_of::<(Sym, u64)>()
                    + v.memo.as_ref().map_or(0, |m| m.body.len())
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
    fn heap_bytes_counts_the_wire_memo() {
        let mut s = Storage::new();
        let k = sha1(b"k");
        for i in 0..50u64 {
            s.append(k, &format!("tag-{i:02}"), i % 7, st(i + 1));
        }
        let written = s.heap_bytes();
        // The owned read ranks for itself and leaves nothing behind ...
        s.read_filtered(&k, 10, usize::MAX).unwrap();
        assert_eq!(s.heap_bytes(), written);
        // ... the serving read leaves the bytes it served, once.
        let mut wide = BytesMut::new();
        s.encode_filtered(&k, 10, usize::MAX, &mut wide).unwrap();
        assert_eq!(s.heap_bytes(), written + wide.len());
        let mut again = BytesMut::new();
        s.encode_filtered(&k, 10, usize::MAX, &mut again).unwrap();
        assert_eq!(
            (again, s.heap_bytes()),
            (wide.clone(), written + wide.len())
        );
        // One memo: another width or budget replaces it.
        let mut narrow = BytesMut::new();
        s.encode_filtered(&k, 0, 64, &mut narrow).unwrap();
        assert!(narrow.len() < wide.len());
        assert_eq!(s.heap_bytes(), written + narrow.len());
        // The body carries the blob, so storing one drops the memo ...
        s.put_blob(k, b"uri".to_vec(), st(60));
        let written = written + 3;
        assert_eq!(s.heap_bytes(), written);
        // ... as does a write (to an existing name: the entry vector is as
        // long as it was).
        let mut served = BytesMut::new();
        s.encode_filtered(&k, 0, usize::MAX, &mut served).unwrap();
        s.append(k, "tag-07", 1, st(61));
        assert_eq!(s.heap_bytes(), written);
        // A replica that raises nothing and offers a blob already held is
        // not a write; one that raises a weight is.
        served.clear();
        s.encode_filtered(&k, 0, usize::MAX, &mut served).unwrap();
        let mut entry = StoredEntry {
            name: "tag-07".into(),
            weight: 1,
        };
        s.merge_max(k, Some(b"other"), std::slice::from_ref(&entry), st(62), 0);
        assert_eq!(s.heap_bytes(), written + served.len());
        entry.weight = 99;
        s.merge_max(k, None, std::slice::from_ref(&entry), st(63), 0);
        assert_eq!(s.heap_bytes(), written);
        // So is one whose blob is adopted.
        let bare = sha1(b"no blob yet");
        s.append(bare, "x", 1, st(64));
        let written = s.heap_bytes();
        s.encode_filtered(&bare, 0, usize::MAX, &mut served)
            .unwrap();
        assert!(s.heap_bytes() > written);
        s.merge_max(bare, Some(b"uri"), &[], st(65), 0);
        assert_eq!(s.heap_bytes(), written + 3);
    }

    /// What `s` would weigh had nothing been served since the last write.
    fn unread_heap_bytes(s: &Storage) -> usize {
        let mut unread = s.clone();
        unread.values.values_mut().for_each(|v| v.memo = None);
        unread.heap_bytes()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 64 }))]

        /// The memo is the reference read: at every point of a random
        /// interleaving of `append`, `merge_max` that raises, `merge_max`
        /// that raises nothing, `put_blob`, blob adoption through
        /// `merge_max`, and `remove` + re-create — with serving reads in
        /// between that alternate between two `(top_n, budget)` pairs,
        /// each asked twice running so that both the encoding and the
        /// memoised path answer — the datagram `encode_filtered` serves is
        /// byte for byte the `FoundValue` encoded from a fresh
        /// `read_filtered`, under heavy weight ties and budgets that cut
        /// mid-prefix, and the value holds exactly the served body on top
        /// of its unread size.
        #[test]
        fn served_bytes_equal_the_encoded_owned_read(
            steps in proptest::collection::vec((0u8..8, "[a-dé]{1,3}", 1u64..4), 1..60),
            widths in proptest::collection::vec((0u32..70, 0usize..400), 2..3),
        ) {
            let key = sha1(b"k");
            let from = Contact { id: sha1(b"holder"), addr: 9 };
            let mut s = Storage::new();
            for (i, (kind, name, w)) in steps.into_iter().enumerate() {
                let stamp = st(i as u64 + 1);
                let held = s.snapshot(&key).map(|(_, entries, _)| entries);
                match kind {
                    0 | 1 => {
                        s.append(key, &name, w, stamp);
                    }
                    2 => {
                        let raised = [
                            StoredEntry { name: name.clone(), weight: w * 5 },
                            StoredEntry { name: format!("{name}r"), weight: w },
                        ];
                        s.merge_max(key, None, &raised, stamp, 0);
                    }
                    3 => s.merge_max(key, None, &held.unwrap_or_default(), stamp, 0),
                    4 => s.put_blob(key, name.into_bytes(), stamp),
                    5 => s.merge_max(key, Some(name.as_bytes()), &[], stamp, 0),
                    6 => {
                        s.remove(&key);
                        s.append(key, &name, w, stamp);
                    }
                    _ => {}
                }
                // Budgets past 300 stand for "no budget".
                let (top_n, cut) = widths[(i / 2) % 2];
                let budget = if cut < 300 { cut } else { usize::MAX };
                let mut served = BytesMut::new();
                put_found_value_head(&mut served, 7, &from);
                let head = served.len();
                let got = s.encode_filtered(&key, top_n, budget, &mut served);
                let Some(read) = s.read_filtered(&key, top_n, budget) else {
                    prop_assert!(got.is_none() && served.len() == head, "step {}", i);
                    continue;
                };
                let body = served.len() - head;
                let (truncated, version) = got.unwrap();
                put_found_value_tail(&mut served, truncated, &version, false, &[]);
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
                    "step {} kind {} top_n {} budget {}", i, kind, top_n, budget
                );
                prop_assert_eq!(s.heap_bytes(), unread_heap_bytes(&s) + body, "step {}", i);
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
