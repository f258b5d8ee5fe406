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

/// What a write carries — the one shape behind the three write messages
/// and the coordinator's local apply ([`Storage::apply`]).
#[derive(Clone, Debug)]
pub(crate) enum WriteBody {
    /// `STORE`: replace the blob.
    Blob(Vec<u8>),
    /// `APPEND`: add tokens to entries (the client write primitive).
    Entries(Vec<StoredEntry>),
    /// `REPLICATE`: a snapshot merged idempotently (adopt the blob if
    /// absent, each entry takes the max).
    Snapshot {
        blob: Option<Vec<u8>>,
        entries: Vec<StoredEntry>,
    },
}

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

    /// Replaces the blob.
    fn set_blob(&mut self, blob: Box<[u8]>) {
        self.blob = Some(blob);
        self.memo = None;
    }

    /// Merges a replica idempotently: the blob is adopted if absent and
    /// each entry takes `max(local, incoming)` tokens.
    fn merge_max(
        &mut self,
        names: &mut NameInterner,
        blob: Option<&[u8]>,
        entries: &[StoredEntry],
    ) {
        if let (None, Some(b)) = (&self.blob, blob) {
            self.set_blob(b.into());
        }
        for e in entries {
            self.raise_to(names.intern(&e.name), e.weight);
        }
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
        state.set_blob(blob.into_boxed_slice());
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
        entries: &[StoredEntry],
        stamp: VersionStamp,
        now_us: u64,
    ) {
        let state = self.values.entry(key).or_default();
        state.merge_max(&mut self.names, blob, entries);
        // The replica carries the *origin* stamp of the snapshot it came
        // from; taking the max keeps re-replication idempotent (replaying
        // the same snapshot never moves the version) while still letting a
        // repair carry news to a holder that missed the write.
        state.version = state.version.max(stamp);
        state.refreshed_us = state.refreshed_us.max(now_us);
    }

    /// Applies one received write — whichever of [`Self::put_blob`],
    /// [`Self::append`] (once per entry) or [`Self::merge_max`] its body
    /// calls for, then [`Self::touch`] — under a single lookup of `key`,
    /// and reports whether the stored stamp rose. An `APPEND` without
    /// entries (the `t̂` touch of a re-tag) writes nothing: it refreshes a
    /// held record and creates none.
    pub(crate) fn apply(
        &mut self,
        key: Id160,
        body: &WriteBody,
        stamp: VersionStamp,
        now_us: u64,
    ) -> bool {
        if matches!(body, WriteBody::Entries(entries) if entries.is_empty()) {
            self.touch(key, now_us);
            return false;
        }
        let state = self.values.entry(key).or_default();
        let before = state.version;
        match body {
            WriteBody::Blob(blob) => state.set_blob(blob.as_slice().into()),
            WriteBody::Entries(entries) => {
                for e in entries {
                    state.add(self.names.intern(&e.name), e.weight);
                }
            }
            WriteBody::Snapshot { blob, entries } => {
                state.merge_max(&mut self.names, blob.as_deref(), entries)
            }
        }
        state.version = state.version.max(stamp);
        state.refreshed_us = state.refreshed_us.max(now_us);
        state.version > before
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
mod tests;
