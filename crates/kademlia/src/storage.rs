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
//! * entry names are interned **once per node** in a [`NameInterner`]:
//!   every value stores 12-byte entries (a `Sym` and a `u64` weight,
//!   packed to 4-byte alignment so the pair does not pad to 16) instead of
//!   an owned `String` per entry per key. Tag vocabularies are tiny
//!   compared to key counts, so the shared table amortizes to near-zero
//!   per record. The table allocates nothing per name: a name is its
//!   bytes in the node's one arena, 4 bytes of end offset and at least 16
//!   bytes of index (two or more 8-byte slots; the index is at most half
//!   full);
//! * a write of more than `SMALL_BATCH` entries (a bulk load, a
//!   `Replicate` merge) reserves room for exactly the names it adds, so a
//!   block filled by large writes holds no spare capacity; a small write
//!   grows the block by doubling, as a token append at a time would;
//! * a value's entries are kept in **reply order** — weight descending, ties
//!   by name ascending — the order every read serves and every `Replicate`
//!   carries. Names are unique per key, so the order is total;
//! * blobs are `Box<[u8]>` — no spare `Vec` capacity is retained;
//! * a value that has been read since its last write also holds its **wire
//!   memo** — the one memo a value has: the encoded reply body (blob
//!   option, then the ranked entry list — the layout `FoundValue`,
//!   `CachePush`, `InvalidatePush` and `Replicate` share) for the
//!   `(top_n, byte_budget)` it was last served at, with that read's
//!   `truncated` flag. Hub blocks are read far more often than they are
//!   written, so the `α` holders a GET asks, and every GET until the next
//!   write, answer with one copy of bytes already encoded. The memo is
//!   built by the first serving read after a write
//!   ([`Storage::encode_filtered`], or the borrowing form the node's
//!   `FIND_VALUE` handler uses) — never by a write — and re-built when a
//!   read asks a different width or budget (callers ask a key at one
//!   width). It is dropped by **every** mutation of what it encodes: an
//!   `append` or a `merge_max` that raises or adds an entry or adopts a
//!   blob, `put_blob`; a `merge_max` that changes nothing keeps it (the
//!   stamp travels beside the body, not in it). Its size is bounded by what it answers:
//!   at most the blob plus the reply budget, per key read since its last
//!   write. It has no capacity, TTL or knob, and [`Storage::heap_bytes`]
//!   counts it.
//!
//! [`Storage::heap_bytes`] counts what is held, not what is used: entry
//! vectors and the name table by capacity, memos and blobs by length (they
//! are boxed slices, with no spare room).
//!
//! ## What a write and a read cost
//!
//! Blocks change only by token appends (paper §IV-A) and merges that take
//! the max, so a write only raises weights, and an entry it touches only
//! moves towards the front. A batch of up to `SMALL_BATCH` entries finds
//! each one by a scan over the entries and rotates it into place, found by
//! binary search over the entries ahead of it; names are resolved only to
//! break a weight tie. A larger batch goes through a transient name index
//! and one stable re-sort, O(n log n) and close to one pass when little
//! moved. No write is quadratic in block size. A read is a prefix: the
//! first `top_n` entries, cut further at the byte budget.
//!
//! Every write is applied from its wire body (`WriteBody`), the bytes
//! its message carries between key and stamp, which the write's
//! coordinator encoded once and a replica's decoder validated on receipt:
//! no `String` is built for any entry. An `Append` body's names are
//! interned straight from the body, each a `&str` borrowed out of it, and
//! its entries go through the batch write. A `Replicate` body's entries
//! arrive in the sender's reply order and are walked in lockstep with the
//! held ones. A block the sender holds identically is confirmed with no
//! name interned and the memo kept; from the first difference on, the
//! rest of the entries go through the batch write.
//!
//! The compact layout is an internal detail: reads resolve symbols back to
//! names ([`Storage::snapshot`], [`Storage::read_filtered`]) and all
//! observable semantics — ordering, truncation, versioning — are
//! unchanged from the string-keyed representation.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::num::NonZeroU32;
use std::ops::Bound;

use bytes::{Bytes, BytesMut};
use dharma_types::wire::{get_bytes_ref, get_seq_len, get_str_ref, utf8};
use dharma_types::{
    FxHashMap, Id160, NameInterner, ReadBytes, Result, Sym, VersionStamp, WireDecode, WriteBytes,
};

use crate::messages::{entry_len, get_opt_blob, put_entry, put_opt_blob, StoredEntry};

/// What a write carries: the bytes a `Store`, `Append` or `Replicate`
/// holds between its key and its stamp — encoded once where the write
/// starts, sent as they are to every replica, and applied from them by
/// every holder ([`Storage::apply`]).
#[derive(Clone, Debug)]
pub(crate) enum WriteBody {
    /// `STORE`: a length-prefixed blob, which replaces the held one.
    Blob(Bytes),
    /// `APPEND`: an entry list whose tokens are added (the client write
    /// primitive).
    Entries(Bytes),
    /// `REPLICATE`: a held value's full-width wire body — the blob option,
    /// then every entry in reply order ([`Storage::encode_snapshot`]) —
    /// merged idempotently (adopt the blob if absent, each entry takes the
    /// max).
    Snapshot(Bytes),
}

/// Batches of more entries than this are applied by one re-sort instead
/// of one rotation each.
const SMALL_BATCH: usize = 16;

/// How a write folds an incoming weight into the held one.
type Combine = fn(u64, u64) -> u64;

/// One weighted entry: an interned name and its token count, in 12 bytes.
/// `packed(4)` drops the 4 bytes of padding a `(Sym, u64)` pair carries;
/// the weight is only ever read by value ([`Self::weight`]), never
/// borrowed.
#[derive(Clone, Copy, Debug)]
#[repr(C, packed(4))]
pub(crate) struct Entry(Sym, u64);

const _: () = assert!(std::mem::size_of::<Entry>() == 12);

impl Entry {
    fn sym(self) -> Sym {
        self.0
    }

    fn weight(self) -> u64 {
        self.1
    }
}

/// Reply order: weight descending, ties by name ascending.
fn rank(names: &NameInterner, a: Entry, b: Entry) -> Ordering {
    (b.weight().cmp(&a.weight())).then_with(|| names.resolve(a.sym()).cmp(names.resolve(b.sym())))
}

/// A stored value (compact form; names are interned per [`Storage`]).
#[derive(Clone, Debug, Default)]
pub struct ValueState {
    /// Blob payload (`r̃` URI records), stored without spare capacity.
    blob: Option<Box<[u8]>>,
    /// Weighted entries in reply order.
    entries: Vec<Entry>,
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

    /// Replaces the blob.
    fn set_blob(&mut self, blob: Box<[u8]>) {
        self.blob = Some(blob);
        self.memo = None;
    }

    /// Adopts `blob` if none is held.
    fn adopt(&mut self, blob: Option<&[u8]>) {
        if let (None, Some(b)) = (&self.blob, blob) {
            self.set_blob(b.into());
        }
    }

    /// Folds `weight` into `sym`'s entry (created at 0 on first sight) and
    /// moves the entry up to its rank. Returns its weight, and whether
    /// anything changed.
    fn bump(&mut self, names: &NameInterner, sym: Sym, weight: u64, fold: Combine) -> (u64, bool) {
        let held = self.entries.iter().position(|e| e.sym() == sym);
        let at = held.unwrap_or_else(|| {
            self.entries.push(Entry(sym, 0));
            self.entries.len() - 1
        });
        let entry = Entry(sym, fold(self.entries[at].weight(), weight));
        if held.is_some() && entry.weight() == self.entries[at].weight() {
            return (entry.weight(), false);
        }
        let to = self.entries[..at].partition_point(|&e| rank(names, e, entry).is_lt());
        self.entries[to..=at].rotate_right(1);
        self.entries[to] = entry;
        self.memo = None;
        (entry.weight(), true)
    }

    /// Folds every entry of `batch` in as [`Self::bump`] does; true when
    /// anything changed. A large batch first finds the names it adds and
    /// reserves exactly their room.
    fn write(&mut self, names: &NameInterner, batch: &[Entry], fold: Combine) -> bool {
        if batch.len() <= SMALL_BATCH {
            let mut bump = |e: &Entry| self.bump(names, e.sym(), e.weight(), fold).1;
            return batch.iter().fold(false, |changed, e| bump(e) | changed);
        }
        let mut at: FxHashMap<Sym, usize> = (self.entries.iter().enumerate())
            .map(|(ix, e)| (e.sym(), ix))
            .collect();
        for e in batch {
            let next = at.len();
            at.entry(e.sym()).or_insert(next);
        }
        self.entries.reserve_exact(at.len() - self.entries.len());
        let mut changed = false;
        for &Entry(sym, weight) in batch {
            let ix = at[&sym];
            if ix == self.entries.len() {
                self.entries.push(Entry(sym, 0));
                changed = true;
            }
            let held = self.entries[ix].weight();
            let now = fold(held, weight);
            self.entries[ix] = Entry(sym, now);
            changed |= now != held;
        }
        if changed {
            self.entries.sort_by(|&a, &b| rank(names, a, b));
            self.memo = None;
        }
        changed
    }

    /// [`Storage::append`] of each entry of an `APPEND` body, as one
    /// batch: every name is interned from the body's bytes, borrowed, and
    /// checked as `get_str` checks it, then the weight as `get_varint` does.
    fn add_body(&mut self, names: &mut NameInterner, mut list: &[u8]) -> Result<()> {
        let n = get_seq_len(&mut list, StoredEntry::MIN_WIRE_LEN)?;
        let mut batch = Vec::with_capacity(n);
        for _ in 0..n {
            let sym = names.intern(get_str_ref(&mut list)?);
            batch.push(Entry(sym, list.get_varint()?));
        }
        self.write(names, &batch, |held, tokens| held + tokens);
        Ok(())
    }

    /// [`Storage::merge_max`] of a snapshot's wire body, walked in
    /// lockstep with the held entries (module docs). A name equal, byte for
    /// byte, to the held one at its position is that entry's name, and so
    /// valid UTF-8 already; only a name that must be interned is checked.
    /// The checks run in the owning decoder's order (name, then weight),
    /// so a body fails here exactly as it fails `get_str` and
    /// `get_varint`.
    fn merge_body(&mut self, names: &mut NameInterner, mut body: &[u8]) -> Result<()> {
        self.adopt(get_opt_blob(&mut body)?);
        let mut rest = Vec::new();
        for i in 0..get_seq_len(&mut body, StoredEntry::MIN_WIRE_LEN)? {
            let raw = get_bytes_ref(&mut body)?;
            let same = |e: &&Entry| names.resolve(e.sym()).as_bytes() == raw;
            match self.entries.get(i).filter(|e| rest.is_empty() && same(e)) {
                Some(&Entry(sym, held)) => {
                    let weight = body.get_varint()?;
                    if weight != held {
                        rest.push(Entry(sym, weight));
                    }
                }
                None => {
                    let name = utf8(raw)?;
                    let weight = body.get_varint()?;
                    rest.push(Entry(names.intern(name), weight));
                }
            }
        }
        self.write(names, &rest, u64::max);
        Ok(())
    }

    /// The read both emitters serve: the first `top_n` entries (0 = all)
    /// whose encodings fit `budget` bytes (varint-accurate) — a prefix of
    /// the held order — and whether anything was cut.
    fn ranked(&self, names: &NameInterner, top_n: u32, budget: usize) -> (&[Entry], bool) {
        let limit = NonZeroU32::new(top_n).map_or(usize::MAX, |n| n.get() as usize);
        let mut used = 0usize;
        let fits = self
            .entries
            .iter()
            .take(limit)
            .take_while(|&&Entry(sym, weight)| {
                used += entry_len(names.resolve(sym), weight);
                used <= budget
            });
        let keep = fits.count();
        (&self.entries[..keep], keep < self.entries.len())
    }

    /// Encodes the filtered read — the blob option, then the entry list —
    /// and returns it with its `truncated` flag.
    fn encode(&self, names: &NameInterner, top_n: u32, byte_budget: usize) -> (BytesMut, bool) {
        let (entries, truncated) = self.ranked(names, top_n, byte_budget);
        let mut body = BytesMut::new();
        put_opt_blob(&mut body, self.blob());
        body.put_varint(entries.len() as u64);
        for &Entry(sym, weight) in entries {
            put_entry(&mut body, names.resolve(sym), weight);
        }
        (body, truncated)
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
        state
            .bump(&self.names, sym, tokens, |held, tokens| held + tokens)
            .0
    }

    /// The origin stamp of `key` ([`VersionStamp::ZERO`] when absent or
    /// never written).
    pub fn stamp(&self, key: &Id160) -> VersionStamp {
        self.values.get(key).map(|v| v.version).unwrap_or_default()
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
    ) {
        let state = self.values.entry(key).or_default();
        state.adopt(blob);
        let batch: Vec<Entry> = (entries.iter())
            .map(|e| Entry(self.names.intern(&e.name), e.weight))
            .collect();
        state.write(&self.names, &batch, u64::max);
        // The replica carries the *origin* stamp of the snapshot it came
        // from; taking the max keeps re-replication idempotent (replaying
        // the same snapshot never moves the version) while still letting a
        // repair carry news to a holder that missed the write.
        state.version = state.version.max(stamp);
    }

    /// Applies one write from its body — whichever of [`Self::put_blob`],
    /// [`Self::append`] (once per entry) or [`Self::merge_max`] it calls
    /// for — under a single lookup of `key`, and reports whether the
    /// stored stamp rose. An `APPEND` body's names are interned from the
    /// body itself, borrowed. An `APPEND` without entries (the `t̂` touch
    /// of a re-tag) writes nothing and creates no record. The body was
    /// encoded by this node or validated on receipt
    /// (`Message::decode_datagram`).
    pub(crate) fn apply(&mut self, key: Id160, body: &WriteBody, stamp: VersionStamp) -> bool {
        const VALID: &str = "a write body is encoded here or validated on receipt";
        if matches!(body, WriteBody::Entries(list) if (&list[..]).get_varint().ok() == Some(0)) {
            return false;
        }
        let state = self.values.entry(key).or_default();
        let before = state.version;
        let names = &mut self.names;
        match body {
            WriteBody::Blob(blob) => {
                state.set_blob(get_bytes_ref(&mut &blob[..]).expect(VALID).into())
            }
            WriteBody::Entries(list) => state.add_body(names, list).expect(VALID),
            WriteBody::Snapshot(body) => state.merge_body(names, body).expect(VALID),
        }
        state.version = state.version.max(stamp);
        state.version > before
    }

    /// Raw read of a value.
    pub fn get(&self, key: &Id160) -> Option<&ValueState> {
        self.values.get(key)
    }

    /// One held value, owned: the blob, every entry with its name resolved
    /// from the intern table, in reply order (the unfiltered
    /// [`Self::read_filtered`]), and the value's origin stamp. An
    /// inspection API for tests and drivers: the node never builds it, and
    /// a `Replicate` carries the wire body `encode_snapshot` writes.
    pub fn snapshot(
        &self,
        key: &Id160,
    ) -> Option<(Option<Vec<u8>>, Vec<StoredEntry>, VersionStamp)> {
        let read = self.read_filtered(key, 0, usize::MAX)?;
        Some((read.blob, read.entries, read.version))
    }

    /// What a `Replicate` of `key` carries: the held value's full-width
    /// wire body — the blob option, then every entry in reply order — and
    /// its origin stamp (repair forwards the *existing* stamp, never
    /// mints). Encoded per call, once per push round; the wire memo is
    /// left as it is.
    pub(crate) fn encode_snapshot(&self, key: &Id160) -> Option<(Bytes, VersionStamp)> {
        let state = self.values.get(key)?;
        let (body, _) = state.encode(&self.names, 0, usize::MAX);
        Some((body.freeze(), state.version))
    }

    /// The weight of one entry (0 when absent).
    pub fn weight(&self, key: &Id160, name: &str) -> u64 {
        let Some(sym) = self.names.lookup(name) else {
            return 0;
        };
        let held = self
            .values
            .get(key)
            .and_then(|v| v.entries.iter().find(|e| e.sym() == sym));
        held.map_or(0, |e| e.weight())
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
        let (entries, truncated) = state.ranked(&self.names, top_n, byte_budget);
        let entries = entries.iter().map(|&Entry(sym, weight)| StoredEntry {
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
    /// memo (module docs), copied; the node's `FIND_VALUE` handler borrows
    /// it instead (`serve`).
    pub fn encode_filtered(
        &mut self,
        key: &Id160,
        top_n: u32,
        byte_budget: usize,
        buf: &mut BytesMut,
    ) -> Option<(bool, VersionStamp)> {
        let (body, truncated, version) = self.serve(key, top_n, byte_budget)?;
        buf.extend_from_slice(body);
        Some((truncated, version))
    }

    /// [`Self::encode_filtered`] without the copy: the value's wire memo
    /// itself (module docs), with `truncated` and `version`. Encoded by the
    /// first call after a write, or at a new width or budget, and borrowed
    /// from then on — hence `&mut self`.
    pub(crate) fn serve(
        &mut self,
        key: &Id160,
        top_n: u32,
        byte_budget: usize,
    ) -> Option<(&[u8], bool, VersionStamp)> {
        let state = self.values.get_mut(key)?;
        let asked = |m: &WireMemo| (m.top_n, m.byte_budget) == (top_n, byte_budget);
        let memo = (state.memo.take().filter(asked)).unwrap_or_else(|| {
            let (body, truncated) = state.encode(&self.names, top_n, byte_budget);
            let body = body[..].into();
            WireMemo {
                top_n,
                byte_budget,
                truncated,
                body,
            }
        });
        let memo = state.memo.insert(memo);
        Some((&memo.body, memo.truncated, state.version))
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

    /// Approximate heap bytes held: values, entry vectors (by capacity),
    /// wire memos, blobs, and the shared name table (by the capacity of its
    /// vectors). Used by scale runs to report per-node state size.
    pub fn heap_bytes(&self) -> usize {
        let per_value = std::mem::size_of::<Id160>() + std::mem::size_of::<ValueState>();
        let values: usize = self
            .values
            .values()
            .map(|v| {
                v.entries.capacity() * std::mem::size_of::<Entry>()
                    + v.memo.as_ref().map_or(0, |m| m.body.len())
                    + v.blob.as_ref().map(|b| b.len()).unwrap_or(0)
            })
            .sum();
        self.values.len() * per_value + values + self.names.heap_bytes()
    }
}

#[cfg(test)]
mod tests;
