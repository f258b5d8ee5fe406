//! Kademlia RPC wire messages.
//!
//! Every message is one UDP datagram encoded with the explicit codec of
//! [`dharma_types::wire`] — a type byte, a request id, then fields. Replies
//! echo the request id so the client can match them to pending RPCs and
//! cancel the corresponding timeout.
//!
//! Values come in two shapes (the two DHARMA needs):
//!
//! * **blobs** — opaque bytes (`r̃` URI records);
//! * **weighted sets** — named entries with token counts (`r̄`, `t̄`, `t̂`
//!   blocks). `Append` adds tokens to one entry; a filtered `FindValue`
//!   returns only the heaviest `top_n` entries that fit the MTU.
//!
//! ## Decide before you decode
//!
//! A GET asks `α` holders and completes on the first `FoundValue`; the
//! others arrive anyway, as do replies to lookups long finished. Their
//! blob and entry list — one `String` per entry — would be built and
//! dropped. [`Message::decode_datagram`] therefore reads type, request id
//! and sender, asks its caller whether this reply's value will be used,
//! and if not **validates and skips** it: the blob flag, the blob's length
//! prefix, the entry count against the bytes left, every name's length
//! prefix and UTF-8, every weight varint — the checks of the owning
//! decoder, in its order, through the same `ReadBytes` primitives, keeping
//! nothing. The rest of the reply (flags, stamp, digest) is decoded as
//! ever, so the receiver still notes the sender, settles the RPC, samples
//! the RTT and absorbs the digest.
//!
//! Both decoders read the datagram where it lies: the shared primitives
//! take a `&mut &[u8]` cursor over the received bytes
//! ([`dharma_types::wire`]), and skipping a field is moving that cursor.
//!
//! The rule cannot change which datagrams are accepted: a byte string
//! fails the skipping decoder exactly when it fails the owning one,
//! because every check that can fail is shared and only allocation is
//! left out. The tests hold the two to that on the whole mutation corpus
//! and every truncation prefix.
//!
//! Flag bytes are 0 or 1; any other value is a decode error, not `false`,
//! so a message has one encoding of each flag and `encode(decode(x)) == x`
//! for all of them.

use bytes::{Bytes, BytesMut};

use dharma_types::wire::{expect_consumed, get_seq_len, varint_len};
use dharma_types::{
    DharmaError, Id160, ReadBytes, Result, VersionStamp, WireDecode, WireEncode, WriteBytes,
    ID160_BYTES,
};

/// A node's contact record: overlay id + transport address.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Contact {
    /// Overlay identifier.
    pub id: Id160,
    /// Transport address (simulator index or UDP address-book slot).
    pub addr: u32,
}

impl WireEncode for Contact {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_id(&self.id);
        buf.put_varint(u64::from(self.addr));
    }
}

impl WireDecode for Contact {
    const MIN_WIRE_LEN: usize = ID160_BYTES + 1;

    fn decode(buf: &mut &[u8]) -> Result<Self> {
        let id = buf.get_id()?;
        let addr = buf.get_varint()? as u32;
        Ok(Contact { id, addr })
    }
}

/// One entry of a weighted-set value.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StoredEntry {
    /// Entry name (a tag or resource name in DHARMA blocks).
    pub name: String,
    /// Token count (the arc/edge weight).
    pub weight: u64,
}

/// Writes one weighted entry — the layout shared by an owned
/// [`StoredEntry`] and an entry served straight out of storage.
pub(crate) fn put_entry(buf: &mut BytesMut, name: &str, weight: u64) {
    buf.put_str(name);
    buf.put_varint(weight);
}

impl WireEncode for StoredEntry {
    fn encode(&self, buf: &mut BytesMut) {
        put_entry(buf, &self.name, self.weight);
    }
}

impl WireDecode for StoredEntry {
    /// An empty name's length byte plus a one-byte weight.
    const MIN_WIRE_LEN: usize = 2;

    fn decode(buf: &mut &[u8]) -> Result<Self> {
        let name = buf.get_str()?;
        let weight = buf.get_varint()?;
        Ok(StoredEntry { name, weight })
    }
}

/// One entry of a piggybacked version-gossip digest: a key the responder
/// holds authoritatively, and its current origin stamp. Receivers compare
/// digest entries against their cached views — a newer stamp triggers
/// cheap revalidation (drop-or-refresh), an equal one confirms freshness
/// and lets the view's TTL be restamped (the `dharma-fresh` subsystem).
/// Because stamps are minted at the write's origin, entries from
/// *different* holders compare exactly.
///
/// Wire format: the 20 raw key bytes, then the stamp (varint seq + 20
/// writer bytes) — 41..=50 bytes per entry, so a full default digest
/// (8 entries) adds at most ~400 bytes to a reply, well inside every
/// reply budget the overlay uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DigestEntry {
    /// The block key.
    pub key: Id160,
    /// The block's origin stamp as held by the responder.
    pub version: VersionStamp,
}

impl WireEncode for DigestEntry {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_id(&self.key);
        self.version.encode(buf);
    }

    fn encoded_len(&self) -> usize {
        ID160_BYTES + self.version.encoded_len()
    }
}

impl WireDecode for DigestEntry {
    const MIN_WIRE_LEN: usize = ID160_BYTES + VersionStamp::MIN_WIRE_LEN;

    fn decode(buf: &mut &[u8]) -> Result<Self> {
        let key = buf.get_id()?;
        let version = VersionStamp::decode(buf)?;
        Ok(DigestEntry { key, version })
    }
}

/// A fetched value: blob and/or weighted entries.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct FetchedValue {
    /// Blob payload, if the key stores one.
    pub blob: Option<Vec<u8>>,
    /// Weighted entries (possibly filtered to the top-n by the server).
    pub entries: Vec<StoredEntry>,
    /// True if the server truncated the entry list (filtering or MTU).
    pub truncated: bool,
    /// The value's origin stamp at read time.
    pub version: VersionStamp,
    /// True when the reply came from a hot-block cache rather than
    /// authoritative storage (possibly stale within the cache TTL).
    pub from_cache: bool,
}

/// The RPC messages.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Message {
    /// Liveness probe.
    Ping {
        /// Request id.
        rpc: u64,
        /// Sender contact (routing-table maintenance).
        from: Contact,
    },
    /// Reply to [`Message::Ping`].
    Pong {
        /// Echoed request id.
        rpc: u64,
        /// Responder contact.
        from: Contact,
        /// Version-gossip digest: recent local writes the responder holds
        /// (empty when the `dharma-fresh` subsystem is off).
        digest: Vec<DigestEntry>,
    },
    /// Ask for the `k` closest contacts to `target`.
    FindNode {
        /// Request id.
        rpc: u64,
        /// Sender contact.
        from: Contact,
        /// Lookup target.
        target: Id160,
    },
    /// Reply to [`Message::FindNode`].
    FoundNodes {
        /// Echoed request id.
        rpc: u64,
        /// Responder contact.
        from: Contact,
        /// Closest contacts known to the responder.
        contacts: Vec<Contact>,
        /// Version-gossip digest: recent writes, hottest held keys, and
        /// held keys near the lookup target (empty when `dharma-fresh`
        /// is off).
        digest: Vec<DigestEntry>,
    },
    /// Ask for the value at `key` (or closest contacts), optionally with
    /// index-side filtering to the heaviest `top_n` entries.
    FindValue {
        /// Request id.
        rpc: u64,
        /// Sender contact.
        from: Contact,
        /// Storage key.
        key: Id160,
        /// Index-side filtering limit (0 = unfiltered).
        top_n: u32,
        /// Authoritative-only service: a responder that is not a holder
        /// must answer `FoundNodes` rather than a hot-cache view. Set by
        /// requesters whose read-your-writes guard is armed for `key`.
        no_cache: bool,
    },
    /// Value-bearing reply to [`Message::FindValue`].
    FoundValue {
        /// Echoed request id.
        rpc: u64,
        /// Responder contact.
        from: Contact,
        /// Blob part, if any.
        blob: Option<Vec<u8>>,
        /// Weighted entries (filtered server-side).
        entries: Vec<StoredEntry>,
        /// Whether the entry list was truncated.
        truncated: bool,
        /// The value's origin stamp (cache freshness tag; exact across
        /// holders).
        version: VersionStamp,
        /// True when served from the responder's hot-block cache.
        from_cache: bool,
        /// Version-gossip digest (empty when `dharma-fresh` is off, and
        /// always empty on cache-served replies — only authoritative
        /// holders gossip versions).
        digest: Vec<DigestEntry>,
    },
    /// Store a blob at `key` (replaces any previous blob).
    Store {
        /// Request id.
        rpc: u64,
        /// Sender contact.
        from: Contact,
        /// Storage key.
        key: Id160,
        /// Blob payload.
        blob: Vec<u8>,
        /// The origin stamp minted for this write.
        stamp: VersionStamp,
    },
    /// Append one-bit tokens to entries of the weighted set at `key`
    /// (creating entries at 0). A block update is **one** overlay operation
    /// regardless of how many entries it touches — that is what makes
    /// Table I's `2 + 2m` / `4 + k` lookup counts achievable. Appends
    /// commute — the concurrency-safe primitive behind Approximation B.
    Append {
        /// Request id.
        rpc: u64,
        /// Sender contact.
        from: Contact,
        /// Storage key.
        key: Id160,
        /// Entries to add tokens to: `(name, tokens)` pairs.
        entries: Vec<StoredEntry>,
        /// The origin stamp minted for this write.
        stamp: VersionStamp,
    },
    /// Replication repair: a full value snapshot pushed during republish.
    /// Applied with **merge-max** semantics (idempotent), unlike `Append`.
    Replicate {
        /// Request id.
        rpc: u64,
        /// Sender contact.
        from: Contact,
        /// Storage key.
        key: Id160,
        /// Blob snapshot, if the value has one.
        blob: Option<Vec<u8>>,
        /// Entry snapshot.
        entries: Vec<StoredEntry>,
        /// The snapshot's *existing* origin stamp (replication repairs
        /// holders that missed a write; it never mints a new version).
        stamp: VersionStamp,
    },
    /// Store-on-path caching push (the classic Kademlia caching rule):
    /// after a successful value lookup the requester offers the filtered
    /// view to the closest node on its path that *missed*, so the next
    /// lookup for the same hot key stops one hop earlier. Fire-and-forget;
    /// the receiver caches it only if it is not an authoritative holder.
    CachePush {
        /// Request id (no reply is expected; kept for tracing).
        rpc: u64,
        /// Sender contact.
        from: Contact,
        /// Storage key.
        key: Id160,
        /// The filtering limit the view was read at (part of the cache key).
        top_n: u32,
        /// Blob part, if any.
        blob: Option<Vec<u8>>,
        /// Weighted entries (filtered by the origin).
        entries: Vec<StoredEntry>,
        /// Whether the entry list was truncated.
        truncated: bool,
        /// The view's origin stamp.
        version: VersionStamp,
    },
    /// Write-triggered invalidation push (`dharma-fresh`): a holder that
    /// just applied a write sends the key's recent fetchers the *post-write
    /// view* directly — stamp plus the entries re-filtered to the width the
    /// fetcher originally asked with — so their cached slot is refreshed in
    /// this one RTT with zero follow-up RPCs (a stamp-only invalidation
    /// would cost every fetcher a drop-then-revalidate round trip). The
    /// receiver notes the freshness book, installs the view in its cache
    /// (unless it is itself authoritative or has a write in flight) and
    /// answers [`Message::Ack`] — except when `rpc == 0`, which marks a
    /// fire-and-forget push (senders ack-track only a liveness sample of
    /// their fan-out; a lost push degrades to gossip-cadence staleness).
    InvalidatePush {
        /// Request id; `0` means no ack is expected.
        rpc: u64,
        /// Sender contact (the holder that applied the write).
        from: Contact,
        /// The written key.
        key: Id160,
        /// The fetcher's filter width, echoed from its tracked `FindValue`
        /// (the receiver's cache slot is keyed by it).
        top_n: u32,
        /// Blob part of the post-write view, if any.
        blob: Option<Vec<u8>>,
        /// Weighted entries of the post-write view (holder-filtered).
        entries: Vec<StoredEntry>,
        /// Whether the entry list was truncated.
        truncated: bool,
        /// The key's origin stamp after the write.
        stamp: VersionStamp,
    },
    /// Acknowledgement for [`Message::Store`] / [`Message::Append`] /
    /// [`Message::Replicate`] / [`Message::InvalidatePush`].
    Ack {
        /// Echoed request id.
        rpc: u64,
        /// Responder contact.
        from: Contact,
    },
    /// Graceful-departure notice: the sender is leaving the overlay *now*.
    /// Receivers purge it from their routing table immediately (no probe
    /// round needed), tombstone the id briefly so in-flight stragglers
    /// cannot re-insert it, and feed their churn estimator. Fire-and-forget
    /// — the departing node does not wait for replies.
    Leave {
        /// Request id (no reply is expected; kept for tracing).
        rpc: u64,
        /// The departing node's contact record.
        from: Contact,
    },
}

impl Message {
    /// The request id (echoed by replies).
    pub fn rpc_id(&self) -> u64 {
        match self {
            Message::Ping { rpc, .. }
            | Message::Pong { rpc, .. }
            | Message::FindNode { rpc, .. }
            | Message::FoundNodes { rpc, .. }
            | Message::FindValue { rpc, .. }
            | Message::FoundValue { rpc, .. }
            | Message::Store { rpc, .. }
            | Message::Append { rpc, .. }
            | Message::Replicate { rpc, .. }
            | Message::CachePush { rpc, .. }
            | Message::InvalidatePush { rpc, .. }
            | Message::Ack { rpc, .. }
            | Message::Leave { rpc, .. } => *rpc,
        }
    }

    /// The sender's contact record.
    pub fn sender(&self) -> &Contact {
        match self {
            Message::Ping { from, .. }
            | Message::Pong { from, .. }
            | Message::FindNode { from, .. }
            | Message::FoundNodes { from, .. }
            | Message::FindValue { from, .. }
            | Message::FoundValue { from, .. }
            | Message::Store { from, .. }
            | Message::Append { from, .. }
            | Message::Replicate { from, .. }
            | Message::CachePush { from, .. }
            | Message::InvalidatePush { from, .. }
            | Message::Ack { from, .. }
            | Message::Leave { from, .. } => from,
        }
    }

    const T_PING: u8 = 1;
    const T_PONG: u8 = 2;
    const T_FIND_NODE: u8 = 3;
    const T_FOUND_NODES: u8 = 4;
    const T_FIND_VALUE: u8 = 5;
    const T_FOUND_VALUE: u8 = 6;
    const T_STORE: u8 = 7;
    const T_APPEND: u8 = 8;
    const T_ACK: u8 = 9;
    const T_REPLICATE: u8 = 10;
    const T_CACHE_PUSH: u8 = 11;
    const T_LEAVE: u8 = 12;
    const T_INVALIDATE_PUSH: u8 = 13;
}

/// Writes the frame every message starts with: type, request id, sender.
fn put_head(buf: &mut BytesMut, ty: u8, rpc: u64, from: &Contact) {
    use bytes::BufMut;
    buf.put_u8(ty);
    buf.put_varint(rpc);
    from.encode(buf);
}

/// Exactly what [`put_head`] writes, in bytes.
fn head_len(rpc: u64, from: &Contact) -> usize {
    1 + varint_len(rpc) + ID160_BYTES + varint_len(u64::from(from.addr))
}

/// Writes an optional blob: a flag byte, then the bytes when present.
pub(crate) fn put_opt_blob(buf: &mut BytesMut, blob: Option<&[u8]>) {
    use bytes::BufMut;
    buf.put_u8(u8::from(blob.is_some()));
    if let Some(b) = blob {
        buf.put_bytes_field(b);
    }
}

pub(crate) fn get_opt_blob(buf: &mut &[u8]) -> Result<Option<Vec<u8>>> {
    Ok(if buf.get_flag()? {
        Some(buf.get_bytes_field()?)
    } else {
        None
    })
}

/// Opens a pushed view (`CachePush`, `InvalidatePush`): header, key, width.
fn put_push_head(buf: &mut BytesMut, ty: u8, rpc: u64, from: &Contact, key: &Id160, top_n: u32) {
    put_head(buf, ty, rpc, from);
    buf.put_id(key);
    buf.put_varint(u64::from(top_n));
}

/// Opens an `InvalidatePush` datagram. As with [`put_found_value_head`],
/// the caller writes the value next and closes with [`put_push_tail`].
pub(crate) fn put_invalidate_push_head(
    buf: &mut BytesMut,
    rpc: u64,
    from: &Contact,
    key: &Id160,
    top_n: u32,
) {
    put_push_head(buf, Message::T_INVALIDATE_PUSH, rpc, from, key, top_n);
}

/// Closes a pushed view: truncation flag, stamp.
pub(crate) fn put_push_tail(buf: &mut BytesMut, truncated: bool, stamp: &VersionStamp) {
    use bytes::BufMut;
    buf.put_u8(u8::from(truncated));
    stamp.encode(buf);
}

/// Writes the view a push carries: blob, entries, truncation flag, stamp.
fn put_view(
    buf: &mut BytesMut,
    blob: Option<&[u8]>,
    entries: &[StoredEntry],
    truncated: bool,
    stamp: &VersionStamp,
) {
    put_opt_blob(buf, blob);
    entries.encode(buf);
    put_push_tail(buf, truncated, stamp);
}

/// Opens a `FoundValue` datagram. The caller writes the value next — the
/// blob option and the entry list, from an owned message or straight out
/// of [`crate::Storage::encode_filtered`] — and closes with
/// [`put_found_value_tail`]; the layout lives in this pair alone.
pub(crate) fn put_found_value_head(buf: &mut BytesMut, rpc: u64, from: &Contact) {
    put_head(buf, Message::T_FOUND_VALUE, rpc, from);
}

/// Closes a `FoundValue` datagram opened by [`put_found_value_head`].
pub(crate) fn put_found_value_tail(
    buf: &mut BytesMut,
    truncated: bool,
    version: &VersionStamp,
    from_cache: bool,
    digest: &[DigestEntry],
) {
    use bytes::BufMut;
    buf.put_u8(u8::from(truncated));
    version.encode(buf);
    buf.put_u8(u8::from(from_cache));
    digest.encode(buf);
}

/// Exactly what [`put_found_value_head`] and [`put_found_value_tail`]
/// write around a value, in bytes: with the value's length, the capacity
/// of a reply buffer that never grows.
pub(crate) fn found_value_frame_len(
    rpc: u64,
    from: &Contact,
    version: &VersionStamp,
    digest: &[DigestEntry],
) -> usize {
    head_len(rpc, from) + 2 + version.encoded_len() + digest_len(digest)
}

/// Exactly what encoding `digest` writes, in bytes.
fn digest_len(digest: &[DigestEntry]) -> usize {
    let entries: usize = digest.iter().map(DigestEntry::encoded_len).sum();
    varint_len(digest.len() as u64) + entries
}

/// Writes a `FoundNodes` datagram: header, contacts, digest.
fn put_found_nodes(
    buf: &mut BytesMut,
    rpc: u64,
    from: &Contact,
    contacts: &[Contact],
    digest: &[DigestEntry],
) {
    put_head(buf, Message::T_FOUND_NODES, rpc, from);
    contacts.encode(buf);
    digest.encode(buf);
}

/// Exactly what [`put_invalidate_push_head`] writes, in bytes.
pub(crate) fn invalidate_push_head_len(rpc: u64, from: &Contact, top_n: u32) -> usize {
    head_len(rpc, from) + ID160_BYTES + varint_len(u64::from(top_n))
}

impl WireEncode for Message {
    fn encode(&self, buf: &mut BytesMut) {
        use bytes::BufMut;
        match self {
            Message::Ping { rpc, from } => put_head(buf, Self::T_PING, *rpc, from),
            Message::Pong { rpc, from, digest } => {
                put_head(buf, Self::T_PONG, *rpc, from);
                digest.encode(buf);
            }
            Message::FindNode { rpc, from, target } => {
                put_head(buf, Self::T_FIND_NODE, *rpc, from);
                buf.put_id(target);
            }
            Message::FoundNodes {
                rpc,
                from,
                contacts,
                digest,
            } => put_found_nodes(buf, *rpc, from, contacts, digest),
            Message::FindValue {
                rpc,
                from,
                key,
                top_n,
                no_cache,
            } => {
                put_head(buf, Self::T_FIND_VALUE, *rpc, from);
                buf.put_id(key);
                buf.put_varint(u64::from(*top_n));
                buf.put_u8(u8::from(*no_cache));
            }
            Message::FoundValue {
                rpc,
                from,
                blob,
                entries,
                truncated,
                version,
                from_cache,
                digest,
            } => {
                put_found_value_head(buf, *rpc, from);
                put_opt_blob(buf, blob.as_deref());
                entries.encode(buf);
                put_found_value_tail(buf, *truncated, version, *from_cache, digest);
            }
            Message::Store {
                rpc,
                from,
                key,
                blob,
                stamp,
            } => {
                put_head(buf, Self::T_STORE, *rpc, from);
                buf.put_id(key);
                buf.put_bytes_field(blob);
                stamp.encode(buf);
            }
            Message::Append {
                rpc,
                from,
                key,
                entries,
                stamp,
            } => {
                put_head(buf, Self::T_APPEND, *rpc, from);
                buf.put_id(key);
                entries.encode(buf);
                stamp.encode(buf);
            }
            Message::Replicate {
                rpc,
                from,
                key,
                blob,
                entries,
                stamp,
            } => {
                put_head(buf, Self::T_REPLICATE, *rpc, from);
                buf.put_id(key);
                put_opt_blob(buf, blob.as_deref());
                entries.encode(buf);
                stamp.encode(buf);
            }
            Message::CachePush {
                rpc,
                from,
                key,
                top_n,
                blob,
                entries,
                truncated,
                version,
            } => {
                put_push_head(buf, Self::T_CACHE_PUSH, *rpc, from, key, *top_n);
                put_view(buf, blob.as_deref(), entries, *truncated, version);
            }
            Message::InvalidatePush {
                rpc,
                from,
                key,
                top_n,
                blob,
                entries,
                truncated,
                stamp,
            } => {
                put_push_head(buf, Self::T_INVALIDATE_PUSH, *rpc, from, key, *top_n);
                put_view(buf, blob.as_deref(), entries, *truncated, stamp);
            }
            Message::Ack { rpc, from } => put_head(buf, Self::T_ACK, *rpc, from),
            Message::Leave { rpc, from } => put_head(buf, Self::T_LEAVE, *rpc, from),
        }
    }
}

impl WireDecode for Message {
    fn decode(buf: &mut &[u8]) -> Result<Self> {
        Self::decode_with(buf, |_| true)
    }
}

impl Message {
    /// Decodes one received datagram in place — through a cursor over
    /// `payload`'s bytes, the one [`WireDecode::decode_exact`] reads with —
    /// requiring it to be consumed to its end. `wants_value(rpc)` is
    /// asked, once type, request id and sender are read, whether a
    /// `FoundValue`'s blob and entries will be used; when not, they are
    /// validated and skipped (module docs) and arrive as `None` / empty.
    pub fn decode_datagram(payload: Bytes, wants_value: impl FnOnce(u64) -> bool) -> Result<Self> {
        let mut buf: &[u8] = &payload;
        let msg = Self::decode_with(&mut buf, wants_value)?;
        expect_consumed(buf)?;
        Ok(msg)
    }

    /// Encodes a `FoundNodes` reply from borrowed parts into a buffer of
    /// exactly its size — the reply every lookup hop sends, so it neither
    /// builds a [`Message`] nor grows its buffer.
    pub(crate) fn encode_found_nodes(
        rpc: u64,
        from: &Contact,
        contacts: &[Contact],
        digest: &[DigestEntry],
    ) -> Bytes {
        let addrs: usize = contacts.iter().map(|c| varint_len(u64::from(c.addr))).sum();
        let len = head_len(rpc, from)
            + varint_len(contacts.len() as u64)
            + contacts.len() * ID160_BYTES
            + addrs
            + digest_len(digest);
        let mut buf = BytesMut::with_capacity(len);
        put_found_nodes(&mut buf, rpc, from, contacts, digest);
        debug_assert_eq!(buf.len(), len, "the reply buffer never grows");
        buf.freeze()
    }

    /// Encodes a `CachePush` of `view` without taking the view apart.
    pub(crate) fn encode_cache_push(
        rpc: u64,
        from: &Contact,
        key: &Id160,
        top_n: u32,
        view: &FetchedValue,
    ) -> Bytes {
        let mut buf = BytesMut::new();
        put_push_head(&mut buf, Self::T_CACHE_PUSH, rpc, from, key, top_n);
        let (blob, entries) = (view.blob.as_deref(), &view.entries);
        put_view(&mut buf, blob, entries, view.truncated, &view.version);
        buf.freeze()
    }

    fn decode_with(buf: &mut &[u8], wants_value: impl FnOnce(u64) -> bool) -> Result<Self> {
        let Some((&ty, rest)) = buf.split_first() else {
            return Err(DharmaError::Decode("empty message".into()));
        };
        *buf = rest;
        let rpc = buf.get_varint()?;
        let from = Contact::decode(buf)?;
        Ok(match ty {
            Message::T_PING => Message::Ping { rpc, from },
            Message::T_PONG => Message::Pong {
                rpc,
                from,
                digest: Vec::<DigestEntry>::decode(buf)?,
            },
            Message::T_FIND_NODE => Message::FindNode {
                rpc,
                from,
                target: buf.get_id()?,
            },
            Message::T_FOUND_NODES => Message::FoundNodes {
                rpc,
                from,
                contacts: Vec::<Contact>::decode(buf)?,
                digest: Vec::<DigestEntry>::decode(buf)?,
            },
            Message::T_FIND_VALUE => Message::FindValue {
                rpc,
                from,
                key: buf.get_id()?,
                top_n: buf.get_varint()? as u32,
                no_cache: buf.get_flag()?,
            },
            Message::T_FOUND_VALUE => {
                let (blob, entries) = if wants_value(rpc) {
                    (get_opt_blob(buf)?, Vec::<StoredEntry>::decode(buf)?)
                } else {
                    // Same checks, same order, nothing kept.
                    if buf.get_flag()? {
                        buf.skip_bytes_field()?;
                    }
                    for _ in 0..get_seq_len(buf, StoredEntry::MIN_WIRE_LEN)? {
                        buf.skip_str()?;
                        buf.get_varint()?;
                    }
                    (None, Vec::new())
                };
                Message::FoundValue {
                    rpc,
                    from,
                    blob,
                    entries,
                    truncated: buf.get_flag()?,
                    version: VersionStamp::decode(buf)?,
                    from_cache: buf.get_flag()?,
                    digest: Vec::<DigestEntry>::decode(buf)?,
                }
            }
            Message::T_STORE => Message::Store {
                rpc,
                from,
                key: buf.get_id()?,
                blob: buf.get_bytes_field()?,
                stamp: VersionStamp::decode(buf)?,
            },
            Message::T_APPEND => Message::Append {
                rpc,
                from,
                key: buf.get_id()?,
                entries: Vec::<StoredEntry>::decode(buf)?,
                stamp: VersionStamp::decode(buf)?,
            },
            Message::T_REPLICATE => Message::Replicate {
                rpc,
                from,
                key: buf.get_id()?,
                blob: get_opt_blob(buf)?,
                entries: Vec::<StoredEntry>::decode(buf)?,
                stamp: VersionStamp::decode(buf)?,
            },
            Message::T_CACHE_PUSH => Message::CachePush {
                rpc,
                from,
                key: buf.get_id()?,
                top_n: buf.get_varint()? as u32,
                blob: get_opt_blob(buf)?,
                entries: Vec::<StoredEntry>::decode(buf)?,
                truncated: buf.get_flag()?,
                version: VersionStamp::decode(buf)?,
            },
            Message::T_INVALIDATE_PUSH => Message::InvalidatePush {
                rpc,
                from,
                key: buf.get_id()?,
                top_n: buf.get_varint()? as u32,
                blob: get_opt_blob(buf)?,
                entries: Vec::<StoredEntry>::decode(buf)?,
                truncated: buf.get_flag()?,
                stamp: VersionStamp::decode(buf)?,
            },
            Message::T_ACK => Message::Ack { rpc, from },
            Message::T_LEAVE => Message::Leave { rpc, from },
            other => return Err(DharmaError::Decode(format!("unknown message type {other}"))),
        })
    }
}

#[cfg(test)]
mod tests;
