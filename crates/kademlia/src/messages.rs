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
//! A receiver decides what a carried value is for before it decodes it
//! (the `decode` submodule's docs).
//!
//! Every decoder reads the datagram where it lies: the shared primitives
//! take a `&mut &[u8]` cursor over the received bytes
//! ([`dharma_types::wire`]), and skipping a field is moving that cursor.
//!
//! Flag bytes are 0 or 1; any other value is a decode error, not `false`,
//! so a message has one encoding of each flag and `encode(decode(x)) == x`
//! for all of them.

use bytes::BytesMut;

use dharma_types::wire::{get_bytes_ref, varint_len};
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

    fn encoded_len(&self) -> usize {
        ID160_BYTES + varint_len(u64::from(self.addr))
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

/// Exactly what [`put_entry`] writes, in bytes.
pub(crate) fn entry_len(name: &str, weight: u64) -> usize {
    varint_len(name.len() as u64) + name.len() + varint_len(weight)
}

impl WireEncode for StoredEntry {
    fn encode(&self, buf: &mut BytesMut) {
        put_entry(buf, &self.name, self.weight);
    }

    fn encoded_len(&self) -> usize {
        entry_len(&self.name, self.weight)
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
        /// Entry snapshot, in the sender's reply order.
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
    pub(crate) const T_STORE: u8 = 7;
    pub(crate) const T_APPEND: u8 = 8;
    const T_ACK: u8 = 9;
    pub(crate) const T_REPLICATE: u8 = 10;
    const T_CACHE_PUSH: u8 = 11;
    const T_LEAVE: u8 = 12;
    pub(crate) const T_INVALIDATE_PUSH: u8 = 13;
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
    1 + varint_len(rpc) + from.encoded_len()
}

/// Writes an optional blob: a flag byte, then the bytes when present.
pub(crate) fn put_opt_blob(buf: &mut BytesMut, blob: Option<&[u8]>) {
    use bytes::BufMut;
    buf.put_u8(u8::from(blob.is_some()));
    if let Some(b) = blob {
        buf.put_bytes_field(b);
    }
}

/// Exactly what [`put_opt_blob`] writes, in bytes.
fn opt_blob_len(blob: Option<&[u8]>) -> usize {
    1 + blob.map_or(0, |b| varint_len(b.len() as u64) + b.len())
}

/// Reads an optional blob as a slice of the input.
pub(crate) fn get_opt_blob<'a>(buf: &mut &'a [u8]) -> Result<Option<&'a [u8]>> {
    let present = buf.get_flag()?;
    present.then(|| get_bytes_ref(buf)).transpose()
}

/// Opens a pushed view (`CachePush`, `InvalidatePush`): header, key,
/// width. The value — the blob option and the entry list — comes next, and
/// [`put_push_tail`] closes it.
pub(crate) fn put_push_head(
    buf: &mut BytesMut,
    ty: u8,
    rpc: u64,
    from: &Contact,
    key: &Id160,
    top_n: u32,
) {
    put_head(buf, ty, rpc, from);
    buf.put_id(key);
    buf.put_varint(u64::from(top_n));
}

/// Closes a pushed view: truncation flag, stamp.
pub(crate) fn put_push_tail(buf: &mut BytesMut, truncated: bool, stamp: &VersionStamp) {
    use bytes::BufMut;
    buf.put_u8(u8::from(truncated));
    stamp.encode(buf);
}

/// Closes a `FoundValue` datagram: it opens with [`put_head`], the value —
/// the blob option and the entry list — comes next, and this writes the
/// rest.
fn put_found_value_tail(
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

/// Exactly what opening a pushed view writes, in bytes.
pub(crate) fn push_head_len(rpc: u64, from: &Contact, top_n: u32) -> usize {
    head_len(rpc, from) + ID160_BYTES + varint_len(u64::from(top_n))
}

impl WireDecode for Message {
    fn decode(buf: &mut &[u8]) -> Result<Self> {
        Ok(Self::decode_with(buf, |_, _, _| ValueUse::Owned)?.0)
    }
}

impl Message {
    fn decode_with<'a>(
        buf: &mut &'a [u8],
        value_use: impl FnOnce(u8, u64, Option<&Id160>) -> ValueUse,
    ) -> Result<(Self, Option<&'a [u8]>)> {
        let Some((&ty, rest)) = buf.split_first() else {
            return Err(DharmaError::Decode("empty message".into()));
        };
        *buf = rest;
        let rpc = buf.get_varint()?;
        let from = Contact::decode(buf)?;
        let mut body = None;
        let msg = match ty {
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
                let (blob, entries) = value_part(buf, ty, value_use(ty, rpc, None), &mut body)?;
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
            Message::T_STORE | Message::T_APPEND | Message::T_REPLICATE => {
                let key = buf.get_id()?;
                let (blob, entries) =
                    value_part(buf, ty, value_use(ty, rpc, Some(&key)), &mut body)?;
                let stamp = VersionStamp::decode(buf)?;
                match ty {
                    Message::T_STORE => Message::Store {
                        rpc,
                        from,
                        key,
                        blob: blob.unwrap_or_default(),
                        stamp,
                    },
                    Message::T_APPEND => Message::Append {
                        rpc,
                        from,
                        key,
                        entries,
                        stamp,
                    },
                    _ => Message::Replicate {
                        rpc,
                        from,
                        key,
                        blob,
                        entries,
                        stamp,
                    },
                }
            }
            Message::T_CACHE_PUSH => {
                let (key, top_n) = (buf.get_id()?, buf.get_varint()? as u32);
                let (blob, entries) =
                    value_part(buf, ty, value_use(ty, rpc, Some(&key)), &mut body)?;
                Message::CachePush {
                    rpc,
                    from,
                    key,
                    top_n,
                    blob,
                    entries,
                    truncated: buf.get_flag()?,
                    version: VersionStamp::decode(buf)?,
                }
            }
            Message::T_INVALIDATE_PUSH => {
                let (key, top_n) = (buf.get_id()?, buf.get_varint()? as u32);
                let (blob, entries) =
                    value_part(buf, ty, value_use(ty, rpc, Some(&key)), &mut body)?;
                Message::InvalidatePush {
                    rpc,
                    from,
                    key,
                    top_n,
                    blob,
                    entries,
                    truncated: buf.get_flag()?,
                    stamp: VersionStamp::decode(buf)?,
                }
            }
            Message::T_ACK => Message::Ack { rpc, from },
            Message::T_LEAVE => Message::Leave { rpc, from },
            other => return Err(DharmaError::Decode(format!("unknown message type {other}"))),
        };
        Ok((msg, body))
    }
}

mod decode;
mod encode;

use decode::value_part;
pub(crate) use decode::ValueUse;
pub use decode::ValueView;

#[cfg(test)]
mod tests;
