//! Kademlia RPC wire messages.
//!
//! Every message is one UDP datagram encoded with the explicit codec of
//! [`dharma_types::wire`] — a type byte, a request id, the sender, then
//! fields. Replies echo the request id so the client can match them to
//! pending RPCs and cancel the corresponding timeout.
//!
//! Each message's layout is declared once, in the `messages!` table below:
//! its type byte, its [`Message`] variant, and its fields in wire order,
//! each with its type — which names its wire form (a `u64` or `u32` is a
//! varint, a `bool` a flag byte, an id its 20 raw bytes, a `Vec` a counted
//! sequence) — and its doc. The enum, [`Message::rpc_id`] and
//! [`Message::sender`], the encoder and its arithmetic length, and the one
//! decoder are generated from the rows, so no layout is written out twice.
//!
//! Values come in two shapes (the two DHARMA needs):
//!
//! * **blobs** — opaque bytes (`r̃` URI records);
//! * **weighted sets** — named entries with token counts (`r̄`, `t̄`, `t̂`
//!   blocks). `Append` adds tokens to one entry; a filtered `FindValue`
//!   returns only the heaviest `top_n` entries that fit the MTU.
//!
//! The fields that carry a value — the blob option and the entry list — are
//! one group in the table (`value { … }`). A receiver decides what the
//! group is for before it decodes it (the `decode` submodule's docs), and a
//! sender can write the group as a body it encoded once (a holder's wire
//! memo, a cache's pinned view, a write's body) between the message's
//! other fields (`Message::encode_around`).
//!
//! Every decoder reads the datagram where it lies: the shared primitives
//! take a `&mut &[u8]` cursor over the received bytes
//! ([`dharma_types::wire`]), and skipping a field is moving that cursor.
//!
//! Flag bytes are 0 or 1, and a `u32` field is a varint that fits 32 bits;
//! anything else is a decode error, not `false` or the low bits, so a
//! message has one encoding and `encode(decode(x)) == x` for all of them.

use bytes::{BufMut, Bytes, BytesMut};

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
        self.addr.encode(buf);
    }

    fn encoded_len(&self) -> usize {
        ID160_BYTES + self.addr.encoded_len()
    }
}

impl WireDecode for Contact {
    const MIN_WIRE_LEN: usize = ID160_BYTES + 1;

    fn decode(buf: &mut &[u8]) -> Result<Self> {
        let id = buf.get_id()?;
        let addr = u32::decode(buf)?;
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

/// Declares the wire messages (module docs). A row is a message's type
/// byte, its variant, and its fields in wire order; every message opens
/// with `rpc` and `from`. `value { … }` marks the value group, and
/// `value(key)` names the field `value_use` is told of (a reply names
/// none). From the rows come [`Message`], `MessageKind`, `rpc_id` and
/// `sender`, `put` and `wire_len` — which write a given body in place of
/// the value group — and `decode_with`.
macro_rules! messages {
    (@key) => { None };
    (@key $key:ident) => { Some(&$key) };
    ($(
        $(#[doc = $doc:literal])+
        $tag:literal => $variant:ident {
            $(#[doc = $rpc_doc:literal])+ rpc: u64,
            $(#[doc = $from_doc:literal])+ from: Contact,
            $($(#[doc = $head_doc:literal])+ $head:ident: $head_ty:ty,)*
            $(value $(($key:ident))? {
                $($(#[doc = $value_doc:literal])+ $value:ident: $value_ty:ty,)+
            }
            $($(#[doc = $tail_doc:literal])+ $tail:ident: $tail_ty:ty,)*)?
        },
    )+) => {
        /// The RPC messages.
        #[derive(Clone, PartialEq, Eq, Debug)]
        pub enum Message {
            $($(#[doc = $doc])+
            $variant {
                $(#[doc = $rpc_doc])+
                rpc: u64,
                $(#[doc = $from_doc])+
                from: Contact,
                $($(#[doc = $head_doc])+ $head: $head_ty,)*
                $($($(#[doc = $value_doc])+ $value: $value_ty,)+
                $($(#[doc = $tail_doc])+ $tail: $tail_ty,)*)?
            },)+
        }

        /// A message's type byte, by name: what a receiver is told before
        /// it reads a value (`value_use`).
        #[derive(Clone, Copy, PartialEq, Eq, Debug)]
        pub(crate) enum MessageKind {
            $($variant = $tag,)+
        }

        impl Message {
            /// The request id (echoed by replies).
            pub fn rpc_id(&self) -> u64 {
                match self {
                    $(Message::$variant { rpc, .. })|+ => *rpc,
                }
            }

            /// The sender's contact record.
            pub fn sender(&self) -> &Contact {
                match self {
                    $(Message::$variant { from, .. })|+ => from,
                }
            }

            /// Writes the message: its type byte, then its fields in wire
            /// order — with `body` in place of the value group, if given.
            fn put(&self, body: Option<&[u8]>, buf: &mut BytesMut) {
                match self {
                    $(Message::$variant { rpc, from, $($head,)* $($($value,)+ $($tail,)*)? } => {
                        buf.put_u8(MessageKind::$variant as u8);
                        rpc.encode(buf);
                        from.encode(buf);
                        $($head.encode(buf);)*
                        $(match body {
                            Some(body) => buf.extend_from_slice(body),
                            None => {
                                $(ValueField::put($value, buf);)+
                            }
                        }
                        $($tail.encode(buf);)*)?
                    })+
                }
            }

            /// Exactly what [`Self::put`] writes, in bytes.
            fn wire_len(&self, body: Option<&[u8]>) -> usize {
                match self {
                    $(Message::$variant { rpc, from, $($head,)* $($($value,)+ $($tail,)*)? } => {
                        1 + rpc.encoded_len() + from.encoded_len() $(+ $head.encoded_len())*
                        $(+ body.map_or_else(|| 0 $(+ ValueField::wire_len($value))+, <[u8]>::len)
                        $(+ $tail.encoded_len())*)?
                    })+
                }
            }

            /// The one decoder, for [`WireDecode::decode_exact`] and
            /// `decode_datagram` alike: reads the fields in wire order and,
            /// at the value group, asks `value_use(kind, rpc, key)` what the
            /// value is for. Returns the message and, if the answer is
            /// [`ValueUse::Body`] or [`ValueUse::Owned`], the bytes the value
            /// group spans.
            fn decode_with<'a>(
                buf: &mut &'a [u8],
                value_use: impl FnOnce(MessageKind, u64, Option<&Id160>) -> ValueUse,
            ) -> Result<(Self, Option<&'a [u8]>)> {
                let Some((&tag, rest)) = buf.split_first() else {
                    return Err(DharmaError::Decode("empty message".into()));
                };
                *buf = rest;
                let (rpc, from) = (buf.get_varint()?, Contact::decode(buf)?);
                let mut body = None;
                let msg = match tag {
                    $($tag => {
                        $(let $head = <$head_ty>::decode(buf)?;)*
                        $(let (start, kind) = (*buf, MessageKind::$variant);
                        let answer = value_use(kind, rpc, messages!(@key $($key)?));
                        let owned = answer == ValueUse::Owned;
                        // A known body is a group the walk accepted: matched, it is skipped whole.
                        let known = match &answer { ValueUse::Known(b) => buf.strip_prefix(&b[..]).map(|rest| *buf = rest).is_some(), _ => false };
                        $(let $value = if known { Default::default() } else { <$value_ty as ValueField>::read(buf, owned)? };)+
                        let kept = &start[..start.len() - buf.len()];
                        body = matches!(answer, ValueUse::Body | ValueUse::Owned).then_some(kept);
                        $(let $tail = <$tail_ty>::decode(buf)?;)*)?
                        Message::$variant { rpc, from, $($head,)* $($($value,)+ $($tail,)*)? }
                    })+
                    other => {
                        return Err(DharmaError::Decode(format!("unknown message type {other}")))
                    }
                };
                Ok((msg, body))
            }
        }
    };
}

messages! {
    /// Liveness probe.
    1 => Ping {
        /// Request id.
        rpc: u64,
        /// Sender contact (routing-table maintenance).
        from: Contact,
    },
    /// Reply to [`Message::Ping`].
    2 => Pong {
        /// Echoed request id.
        rpc: u64,
        /// Responder contact.
        from: Contact,
        /// Version-gossip digest: recent local writes the responder holds
        /// (empty when the `dharma-fresh` subsystem is off).
        digest: Vec<DigestEntry>,
    },
    /// Ask for the `k` closest contacts to `target`.
    3 => FindNode {
        /// Request id.
        rpc: u64,
        /// Sender contact.
        from: Contact,
        /// Lookup target.
        target: Id160,
    },
    /// Reply to [`Message::FindNode`].
    4 => FoundNodes {
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
    5 => FindValue {
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
    6 => FoundValue {
        /// Echoed request id.
        rpc: u64,
        /// Responder contact.
        from: Contact,
        value {
            /// Blob part, if any.
            blob: Option<Vec<u8>>,
            /// Weighted entries (filtered server-side).
            entries: Vec<StoredEntry>,
        }
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
    7 => Store {
        /// Request id.
        rpc: u64,
        /// Sender contact.
        from: Contact,
        /// Storage key.
        key: Id160,
        value(key) {
            /// Blob payload.
            blob: Vec<u8>,
        }
        /// The origin stamp minted for this write.
        stamp: VersionStamp,
    },
    /// Append one-bit tokens to entries of the weighted set at `key`
    /// (creating entries at 0). A block update is **one** overlay operation
    /// regardless of how many entries it touches — that is what makes
    /// Table I's `2 + 2m` / `4 + k` lookup counts achievable. Appends
    /// commute — the concurrency-safe primitive behind Approximation B.
    8 => Append {
        /// Request id.
        rpc: u64,
        /// Sender contact.
        from: Contact,
        /// Storage key.
        key: Id160,
        value(key) {
            /// Entries to add tokens to: `(name, tokens)` pairs.
            entries: Vec<StoredEntry>,
        }
        /// The origin stamp minted for this write.
        stamp: VersionStamp,
    },
    /// Acknowledgement for [`Message::Store`] / [`Message::Append`] /
    /// [`Message::Replicate`] / [`Message::InvalidatePush`].
    9 => Ack {
        /// Echoed request id.
        rpc: u64,
        /// Responder contact.
        from: Contact,
    },
    /// Replication repair: a full value snapshot pushed by the repair sweep
    /// (and by a join hand-off, a demotion or a graceful leave).
    /// Applied with **merge-max** semantics (idempotent), unlike `Append`.
    10 => Replicate {
        /// Request id.
        rpc: u64,
        /// Sender contact.
        from: Contact,
        /// Storage key.
        key: Id160,
        value(key) {
            /// Blob snapshot, if the value has one.
            blob: Option<Vec<u8>>,
            /// Entry snapshot, in the sender's reply order.
            entries: Vec<StoredEntry>,
        }
        /// The snapshot's *existing* origin stamp (replication repairs
        /// holders that missed a write; it never mints a new version).
        stamp: VersionStamp,
    },
    /// Store-on-path caching push (the classic Kademlia caching rule):
    /// after a successful value lookup the requester offers the filtered
    /// view to the closest node on its path that *missed*, so the next
    /// lookup for the same hot key stops one hop earlier. Fire-and-forget;
    /// the receiver caches it only if it is not an authoritative holder.
    11 => CachePush {
        /// Request id (no reply is expected; kept for tracing).
        rpc: u64,
        /// Sender contact.
        from: Contact,
        /// Storage key.
        key: Id160,
        /// The filtering limit the view was read at (part of the cache key).
        top_n: u32,
        value(key) {
            /// Blob part, if any.
            blob: Option<Vec<u8>>,
            /// Weighted entries (filtered by the origin).
            entries: Vec<StoredEntry>,
        }
        /// Whether the entry list was truncated.
        truncated: bool,
        /// The view's origin stamp.
        version: VersionStamp,
    },
    /// Graceful-departure notice: the sender is leaving the overlay *now*.
    /// Receivers purge it from their routing table immediately (no probe
    /// round needed), tombstone the id briefly so in-flight stragglers
    /// cannot re-insert it, and feed their churn estimator. Fire-and-forget
    /// — the departing node does not wait for replies.
    12 => Leave {
        /// Request id (no reply is expected; kept for tracing).
        rpc: u64,
        /// The departing node's contact record.
        from: Contact,
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
    13 => InvalidatePush {
        /// Request id; `0` means no ack is expected.
        rpc: u64,
        /// Sender contact (the holder that applied the write).
        from: Contact,
        /// The written key.
        key: Id160,
        /// The fetcher's filter width, echoed from its tracked `FindValue`
        /// (the receiver's cache slot is keyed by it).
        top_n: u32,
        value(key) {
            /// Blob part of the post-write view, if any.
            blob: Option<Vec<u8>>,
            /// Weighted entries of the post-write view (holder-filtered).
            entries: Vec<StoredEntry>,
        }
        /// Whether the entry list was truncated.
        truncated: bool,
        /// The key's origin stamp after the write.
        stamp: VersionStamp,
    },
}

impl WireEncode for Message {
    fn encode(&self, buf: &mut BytesMut) {
        self.put(None, buf);
    }

    /// Encodes into one buffer of exactly [`Self::encoded_len`] bytes:
    /// no message grows its buffer.
    fn encode_to_bytes(&self) -> Bytes {
        self.framed(None)
    }

    fn encoded_len(&self) -> usize {
        self.wire_len(None)
    }
}

impl WireDecode for Message {
    fn decode(buf: &mut &[u8]) -> Result<Self> {
        Ok(Self::decode_with(buf, |_, _, _| ValueUse::Owned)?.0)
    }
}

impl Message {
    /// Encodes the message around `body`, a value group already encoded —
    /// a holder's wire memo, a cache's pinned view, a write's body: the
    /// fields before the group, then `body`, then the fields after it, into
    /// one buffer of exactly that size. The message's own value fields are
    /// not written (callers leave them empty), and a message without a
    /// value group writes no body.
    pub(crate) fn encode_around(&self, body: &[u8]) -> Bytes {
        self.framed(Some(body))
    }

    fn framed(&self, body: Option<&[u8]>) -> Bytes {
        let len = self.wire_len(body);
        let mut buf = BytesMut::with_capacity(len);
        self.put(body, &mut buf);
        debug_assert_eq!(buf.len(), len, "the buffer never grows");
        buf.freeze()
    }
}

/// Writes an optional blob: a flag byte, then the bytes when present.
pub(crate) fn put_opt_blob(buf: &mut BytesMut, blob: Option<&[u8]>) {
    buf.put_u8(u8::from(blob.is_some()));
    if let Some(b) = blob {
        buf.put_bytes_field(b);
    }
}

/// Reads an optional blob as a slice of the input.
pub(crate) fn get_opt_blob<'a>(buf: &mut &'a [u8]) -> Result<Option<&'a [u8]>> {
    let present = buf.get_flag()?;
    present.then(|| get_bytes_ref(buf)).transpose()
}

mod decode;

use decode::ValueField;
pub(crate) use decode::ValueUse;
pub use decode::ValueView;

#[cfg(test)]
mod tests;
