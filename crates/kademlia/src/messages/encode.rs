//! The writing half of the codec: how long a message is, and how it is
//! written into a buffer of exactly that size.
//!
//! [`WireEncode::encoded_len`] is arithmetic for every [`Message`], so
//! [`WireEncode::encode_to_bytes`] writes each one into one exactly sized
//! buffer — one allocation and the handle, where a growing buffer spent
//! several on the way. The body-built encoders (`encode_found_value` and
//! the rest) do the same around a value's bytes already encoded — a
//! holder's wire memo, a cache's pinned view, a write's body — and build
//! no `Message`.

use bytes::{BufMut, Bytes, BytesMut};

use dharma_types::wire::varint_len;
use dharma_types::{Id160, VersionStamp, WireEncode, WriteBytes, ID160_BYTES};

use super::{
    head_len, opt_blob_len, push_head_len, put_found_nodes, put_found_value_tail, put_head,
    put_opt_blob, put_push_head, put_push_tail, Contact, DigestEntry, Message, StoredEntry,
};

impl WireEncode for Message {
    fn encode(&self, buf: &mut BytesMut) {
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
                put_head(buf, Self::T_FOUND_VALUE, *rpc, from);
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
                version: stamp,
            }
            | Message::InvalidatePush {
                rpc,
                from,
                key,
                top_n,
                blob,
                entries,
                truncated,
                stamp,
            } => {
                let ty = if matches!(self, Message::CachePush { .. }) {
                    Self::T_CACHE_PUSH
                } else {
                    Self::T_INVALIDATE_PUSH
                };
                put_push_head(buf, ty, *rpc, from, key, *top_n);
                put_opt_blob(buf, blob.as_deref());
                entries.encode(buf);
                put_push_tail(buf, *truncated, stamp);
            }
            Message::Ack { rpc, from } => put_head(buf, Self::T_ACK, *rpc, from),
            Message::Leave { rpc, from } => put_head(buf, Self::T_LEAVE, *rpc, from),
        }
    }

    /// Encodes into one buffer of exactly [`Self::encoded_len`] bytes, as
    /// the body-built encoders below do: no message grows its buffer.
    fn encode_to_bytes(&self) -> Bytes {
        let len = self.encoded_len();
        let mut buf = BytesMut::with_capacity(len);
        self.encode(&mut buf);
        debug_assert_eq!(buf.len(), len, "the buffer never grows");
        buf.freeze()
    }

    fn encoded_len(&self) -> usize {
        let value = |blob: &Option<Vec<u8>>, entries: &[StoredEntry]| {
            opt_blob_len(blob.as_deref()) + entries.encoded_len()
        };
        let after_head = match self {
            Message::Ping { .. } | Message::Ack { .. } | Message::Leave { .. } => 0,
            Message::Pong { digest, .. } => digest.encoded_len(),
            Message::FindNode { .. } => ID160_BYTES,
            Message::FoundNodes {
                contacts, digest, ..
            } => contacts.encoded_len() + digest.encoded_len(),
            Message::FindValue { top_n, .. } => ID160_BYTES + varint_len(u64::from(*top_n)) + 1,
            Message::FoundValue {
                blob,
                entries,
                version,
                digest,
                ..
            } => value(blob, entries) + 2 + version.encoded_len() + digest.encoded_len(),
            Message::Store { blob, stamp, .. } => {
                ID160_BYTES + varint_len(blob.len() as u64) + blob.len() + stamp.encoded_len()
            }
            Message::Append { entries, stamp, .. } => {
                ID160_BYTES + entries.encoded_len() + stamp.encoded_len()
            }
            Message::Replicate {
                blob,
                entries,
                stamp,
                ..
            } => ID160_BYTES + value(blob, entries) + stamp.encoded_len(),
            Message::CachePush {
                top_n,
                blob,
                entries,
                version: stamp,
                ..
            }
            | Message::InvalidatePush {
                top_n,
                blob,
                entries,
                stamp,
                ..
            } => {
                let width = varint_len(u64::from(*top_n));
                ID160_BYTES + width + value(blob, entries) + 1 + stamp.encoded_len()
            }
        };
        head_len(self.rpc_id(), self.sender()) + after_head
    }
}

impl Message {
    /// Encodes a `FoundValue` reply around a value's wire body — a
    /// holder's from [`crate::Storage::encode_filtered`], a cache's as it
    /// was pinned — into a buffer of exactly its size.
    pub(crate) fn encode_found_value(
        rpc: u64,
        from: &Contact,
        body: &[u8],
        truncated: bool,
        version: &VersionStamp,
        from_cache: bool,
        digest: &[DigestEntry],
    ) -> Bytes {
        let len =
            head_len(rpc, from) + body.len() + 2 + version.encoded_len() + digest.encoded_len();
        let mut buf = BytesMut::with_capacity(len);
        put_head(&mut buf, Self::T_FOUND_VALUE, rpc, from);
        buf.extend_from_slice(body);
        put_found_value_tail(&mut buf, truncated, version, from_cache, digest);
        debug_assert_eq!(buf.len(), len, "the reply buffer never grows");
        buf.freeze()
    }

    /// Encodes a `CachePush` around a pinned view's wire body into a
    /// buffer of exactly its size.
    pub(crate) fn encode_cache_push(
        rpc: u64,
        from: &Contact,
        key: &Id160,
        top_n: u32,
        body: &[u8],
        truncated: bool,
        version: &VersionStamp,
    ) -> Bytes {
        let len = push_head_len(rpc, from, top_n) + body.len() + 1 + version.encoded_len();
        let mut buf = BytesMut::with_capacity(len);
        put_push_head(&mut buf, Self::T_CACHE_PUSH, rpc, from, key, top_n);
        buf.extend_from_slice(body);
        put_push_tail(&mut buf, truncated, version);
        debug_assert_eq!(buf.len(), len, "the push buffer never grows");
        buf.freeze()
    }

    /// Encodes a write — a `Store`, `Append` or `Replicate`, as `ty` says
    /// — around its wire body, the bytes between key and stamp
    /// (`WriteBody`), into a buffer of exactly its size: the one copy a
    /// coordinator makes per replica of a body it encoded once.
    pub(crate) fn encode_write(
        ty: u8,
        rpc: u64,
        from: &Contact,
        key: &Id160,
        body: &[u8],
        stamp: &VersionStamp,
    ) -> Bytes {
        let len = head_len(rpc, from) + ID160_BYTES + body.len() + stamp.encoded_len();
        let mut buf = BytesMut::with_capacity(len);
        put_head(&mut buf, ty, rpc, from);
        buf.put_id(key);
        buf.extend_from_slice(body);
        stamp.encode(&mut buf);
        debug_assert_eq!(buf.len(), len, "the write buffer never grows");
        buf.freeze()
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
        let len = head_len(rpc, from) + contacts.encoded_len() + digest.encoded_len();
        let mut buf = BytesMut::with_capacity(len);
        put_found_nodes(&mut buf, rpc, from, contacts, digest);
        debug_assert_eq!(buf.len(), len, "the reply buffer never grows");
        buf.freeze()
    }
}
