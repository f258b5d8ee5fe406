//! The lazy half of the codec: how a receiver reads a datagram that
//! carries a value.
//!
//! ## Decide before you decode
//!
//! Six messages carry a value. Four carry a blob option, then an entry
//! list: `FoundValue`, `CachePush`, `InvalidatePush` and `Replicate`; a
//! `Store` carries a blob and an `Append` an entry list. Built owned, that
//! is one `String` per entry, and most receivers need none of them: a GET
//! asks `α` holders and completes on the first `FoundValue` (the others
//! arrive anyway, as do replies to lookups long finished), a cache pins a
//! pushed or revalidated view only to forward it as bytes again, and a
//! replica applies a write from its bytes — interning each name from a
//! borrowed `&str`, or, for a `Replicate`, comparing its entries with the
//! ones it holds, which usually agree. Writes are bodies too: a write's
//! coordinator encodes its body once and sends it to every replica, and
//! every holder applies those bytes (`Storage::apply`).
//! `Message::decode_datagram` therefore reads type, request id, sender and
//! — for a push or a write — the key, then asks its caller what the value
//! is for. There are three answers (`ValueUse`):
//!
//! * **skip** — validate it and keep nothing (a reply nobody waits for;
//!   a push to a holder, or to a node that caches nothing);
//! * **body** — validate it and keep its wire bytes (a push or a
//!   revalidation reply, pinned as a cached view; a `Store`, `Append` or
//!   `Replicate`, applied from its body);
//! * **owned** — build the blob and entries and keep the wire bytes too
//!   (the first value to reach a GET in flight: its caller gets the
//!   entries, the cache pins the bytes).
//!
//! Validating is the owning decoder's checks, in its order, through the
//! same `ReadBytes` primitives: the blob flag, the blob's length prefix,
//! the entry count against the bytes left, every name's length prefix and
//! UTF-8, every weight varint. The primitives' fast paths for one-byte
//! varints and ASCII names ([`dharma_types::wire`]) make most of that walk
//! a bounds check and an ASCII test. A write's body is validated once,
//! here: storage trusts it, checks UTF-8 again only for a name it interns
//! (ASCII-first, so most of that is a byte test), and compares a
//! `Replicate`'s names with the held ones as bytes. A kept body is copied
//! out of the datagram (the UDP runtime recycles its receive buffers, and
//! a slice would pin a whole one per cached view). The rest of the message
//! (flags, stamp, digest) is decoded as ever, so the receiver still notes
//! the sender, settles the RPC, samples the RTT and absorbs the digest.
//!
//! The answer cannot change which datagrams are accepted: a byte string
//! fails under one answer exactly when it fails under the others, with the
//! same error, because every check that can fail is shared and only
//! allocation is left out. The tests hold the three to that on the whole
//! mutation corpus and every truncation prefix.

use bytes::Bytes;

use dharma_types::wire::{expect_consumed, get_bytes_ref, get_seq_len};
use dharma_types::{Id160, ReadBytes, Result, WireDecode};

use super::{get_opt_blob, Message, StoredEntry};

/// What a receiver does with the value a message carries (module docs).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum ValueUse {
    /// Validate it, keep nothing.
    Skip,
    /// Validate it, keep its wire body.
    Body,
    /// Build the owned blob and entries, and keep the wire body.
    Owned,
}

impl Message {
    /// Decodes one received datagram in place — through a cursor over
    /// `payload`'s bytes, the one [`WireDecode::decode_exact`] reads with —
    /// requiring it to be consumed to its end. `value_use(type, rpc, key)`
    /// is asked what the value of a `FoundValue` (`key` is `None`), a push
    /// or a write (the key it names) is for, once everything before
    /// the value is read (module docs). Owned parts not asked for arrive as
    /// `None` / empty; a kept wire body comes back beside the message,
    /// copied out of `payload`, which is dropped here.
    pub(crate) fn decode_datagram(
        payload: Bytes,
        value_use: impl FnOnce(u8, u64, Option<&Id160>) -> ValueUse,
    ) -> Result<(Self, Option<Bytes>)> {
        let mut buf: &[u8] = &payload;
        let (msg, body) = Self::decode_with(&mut buf, value_use)?;
        expect_consumed(buf)?;
        Ok((msg, body.map(Bytes::copy_from_slice)))
    }
}

/// The value a message of type `ty` carries — a `Store`'s blob, an
/// `Append`'s entry list, or the blob option and then the entry list of
/// the other four — read as `value_use` says: the owned parts are built
/// for [`ValueUse::Owned`] alone, and the bytes they span go to `body` for
/// all but [`ValueUse::Skip`]. Every answer runs the owning decoder's
/// checks in its order, so a byte string fails alike under all three.
pub(super) fn value_part<'a>(
    buf: &mut &'a [u8],
    ty: u8,
    value_use: ValueUse,
    body: &mut Option<&'a [u8]>,
) -> Result<(Option<Vec<u8>>, Vec<StoredEntry>)> {
    let (start, owned) = (*buf, value_use == ValueUse::Owned);
    let blob = match ty {
        Message::T_STORE => Some(get_bytes_ref(buf)?),
        Message::T_APPEND => None,
        _ => get_opt_blob(buf)?,
    };
    let entries = match ty {
        Message::T_STORE => Vec::new(),
        _ if owned => Vec::<StoredEntry>::decode(buf)?,
        _ => {
            for _ in 0..get_seq_len(buf, StoredEntry::MIN_WIRE_LEN)? {
                buf.skip_str()?;
                buf.get_varint()?;
            }
            Vec::new()
        }
    };
    *body = (value_use != ValueUse::Skip).then(|| &start[..start.len() - buf.len()]);
    Ok((blob.filter(|_| owned).map(<[u8]>::to_vec), entries))
}
