//! The lazy half of the codec: how a receiver reads a datagram that
//! carries a value.
//!
//! ## Decide before you decode
//!
//! Four messages carry a value — a blob option, then an entry list:
//! `FoundValue`, `CachePush`, `InvalidatePush` and `Replicate`. Built
//! owned, that is one `String` per entry, and most receivers need none of
//! them: a GET asks `α` holders and completes on the first `FoundValue`
//! (the others arrive anyway, as do replies to lookups long finished), a
//! cache pins a pushed or revalidated view only to forward it as bytes
//! again, and a replica merges a `Replicate` by comparing its entries with
//! the ones it holds, which usually agree. `Message::decode_datagram`
//! therefore reads type, request id, sender and — for a push or a
//! `Replicate` — the key, then asks its caller what the value is for.
//! There are three answers (`ValueUse`):
//!
//! * **skip** — validate it and keep nothing (a reply nobody waits for;
//!   a push to a holder, or to a node that caches nothing);
//! * **body** — validate it and keep its wire bytes (a push or a
//!   revalidation reply, pinned as a cached view; a `Replicate`, merged
//!   from its body);
//! * **owned** — build the blob and entries and keep the wire bytes too
//!   (the first value to reach a GET in flight: its caller gets the
//!   entries, the cache pins the bytes).
//!
//! Validating is the owning decoder's checks, in its order, through the
//! same `ReadBytes` primitives: the blob flag, the blob's length prefix,
//! the entry count against the bytes left, every name's length prefix and
//! UTF-8, every weight varint. The primitives' fast paths for one-byte
//! varints and ASCII names ([`dharma_types::wire`]) make most of that walk
//! a bounds check and an ASCII test. A `Replicate` body is validated once,
//! here: the merge compares its names with the held ones as bytes, and
//! checks UTF-8 again only for a name it interns. A kept body is copied
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

use dharma_types::wire::{expect_consumed, get_seq_len};
use dharma_types::{Id160, ReadBytes, Result, WireDecode};

use super::{get_opt_blob, Message, StoredEntry};

/// What a receiver does with the value a `FoundValue`, `CachePush`,
/// `InvalidatePush` or `Replicate` carries (module docs).
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
    /// or a `Replicate` (the key it names) is for, once everything before
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

/// The value a `FoundValue`, a push or a `Replicate` carries — the blob
/// option, then the entry list — read as `value_use` says: the owned parts
/// are built for [`ValueUse::Owned`] alone, and the bytes they span go to
/// `body` for all but [`ValueUse::Skip`]. Every answer runs the owning decoder's
/// checks in its order, so a byte string fails alike under all three.
pub(super) fn value_part<'a>(
    buf: &mut &'a [u8],
    value_use: ValueUse,
    body: &mut Option<&'a [u8]>,
) -> Result<(Option<Vec<u8>>, Vec<StoredEntry>)> {
    let start = *buf;
    let owned = if value_use == ValueUse::Owned {
        let blob = get_opt_blob(buf)?.map(<[u8]>::to_vec);
        (blob, Vec::<StoredEntry>::decode(buf)?)
    } else {
        get_opt_blob(buf)?;
        for _ in 0..get_seq_len(buf, StoredEntry::MIN_WIRE_LEN)? {
            buf.skip_str()?;
            buf.get_varint()?;
        }
        (None, Vec::new())
    };
    *body = (value_use != ValueUse::Skip).then(|| &start[..start.len() - buf.len()]);
    Ok(owned)
}
