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
//!   (the first value to reach a `get` / `get_fresh` in flight: its caller
//!   gets the entries, the cache pins the bytes).
//!
//! A view GET (`get_view`) answers **body** for its first value, too: its
//! caller gets the validated body itself, as a [`ValueView`], and reads
//! the entries out of it as borrowed `&str`s. Owned entries are built
//! only for the callers that still take a
//! [`FetchedValue`](super::FetchedValue): the benchmark's scripts and
//! ledger and the `crates/sim` drivers. Deleting that shape, and this
//! answer with it, is ROADMAP item 6's remainder.
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

use dharma_types::wire::{expect_consumed, get_bytes_ref, get_seq_len, get_str_ref};
use dharma_types::{Id160, ReadBytes, Result, VersionStamp, WireDecode};

use super::{get_opt_blob, Message, StoredEntry};

/// A fetched value as it arrived: its validated wire body — the blob
/// option, then the entry list, in the holder's reply order — with the
/// reply's flags. What a view GET
/// ([`KademliaNode::get_view`](crate::KademliaNode::get_view)) completes
/// with, in place of a [`FetchedValue`](super::FetchedValue): nothing is
/// built on receipt, and the caller reads names straight out of the body.
///
/// The body was validated by the owning decoder's checks before it got
/// here (module docs), or encoded by this node (a held value's wire memo,
/// a cached view), so reading it cannot fail. [`Default`] is the empty
/// value: no blob, no entries.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ValueView {
    body: Bytes,
    /// True if the server cut the entry list (filtering or MTU).
    pub truncated: bool,
    /// The value's origin stamp at read time.
    pub version: VersionStamp,
    /// True when the reply came from a hot-block cache rather than
    /// authoritative storage.
    pub from_cache: bool,
}

/// What every read of a [`ValueView`]'s body may assume.
const VALIDATED: &str = "a view's body is encoded here or validated on receipt";

impl ValueView {
    /// A view of `body`, which the caller encoded or validated.
    pub(crate) fn new(
        body: Bytes,
        truncated: bool,
        version: VersionStamp,
        from_cache: bool,
    ) -> Self {
        ValueView {
            body,
            truncated,
            version,
            from_cache,
        }
    }

    /// The blob part, if the value has one, borrowed from the body.
    pub fn blob(&self) -> Option<&[u8]> {
        get_opt_blob(&mut &self.body[..]).expect(VALIDATED)
    }

    /// The weighted entries, `(name, weight)` in the holder's reply order,
    /// borrowed from the body: one walk, no allocation. The walk takes the
    /// positions the receive-side check already vouched for, and each
    /// name becomes a `&str` through `from_utf8` (this crate has no
    /// `unsafe`), which on an ASCII name is a word-at-a-time scan.
    pub fn entries(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        let mut body = &self.body[..];
        get_opt_blob(&mut body).expect(VALIDATED);
        let n = get_seq_len(&mut body, StoredEntry::MIN_WIRE_LEN).expect(VALIDATED);
        (0..n).map(move |_| {
            let name = get_str_ref(&mut body).expect(VALIDATED);
            (name, body.get_varint().expect(VALIDATED))
        })
    }
}

impl Default for ValueView {
    fn default() -> Self {
        // No blob (flag 0), no entries (count 0).
        ValueView::new(Bytes::from(vec![0, 0]), false, VersionStamp::ZERO, false)
    }
}

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

#[cfg(test)]
mod tests {
    //! A view GET's completion held to the owned one: the body kept under
    //! [`ValueUse::Body`] reads, through [`ValueView`], as the `FoundValue`
    //! built under [`ValueUse::Owned`] from the same datagram.

    use super::*;
    use crate::messages::tests::{corpus, decode_as};
    use dharma_types::WireEncode;

    /// Decodes `data` under both answers. For a `FoundValue` that both accept
    /// (they accept alike, `check_decoders_agree`), checks that the view of
    /// the kept body has the owned entries — names and weights, in order —
    /// the owned blob and the same `truncated`, and returns 1; returns 0 for
    /// anything else.
    fn check_view_equals_owned(data: &[u8]) -> usize {
        let Ok((owned, _)) = decode_as(data, ValueUse::Owned) else {
            return 0;
        };
        let Message::FoundValue {
            blob,
            entries,
            truncated,
            ..
        } = owned
        else {
            return 0;
        };
        let (kept, body) = decode_as(data, ValueUse::Body).expect("accepted under Owned");
        let Message::FoundValue {
            truncated: view_truncated,
            version,
            from_cache,
            ..
        } = kept
        else {
            panic!("the same message under both answers");
        };
        let body = body.expect("a FoundValue's body is kept under Body");
        let view = ValueView::new(body, view_truncated, version, from_cache);
        let owned: Vec<(&str, u64)> = entries.iter().map(|e| (&*e.name, e.weight)).collect();
        assert_eq!(view.entries().collect::<Vec<_>>(), owned, "on {data:?}");
        assert_eq!(view.blob(), blob.as_deref(), "on {data:?}");
        assert_eq!(view.truncated, truncated, "on {data:?}");
        1
    }

    #[test]
    fn a_view_reads_as_the_owned_value_on_the_whole_corpus() {
        // Every corpus encoding, every strict prefix (all refused), every
        // single-byte mutant, and for each `FoundValue` the striding two-byte
        // mutants of `two_byte_mutations_never_panic`.
        let (mut encodings, mut mutants) = (0, 0);
        for m in &corpus() {
            let enc = m.encode_to_bytes();
            encodings += check_view_equals_owned(&enc);
            for cut in 0..enc.len() {
                assert_eq!(check_view_equals_owned(&enc[..cut]), 0);
            }
            let n = enc.len();
            for i in 0..n {
                for pattern in [0x01u8, 0x80, 0xff] {
                    let mut bent = enc.to_vec();
                    bent[i] ^= pattern;
                    mutants += check_view_equals_owned(&bent);
                    if !matches!(m, Message::FoundValue { .. }) {
                        continue;
                    }
                    for stride in [1usize, 2, 3, 7, 13].into_iter().filter(|s| s % n != 0) {
                        let mut twice = bent.clone();
                        twice[(i + stride) % n] ^= pattern.rotate_left(1);
                        mutants += check_view_equals_owned(&twice);
                    }
                }
            }
        }
        // Every corpus `FoundValue` is compared, and so are accepted mutants
        // (flips in names, weights and blob bytes), so the check is not vacuous.
        let found_values = corpus()
            .iter()
            .filter(|m| matches!(m, Message::FoundValue { .. }))
            .count();
        assert_eq!(encodings, found_values);
        assert!(mutants > 0);
    }

    #[test]
    fn an_empty_view_has_no_blob_and_no_entries() {
        let view = ValueView::default();
        assert_eq!((view.blob(), view.entries().count()), (None, 0));
        assert!(!view.truncated && !view.from_cache && view.version.is_zero());
    }
}
