//! The lazy half of the codec: how a receiver reads a datagram that
//! carries a value.
//!
//! ## Decide before you decode
//!
//! Six messages carry a value, the group the table marks `value { … }`.
//! Four carry a blob option, then an entry list: `FoundValue`, `CachePush`,
//! `InvalidatePush` and `Replicate`; a `Store` carries a blob and an
//! `Append` an entry list. Built owned, that is one `String` per entry, and
//! most receivers need none of them: a GET asks `α` holders and completes
//! on the first `FoundValue` (the others arrive anyway, as do replies to
//! lookups long finished), a cache pins a pushed or revalidated view only
//! to forward it as bytes again, and a replica applies a write from its
//! bytes — interning each name from a borrowed `&str`, or, for a
//! `Replicate`, comparing its entries with the ones it holds, which usually
//! agree. Writes are bodies too: a write's coordinator encodes its body
//! once and sends it to every replica, and every holder applies those
//! bytes (`Storage::apply`). The decoder the table generates
//! (`Message::decode_with`) therefore reads the fields before the group —
//! type, request id, sender and, for a push or a write, the key — then
//! asks its caller what the value is for, by [`MessageKind`]. There are
//! four answers (`ValueUse`):
//!
//! * **skip** — validate it and keep nothing (a reply nobody waits for;
//!   a push to a holder, or to a node that caches nothing);
//! * **body** — validate it and keep its wire bytes (a push or a
//!   revalidation reply, pinned as a cached view; a `Store`, `Append` or
//!   `Replicate`, applied from its body);
//! * **owned** — build the blob and entries and keep the wire bytes too
//!   (the first value to reach a `get` in flight: its caller
//!   gets the entries, the cache pins the bytes);
//! * **known** — keep nothing, but first compare the value with a body
//!   already validated (a sibling reply to a GET that completed: the `α`
//!   holders serve the same memo, so the second and third `FoundValue`
//!   usually carry the first one's bytes). The node keeps that body, keyed
//!   by the finished GET, until the GET's last pending RPC settles or times
//!   out.
//!
//! A view GET (`get_view`) answers **body** for its first value, too: its
//! caller gets the validated body itself, as a [`ValueView`], and reads
//! the entries out of it as borrowed `&str`s. Owned entries are built
//! only for the callers that still take a
//! [`FetchedValue`](super::FetchedValue): the benchmark's scripts and
//! ledger, and tests; the `crates/sim` drivers read views. Deleting that
//! shape, and this
//! answer with it, is ROADMAP item 6's remainder.
//!
//! One decoder serves every answer, and [`WireDecode::decode_exact`] is
//! the same decoder answering **owned**. Each field of the group is read
//! by its [`ValueField::read`], which runs the owning decoder's checks in
//! its order, through the same `ReadBytes` primitives, and builds only
//! when asked to: the blob flag, the blob's length prefix, the entry count
//! against the bytes left, every name's length prefix and UTF-8, every
//! weight varint. The primitives' fast paths for one-byte varints and
//! ASCII names ([`dharma_types::wire`]) make most of that walk a bounds
//! check and an ASCII test. A write's body is validated once, here:
//! storage trusts it, checks UTF-8 again only for a name it interns
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
//! mutation corpus and every truncation prefix. **Known** holds to it by
//! construction: a value group is self-delimiting, so when the bytes at
//! the group begin with a body the walk once accepted whole, the walk
//! would read exactly those bytes again, make the same decisions (its
//! one check on bytes left, an entry count against the rest of the
//! datagram, only gets looser with more bytes after the group) and stop
//! at the same place; the decoder steps past them instead, and the value
//! arrives empty, as under **skip**. Bytes that differ are walked as
//! under **skip**. The tests hold **known** to **skip** on the corpus,
//! every truncation and every single-byte mutant, with the original's
//! body known and with a validated body one byte off.

use bytes::{Bytes, BytesMut};

use dharma_types::wire::{expect_consumed, get_bytes_ref, get_seq_len, get_str_ref, varint_len};
use dharma_types::{Id160, ReadBytes, Result, VersionStamp, WireDecode, WireEncode, WriteBytes};

use super::{get_opt_blob, put_opt_blob, Message, MessageKind, StoredEntry};

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
#[derive(Clone, PartialEq, Eq, Debug)]
pub(crate) enum ValueUse {
    /// Validate it, keep nothing.
    Skip,
    /// Validate it, keep its wire body.
    Body,
    /// Build the owned blob and entries, and keep the wire body.
    Owned,
    /// Keep nothing; the value is likely this body, one already validated
    /// as the value of a message of the same type. If the value group
    /// begins with it, the decoder steps past it and the value fields
    /// arrive empty: the group is self-delimiting, so the walk would read
    /// exactly those bytes and accept them, as it did when the body was
    /// validated. Otherwise it walks as under `Skip`.
    Known(Bytes),
}

impl Message {
    /// Decodes one received datagram in place — through a cursor over
    /// `payload`'s bytes, the one [`WireDecode::decode_exact`] reads with —
    /// requiring it to be consumed to its end. `value_use(kind, rpc, key)`
    /// is asked what the value of a `FoundValue` (`key` is `None`), a push
    /// or a write (the key it names) is for, once everything before
    /// the value is read (module docs). Owned parts not asked for arrive as
    /// `None` / empty; a kept wire body comes back beside the message,
    /// copied out of `payload`, which is dropped here.
    pub(crate) fn decode_datagram(
        payload: Bytes,
        value_use: impl FnOnce(MessageKind, u64, Option<&Id160>) -> ValueUse,
    ) -> Result<(Self, Option<Bytes>)> {
        let mut buf: &[u8] = &payload;
        let (msg, body) = Self::decode_with(&mut buf, value_use)?;
        expect_consumed(buf)?;
        Ok((msg, body.map(Bytes::copy_from_slice)))
    }
}

/// A field of a message's value group: a `Store`'s blob, a blob option, an
/// entry list.
pub(super) trait ValueField: Sized {
    /// Writes the field.
    fn put(&self, buf: &mut BytesMut);
    /// Exactly what [`Self::put`] writes, in bytes.
    fn wire_len(&self) -> usize;
    /// Reads the field with the owning decoder's checks, in its order, and
    /// builds it only if `owned`; otherwise it arrives empty.
    fn read(buf: &mut &[u8], owned: bool) -> Result<Self>;
}

impl ValueField for Vec<u8> {
    fn put(&self, buf: &mut BytesMut) {
        buf.put_bytes_field(self);
    }

    fn wire_len(&self) -> usize {
        varint_len(self.len() as u64) + self.len()
    }

    fn read(buf: &mut &[u8], owned: bool) -> Result<Self> {
        let blob = get_bytes_ref(buf)?;
        Ok(if owned { blob.to_vec() } else { Vec::new() })
    }
}

impl ValueField for Option<Vec<u8>> {
    fn put(&self, buf: &mut BytesMut) {
        put_opt_blob(buf, self.as_deref());
    }

    fn wire_len(&self) -> usize {
        1 + self.as_ref().map_or(0, ValueField::wire_len)
    }

    fn read(buf: &mut &[u8], owned: bool) -> Result<Self> {
        Ok(get_opt_blob(buf)?.filter(|_| owned).map(<[u8]>::to_vec))
    }
}

impl ValueField for Vec<StoredEntry> {
    fn put(&self, buf: &mut BytesMut) {
        self.encode(buf);
    }

    fn wire_len(&self) -> usize {
        self.encoded_len()
    }

    fn read(buf: &mut &[u8], owned: bool) -> Result<Self> {
        if owned {
            return Vec::decode(buf);
        }
        for _ in 0..get_seq_len(buf, StoredEntry::MIN_WIRE_LEN)? {
            buf.skip_str()?;
            buf.get_varint()?;
        }
        Ok(Vec::new())
    }
}

#[cfg(test)]
mod tests {
    //! A view GET's completion held to the owned one: the body kept under
    //! [`ValueUse::Body`] reads, through [`ValueView`], as the `FoundValue`
    //! built under [`ValueUse::Owned`] from the same datagram.

    use super::*;
    use crate::messages::tests::{check_decoders_agree, corpus, decode_as, value_body};
    use crate::messages::Contact;
    use dharma_types::{sha1, WireEncode, WriteBytes};

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

    /// `data` through the one decoder, stopped before the end-of-datagram
    /// check, answering `answer` for a value of type `ty` and `Skip` for
    /// any other (a body is known only for the type it was validated as):
    /// the message and whether a body was kept, and the bytes left.
    fn decode_under(data: &[u8], ty: u8, answer: ValueUse) -> (Result<(Message, bool)>, usize) {
        let mut buf = data;
        let ask = |kind, _, _: Option<&Id160>| {
            if kind as u8 == ty {
                answer
            } else {
                ValueUse::Skip
            }
        };
        let out = Message::decode_with(&mut buf, ask);
        (out.map(|(m, body)| (m, body.is_some())), buf.len())
    }

    /// Decoding under `Known(known)`, for a value of type `ty`, is decoding
    /// under `Skip`: the same message or the same error text, at the same
    /// cursor, and no body.
    fn check_known_equals_skip(data: &[u8], ty: u8, known: &Bytes) {
        let (skipped, left) = decode_under(data, ty, ValueUse::Skip);
        let (compared, known_left) = decode_under(data, ty, ValueUse::Known(known.clone()));
        match (&compared, &skipped) {
            (Ok(c), Ok(s)) => assert_eq!(c, s, "on {data:?}"),
            (Err(c), Err(s)) => assert_eq!(c.to_string(), s.to_string(), "on {data:?}"),
            _ => panic!("{compared:?} against {skipped:?} on {data:?}"),
        }
        assert_eq!(known_left, left, "on {data:?}");
    }

    /// A sibling reply compared with the body its GET completed with
    /// decodes as one walked and skipped, on the whole corpus: every
    /// encoding with its own body known, every truncation and every
    /// single-byte mutant of it. And the encoding against a known body
    /// that differs from its own in one byte — the body of an accepted
    /// mutant, so a validated one as every known body is — falls back to
    /// the walk.
    #[test]
    fn a_known_body_decodes_as_skip_on_the_whole_corpus() {
        let (mut checked, mut one_byte_off) = (0, 0);
        for m in &corpus() {
            let Some(known) = value_body(m) else {
                continue;
            };
            let enc = m.encode_to_bytes();
            let ty = enc[0];
            check_known_equals_skip(&enc, ty, &known);
            for cut in 0..enc.len() {
                check_known_equals_skip(&enc[..cut], ty, &known);
            }
            for i in 0..enc.len() {
                for pattern in [0x01u8, 0x80, 0xff] {
                    let mut bent = enc.to_vec();
                    bent[i] ^= pattern;
                    check_known_equals_skip(&bent, ty, &known);
                    let Ok((_, Some(other))) = decode_as(&bent, ValueUse::Body) else {
                        continue;
                    };
                    let differ = known.iter().zip(&other[..]).filter(|(a, b)| a != b);
                    if other.len() == known.len() && differ.count() == 1 {
                        check_known_equals_skip(&enc, ty, &other);
                        one_byte_off += 1;
                    }
                }
            }
            checked += 1;
        }
        assert!(checked >= 6, "every value-bearing type is in the corpus");
        assert!(
            one_byte_off > checked,
            "known bodies one byte off: {one_byte_off}"
        );
    }

    /// The comparison vouches for the bytes it matches: a value group the
    /// walk refuses — a name that is not UTF-8 — passes when it is the
    /// known body. So only a body that already passed the walk may be
    /// known, which is what makes the two answers agree above.
    #[test]
    fn a_known_body_is_trusted_not_walked() {
        let reply = Message::FoundValue {
            rpc: 7,
            from: Contact {
                id: sha1(b"holder"),
                addr: 2,
            },
            blob: None,
            entries: vec![StoredEntry {
                name: "rock".into(),
                weight: 3,
            }],
            truncated: false,
            version: VersionStamp::ZERO,
            from_cache: false,
            digest: Vec::new(),
        };
        let mut bent = reply.encode_to_bytes().to_vec();
        let at = bent.windows(4).position(|w| w == b"rock").unwrap();
        bent[at] = 0xff;
        let mut known = value_body(&reply).unwrap().to_vec();
        let name_at = known.windows(4).position(|w| w == b"rock").unwrap();
        known[name_at] = 0xff;
        let ty = MessageKind::FoundValue as u8;
        assert!(decode_under(&bent, ty, ValueUse::Skip).0.is_err());
        let (compared, left) = decode_under(&bent, ty, ValueUse::Known(Bytes::from(known)));
        assert_eq!(
            (compared.map(|(m, body)| (m.rpc_id(), body)).ok(), left),
            (Some((7, false)), 0)
        );
    }

    #[test]
    fn an_empty_view_has_no_blob_and_no_entries() {
        let view = ValueView::default();
        assert_eq!((view.blob(), view.entries().count()), (None, 0));
        assert!(!view.truncated && !view.from_cache && view.version.is_zero());
    }

    /// A `u32` field — a contact's address, a `top_n` — is a varint that
    /// fits 32 bits. One past that used to be cut to its low bits, so an
    /// address of 2³² + 3 decoded as 3, a contact aliasing another node's
    /// address; it is refused now, by every decoder alike.
    #[test]
    fn u32_fields_refuse_varints_past_32_bits() {
        let from = Contact {
            id: sha1(b"n"),
            addr: 3,
        };
        let (key, stamp) = (sha1(b"k"), VersionStamp::ZERO);
        let carriers = [
            Message::Ping {
                rpc: 1,
                from: from.clone(),
            },
            Message::FindValue {
                rpc: 1,
                from: from.clone(),
                key,
                top_n: 3,
                no_cache: false,
            },
            Message::CachePush {
                rpc: 1,
                from: from.clone(),
                key,
                top_n: 3,
                blob: None,
                entries: Vec::new(),
                truncated: false,
                version: stamp,
            },
            Message::InvalidatePush {
                rpc: 1,
                from,
                key,
                top_n: 3,
                blob: None,
                entries: Vec::new(),
                truncated: false,
                stamp,
            },
        ];
        for (m, at) in carriers.into_iter().zip([22, 43, 43, 43]) {
            // The address follows type, rpc and id; a width follows the key.
            let enc = m.encode_to_bytes();
            assert_eq!(enc[at], 3, "{m:?}");
            for wide in [u64::from(u32::MAX), 1 << 32, (1 << 32) + 3] {
                let mut bent = BytesMut::new();
                bent.extend_from_slice(&enc[..at]);
                bent.put_varint(wide);
                bent.extend_from_slice(&enc[at + 1..]);
                let decoded = Message::decode_exact(&bent);
                if wide <= u64::from(u32::MAX) {
                    assert_eq!(decoded.expect("fits").encode_to_bytes()[..], bent[..]);
                } else {
                    let err = decoded.unwrap_err().to_string();
                    assert!(
                        err.contains(&format!("varint {wide} overflows u32")),
                        "{err}"
                    );
                }
                check_decoders_agree(&bent);
            }
        }
    }
}
