//! Golden datagrams: one byte literal per message type, spelled field by
//! field in wire order.
//!
//! The codec's other tests hold it to itself: a message round-trips, the
//! decoders agree, a datagram built around a value body equals the owned
//! message's. A layout that swapped two fields of equal size would pass
//! them all, and no benchmark count would move. These literals pin the
//! layout: each message encodes to exactly its bytes, and the bytes decode
//! back to it. Every varint that can be is multi-byte, every id is a
//! different byte, and each pair of flags in one message differs.

use dharma_kademlia::{Contact, DigestEntry, Message, StoredEntry};
use dharma_types::{hex, Id160, VersionStamp, WireDecode, WireEncode};

/// The request id 300.
const RPC: &str = "ac02";
/// The sender: id `11…11`, address 385.
const FROM: &str = "1111111111111111111111111111111111111111 8103";
/// The key of every keyed message: `33…33`.
const KEY: &str = "3333333333333333333333333333333333333333";
/// A stamp: seq 130, writer `55…55`.
const STAMP: &str = "8201 5555555555555555555555555555555555555555";
/// A one-entry digest: key `66…66` at seq 2 by writer `77…77`.
const DIGEST: &str = "01 6666666666666666666666666666666666666666 \
                      02 7777777777777777777777777777777777777777";
/// The blob option, present: `uri`.
const BLOB: &str = "01 03 757269";
/// Two entries: `rock` with weight 70 000, `pop` with weight 5.
const ENTRIES: &str = "02 04 726f636b f0a204 03 706f70 05";
/// The filter width 200.
const TOP_N: &str = "c801";

fn from() -> Contact {
    Contact {
        id: Id160([0x11; 20]),
        addr: 385,
    }
}

fn key() -> Id160 {
    Id160([0x33; 20])
}

fn stamp() -> VersionStamp {
    VersionStamp::new(130, Id160([0x55; 20]))
}

fn digest() -> Vec<DigestEntry> {
    vec![DigestEntry {
        key: Id160([0x66; 20]),
        version: VersionStamp::new(2, Id160([0x77; 20])),
    }]
}

fn blob() -> Option<Vec<u8>> {
    Some(b"uri".to_vec())
}

fn entries() -> Vec<StoredEntry> {
    vec![
        StoredEntry {
            name: "rock".into(),
            weight: 70_000,
        },
        StoredEntry {
            name: "pop".into(),
            weight: 5,
        },
    ]
}

/// `m` encodes to exactly the bytes `fields` spell (hex, concatenated,
/// whitespace ignored), `encoded_len` says so, and the bytes decode back
/// to `m`.
fn golden(m: Message, fields: &[&str]) {
    let spelled: String = fields.concat().split_whitespace().collect();
    let bytes = hex::decode(&spelled).expect("a hex literal");
    assert_eq!(hex::encode(&m.encode_to_bytes()), spelled, "{m:?}");
    assert_eq!(m.encoded_len(), bytes.len(), "{m:?}");
    assert_eq!(Message::decode_exact(&bytes).expect("decodes"), m);
}

#[test]
fn ping() {
    let m = Message::Ping {
        rpc: 300,
        from: from(),
    };
    golden(m, &["01", RPC, FROM]);
}

#[test]
fn pong() {
    let m = Message::Pong {
        rpc: 300,
        from: from(),
        digest: digest(),
    };
    golden(m, &["02", RPC, FROM, DIGEST]);
}

#[test]
fn find_node() {
    let m = Message::FindNode {
        rpc: 300,
        from: from(),
        target: Id160([0x44; 20]),
    };
    golden(
        m,
        &["03", RPC, FROM, "4444444444444444444444444444444444444444"],
    );
}

#[test]
fn found_nodes() {
    let m = Message::FoundNodes {
        rpc: 300,
        from: from(),
        contacts: vec![
            Contact {
                id: Id160([0x88; 20]),
                addr: 2,
            },
            Contact {
                id: Id160([0x99; 20]),
                addr: 200,
            },
        ],
        digest: digest(),
    };
    let contacts = "02 8888888888888888888888888888888888888888 02 \
                    9999999999999999999999999999999999999999 c801";
    golden(m, &["04", RPC, FROM, contacts, DIGEST]);
}

#[test]
fn find_value() {
    let m = Message::FindValue {
        rpc: 300,
        from: from(),
        key: key(),
        top_n: 200,
        no_cache: true,
    };
    golden(m, &["05", RPC, FROM, KEY, TOP_N, "01"]);
}

#[test]
fn found_value() {
    let m = Message::FoundValue {
        rpc: 300,
        from: from(),
        blob: blob(),
        entries: entries(),
        truncated: true,
        version: stamp(),
        from_cache: false,
        digest: digest(),
    };
    golden(
        m,
        &["06", RPC, FROM, BLOB, ENTRIES, "01", STAMP, "00", DIGEST],
    );
    let m = Message::FoundValue {
        rpc: 300,
        from: from(),
        blob: None,
        entries: entries(),
        truncated: false,
        version: stamp(),
        from_cache: true,
        digest: Vec::new(),
    };
    golden(
        m,
        &["06", RPC, FROM, "00", ENTRIES, "00", STAMP, "01", "00"],
    );
}

#[test]
fn store() {
    let m = Message::Store {
        rpc: 300,
        from: from(),
        key: key(),
        blob: b"uri".to_vec(),
        stamp: stamp(),
    };
    golden(m, &["07", RPC, FROM, KEY, "03 757269", STAMP]);
}

#[test]
fn append() {
    let m = Message::Append {
        rpc: 300,
        from: from(),
        key: key(),
        entries: entries(),
        stamp: stamp(),
    };
    golden(m, &["08", RPC, FROM, KEY, ENTRIES, STAMP]);
}

#[test]
fn ack() {
    let m = Message::Ack {
        rpc: 300,
        from: from(),
    };
    golden(m, &["09", RPC, FROM]);
}

#[test]
fn replicate() {
    for (blob, spelled) in [(blob(), BLOB), (None, "00")] {
        let m = Message::Replicate {
            rpc: 300,
            from: from(),
            key: key(),
            blob,
            entries: entries(),
            stamp: stamp(),
        };
        golden(m, &["0a", RPC, FROM, KEY, spelled, ENTRIES, STAMP]);
    }
}

#[test]
fn cache_push() {
    for (blob, spelled, truncated) in [(blob(), BLOB, false), (None, "00", true)] {
        let m = Message::CachePush {
            rpc: 300,
            from: from(),
            key: key(),
            top_n: 200,
            blob,
            entries: entries(),
            truncated,
            version: stamp(),
        };
        let flag = if truncated { "01" } else { "00" };
        golden(
            m,
            &["0b", RPC, FROM, KEY, TOP_N, spelled, ENTRIES, flag, STAMP],
        );
    }
}

#[test]
fn leave() {
    let m = Message::Leave {
        rpc: 300,
        from: from(),
    };
    golden(m, &["0c", RPC, FROM]);
}

#[test]
fn invalidate_push() {
    for (blob, spelled, truncated) in [(blob(), BLOB, true), (None, "00", false)] {
        let m = Message::InvalidatePush {
            rpc: 0,
            from: from(),
            key: key(),
            top_n: 100,
            blob,
            entries: entries(),
            truncated,
            stamp: stamp(),
        };
        let flag = if truncated { "01" } else { "00" };
        golden(
            m,
            &["0d", "00", FROM, KEY, "64", spelled, ENTRIES, flag, STAMP],
        );
    }
}
