//! Storage tests: token-append semantics, filtered reads, the wire memo
//! held to the owned read, and `apply` held to the calls it stands for.

use super::*;
use crate::messages::{put_found_value_head, put_found_value_tail, Contact, Message};
use dharma_types::{sha1, WireEncode};
use proptest::prelude::*;

/// Mints test stamps from one writer; seq order = write order.
fn st(seq: u64) -> VersionStamp {
    VersionStamp::new(seq, sha1(b"writer"))
}

#[test]
fn append_creates_and_accumulates() {
    let mut s = Storage::new();
    let k = sha1(b"k");
    assert_eq!(s.append(k, "rock", 1, st(1)), 1);
    assert_eq!(s.append(k, "rock", 2, st(2)), 3);
    assert_eq!(s.append(k, "pop", 1, st(3)), 1);
    assert_eq!(s.weight(&k, "rock"), 3);
    assert_eq!(s.weight(&k, "jazz"), 0);
    assert_eq!(s.len(), 1);
}

#[test]
fn append_commutes() {
    let k = sha1(b"k");
    let mut a = Storage::new();
    a.append(k, "x", 1, st(4));
    a.append(k, "y", 5, st(5));
    a.append(k, "x", 2, st(6));
    let mut b = Storage::new();
    b.append(k, "x", 2, st(7));
    b.append(k, "x", 1, st(8));
    b.append(k, "y", 5, st(9));
    assert_eq!(a.weight(&k, "x"), b.weight(&k, "x"));
    assert_eq!(a.weight(&k, "y"), b.weight(&k, "y"));
}

#[test]
fn filtered_read_ranks_by_weight() {
    let mut s = Storage::new();
    let k = sha1(b"k");
    s.append(k, "a", 5, st(10));
    s.append(k, "b", 9, st(11));
    s.append(k, "c", 5, st(12));
    s.append(k, "d", 1, st(13));
    let r = s.read_filtered(&k, 3, usize::MAX).unwrap();
    let names: Vec<&str> = r.entries.iter().map(|e| e.name.as_str()).collect();
    assert_eq!(names, vec!["b", "a", "c"]);
    assert!(r.truncated);
    let r = s.read_filtered(&k, 0, usize::MAX).unwrap();
    assert_eq!(r.entries.len(), 4);
    assert!(!r.truncated);
}

#[test]
fn byte_budget_truncates() {
    let mut s = Storage::new();
    let k = sha1(b"k");
    for i in 0..100 {
        s.append(k, &format!("entry-{i:03}"), 100 - i, st(i + 1));
    }
    // Each entry is ~11 bytes; a 50-byte budget keeps only a few.
    let r = s.read_filtered(&k, 0, 50).unwrap();
    assert!(r.truncated);
    assert!(r.entries.len() < 6);
    // The heaviest entries survive.
    assert_eq!(r.entries[0].name, "entry-000");
}

#[test]
fn blob_and_set_coexist() {
    let mut s = Storage::new();
    let k = sha1(b"k");
    s.put_blob(k, b"uri://thing".to_vec(), st(20));
    s.append(k, "rock", 1, st(14));
    let r = s.read_filtered(&k, 0, usize::MAX).unwrap();
    assert_eq!(r.blob.as_deref(), Some(b"uri://thing".as_slice()));
    assert_eq!(r.entries.len(), 1);
}

#[test]
fn merge_max_is_idempotent() {
    let mut s = Storage::new();
    let k = sha1(b"k");
    s.append(k, "rock", 3, st(15));
    let snapshot = vec![
        StoredEntry {
            name: "rock".into(),
            weight: 5,
        },
        StoredEntry {
            name: "pop".into(),
            weight: 2,
        },
    ];
    s.merge_max(k, Some(b"uri"), &snapshot, st(50), 100);
    s.merge_max(k, Some(b"uri"), &snapshot, st(50), 200);
    assert_eq!(s.weight(&k, "rock"), 5, "max, not sum");
    assert_eq!(s.weight(&k, "pop"), 2);
    assert_eq!(s.get(&k).unwrap().blob(), Some(b"uri".as_slice()));
    // Local value above the snapshot survives.
    s.append(k, "rock", 10, st(16));
    s.merge_max(k, None, &snapshot, st(50), 300);
    assert_eq!(s.weight(&k, "rock"), 15);
}

#[test]
fn expiry_drops_stale_values_only() {
    let mut s = Storage::new();
    let old = sha1(b"old");
    let fresh = sha1(b"fresh");
    s.append(old, "x", 1, st(1));
    s.touch(old, 1_000);
    s.append(fresh, "y", 1, st(2));
    s.touch(fresh, 9_000);
    let dropped = s.expire(10_000, 5_000);
    assert_eq!(dropped, 1);
    assert!(!s.contains(&old));
    assert!(s.contains(&fresh));
    // touch never moves time backwards.
    s.touch(fresh, 1);
    assert_eq!(s.get(&fresh).unwrap().refreshed_us, 9_000);
}

#[test]
fn missing_key_reads_none() {
    let s = Storage::new();
    assert!(s.read_filtered(&sha1(b"nope"), 10, 1000).is_none());
    assert!(!s.contains(&sha1(b"nope")));
}

#[test]
fn snapshot_resolves_interned_names() {
    let mut s = Storage::new();
    let k1 = sha1(b"k1");
    let k2 = sha1(b"k2");
    s.append(k1, "rock", 3, st(17));
    s.append(k1, "pop", 1, st(18));
    // Same names on another key: the intern table stores them once.
    s.append(k2, "rock", 7, st(19));
    s.put_blob(k2, b"uri://x".to_vec(), st(21));
    let (blob, entries, _) = s.snapshot(&k1).unwrap();
    assert!(blob.is_none());
    let mut names: Vec<&str> = entries.iter().map(|e| e.name.as_str()).collect();
    names.sort_unstable();
    assert_eq!(names, vec!["pop", "rock"]);
    assert_eq!(entries.iter().find(|e| e.name == "rock").unwrap().weight, 3);
    let (blob, entries, _) = s.snapshot(&k2).unwrap();
    assert_eq!(blob.as_deref(), Some(b"uri://x".as_slice()));
    assert_eq!(entries.len(), 1);
    assert!(s.snapshot(&sha1(b"absent")).is_none());
    assert!(s.heap_bytes() > 0);
}

#[test]
fn heap_bytes_counts_the_wire_memo() {
    let mut s = Storage::new();
    let k = sha1(b"k");
    for i in 0..50u64 {
        s.append(k, &format!("tag-{i:02}"), i % 7, st(i + 1));
    }
    let written = s.heap_bytes();
    // The owned read ranks for itself and leaves nothing behind ...
    s.read_filtered(&k, 10, usize::MAX).unwrap();
    assert_eq!(s.heap_bytes(), written);
    // ... the serving read leaves the bytes it served, once.
    let mut wide = BytesMut::new();
    s.encode_filtered(&k, 10, usize::MAX, &mut wide).unwrap();
    assert_eq!(s.heap_bytes(), written + wide.len());
    let mut again = BytesMut::new();
    s.encode_filtered(&k, 10, usize::MAX, &mut again).unwrap();
    assert_eq!(
        (again, s.heap_bytes()),
        (wide.clone(), written + wide.len())
    );
    // One memo: another width or budget replaces it.
    let mut narrow = BytesMut::new();
    s.encode_filtered(&k, 0, 64, &mut narrow).unwrap();
    assert!(narrow.len() < wide.len());
    assert_eq!(s.heap_bytes(), written + narrow.len());
    // The body carries the blob, so storing one drops the memo ...
    s.put_blob(k, b"uri".to_vec(), st(60));
    let written = written + 3;
    assert_eq!(s.heap_bytes(), written);
    // ... as does a write (to an existing name: the entry vector is as
    // long as it was).
    let mut served = BytesMut::new();
    s.encode_filtered(&k, 0, usize::MAX, &mut served).unwrap();
    s.append(k, "tag-07", 1, st(61));
    assert_eq!(s.heap_bytes(), written);
    // A replica that raises nothing and offers a blob already held is
    // not a write; one that raises a weight is.
    served.clear();
    s.encode_filtered(&k, 0, usize::MAX, &mut served).unwrap();
    let mut entry = StoredEntry {
        name: "tag-07".into(),
        weight: 1,
    };
    s.merge_max(k, Some(b"other"), std::slice::from_ref(&entry), st(62), 0);
    assert_eq!(s.heap_bytes(), written + served.len());
    entry.weight = 99;
    s.merge_max(k, None, std::slice::from_ref(&entry), st(63), 0);
    assert_eq!(s.heap_bytes(), written);
    // So is one whose blob is adopted.
    let bare = sha1(b"no blob yet");
    s.append(bare, "x", 1, st(64));
    let written = s.heap_bytes();
    s.encode_filtered(&bare, 0, usize::MAX, &mut served)
        .unwrap();
    assert!(s.heap_bytes() > written);
    s.merge_max(bare, Some(b"uri"), &[], st(65), 0);
    assert_eq!(s.heap_bytes(), written + 3);
}

/// What `s` would weigh had nothing been served since the last write.
fn unread_heap_bytes(s: &Storage) -> usize {
    let mut unread = s.clone();
    unread.values.values_mut().for_each(|v| v.memo = None);
    unread.heap_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 64 }))]

    /// The memo is the reference read: at every point of a random
    /// interleaving of `append`, `merge_max` that raises, `merge_max`
    /// that raises nothing, `put_blob`, blob adoption through
    /// `merge_max`, and `remove` + re-create — with serving reads in
    /// between that alternate between two `(top_n, budget)` pairs,
    /// each asked twice running so that both the encoding and the
    /// memoised path answer — the datagram `encode_filtered` serves is
    /// byte for byte the `FoundValue` encoded from a fresh
    /// `read_filtered`, under heavy weight ties and budgets that cut
    /// mid-prefix, and the value holds exactly the served body on top
    /// of its unread size.
    #[test]
    fn served_bytes_equal_the_encoded_owned_read(
        steps in proptest::collection::vec((0u8..8, "[a-dé]{1,3}", 1u64..4), 1..60),
        widths in proptest::collection::vec((0u32..70, 0usize..400), 2..3),
    ) {
        let key = sha1(b"k");
        let from = Contact { id: sha1(b"holder"), addr: 9 };
        let mut s = Storage::new();
        for (i, (kind, name, w)) in steps.into_iter().enumerate() {
            let stamp = st(i as u64 + 1);
            let held = s.snapshot(&key).map(|(_, entries, _)| entries);
            match kind {
                0 | 1 => {
                    s.append(key, &name, w, stamp);
                }
                2 => {
                    let raised = [
                        StoredEntry { name: name.clone(), weight: w * 5 },
                        StoredEntry { name: format!("{name}r"), weight: w },
                    ];
                    s.merge_max(key, None, &raised, stamp, 0);
                }
                3 => s.merge_max(key, None, &held.unwrap_or_default(), stamp, 0),
                4 => s.put_blob(key, name.into_bytes(), stamp),
                5 => s.merge_max(key, Some(name.as_bytes()), &[], stamp, 0),
                6 => {
                    s.remove(&key);
                    s.append(key, &name, w, stamp);
                }
                _ => {}
            }
            // Budgets past 300 stand for "no budget".
            let (top_n, cut) = widths[(i / 2) % 2];
            let budget = if cut < 300 { cut } else { usize::MAX };
            let mut served = BytesMut::new();
            put_found_value_head(&mut served, 7, &from);
            let head = served.len();
            let got = s.encode_filtered(&key, top_n, budget, &mut served);
            let Some(read) = s.read_filtered(&key, top_n, budget) else {
                prop_assert!(got.is_none() && served.len() == head, "step {}", i);
                continue;
            };
            let body = served.len() - head;
            let (truncated, version) = got.unwrap();
            put_found_value_tail(&mut served, truncated, &version, false, &[]);
            let owned = Message::FoundValue {
                rpc: 7,
                from: from.clone(),
                blob: read.blob,
                entries: read.entries,
                truncated: read.truncated,
                version: read.version,
                from_cache: false,
                digest: Vec::new(),
            };
            prop_assert_eq!(
                &served[..],
                &owned.encode_to_bytes()[..],
                "step {} kind {} top_n {} budget {}", i, kind, top_n, budget
            );
            prop_assert_eq!(s.heap_bytes(), unread_heap_bytes(&s) + body, "step {}", i);
        }
        let mut untouched = BytesMut::new();
        prop_assert!(s.encode_filtered(&sha1(b"absent"), 0, 99, &mut untouched).is_none());
        prop_assert!(untouched.is_empty());
    }

    /// `apply` is the separate calls under one lookup: on every body
    /// — an `APPEND` of nothing and a snapshot of nothing included —
    /// at fresh, repeated and stale stamps, on held and absent keys,
    /// it reports the stamp comparison those calls would make and
    /// leaves the same value, stamp, refresh time and served bytes
    /// (a memo built by the read after one step must not survive the
    /// next step's write).
    #[test]
    fn apply_equals_the_calls_it_stands_for(
        steps in proptest::collection::vec((0u8..7, "[a-c]{1,2}", 1u64..4, 0u64..6), 1..40),
    ) {
        let keys = [sha1(b"k0"), sha1(b"k1")];
        let entry = |name: &str, weight: u64| StoredEntry { name: name.into(), weight };
        let (mut one, mut many) = (Storage::new(), Storage::new());
        for (i, (kind, name, w, seq)) in steps.into_iter().enumerate() {
            let (key, stamp, now) = (keys[i % 2], st(seq), (seq * 7 + w) % 23);
            let body = match kind {
                0 => WriteBody::Blob(name.into_bytes()),
                1 | 2 => WriteBody::Entries(vec![entry(&name, w), entry("a", 1)]),
                3 => WriteBody::Entries(Vec::new()),
                4 => WriteBody::Snapshot {
                    blob: Some(name.clone().into_bytes()),
                    entries: vec![entry(&name, w * 3)],
                },
                5 => WriteBody::Snapshot { blob: None, entries: Vec::new() },
                _ => {
                    prop_assert_eq!(one.remove(&key), many.remove(&key));
                    continue;
                }
            };
            let before = many.stamp(&key);
            match &body {
                WriteBody::Blob(blob) => many.put_blob(key, blob.clone(), stamp),
                WriteBody::Entries(entries) => {
                    for e in entries {
                        many.append(key, &e.name, e.weight, stamp);
                    }
                }
                WriteBody::Snapshot { blob, entries } => {
                    many.merge_max(key, blob.as_deref(), entries, stamp, now)
                }
            }
            many.touch(key, now);
            let rose = one.apply(key, &body, stamp, now);
            prop_assert_eq!(rose, many.stamp(&key) > before, "step {} kind {}", i, kind);
            for key in &keys {
                prop_assert_eq!(one.snapshot(key), many.snapshot(key), "step {}", i);
                let refreshed = |s: &Storage| s.get(key).map(|v| v.refreshed_us);
                prop_assert_eq!(refreshed(&one), refreshed(&many), "step {}", i);
                let (mut a, mut b) = (BytesMut::new(), BytesMut::new());
                prop_assert_eq!(
                    one.encode_filtered(key, 2, usize::MAX, &mut a),
                    many.encode_filtered(key, 2, usize::MAX, &mut b),
                    "step {}", i
                );
                prop_assert_eq!(a, b, "step {} kind {}", i, kind);
            }
        }
    }
}

#[test]
fn shared_vocabulary_is_stored_once() {
    // 200 keys × the same 4 tags: entry storage is 200×4 (Sym, u64)
    // pairs, but the name bytes appear exactly 4 times.
    let mut s = Storage::new();
    for i in 0..200u32 {
        let k = sha1(&i.to_be_bytes());
        for tag in ["rock", "pop", "jazz", "metal"] {
            s.append(k, tag, u64::from(i) + 1, st(u64::from(i) + 1));
        }
    }
    assert_eq!(s.len(), 200);
    for i in 0..200u32 {
        let k = sha1(&i.to_be_bytes());
        assert_eq!(s.weight(&k, "jazz"), u64::from(i) + 1);
        assert_eq!(s.get(&k).unwrap().entry_count(), 4);
    }
    // Against a store with 800 *distinct* names, the shared-vocabulary
    // store is strictly smaller: name bytes are paid once, not per key.
    let mut unique = Storage::new();
    for i in 0..200u32 {
        let k = sha1(&i.to_be_bytes());
        for tag in ["rock", "pop", "jazz", "metal"] {
            unique.append(
                k,
                &format!("{tag}-{i}"),
                u64::from(i) + 1,
                st(u64::from(i) + 1),
            );
        }
    }
    assert!(s.heap_bytes() < unique.heap_bytes());
}
