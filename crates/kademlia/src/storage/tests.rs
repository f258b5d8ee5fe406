//! Storage tests: token-append semantics, filtered reads, the wire memo
//! held to the owned read, and `apply` held to the calls it stands for.

use super::*;
use crate::messages::{Contact, Message};
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
    s.merge_max(k, Some(b"uri"), &snapshot, st(50));
    s.merge_max(k, Some(b"uri"), &snapshot, st(50));
    assert_eq!(s.weight(&k, "rock"), 5, "max, not sum");
    assert_eq!(s.weight(&k, "pop"), 2);
    assert_eq!(s.get(&k).unwrap().blob(), Some(b"uri".as_slice()));
    // Local value above the snapshot survives.
    s.append(k, "rock", 10, st(16));
    s.merge_max(k, None, &snapshot, st(50));
    assert_eq!(s.weight(&k, "rock"), 15);
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
    s.merge_max(k, Some(b"other"), std::slice::from_ref(&entry), st(62));
    assert_eq!(s.heap_bytes(), written + served.len());
    entry.weight = 99;
    s.merge_max(k, None, std::slice::from_ref(&entry), st(63));
    assert_eq!(s.heap_bytes(), written);
    // So is one whose blob is adopted.
    let bare = sha1(b"no blob yet");
    s.append(bare, "x", 1, st(64));
    let written = s.heap_bytes();
    s.encode_filtered(&bare, 0, usize::MAX, &mut served)
        .unwrap();
    assert!(s.heap_bytes() > written);
    s.merge_max(bare, Some(b"uri"), &[], st(65));
    assert_eq!(s.heap_bytes(), written + 3);
}

#[test]
fn heap_bytes_counts_the_name_table_by_capacity() {
    let mut s = Storage::new();
    let k = sha1(b"k");
    // Four 4-byte names fill a 16-byte arena, a 4-slot offset vector and
    // an 8-slot index to its half-load line ...
    for (i, name) in ["rock", "jazz", "folk", "punk"].into_iter().enumerate() {
        s.append(k, name, 1, st(i as u64 + 1));
    }
    let full = s.heap_bytes();
    // ... as they fill the value's first four entries (one-entry appends
    // grow the vector by doubling, from four) ...
    let entry = std::mem::size_of::<Entry>();
    assert_eq!(s.get(&k).unwrap().entries.capacity(), 4);
    // ... so a fifth regrows all four: arena 16 → 32 bytes, offsets
    // 4 → 8 (4 bytes each), index 8 → 16 slots (8 bytes each), entries
    // 4 → 8 (12 bytes each).
    s.append(k, "soul", 1, st(5));
    assert_eq!(s.heap_bytes(), full + 16 + 4 * 4 + 8 * 8 + 4 * entry);
    // A sixth fits every new capacity: nothing held grows.
    let grown = s.heap_bytes();
    s.append(k, "funk", 1, st(6));
    assert_eq!(s.heap_bytes(), grown);
}

/// A write of more than `SMALL_BATCH` entries reserves room for exactly
/// the names it adds, so a block filled by large writes holds no spare
/// capacity: a fresh block (a repeated name counts once), a `Replicate`
/// body that adds names to it, and an owned `merge_max` that does.
#[test]
fn a_large_write_fits_its_block_to_its_entries() {
    let names = |from: u64, to: u64| -> Vec<StoredEntry> {
        (from..to)
            .map(|i| StoredEntry {
                name: format!("name-{i:03}"),
                weight: 1 + i % 5,
            })
            .collect()
    };
    let mut s = Storage::new();
    let key = sha1(b"bulk");
    let held = |s: &Storage| {
        let entries = &s.get(&key).unwrap().entries;
        (entries.len(), entries.capacity())
    };
    let mut load = names(0, 40);
    load.push(load[3].clone());
    assert!(s.apply(key, &append_body(&load), st(1)));
    assert_eq!(held(&s), (40, 40));
    // Ten held names and 25 new ones, in an order no holder sends.
    let replica = snapshot_body(None, &names(30, 65));
    assert!(s.apply(key, &replica, st(2)));
    assert_eq!(held(&s), (65, 65));
    s.merge_max(key, None, &names(60, 80), st(3));
    assert_eq!(held(&s), (80, 80));
}

/// An `Append` body: `entries` as listed.
fn append_body(entries: &[StoredEntry]) -> WriteBody {
    WriteBody::Entries(entries.encode_to_bytes())
}

/// A `Store` body: `blob`, length-prefixed.
fn blob_body(blob: &[u8]) -> WriteBody {
    let mut body = BytesMut::new();
    body.put_bytes_field(blob);
    WriteBody::Blob(body.freeze())
}

/// A `Replicate` body: the blob option, then `entries` as listed.
fn snapshot_body(blob: Option<&[u8]>, entries: &[StoredEntry]) -> WriteBody {
    let mut body = BytesMut::new();
    put_opt_blob(&mut body, blob);
    entries.encode(&mut body);
    WriteBody::Snapshot(body.freeze())
}

/// What `s` would weigh had nothing been served since the last write.
/// (Measured in place: a clone's vectors would not keep their capacity.)
fn unread_heap_bytes(s: &mut Storage) -> usize {
    let memos: Vec<_> = s.values.values_mut().map(|v| v.memo.take()).collect();
    let unread = s.heap_bytes();
    s.values
        .values_mut()
        .zip(memos)
        .for_each(|(v, m)| v.memo = m);
    unread
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 64 }))]

    /// The memo is the reference read: at every point of a random
    /// interleaving of `append`, `merge_max` that raises, `merge_max`
    /// that raises nothing, `put_blob` and blob adoption through
    /// `merge_max` — with serving reads in
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
                    s.merge_max(key, None, &raised, stamp);
                }
                3 => s.merge_max(key, None, &held.unwrap_or_default(), stamp),
                4 => s.put_blob(key, name.into_bytes(), stamp),
                5 => s.merge_max(key, Some(name.as_bytes()), &[], stamp),
                _ => {}
            }
            // Budgets past 300 stand for "no budget".
            let (top_n, cut) = widths[(i / 2) % 2];
            let budget = if cut < 300 { cut } else { usize::MAX };
            let mut body = BytesMut::new();
            let got = s.encode_filtered(&key, top_n, budget, &mut body);
            let Some(read) = s.read_filtered(&key, top_n, budget) else {
                prop_assert!(got.is_none() && body.is_empty(), "step {}", i);
                continue;
            };
            let (truncated, version) = got.unwrap();
            let served = Message::FoundValue {
                rpc: 7,
                from: from.clone(),
                blob: None,
                entries: Vec::new(),
                truncated,
                version,
                from_cache: false,
                digest: Vec::new(),
            }
            .encode_around(&body);
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
            let unread = unread_heap_bytes(&mut s);
            prop_assert_eq!(s.heap_bytes(), unread + body.len(), "step {}", i);
        }
        let mut untouched = BytesMut::new();
        prop_assert!(s.encode_filtered(&sha1(b"absent"), 0, 99, &mut untouched).is_none());
        prop_assert!(untouched.is_empty());
    }

    /// `apply` of an encoded body is the public calls it stands for,
    /// under one lookup: a `Store` body is `put_blob`, an `Append` body
    /// is one `append` per entry in its order, a `Replicate` body is
    /// `merge_max` of the entries it carries. On
    /// bodies of every shape — an `Append` of nothing (it writes nothing
    /// and raises no stamp) and a snapshot of nothing, a name repeated
    /// inside one body, more than `SMALL_BATCH` entries (the re-sort
    /// path) and non-ASCII names, each of these `Append`s also named
    /// once ahead of the drawn steps — at fresh, repeated and stale
    /// stamps, on held and absent keys, it reports the stamp comparison
    /// those calls would make and leaves the same value, stamp and served
    /// bytes (a memo built by the read after one step
    /// must not survive the next step's write).
    #[test]
    fn apply_equals_the_calls_it_stands_for(
        steps in proptest::collection::vec(
            (0u8..6, proptest::collection::vec(("[a-cé✓]{1,2}", 1u64..4), 0..40), 0u64..6),
            1..40,
        ),
    ) {
        let keys = [sha1(b"k0"), sha1(b"k1")];
        let (mut one, mut many) = (Storage::new(), Storage::new());
        let shape = |spec: &[(&str, u64)]| -> Vec<(String, u64)> {
            spec.iter().map(|&(name, weight)| (name.to_owned(), weight)).collect()
        };
        let large = (0..SMALL_BATCH as u64 + 9).map(|i| (format!("n{}", i % 19), 1 + i % 3));
        // An empty append to an absent key, a repeated name, a large
        // batch with repeats (to the key the empty one did not create),
        // non-ASCII names, an empty append to a held key.
        let named = [
            (3, Vec::new(), 1),
            (1, shape(&[("a", 1), ("b", 2), ("a", 3)]), 1),
            (1, large.collect(), 2),
            (1, shape(&[("naïve ✓", 2), ("é", 1), ("a", 1)]), 2),
            (3, Vec::new(), 3),
        ];
        for (i, (kind, batch, seq)) in named.into_iter().chain(steps).enumerate() {
            let (key, stamp) = (keys[i % 2], st(seq));
            let entries: Vec<StoredEntry> = (batch.iter())
                .map(|(name, weight)| StoredEntry { name: name.clone(), weight: *weight })
                .collect();
            let name = entries.first().map_or("x", |e| &e.name).to_owned();
            let before = many.stamp(&key);
            let body = match kind {
                0 => {
                    many.put_blob(key, name.clone().into_bytes(), stamp);
                    blob_body(name.as_bytes())
                }
                1..=3 => {
                    let entries = if kind == 3 { &[][..] } else { &entries[..] };
                    for e in entries {
                        many.append(key, &e.name, e.weight, stamp);
                    }
                    append_body(entries)
                }
                4 => {
                    let tail = [StoredEntry { name: "b".into(), weight: 2 }];
                    let sent = if entries.is_empty() { &tail[..] } else { &entries[..] };
                    many.merge_max(key, Some(name.as_bytes()), sent, stamp);
                    snapshot_body(Some(name.as_bytes()), sent)
                }
                _ => {
                    many.merge_max(key, None, &[], stamp);
                    snapshot_body(None, &[])
                }
            };
            let rose = one.apply(key, &body, stamp);
            prop_assert_eq!(rose, many.stamp(&key) > before, "step {} kind {}", i, kind);
            for key in &keys {
                prop_assert_eq!(one.snapshot(key), many.snapshot(key), "step {}", i);
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

/// The reference read of a model block: its entries in reply order
/// (weight descending, ties by name ascending), the first `top_n` (0 =
/// all) cut where their encodings pass `budget`, encoded after the blob
/// option; and whether anything was cut.
fn reference_read(
    blob: Option<&[u8]>,
    model: &BTreeMap<String, u64>,
    top_n: u32,
    budget: usize,
) -> (Vec<u8>, bool) {
    let mut ranked: Vec<(&String, u64)> = model.iter().map(|(n, &w)| (n, w)).collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    let mut body = BytesMut::new();
    put_opt_blob(&mut body, blob);
    let mut kept = Vec::new();
    let mut used = 0;
    for &(name, weight) in ranked.iter().take(if top_n == 0 {
        usize::MAX
    } else {
        top_n as usize
    }) {
        used += StoredEntry {
            name: name.clone(),
            weight,
        }
        .encoded_len();
        if used > budget {
            break;
        }
        kept.push(StoredEntry {
            name: name.clone(),
            weight,
        });
    }
    kept.encode(&mut body);
    (body.to_vec(), kept.len() < ranked.len())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 64 }))]

    /// Blocks are kept in reply order under every write, and a read is a
    /// prefix of it. A random interleaving of single- and multi-entry
    /// appends (heavy weight ties, non-ASCII names, repeated names within
    /// one batch), `merge_max` that raises, raises nothing or adds names,
    /// a `Replicate` body that agrees with the held block up to a random
    /// point, storing and adopting a blob, and batches large enough to take the re-sort path, is held after every
    /// step to an independent `BTreeMap` model: the stored order is the
    /// model sorted by (weight desc, name asc), and `encode_filtered` is
    /// the model's reference encoding byte for byte at three
    /// `(top_n, budget)` pairs — whole, a top-4 prefix, and a budget that
    /// cuts mid-prefix.
    #[test]
    fn ranked_blocks_equal_the_full_rerank(
        steps in proptest::collection::vec(
            (0u8..10, "[a-dé✓]{1,3}", 1u64..4, proptest::collection::vec(("[a-eé]{1,2}", 0u64..4), 0..40)),
            1..40,
        ),
    ) {
        let key = sha1(b"k");
        let mut s = Storage::new();
        let mut model: BTreeMap<String, u64> = BTreeMap::new();
        let mut blob: Option<Vec<u8>> = None;
        let entries = |batch: &[(String, u64)]| -> Vec<StoredEntry> {
            batch.iter().map(|(name, weight)| StoredEntry { name: name.clone(), weight: *weight }).collect()
        };
        for (i, (kind, name, w, batch)) in steps.into_iter().enumerate() {
            let stamp = st(i as u64 + 1);
            let raise = |model: &mut BTreeMap<String, u64>, written: &[StoredEntry]| {
                for e in written {
                    let held = model.entry(e.name.clone()).or_default();
                    *held = (*held).max(e.weight);
                }
            };
            match kind {
                0 => {
                    let got = s.append(key, &name, w, stamp);
                    let held = model.entry(name).or_default();
                    *held += w;
                    prop_assert_eq!(got, *held);
                }
                1 | 2 => {
                    // A batch of either size: up to 40 entries, so both
                    // the rotations and the re-sort are taken.
                    let written = entries(&batch);
                    s.apply(key, &append_body(&written), stamp);
                    for e in written {
                        *model.entry(e.name).or_default() += e.weight;
                    }
                }
                3 => {
                    let raised = [
                        StoredEntry { name: name.clone(), weight: w * 5 },
                        StoredEntry { name: format!("{name}r"), weight: w },
                    ];
                    s.merge_max(key, None, &raised, stamp);
                    raise(&mut model, &raised);
                }
                4 => {
                    let held = s.snapshot(&key).map(|(_, e, _)| e).unwrap_or_default();
                    s.merge_max(key, None, &held, stamp);
                    let added = entries(&batch);
                    s.merge_max(key, None, &added, stamp);
                    raise(&mut model, &added);
                }
                5 => {
                    // What a peer holding the same block, raised from one
                    // random point on, would send.
                    let mut held = s.snapshot(&key).map(|(_, e, _)| e).unwrap_or_default();
                    let from = batch.len() % (held.len() + 1);
                    held.iter_mut().skip(from).for_each(|e| e.weight += w % 2);
                    held.extend(entries(&batch));
                    let body = snapshot_body(Some(name.as_bytes()), &held);
                    s.apply(key, &body, stamp);
                    raise(&mut model, &held);
                    blob.get_or_insert_with(|| name.into_bytes());
                }
                6 => {
                    s.put_blob(key, name.clone().into_bytes(), stamp);
                    blob = Some(name.into_bytes());
                }
                7 => {
                    s.merge_max(key, Some(name.as_bytes()), &[], stamp);
                    blob.get_or_insert_with(|| name.into_bytes());
                }
                _ => {
                    let held = s.snapshot(&key).map(|(_, e, _)| e).unwrap_or_default();
                    s.apply(key, &snapshot_body(None, &held), stamp);
                }
            }
            let mut ranked: Vec<(String, u64)> = model.iter().map(|(n, &w)| (n.clone(), w)).collect();
            ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            let Some((_, stored, _)) = s.snapshot(&key) else {
                // Only an empty append can leave the key unwritten.
                prop_assert!(model.is_empty() && blob.is_none(), "step {}", i);
                continue;
            };
            let stored: Vec<(String, u64)> = stored.into_iter().map(|e| (e.name, e.weight)).collect();
            prop_assert_eq!(&stored, &ranked, "step {} kind {}", i, kind);
            for (top_n, budget) in [(0, usize::MAX), (4, usize::MAX), (0, 24)] {
                let mut body = BytesMut::new();
                let (truncated, _) = s.encode_filtered(&key, top_n, budget, &mut body).unwrap();
                let (want, cut) = reference_read(blob.as_deref(), &model, top_n, budget);
                prop_assert_eq!(&body[..], &want[..], "step {} kind {} top_n {} budget {}", i, kind, top_n, budget);
                prop_assert_eq!(truncated, cut, "step {}", i);
            }
        }
    }
}

/// A block of 40 entries under heavy weight ties, with a memo served.
fn held_block() -> (Storage, Id160) {
    let (mut s, key) = (Storage::new(), sha1(b"block"));
    for i in 0..40u64 {
        s.append(
            key,
            &format!("tag-{:02}-é", (i * 7) % 40),
            1 + i % 3,
            st(i + 1),
        );
    }
    s.encode_filtered(&key, 10, usize::MAX, &mut BytesMut::new());
    (s, key)
}

/// A `Replicate` of exactly the held block is a confirmation: no name is
/// interned, the wire memo stays, and the stamp still rises to the
/// incoming one.
#[test]
fn a_replicate_equal_to_the_held_block_interns_nothing_and_keeps_the_memo() {
    let (mut s, key) = held_block();
    let (body, _) = s.encode_snapshot(&key).unwrap();
    let (names, heap) = (s.names.len(), s.heap_bytes());
    assert!(s.get(&key).unwrap().memo.is_some());
    assert!(s.apply(key, &WriteBody::Snapshot(body), st(99)));
    assert_eq!((s.names.len(), s.heap_bytes()), (names, heap));
    let held = s.get(&key).unwrap();
    assert!(held.memo.is_some(), "the memo survives");
    assert_eq!(held.version, st(99));
}

/// A `Replicate` that differs from the held block — one weight raised or
/// lowered, one extra name, a blob to adopt, a holder with fewer entries,
/// entries in an order no holder sends — leaves the state and the served
/// bytes `merge_max` of the owned entries leaves.
#[test]
fn a_replicate_that_differs_merges_like_merge_max() {
    let (held, key) = held_block();
    let (_, entries, _) = held.snapshot(&key).unwrap();
    for what in [
        "raised",
        "lowered",
        "extra name",
        "blob",
        "fewer",
        "reversed",
    ] {
        let (mut sent, mut blob) = (entries.clone(), None);
        match what {
            "raised" => sent[17].weight += 1,
            "lowered" => sent[3].weight -= 1,
            "extra name" => sent.insert(
                5,
                StoredEntry {
                    name: "new ✓".into(),
                    weight: 2,
                },
            ),
            "blob" => blob = Some(b"uri://adopted".to_vec()),
            "fewer" => {
                sent.remove(11);
                sent.truncate(30);
            }
            _ => {
                sent.reverse();
                sent[0].weight = 9;
            }
        }
        let (mut wire, mut owned) = (held.clone(), held.clone());
        let body = snapshot_body(blob.as_deref(), &sent);
        let rose = wire.apply(key, &body, st(99));
        owned.merge_max(key, blob.as_deref(), &sent, st(99));
        assert!(rose, "{what}");
        assert_eq!(wire.snapshot(&key), owned.snapshot(&key), "{what}");
        assert_eq!(wire.names.len(), owned.names.len(), "{what}");
        assert_eq!(wire.heap_bytes(), owned.heap_bytes(), "{what}");
        for (top_n, budget) in [(0, usize::MAX), (10, usize::MAX), (0, 90)] {
            let (mut a, mut b) = (BytesMut::new(), BytesMut::new());
            assert_eq!(
                wire.encode_filtered(&key, top_n, budget, &mut a),
                owned.encode_filtered(&key, top_n, budget, &mut b),
                "{what}"
            );
            assert_eq!(a, b, "{what} at {top_n} / {budget}");
        }
    }
}

/// A `Replicate` that agrees with the held block up to entry 20 and then
/// differs — a raised weight under a held name, a new non-ASCII name, an
/// entry dropped — merges as `merge_max` of the owned entries: the names
/// compared byte for byte in the agreeing prefix and checked as UTF-8 in
/// the tail resolve to the same symbols.
#[test]
fn a_replicate_with_a_differing_non_ascii_tail_merges_like_merge_max() {
    let (held, key) = held_block();
    let (_, mut sent, _) = held.snapshot(&key).unwrap();
    sent[20].weight += 4;
    sent.insert(
        26,
        StoredEntry {
            name: "naïve-ü ✓".into(),
            weight: 2,
        },
    );
    sent.remove(33);
    let (mut wire, mut owned) = (held.clone(), held.clone());
    assert!(wire.apply(key, &snapshot_body(None, &sent), st(99)));
    owned.merge_max(key, None, &sent, st(99));
    assert_eq!(wire.snapshot(&key), owned.snapshot(&key));
    assert_eq!(wire.names.len(), held.names.len() + 1);
    assert_eq!(wire.names.len(), owned.names.len());
    assert_eq!(wire.heap_bytes(), owned.heap_bytes());
}

/// A name that is not UTF-8 is refused with the error a string field
/// fails with, wherever it stands: first, in the agreeing prefix beside a
/// held name of its length, or in the tail after a difference.
#[test]
fn a_replicate_body_with_a_name_that_is_not_utf8_is_refused() {
    let (held, key) = held_block();
    let (_, entries, _) = held.snapshot(&key).unwrap();
    let raw_entry = |raw: &[u8], weight| {
        let mut buf = BytesMut::new();
        buf.put_bytes_field(raw);
        buf.put_varint(weight);
        buf
    };
    let mut bent = entries[5].name.clone().into_bytes();
    bent[0] = 0xc3; // a lead byte before an ASCII byte
    for (at, raw) in [
        (0, &b"\xff"[..]),
        (5, &bent[..]),
        (30, &"é".as_bytes()[..1]),
    ] {
        let mut body = BytesMut::new();
        put_opt_blob(&mut body, None);
        body.put_varint(entries.len() as u64);
        for (i, e) in entries.iter().enumerate() {
            match i.cmp(&at) {
                Ordering::Equal => body.extend_from_slice(&raw_entry(raw, e.weight)),
                // The tail case differs in a weight just before.
                Ordering::Less if at == 30 && i == 29 => {
                    body.extend_from_slice(&raw_entry(e.name.as_bytes(), e.weight + 1))
                }
                _ => e.encode(&mut body),
            }
        }
        let mut state = held.get(&key).unwrap().clone();
        let mut names = held.names.clone();
        let err = state.merge_body(&mut names, &body).unwrap_err();
        assert_eq!(
            err.to_string(),
            "decode error: invalid utf-8 in string field",
            "at {at}"
        );
        let mut cursor: &[u8] = &raw_entry(raw, 1);
        assert_eq!(cursor.get_str().unwrap_err().to_string(), err.to_string());
    }
}
