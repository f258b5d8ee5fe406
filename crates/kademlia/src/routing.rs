//! The Kademlia routing table: 160 `k`-buckets ordered by XOR distance.
//!
//! Bucket `i` holds contacts whose distance to the local id has its highest
//! bit at position `i` (i.e. shares an `i`-bit prefix). Buckets keep
//! **least-recently-seen order**: fresh contacts go to the tail, re-seen
//! contacts move to the tail, and eviction prefers the stale head.
//!
//! Eviction policy: the original paper pings the least-recently-seen contact
//! before dropping it. The node layer implements exactly that as the
//! **default** — an RPC timeout or a full bucket does not evict outright;
//! the suspect is probed with a `PING` and only a failed probe removes it
//! (see `KadConfig::ping_before_evict`). The table itself stays
//! probe-agnostic: it additionally keeps the common *replacement cache* —
//! a full bucket stashes newcomers in a side cache and promotes them when a
//! resident contact is evicted — so a confirmed-dead resident is replaced
//! without losing the newcomer that exposed it. Setting
//! `ping_before_evict = false` restores the old evict-on-first-timeout
//! behavior (replacement cache only).
//!
//! ## Rank tests without sorting: the bucket lemma
//!
//! "Do I still rank within `n` of this key?" is asked on every reply (the
//! digest build, the `FIND_VALUE` serve gate) and once per held key by the
//! maintenance sweeps. It needs a *count* of closer contacts, not the
//! contacts, and the bucket structure gives that count without computing a
//! single distance. Let `d = local ⊕ target` and `b` its leading-zero
//! count. A contact `c` of bucket `j` agrees with the local id on the first
//! `j` bits and differs at bit `j`, so `c ⊕ target` equals `d` on the
//! first `j` bits and has `¬d[j]` at bit `j`. Three cases follow:
//!
//! * `j < b`: `d[j] = 0`, so `c ⊕ target` has a one where `d` has a zero —
//!   every contact of the bucket is **farther** from the target than the
//!   local id;
//! * `j = b`: `d[b] = 1` by definition of `b`, so the bit is cleared —
//!   every contact of the bucket is **closer**;
//! * `j > b`: the first differing bit is `j` itself — the whole bucket is
//!   closer iff `d[j] = 1`.
//!
//! All three say the same thing: *bucket `j` is closer to the target than
//! the local id iff bit `j` of `d` is set*. The number of closer contacts
//! is therefore a sum of bucket lengths over the set bits of `d`
//! ([`RoutingTable::local_ranks_within`]). The walk stops as soon as the
//! sum reaches `n`, and never goes past the deepest bucket that ever held
//! a contact — which the table tracks, because in an overlay of `N` nodes
//! only the first ~`log2 N` buckets hold anyone and a walk over all 160
//! would cost as much as the scan it replaces. The same argument with a
//! contact in place of the local id ([`RoutingTable::ranks_within`])
//! decides every bucket but the contact's own wholesale.
//!
//! ### From a count to the contacts: buckets in distance order
//!
//! The lemma compares a bucket with the local id; the same bit compares
//! two buckets. Take `j < j'`, `c` in bucket `j`, `c'` in bucket `j'`. Both
//! `c ⊕ target` and `c' ⊕ target` equal `d` on the first `j` bits; at bit
//! `j` the first has `¬d[j]` and the second — still on the local id's side
//! of that branch — has `d[j]`. So a bucket whose bit of `d` is **set** is
//! wholly closer to the target than *every deeper bucket*, and a bucket
//! whose bit is **clear** is wholly farther than every deeper bucket.
//! Peeling buckets off from the shallow end, each one goes to the front of
//! what is left (bit set) or to its back (bit clear), which is a total
//! order on buckets: **the set-bit buckets, shallowest first, then the
//! clear-bit buckets, deepest first**. Contacts of different buckets never
//! interleave, so the table in ascending distance is that sequence of
//! buckets, each sorted within itself.
//!
//! [`RoutingTable::closest`] is that walk, cut off at `n`: it takes whole
//! buckets until fewer than a bucketful is missing, selects the rest from
//! the next one, and never looks at a bucket past the answer. Only taken
//! buckets have distances computed (as two machine words, not twenty
//! bytes) and sorted, at most `k` keys at a time. For `n = k` that is the
//! buckets holding the `k` nearest contacts plus at most one partial one —
//! about `k` to `2k` contacts touched however many the table holds — and
//! the number of buckets visited depends on where the target falls: a
//! target in a full shallow bucket is answered from that bucket alone,
//! one deep inside the local id's own branch from the sparse deep buckets
//! (many visited, few contacts in each).

use std::cmp::Ordering;

use dharma_types::{Id160, ID160_BITS};

use crate::messages::Contact;

/// Maximum contacts kept in a bucket's replacement cache.
const REPLACEMENT_CACHE: usize = 8;

/// What [`RoutingTable::note_contact`] did with a contact.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NoteOutcome {
    /// The contact entered a bucket for the first time — a *new* live
    /// neighbor (the node layer's join-handoff trigger).
    Inserted,
    /// The contact was already live; its recency/address were refreshed.
    Refreshed,
    /// The bucket was full; the contact went to the replacement cache.
    Stashed,
    /// The contact was the local id and was ignored.
    Ignored,
}

/// One `k`-bucket with its replacement cache.
#[derive(Clone, Debug, Default)]
pub struct KBucket {
    /// Live contacts, least-recently-seen first.
    entries: Vec<Contact>,
    /// Standby contacts waiting for a slot.
    replacements: Vec<Contact>,
}

impl KBucket {
    /// Live contacts, LRS first.
    pub fn contacts(&self) -> &[Contact] {
        &self.entries
    }

    /// Number of live contacts.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the bucket holds no live contacts.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Records activity from `c`.
    fn note(&mut self, c: Contact, k: usize) -> NoteOutcome {
        if let Some(pos) = self.entries.iter().position(|e| e.id == c.id) {
            // Re-seen: refresh address and move to most-recent position.
            let mut e = self.entries.remove(pos);
            e.addr = c.addr;
            self.entries.push(e);
            return NoteOutcome::Refreshed;
        }
        if self.entries.len() < k {
            self.entries.push(c);
            return NoteOutcome::Inserted;
        }
        // Full: stash in the replacement cache (newest kept last).
        self.stash(c);
        NoteOutcome::Stashed
    }

    /// Like [`KBucket::note`], but with **proximity neighbor selection**:
    /// when the bucket is full and the newcomer's measured RTT is strictly
    /// lower than the worst measured resident's, that resident is demoted
    /// to the replacement cache and the newcomer takes its slot. Residents
    /// without an estimate are never demoted (unmeasured ≠ slow), and a
    /// newcomer without an estimate is stashed as usual. The second return
    /// reports whether a PNS demotion happened.
    fn note_pns(
        &mut self,
        c: Contact,
        k: usize,
        rtt: &dyn Fn(&Id160) -> Option<u64>,
    ) -> (NoteOutcome, bool) {
        if self.entries.len() >= k && !self.entries.iter().any(|e| e.id == c.id) {
            if let Some(new_rtt) = rtt(&c.id) {
                let worst = self
                    .entries
                    .iter()
                    .enumerate()
                    .filter_map(|(i, e)| rtt(&e.id).map(|r| (i, r)))
                    .max_by_key(|&(_, r)| r);
                if let Some((pos, worst_rtt)) = worst {
                    if new_rtt < worst_rtt {
                        // The newcomer may have been stashed earlier; it
                        // must not live in both lists.
                        if let Some(p) = self.replacements.iter().position(|e| e.id == c.id) {
                            self.replacements.remove(p);
                        }
                        let demoted = self.entries.remove(pos);
                        self.stash(demoted);
                        self.entries.push(c);
                        return (NoteOutcome::Inserted, true);
                    }
                }
            }
        }
        (self.note(c, k), false)
    }

    /// Puts `c` into the replacement cache (newest kept last, deduplicated,
    /// capped at [`REPLACEMENT_CACHE`]).
    fn stash(&mut self, c: Contact) {
        if let Some(pos) = self.replacements.iter().position(|e| e.id == c.id) {
            self.replacements.remove(pos);
        }
        self.replacements.push(c);
        if self.replacements.len() > REPLACEMENT_CACHE {
            self.replacements.remove(0);
        }
    }

    /// Removes a failed contact and promotes the freshest replacement.
    /// Returns true when a *live* entry was evicted (a replacement-cache
    /// removal or unknown id is not a membership event).
    fn fail(&mut self, id: &Id160) -> bool {
        if let Some(pos) = self.entries.iter().position(|e| e.id == *id) {
            self.entries.remove(pos);
            if let Some(promoted) = self.replacements.pop() {
                self.entries.push(promoted);
            }
            true
        } else {
            if let Some(pos) = self.replacements.iter().position(|e| e.id == *id) {
                self.replacements.remove(pos);
            }
            false
        }
    }
}

/// An id as a big-endian integer pair: the XOR of two ids' words compares
/// like their [`dharma_types::Distance`], in two machine comparisons
/// instead of twenty.
fn words(id: &Id160) -> (u128, u32) {
    let (hi, lo) = id.as_bytes().split_at(16);
    (
        u128::from_be_bytes(hi.try_into().expect("16 of 20 bytes")),
        u32::from_be_bytes(lo.try_into().expect("4 of 20 bytes")),
    )
}

/// The full routing table.
#[derive(Clone, Debug)]
pub struct RoutingTable {
    local: Id160,
    k: usize,
    buckets: Vec<KBucket>,
    /// High-water mark: no bucket at or past `depth` has ever held a
    /// contact, so walks over contacts stop here instead of visiting all
    /// 160 buckets (an `N`-node overlay fills about `log2 N` of them).
    depth: usize,
}

impl RoutingTable {
    /// A table for node `local` with bucket capacity `k`.
    pub fn new(local: Id160, k: usize) -> Self {
        RoutingTable {
            local,
            k,
            buckets: vec![KBucket::default(); ID160_BITS],
            depth: 0,
        }
    }

    /// The local node id.
    pub fn local_id(&self) -> Id160 {
        self.local
    }

    /// Bucket capacity `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Index of the bucket responsible for `id`, or `None` for the local id.
    pub fn bucket_index(&self, id: &Id160) -> Option<usize> {
        self.local.distance(id).bucket_index()
    }

    /// Records activity from a contact (any received message).
    /// Self-contacts are ignored.
    pub fn note_contact(&mut self, c: Contact) -> NoteOutcome {
        let Some(i) = self.bucket_index(&c.id) else {
            return NoteOutcome::Ignored;
        };
        self.depth = self.depth.max(i + 1);
        self.buckets[i].note(c, self.k)
    }

    /// Records activity from a contact with **proximity neighbor
    /// selection**: `rtt` supplies the current smoothed RTT estimate for
    /// any id. A full bucket demotes its slowest measured resident to the
    /// replacement cache when the newcomer is measurably faster; in every
    /// other case this behaves exactly like [`RoutingTable::note_contact`].
    /// The second return reports whether a PNS demotion happened.
    pub fn note_contact_pns(
        &mut self,
        c: Contact,
        rtt: &dyn Fn(&Id160) -> Option<u64>,
    ) -> (NoteOutcome, bool) {
        let Some(i) = self.bucket_index(&c.id) else {
            return (NoteOutcome::Ignored, false);
        };
        self.depth = self.depth.max(i + 1);
        self.buckets[i].note_pns(c, self.k, rtt)
    }

    /// Records a confirmed failure for `id` (RPC timeout, or a failed
    /// liveness probe under ping-before-evict), evicting it and promoting
    /// the freshest replacement-cache contact into the freed slot. Returns
    /// true when a live contact was actually evicted — the node layer's
    /// departure signal for the churn estimator (repeat failures of an
    /// already-gone id must not count twice).
    pub fn note_failure(&mut self, id: &Id160) -> bool {
        match self.bucket_index(id) {
            Some(i) => self.buckets[i].fail(id),
            None => false,
        }
    }

    /// True when `id` is a live contact in some bucket.
    pub fn contains(&self, id: &Id160) -> bool {
        self.bucket_index(id)
            .map(|i| self.buckets[i].entries.iter().any(|e| e.id == *id))
            .unwrap_or(false)
    }

    /// The least-recently-seen live contact of the first non-empty bucket
    /// at or after `start` (wrapping) — the probe target of the liveness
    /// maintenance loop — together with its bucket index. `None` when the
    /// table is empty.
    pub fn probe_candidate(&self, start: usize) -> Option<(usize, Contact)> {
        (0..self.buckets.len()).find_map(|off| {
            let i = (start + off) % self.buckets.len();
            self.buckets[i].entries.first().map(|c| (i, c.clone()))
        })
    }

    /// Total live contacts.
    pub fn len(&self) -> usize {
        self.buckets[..self.depth].iter().map(KBucket::len).sum()
    }

    /// True when the table knows nobody.
    pub fn is_empty(&self) -> bool {
        self.buckets[..self.depth].iter().all(KBucket::is_empty)
    }

    /// The bucket at index `i` (tests and maintenance).
    pub fn bucket(&self, i: usize) -> &KBucket {
        &self.buckets[i]
    }

    /// Iterates every live contact (graceful-leave notices, diagnostics).
    pub fn iter(&self) -> impl Iterator<Item = &Contact> {
        self.buckets[..self.depth]
            .iter()
            .flat_map(|b| b.entries.iter())
    }

    /// Bucket indices in ascending distance from `target` — the total
    /// order of the module docs: buckets whose bit of `local ⊕ target` is
    /// set, shallowest first, then the clear-bit buckets, deepest first.
    fn bucket_order(&self, target: &Id160) -> impl Iterator<Item = usize> {
        let d = self.local.distance(target);
        let closer = (0..self.depth).filter(move |&j| d.as_id().bit(j));
        let farther = (0..self.depth).rev().filter(move |&j| !d.as_id().bit(j));
        closer.chain(farther)
    }

    /// The `n` known contacts closest to `target`, ascending by XOR
    /// distance. Never includes the local node (it is not a contact).
    /// Walks the buckets in distance order (module docs) and stops once
    /// `n` contacts are taken: each taken bucket is sorted within itself
    /// (at most `k` integer keys), only the last, partially taken one is
    /// selected from first, and a bucket past the answer is never looked
    /// at — the cost follows `n` and where the target falls, not the size
    /// of the table. Callers that only need to know *whether* an id ranks
    /// within `n` use [`RoutingTable::local_ranks_within`] or
    /// [`RoutingTable::ranks_within`], which materialise nothing.
    pub fn closest(&self, target: &Id160, n: usize) -> Vec<Contact> {
        let mut out = Vec::with_capacity(n.min(self.depth * self.k));
        let t = words(target);
        let mut keyed: Vec<((u128, u32), usize)> = Vec::with_capacity(self.k);
        for j in self.bucket_order(target) {
            let want = n - out.len();
            if want == 0 {
                break;
            }
            let entries = &self.buckets[j].entries;
            keyed.clear();
            keyed.extend(entries.iter().enumerate().map(|(i, c)| {
                let id = words(&c.id);
                ((id.0 ^ t.0, id.1 ^ t.1), i)
            }));
            if keyed.len() > want {
                keyed.select_nth_unstable(want - 1);
                keyed.truncate(want);
            }
            keyed.sort_unstable();
            out.extend(keyed.iter().map(|&(_, i)| entries[i].clone()));
        }
        out
    }

    /// True when fewer than `n` known contacts are strictly closer to
    /// `target` than the local id — the local node is among the `n`
    /// closest of everyone it knows, itself included. Equal to
    /// `closest(target, n)` being short of `n` contacts or ending on one
    /// farther than the local id, at the cost of a few bucket lengths (the
    /// bucket lemma in the module docs): no distance is computed and
    /// nothing is allocated.
    pub fn local_ranks_within(&self, target: &Id160, n: usize) -> bool {
        let d = self.local.distance(target);
        let mut closer = 0usize;
        for j in (0..self.depth).filter(|&j| d.as_id().bit(j)) {
            closer += self.buckets[j].len();
            if closer >= n {
                return false;
            }
        }
        closer < n
    }

    /// True when `id` is a live contact and fewer than `n` other contacts
    /// are strictly closer to `target` — `closest(target, n)` would return
    /// it. With `i` the bucket of `id`, the bucket lemma decides every
    /// other bucket wholesale: a shallower bucket `j < i` is closer than
    /// `id` iff bit `j` of `local ⊕ target` is set, and the deeper buckets
    /// are closer *all together* iff bit `i` is clear (then the target lies
    /// on the local side of `id`'s branch). Only `id`'s own bucket — at
    /// most `k` contacts — is compared by distance.
    pub fn ranks_within(&self, id: &Id160, target: &Id160, n: usize) -> bool {
        let Some(i) = self.bucket_index(id) else {
            return false; // the local id is never a contact
        };
        let d = self.local.distance(target);
        let mut closer = 0usize;
        let wholly_closer = |j: usize| match j.cmp(&i) {
            Ordering::Less => d.as_id().bit(j),
            Ordering::Equal => false,
            Ordering::Greater => !d.as_id().bit(i),
        };
        for j in (0..self.depth).filter(|&j| wholly_closer(j)) {
            closer += self.buckets[j].len();
            if closer >= n {
                return false;
            }
        }
        let own = id.distance(target);
        let mut live = false;
        for c in &self.buckets[i].entries {
            live |= c.id == *id;
            closer += usize::from(c.id.distance(target) < own);
        }
        live && closer < n
    }

    /// Buckets that contain at least one contact, as `(index, len)` pairs.
    pub fn occupancy(&self) -> Vec<(usize, usize)> {
        self.buckets[..self.depth]
            .iter()
            .enumerate()
            .filter(|(_, b)| !b.is_empty())
            .map(|(i, b)| (i, b.len()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dharma_types::sha1;

    fn contact(n: u64) -> Contact {
        Contact {
            id: sha1(&n.to_le_bytes()),
            addr: n as u32,
        }
    }

    fn table() -> RoutingTable {
        RoutingTable::new(sha1(b"local"), 4)
    }

    #[test]
    fn notes_and_finds_contacts() {
        let mut rt = table();
        for n in 0..20 {
            rt.note_contact(contact(n));
        }
        assert!(!rt.is_empty());
        let target = sha1(b"target");
        let closest = rt.closest(&target, 5);
        assert_eq!(closest.len(), 5);
        // Ascending distance order.
        for w in closest.windows(2) {
            assert!(w[0].id.distance(&target) <= w[1].id.distance(&target));
        }
    }

    #[test]
    fn self_contact_is_ignored() {
        let mut rt = table();
        let me = Contact {
            id: rt.local_id(),
            addr: 0,
        };
        assert_eq!(rt.note_contact(me), NoteOutcome::Ignored);
        assert!(rt.is_empty());
    }

    #[test]
    fn bucket_keeps_lrs_order_and_caps_at_k() {
        let local = Id160::ZERO;
        let mut rt = RoutingTable::new(local, 2);
        // Craft ids in the same bucket (highest bit set → bucket 0).
        let mk = |tail: u8| {
            let mut b = [0u8; 20];
            b[0] = 0x80;
            b[19] = tail;
            Contact {
                id: Id160::from_bytes(b),
                addr: u32::from(tail),
            }
        };
        assert_eq!(rt.note_contact(mk(1)), NoteOutcome::Inserted);
        assert_eq!(rt.note_contact(mk(2)), NoteOutcome::Inserted);
        // Bucket full: newcomer goes to replacements.
        assert_eq!(rt.note_contact(mk(3)), NoteOutcome::Stashed);
        assert_eq!(rt.bucket(0).len(), 2);
        // Re-seeing contact 1 moves it to most-recent.
        assert_eq!(rt.note_contact(mk(1)), NoteOutcome::Refreshed);
        assert_eq!(rt.bucket(0).contacts()[1].addr, 1);
        // Failure of 2 promotes 3 from the cache.
        rt.note_failure(&mk(2).id);
        let ids: Vec<u32> = rt.bucket(0).contacts().iter().map(|c| c.addr).collect();
        assert!(ids.contains(&1) && ids.contains(&3));
    }

    #[test]
    fn reseen_contact_updates_address() {
        let mut rt = table();
        let mut c = contact(5);
        rt.note_contact(c.clone());
        c.addr = 99;
        rt.note_contact(c.clone());
        let found = rt.closest(&c.id, 1);
        assert_eq!(found[0].addr, 99);
        assert_eq!(rt.len(), 1, "no duplicates");
    }

    #[test]
    fn failure_of_unknown_contact_is_noop() {
        let mut rt = table();
        rt.note_contact(contact(1));
        assert!(!rt.note_failure(&sha1(b"stranger")), "unknown: no eviction");
        assert_eq!(rt.len(), 1);
        assert!(rt.note_failure(&contact(1).id), "live entry evicted");
        assert!(
            !rt.note_failure(&contact(1).id),
            "an already-gone contact is not a second departure"
        );
    }

    #[test]
    fn closest_with_fewer_known_than_requested() {
        let mut rt = table();
        rt.note_contact(contact(1));
        rt.note_contact(contact(2));
        assert_eq!(rt.closest(&sha1(b"x"), 10).len(), 2);
        assert_eq!(table().closest(&sha1(b"x"), 10).len(), 0);
    }

    #[test]
    fn buckets_are_walked_set_bits_ascending_then_clear_bits_descending() {
        let mut rt = RoutingTable::new(Id160::ZERO, 2);
        // With a zero local id, bucket `j` is the ids whose first set bit
        // is `j`. One contact in each of buckets 0..=5, a second in 4;
        // `addr` names the bucket.
        let member = |bucket: usize, tail: u8| {
            let mut b = [0u8; 20];
            b[0] = 0x80 >> bucket;
            b[19] = tail;
            Contact {
                id: Id160::from_bytes(b),
                addr: bucket as u32,
            }
        };
        for j in 0..6 {
            rt.note_contact(member(j, 1));
        }
        rt.note_contact(member(4, 2));
        // `local ⊕ target` has bits 1 and 4 set.
        let mut t = [0u8; 20];
        t[0] = 0b0100_1000;
        let target = Id160::from_bytes(t);
        let order: Vec<usize> = rt.bucket_order(&target).collect();
        assert_eq!(order, vec![1, 4, 5, 3, 2, 0]);
        let all = rt.closest(&target, 8);
        let buckets: Vec<u32> = all.iter().map(|c| c.addr).collect();
        assert_eq!(buckets, vec![1, 4, 4, 5, 3, 2, 0], "bucket by bucket");
        for w in all.windows(2) {
            assert!(w[0].id.distance(&target) < w[1].id.distance(&target));
        }
        // A cut inside bucket 4 keeps the nearer of its two contacts.
        assert_eq!(rt.closest(&target, 2), vec![member(1, 1), member(4, 1)]);
        // Toward the local id no bit is set: deepest bucket first.
        let home: Vec<usize> = rt.bucket_order(&Id160::ZERO).collect();
        assert_eq!(home, vec![5, 4, 3, 2, 1, 0]);
    }

    #[test]
    fn probe_candidate_walks_buckets_lrs_first() {
        let mut rt = table();
        assert!(rt.probe_candidate(0).is_none(), "empty table");
        for n in 0..30 {
            rt.note_contact(contact(n));
        }
        let (i, c) = rt.probe_candidate(0).expect("populated table");
        // The candidate is the least-recently-seen entry of its bucket.
        assert_eq!(rt.bucket(i).contacts()[0].id, c.id);
        assert!(rt.contains(&c.id));
        // Starting past the last bucket wraps around.
        let (j, _) = rt.probe_candidate(dharma_types::ID160_BITS - 1).unwrap();
        assert!(j < dharma_types::ID160_BITS);
        // A failed probe evicts the candidate.
        rt.note_failure(&c.id);
        assert!(!rt.contains(&c.id));
    }

    #[test]
    fn pns_demotes_the_slowest_measured_resident() {
        let local = Id160::ZERO;
        let mut rt = RoutingTable::new(local, 2);
        let mk = |tail: u8| {
            let mut b = [0u8; 20];
            b[0] = 0x80;
            b[19] = tail;
            Contact {
                id: Id160::from_bytes(b),
                addr: u32::from(tail),
            }
        };
        rt.note_contact(mk(1));
        rt.note_contact(mk(2));
        // RTT oracle: contact 1 is slow (80ms), 2 fast (5ms), 3 medium (20ms).
        let rtt = |id: &Id160| {
            [(mk(1).id, 80_000u64), (mk(2).id, 5_000), (mk(3).id, 20_000)]
                .iter()
                .find(|(i, _)| i == id)
                .map(|&(_, r)| r)
        };
        // The measurably faster newcomer displaces the slow resident.
        let (outcome, evicted) = rt.note_contact_pns(mk(3), &rtt);
        assert_eq!(outcome, NoteOutcome::Inserted);
        assert!(evicted);
        let ids: Vec<u32> = rt.bucket(0).contacts().iter().map(|c| c.addr).collect();
        assert_eq!(ids, vec![2, 3], "slow resident demoted, fast ones stay");
        // The demoted resident waits in the replacement cache: failing a
        // live entry brings it back.
        rt.note_failure(&mk(3).id);
        assert!(rt.contains(&mk(1).id), "demotion is not amnesia");
    }

    #[test]
    fn pns_never_demotes_unmeasured_residents() {
        let local = Id160::ZERO;
        let mut rt = RoutingTable::new(local, 2);
        let mk = |tail: u8| {
            let mut b = [0u8; 20];
            b[0] = 0x80;
            b[19] = tail;
            Contact {
                id: Id160::from_bytes(b),
                addr: u32::from(tail),
            }
        };
        rt.note_contact(mk(1));
        rt.note_contact(mk(2));
        // Only the newcomer is measured: nobody can be judged slower.
        let rtt = |id: &Id160| (*id == mk(3).id).then_some(1_000u64);
        let (outcome, evicted) = rt.note_contact_pns(mk(3), &rtt);
        assert_eq!(outcome, NoteOutcome::Stashed);
        assert!(!evicted);
        // An unmeasured newcomer is stashed even when residents are slow.
        let rtt2 = |id: &Id160| (*id != mk(4).id).then_some(50_000u64);
        let (outcome, evicted) = rt.note_contact_pns(mk(4), &rtt2);
        assert_eq!(outcome, NoteOutcome::Stashed);
        assert!(!evicted);
        // Refresh of a resident never goes through the PNS path.
        let (outcome, evicted) = rt.note_contact_pns(mk(1), &rtt2);
        assert_eq!(outcome, NoteOutcome::Refreshed);
        assert!(!evicted);
    }

    #[test]
    fn occupancy_reports_nonempty_buckets() {
        let mut rt = table();
        for n in 0..50 {
            rt.note_contact(contact(n));
        }
        let occ = rt.occupancy();
        let total: usize = occ.iter().map(|(_, l)| l).sum();
        assert_eq!(total, rt.len());
        assert!(!occ.is_empty());
    }
}
