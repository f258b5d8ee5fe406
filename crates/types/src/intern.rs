//! The interning table for entry names (tag strings).
//!
//! At simulation scale (10⁴–10⁵ nodes) the dominant RAM cost of a node is
//! its record storage, and the dominant cost of a record is the repeated
//! name material: the same tag names recur across thousands of entries.
//! Interning replaces each repeat with a 4-byte handle into a table that
//! stores the name once.
//!
//! The table is three flat vectors and no per-name allocation:
//!
//! * one **arena** — every name's bytes, concatenated in handle order;
//! * **`ends`** — each name's end offset in the arena, so resolving a
//!   handle is two loads and a slice;
//! * one open-addressed **index** of `(hash fragment, handle + 1)` slots
//!   (0 marks an empty slot), probed linearly and doubled before it is
//!   half full. A probe compares the 32-bit fragment before it compares
//!   any bytes, and a regrow re-places slots from their fragments alone.
//!
//! **The hash is finalised.** The slot and the fragment come from FxHash
//! over the bytes followed by a multiply–xorshift mix, never from the raw
//! Fx value: Fx multiplies whole 8-byte words, so names that differ only
//! in their high bytes (every `r0000123`-style name of one length) share
//! its low bits and would fill one probe cluster. The mix spreads every
//! input bit over the fragment. Like every Fx table in the workspace, the
//! index does not resist names crafted to collide.
//!
//! Handles are dense and in insertion order, so a handle indexes `ends`
//! directly.

use crate::fx::FxHasher;
use std::hash::Hasher;

/// An interned string handle (index into a [`NameInterner`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Sym(u32);

impl Sym {
    /// The dense table index of this symbol.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The 32-bit hash fragment of `name`: FxHash, then the SplitMix64
/// finaliser, high half.
fn fragment(name: &str) -> u32 {
    let mut h = FxHasher::default();
    h.write(name.as_bytes());
    let mut x = h.finish();
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    ((x ^ (x >> 31)) >> 32) as u32
}

/// Index slots of the first non-empty table.
const MIN_SLOTS: usize = 8;

/// A string interner: each distinct name is stored once, handles are
/// [`Sym`]s in insertion order.
#[derive(Clone, Debug, Default)]
pub struct NameInterner {
    /// Every name's bytes, in handle order.
    arena: String,
    /// End offset of each name in `arena`.
    ends: Vec<u32>,
    /// `(fragment, handle + 1)` per slot; a power-of-two length, at most
    /// half full; `(_, 0)` is empty.
    index: Vec<(u32, u32)>,
}

impl NameInterner {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Finds `name`: its handle, or the empty slot where it would go
    /// (slot 0 of an empty index).
    fn probe(&self, name: &str, frag: u32) -> Result<Sym, usize> {
        let Some(mask) = self.index.len().checked_sub(1) else {
            return Err(0);
        };
        let mut at = frag as usize & mask;
        loop {
            match self.index[at] {
                (_, 0) => return Err(at),
                (f, s) if f == frag && self.resolve(Sym(s - 1)) == name => return Ok(Sym(s - 1)),
                _ => at = (at + 1) & mask,
            }
        }
    }

    /// Returns the handle of `name`, inserting it on first sight.
    pub fn intern(&mut self, name: &str) -> Sym {
        let frag = fragment(name);
        let mut at = match self.probe(name, frag) {
            Ok(sym) => return sym,
            Err(at) => at,
        };
        if 2 * (self.ends.len() + 1) > self.index.len() {
            self.grow();
            at = self.probe(name, frag).expect_err("the name is new");
        }
        let sym = u32::try_from(self.ends.len()).expect("interner overflow");
        self.arena.push_str(name);
        let end = u32::try_from(self.arena.len()).expect("interner overflow");
        self.ends.push(end);
        self.index[at] = (frag, sym + 1);
        Sym(sym)
    }

    /// Doubles the index and re-places every slot by its fragment.
    fn grow(&mut self) {
        let slots = (2 * self.index.len()).max(MIN_SLOTS);
        let old = std::mem::replace(&mut self.index, vec![(0, 0); slots]);
        for (frag, s) in old.into_iter().filter(|&(_, s)| s != 0) {
            let mut at = frag as usize & (slots - 1);
            while self.index[at].1 != 0 {
                at = (at + 1) & (slots - 1);
            }
            self.index[at] = (frag, s);
        }
    }

    /// Returns the handle of `name` if it was interned before.
    pub fn lookup(&self, name: &str) -> Option<Sym> {
        self.probe(name, fragment(name)).ok()
    }

    /// The name behind a handle.
    pub fn resolve(&self, sym: Sym) -> &str {
        let i = sym.index();
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.arena[start as usize..self.ends[i] as usize]
    }

    /// Number of distinct interned names.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when nothing was interned yet.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Heap bytes held by the table: the capacities of the arena, the
    /// offsets and the index.
    pub fn heap_bytes(&self) -> usize {
        self.arena.capacity()
            + self.ends.capacity() * std::mem::size_of::<u32>()
            + self.index.capacity() * std::mem::size_of::<(u32, u32)>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl NameInterner {
        /// The farthest any name sits from its home slot.
        fn max_probe_distance(&self) -> usize {
            let mask = self.index.len() - 1;
            (0..self.index.len())
                .filter(|&at| self.index[at].1 != 0)
                .map(|at| at.wrapping_sub(self.index[at].0 as usize) & mask)
                .max()
                .unwrap_or(0)
        }
    }

    #[test]
    fn names_dedupe_and_resolve() {
        let mut t = NameInterner::new();
        assert_eq!(t.lookup("rock"), None);
        let a = t.intern("rock");
        let b = t.intern("jazz");
        let a2 = t.intern("rock");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(t.len(), 2);
        assert_eq!(t.resolve(a), "rock");
        assert_eq!(t.resolve(b), "jazz");
        assert_eq!(t.lookup("rock"), Some(a));
        assert_eq!(t.lookup("metal"), None);
        assert!(!t.is_empty());
        assert!(t.heap_bytes() > 0);
    }

    #[test]
    fn names_survive_many_inserts_with_collisions() {
        // Thousands of short names: exercises probe runs and regrowth and
        // checks the handle ↔ name bijection end-to-end.
        let mut t = NameInterner::new();
        let names: Vec<String> = (0..5_000).map(|i| format!("tag-{i}")).collect();
        let syms: Vec<Sym> = names.iter().map(|n| t.intern(n)).collect();
        assert_eq!(t.len(), names.len());
        for (n, s) in names.iter().zip(&syms) {
            assert_eq!(t.resolve(*s), n.as_str());
            assert_eq!(t.lookup(n), Some(*s));
            assert_eq!(t.intern(n), *s, "re-intern must not grow the table");
        }
        assert_eq!(t.len(), names.len());
    }

    #[test]
    fn empty_and_unusual_names_are_distinct() {
        let mut t = NameInterner::new();
        let empty = t.intern("");
        let nul = t.intern("\0");
        let spaced = t.intern(" ");
        assert_eq!(t.len(), 3);
        assert_ne!(empty, nul);
        assert_ne!(nul, spaced);
        assert_eq!(t.resolve(empty), "");
        assert_eq!(t.resolve(nul), "\0");
        assert_eq!(t.lookup(""), Some(empty));
    }

    #[test]
    fn handles_are_dense_insertion_order() {
        let mut t = NameInterner::new();
        for i in 0..100usize {
            let s = t.intern(&format!("n{i}"));
            assert_eq!(s.index(), i, "handles are dense and ordered");
        }
    }

    /// Names that share their raw Fx low bits (one 8-byte word each, or a
    /// long shared prefix) still spread: no probe run is long.
    #[test]
    fn same_shape_names_keep_probe_runs_short() {
        let n = if cfg!(miri) { 2_000 } else { 100_000 };
        let mut t = NameInterner::new();
        let names: Vec<String> = (0..n)
            .map(|i| format!("r{i:07}"))
            .chain((0..n).map(|i| format!("t{i:010}")))
            .collect();
        let syms: Vec<Sym> = names.iter().map(|n| t.intern(n)).collect();
        assert_eq!(t.len(), names.len());
        assert!(
            t.max_probe_distance() <= 32,
            "probe distance {}",
            t.max_probe_distance()
        );
        for (n, s) in names.iter().zip(&syms) {
            assert_eq!(t.resolve(*s), n.as_str());
            assert_eq!(t.intern(n), *s);
        }
        assert_eq!(t.len(), names.len());
    }
}
