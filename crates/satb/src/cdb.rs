//! Arena-backed clause database.
//!
//! Clauses live in one contiguous `Vec<u32>` arena instead of being
//! individually boxed: each clause is a fixed 4-word header (size +
//! flags, LBD, activity, proof id) followed by its literal codes, and
//! is addressed by a [`CRef`] — the word offset of its header. This
//! keeps unit propagation on a single allocation (cache-friendly, no
//! pointer chasing) and makes deletion O(1): a clause is freed by
//! setting a mark bit, and the arena is compacted by a copying
//! [`ClauseDb::collect`] pass once enough words are wasted. Compaction
//! leaves a forwarding pointer in each moved clause's header so the
//! solver can remap its watch lists and reason references.
//!
//! The layout mirrors MiniSat's `ClauseAllocator` and the flat
//! databases of modern IC3 solvers; see `SNIPPETS.md` for the idiom.

use crate::lit::Lit;
use crate::proof::ClauseId;

/// Reference to a clause: the word offset of its header in the arena.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CRef(pub(crate) u32);

impl CRef {
    /// Sentinel for "no clause".
    pub const UNDEF: CRef = CRef(u32::MAX);

    /// The raw arena offset.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Words of header preceding the literals of every clause.
const HEADER_WORDS: usize = 4;
/// Header flag: the clause was learned (eligible for reduction).
const FLAG_LEARNT: u32 = 1;
/// Header flag: the clause has been deleted (space is garbage).
const FLAG_DELETED: u32 = 1 << 1;
/// Header flag: the clause has been relocated during compaction; the
/// LBD word holds the forwarding offset.
const FLAG_RELOCED: u32 = 1 << 2;
/// First bit of the size field.
const SIZE_SHIFT: u32 = 3;

/// A flat clause arena with mark-and-compact garbage collection.
#[derive(Clone, Debug, Default)]
pub struct ClauseDb {
    arena: Vec<u32>,
    /// Words occupied by deleted clauses (reclaimable by `collect`).
    wasted: usize,
    /// Live original clauses, in insertion order.
    originals: Vec<CRef>,
    /// Live learned clauses, in insertion order.
    learnts: Vec<CRef>,
    /// High-water mark of the arena, in bytes.
    peak_bytes: usize,
}

impl ClauseDb {
    /// Creates an empty database.
    pub fn new() -> ClauseDb {
        ClauseDb::default()
    }

    /// Pre-allocates room for `words` additional arena words.
    pub fn reserve_words(&mut self, words: usize) {
        self.arena.reserve(words);
    }

    /// Current arena footprint in bytes.
    pub fn bytes(&self) -> usize {
        self.arena.len() * 4
    }

    /// High-water arena footprint in bytes.
    pub fn peak_bytes(&self) -> usize {
        self.peak_bytes
    }

    /// Words currently wasted on deleted clauses.
    pub fn wasted_words(&self) -> usize {
        self.wasted
    }

    /// Live original clauses in insertion order.
    pub fn originals(&self) -> &[CRef] {
        &self.originals
    }

    /// Live learned clauses in insertion order.
    pub fn learnts(&self) -> &[CRef] {
        &self.learnts
    }

    /// Number of live clauses (original + learned).
    pub fn len(&self) -> usize {
        self.originals.len() + self.learnts.len()
    }

    /// Whether no live clause is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Allocates a clause and returns its reference.
    pub fn alloc(&mut self, lits: &[Lit], learnt: bool, proof_id: ClauseId) -> CRef {
        debug_assert!(!lits.is_empty(), "empty clauses are not stored");
        // Watchers pack a CRef into 31 bits; fail loudly (also in
        // release builds) instead of silently corrupting references.
        assert!(
            self.arena.len() + lits.len() < (u32::MAX / 2) as usize,
            "clause arena exceeds the 31-bit CRef range"
        );
        let cref = CRef(self.arena.len() as u32);
        let flags = if learnt { FLAG_LEARNT } else { 0 };
        self.arena.push(((lits.len() as u32) << SIZE_SHIFT) | flags);
        self.arena.push(0); // LBD
        self.arena.push(0f32.to_bits()); // activity
        self.arena.push(proof_id.0);
        self.arena.extend(lits.iter().map(|l| l.0));
        self.peak_bytes = self.peak_bytes.max(self.bytes());
        if learnt {
            self.learnts.push(cref);
        } else {
            self.originals.push(cref);
        }
        cref
    }

    /// Number of literals of the clause.
    #[inline]
    pub fn size(&self, c: CRef) -> usize {
        (self.arena[c.index()] >> SIZE_SHIFT) as usize
    }

    /// Whether the clause was learned.
    #[inline]
    pub fn is_learnt(&self, c: CRef) -> bool {
        self.arena[c.index()] & FLAG_LEARNT != 0
    }

    /// Whether the clause has been deleted.
    #[inline]
    pub fn is_deleted(&self, c: CRef) -> bool {
        self.arena[c.index()] & FLAG_DELETED != 0
    }

    /// The clause's literals.
    #[inline]
    pub fn lits(&self, c: CRef) -> &[Lit] {
        let start = c.index() + HEADER_WORDS;
        let len = self.size(c);
        // Lit is a transparent u32 wrapper; reinterpret the words.
        unsafe { std::slice::from_raw_parts(self.arena[start..start + len].as_ptr().cast(), len) }
    }

    /// The clause's literals, writable in place: propagation reads and
    /// reorders a visited clause through this one slice, with one
    /// bounds check, instead of indexing the arena per literal.
    #[inline]
    pub fn lits_mut(&mut self, c: CRef) -> &mut [Lit] {
        let start = c.index() + HEADER_WORDS;
        let len = self.size(c);
        let words = &mut self.arena[start..start + len];
        // SAFETY: `Lit` is `repr(transparent)` over `u32`, so every word
        // is a valid `Lit` of the same size and alignment, and `words` is
        // an exclusive, bounds-checked borrow of exactly `len` words that
        // the returned slice replaces for the same lifetime.
        unsafe { std::slice::from_raw_parts_mut(words.as_mut_ptr().cast(), len) }
    }

    /// One literal of the clause.
    #[inline]
    pub fn lit(&self, c: CRef, i: usize) -> Lit {
        debug_assert!(i < self.size(c));
        Lit(self.arena[c.index() + HEADER_WORDS + i])
    }

    /// The clause's literal-block distance (glue), set for learned
    /// clauses at learn time.
    #[inline]
    pub fn lbd(&self, c: CRef) -> u32 {
        self.arena[c.index() + 1]
    }

    /// Updates the clause's LBD.
    #[inline]
    pub fn set_lbd(&mut self, c: CRef, lbd: u32) {
        self.arena[c.index() + 1] = lbd;
    }

    /// The clause's reduction activity.
    #[inline]
    pub fn activity(&self, c: CRef) -> f32 {
        f32::from_bits(self.arena[c.index() + 2])
    }

    /// Overwrites the clause's reduction activity.
    #[inline]
    pub fn set_activity(&mut self, c: CRef, a: f32) {
        self.arena[c.index() + 2] = a.to_bits();
    }

    /// The clause's proof id (meaningless when proof logging is off).
    #[inline]
    pub fn proof_id(&self, c: CRef) -> ClauseId {
        ClauseId(self.arena[c.index() + 3])
    }

    /// Marks the clause deleted. The registry entry is removed by the
    /// caller (reduction rebuilds the learnt registry wholesale); the
    /// arena words are reclaimed by the next [`collect`](Self::collect).
    pub fn free(&mut self, c: CRef) {
        debug_assert!(!self.is_deleted(c));
        self.arena[c.index()] |= FLAG_DELETED;
        self.wasted += HEADER_WORDS + self.size(c);
    }

    /// Replaces the learnt registry after a reduction pass.
    pub(crate) fn set_learnts(&mut self, learnts: Vec<CRef>) {
        self.learnts = learnts;
    }

    /// Removes the given ascending `doomed` crefs from one registry
    /// (used by activation-group release, which frees individual
    /// clauses rather than rebuilding a registry wholesale). Both the
    /// registry and `doomed` are in allocation order, and released
    /// clauses were allocated recently, so the scan binary-searches to
    /// the first doomed entry and only rewrites the registry tail —
    /// near-O(1) for the hot per-query release path.
    pub(crate) fn remove_from_registry(&mut self, learnt: bool, doomed: &[CRef]) {
        debug_assert!(doomed.windows(2).all(|w| w[0] < w[1]));
        let registry = if learnt {
            &mut self.learnts
        } else {
            &mut self.originals
        };
        let Some(&first) = doomed.first() else { return };
        let start = registry.binary_search(&first).unwrap_or_else(|i| i);
        let mut w = start;
        let mut d = 0;
        for r in start..registry.len() {
            let c = registry[r];
            if d < doomed.len() && doomed[d] == c {
                d += 1;
                continue;
            }
            registry[w] = c;
            w += 1;
        }
        debug_assert_eq!(d, doomed.len(), "doomed cref missing from registry");
        registry.truncate(w);
    }

    /// Whether enough words are wasted that compaction pays off.
    pub fn should_collect(&self) -> bool {
        self.wasted * 5 > self.arena.len() && self.wasted > 1024
    }

    /// Copying compaction: moves all live clauses into a fresh arena
    /// and returns the relocation so the solver can remap watch lists
    /// and reason references. Clause order (and thus every registry
    /// index) is preserved.
    pub fn collect(&mut self) -> Relocation {
        let mut next = Vec::with_capacity(self.arena.len() - self.wasted);
        let mut originals = Vec::with_capacity(self.originals.len());
        let mut learnts = Vec::with_capacity(self.learnts.len());
        for (registry, out) in [
            (&self.originals, &mut originals),
            (&self.learnts, &mut learnts),
        ] {
            for &c in registry.iter() {
                debug_assert!(!self.is_deleted(c));
                let from = c.index();
                let words = HEADER_WORDS + self.size(c);
                let to = CRef(next.len() as u32);
                next.extend_from_slice(&self.arena[from..from + words]);
                // Forwarding pointer for watch/reason remapping.
                self.arena[from] |= FLAG_RELOCED;
                self.arena[from + 1] = to.0;
                out.push(to);
            }
        }
        let old = std::mem::replace(&mut self.arena, next);
        self.originals = originals;
        self.learnts = learnts;
        self.wasted = 0;
        Relocation { old }
    }
}

/// The old arena after a [`ClauseDb::collect`]; maps stale [`CRef`]s to
/// their new locations through the forwarding pointers left behind.
pub struct Relocation {
    old: Vec<u32>,
}

impl Relocation {
    /// The new location of a clause that was live at collection time.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `c` referred to a deleted clause:
    /// deleted clauses are not relocated and must not be reachable.
    #[inline]
    pub fn forward(&self, c: CRef) -> CRef {
        debug_assert!(
            self.old[c.index()] & FLAG_RELOCED != 0,
            "dangling CRef survived into compaction"
        );
        CRef(self.old[c.index() + 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(codes: &[usize]) -> Vec<Lit> {
        codes.iter().map(|&c| Lit::from_code(c)).collect()
    }

    #[test]
    fn alloc_and_accessors() {
        let mut db = ClauseDb::new();
        let c0 = db.alloc(&lits(&[0, 2, 5]), false, ClauseId(7));
        let c1 = db.alloc(&lits(&[1, 3]), true, ClauseId(8));
        assert_eq!(db.size(c0), 3);
        assert_eq!(db.size(c1), 2);
        assert!(!db.is_learnt(c0));
        assert!(db.is_learnt(c1));
        assert_eq!(db.lits(c0), lits(&[0, 2, 5]).as_slice());
        assert_eq!(db.proof_id(c0), ClauseId(7));
        assert_eq!(db.proof_id(c1), ClauseId(8));
        db.set_lbd(c1, 2);
        assert_eq!(db.lbd(c1), 2);
        db.set_activity(c1, 1.5);
        assert!((db.activity(c1) - 1.5).abs() < 1e-6);
        db.lits_mut(c0).swap(0, 2);
        assert_eq!(db.lits(c0), lits(&[5, 2, 0]).as_slice());
        assert_eq!(db.len(), 2);
        assert!(db.bytes() > 0 && db.peak_bytes() >= db.bytes());
    }

    #[test]
    fn free_and_collect_relocate() {
        let mut db = ClauseDb::new();
        let a = db.alloc(&lits(&[0, 2]), false, ClauseId(0));
        let b = db.alloc(&lits(&[4, 6, 8]), true, ClauseId(1));
        let c = db.alloc(&lits(&[1, 3]), true, ClauseId(2));
        db.free(b);
        db.set_learnts(vec![c]);
        assert_eq!(db.wasted_words(), HEADER_WORDS + 3);
        let reloc = db.collect();
        let a2 = reloc.forward(a);
        let c2 = reloc.forward(c);
        assert_eq!(db.lits(a2), lits(&[0, 2]).as_slice());
        assert_eq!(db.lits(c2), lits(&[1, 3]).as_slice());
        assert_eq!(db.proof_id(c2), ClauseId(2));
        assert!(db.is_learnt(c2) && !db.is_learnt(a2));
        assert_eq!(db.wasted_words(), 0);
        assert_eq!(db.originals(), &[a2]);
        assert_eq!(db.learnts(), &[c2]);
    }

    #[test]
    fn lits_mut_writes_through_to_the_arena() {
        let mut db = ClauseDb::new();
        let a = db.alloc(&lits(&[0, 2, 5]), false, ClauseId(3));
        let b = db.alloc(&lits(&[1, 3, 7, 9]), true, ClauseId(4));
        let view = db.lits_mut(b);
        assert_eq!(view.len(), 4);
        view.swap(0, 3);
        view[1] = Lit::from_code(11);
        assert_eq!(db.lits(b), lits(&[9, 11, 7, 1]).as_slice());
        // The neighbour and both headers are untouched.
        assert_eq!(db.lits(a), lits(&[0, 2, 5]).as_slice());
        assert_eq!((db.size(b), db.proof_id(b)), (4, ClauseId(4)));
        assert!(db.is_learnt(b) && !db.is_learnt(a));
    }

    #[test]
    fn large_clause_roundtrip() {
        let mut db = ClauseDb::new();
        let many: Vec<Lit> = (0..500).map(Lit::from_code).collect();
        let c = db.alloc(&many, true, ClauseId(0));
        assert_eq!(db.size(c), 500);
        assert_eq!(db.lits(c), many.as_slice());
    }
}
