//! The lossy computed cache memoising boolean operations.
//!
//! Unlike a general-purpose map, the computed cache of a BDD kernel does not
//! need to remember everything (Brace, Rudell & Bryant's computed table): a
//! lost entry only costs a recomputation, so the cache is an array of
//! fixed-size entries where a colliding insert simply overwrites a previous
//! occupant. This bounds the cache's memory no matter how long an analysis
//! runs.
//!
//! An entry is 16 bytes, `{a, b, c | op, result}`: the operation tag plus
//! one sits in the top four bits of the third key word, so an all-zero entry
//! is empty, and a key whose third word does not fit in the remaining 28
//! bits bypasses the cache (a lossy cache may always miss, so answers stay
//! exact at every arena size). Entries are grouped in two-way sets of one
//! aligned 32-byte block, so a probe touches a single hardware cache line.
//!
//! There is no generation word. A garbage collection sweeps the table once
//! and keeps every entry whose operands and result survive
//! ([`ComputedCache::retain`]); reordering empties it
//! ([`ComputedCache::invalidate_all`]).
//!
//! The slot count starts small (tiny managers stay tiny) and doubles under
//! its own insert traffic up to a configurable hard cap, after which the
//! cache is truly fixed-size and lossy.

/// log2 of the initial slot count.
const INITIAL_LOG2: u32 = 12;

/// log2 of the default hard cap on the slot count (2^23 slots × 16 bytes
/// per entry = 128 MiB). The cap exists so the cache cannot outgrow every
/// other allocation; the cache only doubles after four inserts per slot, so
/// it binds only on runs that memoise tens of millions of results.
const DEFAULT_MAX_LOG2: u32 = 23;

/// Bits of the third key word stored verbatim; the op tag sits above them.
const C_BITS: u32 = 28;

/// One cache entry; all zero when empty (a stored entry's op field is the
/// tag plus one, never zero).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[repr(C)]
struct Entry {
    a: u32,
    b: u32,
    /// `(op + 1) << C_BITS | c`.
    c_op: u32,
    result: u32,
}

impl Entry {
    #[inline(always)]
    fn is_empty(&self) -> bool {
        self.c_op == 0
    }

    #[inline(always)]
    fn matches(&self, a: u32, b: u32, c_op: u32) -> bool {
        self.a == a && self.b == b && self.c_op == c_op
    }

    /// The four words an entry names: both operands, the third key word
    /// without its tag, and the result.
    #[inline(always)]
    fn words(&self) -> [u32; 4] {
        [self.a, self.b, self.c_op & ((1 << C_BITS) - 1), self.result]
    }
}

/// A two-way set: one aligned 32-byte block, so both ways share a hardware
/// cache line.
#[derive(Debug, Clone, Copy, Default)]
#[repr(C, align(32))]
struct Set {
    ways: [Entry; 2],
}

/// Number of distinct operation tags the per-op counters can track. The
/// BDD manager uses 7 tags and the ZDD manager 7; one array covers both.
/// A tag plus one must fit in the four bits above [`C_BITS`], so fifteen
/// tags is also the most a key can carry.
pub(crate) const MAX_OPS: usize = 16;

const _: () = assert!(crate::manager::Op::COUNT < MAX_OPS);
const _: () = assert!(crate::zdd::ZOp::COUNT < MAX_OPS);

/// Hit/miss counters of one operation tag.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct OpCounters {
    pub(crate) hits: u64,
    pub(crate) misses: u64,
}

/// Statistics counters of a [`ComputedCache`]. The hot lookup path only
/// ever bumps one per-op counter; the aggregate hit/miss totals are
/// derived sums, so the per-op split costs nothing over a single pair of
/// global counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct CacheCounters {
    pub(crate) overwrites: u64,
    /// Per-operation hit/miss counters, indexed by the op tag.
    pub(crate) per_op: [OpCounters; MAX_OPS],
}

impl CacheCounters {
    /// Total lookups answered from the cache, across all operations.
    pub(crate) fn hits(&self) -> u64 {
        self.per_op.iter().map(|op| op.hits).sum()
    }

    /// Total lookups that missed, across all operations.
    pub(crate) fn misses(&self) -> u64 {
        self.per_op.iter().map(|op| op.misses).sum()
    }
}

/// A two-way set-associative lossy operation cache.
#[derive(Debug, Clone)]
pub(crate) struct ComputedCache {
    sets: Vec<Set>,
    /// `sets.len() - 1` (the set count is a power of two).
    set_mask: usize,
    max_log2: u32,
    /// Whether any entry may be non-empty; lets repeated invalidations
    /// (one per adjacent swap while sifting) skip the sweep.
    dirty: bool,
    /// Inserts since the last resize, driving the bounded growth heuristic.
    inserts_since_resize: u64,
    /// Number of entry-array growths over the cache's lifetime; reported
    /// as `ManagerStats::cache_growths` and observed by the budget
    /// checkpoints as a fault-injection site.
    growths: u64,
    counters: CacheCounters,
}

/// Packs an op tag and the third key word, or `None` if `c` does not fit
/// in [`C_BITS`] bits (the key then bypasses the cache).
#[inline(always)]
fn pack(op: u8, c: u32) -> Option<u32> {
    debug_assert!((op as usize) < MAX_OPS - 1, "op tag {op} out of range");
    (c >> C_BITS == 0).then_some((op as u32 + 1) << C_BITS | c)
}

/// The key's hash: the splitmix64 finaliser (shared with the unique table)
/// for full avalanche, since the masked low bits must depend on every key
/// bit, or keys sharing low operand bits pile onto one set and thrash.
#[inline(always)]
fn hash(a: u32, b: u32, c_op: u32) -> u64 {
    let folded =
        (((a as u64) << 32) | b as u64) ^ (c_op as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    crate::table::splitmix64(folded)
}

impl ComputedCache {
    /// Creates a cache with the default initial size and growth cap.
    pub(crate) fn new() -> Self {
        Self::with_max_log2(DEFAULT_MAX_LOG2)
    }

    /// Creates a cache whose slot count never exceeds `2^max_log2` (one
    /// two-way set at least).
    pub(crate) fn with_max_log2(max_log2: u32) -> Self {
        let max_log2 = max_log2.max(1);
        let sets = 1 << (INITIAL_LOG2.min(max_log2) - 1);
        ComputedCache {
            sets: vec![Set::default(); sets],
            set_mask: sets - 1,
            max_log2,
            dirty: false,
            inserts_since_resize: 0,
            growths: 0,
            counters: CacheCounters::default(),
        }
    }

    /// Number of entry-array growths so far (monotone).
    #[inline]
    pub(crate) fn growth_events(&self) -> u64 {
        self.growths
    }

    /// Number of slots currently allocated.
    #[inline]
    pub(crate) fn capacity(&self) -> usize {
        2 * self.sets.len()
    }

    /// The hard cap on the slot count.
    pub(crate) fn max_capacity(&self) -> usize {
        1 << self.max_log2
    }

    /// Cache statistics counters.
    #[inline]
    pub(crate) fn counters(&self) -> CacheCounters {
        self.counters
    }

    /// The set of a packed key and its primary way (the one an insert
    /// overwrites when both are taken).
    #[inline(always)]
    fn locate(&self, a: u32, b: u32, c_op: u32) -> (usize, usize) {
        let h = hash(a, b, c_op);
        (h as usize & self.set_mask, (h >> 63) as usize)
    }

    /// Looks up a memoised result in the two ways of the key's set.
    #[inline]
    pub(crate) fn get(&mut self, op: u8, a: u32, b: u32, c: u32) -> Option<u32> {
        // Two-way set associativity: one hot collision pair coexists
        // instead of evicting each other on every probe, which is what
        // turns a deep recursion's memoisation quadratic.
        let hit = pack(op, c).and_then(|c_op| {
            let (set, _) = self.locate(a, b, c_op);
            let ways = &self.sets[set].ways;
            ways.iter()
                .find(|e| e.matches(a, b, c_op))
                .map(|e| e.result)
        });
        let counters = &mut self.counters.per_op[op as usize & (MAX_OPS - 1)];
        match hit {
            Some(_) => counters.hits += 1,
            None => counters.misses += 1,
        }
        hit
    }

    /// Memoises a result, overwriting the primary way of the key's set if
    /// both ways are taken by other keys. A key that does not fit the
    /// entry layout is not stored.
    #[inline]
    pub(crate) fn put(&mut self, op: u8, a: u32, b: u32, c: u32, result: u32) {
        let Some(c_op) = pack(op, c) else {
            return;
        };
        self.inserts_since_resize += 1;
        if self.inserts_since_resize > 4 * self.capacity() as u64
            && self.capacity() < self.max_capacity()
        {
            self.grow();
        }
        self.dirty = true;
        let entry = Entry { a, b, c_op, result };
        let (set, primary) = self.locate(a, b, c_op);
        if !self.place(set, entry) {
            self.counters.overwrites += 1;
            self.sets[set].ways[primary] = entry;
        }
    }

    /// Stores `entry` in a way of `set` that is empty or already holds its
    /// key; returns false if both ways hold other keys.
    #[inline(always)]
    fn place(&mut self, set: usize, entry: Entry) -> bool {
        for e in &mut self.sets[set].ways {
            if e.is_empty() || e.matches(entry.a, entry.b, entry.c_op) {
                *e = entry;
                return true;
            }
        }
        false
    }

    /// Empties every entry (reordering and explicit cache clears). A
    /// cache with no insert since the last invalidation is not swept.
    pub(crate) fn invalidate_all(&mut self) {
        if self.dirty {
            self.sets.fill(Set::default());
            self.dirty = false;
        }
    }

    /// Keeps exactly the entries all four of whose words satisfy `live`
    /// (both operands, the third key word and the result) and empties the
    /// rest, in one pass over the table. The BDD manager's garbage
    /// collection passes "the node this edge points at is marked", so
    /// every entry naming a reclaimed node goes and every other survives.
    pub(crate) fn retain(&mut self, mut live: impl FnMut(u32) -> bool) {
        if !self.dirty {
            return;
        }
        for set in &mut self.sets {
            for e in &mut set.ways {
                // The result first: an operation's result is more often a
                // dead intermediate than its operands are.
                let [a, b, c, result] = e.words();
                let keep = e.is_empty() || (live(result) && live(a) && live(b) && live(c));
                if !keep {
                    *e = Entry::default();
                }
            }
        }
    }

    /// The four words (see [`ComputedCache::retain`]) of every occupied
    /// entry, for audits.
    pub(crate) fn occupied(&self) -> impl Iterator<Item = [u32; 4]> + '_ {
        self.sets
            .iter()
            .flat_map(|s| s.ways.iter())
            .filter(|e| !e.is_empty())
            .map(Entry::words)
    }

    /// Doubles the set count, carrying every entry into a free way of its
    /// new set. An old set's two entries land in the same new set or in
    /// two different ones, so none is lost.
    fn grow(&mut self) {
        self.growths += 1;
        let new_sets = 2 * self.sets.len();
        let old = std::mem::replace(&mut self.sets, vec![Set::default(); new_sets]);
        self.set_mask = new_sets - 1;
        self.inserts_since_resize = 0;
        for e in old.iter().flat_map(|s| s.ways.iter()) {
            if !e.is_empty() {
                let (set, _) = self.locate(e.a, e.b, e.c_op);
                let placed = self.place(set, *e);
                debug_assert!(placed, "a doubled set holds its old set's entries");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_put_round_trips() {
        let mut c = ComputedCache::new();
        assert_eq!(c.get(1, 10, 20, 0), None);
        c.put(1, 10, 20, 0, 99);
        assert_eq!(c.get(1, 10, 20, 0), Some(99));
        // A different op with the same operands is a distinct key.
        assert_eq!(c.get(2, 10, 20, 0), None);
        let counters = c.counters();
        assert_eq!(counters.hits(), 1);
        assert_eq!(counters.misses(), 2);
        // The per-op counters split the same traffic by tag.
        assert_eq!(counters.per_op[1].hits, 1);
        assert_eq!(counters.per_op[1].misses, 1);
        assert_eq!(counters.per_op[2].hits, 0);
        assert_eq!(counters.per_op[2].misses, 1);
    }

    #[test]
    fn an_all_zero_entry_reads_as_empty() {
        assert_eq!(std::mem::size_of::<Entry>(), 16);
        assert_eq!(std::mem::size_of::<Set>(), 32);
        assert_eq!(std::mem::align_of::<Set>(), 32);
        assert!(Entry::default().is_empty());
        // The zero key of op 0 is stored with a non-zero tag word, so it is
        // neither mistaken for an empty way nor shadowed by one.
        let mut c = ComputedCache::new();
        assert_eq!(c.get(0, 0, 0, 0), None);
        c.put(0, 0, 0, 0, 0);
        assert_eq!(c.get(0, 0, 0, 0), Some(0));
        assert_eq!(c.occupied().count(), 1);
    }

    #[test]
    fn a_key_too_wide_for_the_entry_bypasses_the_cache() {
        let mut c = ComputedCache::new();
        let wide = 1 << C_BITS;
        for c_word in [wide, u32::MAX] {
            c.put(3, 1, 2, c_word, 7);
            assert_eq!(c.get(3, 1, 2, c_word), None);
        }
        assert_eq!(c.occupied().count(), 0);
        assert_eq!(c.counters().per_op[3].misses, 2);
        // The widest key that fits is stored as usual.
        c.put(3, 1, 2, wide - 1, 7);
        assert_eq!(c.get(3, 1, 2, wide - 1), Some(7));
        assert_eq!(c.get(3, 1, 2, wide), None);
    }

    #[test]
    fn invalidate_all_empties_every_slot() {
        let mut c = ComputedCache::new();
        c.put(1, 1, 2, 3, 7);
        assert_eq!(c.get(1, 1, 2, 3), Some(7));
        c.invalidate_all();
        assert_eq!(c.get(1, 1, 2, 3), None);
        assert_eq!(c.occupied().count(), 0);
        // Re-inserting after the clear works.
        c.put(1, 1, 2, 3, 8);
        assert_eq!(c.get(1, 1, 2, 3), Some(8));
    }

    #[test]
    fn retain_drops_exactly_the_entries_naming_a_dead_word() {
        let mut c = ComputedCache::new();
        c.put(1, 2, 4, 0, 6);
        c.put(1, 2, 8, 0, 10);
        c.put(2, 4, 6, 12, 14);
        c.put(2, 4, 6, 0, 16);
        // Word 8 is dead as an operand, 12 as a third key word, 16 as a
        // result.
        c.retain(|w| ![8, 12, 16].contains(&w));
        assert_eq!(c.get(1, 2, 4, 0), Some(6));
        assert_eq!(c.get(1, 2, 8, 0), None);
        assert_eq!(c.get(2, 4, 6, 12), None);
        assert_eq!(c.get(2, 4, 6, 0), None);
        assert_eq!(c.occupied().count(), 1);
    }

    #[test]
    fn colliding_insert_overwrites() {
        let mut c = ComputedCache::with_max_log2(1); // a single two-way set
        assert_eq!(c.capacity(), 2);
        c.put(1, 1, 1, 1, 10);
        c.put(1, 2, 2, 2, 20);
        // Both ways are taken: the third key evicts one of the first two.
        c.put(1, 3, 3, 3, 30);
        assert_eq!(c.get(1, 3, 3, 3), Some(30));
        let kept = [(1, 10), (2, 20)]
            .into_iter()
            .filter(|&(k, v)| c.get(1, k, k, k) == Some(v))
            .count();
        assert_eq!(kept, 1);
        assert_eq!(c.counters().overwrites, 1);
    }

    #[test]
    fn growth_is_bounded_by_the_cap() {
        let mut c = ComputedCache::with_max_log2(13);
        for i in 0..2_000_000u32 {
            c.put(1, i, i, i, i);
        }
        assert!(c.capacity() <= 1 << 13);
        assert!(c.capacity().is_power_of_two());
    }

    #[test]
    fn grow_preserves_live_entries() {
        let mut c = ComputedCache::with_max_log2(20);
        // Fill both ways of every set, then double: the growth must carry
        // every entry, including both of any pair that rehashes together.
        let mut stored = Vec::new();
        let mut k = 0u32;
        while stored.len() < c.capacity() {
            let (set, _) = c.locate(k, 0, pack(1, 0).unwrap());
            if c.sets[set].ways.iter().any(Entry::is_empty) {
                c.put(1, k, 0, 0, k);
                stored.push(k);
            }
            k += 1;
        }
        assert_eq!(c.counters().overwrites, 0);
        let before = c.capacity();
        c.grow();
        assert_eq!(c.capacity(), 2 * before);
        assert_eq!(c.growth_events(), 1);
        for &k in &stored {
            assert_eq!(c.get(1, k, 0, 0), Some(k), "entry {k} lost by the growth");
        }
    }
}
