//! Warm-context pool: an LRU of [`SymbolicContext`]s keyed by a canonical
//! net hash.
//!
//! Building a context is the expensive part of answering a query — encoding
//! selection, variable ordering, the image plan, and above all the
//! first reachability fixpoint. The daemon therefore keeps the last few
//! contexts warm: a repeat query for the same net reuses the context's
//! `ImagePlan`, its computed caches, *and* the completed
//! reached set, skipping the traversal entirely. Eviction is LRU, so a
//! burst over one family cannot permanently evict another family's warm
//! state beyond the pool capacity.
//!
//! The pool keeps no reached sets of its own. There is one reached set per
//! context, independent of the traversal strategy, and the context holds
//! it ([`SymbolicContext::reached_set`]): a set completed under any
//! strategy serves queries under every strategy.
//!
//! The key is a canonical structural hash of the net (names, arcs, initial
//! marking), not the request's spec string, so `phil-3` and
//! `philosophers(3)` share one warm entry.

use super::{mix, mix_bytes};
use crate::context::SymbolicContext;
use crate::traverse::{FixpointStrategy, ReachabilityResult};
use pnsym_net::PetriNet;

/// A canonical structural hash of a net: place/transition names in index
/// order, every pre/post arc, and the initial marking. Two structurally
/// identical nets hash equal regardless of how the client spelled the net
/// spec; any structural difference (one arc, one token) changes the key.
pub fn canonical_net_hash(net: &PetriNet) -> u64 {
    let mut state = mix_bytes(0x706e_7379_6d64, net.name().as_bytes());
    state = mix(state, net.num_places() as u64);
    state = mix(state, net.num_transitions() as u64);
    for p in net.places() {
        state = mix_bytes(state, net.place_name(p).as_bytes());
    }
    for t in net.transitions() {
        state = mix_bytes(state, net.transition_name(t).as_bytes());
        for &p in net.pre_set(t) {
            state = mix(state, p.0 as u64);
        }
        state = mix(state, u64::MAX);
        for &p in net.post_set(t) {
            state = mix(state, p.0 as u64);
        }
        state = mix(state, u64::MAX - 1);
    }
    let marking = net.initial_marking();
    state = mix(state, marking.num_places() as u64);
    marking
        .iter()
        .fold(state, |state, p| mix(state, p.0 as u64))
}

/// Cumulative pool counters, reported on the `stats` protocol line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Queries answered from an already-warm context.
    pub hits: u64,
    /// Queries that had to build a fresh context.
    pub misses: u64,
    /// Warm contexts discarded to make room.
    pub evictions: u64,
    /// Warm entries written to the snapshot directory (on completion or
    /// eviction).
    pub spills: u64,
    /// Queries rehydrated from an on-disk snapshot instead of a cold
    /// rebuild.
    pub restores: u64,
}

/// One pooled entry: a warm [`SymbolicContext`], whose memo holds the
/// entry's complete reached set once a query has computed it.
pub struct WarmContext {
    key: u64,
    spec: String,
    ctx: SymbolicContext,
}

impl WarmContext {
    /// Wraps a freshly built context into a pool entry.
    /// `spec` is the net spec the entry was first built for — informational
    /// only (the pool key is the canonical net hash), but recorded in
    /// snapshots so on-disk state is attributable.
    pub fn new(key: u64, spec: impl Into<String>, ctx: SymbolicContext) -> WarmContext {
        WarmContext {
            key,
            spec: spec.into(),
            ctx,
        }
    }

    /// The canonical net hash this entry is keyed by.
    pub fn key(&self) -> u64 {
        self.key
    }

    /// The net spec this entry was first built for.
    pub fn spec(&self) -> &str {
        &self.spec
    }

    /// The warm context.
    pub fn context(&self) -> &SymbolicContext {
        &self.ctx
    }

    /// The warm context.
    pub fn context_mut(&mut self) -> &mut SymbolicContext {
        &mut self.ctx
    }

    /// Hands a complete run of this entry's context to the context's
    /// reached-set memo. `strategy` is ignored, since every strategy
    /// reaches the same set; the method is kept for source compatibility.
    /// A truncated run is not stored, and its protection stays with the
    /// caller. When the memo already holds the set, the run's extra
    /// protection is released.
    pub fn store_reached(&mut self, strategy: FixpointStrategy, run: ReachabilityResult) {
        let _ = strategy;
        self.ctx.adopt_reached(run);
    }
}

/// An LRU pool of warm contexts. Most-recently-used entries live at the
/// back of the list; inserting past capacity evicts from the front.
pub struct ContextPool {
    capacity: usize,
    entries: Vec<WarmContext>,
    stats: PoolStats,
}

impl ContextPool {
    /// Creates a pool holding at most `capacity` warm contexts
    /// (a capacity of 0 is clamped to 1 — the pool always retains the
    /// entry it just built for the duration of the query using it).
    pub fn new(capacity: usize) -> ContextPool {
        ContextPool {
            capacity: capacity.max(1),
            entries: Vec::new(),
            stats: PoolStats::default(),
        }
    }

    /// Cumulative counters.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Number of warm contexts currently pooled.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Marks the entry for `key` most-recently-used and counts a hit.
    /// Returns `false` (and counts nothing) if the key is not pooled.
    pub fn touch(&mut self, key: u64) -> bool {
        if let Some(pos) = self.entries.iter().position(|e| e.key == key) {
            let entry = self.entries.remove(pos);
            self.entries.push(entry);
            self.stats.hits += 1;
            true
        } else {
            false
        }
    }

    /// The pooled entry for `key`, without touching LRU order or counters.
    pub fn get_mut(&mut self, key: u64) -> Option<&mut WarmContext> {
        self.entries.iter_mut().find(|e| e.key == key)
    }

    /// Inserts `entry` as most-recently-used, evicting (and returning) the
    /// least-recently-used entry if the pool is full. The caller decides
    /// what happens to the evictee — the scheduler spills it to the
    /// snapshot directory instead of dropping its warm results.
    pub fn insert(&mut self, entry: WarmContext) -> Option<WarmContext> {
        let evicted = if self.entries.len() >= self.capacity {
            self.stats.evictions += 1;
            Some(self.entries.remove(0))
        } else {
            None
        };
        self.entries.push(entry);
        evicted
    }

    /// Counts a cold build (context constructed from scratch).
    pub fn note_miss(&mut self) {
        self.stats.misses += 1;
    }

    /// Counts a successful rehydration from an on-disk snapshot.
    pub fn note_restore(&mut self) {
        self.stats.restores += 1;
    }

    /// Counts a warm entry written to the snapshot directory.
    pub fn note_spill(&mut self) {
        self.stats.spills += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::Encoding;
    use pnsym_net::nets;

    fn sparse_ctx(net: &PetriNet) -> SymbolicContext {
        SymbolicContext::new(net, Encoding::sparse(net))
    }

    #[test]
    fn canonical_hash_distinguishes_structure_not_spelling() {
        let a = nets::philosophers(2);
        let b = nets::philosophers(2);
        let c = nets::philosophers(3);
        assert_eq!(canonical_net_hash(&a), canonical_net_hash(&b));
        assert_ne!(canonical_net_hash(&a), canonical_net_hash(&c));
        assert_ne!(canonical_net_hash(&nets::figure1()), canonical_net_hash(&a));
    }

    #[test]
    fn canonical_hashes_keep_their_values() {
        // Snapshot file names carry these hashes: a change to the mixing
        // function or to the hashed fields orphans every stored snapshot.
        assert_eq!(canonical_net_hash(&nets::figure1()), 0xbf09_d53f_3d25_e180);
        assert_eq!(
            canonical_net_hash(&nets::philosophers(3)),
            0xb90a_69df_3891_d736
        );
        assert_eq!(
            canonical_net_hash(&nets::dme(3, nets::DmeStyle::Spec)),
            0xbeeb_a1e3_1b74_a523
        );
    }

    #[test]
    fn pool_reuses_warm_entries_and_evicts_lru() {
        let phil = nets::philosophers(2);
        let fig = nets::figure1();
        let muller = nets::muller(2);
        let (kp, kf, km) = (
            canonical_net_hash(&phil),
            canonical_net_hash(&fig),
            canonical_net_hash(&muller),
        );
        let mut pool = ContextPool::new(2);
        // The scheduler's lookup: a hit touches, a miss builds and inserts.
        let mut hit = |key: u64, net: &PetriNet| {
            if pool.touch(key) {
                return true;
            }
            pool.note_miss();
            pool.insert(WarmContext::new(key, net.name(), sparse_ctx(net)));
            false
        };
        assert!(!hit(kp, &phil));
        assert!(hit(kp, &phil));
        assert!(!hit(kf, &fig));
        // phil is now LRU; adding a third net evicts it.
        assert!(!hit(km, &muller));
        assert!(!hit(kp, &phil), "evicted entry rebuilds cold");
        assert_eq!(
            pool.stats(),
            PoolStats {
                hits: 1,
                misses: 4,
                evictions: 2,
                spills: 0,
                restores: 0,
            }
        );
        assert_eq!(pool.len(), 2);
        assert!(pool.get_mut(kf).is_none() && pool.get_mut(kp).is_some());
    }

    #[test]
    fn warm_entry_caches_complete_reached_sets_only() {
        let net = nets::philosophers(2);
        let key = canonical_net_hash(&net);
        let strategy = FixpointStrategy::default();
        let mut entry = WarmContext::new(key, "phil-2", sparse_ctx(&net));
        assert!(entry.context().memoized_reached().is_none());

        // A truncated run never installs a set, and keeps its protection.
        let capped = crate::traverse::TraversalOptions {
            max_iterations: Some(1),
            ..Default::default()
        };
        let partial = entry.context_mut().reachable_markings_with(capped);
        assert!(partial.truncated.is_some());
        entry.store_reached(strategy, partial);
        assert!(entry.context().memoized_reached().is_none());
        entry.context_mut().manager_mut().unprotect(partial.reached);

        let run = entry.context_mut().reachable_markings();
        entry.store_reached(strategy, run);
        let warm = entry
            .context()
            .memoized_reached()
            .expect("complete run cached");
        assert_eq!(warm.num_markings, run.num_markings);
        let roots = entry.context().manager().protected_root_count();

        // A second complete run of any strategy reaches the memoized `Ref`;
        // storing it releases its extra protection.
        let bfs = FixpointStrategy::Bfs { use_frontier: true };
        let again = entry
            .context_mut()
            .reachable_markings_with(crate::traverse::TraversalOptions::with_strategy(bfs));
        assert_eq!(again.reached, run.reached);
        entry.store_reached(bfs, again);
        assert_eq!(entry.context().manager().protected_root_count(), roots);

        // A truncated run never replaces the good one.
        let mut bad = run;
        bad.truncated = Some(pnsym_bdd::TruncationReason::Deadline);
        bad.num_markings = 1.0;
        entry.store_reached(strategy, bad);
        let still = entry.context().memoized_reached().expect("cache intact");
        assert_eq!(still.num_markings, run.num_markings);
        assert_eq!(entry.context().manager().protected_root_count(), roots);
    }
}
