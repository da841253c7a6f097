//! The [`BddManager`]: node arena, unique tables, computed cache, garbage
//! collection and variable bookkeeping.
//!
//! The manager stores every node of every BDD it ever created in a single
//! arena. Functions are identified by [`Ref`] handles carrying a
//! *complement attribute* (Brace–Rudell–Bryant): a `Ref` packs a node index
//! and a complement bit (`edge = node_index << 1 | complemented`), so `f`
//! and `¬f` share one subgraph and negation is a bit flip. There is a
//! single terminal node (arena index 0); the constant `TRUE` is the regular
//! edge to it and `FALSE` the complemented one.
//!
//! Canonicity rests on two rules enforced by [`BddManager::mk`]:
//!
//! 1. the classic reduction rule (no redundant tests, no duplicate nodes),
//! 2. the *regular then-edge* rule: a stored node's high (then) edge is
//!    never complemented. A candidate node with a complemented then-edge is
//!    stored with both children flipped and handed out as a complemented
//!    edge instead.
//!
//! With both rules, equal `Ref`s ⇔ equal functions, in O(1). Canonicity is
//! enforced by one open-addressing [`UniqueTable`] per level
//! (multiplicative hashing, linear probing, no per-entry allocation) and
//! operations are memoised in a two-way set-associative lossy
//! [`ComputedCache`] whose entries survive a collection unless they name a
//! reclaimed node — see [`crate::table`] and [`crate::cache`] for the
//! rationale. [`BddManager::check_canonical`]
//! audits the whole arena against these rules (debug-asserted after every
//! collection and sift).

use crate::budget::{Budget, Interrupt};
use crate::cache::ComputedCache;
use crate::table::UniqueTable;
use std::collections::HashMap;
use std::fmt;

/// A handle to a BDD function owned by a [`BddManager`]: a packed edge
/// `node_index << 1 | complement`.
///
/// Two `Ref`s obtained from the *same* manager denote the same boolean
/// function if and only if they are equal. A `Ref` is only meaningful
/// together with the manager that produced it. Negating a function flips
/// the complement bit (see [`BddManager::not`]) — `f` and `¬f` share every
/// node.
///
/// # Examples
///
/// ```
/// use pnsym_bdd::BddManager;
/// let mut m = BddManager::new();
/// let x = m.add_var();
/// let a = m.var(x);
/// let b = m.var(x);
/// assert_eq!(a, b); // canonicity: same function, same handle
/// let na = m.not(a);
/// assert_ne!(na, a);
/// assert_eq!(m.not(na), a); // double negation is the identity bit flip
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ref(pub(crate) u32);

impl Ref {
    /// The raw packed edge value (`node_index << 1 | complement_bit`).
    ///
    /// Only useful for diagnostics (e.g. DOT export labels).
    pub fn index(self) -> u32 {
        self.0
    }

    /// Whether this edge carries the complement attribute.
    pub fn is_complemented(self) -> bool {
        self.0 & 1 == 1
    }
}

impl fmt::Display for Ref {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            ONE => write!(f, "TRUE"),
            ZERO => write!(f, "FALSE"),
            e if e & 1 == 1 => write!(f, "!@{}", e >> 1),
            e => write!(f, "@{}", e >> 1),
        }
    }
}

/// Identifier of a boolean variable managed by a [`BddManager`].
///
/// Variable identity is stable across dynamic reordering: reordering changes
/// the *level* (position in the order) of a variable, never its `VarId`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub u32);

impl VarId {
    /// The numeric id of the variable.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// The constant `TRUE` as an edge: the regular edge to the terminal node.
pub(crate) const ONE: u32 = 0;
/// The constant `FALSE` as an edge: the complemented edge to the terminal.
pub(crate) const ZERO: u32 = 1;
/// Arena index of the single terminal node.
pub(crate) const TERMINAL: u32 = 0;
/// Pseudo-level used for the terminal node: below every variable level.
pub(crate) const TERMINAL_LEVEL: u32 = u32::MAX;

/// An internal BDD node. `level` is the position of the node's variable in
/// the current variable order (low levels are close to the root). `low` and
/// `high` are packed edges; the canonical form guarantees `high` is regular
/// (complement bit clear).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Node {
    pub(crate) level: u32,
    pub(crate) low: u32,
    pub(crate) high: u32,
    /// Number of internal parent edges pointing at this node. External
    /// references are tracked separately through [`BddManager::protect`].
    pub(crate) refcount: u32,
    /// Mark bit used by mark-and-sweep garbage collection.
    pub(crate) marked: bool,
    /// Whether the slot is free (on the free list).
    pub(crate) free: bool,
}

/// Operation tags used as part of computed-cache keys.
///
/// `not` needs no tag (it is a bit flip) and `or` none either (De Morgan
/// delegates to `And` with complemented operands, sharing its entries).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Op {
    And,
    Xor,
    Ite,
    Exists,
    AndExists,
    AndExistsAssign,
    AndCofactor,
}

impl Op {
    /// Number of tags (the last variant's tag plus one).
    pub(crate) const COUNT: usize = Op::AndCofactor as usize + 1;
}

/// Computed-cache hit/miss counters of one operation family
/// (see [`ManagerStats::per_op`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that missed (each miss is one recursive expansion).
    pub misses: u64,
}

impl OpCacheStats {
    /// Total lookups of this operation.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups answered from the cache, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }
}

/// Statistics snapshot of a [`BddManager`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ManagerStats {
    /// Number of live (allocated, non-free) nodes, including the terminal.
    pub live_nodes: usize,
    /// Total arena capacity (live + freed slots).
    pub arena_size: usize,
    /// Number of variables.
    pub num_vars: usize,
    /// Number of garbage collections performed so far.
    pub gc_runs: usize,
    /// Cumulative number of nodes reclaimed by garbage collection.
    pub gc_reclaimed: usize,
    /// Exact high-water mark of the live-node count, updated on every
    /// allocation (see [`BddManager::peak_live_nodes`]).
    pub peak_live_nodes: usize,
    /// Entries across all per-level unique tables (live internal nodes).
    pub unique_entries: usize,
    /// Slots allocated across all per-level unique tables.
    pub unique_capacity: usize,
    /// Slots of the computed cache (hard-capped, so cache memory stays
    /// bounded).
    pub cache_capacity: usize,
    /// Computed-cache lookups answered from the cache.
    pub cache_hits: u64,
    /// Computed-cache lookups that missed.
    pub cache_misses: u64,
    /// Computed-cache inserts that evicted a live entry (lossy collisions).
    pub cache_overwrites: u64,
    /// Doublings of the computed cache so far. The cache grows on its own
    /// insert traffic, and each doubling is paid by the operation whose
    /// insert crosses the line.
    pub cache_growths: u64,
    /// Per-operation cache counters of `and` (also carries the traffic of
    /// `or` and `diff`, which are derived through De Morgan on complement
    /// edges and share the `and` cache entries; negation is an O(1) bit
    /// flip that touches neither the cache nor the arena).
    pub op_and: OpCacheStats,
    /// Per-operation cache counters of `exists`.
    pub op_exists: OpCacheStats,
    /// Per-operation cache counters of the relational products: the sum of
    /// `and_exists` and the one-pass image and pre-image steps
    /// `and_exists_assign` and `and_cofactor`, each of which keeps its own
    /// cache entries.
    pub op_and_exists: OpCacheStats,
}

impl ManagerStats {
    /// Load factor of the unique tables (entries over slots), in `[0, 1]`.
    pub fn unique_load(&self) -> f64 {
        if self.unique_capacity == 0 {
            0.0
        } else {
            self.unique_entries as f64 / self.unique_capacity as f64
        }
    }

    /// Fraction of computed-cache lookups answered from the cache.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// The per-operation counters paired with their operation names, for
    /// iteration (statistics tables, JSON records).
    pub fn per_op(&self) -> [(&'static str, OpCacheStats); 3] {
        [
            ("and", self.op_and),
            ("exists", self.op_exists),
            ("and_exists", self.op_and_exists),
        ]
    }
}

/// A shared-storage manager for Reduced Ordered Binary Decision Diagrams
/// with complement edges.
///
/// The manager owns the node arena, the per-level unique tables enforcing
/// canonicity, and the computed cache used to memoise boolean operations.
/// All operations producing new BDDs take `&mut self`.
///
/// # Garbage collection and protection
///
/// BDD nodes are never freed implicitly. Call [`BddManager::protect`] on the
/// roots that must survive, then [`BddManager::collect_garbage`] (or
/// [`sift`](crate::reorder) which garbage-collects internally). Any
/// unprotected `Ref` may dangle after a collection or a reordering.
/// Protection attaches to the *node*, so protecting `f` protects `¬f` too
/// (they are one subgraph).
///
/// # Examples
///
/// ```
/// use pnsym_bdd::BddManager;
/// let mut m = BddManager::with_vars(2);
/// let (x0, x1) = (m.var_id(0), m.var_id(1));
/// let a = m.var(x0);
/// let b = m.var(x1);
/// let f = m.and(a, b);
/// assert!(m.eval(f, |v| v == x0 || v == x1));
/// assert!(!m.eval(f, |v| v == x0));
/// ```
pub struct BddManager {
    pub(crate) nodes: Vec<Node>,
    /// Per-level unique tables: `(low_edge, high_edge) -> node index`.
    pub(crate) unique: Vec<UniqueTable>,
    /// Computed cache for memoised operations.
    pub(crate) cache: ComputedCache,
    /// `var_at_level[level] = var`.
    pub(crate) var_at_level: Vec<u32>,
    /// `level_of_var[var] = level`.
    pub(crate) level_of_var: Vec<u32>,
    /// Free arena slots available for reuse.
    pub(crate) free_list: Vec<u32>,
    /// Externally protected roots with protection counts, keyed by *node
    /// index* (protection is complement-agnostic).
    pub(crate) protected: HashMap<u32, usize>,
    pub(crate) gc_runs: usize,
    pub(crate) gc_reclaimed: usize,
    pub(crate) peak_live: usize,
    /// Threshold of live nodes above which callers are advised to collect.
    pub(crate) gc_hint_threshold: usize,
    /// The resource envelope governing this manager's operations, if any
    /// (see [`BddManager::install_budget`]).
    pub(crate) budget: Option<Budget>,
    /// Table/cache growth events already accounted to the fault schedule
    /// when the current budget was installed.
    #[cfg(feature = "fault-inject")]
    pub(crate) growths_seen: (u64, u64),
}

impl fmt::Debug for BddManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BddManager")
            .field("num_vars", &self.num_vars())
            .field("live_nodes", &self.live_node_count())
            .field("arena_size", &self.nodes.len())
            .finish()
    }
}

impl Default for BddManager {
    fn default() -> Self {
        Self::new()
    }
}

impl BddManager {
    /// Creates an empty manager with no variables.
    pub fn new() -> Self {
        let mut m = BddManager {
            nodes: Vec::with_capacity(1024),
            unique: Vec::new(),
            cache: ComputedCache::new(),
            var_at_level: Vec::new(),
            level_of_var: Vec::new(),
            free_list: Vec::new(),
            protected: HashMap::new(),
            gc_runs: 0,
            gc_reclaimed: 0,
            peak_live: 1,
            gc_hint_threshold: 1 << 20,
            budget: None,
            #[cfg(feature = "fault-inject")]
            growths_seen: (0, 0),
        };
        // The single terminal node: TRUE is the regular edge to it, FALSE
        // the complemented one.
        m.nodes.push(Node {
            level: TERMINAL_LEVEL,
            low: ONE,
            high: ONE,
            refcount: 0,
            marked: false,
            free: false,
        });
        m
    }

    /// Creates a manager with `n` variables already declared
    /// (`VarId(0) .. VarId(n-1)`, initially ordered by id).
    pub fn with_vars(n: usize) -> Self {
        let mut m = Self::new();
        for _ in 0..n {
            m.add_var();
        }
        m
    }

    /// Declares a new variable, placed at the bottom of the current order.
    pub fn add_var(&mut self) -> VarId {
        let var = self.level_of_var.len() as u32;
        let level = self.var_at_level.len() as u32;
        self.var_at_level.push(var);
        self.level_of_var.push(level);
        self.unique.push(UniqueTable::new());
        VarId(var)
    }

    /// Returns the `i`-th variable id.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn var_id(&self, i: usize) -> VarId {
        assert!(i < self.level_of_var.len(), "variable index out of range");
        VarId(i as u32)
    }

    /// Number of declared variables.
    pub fn num_vars(&self) -> usize {
        self.level_of_var.len()
    }

    /// All declared variables in id order.
    pub fn variables(&self) -> Vec<VarId> {
        (0..self.level_of_var.len() as u32).map(VarId).collect()
    }

    /// The constant `FALSE` function (the complemented terminal edge).
    pub fn zero(&self) -> Ref {
        Ref(ZERO)
    }

    /// The constant `TRUE` function (the regular terminal edge).
    pub fn one(&self) -> Ref {
        Ref(ONE)
    }

    /// Returns `true` if `f` is one of the two constant functions.
    pub fn is_constant(&self, f: Ref) -> bool {
        f.0 <= 1
    }

    /// The positive literal of variable `v` as a BDD.
    pub fn var(&mut self, v: VarId) -> Ref {
        let level = self.level_of(v);
        Ref(self.mk(level, ZERO, ONE))
    }

    /// The negative literal of variable `v` as a BDD.
    ///
    /// Shares its single node with [`BddManager::var`] of the same
    /// variable: the negative literal is the complemented edge.
    pub fn nvar(&mut self, v: VarId) -> Ref {
        let level = self.level_of(v);
        Ref(self.mk(level, ONE, ZERO))
    }

    /// Current level (position in the variable order) of variable `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` was not declared by this manager.
    pub fn level_of(&self, v: VarId) -> u32 {
        self.level_of_var[v.0 as usize]
    }

    /// Variable sitting at level `level` of the current order.
    ///
    /// # Panics
    ///
    /// Panics if `level` is out of range.
    pub fn var_at(&self, level: u32) -> VarId {
        VarId(self.var_at_level[level as usize])
    }

    /// The current variable order, from the top level downwards.
    pub fn current_order(&self) -> Vec<VarId> {
        self.var_at_level.iter().map(|&v| VarId(v)).collect()
    }

    /// Variable labelling the root node of `f`, or `None` for constants.
    pub fn root_var(&self, f: Ref) -> Option<VarId> {
        let n = &self.nodes[(f.0 >> 1) as usize];
        if n.level == TERMINAL_LEVEL {
            None
        } else {
            Some(self.var_at(n.level))
        }
    }

    /// Low (else) cofactor of `f` at its root variable, with the complement
    /// attribute of `f` pushed through.
    ///
    /// # Panics
    ///
    /// Panics if `f` is a constant.
    pub fn low(&self, f: Ref) -> Ref {
        assert!(!self.is_constant(f), "constants have no children");
        Ref(self.nodes[(f.0 >> 1) as usize].low ^ (f.0 & 1))
    }

    /// High (then) cofactor of `f` at its root variable, with the
    /// complement attribute of `f` pushed through.
    ///
    /// # Panics
    ///
    /// Panics if `f` is a constant.
    pub fn high(&self, f: Ref) -> Ref {
        assert!(!self.is_constant(f), "constants have no children");
        Ref(self.nodes[(f.0 >> 1) as usize].high ^ (f.0 & 1))
    }

    /// Level of the node an edge points at (terminals report
    /// [`TERMINAL_LEVEL`], i.e. below every variable).
    #[inline]
    pub(crate) fn level(&self, edge: u32) -> u32 {
        self.nodes[(edge >> 1) as usize].level
    }

    /// The node an edge points at.
    #[inline]
    pub(crate) fn node(&self, edge: u32) -> Node {
        self.nodes[(edge >> 1) as usize]
    }

    /// Find-or-create the function `var(level) ? high : low` and return it
    /// as a packed edge. Applies the reduction rule (redundant test
    /// elimination) and the regular then-edge canonicalisation: when `high`
    /// is complemented, the node is stored with both children flipped and
    /// the result edge carries the complement attribute instead.
    pub(crate) fn mk(&mut self, level: u32, low: u32, high: u32) -> u32 {
        debug_assert!(level != TERMINAL_LEVEL);
        debug_assert!(
            self.level(low) > level && self.level(high) > level,
            "children must sit strictly below the new node"
        );
        if low == high {
            return low;
        }
        // Canonical rule: the stored then-edge is always regular.
        let c = high & 1;
        let (low, high) = (low ^ c, high ^ c);
        let idx = if let Some(idx) = self.unique[level as usize].get(low, high) {
            idx
        } else {
            let idx = self.alloc(level, low, high);
            self.unique[level as usize].insert(low, high, idx);
            idx
        };
        (idx << 1) | c
    }

    fn alloc(&mut self, level: u32, low: u32, high: u32) -> u32 {
        let low_node = (low >> 1) as usize;
        let high_node = (high >> 1) as usize;
        self.nodes[low_node].refcount = self.nodes[low_node].refcount.saturating_add(1);
        self.nodes[high_node].refcount = self.nodes[high_node].refcount.saturating_add(1);
        let idx = if let Some(idx) = self.free_list.pop() {
            self.nodes[idx as usize] = Node {
                level,
                low,
                high,
                refcount: 0,
                marked: false,
                free: false,
            };
            idx
        } else {
            let idx = self.nodes.len() as u32;
            self.nodes.push(Node {
                level,
                low,
                high,
                refcount: 0,
                marked: false,
                free: false,
            });
            // The computed cache is not sized from the arena: the arena
            // also holds every dead intermediate since the last collection,
            // so the cache grows only on its own insert traffic.
            idx
        };
        // Every allocation grows the live set by exactly one node, so the
        // high-water mark is exact here — sampling it between operations
        // (as the traversal loop once did) misses intra-image peaks.
        let live = self.nodes.len() - self.free_list.len();
        if live > self.peak_live {
            self.peak_live = live;
        }
        idx
    }

    /// Protects `f` (and implicitly every node reachable from it) from
    /// garbage collection and reordering invalidation. Protection is
    /// counted: call [`BddManager::unprotect`] the same number of times.
    /// Protection attaches to the node, so `f` and `¬f` share it.
    pub fn protect(&mut self, f: Ref) {
        *self.protected.entry(f.0 >> 1).or_insert(0) += 1;
    }

    /// Releases one protection previously acquired with [`BddManager::protect`].
    ///
    /// Unprotecting a node that is not protected is a no-op.
    pub fn unprotect(&mut self, f: Ref) {
        if let Some(count) = self.protected.get_mut(&(f.0 >> 1)) {
            *count -= 1;
            if *count == 0 {
                self.protected.remove(&(f.0 >> 1));
            }
        }
    }

    /// Number of live nodes (including the terminal).
    pub fn live_node_count(&self) -> usize {
        self.nodes.len() - self.free_list.len()
    }

    /// Exact high-water mark of the live-node count over the manager's
    /// lifetime, maintained on every allocation (so peaks *inside* one
    /// image computation are captured, not only those visible between
    /// operations).
    pub fn peak_live_nodes(&self) -> usize {
        self.peak_live.max(self.live_node_count())
    }

    /// Total number of protections currently held on roots of this manager
    /// (the sum of the per-root protection counts). Balanced
    /// protect/unprotect discipline — e.g. across a witness-trace
    /// extraction — leaves this value unchanged.
    pub fn protected_root_count(&self) -> usize {
        self.protected.values().sum()
    }

    /// Whether the number of live nodes has crossed the advisory GC threshold.
    pub fn should_collect(&self) -> bool {
        self.live_node_count() >= self.gc_hint_threshold
    }

    /// Sets the advisory GC threshold used by [`BddManager::should_collect`].
    pub fn set_gc_threshold(&mut self, nodes: usize) {
        self.gc_hint_threshold = nodes.max(16);
    }

    /// The current advisory GC threshold (see [`BddManager::should_collect`]).
    pub fn gc_threshold(&self) -> usize {
        self.gc_hint_threshold
    }

    /// Installs `budget` as the governor of this manager's operations.
    ///
    /// Once installed, the fallible `try_*` operation family checks the
    /// budget cooperatively (amortized inside the recursions, see
    /// [`Budget`]) and unwinds with a typed
    /// [`Interrupt`] on breach; the infallible
    /// wrappers (`and`, `or`, …) panic on breach, so governed callers
    /// must use `try_*`. Replaces any previously installed budget.
    pub fn install_budget(&mut self, budget: Budget) {
        #[cfg(feature = "fault-inject")]
        {
            self.growths_seen = (self.table_growth_events(), self.cache.growth_events());
        }
        self.budget = Some(budget);
    }

    /// Removes and returns the installed budget (with its sticky breach, if
    /// any). Afterwards the manager is ungoverned again: the same query can
    /// be re-run to completion on the same, still-consistent manager.
    pub fn take_budget(&mut self) -> Option<Budget> {
        self.budget.take()
    }

    /// The installed budget, if any.
    pub fn budget(&self) -> Option<&Budget> {
        self.budget.as_ref()
    }

    /// The amortized cooperative budget check: counts one governed step
    /// and, every [`Budget::CHECK_INTERVAL`] steps (or promptly once a
    /// ceiling is exceeded), performs the real deadline/node-count check.
    /// Free when no budget is installed; the kernel recursions call this
    /// once per cache miss.
    #[inline]
    pub fn checkpoint(&mut self) -> Result<(), Interrupt> {
        match self.budget.as_mut() {
            None => Ok(()),
            Some(b) => {
                if b.tick() {
                    self.checkpoint_slow()
                } else {
                    Ok(())
                }
            }
        }
    }

    #[cold]
    fn checkpoint_slow(&mut self) -> Result<(), Interrupt> {
        self.budget_check()
    }

    /// Forces a full budget check right now, skipping the amortization.
    /// Traversal drivers call this at every pass and firing boundary so even
    /// a run too small to trip the amortized in-recursion check still
    /// observes a tiny deadline deterministically.
    pub fn force_checkpoint(&mut self) -> Result<(), Interrupt> {
        if self.budget.is_none() {
            return Ok(());
        }
        self.budget_check()
    }

    fn budget_check(&mut self) -> Result<(), Interrupt> {
        #[cfg(feature = "fault-inject")]
        {
            let table = self.table_growth_events();
            let cache = self.cache.growth_events();
            let (table_seen, cache_seen) = self.growths_seen;
            self.growths_seen = (table, cache);
            let b = self.budget.as_mut().expect("budget_check without budget");
            b.observe_fault_events(crate::budget::FaultSite::TableGrowth, table - table_seen)?;
            b.observe_fault_events(crate::budget::FaultSite::CacheGrowth, cache - cache_seen)?;
        }
        let live = self.live_node_count();
        self.budget
            .as_mut()
            .expect("budget_check without budget")
            .check(live)
    }

    #[cfg(feature = "fault-inject")]
    fn table_growth_events(&self) -> u64 {
        self.unique.iter().map(|t| t.growth_events()).sum()
    }

    /// Returns a snapshot of manager statistics.
    pub fn stats(&self) -> ManagerStats {
        let counters = self.cache.counters();
        let op = |ops: &[Op]| {
            ops.iter().fold(OpCacheStats::default(), |sum, &op| {
                let c = counters.per_op[op as usize];
                OpCacheStats {
                    hits: sum.hits + c.hits,
                    misses: sum.misses + c.misses,
                }
            })
        };
        ManagerStats {
            live_nodes: self.live_node_count(),
            arena_size: self.nodes.len(),
            num_vars: self.num_vars(),
            gc_runs: self.gc_runs,
            gc_reclaimed: self.gc_reclaimed,
            peak_live_nodes: self.peak_live_nodes(),
            unique_entries: self.unique.iter().map(|t| t.len()).sum(),
            unique_capacity: self.unique.iter().map(|t| t.capacity()).sum(),
            cache_capacity: self.cache.capacity(),
            cache_hits: counters.hits(),
            cache_misses: counters.misses(),
            cache_overwrites: counters.overwrites,
            cache_growths: self.cache.growth_events(),
            op_and: op(&[Op::And]),
            op_exists: op(&[Op::Exists]),
            op_and_exists: op(&[Op::AndExists, Op::AndExistsAssign, Op::AndCofactor]),
        }
    }

    /// Mark-and-sweep garbage collection.
    ///
    /// Every node not reachable from a [protected](BddManager::protect) root
    /// is reclaimed. Unique tables are rebuilt *in place* (their allocations
    /// are kept). The computed cache is swept once: an entry survives if
    /// both operands, its third key word and its result all point at marked
    /// nodes (CUDD's `cuddGarbageCollect` rule), so only the entries naming a
    /// reclaimed node are dropped and the survivors' memoised work carries
    /// over to the next operations. Unprotected `Ref`s held by the caller are
    /// invalidated.
    pub fn collect_garbage(&mut self) {
        // Mark phase (roots are node indices).
        let roots: Vec<u32> = self.protected.keys().copied().collect();
        for r in roots {
            self.mark(r);
        }
        self.nodes[TERMINAL as usize].marked = true;
        // Every cache key word and result is an edge; keep the entries whose
        // four nodes are all marked, before the sweep clears the marks. The
        // marks are first packed into a bitmap, so the cache sweep's random
        // lookups hit a table 160 times smaller than the node arena.
        let mut marks = vec![0u64; self.nodes.len().div_ceil(64)];
        for (i, n) in self.nodes.iter().enumerate() {
            marks[i >> 6] |= (n.marked as u64) << (i & 63);
        }
        self.cache.retain(|edge| {
            let i = (edge >> 1) as usize;
            marks[i >> 6] >> (i & 63) & 1 == 1
        });
        // Sweep phase: empty the tables without freeing their storage.
        let mut reclaimed = 0usize;
        for level_table in &mut self.unique {
            level_table.clear_in_place();
        }
        self.free_list.clear();
        for idx in 0..self.nodes.len() as u32 {
            let (marked, free) = {
                let n = &self.nodes[idx as usize];
                (n.marked, n.free)
            };
            if free {
                self.free_list.push(idx);
                continue;
            }
            if marked {
                let n = &mut self.nodes[idx as usize];
                n.marked = false;
                n.refcount = 0;
            } else if idx != TERMINAL {
                let n = &mut self.nodes[idx as usize];
                n.free = true;
                n.refcount = 0;
                self.free_list.push(idx);
                reclaimed += 1;
            }
        }
        // Re-insert survivors into the kept storage and rebuild refcounts.
        for idx in 1..self.nodes.len() as u32 {
            let n = self.nodes[idx as usize];
            if n.free {
                continue;
            }
            self.unique[n.level as usize].insert(n.low, n.high, idx);
            self.nodes[(n.low >> 1) as usize].refcount += 1;
            self.nodes[(n.high >> 1) as usize].refcount += 1;
        }
        self.gc_runs += 1;
        self.gc_reclaimed += reclaimed;
        debug_assert!(
            self.check_invariants().is_ok(),
            "invariant audit failed after GC: {:?}",
            self.check_invariants()
        );
    }

    fn mark(&mut self, root: u32) {
        let mut stack = vec![root];
        while let Some(idx) = stack.pop() {
            let n = &mut self.nodes[idx as usize];
            if n.marked || n.free {
                continue;
            }
            n.marked = true;
            if n.level != TERMINAL_LEVEL {
                stack.push(n.low >> 1);
                stack.push(n.high >> 1);
            }
        }
    }

    #[inline]
    pub(crate) fn cache_get(&mut self, key: (Op, u32, u32, u32)) -> Option<u32> {
        self.cache.get(key.0 as u8, key.1, key.2, key.3)
    }

    #[inline]
    pub(crate) fn cache_put(&mut self, key: (Op, u32, u32, u32), value: u32) {
        self.cache.put(key.0 as u8, key.1, key.2, key.3, value);
    }

    /// Empties the computed cache (reordering does this itself; garbage
    /// collection keeps every entry whose nodes survive). One pass over the
    /// slots, skipped when nothing was inserted since the last clear.
    pub fn clear_cache(&mut self) {
        self.cache.invalidate_all();
    }

    /// Audits the whole arena against the canonical form of the
    /// complement-edge representation. Checks, for every live node:
    ///
    /// * the then-edge is regular (never complemented),
    /// * the node is not redundant (`low != high`),
    /// * both children sit strictly below it in the variable order,
    /// * neither child is a freed slot,
    /// * no two live nodes share `(level, low, high)`,
    /// * the node is registered in its level's unique table under exactly
    ///   its own index.
    ///
    /// Intended for tests and the CI fault-injection job; cost is linear in
    /// the arena size. Debug-asserted after every garbage collection and
    /// every sift.
    pub fn check_canonical(&self) -> Result<(), String> {
        let mut seen: HashMap<(u32, u32, u32), u32> = HashMap::new();
        for idx in 1..self.nodes.len() as u32 {
            let n = &self.nodes[idx as usize];
            if n.free {
                continue;
            }
            if n.level == TERMINAL_LEVEL {
                return Err(format!("internal node {idx} has the terminal level"));
            }
            if n.high & 1 == 1 {
                return Err(format!("node {idx} has a complemented then-edge"));
            }
            if n.low == n.high {
                return Err(format!("node {idx} is redundant (low == high)"));
            }
            if self.level(n.low) <= n.level || self.level(n.high) <= n.level {
                return Err(format!("node {idx} violates the variable order"));
            }
            if self.nodes[(n.low >> 1) as usize].free || self.nodes[(n.high >> 1) as usize].free {
                return Err(format!("node {idx} points at a freed node"));
            }
            if let Some(&other) = seen.get(&(n.level, n.low, n.high)) {
                return Err(format!("nodes {other} and {idx} are duplicates"));
            }
            seen.insert((n.level, n.low, n.high), idx);
            match self.unique[n.level as usize].get(n.low, n.high) {
                Some(u) if u == idx => {}
                _ => return Err(format!("node {idx} missing from its unique table")),
            }
        }
        Ok(())
    }

    /// Checks internal invariants: [`BddManager::check_canonical`], and
    /// that no computed-cache entry names a freed node (a collection must
    /// drop every entry whose operands or result it reclaimed, or a reused
    /// slot would answer for a different function). Debug-asserted after
    /// every garbage collection.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.check_canonical()?;
        for words in self.cache.occupied() {
            let dead = words
                .iter()
                .find(|&&edge| self.nodes.get((edge >> 1) as usize).is_none_or(|n| n.free));
            if let Some(edge) = dead {
                return Err(format!(
                    "computed-cache entry {words:?} names freed node {}",
                    edge >> 1
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminals_are_distinct() {
        let m = BddManager::new();
        assert_ne!(m.zero(), m.one());
        assert!(m.is_constant(m.zero()));
        assert!(m.is_constant(m.one()));
        // One shared terminal node: FALSE is the complemented edge to it.
        assert_eq!(m.zero().0 >> 1, m.one().0 >> 1);
        assert!(m.zero().is_complemented());
        assert!(!m.one().is_complemented());
    }

    #[test]
    fn var_nodes_are_canonical() {
        let mut m = BddManager::with_vars(3);
        let v1 = m.var_id(1);
        let a = m.var(v1);
        let b = m.var(v1);
        assert_eq!(a, b);
        assert_eq!(m.root_var(a), Some(v1));
        assert_eq!(m.low(a), m.zero());
        assert_eq!(m.high(a), m.one());
    }

    #[test]
    fn literals_share_one_node() {
        let mut m = BddManager::with_vars(1);
        let v = m.var_id(0);
        let before = m.live_node_count();
        let pos = m.var(v);
        let neg = m.nvar(v);
        // Positive and negative literals differ only in the complement bit.
        assert_eq!(pos.0 ^ 1, neg.0);
        assert_eq!(m.live_node_count(), before + 1);
        assert_eq!(m.low(neg), m.one());
        assert_eq!(m.high(neg), m.zero());
    }

    #[test]
    fn mk_applies_reduction_rule() {
        let mut m = BddManager::with_vars(1);
        let e = m.mk(0, ONE, ONE);
        assert_eq!(e, ONE);
    }

    #[test]
    fn mk_keeps_then_edges_regular() {
        let mut m = BddManager::with_vars(2);
        // Ask for a node whose then-edge is complemented: mk must flip both
        // children and hand back a complemented edge to a canonical node.
        let e = m.mk(0, ONE, ZERO);
        assert_eq!(e & 1, 1, "edge must carry the complement attribute");
        let n = m.node(e);
        assert_eq!(n.high & 1, 0, "stored then-edge must be regular");
        assert!(m.check_canonical().is_ok());
    }

    #[test]
    fn gc_reclaims_unprotected_nodes() {
        let mut m = BddManager::with_vars(4);
        let vars: Vec<_> = m.variables();
        let mut f = m.one();
        for &v in &vars {
            let lit = m.var(v);
            f = m.and(f, lit);
        }
        let before = m.live_node_count();
        assert!(before > 1);
        m.protect(f);
        m.collect_garbage();
        assert!(m.live_node_count() <= before);
        // f still evaluates correctly after GC.
        assert!(m.eval(f, |_| true));
        assert!(!m.eval(f, |v| v.0 != 0));
        m.unprotect(f);
        m.collect_garbage();
        // Only the terminal remains.
        assert_eq!(m.live_node_count(), 1);
        assert!(m.check_canonical().is_ok());
    }

    #[test]
    fn protecting_a_complemented_edge_protects_the_node() {
        let mut m = BddManager::with_vars(2);
        let a = m.var(m.var_id(0));
        let b = m.var(m.var_id(1));
        let f = m.and(a, b);
        let nf = m.not(f);
        m.protect(nf);
        m.collect_garbage();
        // The shared subgraph survived: both polarities still evaluate.
        assert!(m.eval(f, |_| true));
        assert!(!m.eval(nf, |_| true));
        m.unprotect(f); // node-keyed: unprotecting via the other polarity works
        m.collect_garbage();
        assert_eq!(m.live_node_count(), 1);
    }

    #[test]
    fn stats_reports_progress() {
        let mut m = BddManager::with_vars(2);
        let x = m.var_id(0);
        let y = m.var_id(1);
        let a = m.var(x);
        let b = m.var(y);
        let f = m.or(a, b);
        m.protect(f);
        m.collect_garbage();
        let s = m.stats();
        assert_eq!(s.num_vars, 2);
        assert!(s.live_nodes >= 3);
        assert_eq!(s.gc_runs, 1);
        // Disjunction has no cache traffic of its own: the `or` above is
        // accounted entirely to `and`.
        assert_eq!(s.op_and.lookups(), s.cache_hits + s.cache_misses);
    }

    #[test]
    fn gc_keeps_the_cache_entries_of_surviving_nodes() {
        let mut m = BddManager::with_vars(6);
        let vars = m.variables();
        let lits: Vec<Ref> = vars.iter().map(|&v| m.var(v)).collect();
        let f = m.or_many(&lits[..3]);
        let g = m.xor(lits[3], lits[4]);
        let g = m.or(g, lits[5]);
        let h = m.and(f, g);
        m.xor(f, lits[5]); // unprotected: reclaimed with its cache entries
        m.protect(f);
        m.protect(g);
        m.protect(h);
        m.collect_garbage();
        assert!(m.stats().gc_reclaimed > 0);
        assert!(m.check_invariants().is_ok());
        // The conjunction over protected operands is answered from the
        // entry computed before the collection: one lookup, one hit.
        let before = m.stats().op_and;
        assert_eq!(m.and(f, g), h);
        let after = m.stats().op_and;
        assert_eq!(after.hits - before.hits, 1);
        assert_eq!(after.misses, before.misses);
        // An explicit clear empties the cache.
        m.clear_cache();
        assert_eq!(m.and(f, g), h);
        assert!(m.stats().op_and.misses > after.misses);
    }

    #[test]
    fn protection_is_counted() {
        let mut m = BddManager::with_vars(2);
        let x = m.var_id(0);
        let f = m.var(x);
        m.protect(f);
        m.protect(f);
        m.unprotect(f);
        m.collect_garbage();
        assert_eq!(m.root_var(f), Some(x));
        m.unprotect(f);
        m.collect_garbage();
        assert_eq!(m.live_node_count(), 1);
    }
}
