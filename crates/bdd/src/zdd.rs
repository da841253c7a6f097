//! Zero-suppressed decision diagrams (ZDDs).
//!
//! ZDDs represent *families of sets* compactly when the sets are sparse, the
//! typical situation for one-variable-per-place Petri-net markings (Yoneda et
//! al., FMCAD 1996). The reproduction uses them as the baseline the dense
//! BDD encoding is compared against in Table 4 of the paper.
//!
//! The reduction rule differs from BDDs: a node whose `high` (element
//! present) child is the empty family is removed, while nodes with equal
//! children are kept.
//!
//! Storage mirrors the BDD kernel: one open-addressing
//! [`UniqueTable`](crate::table) per element level and a set-associative
//! lossy [`ComputedCache`](crate::cache) for the set operations (a lost cache
//! entry only costs a recomputation, so lossiness is sound). The ZDD keys
//! hold element ids and update handles beside node indices, and the manager
//! never collects, so its cache is never swept by node liveness.

use crate::budget::{Budget, Interrupt};
use crate::cache::ComputedCache;
use crate::table::UniqueTable;
use std::collections::HashMap;
use std::fmt;

/// Panic message of the infallible wrappers; only reachable when a budget
/// is installed *and* breached (see the BDD kernel's identical discipline).
const UNGOVERNED: &str =
    "budget breached inside an infallible ZDD operation; governed callers must use the try_* API";

/// A handle to a ZDD node owned by a [`ZddManager`].
///
/// Two handles from the same manager are equal iff they denote the same
/// family of sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ZddRef(u32);

impl ZddRef {
    /// Raw arena index, for diagnostics.
    pub fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Display for ZddRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            0 => write!(f, "∅"),
            1 => write!(f, "{{∅}}"),
            i => write!(f, "z@{i}"),
        }
    }
}

const EMPTY: u32 = 0;
const BASE: u32 = 1;
const TERMINAL_LEVEL: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct ZNode {
    level: u32,
    low: u32,
    high: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum ZOp {
    Union,
    Intersect,
    Diff,
    Subset0,
    Subset1,
    Change,
    Apply,
}

impl ZOp {
    /// Number of tags (the last variant's tag plus one).
    pub(crate) const COUNT: usize = ZOp::Apply as usize + 1;
}

/// One per-element step of a fused transition update (see
/// [`ZddManager::register_update`]). The three kinds cover a Petri-net
/// firing on the sparse marking representation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ZddUpdateAction {
    /// Keep only the sets containing the element and remove it from each
    /// (≡ `subset1`): a consumed place that is not produced back.
    RequireRemove,
    /// Keep only the sets containing the element, leaving it in place: a
    /// self-loop place (in both the pre- and the post-set).
    RequireKeep,
    /// Toggle membership of the element in every set (≡ `change`): a
    /// produced place that was not consumed.
    Toggle,
}

/// Handle to a fused update list interned by
/// [`ZddManager::register_update`]. The handle's identity keys the
/// computed cache, so repeated applications of the same update memoise
/// across calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ZddUpdate(u32);

/// Manager of zero-suppressed decision diagrams over a fixed set of
/// elements `0 .. num_elements`.
///
/// # Examples
///
/// ```
/// use pnsym_bdd::ZddManager;
/// let mut z = ZddManager::new(3);
/// let a = z.family_from_sets(&[vec![0, 1]]);
/// let b = z.family_from_sets(&[vec![2]]);
/// let u = z.union(a, b);
/// assert_eq!(z.count(u), 2.0);
/// assert!(z.contains(u, &[0, 1]));
/// assert!(z.contains(u, &[2]));
/// assert!(!z.contains(u, &[0]));
/// ```
pub struct ZddManager {
    nodes: Vec<ZNode>,
    /// One `(low, high) -> node` table per element level.
    unique: Vec<UniqueTable>,
    cache: ComputedCache,
    num_elements: usize,
    /// Interned fused-update action lists, sorted by element
    /// (see [`ZddManager::register_update`]).
    updates: Vec<Vec<(u32, ZddUpdateAction)>>,
    /// Dedup index over `updates`, so re-registering an identical list
    /// returns the same cache-keying handle.
    update_index: HashMap<Vec<(u32, ZddUpdateAction)>, u32>,
    /// The resource envelope governing this manager's operations, if any
    /// (see [`ZddManager::install_budget`]).
    budget: Option<Budget>,
    /// Table/cache growth events already accounted to the fault schedule.
    #[cfg(feature = "fault-inject")]
    growths_seen: (u64, u64),
}

impl fmt::Debug for ZddManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ZddManager")
            .field("num_elements", &self.num_elements)
            .field("nodes", &self.nodes.len())
            .finish()
    }
}

impl ZddManager {
    /// Creates a manager for families over elements `0 .. num_elements`.
    /// The element index doubles as the (fixed) level in the diagrams.
    pub fn new(num_elements: usize) -> Self {
        let mut nodes = Vec::with_capacity(1024);
        nodes.push(ZNode {
            level: TERMINAL_LEVEL,
            low: EMPTY,
            high: EMPTY,
        });
        nodes.push(ZNode {
            level: TERMINAL_LEVEL,
            low: BASE,
            high: BASE,
        });
        ZddManager {
            nodes,
            unique: (0..num_elements).map(|_| UniqueTable::new()).collect(),
            cache: ComputedCache::new(),
            num_elements,
            updates: Vec::new(),
            update_index: HashMap::new(),
            budget: None,
            #[cfg(feature = "fault-inject")]
            growths_seen: (0, 0),
        }
    }

    /// Installs `budget` as the governor of this manager's operations; the
    /// same cooperative-checkpoint discipline as
    /// [`BddManager::install_budget`](crate::BddManager::install_budget).
    pub fn install_budget(&mut self, budget: Budget) {
        #[cfg(feature = "fault-inject")]
        {
            self.growths_seen = (
                self.unique.iter().map(|t| t.growth_events()).sum(),
                self.cache.growth_events(),
            );
        }
        self.budget = Some(budget);
    }

    /// Removes and returns the installed budget (with its sticky breach, if
    /// any); the manager is ungoverned again afterwards.
    pub fn take_budget(&mut self) -> Option<Budget> {
        self.budget.take()
    }

    /// The installed budget, if any.
    pub fn budget(&self) -> Option<&Budget> {
        self.budget.as_ref()
    }

    /// The amortized cooperative budget check (one call per cache miss;
    /// free when no budget is installed).
    #[inline]
    fn checkpoint(&mut self) -> Result<(), Interrupt> {
        match self.budget.as_mut() {
            None => Ok(()),
            Some(b) => {
                if b.tick() {
                    self.budget_check()
                } else {
                    Ok(())
                }
            }
        }
    }

    /// Forces a full budget check right now (pass and firing boundaries).
    pub fn force_checkpoint(&mut self) -> Result<(), Interrupt> {
        if self.budget.is_none() {
            return Ok(());
        }
        self.budget_check()
    }

    #[cold]
    fn budget_check(&mut self) -> Result<(), Interrupt> {
        #[cfg(feature = "fault-inject")]
        {
            let table: u64 = self.unique.iter().map(|t| t.growth_events()).sum();
            let cache = self.cache.growth_events();
            let (table_seen, cache_seen) = self.growths_seen;
            self.growths_seen = (table, cache);
            let b = self.budget.as_mut().expect("budget_check without budget");
            b.observe_fault_events(crate::budget::FaultSite::TableGrowth, table - table_seen)?;
            b.observe_fault_events(crate::budget::FaultSite::CacheGrowth, cache - cache_seen)?;
        }
        let live = self.nodes.len();
        self.budget
            .as_mut()
            .expect("budget_check without budget")
            .check(live)
    }

    /// Number of elements the families range over.
    pub fn num_elements(&self) -> usize {
        self.num_elements
    }

    /// The empty family `∅` (no sets at all).
    pub fn empty(&self) -> ZddRef {
        ZddRef(EMPTY)
    }

    /// The unit family `{∅}` containing only the empty set.
    pub fn base(&self) -> ZddRef {
        ZddRef(BASE)
    }

    /// Total number of nodes currently allocated (terminals included).
    pub fn total_nodes(&self) -> usize {
        self.nodes.len()
    }

    fn mk(&mut self, level: u32, low: u32, high: u32) -> u32 {
        // Zero-suppression rule.
        if high == EMPTY {
            return low;
        }
        if let Some(idx) = self.unique[level as usize].get(low, high) {
            return idx;
        }
        let idx = self.nodes.len() as u32;
        self.nodes.push(ZNode { level, low, high });
        self.unique[level as usize].insert(low, high, idx);
        idx
    }

    #[inline]
    fn level(&self, f: u32) -> u32 {
        self.nodes[f as usize].level
    }

    /// The family containing exactly the given sets (each set is a list of
    /// element indices; duplicates within a set are ignored).
    ///
    /// # Panics
    ///
    /// Panics if any element index is out of range.
    pub fn family_from_sets(&mut self, sets: &[Vec<usize>]) -> ZddRef {
        let mut acc = self.empty();
        for set in sets {
            let single = self.single_set(set);
            acc = self.union(acc, single);
        }
        acc
    }

    /// The family containing exactly one set.
    ///
    /// # Panics
    ///
    /// Panics if any element index is out of range.
    pub fn single_set(&mut self, set: &[usize]) -> ZddRef {
        for &e in set {
            assert!(e < self.num_elements, "element {e} out of range");
        }
        let mut elems: Vec<usize> = set.to_vec();
        elems.sort_unstable();
        elems.dedup();
        // Build bottom-up (largest level nearest to the terminal).
        let mut acc = BASE;
        for &e in elems.iter().rev() {
            acc = self.mk(e as u32, EMPTY, acc);
        }
        ZddRef(acc)
    }

    /// Union of two families.
    pub fn union(&mut self, f: ZddRef, g: ZddRef) -> ZddRef {
        self.try_union(f, g).expect(UNGOVERNED)
    }

    /// Fallible [`ZddManager::union`]: unwinds with a typed [`Interrupt`]
    /// if the installed budget breaches mid-recursion.
    pub fn try_union(&mut self, f: ZddRef, g: ZddRef) -> Result<ZddRef, Interrupt> {
        Ok(ZddRef(self.union_rec(f.0, g.0)?))
    }

    fn union_rec(&mut self, f: u32, g: u32) -> Result<u32, Interrupt> {
        if f == g || g == EMPTY {
            return Ok(f);
        }
        if f == EMPTY {
            return Ok(g);
        }
        let (a, b) = if f < g { (f, g) } else { (g, f) };
        if let Some(r) = self.cache.get(ZOp::Union as u8, a, b, 0) {
            return Ok(r);
        }
        self.checkpoint()?;
        let lf = self.level(f);
        let lg = self.level(g);
        let r = if lf < lg {
            let n = self.nodes[f as usize];
            let low = self.union_rec(n.low, g)?;
            self.mk(lf, low, n.high)
        } else if lg < lf {
            let n = self.nodes[g as usize];
            let low = self.union_rec(f, n.low)?;
            self.mk(lg, low, n.high)
        } else {
            let nf = self.nodes[f as usize];
            let ng = self.nodes[g as usize];
            let low = self.union_rec(nf.low, ng.low)?;
            let high = self.union_rec(nf.high, ng.high)?;
            self.mk(lf, low, high)
        };
        self.cache.put(ZOp::Union as u8, a, b, 0, r);
        Ok(r)
    }

    /// Intersection of two families.
    pub fn intersect(&mut self, f: ZddRef, g: ZddRef) -> ZddRef {
        self.try_intersect(f, g).expect(UNGOVERNED)
    }

    /// Fallible [`ZddManager::intersect`].
    pub fn try_intersect(&mut self, f: ZddRef, g: ZddRef) -> Result<ZddRef, Interrupt> {
        Ok(ZddRef(self.intersect_rec(f.0, g.0)?))
    }

    fn intersect_rec(&mut self, f: u32, g: u32) -> Result<u32, Interrupt> {
        if f == EMPTY || g == EMPTY {
            return Ok(EMPTY);
        }
        if f == g {
            return Ok(f);
        }
        let (a, b) = if f < g { (f, g) } else { (g, f) };
        if let Some(r) = self.cache.get(ZOp::Intersect as u8, a, b, 0) {
            return Ok(r);
        }
        self.checkpoint()?;
        let lf = self.level(f);
        let lg = self.level(g);
        let r = if lf < lg {
            let n = self.nodes[f as usize];
            self.intersect_rec(n.low, g)?
        } else if lg < lf {
            let n = self.nodes[g as usize];
            self.intersect_rec(f, n.low)?
        } else {
            let nf = self.nodes[f as usize];
            let ng = self.nodes[g as usize];
            let low = self.intersect_rec(nf.low, ng.low)?;
            let high = self.intersect_rec(nf.high, ng.high)?;
            self.mk(lf, low, high)
        };
        self.cache.put(ZOp::Intersect as u8, a, b, 0, r);
        Ok(r)
    }

    /// Set difference `f \ g` of two families.
    pub fn diff(&mut self, f: ZddRef, g: ZddRef) -> ZddRef {
        self.try_diff(f, g).expect(UNGOVERNED)
    }

    /// Fallible [`ZddManager::diff`].
    pub fn try_diff(&mut self, f: ZddRef, g: ZddRef) -> Result<ZddRef, Interrupt> {
        Ok(ZddRef(self.diff_rec(f.0, g.0)?))
    }

    fn diff_rec(&mut self, f: u32, g: u32) -> Result<u32, Interrupt> {
        if f == EMPTY || f == g {
            return Ok(EMPTY);
        }
        if g == EMPTY {
            return Ok(f);
        }
        if let Some(r) = self.cache.get(ZOp::Diff as u8, f, g, 0) {
            return Ok(r);
        }
        self.checkpoint()?;
        let lf = self.level(f);
        let lg = self.level(g);
        let r = if lf < lg {
            let n = self.nodes[f as usize];
            let low = self.diff_rec(n.low, g)?;
            self.mk(lf, low, n.high)
        } else if lg < lf {
            let n = self.nodes[g as usize];
            self.diff_rec(f, n.low)?
        } else {
            let nf = self.nodes[f as usize];
            let ng = self.nodes[g as usize];
            let low = self.diff_rec(nf.low, ng.low)?;
            let high = self.diff_rec(nf.high, ng.high)?;
            self.mk(lf, low, high)
        };
        self.cache.put(ZOp::Diff as u8, f, g, 0, r);
        Ok(r)
    }

    /// The sub-family of sets *not* containing `element`.
    ///
    /// # Panics
    ///
    /// Panics if `element` is out of range.
    pub fn subset0(&mut self, f: ZddRef, element: usize) -> ZddRef {
        assert!(
            element < self.num_elements,
            "element {element} out of range"
        );
        let e = element as u32;
        ZddRef(self.subset0_rec(f.0, e))
    }

    fn subset0_rec(&mut self, f: u32, e: u32) -> u32 {
        let lf = self.level(f);
        if lf > e {
            return f; // element cannot occur below this point
        }
        let key = (ZOp::Subset0 as u8, f, e);
        if let Some(r) = self.cache.get(key.0, key.1, key.2, 0) {
            return r;
        }
        let n = self.nodes[f as usize];
        let r = if lf == e {
            n.low
        } else {
            let low = self.subset0_rec(n.low, e);
            let high = self.subset0_rec(n.high, e);
            self.mk(lf, low, high)
        };
        self.cache.put(key.0, key.1, key.2, 0, r);
        r
    }

    /// The sets containing `element`, with `element` removed from each.
    ///
    /// # Panics
    ///
    /// Panics if `element` is out of range.
    pub fn subset1(&mut self, f: ZddRef, element: usize) -> ZddRef {
        assert!(
            element < self.num_elements,
            "element {element} out of range"
        );
        let e = element as u32;
        ZddRef(self.subset1_rec(f.0, e))
    }

    fn subset1_rec(&mut self, f: u32, e: u32) -> u32 {
        let lf = self.level(f);
        if lf > e {
            return EMPTY;
        }
        let key = (ZOp::Subset1 as u8, f, e);
        if let Some(r) = self.cache.get(key.0, key.1, key.2, 0) {
            return r;
        }
        let n = self.nodes[f as usize];
        let r = if lf == e {
            n.high
        } else {
            let low = self.subset1_rec(n.low, e);
            let high = self.subset1_rec(n.high, e);
            self.mk(lf, low, high)
        };
        self.cache.put(key.0, key.1, key.2, 0, r);
        r
    }

    /// Toggles the membership of `element` in every set of the family.
    ///
    /// # Panics
    ///
    /// Panics if `element` is out of range (the per-level unique tables,
    /// unlike the previous single map, only exist for declared elements).
    pub fn change(&mut self, f: ZddRef, element: usize) -> ZddRef {
        assert!(
            element < self.num_elements,
            "element {element} out of range"
        );
        let e = element as u32;
        ZddRef(self.change_rec(f.0, e))
    }

    fn change_rec(&mut self, f: u32, e: u32) -> u32 {
        let lf = self.level(f);
        let key = (ZOp::Change as u8, f, e);
        if lf > e {
            // The element does not occur: add it to every set.
            return self.mk(e, EMPTY, f);
        }
        if let Some(r) = self.cache.get(key.0, key.1, key.2, 0) {
            return r;
        }
        let n = self.nodes[f as usize];
        let r = if lf == e {
            self.mk(e, n.high, n.low)
        } else {
            let low = self.change_rec(n.low, e);
            let high = self.change_rec(n.high, e);
            self.mk(lf, low, high)
        };
        self.cache.put(key.0, key.1, key.2, 0, r);
        r
    }

    /// Interns a fused update: a list of per-element [`ZddUpdateAction`]s
    /// applied in one diagram traversal by [`ZddManager::apply_update`].
    ///
    /// This is the ZDD analogue of the BDD kernel's fused relational
    /// product: where the step-by-step formulation walks the whole diagram
    /// once per place (`subset1` per consumed place, `change` per produced
    /// place, each with its own cache entries and intermediate families),
    /// a registered update performs the entire transition firing in a
    /// single cached recursion, so no intermediate family is ever built.
    ///
    /// Registering the same action list twice returns the same handle, and
    /// the handle participates in the computed-cache key, so repeated
    /// applications memoise across calls and across fixpoint iterations.
    ///
    /// # Panics
    ///
    /// Panics if an element is out of range or listed twice.
    ///
    /// # Examples
    ///
    /// ```
    /// use pnsym_bdd::{ZddManager, ZddUpdateAction};
    /// let mut z = ZddManager::new(3);
    /// // Fire a transition consuming element 0 and producing element 2.
    /// let fire = z.register_update(&[
    ///     (0, ZddUpdateAction::RequireRemove),
    ///     (2, ZddUpdateAction::Toggle),
    /// ]);
    /// let s = z.family_from_sets(&[vec![0, 1], vec![1]]);
    /// let t = z.apply_update(s, fire);
    /// assert_eq!(z.sets(t), vec![vec![1, 2]]); // {1} lacked element 0
    /// ```
    pub fn register_update(&mut self, actions: &[(usize, ZddUpdateAction)]) -> ZddUpdate {
        let mut sorted: Vec<(u32, ZddUpdateAction)> = actions
            .iter()
            .map(|&(e, a)| {
                assert!(e < self.num_elements, "element {e} out of range");
                (e as u32, a)
            })
            .collect();
        sorted.sort_unstable_by_key(|&(e, _)| e);
        for w in sorted.windows(2) {
            assert!(w[0].0 != w[1].0, "element {} listed twice", w[0].0);
        }
        if let Some(&id) = self.update_index.get(&sorted) {
            return ZddUpdate(id);
        }
        let id = self.updates.len() as u32;
        self.updates.push(sorted.clone());
        self.update_index.insert(sorted, id);
        ZddUpdate(id)
    }

    /// Applies a registered fused update to every set of the family in one
    /// cached traversal (see [`ZddManager::register_update`]).
    pub fn apply_update(&mut self, f: ZddRef, update: ZddUpdate) -> ZddRef {
        self.try_apply_update(f, update).expect(UNGOVERNED)
    }

    /// Fallible [`ZddManager::apply_update`].
    pub fn try_apply_update(&mut self, f: ZddRef, update: ZddUpdate) -> Result<ZddRef, Interrupt> {
        assert!(
            (update.0 as usize) < self.updates.len(),
            "update handle from another manager"
        );
        Ok(ZddRef(self.apply_rec(f.0, update.0, 0)?))
    }

    fn apply_rec(&mut self, f: u32, u: u32, i: u32) -> Result<u32, Interrupt> {
        if f == EMPTY {
            return Ok(EMPTY);
        }
        if i as usize == self.updates[u as usize].len() {
            return Ok(f);
        }
        if let Some(r) = self.cache.get(ZOp::Apply as u8, f, u, i) {
            return Ok(r);
        }
        self.checkpoint()?;
        let (e, action) = self.updates[u as usize][i as usize];
        let lf = self.level(f);
        let r = if lf > e {
            // The element occurs in no set of `f` (the `BASE` terminal
            // included): requirements fail outright, additions prepend the
            // element above the whole remainder.
            match action {
                ZddUpdateAction::RequireRemove | ZddUpdateAction::RequireKeep => EMPTY,
                ZddUpdateAction::Toggle => {
                    let rest = self.apply_rec(f, u, i + 1)?;
                    self.mk(e, EMPTY, rest)
                }
            }
        } else if lf == e {
            let n = self.nodes[f as usize];
            match action {
                ZddUpdateAction::RequireRemove => self.apply_rec(n.high, u, i + 1)?,
                ZddUpdateAction::RequireKeep => {
                    let rest = self.apply_rec(n.high, u, i + 1)?;
                    self.mk(e, EMPTY, rest)
                }
                ZddUpdateAction::Toggle => {
                    // Sets without the element gain it and vice versa, so
                    // the two children swap roles.
                    let gained = self.apply_rec(n.low, u, i + 1)?;
                    let lost = self.apply_rec(n.high, u, i + 1)?;
                    self.mk(e, lost, gained)
                }
            }
        } else {
            // lf < e: this element is untouched; push the update into both
            // children.
            let n = self.nodes[f as usize];
            let low = self.apply_rec(n.low, u, i)?;
            let high = self.apply_rec(n.high, u, i)?;
            self.mk(lf, low, high)
        };
        self.cache.put(ZOp::Apply as u8, f, u, i, r);
        Ok(r)
    }

    /// Number of sets in the family (exact for counts below 2^53).
    pub fn count(&self, f: ZddRef) -> f64 {
        let mut memo: HashMap<u32, f64> = HashMap::new();
        self.count_rec(f.0, &mut memo)
    }

    fn count_rec(&self, f: u32, memo: &mut HashMap<u32, f64>) -> f64 {
        match f {
            EMPTY => 0.0,
            BASE => 1.0,
            _ => {
                if let Some(&c) = memo.get(&f) {
                    return c;
                }
                let n = self.nodes[f as usize];
                let c = self.count_rec(n.low, memo) + self.count_rec(n.high, memo);
                memo.insert(f, c);
                c
            }
        }
    }

    /// Whether the family contains exactly the given set.
    pub fn contains(&self, f: ZddRef, set: &[usize]) -> bool {
        let mut elems: Vec<u32> = set.iter().map(|&e| e as u32).collect();
        elems.sort_unstable();
        elems.dedup();
        let mut cur = f.0;
        let mut i = 0;
        loop {
            if cur == EMPTY {
                return false;
            }
            if cur == BASE {
                return i == elems.len();
            }
            let n = self.nodes[cur as usize];
            if i < elems.len() && elems[i] == n.level {
                cur = n.high;
                i += 1;
            } else if i < elems.len() && elems[i] < n.level {
                // A required element can no longer occur.
                return false;
            } else {
                cur = n.low;
            }
        }
    }

    /// Number of nodes in the diagram rooted at `f` (terminals included).
    pub fn node_count(&self, f: ZddRef) -> usize {
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![f.0];
        while let Some(idx) = stack.pop() {
            if !seen.insert(idx) {
                continue;
            }
            let n = self.nodes[idx as usize];
            if n.level != TERMINAL_LEVEL {
                stack.push(n.low);
                stack.push(n.high);
            }
        }
        seen.len()
    }

    /// Enumerates every set of the family (each as a sorted vector of
    /// element indices). Intended for tests and small families.
    pub fn sets(&self, f: ZddRef) -> Vec<Vec<usize>> {
        let mut out = Vec::new();
        let mut prefix = Vec::new();
        self.sets_rec(f.0, &mut prefix, &mut out);
        out.sort();
        out
    }

    fn sets_rec(&self, f: u32, prefix: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        match f {
            EMPTY => {}
            BASE => out.push(prefix.clone()),
            _ => {
                let n = self.nodes[f as usize];
                self.sets_rec(n.low, prefix, out);
                prefix.push(n.level as usize);
                self.sets_rec(n.high, prefix, out);
                prefix.pop();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_base() {
        let z = ZddManager::new(4);
        assert_eq!(z.count(z.empty()), 0.0);
        assert_eq!(z.count(z.base()), 1.0);
        assert!(z.contains(z.base(), &[]));
        assert!(!z.contains(z.empty(), &[]));
    }

    #[test]
    fn families_and_set_operations() {
        let mut z = ZddManager::new(5);
        let f = z.family_from_sets(&[vec![0, 2], vec![1], vec![0, 1, 3]]);
        assert_eq!(z.count(f), 3.0);
        assert!(z.contains(f, &[0, 2]));
        assert!(z.contains(f, &[1]));
        assert!(!z.contains(f, &[0]));

        let g = z.family_from_sets(&[vec![1], vec![4]]);
        let u = z.union(f, g);
        assert_eq!(z.count(u), 4.0);
        let i = z.intersect(f, g);
        assert_eq!(z.sets(i), vec![vec![1]]);
        let d = z.diff(f, g);
        assert_eq!(z.count(d), 2.0);
        assert!(!z.contains(d, &[1]));
    }

    #[test]
    fn union_is_idempotent_and_commutative() {
        let mut z = ZddManager::new(4);
        let f = z.family_from_sets(&[vec![0], vec![1, 2]]);
        let g = z.family_from_sets(&[vec![3], vec![0]]);
        assert_eq!(z.union(f, f), f);
        let fg = z.union(f, g);
        let gf = z.union(g, f);
        assert_eq!(fg, gf);
    }

    #[test]
    fn subsets_partition_the_family() {
        let mut z = ZddManager::new(4);
        let f = z.family_from_sets(&[vec![0, 1], vec![1, 2], vec![3], vec![]]);
        let with1 = z.subset1(f, 1);
        let without1 = z.subset0(f, 1);
        assert_eq!(z.sets(with1), vec![vec![0], vec![2]]);
        assert_eq!(z.sets(without1), vec![vec![], vec![3]]);
        assert_eq!(z.count(with1) + z.count(without1), z.count(f));
    }

    #[test]
    fn change_toggles_membership() {
        let mut z = ZddManager::new(4);
        let f = z.family_from_sets(&[vec![0], vec![1]]);
        let g = z.change(f, 0);
        assert_eq!(z.sets(g), vec![vec![], vec![0, 1]]);
        // Changing the same variable twice is the identity.
        let h = z.change(g, 0);
        assert_eq!(h, f);
    }

    #[test]
    fn single_set_ignores_duplicates() {
        let mut z = ZddManager::new(4);
        let f = z.single_set(&[2, 0, 2]);
        assert_eq!(z.sets(f), vec![vec![0, 2]]);
        assert!(z.node_count(f) > 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_element_panics() {
        let mut z = ZddManager::new(2);
        let _ = z.single_set(&[5]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_change_panics() {
        let mut z = ZddManager::new(2);
        let b = z.base();
        let _ = z.change(b, 5);
    }

    #[test]
    fn canonical_handles() {
        let mut z = ZddManager::new(4);
        let f = z.family_from_sets(&[vec![0, 1], vec![2]]);
        let g1 = z.family_from_sets(&[vec![2], vec![0, 1]]);
        assert_eq!(f, g1);
    }

    /// Applies the same update through the step-by-step operations, as the
    /// pre-fusion engine did: the fused recursion must agree exactly.
    fn sequential_update(
        z: &mut ZddManager,
        f: ZddRef,
        actions: &[(usize, ZddUpdateAction)],
    ) -> ZddRef {
        let mut acc = f;
        for &(e, action) in actions {
            acc = match action {
                ZddUpdateAction::RequireRemove => z.subset1(acc, e),
                ZddUpdateAction::RequireKeep => {
                    let kept = z.subset1(acc, e);
                    z.change(kept, e)
                }
                ZddUpdateAction::Toggle => z.change(acc, e),
            };
        }
        acc
    }

    #[test]
    fn fused_update_matches_sequential_composition() {
        use ZddUpdateAction::*;
        let mut z = ZddManager::new(6);
        // A family mixing all membership patterns over the touched elements.
        let f = z.family_from_sets(&[
            vec![],
            vec![0],
            vec![1],
            vec![0, 1, 3],
            vec![2, 4],
            vec![0, 2, 5],
            vec![1, 2, 3, 4, 5],
        ]);
        let updates: Vec<Vec<(usize, ZddUpdateAction)>> = vec![
            vec![(0, RequireRemove), (2, Toggle)],
            vec![(1, RequireKeep)],
            vec![(3, Toggle), (0, RequireRemove)],
            vec![(5, Toggle), (4, RequireRemove), (1, RequireKeep)],
            vec![(0, RequireKeep), (1, RequireRemove), (3, Toggle)],
            vec![],
        ];
        for actions in updates {
            let expected = sequential_update(&mut z, f, &actions);
            let u = z.register_update(&actions);
            let got = z.apply_update(f, u);
            assert_eq!(got, expected, "actions {actions:?}");
            // Applying through the cache a second time returns the same
            // canonical handle.
            assert_eq!(z.apply_update(f, u), expected);
        }
    }

    #[test]
    fn fused_update_on_empty_and_base() {
        use ZddUpdateAction::*;
        let mut z = ZddManager::new(3);
        let fire = z.register_update(&[(0, RequireRemove), (1, Toggle)]);
        assert_eq!(z.apply_update(z.empty(), fire), z.empty());
        // The empty set fails the requirement on element 0.
        assert_eq!(z.apply_update(z.base(), fire), z.empty());
        let add = z.register_update(&[(1, Toggle), (2, Toggle)]);
        let b = z.base();
        let got = z.apply_update(b, add);
        assert_eq!(z.sets(got), vec![vec![1, 2]]);
    }

    #[test]
    fn registering_the_same_update_returns_the_same_handle() {
        use ZddUpdateAction::*;
        let mut z = ZddManager::new(4);
        let a = z.register_update(&[(2, Toggle), (0, RequireRemove)]);
        // Same actions in a different textual order intern identically.
        let b = z.register_update(&[(0, RequireRemove), (2, Toggle)]);
        assert_eq!(a, b);
        let c = z.register_update(&[(0, RequireRemove)]);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "listed twice")]
    fn duplicate_update_element_panics() {
        use ZddUpdateAction::*;
        let mut z = ZddManager::new(4);
        let _ = z.register_update(&[(1, Toggle), (1, RequireRemove)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_update_element_panics() {
        use ZddUpdateAction::*;
        let mut z = ZddManager::new(2);
        let _ = z.register_update(&[(7, Toggle)]);
    }

    /// Builds two moderately wide families over `n` elements for the
    /// budget tests: enough distinct subproblems that a tight step ceiling
    /// fires mid-recursion rather than before or after the real work.
    fn wide_families(n: usize) -> (ZddManager, ZddRef, ZddRef) {
        let mut z = ZddManager::new(n);
        let mut left = Vec::new();
        let mut right = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                left.push(vec![i, j]);
                right.push(vec![i, (j + 1) % n]);
            }
            left.push((0..=i).collect());
            right.push((i..n).collect());
        }
        let f = z.family_from_sets(&left);
        let g = z.family_from_sets(&right);
        (z, f, g)
    }

    #[test]
    fn interrupted_zdd_operation_leaves_the_manager_consistent() {
        use crate::budget::{Budget, TruncationReason};

        let (mut z, f, g) = wide_families(10);
        // A reference result from an ungoverned manager.
        let (mut zr, fr, gr) = wide_families(10);
        let union_ref = zr.union(fr, gr);
        let expected_sets = zr.count(union_ref);

        z.install_budget(Budget::new().with_step_ceiling(3));
        let err = z.try_union(f, g).expect_err("ceiling of 3 must trip");
        assert_eq!(err.reason, TruncationReason::StepBudget);
        // The breach is sticky: every governed operation now unwinds with
        // the same first reason.
        let err2 = z.try_diff(f, g).expect_err("sticky breach");
        assert_eq!(err2.reason, TruncationReason::StepBudget);

        // Removing the budget restores the manager: the interrupted
        // operation re-runs to completion on the same arena and matches
        // the ungoverned reference.
        let spent = z.take_budget().expect("budget was installed");
        assert!(spent.breached().is_some());
        let union_after = z.union(f, g);
        assert_eq!(z.count(union_after), expected_sets);
    }

    #[test]
    fn ungoverned_zdd_managers_never_interrupt() {
        let (mut z, f, g) = wide_families(8);
        let u = z.try_union(f, g).expect("no budget installed");
        let i = z.try_intersect(f, g).expect("no budget installed");
        let d = z.try_diff(u, i).expect("no budget installed");
        assert_eq!(z.count(d), z.count(u) - z.count(i));
    }
}
