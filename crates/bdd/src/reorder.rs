//! Dynamic variable reordering: adjacent-level swap and Rudell-style sifting.
//!
//! Reordering keeps every *protected* root denoting the same boolean
//! function; unprotected [`Ref`](crate::Ref) handles may dangle afterwards,
//! exactly as for [`BddManager::collect_garbage`].

use crate::manager::{BddManager, VarId, TERMINAL_LEVEL};

/// Configuration of the sifting reordering heuristic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SiftConfig {
    /// A variable stops moving in one direction once the live node count
    /// exceeds `max_growth` times the best size seen for that variable.
    pub max_growth: f64,
    /// Maximum number of variables to sift (the largest levels first).
    /// `None` sifts every variable.
    pub max_vars: Option<usize>,
}

impl Default for SiftConfig {
    fn default() -> Self {
        SiftConfig {
            max_growth: 1.2,
            max_vars: None,
        }
    }
}

impl BddManager {
    /// Exchanges the variables at `level` and `level + 1` while preserving
    /// the function of every live node.
    ///
    /// Node handles of nodes at `level` (and of every node not at these two
    /// levels) remain valid and keep denoting the same function. Nodes at
    /// `level + 1` that become dead are reclaimed immediately.
    ///
    /// # Panics
    ///
    /// Panics if `level + 1` is not a valid level.
    pub fn swap_adjacent(&mut self, level: u32) {
        let x = level as usize;
        let y = x + 1;
        assert!(y < self.var_at_level.len(), "level out of range for swap");
        self.cache.invalidate_all();

        let x_nodes: Vec<u32> = self.unique[x].node_indices().collect();
        let y_nodes: Vec<u32> = self.unique[y].node_indices().collect();
        self.unique[x].clear_in_place();
        self.unique[y].clear_in_place();

        // Pass A: nodes at level x that do not depend on the level-y variable
        // keep their variable and simply move down to level y. Children are
        // packed edges: the pointed-at node sits at `edge >> 1`.
        let mut dependent: Vec<u32> = Vec::new();
        for idx in x_nodes {
            let n = self.nodes[idx as usize];
            let low_at_y = self.nodes[(n.low >> 1) as usize].level == y as u32;
            let high_at_y = self.nodes[(n.high >> 1) as usize].level == y as u32;
            if low_at_y || high_at_y {
                dependent.push(idx);
            } else {
                self.nodes[idx as usize].level = y as u32;
                // UniqueTable::insert debug-asserts key uniqueness itself.
                self.unique[y].insert(n.low, n.high, idx);
            }
        }

        // Pass B: rewrite the nodes that depend on both variables. The
        // grandchild cofactors push the else-edge's complement attribute
        // through; the then-edge is regular by canonicity, so `f11` is
        // regular and the rewritten then-edge `mk(y, f01, f11)` stays
        // regular — the in-place rewrite cannot break the canonical form.
        for idx in dependent {
            let n = self.nodes[idx as usize];
            let (f0, f1) = (n.low, n.high);
            let c0 = f0 & 1;
            let (f00, f01) = if self.nodes[(f0 >> 1) as usize].level == y as u32 {
                let child = self.nodes[(f0 >> 1) as usize];
                (child.low ^ c0, child.high ^ c0)
            } else {
                (f0, f0)
            };
            debug_assert_eq!(f1 & 1, 0, "then-edges are regular by canonicity");
            let (f10, f11) = if self.nodes[(f1 >> 1) as usize].level == y as u32 {
                let child = self.nodes[(f1 >> 1) as usize];
                (child.low, child.high)
            } else {
                (f1, f1)
            };
            let new_low = if f00 == f10 {
                f00
            } else {
                self.mk(y as u32, f00, f10)
            };
            let new_high = if f01 == f11 {
                f01
            } else {
                self.mk(y as u32, f01, f11)
            };
            debug_assert_ne!(new_low, new_high, "swapped node became redundant");
            debug_assert_eq!(new_high & 1, 0, "rewritten then-edge must stay regular");
            self.nodes[(new_low >> 1) as usize].refcount += 1;
            self.nodes[(new_high >> 1) as usize].refcount += 1;
            self.nodes[(f0 >> 1) as usize].refcount =
                self.nodes[(f0 >> 1) as usize].refcount.saturating_sub(1);
            self.nodes[(f1 >> 1) as usize].refcount =
                self.nodes[(f1 >> 1) as usize].refcount.saturating_sub(1);
            let node = &mut self.nodes[idx as usize];
            node.low = new_low;
            node.high = new_high;
            // The node keeps level x, which now hosts the other variable.
            self.unique[x].insert(new_low, new_high, idx);
        }

        // Pass C: surviving nodes of the old level y move up to level x;
        // dead ones are reclaimed.
        for idx in y_nodes {
            let n = self.nodes[idx as usize];
            let dead = n.refcount == 0 && !self.protected.contains_key(&idx);
            if dead {
                self.nodes[(n.low >> 1) as usize].refcount =
                    self.nodes[(n.low >> 1) as usize].refcount.saturating_sub(1);
                self.nodes[(n.high >> 1) as usize].refcount = self.nodes[(n.high >> 1) as usize]
                    .refcount
                    .saturating_sub(1);
                self.nodes[idx as usize].free = true;
                self.free_list.push(idx);
            } else {
                self.nodes[idx as usize].level = x as u32;
                self.unique[x].insert(n.low, n.high, idx);
            }
        }

        // Finally exchange the variable <-> level maps.
        let vx = self.var_at_level[x];
        let vy = self.var_at_level[y];
        self.var_at_level[x] = vy;
        self.var_at_level[y] = vx;
        self.level_of_var[vx as usize] = y as u32;
        self.level_of_var[vy as usize] = x as u32;
    }

    /// Moves variable `v` to `target_level` through adjacent swaps.
    pub fn move_var_to_level(&mut self, v: VarId, target_level: u32) {
        let mut cur = self.level_of(v);
        while cur < target_level {
            self.swap_adjacent(cur);
            cur += 1;
        }
        while cur > target_level {
            self.swap_adjacent(cur - 1);
            cur -= 1;
        }
    }

    /// Reorders the variables to exactly `order` (top to bottom) through
    /// adjacent swaps.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of the declared variables.
    pub fn reorder_to(&mut self, order: &[VarId]) {
        assert_eq!(
            order.len(),
            self.num_vars(),
            "order must mention every variable exactly once"
        );
        let mut seen = vec![false; self.num_vars()];
        for v in order {
            assert!(
                !std::mem::replace(&mut seen[v.index()], true),
                "duplicate variable in order"
            );
        }
        for (target, &v) in order.iter().enumerate() {
            self.move_var_to_level(v, target as u32);
        }
    }

    /// Garbage-collects and then applies Rudell's sifting heuristic with the
    /// default [`SiftConfig`]. Returns the live node count after reordering.
    pub fn sift(&mut self) -> usize {
        self.sift_with(SiftConfig::default())
    }

    /// Sifting with an explicit configuration.
    ///
    /// Only [protected](BddManager::protect) roots are guaranteed to survive;
    /// call this only at points where every needed BDD is protected.
    pub fn sift_with(&mut self, config: SiftConfig) -> usize {
        self.collect_garbage();
        let nlevels = self.var_at_level.len();
        if nlevels < 2 {
            return self.live_node_count();
        }
        // Sift the variables with the most nodes first.
        let mut by_size: Vec<(usize, VarId)> = (0..nlevels)
            .map(|l| (self.unique[l].len(), self.var_at(l as u32)))
            .collect();
        by_size.sort_unstable_by_key(|&(size, _)| std::cmp::Reverse(size));
        let limit = config.max_vars.unwrap_or(nlevels).min(nlevels);

        for &(_, var) in by_size.iter().take(limit) {
            self.sift_one(var, config.max_growth);
        }
        self.collect_garbage();
        debug_assert!(
            self.check_canonical().is_ok(),
            "canonical-form audit failed after sifting: {:?}",
            self.check_canonical()
        );
        self.live_node_count()
    }

    fn sift_one(&mut self, var: VarId, max_growth: f64) {
        let nlevels = self.var_at_level.len() as u32;
        let start = self.level_of(var);
        let mut best_size = self.live_node_count();
        let mut best_level = start;

        // Decide which direction to explore first (shorter side first).
        let explore = |down_first: bool| -> [i32; 2] {
            if down_first {
                [1, -1]
            } else {
                [-1, 1]
            }
        };
        let down_first = (nlevels - 1 - start) <= start;

        for dir in explore(down_first) {
            // Return to the best position found so far before exploring the
            // other direction.
            self.move_var_to_level(var, best_level);
            let mut level = best_level;
            loop {
                let next = level as i64 + dir as i64;
                if next < 0 || next >= nlevels as i64 {
                    break;
                }
                if dir > 0 {
                    self.swap_adjacent(level);
                } else {
                    self.swap_adjacent(level - 1);
                }
                level = next as u32;
                let size = self.live_node_count();
                if size < best_size {
                    best_size = size;
                    best_level = level;
                }
                if size as f64 > best_size as f64 * max_growth {
                    break;
                }
            }
        }
        self.move_var_to_level(var, best_level);
    }

    /// Number of live internal nodes at each level (diagnostic for ordering
    /// experiments).
    pub fn level_profile(&self) -> Vec<usize> {
        self.unique.iter().map(|t| t.len()).collect()
    }

    /// Total number of live internal nodes (terminals excluded), counting
    /// only nodes registered in the unique tables.
    pub fn unique_table_size(&self) -> usize {
        self.unique.iter().map(|t| t.len()).sum()
    }

    #[allow(dead_code)]
    pub(crate) fn debug_assert_levels(&self) {
        for (idx, n) in self.nodes.iter().enumerate().skip(1) {
            if n.free {
                continue;
            }
            debug_assert!(n.level != TERMINAL_LEVEL);
            debug_assert!(
                self.nodes[(n.low >> 1) as usize].level > n.level,
                "node {idx}"
            );
            debug_assert!(
                self.nodes[(n.high >> 1) as usize].level > n.level,
                "node {idx}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::Ref;

    /// Builds a function whose BDD size is order-sensitive:
    /// (x0 ∧ x3) ∨ (x1 ∧ x4) ∨ (x2 ∧ x5).
    fn order_sensitive(m: &mut BddManager) -> Ref {
        let v = m.variables();
        let mut acc = m.zero();
        for i in 0..3 {
            let a = m.var(v[i]);
            let b = m.var(v[i + 3]);
            let t = m.and(a, b);
            acc = m.or(acc, t);
        }
        acc
    }

    fn eval_reference(bits: &[bool]) -> bool {
        (bits[0] && bits[3]) || (bits[1] && bits[4]) || (bits[2] && bits[5])
    }

    fn assert_function(m: &BddManager, f: Ref) {
        for bits in 0u32..64 {
            let a: Vec<bool> = (0..6).map(|i| bits & (1 << i) != 0).collect();
            assert_eq!(
                m.eval(f, |v| a[v.index()]),
                eval_reference(&a),
                "mismatch for {a:?}"
            );
        }
    }

    #[test]
    fn swap_preserves_functions() {
        let mut m = BddManager::with_vars(6);
        let f = order_sensitive(&mut m);
        m.protect(f);
        for level in 0..5 {
            m.swap_adjacent(level);
            assert_function(&m, f);
            assert!(m.check_invariants().is_ok(), "after swap at {level}");
        }
        // Swap back in reverse order restores the original order.
        for level in (0..5).rev() {
            m.swap_adjacent(level);
        }
        assert_eq!(m.current_order(), m.variables());
        assert_function(&m, f);
    }

    #[test]
    fn reorder_to_target_order() {
        let mut m = BddManager::with_vars(6);
        let f = order_sensitive(&mut m);
        m.protect(f);
        let v = m.variables();
        let interleaved = vec![v[0], v[3], v[1], v[4], v[2], v[5]];
        m.reorder_to(&interleaved);
        assert_eq!(m.current_order(), interleaved);
        assert_function(&m, f);
        assert!(m.check_invariants().is_ok());
    }

    #[test]
    fn interleaving_shrinks_order_sensitive_function() {
        let mut m = BddManager::with_vars(6);
        let f = order_sensitive(&mut m);
        m.protect(f);
        m.collect_garbage();
        let before = m.node_count(f);
        let v = m.variables();
        m.reorder_to(&[v[0], v[3], v[1], v[4], v[2], v[5]]);
        m.collect_garbage();
        let after = m.node_count(f);
        assert!(
            after < before,
            "interleaved order should shrink the BDD ({before} -> {after})"
        );
    }

    #[test]
    fn sifting_never_loses_the_function_and_helps() {
        let mut m = BddManager::with_vars(6);
        let f = order_sensitive(&mut m);
        m.protect(f);
        m.collect_garbage();
        let before = m.node_count(f);
        m.sift();
        assert_function(&m, f);
        assert!(m.check_invariants().is_ok());
        let after = m.node_count(f);
        assert!(after <= before);
        // The optimal size for this function with interleaved order is 8
        // internal nodes + 2 terminals.
        assert!(
            after <= 10,
            "sifting should reach a near-optimal size, got {after}"
        );
    }

    #[test]
    fn sift_respects_max_vars() {
        let mut m = BddManager::with_vars(6);
        let f = order_sensitive(&mut m);
        m.protect(f);
        m.sift_with(SiftConfig {
            max_growth: 1.1,
            max_vars: Some(2),
        });
        assert_function(&m, f);
        assert!(m.check_invariants().is_ok());
    }
}
