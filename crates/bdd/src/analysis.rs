//! Read-only analyses of BDDs: evaluation, support, node counting,
//! satisfying-assignment counting and enumeration.
//!
//! Traversals mark visited nodes in arena-indexed scratch vectors rather
//! than hash sets: node indices are dense, so a `Vec` lookup is one load
//! with no hashing, which matters for the node counts taken after every
//! traversal iteration of the experiment harness.
//!
//! With complement edges, structure lives in *nodes* while polarity lives
//! in *edges*: the structural walks (support, node counts) strip the
//! complement bit and traverse node indices, while the semantic walks
//! (eval, sat counting, enumeration) push the accumulated complement
//! parity through each step.

use crate::manager::{BddManager, Ref, VarId, ONE, TERMINAL_LEVEL, ZERO};
use std::collections::HashSet;

impl BddManager {
    /// Evaluates `f` under the assignment given by `assignment`
    /// (`true` means the variable is set).
    pub fn eval<A: Fn(VarId) -> bool>(&self, f: Ref, assignment: A) -> bool {
        let mut cur = f.0;
        loop {
            match cur {
                ONE => return true,
                ZERO => return false,
                _ => {
                    let c = cur & 1;
                    let n = &self.nodes[(cur >> 1) as usize];
                    let var = self.var_at(n.level);
                    cur = (if assignment(var) { n.high } else { n.low }) ^ c;
                }
            }
        }
    }

    /// The set of variables `f` actually depends on, sorted by id.
    pub fn support(&self, f: Ref) -> Vec<VarId> {
        let mut seen = vec![false; self.nodes.len()];
        let mut in_support = vec![false; self.num_vars()];
        let mut stack = vec![f.0 >> 1];
        while let Some(idx) = stack.pop() {
            if seen[idx as usize] {
                continue;
            }
            seen[idx as usize] = true;
            let n = &self.nodes[idx as usize];
            if n.level == TERMINAL_LEVEL {
                continue;
            }
            in_support[self.var_at(n.level).index()] = true;
            stack.push(n.low >> 1);
            stack.push(n.high >> 1);
        }
        in_support
            .iter()
            .enumerate()
            .filter(|&(_, &present)| present)
            .map(|(i, _)| VarId(i as u32))
            .collect()
    }

    /// Number of nodes in the diagram rooted at `f`, the shared terminal
    /// included. `f` and `¬f` have the same count: complement lives on the
    /// edges, not in the nodes.
    pub fn node_count(&self, f: Ref) -> usize {
        self.shared_node_count(&[f])
    }

    /// Number of distinct nodes reachable from any of `roots`
    /// (the "shared size" of a set of functions), the terminal included.
    pub fn shared_node_count(&self, roots: &[Ref]) -> usize {
        let mut seen = vec![false; self.nodes.len()];
        let mut count = 0usize;
        let mut stack: Vec<u32> = roots.iter().map(|r| r.0 >> 1).collect();
        while let Some(idx) = stack.pop() {
            if seen[idx as usize] {
                continue;
            }
            seen[idx as usize] = true;
            count += 1;
            let n = &self.nodes[idx as usize];
            if n.level != TERMINAL_LEVEL {
                stack.push(n.low >> 1);
                stack.push(n.high >> 1);
            }
        }
        count
    }

    /// Number of satisfying assignments of `f` over `nvars` variables,
    /// as a floating point value.
    ///
    /// The count is approximate. A complemented edge is read as `2^k − c`,
    /// which cancels in `f64` once `k` passes 53, even when the true count
    /// is small: phil-14 under the sparse encoding (98 variables) counts 0.
    /// Exact counting is open (ROADMAP.md, item 1).
    ///
    /// `nvars` must be at least the number of support variables of `f`;
    /// typically it is the total number of variables of the encoding.
    ///
    /// # Panics
    ///
    /// Panics if `nvars` is smaller than the number of declared variables
    /// appearing in the support of `f`.
    pub fn sat_count(&self, f: Ref, nvars: usize) -> f64 {
        let support = self.support(f);
        assert!(
            support.len() <= nvars,
            "nvars ({nvars}) is smaller than the support size ({})",
            support.len()
        );
        // Arena-indexed memo; NaN marks "not yet computed".
        let mut memo: Vec<f64> = vec![f64::NAN; self.nodes.len()];
        // Count over the support only, then scale by the free variables.
        let levels: Vec<u32> = {
            let mut l: Vec<u32> = support.iter().map(|&v| self.level_of(v)).collect();
            l.sort_unstable();
            l
        };
        let count = self.sat_count_rec(f.0, &levels, 0, &mut memo);
        count * 2f64.powi((nvars - support.len()) as i32)
    }

    fn sat_count_rec(&self, f: u32, levels: &[u32], depth: usize, memo: &mut Vec<f64>) -> f64 {
        if f == ZERO {
            return 0.0;
        }
        if f == ONE {
            return 2f64.powi((levels.len() - depth) as i32);
        }
        let idx = (f >> 1) as usize;
        let n = &self.nodes[idx];
        // Position of this node's level within the support levels.
        let pos = levels.partition_point(|&l| l < n.level);
        debug_assert!(pos < levels.len() && levels[pos] == n.level);
        // The memo stores the count of the node's *regular* function over
        // the support levels from `pos` on; a complemented edge reads the
        // complementary count of the same entry, so `f` and `¬f` share it.
        let sub = if memo[idx].is_nan() {
            let low = self.sat_count_rec(n.low, levels, pos + 1, memo);
            let high = self.sat_count_rec(n.high, levels, pos + 1, memo);
            let c = low + high;
            memo[idx] = c;
            c
        } else {
            memo[idx]
        };
        let sub = if f & 1 == 1 {
            2f64.powi((levels.len() - pos) as i32) - sub
        } else {
            sub
        };
        // Scale for the support variables skipped between `depth` and `pos`.
        sub * 2f64.powi((pos - depth) as i32)
    }

    /// Returns one satisfying assignment of `f` as `(variable, value)` pairs
    /// over the support of `f`, or `None` if `f` is unsatisfiable.
    pub fn pick_one(&self, f: Ref) -> Option<Vec<(VarId, bool)>> {
        if f.0 == ZERO {
            return None;
        }
        let mut out = Vec::new();
        let mut cur = f.0;
        while cur != ONE {
            let c = cur & 1;
            let n = &self.nodes[(cur >> 1) as usize];
            let var = self.var_at(n.level);
            let low = n.low ^ c;
            if low != ZERO {
                out.push((var, false));
                cur = low;
            } else {
                out.push((var, true));
                cur = n.high ^ c;
            }
        }
        Some(out)
    }

    /// Iterates over all satisfying assignments of `f`, restricted to the
    /// variables in `vars` (every returned vector has one `bool` per entry of
    /// `vars`, in the same order). Variables outside `vars` must not occur in
    /// the support of `f`.
    ///
    /// # Panics
    ///
    /// Panics if the support of `f` is not contained in `vars`.
    pub fn sat_assignments(&self, f: Ref, vars: &[VarId]) -> SatAssignments<'_> {
        let support = self.support(f);
        let var_set: HashSet<VarId> = vars.iter().copied().collect();
        assert!(
            support.iter().all(|v| var_set.contains(v)),
            "support of f must be contained in the requested variable set"
        );
        let mut order: Vec<(u32, usize)> = vars
            .iter()
            .enumerate()
            .map(|(i, &v)| (self.level_of(v), i))
            .collect();
        order.sort_unstable();
        SatAssignments {
            manager: self,
            order,
            stack: vec![Frame {
                edge: f.0,
                depth: 0,
                bits: Vec::new(),
            }],
        }
    }
}

struct Frame {
    edge: u32,
    depth: usize,
    bits: Vec<bool>,
}

/// Iterator over the satisfying assignments of a BDD.
///
/// Produced by [`BddManager::sat_assignments`].
pub struct SatAssignments<'a> {
    manager: &'a BddManager,
    /// `(level, position-in-output)` for each requested variable, sorted by level.
    order: Vec<(u32, usize)>,
    stack: Vec<Frame>,
}

impl Iterator for SatAssignments<'_> {
    type Item = Vec<bool>;

    fn next(&mut self) -> Option<Self::Item> {
        while let Some(frame) = self.stack.pop() {
            if frame.edge == ZERO {
                continue;
            }
            if frame.depth == self.order.len() {
                debug_assert_eq!(frame.edge, ONE);
                let mut out = vec![false; self.order.len()];
                for (i, &(_, pos)) in self.order.iter().enumerate() {
                    out[pos] = frame.bits[i];
                }
                return Some(out);
            }
            let (level, _) = self.order[frame.depth];
            let node_level = self.manager.level(frame.edge);
            let (low, high) = if node_level == level {
                let c = frame.edge & 1;
                let n = &self.manager.nodes[(frame.edge >> 1) as usize];
                (n.low ^ c, n.high ^ c)
            } else {
                // The variable is free at this node: both branches stay here.
                (frame.edge, frame.edge)
            };
            let mut bits_high = frame.bits.clone();
            bits_high.push(true);
            let mut bits_low = frame.bits;
            bits_low.push(false);
            self.stack.push(Frame {
                edge: high,
                depth: frame.depth + 1,
                bits: bits_high,
            });
            self.stack.push(Frame {
                edge: low,
                depth: frame.depth + 1,
                bits: bits_low,
            });
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn support_and_node_count() {
        let mut m = BddManager::with_vars(4);
        let v = m.variables();
        let a = m.var(v[0]);
        let c = m.var(v[2]);
        let f = m.xor(a, c);
        assert_eq!(m.support(f), vec![v[0], v[2]]);
        // x0 xor x2 under complement edges: two internal nodes (the x2
        // literal serves both branches through its polarities) + the
        // single shared terminal.
        assert_eq!(m.node_count(f), 3);
        // Complement lives on the edge: ¬f costs nothing.
        let nf = m.not(f);
        assert_eq!(m.node_count(nf), m.node_count(f));
        let g = m.and(a, c);
        assert!(m.shared_node_count(&[f, g]) <= m.node_count(f) + m.node_count(g));
    }

    #[test]
    fn sat_count_simple() {
        let mut m = BddManager::with_vars(3);
        let v = m.variables();
        let a = m.var(v[0]);
        let b = m.var(v[1]);
        let f = m.and(a, b);
        assert_eq!(m.sat_count(f, 3), 2.0); // x2 free
        assert_eq!(m.sat_count(f, 2), 1.0);
        let g = m.or(a, b);
        assert_eq!(m.sat_count(g, 3), 6.0);
        assert_eq!(m.sat_count(m.one(), 3), 8.0);
        assert_eq!(m.sat_count(m.zero(), 3), 0.0);
        // Counting through a complemented root.
        let nf = m.not(f);
        assert_eq!(m.sat_count(nf, 3), 6.0);
    }

    #[test]
    fn sat_count_with_gap_in_support() {
        let mut m = BddManager::with_vars(4);
        let v = m.variables();
        let a = m.var(v[0]);
        let d = m.var(v[3]);
        let f = m.iff(a, d);
        // Over vars {0,3}: 2 solutions; over all 4: 8.
        assert_eq!(m.sat_count(f, 4), 8.0);
    }

    #[test]
    fn pick_one_satisfies() {
        let mut m = BddManager::with_vars(3);
        let v = m.variables();
        let a = m.var(v[0]);
        let nb = m.nvar(v[1]);
        let f = m.and(a, nb);
        let sol = m.pick_one(f).unwrap();
        let lookup = |var: VarId| sol.iter().find(|(v2, _)| *v2 == var).map(|&(_, b)| b);
        assert!(m.eval(f, |var| lookup(var).unwrap_or(false)));
        assert!(m.pick_one(m.zero()).is_none());
        // A complemented root enumerates the complementary set.
        let nf = m.not(f);
        let sol2 = m.pick_one(nf).unwrap();
        let lookup2 = |var: VarId| sol2.iter().find(|(v2, _)| *v2 == var).map(|&(_, b)| b);
        assert!(!m.eval(f, |var| lookup2(var).unwrap_or(false)));
    }

    #[test]
    fn sat_assignments_enumerates_all() {
        let mut m = BddManager::with_vars(3);
        let v = m.variables();
        let a = m.var(v[0]);
        let b = m.var(v[1]);
        let f = m.xor(a, b);
        let sols: Vec<Vec<bool>> = m.sat_assignments(f, &[v[0], v[1]]).collect();
        assert_eq!(sols.len(), 2);
        for s in &sols {
            assert!(s[0] ^ s[1]);
        }
        // With a free variable included, the count doubles.
        let sols3: Vec<Vec<bool>> = m.sat_assignments(f, &[v[0], v[1], v[2]]).collect();
        assert_eq!(sols3.len(), 4);
        // The complemented root enumerates exactly the other assignments.
        let nf = m.not(f);
        let nsols: Vec<Vec<bool>> = m.sat_assignments(nf, &[v[0], v[1]]).collect();
        assert_eq!(nsols.len(), 2);
        for s in &nsols {
            assert!(!(s[0] ^ s[1]));
        }
    }
}
