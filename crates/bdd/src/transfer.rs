//! Subgraph transfer between managers: a compact, manager-independent
//! node slice of a set of BDD roots, used by the daemon's snapshots to
//! persist reached sets and restore them into a fresh manager.
//!
//! A [`SerializedBdd`] is a bottom-up node-arena slice: children always
//! precede parents, references are packed *edges* over slice-local serial
//! numbers — `edge = serial << 1 | complement`, with serial `0` reserved
//! for the terminal — so the complement attribute survives the round-trip
//! on roots and internal edges alike, and the two constant edges (`TRUE` =
//! `0`, `FALSE` = `1`) are identical in every manager. The variable order
//! of the source manager is recorded so the importer can verify both
//! managers agree on it. Import rebuilds the nodes through the ordinary
//! reduction rules, so an imported root is canonical in the destination
//! manager (regular then-edges included) and shares structure with
//! everything already there.
//!
//! The kernel defines no byte format. A slice comes either from
//! [`BddManager::export_subgraph`] or from [`SerializedBdd::from_parts`],
//! which validates parts read back from storage; how the parts sit on disk
//! is the snapshot store's concern.

use crate::manager::{BddManager, Node, Ref, VarId, TERMINAL};
use std::collections::HashMap;

/// A manager-independent serialization of one or more BDD roots.
///
/// Produced by [`BddManager::export_subgraph`] and consumed by
/// [`BddManager::import_subgraph`]. The encoding is a bottom-up slice of
/// `(level, low, high)` triples whose references are packed edges
/// `serial << 1 | complement`: serial `0` is the terminal node (so edge
/// `0` is `TRUE` and edge `1` is `FALSE`) and serial `i + 1` is the `i`-th
/// triple of the slice. Then-edges are regular in the slice exactly as in
/// the arena. The type is `Send + Sync`, so serialized sets can cross
/// thread boundaries (e.g. via `Arc`) without touching either manager.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SerializedBdd {
    /// The source manager's variable order, top level first
    /// (`order[level] = variable id`).
    order: Vec<u32>,
    /// The nodes as `(level, low, high)` with packed-edge children,
    /// children before parents.
    nodes: Vec<(u32, u32, u32)>,
    /// The exported roots as packed edges, in the order given to
    /// `export_subgraph`.
    roots: Vec<u32>,
}

impl SerializedBdd {
    /// Number of variables of the source manager.
    pub fn num_vars(&self) -> usize {
        self.order.len()
    }

    /// The source manager's variable order, top level first.
    pub fn order(&self) -> Vec<VarId> {
        self.order.iter().map(|&v| VarId(v)).collect()
    }

    /// Number of serialized internal nodes (the terminal excluded).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The nodes as `(level, low, high)` triples with packed-edge
    /// children, children before parents.
    pub fn nodes(&self) -> &[(u32, u32, u32)] {
        &self.nodes
    }

    /// The roots as packed edges, in the order given to
    /// [`BddManager::export_subgraph`].
    pub fn roots(&self) -> &[u32] {
        &self.roots
    }

    /// Rebuilds a serialized set from its parts — the variable order, the
    /// node triples and the root edges, as the accessors return them —
    /// after checking every invariant [`BddManager::import_subgraph`]
    /// relies on: the order is a permutation, each level is in range, a
    /// child lies strictly below its parent, no edge points forward,
    /// then-edges are regular and roots reference existing nodes. This is
    /// how a set read back from untrusted storage becomes importable.
    pub fn from_parts(
        order: Vec<VarId>,
        nodes: Vec<(u32, u32, u32)>,
        roots: Vec<u32>,
    ) -> Result<SerializedBdd, &'static str> {
        let mut seen = vec![false; order.len()];
        for v in &order {
            match seen.get_mut(v.index()) {
                Some(slot) if !*slot => *slot = true,
                Some(_) => return Err("duplicate variable in order"),
                None => return Err("variable id out of range"),
            }
        }
        for (i, &(level, low, high)) in nodes.iter().enumerate() {
            if level as usize >= order.len() {
                return Err("node level out of range");
            }
            if high & 1 != 0 {
                return Err("complemented then-edge");
            }
            // An edge may reference the terminal (serial 0) or any earlier
            // node of the slice: children strictly precede parents, and
            // sit strictly deeper in the order.
            for e in [low, high] {
                let serial = (e >> 1) as usize;
                if serial > i {
                    return Err("edge references a later node");
                }
                if serial != 0 && nodes[serial - 1].0 <= level {
                    return Err("child level not below parent");
                }
            }
        }
        if roots.iter().any(|&e| (e >> 1) as usize > nodes.len()) {
            return Err("root references a missing node");
        }
        Ok(SerializedBdd {
            order: order.into_iter().map(|v| v.0).collect(),
            nodes,
            roots,
        })
    }
}

/// Maps a serialized edge to a destination-manager edge, re-applying the
/// serialized complement bit on top of the (always regular) local entry.
#[inline]
fn resolve(e: u32, local: &[u32]) -> u32 {
    let serial = e >> 1;
    if serial == 0 {
        e // constant edges are manager-independent
    } else {
        local[(serial - 1) as usize] ^ (e & 1)
    }
}

impl BddManager {
    /// Serializes the subgraphs rooted at `roots` into a compact,
    /// manager-independent [`SerializedBdd`].
    ///
    /// Shared structure is serialized once: a node reachable from several
    /// roots appears a single time in the slice — and since `f` and `¬f`
    /// are one subgraph under complement edges, exporting both costs one
    /// copy plus a root edge each.
    pub fn export_subgraph(&self, roots: &[Ref]) -> SerializedBdd {
        // `map`: arena node index -> slice serial (1-based; 0 = terminal).
        let mut map: HashMap<u32, u32> = HashMap::new();
        let mut nodes: Vec<(u32, u32, u32)> = Vec::new();
        let mut stack: Vec<u32> = Vec::new();
        let ser_edge = |e: u32, map: &HashMap<u32, u32>| -> u32 {
            if e >> 1 == TERMINAL {
                e
            } else {
                (map[&(e >> 1)] << 1) | (e & 1)
            }
        };
        for &root in roots {
            let root_idx = root.0 >> 1;
            if root_idx == TERMINAL || map.contains_key(&root_idx) {
                continue;
            }
            stack.push(root_idx);
            // Iterative postorder: a node is emitted only once both
            // children are, so the slice is bottom-up by construction.
            while let Some(&top) = stack.last() {
                if map.contains_key(&top) {
                    stack.pop();
                    continue;
                }
                let n: Node = self.nodes[top as usize];
                debug_assert!(!n.free, "exporting a freed node");
                let low_ready = n.low >> 1 == TERMINAL || map.contains_key(&(n.low >> 1));
                let high_ready = n.high >> 1 == TERMINAL || map.contains_key(&(n.high >> 1));
                if low_ready && high_ready {
                    stack.pop();
                    let low = ser_edge(n.low, &map);
                    let high = ser_edge(n.high, &map);
                    let serial = nodes.len() as u32 + 1;
                    nodes.push((n.level, low, high));
                    map.insert(top, serial);
                } else {
                    if !low_ready {
                        stack.push(n.low >> 1);
                    }
                    if !high_ready {
                        stack.push(n.high >> 1);
                    }
                }
            }
        }
        let roots = roots.iter().map(|&r| ser_edge(r.0, &map)).collect();
        SerializedBdd {
            order: self.var_at_level.clone(),
            nodes,
            roots,
        }
    }

    /// Rebuilds a serialized subgraph in this manager and returns the
    /// imported roots, in the order they were exported.
    ///
    /// The imported nodes go through the ordinary reduction rules — which
    /// re-establish the regular-then-edge canonical form — so the returned
    /// roots are canonical here and share structure with the manager's
    /// existing nodes. The imported roots are **not** protected; protect
    /// them before the next garbage collection if they must survive.
    ///
    /// # Panics
    ///
    /// Panics if this manager's variable order differs from the order the
    /// subgraph was exported under (serialization records *levels*, which
    /// are only meaningful under the same order).
    pub fn import_subgraph(&mut self, serialized: &SerializedBdd) -> Vec<Ref> {
        assert_eq!(
            self.var_at_level, serialized.order,
            "import requires the exporting manager's variable order"
        );
        let mut local: Vec<u32> = Vec::with_capacity(serialized.nodes.len());
        for &(level, low, high) in &serialized.nodes {
            let low = resolve(low, &local);
            let high = resolve(high, &local);
            // Serialized then-edges are regular and `local` entries are
            // regular by induction, so `mk` hands back a regular edge here.
            let e = self.mk(level, low, high);
            debug_assert_eq!(e & 1, 0, "import of a canonical slice stays regular");
            local.push(e);
        }
        serialized
            .roots
            .iter()
            .map(|&r| Ref(resolve(r, &local)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An empty manager matching the serialized variable order, ready to
    /// import from the same source.
    fn matching_manager(serialized: &SerializedBdd) -> BddManager {
        let mut m = BddManager::with_vars(serialized.num_vars());
        m.reorder_to(&serialized.order());
        m
    }

    fn sample(m: &mut BddManager) -> Ref {
        let v = m.variables();
        let a = m.var(v[0]);
        let b = m.var(v[2]);
        let c = m.nvar(v[4]);
        let ab = m.and(a, b);
        m.or(ab, c)
    }

    #[test]
    fn round_trip_preserves_the_function() {
        let mut src = BddManager::with_vars(6);
        let f = sample(&mut src);
        let ser = src.export_subgraph(&[f]);
        assert!(ser.num_nodes() > 0);
        let mut dst = matching_manager(&ser);
        let roots = dst.import_subgraph(&ser);
        assert_eq!(roots.len(), 1);
        for bits in 0u32..64 {
            let assign = |v: VarId| bits & (1 << v.index()) != 0;
            assert_eq!(src.eval(f, assign), dst.eval(roots[0], assign));
        }
        assert!(dst.check_invariants().is_ok());
    }

    #[test]
    fn complemented_roots_round_trip() {
        let mut src = BddManager::with_vars(6);
        let f = sample(&mut src);
        let nf = src.not(f);
        // Export both polarities: one subgraph, two root edges.
        let ser = src.export_subgraph(&[nf, f]);
        let mut dst = matching_manager(&ser);
        let roots = dst.import_subgraph(&ser);
        assert_eq!(roots[0], dst.not(roots[1]));
        for bits in 0u32..64 {
            let assign = |v: VarId| bits & (1 << v.index()) != 0;
            assert_eq!(src.eval(nf, assign), dst.eval(roots[0], assign));
        }
        assert!(dst.check_canonical().is_ok());
    }

    #[test]
    fn shared_structure_is_serialized_once() {
        let mut src = BddManager::with_vars(4);
        let f = sample_pair(&mut src);
        let together = src.export_subgraph(&[f.0, f.1]);
        let alone: usize = [f.0, f.1]
            .iter()
            .map(|&r| src.export_subgraph(&[r]).num_nodes())
            .sum();
        assert!(together.num_nodes() <= alone);
        // And the combined size equals the true shared node count
        // (one extra for the terminal the slice leaves implicit).
        assert_eq!(
            together.num_nodes() + 1,
            src.shared_node_count(&[f.0, f.1]),
            "export must deduplicate shared subgraphs"
        );
    }

    fn sample_pair(m: &mut BddManager) -> (Ref, Ref) {
        let v = m.variables();
        let a = m.var(v[0]);
        let b = m.var(v[1]);
        let c = m.var(v[2]);
        let shared = m.and(b, c);
        let f = m.or(a, shared);
        let g = m.and(a, shared);
        (f, g)
    }

    #[test]
    fn constants_round_trip_without_nodes() {
        let src = BddManager::with_vars(3);
        let ser = src.export_subgraph(&[src.zero(), src.one()]);
        assert_eq!(ser.num_nodes(), 0);
        let mut dst = matching_manager(&ser);
        let roots = dst.import_subgraph(&ser);
        assert_eq!(roots, vec![dst.zero(), dst.one()]);
    }

    #[test]
    fn import_into_populated_manager_shares_structure() {
        let mut src = BddManager::with_vars(6);
        let f = sample(&mut src);
        let ser = src.export_subgraph(&[f]);
        // The destination already holds the same function: import must
        // yield the *same* canonical handle, not a copy.
        let mut dst = matching_manager(&ser);
        let existing = sample(&mut dst);
        let roots = dst.import_subgraph(&ser);
        assert_eq!(roots[0], existing);
    }

    #[test]
    fn import_survives_export_after_reordering() {
        let mut src = BddManager::with_vars(6);
        let f = sample(&mut src);
        src.protect(f);
        let v = src.variables();
        src.reorder_to(&[v[5], v[3], v[1], v[0], v[2], v[4]]);
        let ser = src.export_subgraph(&[f]);
        let mut dst = matching_manager(&ser);
        assert_eq!(dst.current_order(), src.current_order());
        let roots = dst.import_subgraph(&ser);
        for bits in 0u32..64 {
            let assign = |v: VarId| bits & (1 << v.index()) != 0;
            assert_eq!(src.eval(f, assign), dst.eval(roots[0], assign));
        }
    }

    #[test]
    #[should_panic(expected = "variable order")]
    fn import_rejects_mismatched_orders() {
        let mut src = BddManager::with_vars(4);
        let f = sample4(&mut src);
        let ser = src.export_subgraph(&[f]);
        let mut dst = BddManager::with_vars(4);
        let v = dst.variables();
        dst.reorder_to(&[v[3], v[2], v[1], v[0]]);
        let _ = dst.import_subgraph(&ser);
    }

    fn sample4(m: &mut BddManager) -> Ref {
        let v = m.variables();
        let a = m.var(v[0]);
        let b = m.var(v[3]);
        m.and(a, b)
    }

    /// Rebuilds `ser` through [`SerializedBdd::from_parts`], as a reader
    /// of stored parts does.
    fn through_parts(ser: &SerializedBdd) -> Result<SerializedBdd, &'static str> {
        SerializedBdd::from_parts(ser.order(), ser.nodes().to_vec(), ser.roots().to_vec())
    }

    #[test]
    fn from_parts_restores_an_export_exactly() {
        let mut src = BddManager::with_vars(6);
        let f = sample(&mut src);
        let nf = src.not(f);
        src.protect(f);
        let v = src.variables();
        src.reorder_to(&[v[5], v[3], v[1], v[0], v[2], v[4]]);
        let ser = src.export_subgraph(&[f, nf]);
        let back = through_parts(&ser).expect("an export is well formed");
        assert_eq!(back, ser, "the parts restore the exact serialized value");
        let mut dst = matching_manager(&back);
        let roots = dst.import_subgraph(&back);
        assert_eq!(roots[1], dst.not(roots[0]));
    }

    #[test]
    fn empty_and_constant_snapshots_round_trip() {
        let src = BddManager::with_vars(3);
        let ser = src.export_subgraph(&[src.one(), src.zero()]);
        assert_eq!(through_parts(&ser), Ok(ser.clone()));
        let none = src.export_subgraph(&[]);
        assert_eq!(through_parts(&none), Ok(none));
    }

    #[test]
    fn from_parts_rejects_every_malformed_slice() {
        let order = |ids: &[u32]| ids.iter().map(|&v| VarId(v)).collect::<Vec<_>>();
        // Node 1 tests level 1 (edges to the constants); node 2 tests
        // level 0 over node 1: a well-formed two-node slice to perturb.
        let good = SerializedBdd::from_parts(order(&[0, 1]), vec![(1, 1, 0), (0, 1, 2)], vec![4]);
        assert!(good.is_ok());
        let cases = [
            (
                order(&[0, 0]),
                vec![],
                vec![0],
                "duplicate variable in order",
            ),
            (order(&[0, 2]), vec![], vec![0], "variable id out of range"),
            (
                order(&[0, 1]),
                vec![(2, 1, 0)],
                vec![2],
                "node level out of range",
            ),
            (
                order(&[0, 1]),
                vec![(1, 0, 1)],
                vec![2],
                "complemented then-edge",
            ),
            (
                order(&[0, 1]),
                vec![(0, 4, 2)],
                vec![2],
                "edge references a later node",
            ),
            (
                order(&[0, 1]),
                vec![(1, 1, 0), (1, 1, 2)],
                vec![4],
                "child level not below parent",
            ),
            (
                order(&[0, 1]),
                vec![(1, 1, 0)],
                vec![4],
                "root references a missing node",
            ),
        ];
        for (order, nodes, roots, why) in cases {
            assert_eq!(SerializedBdd::from_parts(order, nodes, roots), Err(why));
        }
    }
}
