//! T-semiflow supports: the transitions that can occur in a cycle.
//!
//! A firing sequence that returns to the marking it started from has a
//! Parikh vector `x ≥ 0` with `C·x = 0`, where `C` is the incidence
//! matrix: a T-semiflow (Murata, "Petri nets: properties, analysis and
//! applications", Proc. IEEE 1989). This is the dual of the P-invariants
//! the encodings are built from, and it bounds the cycles of the
//! reachability graph structurally: a transition that lies in no
//! semiflow supported by a set of candidates fires on no cycle that uses
//! only those candidates.

use pnsym_net::{PetriNet, PlaceId, TransitionId};

/// The candidates that may lie in the support of a T-semiflow using only
/// candidates: a superset of the union of those supports.
///
/// `candidates` and the result are indexed by [`TransitionId::index`].
/// A place at which every remaining candidate moves the marking in the
/// same direction (the sign of [`PetriNet::incidence_entry`]; a self-loop
/// has entry 0 and does not count) cannot balance, so no semiflow gives
/// weight to any of those candidates. They are dropped, which may make
/// further places one-sided. The worklist over places visits each arc a
/// bounded number of times, so the prune runs in O(arcs).
///
/// # Panics
///
/// Panics if `candidates.len()` is not the net's number of transitions.
///
/// # Examples
///
/// ```
/// use pnsym_net::nets::figure1;
/// use pnsym_structural::semiflow_support;
///
/// // figure1 returns to its initial marking by firing every transition
/// // once, so nothing is pruned.
/// let net = figure1();
/// let all = vec![true; net.num_transitions()];
/// assert_eq!(semiflow_support(&net, &all), all);
/// ```
pub fn semiflow_support(net: &PetriNet, candidates: &[bool]) -> Vec<bool> {
    assert_eq!(
        candidates.len(),
        net.num_transitions(),
        "one candidate flag per transition"
    );
    let mut alive = candidates.to_vec();
    // Per place, the remaining candidates that add a token to it and
    // that take one from it.
    let mut movers = vec![(0usize, 0usize); net.num_places()];
    for t in net.transitions().filter(|t| alive[t.index()]) {
        tally(net, t, &mut movers, |n| n + 1);
    }
    let one_sided = |(adds, takes): (usize, usize)| (adds == 0) != (takes == 0);
    let mut work: Vec<PlaceId> = net
        .places()
        .filter(|p| one_sided(movers[p.index()]))
        .collect();
    while let Some(p) = work.pop() {
        // A transition both adding to and taking from `p` has entry 0, so
        // each mover is listed once.
        let dropped: Vec<TransitionId> = net
            .place_pre_set(p)
            .iter()
            .chain(net.place_post_set(p))
            .copied()
            .filter(|&t| alive[t.index()] && net.incidence_entry(p, t) != 0)
            .collect();
        for t in dropped {
            alive[t.index()] = false;
            tally(net, t, &mut movers, |n| n - 1);
            work.extend(
                net.adjacent_places(t)
                    .into_iter()
                    .filter(|q| one_sided(movers[q.index()])),
            );
        }
    }
    alive
}

/// Applies `step` to the adding or taking count of every place `t`
/// moves a token at.
fn tally(net: &PetriNet, t: TransitionId, movers: &mut [(usize, usize)], step: fn(usize) -> usize) {
    for p in net.adjacent_places(t) {
        let (adds, takes) = &mut movers[p.index()];
        match net.incidence_entry(p, t) {
            1 => *adds = step(*adds),
            -1 => *takes = step(*takes),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnsym_net::nets::{muller, philosophers, random_composed, RandomNetConfig};
    use pnsym_net::NetBuilder;
    use proptest::prelude::*;

    /// A marked graph: one ring of `n` places and `n` transitions.
    fn ring(n: usize) -> PetriNet {
        let mut b = NetBuilder::new("ring");
        let places: Vec<PlaceId> = (0..n)
            .map(|i| {
                if i == 0 {
                    b.place_marked(format!("p{i}"))
                } else {
                    b.place(format!("p{i}"))
                }
            })
            .collect();
        for i in 0..n {
            b.transition(format!("t{i}"), &[places[i]], &[places[(i + 1) % n]]);
        }
        b.build().unwrap()
    }

    fn all(net: &PetriNet) -> Vec<bool> {
        vec![true; net.num_transitions()]
    }

    #[test]
    fn a_ring_keeps_every_transition_and_loses_them_all_without_one() {
        let net = ring(5);
        assert_eq!(semiflow_support(&net, &all(&net)), all(&net));
        let mut cut = all(&net);
        cut[2] = false;
        assert_eq!(semiflow_support(&net, &cut), vec![false; 5]);
    }

    #[test]
    fn a_transition_whose_pre_set_is_its_post_set_survives() {
        // `read` tests `p` and `q` without moving a token: its Parikh
        // vector alone is a semiflow. `move` only takes from `p`.
        let mut b = NetBuilder::new("self-loop");
        let p = b.place_marked("p");
        let q = b.place_marked("q");
        let r = b.place("r");
        b.transition("read", &[p, q], &[p, q]);
        b.transition("move", &[p], &[r]);
        let net = b.build().unwrap();
        assert_eq!(semiflow_support(&net, &all(&net)), [true, false]);
    }

    #[test]
    fn of_two_disjoint_cycles_the_uncut_one_survives() {
        let mut b = NetBuilder::new("two-rings");
        let [a0, a1, b0, b1] = ["a0", "a1", "b0", "b1"].map(|n| {
            if n.ends_with('0') {
                b.place_marked(n)
            } else {
                b.place(n)
            }
        });
        b.transition("a.fwd", &[a0], &[a1]);
        b.transition("a.back", &[a1], &[a0]);
        b.transition("b.fwd", &[b0], &[b1]);
        b.transition("b.back", &[b1], &[b0]);
        let net = b.build().unwrap();
        let cut_b = [true, true, true, false];
        assert_eq!(semiflow_support(&net, &cut_b), [true, true, false, false]);
    }

    #[test]
    fn the_prune_never_adds_a_transition() {
        for net in [philosophers(3), muller(4)] {
            let some: Vec<bool> = (0..net.num_transitions()).map(|i| i % 3 != 0).collect();
            let kept = semiflow_support(&net, &some);
            assert!(kept.iter().zip(&some).all(|(&k, &s)| !k || s));
            assert_eq!(semiflow_support(&net, &all(&net)), all(&net));
        }
    }

    /// Tarjan's strongly connected components of a graph over `n` nodes:
    /// the component index of every node.
    fn scc_ids(n: usize, successors: &[Vec<usize>]) -> Vec<usize> {
        struct Tarjan<'a> {
            successors: &'a [Vec<usize>],
            index: Vec<Option<usize>>,
            low: Vec<usize>,
            on_stack: Vec<bool>,
            stack: Vec<usize>,
            next: usize,
            component: Vec<usize>,
            components: usize,
        }
        impl Tarjan<'_> {
            fn visit(&mut self, v: usize) {
                self.index[v] = Some(self.next);
                self.low[v] = self.next;
                self.next += 1;
                self.stack.push(v);
                self.on_stack[v] = true;
                for i in 0..self.successors[v].len() {
                    let w = self.successors[v][i];
                    match self.index[w] {
                        None => {
                            self.visit(w);
                            self.low[v] = self.low[v].min(self.low[w]);
                        }
                        Some(iw) if self.on_stack[w] => self.low[v] = self.low[v].min(iw),
                        Some(_) => {}
                    }
                }
                if Some(self.low[v]) == self.index[v] {
                    while let Some(w) = self.stack.pop() {
                        self.on_stack[w] = false;
                        self.component[w] = self.components;
                        if w == v {
                            break;
                        }
                    }
                    self.components += 1;
                }
            }
        }
        let mut tarjan = Tarjan {
            successors,
            index: vec![None; n],
            low: vec![0; n],
            on_stack: vec![false; n],
            stack: Vec::new(),
            next: 0,
            component: vec![0; n],
            components: 0,
        };
        for v in 0..n {
            if tarjan.index[v].is_none() {
                tarjan.visit(v);
            }
        }
        tarjan.component
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Restrict the reachability graph to the markings where one place
        /// has a given value (or to all of them), take as candidates the
        /// transitions labelling an edge inside that set, as the `EG` of
        /// the model checker does: every transition on a cycle inside it
        /// (an edge of a nontrivial SCC) survives the prune.
        #[test]
        fn every_transition_on_a_cycle_survives(
            seed in 0u64..1_000_000,
            components in 2usize..4,
            syncs in 0usize..4,
            restrict in 0usize..64,
            marked in any::<bool>(),
        ) {
            let net = random_composed(
                RandomNetConfig {
                    components,
                    min_places: 2,
                    max_places: 4,
                    synchronisations: syncs,
                },
                seed,
            );
            let rg = net.explore().expect("composed nets are safe and small");
            let place = (restrict < net.num_places()).then_some(PlaceId(restrict as u32));
            let inside = |m: usize| place.is_none_or(|p| rg.marking(m).is_marked(p) == marked);
            let edges: Vec<(usize, TransitionId, usize)> = rg
                .edges()
                .iter()
                .copied()
                .filter(|&(s, _, d)| inside(s) && inside(d))
                .collect();
            let mut candidates = vec![false; net.num_transitions()];
            let mut successors = vec![Vec::new(); rg.num_markings()];
            for &(s, t, d) in &edges {
                candidates[t.index()] = true;
                successors[s].push(d);
            }
            let kept = semiflow_support(&net, &candidates);
            let scc = scc_ids(rg.num_markings(), &successors);
            for &(s, t, d) in &edges {
                if scc[s] == scc[d] {
                    prop_assert!(
                        kept[t.index()],
                        "{}: {} lies on a cycle",
                        net.name(),
                        net.transition_name(t)
                    );
                }
            }
            prop_assert!(kept.iter().zip(&candidates).all(|(&k, &c)| !k || c));
        }
    }
}
