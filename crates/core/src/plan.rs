//! Precomputed image plans: the per-transition BDD artefacts of the
//! efficient image computation (Sections 5.2–5.3) built **once** per
//! context instead of once per call of every traversal iteration.
//!
//! Under every encoding of this crate a transition drives the variables it
//! writes to constants (eq. 6), so its image is
//! `(∃W_t. S ∧ E_t) ∧ T_t` where `W_t` is the written-variable set and
//! `T_t` the cube of target constants. `W_t` is exactly the support of
//! `T_t`, so the kernel computes the image in one recursion from the two
//! (`and_exists_assign`), and the pre-image `E_t ∧ S[W_t := T_t]` likewise
//! (`and_cofactor`); the CTL checker reads this plan too. The [`ImagePlan`]
//! precomputes the enabling function and the target cube of every
//! transition and protects them across garbage collection. The transition
//! is the unit every engine plans, schedules and fires.
//!
//! The plan also carries the `FiringSchedule` that the ZDD engine builds
//! too: the *structural order* (breadth-first distance of each
//! transition's pre-set from the initially marked places, which
//! approximates the firing order) and the pre- and post-set of every
//! transition behind the saturation scheduler's feeds test. The saturation
//! strategy fires the transitions of each level in this order, so a
//! level's inner fixpoint follows the net's flow; a backward step visits
//! the ranks in reverse.

use crate::context::SymbolicContext;
use pnsym_bdd::{Ref, VarId};
use pnsym_net::{PetriNet, PlaceId, PlaceSet, TransitionId};

/// One transition's precomputed image artefacts.
#[derive(Debug, Clone, Copy)]
pub struct PlannedTransition {
    /// The transition.
    pub transition: TransitionId,
    /// Its enabling function `E_t` (eq. 5).
    pub enabling: Ref,
    /// The cube of target constants `T_t` (eq. 6), over the variables the
    /// transition writes: its support is the written set `W_t`, and its
    /// root variable the topmost written variable.
    pub target: Ref,
}

/// The firing schedule of a net, shared by the BDD and the ZDD engine:
/// the firing order `(structural rank, transition index)` and the pre- and
/// post-set of every transition, as place bitsets for the O(words)
/// [`FiringSchedule::feeds`] test of the saturation scheduler.
#[derive(Debug, Clone)]
pub(crate) struct FiringSchedule {
    /// Structural rank of every transition (see
    /// [`structural_transition_ranks`]).
    ranks: Vec<usize>,
    /// Transition indices sorted by `(rank, index)`.
    order: Vec<usize>,
    pre: Vec<PlaceSet>,
    post: Vec<PlaceSet>,
}

impl FiringSchedule {
    /// The schedule of `net`.
    pub(crate) fn new(net: &PetriNet) -> FiringSchedule {
        let ranks = structural_transition_ranks(net);
        let mut order: Vec<usize> = (0..net.num_transitions()).collect();
        order.sort_by_key(|&t| (ranks[t], t));
        let place_sets = |arcs: fn(&PetriNet, TransitionId) -> &[PlaceId]| -> Vec<PlaceSet> {
            net.transitions()
                .map(|t| PlaceSet::from_places(net.num_places(), arcs(net, t).iter().copied()))
                .collect()
        };
        FiringSchedule {
            ranks,
            order,
            pre: place_sets(PetriNet::pre_set),
            post: place_sets(PetriNet::post_set),
        }
    }

    /// Transition indices in the forward firing order: ascending structural
    /// rank, ascending index within a rank.
    pub(crate) fn firing_order(&self) -> &[usize] {
        &self.order
    }

    /// The backward firing order of every backward step: the ranks of
    /// [`FiringSchedule::firing_order`] reversed, ascending index within a
    /// rank (reversing those too builds larger intermediate sets, and the
    /// slot-12 CTL suite runs markedly slower).
    pub(crate) fn backward_order(&self) -> impl Iterator<Item = usize> + '_ {
        self.order
            .chunk_by(|&a, &b| self.ranks[a] == self.ranks[b])
            .rev()
            .flatten()
            .copied()
    }

    /// Whether firing transition `from` can newly enable transition `to`
    /// (structurally: `from`'s post-set intersects `to`'s pre-set). One
    /// word-AND pass over the place bitsets; the saturation scheduler calls
    /// this O(transitions²) times per traversal.
    pub(crate) fn feeds(&self, from: usize, to: usize) -> bool {
        self.post[from].intersects(&self.pre[to])
    }
}

/// The per-context image plan: one [`PlannedTransition`] per transition, at
/// the transition's own index, plus the net's `FiringSchedule`.
///
/// Built once by [`SymbolicContext::image_plan`]; every [`Ref`] it holds is
/// protected in the context's manager, so the plan survives garbage
/// collection and dynamic reordering for the lifetime of the context.
#[derive(Debug, Clone)]
pub struct ImagePlan {
    transitions: Vec<PlannedTransition>,
    schedule: FiringSchedule,
}

impl ImagePlan {
    /// Builds the plan for `ctx`: every transition's enabling function and
    /// target cube, precomputed and protected in the context's manager.
    pub(crate) fn build(ctx: &mut SymbolicContext) -> ImagePlan {
        let ts: Vec<TransitionId> = ctx.net().transitions().collect();
        let transitions = ts
            .into_iter()
            .map(|t| {
                let enabling = ctx.enabling_fn(t);
                let lits: Vec<(VarId, bool)> = ctx
                    .transition_effect(t)
                    .assignments
                    .iter()
                    .map(|&(i, value)| (SymbolicContext::state_var(i), value))
                    .collect();
                let m = ctx.manager_mut();
                let target = m.cube(&lits);
                m.protect(target);
                PlannedTransition {
                    transition: t,
                    enabling,
                    target,
                }
            })
            .collect();
        ImagePlan {
            transitions,
            schedule: FiringSchedule::new(ctx.net()),
        }
    }

    /// The planned transitions, in transition order.
    pub fn transitions(&self) -> &[PlannedTransition] {
        &self.transitions
    }

    /// The planned artefacts of transition `t`.
    pub fn planned(&self, t: TransitionId) -> &PlannedTransition {
        &self.transitions[t.index()]
    }

    /// The firing schedule of the plan's net.
    pub(crate) fn schedule(&self) -> &FiringSchedule {
        &self.schedule
    }
}

/// Breadth-first rank of every transition: the minimum number of firings
/// before the transition can possibly become enabled, approximated on the
/// net structure (places reachable in `k` arcs from the initially marked
/// places get rank `k`; a transition's rank is the maximum rank over its
/// pre-set, so it sorts after the transitions that feed it).
///
/// Transitions whose pre-set is unreachable in the structural sense keep
/// rank `usize::MAX - 1` and sort last.
pub fn structural_transition_ranks(net: &PetriNet) -> Vec<usize> {
    let mut place_rank = vec![usize::MAX; net.num_places()];
    let mut queue = std::collections::VecDeque::new();
    for p in net.initial_marking().marked_places() {
        place_rank[p.index()] = 0;
        queue.push_back(p);
    }
    let mut transition_rank = vec![usize::MAX; net.num_transitions()];
    while let Some(p) = queue.pop_front() {
        for &t in net.place_post_set(p) {
            if transition_rank[t.index()] != usize::MAX {
                continue;
            }
            // Fireable-in-principle once every pre-place has been reached;
            // rank = max over the pre-set (the last token to arrive).
            let mut rank = 0usize;
            let mut ready = true;
            for &q in net.pre_set(t) {
                if place_rank[q.index()] == usize::MAX {
                    ready = false;
                    break;
                }
                rank = rank.max(place_rank[q.index()]);
            }
            if !ready {
                continue;
            }
            transition_rank[t.index()] = rank;
            for &q in net.post_set(t) {
                if place_rank[q.index()] == usize::MAX {
                    place_rank[q.index()] = rank + 1;
                    queue.push_back(q);
                }
            }
        }
    }
    // A transition can become ready only after one of its pre-places was
    // discovered; sweep until no rank changes (nets are small, and each
    // sweep discovers at least one transition, so this terminates quickly).
    loop {
        let mut changed = false;
        for t in net.transitions() {
            if transition_rank[t.index()] != usize::MAX {
                continue;
            }
            let mut rank = 0usize;
            let mut ready = true;
            for &q in net.pre_set(t) {
                if place_rank[q.index()] == usize::MAX {
                    ready = false;
                    break;
                }
                rank = rank.max(place_rank[q.index()]);
            }
            if !ready {
                continue;
            }
            transition_rank[t.index()] = rank;
            changed = true;
            for &q in net.post_set(t) {
                if place_rank[q.index()] == usize::MAX {
                    place_rank[q.index()] = rank + 1;
                }
            }
        }
        if !changed {
            break;
        }
    }
    for r in &mut transition_rank {
        if *r == usize::MAX {
            *r = usize::MAX - 1;
        }
    }
    transition_rank
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::{AssignmentStrategy, Encoding};
    use pnsym_net::nets::{dme, figure1, muller, philosophers, slotted_ring, DmeStyle};
    use pnsym_structural::{find_smcs, CoverStrategy};
    use std::rc::Rc;

    fn schemes(net: &PetriNet) -> Vec<Encoding> {
        let smcs = find_smcs(net).unwrap();
        vec![
            Encoding::sparse(net),
            Encoding::dense(net, &smcs, CoverStrategy::Greedy, AssignmentStrategy::Gray),
            Encoding::improved(net, &smcs, AssignmentStrategy::Gray),
        ]
    }

    #[test]
    fn every_transition_is_planned_exactly_once() {
        let net = philosophers(2);
        for enc in schemes(&net) {
            let mut ctx = SymbolicContext::new(&net, enc);
            let plan = ctx.image_plan();
            assert_eq!(plan.transitions().len(), net.num_transitions());
            for (i, planned) in plan.transitions().iter().enumerate() {
                assert_eq!(planned.transition.index(), i);
            }
            for t in net.transitions() {
                let planned = plan.planned(t);
                assert_eq!(planned.transition, t);
                assert_eq!(planned.enabling, ctx.enabling_fn(t));
            }
        }
    }

    #[test]
    fn target_cubes_span_exactly_the_written_variables() {
        for net in [figure1(), philosophers(3), slotted_ring(3)] {
            for enc in schemes(&net) {
                let mut ctx = SymbolicContext::new(&net, enc);
                let plan = ctx.image_plan();
                for planned in plan.transitions() {
                    let written: Vec<VarId> = ctx
                        .transition_effect(planned.transition)
                        .assignments
                        .iter()
                        .map(|&(i, _)| SymbolicContext::state_var(i))
                        .collect();
                    let m = ctx.manager();
                    // The one-pass image quantifies exactly the target
                    // cube's support, so it must be the written set.
                    let mut support = m.support(planned.target);
                    support.sort_unstable();
                    assert_eq!(support, written);
                    // Saturation buckets a transition by the cube's root:
                    // it must be the topmost written variable.
                    let topmost = written.iter().copied().min_by_key(|&v| m.level_of(v));
                    assert_eq!(m.root_var(planned.target), topmost);
                }
            }
        }
    }

    #[test]
    fn firing_orders_follow_the_structural_ranks() {
        for net in [muller(4), slotted_ring(3), dme(3, DmeStyle::Circuit)] {
            let ranks = structural_transition_ranks(&net);
            let schedule = FiringSchedule::new(&net);
            let forward = schedule.firing_order();
            let mut expected: Vec<usize> = (0..net.num_transitions()).collect();
            expected.sort_by_key(|&t| (ranks[t], t));
            assert_eq!(forward, expected, "{}", net.name());

            let backward: Vec<usize> = schedule.backward_order().collect();
            let mut sorted = backward.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..net.num_transitions()).collect::<Vec<_>>());
            for pair in backward.windows(2) {
                let (a, b) = (pair[0], pair[1]);
                assert!(
                    ranks[a] > ranks[b] || (ranks[a] == ranks[b] && a < b),
                    "{}: ranks reversed, indices ascending within a rank",
                    net.name()
                );
            }
            assert!(ranks.iter().any(|&r| r != ranks[0]), "non-trivial ranks");
        }
    }

    #[test]
    fn feeds_follow_the_post_and_pre_sets() {
        let net = slotted_ring(3);
        let schedule = FiringSchedule::new(&net);
        for from in net.transitions() {
            for to in net.transitions() {
                let expected = net
                    .post_set(from)
                    .iter()
                    .any(|p| net.pre_set(to).contains(p));
                assert_eq!(schedule.feeds(from.index(), to.index()), expected);
            }
        }
    }

    #[test]
    fn the_backward_plan_is_the_forward_plan() {
        let net = figure1();
        let smcs = find_smcs(&net).unwrap();
        let mut ctx = SymbolicContext::new(
            &net,
            Encoding::improved(&net, &smcs, AssignmentStrategy::Gray),
        );
        let forward = ctx.image_plan();
        let roots = ctx.manager().protected_root_count();
        let backward = ctx.pre_image_plan();
        assert!(Rc::ptr_eq(&forward, &backward));
        assert_eq!(
            ctx.manager().protected_root_count(),
            roots,
            "the pre-image plan must not build or protect anything"
        );
    }

    #[test]
    fn plan_survives_garbage_collection() {
        let net = philosophers(2);
        let mut ctx = SymbolicContext::new(&net, Encoding::sparse(&net));
        let plan = ctx.image_plan();
        ctx.manager_mut().collect_garbage();
        // Every planned artefact must survive a GC with no other roots:
        // rebuilding it finds the very same nodes, so no node is allocated.
        let live = ctx.manager().live_node_count();
        for planned in plan.transitions() {
            let lits: Vec<(VarId, bool)> = ctx
                .transition_effect(planned.transition)
                .assignments
                .iter()
                .map(|&(i, value)| (SymbolicContext::state_var(i), value))
                .collect();
            assert_eq!(ctx.manager_mut().cube(&lits), planned.target);
        }
        assert_eq!(ctx.manager().live_node_count(), live);
        for t in net.transitions() {
            let pre: Vec<Ref> = net.pre_set(t).iter().map(|&p| ctx.place_fn(p)).collect();
            assert_eq!(ctx.manager_mut().and_many(&pre), plan.planned(t).enabling);
        }
    }

    #[test]
    fn structural_ranks_follow_the_flow() {
        let net = muller(4);
        let ranks = structural_transition_ranks(&net);
        assert!(ranks.iter().all(|&r| r < usize::MAX - 1));
        // At least one transition is immediately fireable-in-principle.
        assert!(ranks.contains(&0));
        // The order is non-trivial: not all ranks coincide.
        assert!(ranks.iter().any(|&r| r > 0));
    }

    #[test]
    fn structural_ranks_cover_cyclic_nets() {
        for net in [figure1(), slotted_ring(3), philosophers(3)] {
            let ranks = structural_transition_ranks(&net);
            assert!(
                ranks.iter().all(|&r| r < usize::MAX - 1),
                "{}: every transition of a live net gets a finite rank",
                net.name()
            );
        }
    }
}
