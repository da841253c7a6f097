//! Precomputed pre-image plans: the per-transition BDD artefacts of the
//! backward image computation, built **once** per context — the backward
//! mirror of [`crate::plan::ImagePlan`].
//!
//! Under every encoding of this crate a transition drives the variables it
//! writes to constants (eq. 6), so its *pre-image* is
//! `E_t ∧ (∃W_t. S ∧ T_t)` where `E_t` is the enabling function, `W_t` the
//! written-variable set and `T_t` the cube of target constants — the same
//! three artefacts the forward image uses, composed in the opposite order
//! (constrain by the target cube, quantify the written variables, then
//! conjoin the enabling function). The naive checker rebuilt `W_t` and
//! `T_t` on every call of every CTL fixpoint iteration; the
//! [`PreImagePlan`] precomputes them per transition, protects them across
//! garbage collection, and groups transitions whose written sets coincide
//! into [`PreImageCluster`]s so the shared quantification cube is built
//! (and walked) once per cluster.
//!
//! The plan also carries a *backward* static order: clusters sorted by
//! **descending** structural rank, so a backward step folds the clusters
//! against the net's flow, mirroring the forward structural order.

use crate::context::SymbolicContext;
use crate::plan::structural_transition_ranks;
use pnsym_bdd::{Ref, VarId};
use pnsym_net::TransitionId;
use std::collections::HashMap;

/// One transition's precomputed backward artefacts inside a cluster.
#[derive(Debug, Clone, Copy)]
pub struct PrePlannedTransition {
    /// The transition.
    pub transition: TransitionId,
    /// Its enabling function `E_t` (eq. 5), over the current variables.
    pub enabling: Ref,
    /// The cube of target constants `T_t` (eq. 6) the transition drives its
    /// written variables to; the pre-image constrains the target set by it
    /// before quantification.
    pub target: Ref,
}

/// A group of transitions writing exactly the same set of state variables,
/// sharing one quantification cube for the backward relational product.
#[derive(Debug, Clone)]
pub struct PreImageCluster {
    /// The written state-variable indices, sorted ascending.
    pub var_indices: Vec<usize>,
    /// Positive cube over the written *current* BDD variables, quantified
    /// out of `S ∧ T_t` by a single cube walk per member.
    pub quant_cube: Ref,
    /// The member transitions, in ascending transition order.
    pub members: Vec<PrePlannedTransition>,
    /// Structural rank of the cluster: the minimum breadth-first distance
    /// of any member's pre-set from the initially marked places. Backward
    /// passes visit clusters in **descending** rank.
    pub rank: usize,
}

/// The per-context pre-image plan: clusters of precomputed backward
/// transition artefacts plus the static backward order.
///
/// Built once by [`SymbolicContext::pre_image_plan`]; every [`Ref`] it
/// holds is protected in the context's manager, so the plan survives
/// garbage collection and dynamic reordering for the lifetime of the
/// context.
#[derive(Debug, Clone)]
pub struct PreImagePlan {
    clusters: Vec<PreImageCluster>,
    /// Cluster indices sorted by descending structural rank (the backward
    /// order).
    backward_order: Vec<usize>,
    /// `location_of[t] = (cluster, member)` for every transition `t`.
    location_of: Vec<(usize, usize)>,
}

impl PreImagePlan {
    /// Builds the plan for `ctx`: one cluster per distinct written-variable
    /// set, with enabling functions, quantification cubes and target cubes
    /// precomputed and protected in the context's manager.
    pub(crate) fn build(ctx: &mut SymbolicContext) -> PreImagePlan {
        let num_transitions = ctx.net().num_transitions();
        let ranks = structural_transition_ranks(ctx.net());

        // Group transitions by their written-variable set.
        let mut groups: HashMap<Vec<usize>, Vec<TransitionId>> = HashMap::new();
        for ti in 0..num_transitions {
            let t = TransitionId(ti as u32);
            let written: Vec<usize> = ctx
                .transition_effect(t)
                .assignments
                .iter()
                .map(|&(i, _)| i)
                .collect();
            groups.entry(written).or_default().push(t);
        }
        let mut keyed: Vec<(Vec<usize>, Vec<TransitionId>)> = groups.into_iter().collect();
        // Deterministic cluster order: by first member transition.
        keyed.sort_by_key(|(_, ts)| ts.iter().map(|t| t.index()).min());

        let mut clusters = Vec::with_capacity(keyed.len());
        let mut location_of = vec![(0usize, 0usize); num_transitions];
        for (var_indices, transitions) in keyed {
            let quant_vars: Vec<VarId> =
                var_indices.iter().map(|&i| ctx.current_vars()[i]).collect();
            let quant_cube = {
                let m = ctx.manager_mut();
                let cube = m.var_cube(&quant_vars);
                m.protect(cube);
                cube
            };
            let mut members = Vec::with_capacity(transitions.len());
            let mut rank = usize::MAX;
            for t in transitions {
                let enabling = ctx.enabling_fn(t);
                let lits: Vec<(VarId, bool)> = ctx
                    .transition_effect(t)
                    .assignments
                    .iter()
                    .map(|&(i, value)| (ctx.current_vars()[i], value))
                    .collect();
                let target = {
                    let m = ctx.manager_mut();
                    let cube = m.cube(&lits);
                    m.protect(cube);
                    cube
                };
                rank = rank.min(ranks[t.index()]);
                location_of[t.index()] = (clusters.len(), members.len());
                members.push(PrePlannedTransition {
                    transition: t,
                    enabling,
                    target,
                });
            }
            clusters.push(PreImageCluster {
                var_indices,
                quant_cube,
                members,
                rank,
            });
        }

        let mut backward_order: Vec<usize> = (0..clusters.len()).collect();
        backward_order.sort_by_key(|&c| (usize::MAX - clusters[c].rank, c));
        PreImagePlan {
            clusters,
            backward_order,
            location_of,
        }
    }

    /// The clusters, in ascending first-member transition order.
    pub fn clusters(&self) -> &[PreImageCluster] {
        &self.clusters
    }

    /// Number of clusters (distinct written-variable sets).
    pub fn num_clusters(&self) -> usize {
        self.clusters.len()
    }

    /// Cluster indices in the static backward order (descending structural
    /// rank; see [`PreImageCluster::rank`]).
    pub fn backward_order(&self) -> &[usize] {
        &self.backward_order
    }

    /// The `(cluster, member)` location of transition `t` in the plan.
    pub fn location_of(&self, t: TransitionId) -> (usize, usize) {
        self.location_of[t.index()]
    }

    /// The planned backward artefacts of transition `t`.
    pub fn planned(&self, t: TransitionId) -> (&PreImageCluster, &PrePlannedTransition) {
        let (c, m) = self.location_of(t);
        (&self.clusters[c], &self.clusters[c].members[m])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::{AssignmentStrategy, Encoding};
    use pnsym_net::nets::{figure1, philosophers};
    use pnsym_structural::find_smcs;

    #[test]
    fn every_transition_is_planned_exactly_once() {
        let net = philosophers(2);
        let smcs = find_smcs(&net).unwrap();
        for enc in [
            Encoding::sparse(&net),
            Encoding::improved(&net, &smcs, AssignmentStrategy::Gray),
        ] {
            let mut ctx = SymbolicContext::new(&net, enc);
            let plan = ctx.pre_image_plan();
            let total: usize = plan.clusters().iter().map(|c| c.members.len()).sum();
            assert_eq!(total, net.num_transitions());
            for t in net.transitions() {
                let (_, planned) = plan.planned(t);
                assert_eq!(planned.transition, t);
                assert_eq!(planned.enabling, ctx.enabling_fn(t));
            }
            assert_eq!(plan.backward_order().len(), plan.num_clusters());
        }
    }

    #[test]
    fn backward_plan_mirrors_the_forward_plan() {
        // The backward artefacts of every transition coincide with the
        // forward ones (both plans precompute E_t, T_t and the written-set
        // cube); what differs is the composition order at use sites and the
        // static cluster order, which is reversed by rank.
        let net = figure1();
        let smcs = find_smcs(&net).unwrap();
        let mut ctx = SymbolicContext::new(
            &net,
            Encoding::improved(&net, &smcs, AssignmentStrategy::Gray),
        );
        let forward = ctx.image_plan();
        let backward = ctx.pre_image_plan();
        assert_eq!(forward.num_clusters(), backward.num_clusters());
        for t in net.transitions() {
            let (fc, fp) = forward.planned(t);
            let (bc, bp) = backward.planned(t);
            assert_eq!(fp.enabling, bp.enabling);
            assert_eq!(fp.target, bp.target);
            assert_eq!(fc.quant_cube, bc.quant_cube);
            assert_eq!(fc.var_indices, bc.var_indices);
        }
        // The backward order visits ranks in non-increasing order.
        let ranks: Vec<usize> = backward
            .backward_order()
            .iter()
            .map(|&c| backward.clusters()[c].rank)
            .collect();
        assert!(ranks.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn plan_survives_garbage_collection() {
        let net = philosophers(2);
        let mut ctx = SymbolicContext::new(&net, Encoding::sparse(&net));
        let plan = ctx.pre_image_plan();
        ctx.manager_mut().collect_garbage();
        // Every planned artefact must still be a live node after a GC with
        // no other roots.
        for cluster in plan.clusters() {
            assert!(ctx.manager().node_count(cluster.quant_cube) > 0);
            for member in &cluster.members {
                assert!(ctx.manager().node_count(member.target) > 0);
            }
        }
    }
}
