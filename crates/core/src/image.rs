//! Image computation (Sections 5.2–5.3).
//!
//! Under every encoding of this crate, firing a transition `t` drives each
//! affected variable to a *constant*: a place variable becomes 1 or 0, and
//! the variables of an SMC covering `t` take the code of `t`'s output place
//! inside the component (eq. 6). The image of `S` under `t` is therefore
//! `(∃W_t. S ∧ E_t) ∧ T_t`: quantify the written variables `W_t` out of
//! `S ∧ E_t` and set them to the target constants `T_t` — the symbolic
//! counterpart of the "toggle" updates the paper describes. The kernel's
//! [`and_exists_assign`](pnsym_bdd::BddManager::and_exists_assign) does
//! both in one recursion: at each written variable it ORs the two
//! cofactor results and emits the target literal in place, so the
//! quantified product is never built on its own. Its support `W_t` is read
//! off the target cube, so the per-transition artefacts are just the
//! enabling function and the target cube, precomputed once per context by
//! the [`ImagePlan`](crate::plan::ImagePlan) and reused by every call.
//! Because every effect is constant, the two-vocabulary relation
//! `R_t(P, Q)` of eq. (3) is never built: the image needs no next-state
//! variables and no renaming.

use crate::context::SymbolicContext;
use crate::encoding::{Block, Encoding};
use pnsym_bdd::{Interrupt, Ref};
use pnsym_net::{PetriNet, TransitionId};

/// The effect of one transition on the state variables: which variables
/// change and the constant values they take.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransitionEffect {
    /// The transition this effect describes.
    pub transition: TransitionId,
    /// `(state variable index, new value)` for every variable `t` may change.
    pub assignments: Vec<(usize, bool)>,
}

impl TransitionEffect {
    /// Number of state variables the transition writes.
    pub fn num_written(&self) -> usize {
        self.assignments.len()
    }
}

/// Computes the constant effect of `t` on the state variables of
/// `encoding`. Pure combinational data; [`ImagePlan::build`] turns each
/// effect into a target cube once per context.
///
/// [`ImagePlan::build`]: crate::plan::ImagePlan
///
/// # Panics
///
/// Panics if the encoding's block index is inconsistent (a covered SMC
/// without an output place for `t`), which would indicate a bug in the
/// SMC extraction.
pub(crate) fn compute_transition_effect(
    net: &PetriNet,
    encoding: &Encoding,
    t: TransitionId,
) -> TransitionEffect {
    let mut assignments = Vec::new();
    for &bi in encoding.blocks_of_transition(t) {
        match &encoding.blocks()[bi] {
            Block::Place { place, var } => {
                let produces = net.post_set(t).contains(place);
                let consumes = net.pre_set(t).contains(place);
                if produces {
                    assignments.push((*var, true));
                } else if consumes {
                    assignments.push((*var, false));
                }
            }
            Block::Smc {
                places,
                codes,
                vars,
                ..
            } => {
                let out = net
                    .post_set(t)
                    .iter()
                    .copied()
                    .find(|p| places.contains(p))
                    .expect("a covered SMC always has an output place for the transition");
                let j = places
                    .iter()
                    .position(|&p| p == out)
                    .expect("out in places");
                let code = codes[j];
                for (b, &v) in vars.iter().enumerate() {
                    assignments.push((v, code & (1 << b) != 0));
                }
            }
        }
    }
    assignments.sort_unstable();
    assignments.dedup();
    TransitionEffect {
        transition: t,
        assignments,
    }
}

impl SymbolicContext {
    /// The set of markings reached by firing `t` once from some marking in
    /// `from` (the image of `from` under `t`).
    ///
    /// One pass of the kernel's `and_exists_assign` over the precomputed
    /// [`ImagePlan`](crate::plan::ImagePlan) artefacts of `t`: its enabling
    /// function and target cube are built once per context, not per call.
    pub fn image(&mut self, from: Ref, t: TransitionId) -> Ref {
        self.try_image(from, t)
            .expect("budget breached inside an infallible image computation; governed callers must use try_image")
    }

    /// Fallible [`SymbolicContext::image`]: unwinds with a typed
    /// [`Interrupt`] when the manager's installed budget breaches inside
    /// the firing, leaving no partial protections behind.
    pub fn try_image(&mut self, from: Ref, t: TransitionId) -> Result<Ref, Interrupt> {
        let plan = self.image_plan();
        let planned = plan.planned(t);
        self.manager_mut()
            .try_and_exists_assign(from, planned.enabling, planned.target)
    }

    /// The image of `from` under *all* transitions: one symbolic step of the
    /// breadth-first traversal, OR-folded in transition order.
    pub fn image_all(&mut self, from: Ref) -> Ref {
        let mut acc = self.manager().zero();
        for t in 0..self.net().num_transitions() {
            let img = self.image(from, TransitionId(t as u32));
            acc = self.manager_mut().or(acc, img);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::{AssignmentStrategy, Encoding};
    use pnsym_net::nets::{figure1, philosophers};
    use pnsym_net::PetriNet;
    use pnsym_structural::{find_smcs, CoverStrategy};

    fn contexts(net: &PetriNet) -> Vec<SymbolicContext> {
        let smcs = find_smcs(net).unwrap();
        vec![
            SymbolicContext::new(net, Encoding::sparse(net)),
            SymbolicContext::new(
                net,
                Encoding::dense(net, &smcs, CoverStrategy::Exact, AssignmentStrategy::Gray),
            ),
            SymbolicContext::new(
                net,
                Encoding::improved(net, &smcs, AssignmentStrategy::Gray),
            ),
        ]
    }

    #[test]
    fn single_step_images_match_explicit_firing() {
        for net in [figure1(), philosophers(2)] {
            let rg = net.explore().unwrap();
            for mut ctx in contexts(&net) {
                for m in rg.markings().iter().take(8) {
                    let from = ctx.marking_to_bdd(m);
                    for t in net.transitions() {
                        let img = ctx.image(from, t);
                        if net.is_enabled(m, t) {
                            let next = net.fire(m, t).unwrap();
                            assert_eq!(ctx.count_markings(img), 1.0);
                            assert!(ctx.set_contains(img, &next));
                        } else {
                            assert_eq!(img, ctx.manager().zero());
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn image_all_matches_explicit_successors() {
        let net = figure1();
        let rg = net.explore().unwrap();
        for mut ctx in contexts(&net) {
            let m = rg.marking(0).clone();
            let from = ctx.marking_to_bdd(&m);
            let img = ctx.image_all(from);
            let successors: Vec<_> = net
                .enabled_transitions(&m)
                .into_iter()
                .map(|t| net.fire(&m, t).unwrap())
                .collect();
            assert_eq!(ctx.count_markings(img), successors.len() as f64);
            for s in &successors {
                assert!(ctx.set_contains(img, s));
            }
        }
    }

    #[test]
    fn effects_write_fewer_variables_under_gray_codes() {
        let net = figure1();
        let smcs = find_smcs(&net).unwrap();
        let enc = Encoding::improved(&net, &smcs, AssignmentStrategy::Gray);
        let ctx = SymbolicContext::new(&net, enc);
        for t in net.transitions() {
            let effect = ctx.transition_effect(t);
            assert!(effect.num_written() >= 1);
            assert!(effect.num_written() <= ctx.encoding().num_vars());
        }
    }

    #[test]
    fn disabled_transition_has_empty_image_from_reachable_set() {
        let net = philosophers(2);
        let smcs = find_smcs(&net).unwrap();
        let enc = Encoding::improved(&net, &smcs, AssignmentStrategy::Gray);
        let mut ctx = SymbolicContext::new(&net, enc);
        // From the initial marking, "eat" transitions are disabled.
        let init = ctx.initial_set();
        let eat0 = net.transition_by_name("eat.0").unwrap();
        assert_eq!(ctx.image(init, eat0), ctx.manager().zero());
    }
}
