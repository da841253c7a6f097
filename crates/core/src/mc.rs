//! Symbolic CTL model checking on top of the encodings (Section 5 of the
//! paper): pre-image computation through the precomputed
//! [`ImagePlan`](crate::plan::ImagePlan) the forward image uses, the full
//! set of CTL fixpoint operators (`EX EF EG AX AF AG EU AU`), and the
//! [`SymbolicContext::check_property`] entry point producing a verdict plus
//! a concrete witness or counterexample firing sequence.
//!
//! Properties come from the [`Property`](crate::Property) language (built
//! programmatically or parsed from text); atomic propositions are place
//! markings, so typical Petri-net questions — mutual exclusion,
//! reachability of a partial marking, inevitability of progress, absence of
//! deadlock (`AG EX true`) — can be phrased directly against the paper's
//! encodings.
//!
//! # Fixpoints
//!
//! Which fixpoint runs depends on what is known about `within`, the set
//! the path quantifiers range over (`Model`): the complete reached set of
//! a run (the context's memoized one for the public operators, or the run
//! a portfolio is evaluated on), the partial set of a truncated run, or a
//! set of unknown origin.
//!
//! `EF` (and through it `AG = ¬EF ¬`) *saturates* backwards over a
//! complete reached set, on the same [`FixpointStrategy::Saturation`] code
//! forward reachability runs on: transitions are bucketed by the topmost
//! level they write and fired bottom-up, each firing ORs the transition's
//! pre-image of the current set into it, and a transition re-fires only
//! when a productive firing of a transition it feeds has re-dirtied it.
//! Skipping a clean transition is sound because that set is closed under
//! successors (see `BackwardKernel`). Over any other set `EF` and `AG`
//! take the chained `EU` instead.
//!
//! `EU` under an arbitrary `hold` *chains*: a sweep walks the plan's
//! backward firing order and ORs each transition's pre-image of the
//! current set, restricted to `hold`, into it at once, so a state found
//! early in the sweep is already a target for the transitions after it;
//! the fixpoint is reached when a full sweep adds nothing.
//!
//! The greatest fixpoint `EG a` is bounded by T-semiflows over a set of
//! reachable markings, complete or truncated: a cycle inside `a` fires a
//! T-semiflow, so only the transitions that survive
//! [`semiflow_support`](pnsym_structural::semiflow_support) can carry one.
//! The breadth-first fixpoint runs under those transitions alone, and the
//! chained `E[a U Z]` closes its result `Z` when the prune removed any (see
//! [`SymbolicContext::try_eg`]). Over a set of unknown origin it runs under
//! every transition with an edge inside `a`. `AF` and `AU` are evaluated
//! through their duals (`AF q = ¬EG ¬q`,
//! `A[p U q] = ¬(E[¬q U ¬p∧¬q] ∨ EG ¬q)`) as subterms of the evaluation
//! pass's cache, so a portfolio holding both computes the `EG ¬q` core
//! they share once, and their counterexamples read it back.
//!
//! # Path semantics at deadlocks
//!
//! Safe Petri nets can deadlock, so the transition relation is not total
//! and the usual CTL path quantifiers need a convention. This module (and
//! the explicit-state oracle in [`crate::explicit`]) uses the standard
//! *infinite-path* semantics: `EG φ` demands an infinite run staying in
//! `φ`, so a deadlocked state never satisfies it, and dually every
//! universally quantified formula (`AX`, `AF`, `AG φ` over successors,
//! `A[φ U ψ]`) holds **vacuously** at a deadlocked state. The classical
//! dualities (`AF φ = ¬EG ¬φ`, `A[φ U ψ] = ¬(E[¬ψ U ¬φ∧¬ψ] ∨ EG ¬ψ)`) are
//! preserved under this convention and pinned by the test suite. A
//! deadlock itself is expressible inside the language as `!EX true`.

use crate::context::SymbolicContext;
use crate::plan::{ImagePlan, PlannedTransition};
use crate::property::Property;
use crate::trace::WitnessTrace;
use crate::traverse::{
    run_fixpoint, BddFixpointKernel, FixpointKernel, FixpointStrategy, ReachabilityResult,
    TraversalOptions,
};
use pnsym_bdd::{Interrupt, Ref, TruncationReason};
use pnsym_net::TransitionId;
use pnsym_structural::semiflow_support;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// What the optional trace attached to a [`CheckReport`] demonstrates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// The trace demonstrates that the property *holds*: a firing sequence
    /// into a target state (`EF`, `EU`, `EX`) or a lasso staying in the
    /// target set (`EG`).
    Witness,
    /// The trace demonstrates that the property *fails*: a firing sequence
    /// into a violating state (`AG`, `AX`, the finite branch of `AU`) or a
    /// lasso avoiding the target forever (`AF`, the infinite branch of
    /// `AU`).
    Counterexample,
}

/// The outcome of one [`SymbolicContext::check_property`] query.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// Whether the initial marking satisfies the property.
    pub holds: bool,
    /// Number of reachable markings satisfying the property.
    pub sat_markings: f64,
    /// Number of reachable markings (the model the property was evaluated
    /// over).
    pub reached_markings: f64,
    /// A concrete firing sequence explaining the verdict, when the
    /// top-level operator admits one (see [`TraceKind`]); validated against
    /// the token game by the test suite.
    pub trace: Option<WitnessTrace>,
    /// What [`CheckReport::trace`] demonstrates; `None` iff `trace` is.
    pub trace_kind: Option<TraceKind>,
    /// Why the underlying reachability fixpoint stopped early
    /// ([`TraversalOptions::max_iterations`] or a budget breach), or
    /// `None` for a complete fixpoint. A truncated run explores
    /// only a subset of the reachable markings, so [`CheckReport::holds`]
    /// and [`CheckReport::sat_markings`] describe that explored prefix,
    /// **not a definitive verdict** over the full state space — callers
    /// must surface this instead of trusting the verdict (the bench
    /// `check` runner prints the reason and fails truncated verdicts).
    pub truncated: Option<TruncationReason>,
    /// Wall-clock time of the query (including the reachability fixpoint).
    pub duration: Duration,
}

/// The outcome of one portfolio pass
/// ([`SymbolicContext::check_portfolio`]): per-property reports plus the
/// shared-subterm cache counters that quantify how much bottom-up work the
/// portfolio amortized across its formulas.
#[derive(Debug, Clone)]
pub struct PortfolioReport {
    /// One [`CheckReport`] per input property, in input order.
    pub reports: Vec<CheckReport>,
    /// Subterm evaluations answered from the shared cache. Each hit is a
    /// whole sub-fixpoint (or boolean subterm) that earlier formulas of the
    /// same portfolio already computed.
    pub subterm_hits: u64,
    /// Total subterm lookups (one per node of every property AST walked).
    pub subterm_lookups: u64,
}

/// The subterm cache of one evaluation pass (a portfolio, or one
/// [`SymbolicContext::sat_set`] call): satisfaction sets keyed by the
/// (hashable) property subterm, valid for a single `within` set. Every
/// cached set is protected until the pass drains the cache.
#[derive(Default)]
struct SubtermCache {
    map: HashMap<Property, Ref>,
    hits: u64,
    lookups: u64,
    /// What the pass's `within` set is known to be.
    model: Model,
}

/// What an evaluation pass knows about its `within` set, which decides the
/// fixpoints that are sound over it. Both cases hold only reachable
/// markings of the (safe) net, so the state equation holds on every path
/// inside them and `EG` may prune by T-semiflows (see
/// [`SymbolicContext::try_eg`]). A `within` of unknown origin has no
/// model: there `EF` chains and `EG` runs unpruned.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum Model {
    /// The set of a complete reachability run: also closed under
    /// successors, so `EF` and `AG` saturate (see `BackwardKernel`).
    #[default]
    Complete,
    /// The partial set of a truncated run: not closed under successors,
    /// so `EF` and `AG` chain.
    Truncated,
}

/// Panic message of the infallible CTL wrappers when a budget trips under
/// them: governed callers must go through the `try_*` variants.
const GOVERNED_CTL: &str =
    "budget breached inside an infallible CTL fixpoint; governed callers must use the try_* variants";

/// The backward kernel of saturation: `EF` inside a set
/// `within` closed under successors. It is the forward
/// [`BddFixpointKernel`] turned round in three places, and shares its set
/// algebra, protections and forced per-pass checkpoint:
///
/// * a transition's "image" of `Z` is its pre-image of `Z`, restricted to
///   `within`;
/// * the feeds relation is transposed: firing `from` backwards can give
///   `to` new predecessors to add only when `to`'s post-set meets
///   `from`'s pre-set, i.e. when `to` feeds `from` forwards;
/// * the transitions fire in the plan's backward order within a level.
///
/// Skipping a clean transition is sound for this reason. Say `to` was
/// saturated when `from` added a state `s` with `s --from--> s'` and `s'`
/// in `Z`, and `u --to--> s` for a `u` in `within`. If `to` does not feed
/// `from`, the two firings commute (`to` leaves `from`'s pre-set marked
/// and takes nothing from it): `u --from--> v --to--> s'`. `v` is a
/// successor of `u`, so it lies in `within` because `within` is closed
/// under successors; `to` was saturated, so `v` is in `Z`; and then `u`
/// was added by the same firing of `from` that added `s`. Under an
/// arbitrary `hold`, as in a general `EU`, `v` may leave `hold` and the
/// argument fails, which is why [`SymbolicContext::try_eu`] chains.
///
/// `maintain` stays the no-op default: CTL evaluation holds unprotected
/// operands, so no collection may run inside it.
struct BackwardKernel<'a> {
    forward: BddFixpointKernel<'a, 'a>,
    within: Ref,
}

impl FixpointKernel for BackwardKernel<'_> {
    type Set = Ref;

    fn empty(&self) -> Ref {
        self.forward.empty()
    }

    fn initial(&mut self) -> Ref {
        self.forward.initial()
    }

    fn num_transitions(&self) -> usize {
        self.forward.num_transitions()
    }

    fn firing_order(&self) -> Vec<usize> {
        self.forward.plan.schedule().backward_order().collect()
    }

    fn top_level(&self, t: usize) -> u32 {
        self.forward.top_level(t)
    }

    fn feeds(&self, from: usize, to: usize) -> bool {
        self.forward.feeds(to, from)
    }

    fn fire(&mut self, t: usize, z: Ref) -> Result<Ref, Interrupt> {
        let ctx = &mut *self.forward.ctx;
        let pre = ctx.try_planned_pre_image(&self.forward.plan.transitions()[t], z)?;
        ctx.manager_mut().try_and(pre, self.within)
    }

    fn union(&mut self, a: Ref, b: Ref) -> Result<Ref, Interrupt> {
        self.forward.union(a, b)
    }

    fn diff(&mut self, a: Ref, b: Ref) -> Result<Ref, Interrupt> {
        self.forward.diff(a, b)
    }

    fn checkpoint(&mut self) -> Result<(), Interrupt> {
        self.forward.checkpoint()
    }

    fn protect(&mut self, s: Ref) {
        self.forward.protect(s);
    }

    fn unprotect(&mut self, s: Ref) {
        self.forward.unprotect(s);
    }
}

/// The `EG ¬a` core of `AF a = ¬EG ¬a`, which is also the infinite branch
/// of `¬A[_ U a]`. Evaluated as a subterm, so a portfolio computes it once
/// for all the formulas that hold it.
fn af_core(a: &Property) -> Property {
    Property::eg(a.clone().not())
}

/// The operands `(¬b, ¬a∧¬b)` of the finite branch `E[¬b U ¬a∧¬b]` of
/// `¬A[a U b] = E[¬b U ¬a∧¬b] ∨ EG ¬b`.
fn au_finite(a: &Property, b: &Property) -> (Property, Property) {
    let not_b = b.clone().not();
    let neither = a.clone().not().and(not_b.clone());
    (not_b, neither)
}

impl SymbolicContext {
    /// Translates a [`Property`] into the BDD of its satisfying markings.
    ///
    /// Purely boolean formulas are translated over the whole encoded space
    /// (no reachability fixpoint is run); temporal formulas are evaluated
    /// over the reachable state space, i.e. this is
    /// [`SymbolicContext::sat_set`] with the context's
    /// [`reached_set`](SymbolicContext::reached_set) as the model.
    pub fn property_set(&mut self, property: &Property) -> Ref {
        let within = if property.is_boolean() {
            self.manager().one()
        } else {
            self.reached_set(TraversalOptions::default(), None, None)
                .reached
        };
        self.sat_set(property, within)
    }

    /// The set of markings of `within` satisfying the CTL formula
    /// `property`, computed by bottom-up fixpoint evaluation.
    ///
    /// `within` is the model: the set the path quantifiers range over,
    /// typically the reached set of [`SymbolicContext::reached_set`]. It
    /// **must** be closed under successors and hold only reachable
    /// markings, as a complete reached set does: the saturated `EF` and
    /// the flow-pruned `EG` rely on both and are not checked. Over any
    /// other set use the operators ([`SymbolicContext::try_ef`],
    /// [`SymbolicContext::try_eg`], …) directly. The result is always a
    /// subset of `within`.
    pub fn sat_set(&mut self, property: &Property, within: Ref) -> Ref {
        let mut cache = SubtermCache::default();
        let sat = self.sat_set_memo(property, within, &mut cache);
        self.drain(cache);
        sat.expect(GOVERNED_CTL)
    }

    /// The pre-image of `target` under transition `t`: the markings that
    /// enable `t` and reach a marking of `target` by firing it.
    ///
    /// `E_t ∧ target[W_t := T_t]`: `target` with the variables `t` writes
    /// fixed to its target constants, conjoined with its enabling
    /// function, in one pass of the kernel's `and_cofactor` over the
    /// precomputed [`ImagePlan`](crate::plan::ImagePlan) artefacts of `t`
    /// (built once per context, not per call).
    pub fn pre_image(&mut self, target: Ref, t: TransitionId) -> Ref {
        let plan = self.image_plan();
        self.try_planned_pre_image(plan.planned(t), target)
            .expect("budget breached inside an infallible pre-image; governed callers must use try_pre_image_all")
    }

    /// The pre-image of `target` under all transitions (one backward step):
    /// the one-pass pre-images ([`SymbolicContext::pre_image`]) OR-folded
    /// in the plan's backward order, its firing order with the ranks
    /// reversed and transitions of equal rank in ascending order.
    pub fn pre_image_all(&mut self, target: Ref) -> Ref {
        self.try_pre_image_all(target)
            .expect("budget breached inside an infallible pre-image; governed callers must use try_pre_image_all")
    }

    /// Governed [`SymbolicContext::pre_image_all`]: unwinds with a typed
    /// [`Interrupt`] when the installed budget trips.
    pub fn try_pre_image_all(&mut self, target: Ref) -> Result<Ref, Interrupt> {
        let plan = self.image_plan();
        self.try_pre_image_of(&plan, target, None)
    }

    /// One backward step of `target` in the plan's backward order, under
    /// every transition or, given a mask indexed by transition, under the
    /// transitions it keeps.
    fn try_pre_image_of(
        &mut self,
        plan: &ImagePlan,
        target: Ref,
        keep: Option<&[bool]>,
    ) -> Result<Ref, Interrupt> {
        let mut acc = self.manager().zero();
        for t in plan.schedule().backward_order() {
            if keep.is_some_and(|keep| !keep[t]) {
                continue;
            }
            let pre = self.try_planned_pre_image(&plan.transitions()[t], target)?;
            acc = self.manager_mut().try_or(acc, pre)?;
        }
        Ok(acc)
    }

    /// The pre-image of `target` under one planned transition:
    /// `E_t ∧ target[W_t := T_t]` in one `and_cofactor` pass.
    fn try_planned_pre_image(
        &mut self,
        planned: &PlannedTransition,
        target: Ref,
    ) -> Result<Ref, Interrupt> {
        self.manager_mut()
            .try_and_cofactor(planned.enabling, target, planned.target)
    }

    /// CTL `EX target` restricted to `within`: states of `within` with a
    /// successor in `target`.
    pub fn ex(&mut self, target: Ref, within: Ref) -> Ref {
        self.try_ex(target, within).expect(GOVERNED_CTL)
    }

    /// Governed [`SymbolicContext::ex`].
    pub fn try_ex(&mut self, target: Ref, within: Ref) -> Result<Ref, Interrupt> {
        let pre = self.try_pre_image_all(target)?;
        self.manager_mut().try_and(pre, within)
    }

    /// CTL `AX target` restricted to `within`: states of `within` all of
    /// whose successors lie in `target` (vacuously including deadlocks).
    pub fn ax(&mut self, target: Ref, within: Ref) -> Ref {
        self.try_ax(target, within).expect(GOVERNED_CTL)
    }

    /// Governed [`SymbolicContext::ax`].
    pub fn try_ax(&mut self, target: Ref, within: Ref) -> Result<Ref, Interrupt> {
        let not_target = self.manager_mut().try_diff(within, target)?;
        let ex_not = self.try_ex(not_target, within)?;
        self.manager_mut().try_diff(within, ex_not)
    }

    /// CTL `EF target` restricted to `within` (least fixpoint of
    /// `target ∨ EX Z`): states of `within` that can reach `target`.
    pub fn ef(&mut self, target: Ref, within: Ref) -> Ref {
        self.try_ef(target, within).expect(GOVERNED_CTL)
    }

    /// Governed [`SymbolicContext::ef`]. When `within` is the context's
    /// memoized complete reached set
    /// ([`SymbolicContext::memoized_reached`]), it saturates backwards on
    /// the same code forward reachability runs on: transitions are bucketed
    /// by the topmost level they write and fired bottom-up, and a
    /// transition re-fires only when a productive firing of a transition it
    /// feeds re-dirties it. Skipping a clean transition is sound only
    /// because that set is closed under successors (see `BackwardKernel`).
    /// Over any other `within`, such as the partial set of a truncated run,
    /// it is the chained `E[within U target]` ([`SymbolicContext::try_eu`]),
    /// which is sound everywhere. The budget is force-checked at every pass
    /// or sweep, and every protection taken is released on return.
    pub fn try_ef(&mut self, target: Ref, within: Ref) -> Result<Ref, Interrupt> {
        let model = self.model_of(within);
        self.try_ef_in(target, within, model)
    }

    /// What a public operator knows about its `within`: the complete
    /// model when it is the memoized reached set (one `Ref` comparison),
    /// nothing otherwise.
    fn model_of(&self, within: Ref) -> Option<Model> {
        let memo = self.memoized_reached().map(|run| run.reached);
        (memo == Some(within)).then_some(Model::Complete)
    }

    /// `EF target` in `within` on the fixpoint that is sound there: the
    /// saturated one over a complete reached set, the chained
    /// `E[within U target]` otherwise.
    fn try_ef_in(
        &mut self,
        target: Ref,
        within: Ref,
        model: Option<Model>,
    ) -> Result<Ref, Interrupt> {
        if model == Some(Model::Complete) {
            self.try_saturated_ef(target, within)
        } else {
            self.try_eu(within, target, within)
        }
    }

    /// `EF target` by backward saturation (`BackwardKernel`) inside a
    /// `within` closed under successors. On every return the protections
    /// of the start set and of the growing set are released.
    fn try_saturated_ef(&mut self, target: Ref, within: Ref) -> Result<Ref, Interrupt> {
        let start = self.manager_mut().try_and(target, within)?;
        self.manager_mut().protect(start);
        let plan = self.image_plan();
        let mut kernel = BackwardKernel {
            forward: BddFixpointKernel {
                ctx: self,
                plan,
                start,
                observer: None,
            },
            within,
        };
        let run = run_fixpoint(&mut kernel, FixpointStrategy::Saturation, None);
        self.manager_mut().unprotect(start);
        self.manager_mut().unprotect(run.reached);
        match run.truncated {
            None => Ok(run.reached),
            Some(reason) => Err(Interrupt::new(reason)),
        }
    }

    /// CTL `EG target` restricted to `within` (greatest fixpoint of
    /// `target ∧ EX Z`): states from which some infinite path stays in
    /// `target` forever. Deadlocked states drop out of the fixpoint, per
    /// the module's path semantics.
    pub fn eg(&mut self, target: Ref, within: Ref) -> Ref {
        self.try_eg(target, within).expect(GOVERNED_CTL)
    }

    /// Governed [`SymbolicContext::eg`], in four steps:
    ///
    /// 1. `A = target ∧ within`, and `T_a`, the transitions `t` with
    ///    `pre_t(A) ∧ A ≠ ∅`: the labels of the edges inside `A` (one
    ///    pass over the plan's members).
    /// 2. `T'`, the transitions of `T_a` that [`semiflow_support`] keeps:
    ///    those that can lie in a T-semiflow using only `T_a`. If `T'` is
    ///    empty, `EG` is empty.
    /// 3. The greatest fixpoint `Z = A ∧ pre_{T'}(Z)`, breadth-first.
    /// 4. `Z` itself if nothing was pruned (`T' = T_a`), otherwise
    ///    `E[A U Z]` ([`SymbolicContext::try_eu`]).
    ///
    /// This is exact. A cycle inside `A` returns to its marking, so its
    /// Parikh vector is a T-semiflow supported in `T_a`, and the prune
    /// keeps every such support. So every nontrivial strongly connected
    /// component of `A` lies in `Z`, and `Z ⊆ EG target` because every
    /// state of `Z` has a successor in `Z`. A run that stays in `A`
    /// forever ends in such a component, hence `EG target = E[A U Z]`. A
    /// deadlocked state has no successor and never reaches `Z`. With `T'`
    /// much smaller than `T_a`, as on muller's `EG !done.0`, the fixpoint
    /// that took hundreds of breadth-first steps ends at once.
    ///
    /// The state equation behind step 2 holds only on reachable markings
    /// of the safe net: an arbitrary code of the encoding need not fire
    /// as its marking does. So the prune runs only when `within` is the
    /// context's memoized complete reached set
    /// ([`SymbolicContext::memoized_reached`]), or inside an evaluation
    /// pass over a reached set, complete or truncated; otherwise step 2
    /// keeps `T' = T_a` and step 3 is the plain breadth-first greatest
    /// fixpoint.
    /// The member pass and every iteration force-check the budget, so a
    /// tiny deadline truncates deterministically even on nets too small
    /// for the amortized in-recursion check to fire.
    ///
    /// [`semiflow_support`]: pnsym_structural::semiflow_support
    pub fn try_eg(&mut self, target: Ref, within: Ref) -> Result<Ref, Interrupt> {
        let reachable = self.model_of(within).is_some();
        self.try_eg_in(target, within, reachable)
    }

    /// [`SymbolicContext::try_eg`] with the prune of step 2 applied when
    /// `within` is `reachable`: it holds only reachable markings.
    fn try_eg_in(&mut self, target: Ref, within: Ref, reachable: bool) -> Result<Ref, Interrupt> {
        let plan = self.image_plan();
        let a = self.manager_mut().try_and(target, within)?;
        let labels = self.try_edge_labels(&plan, a)?;
        let pruned = reachable
            .then(|| semiflow_support(self.net(), &labels))
            .filter(|cyclic| *cyclic != labels);
        let keep = pruned.as_deref().unwrap_or(&labels);
        if !keep.contains(&true) {
            return Ok(self.manager().zero());
        }
        let core = self.try_eg_core(&plan, a, keep)?;
        match pruned {
            None => Ok(core),
            Some(_) => self.try_eu(a, core, within),
        }
    }

    /// The transitions that label an edge inside `a`: the plan members
    /// `t` with `pre_t(a) ∧ a ≠ ∅`, as a mask indexed by transition.
    fn try_edge_labels(&mut self, plan: &ImagePlan, a: Ref) -> Result<Vec<bool>, Interrupt> {
        self.manager_mut().force_checkpoint()?;
        let mut labels = vec![false; self.net().num_transitions()];
        for (label, planned) in labels.iter_mut().zip(plan.transitions()) {
            let pre = self.try_planned_pre_image(planned, a)?;
            let inside = self.manager_mut().try_and(pre, a)?;
            *label = inside != self.manager().zero();
        }
        Ok(labels)
    }

    /// The greatest fixpoint `Z = a ∧ pre_keep(Z)`: one backward step
    /// under the transitions `keep` holds per iteration.
    fn try_eg_core(&mut self, plan: &ImagePlan, a: Ref, keep: &[bool]) -> Result<Ref, Interrupt> {
        let mut z = a;
        loop {
            self.manager_mut().force_checkpoint()?;
            let pre = self.try_pre_image_of(plan, z, Some(keep))?;
            let next = self.manager_mut().try_and(z, pre)?;
            if next == z {
                return Ok(z);
            }
            z = next;
        }
    }

    /// CTL `AG target` restricted to `within`: `¬ EF ¬target`.
    pub fn ag(&mut self, target: Ref, within: Ref) -> Ref {
        self.try_ag(target, within).expect(GOVERNED_CTL)
    }

    /// Governed [`SymbolicContext::ag`], through
    /// [`SymbolicContext::try_ef`]: saturated over the memoized reached
    /// set, chained over any other `within`.
    pub fn try_ag(&mut self, target: Ref, within: Ref) -> Result<Ref, Interrupt> {
        let not_target = self.manager_mut().try_not(target)?;
        let bad = self.try_ef(not_target, within)?;
        self.manager_mut().try_diff(within, bad)
    }

    /// CTL `AF target` restricted to `within`: `¬ EG ¬target`. Deadlocked
    /// states satisfy it vacuously, per the module's path semantics.
    pub fn af(&mut self, target: Ref, within: Ref) -> Ref {
        self.try_af(target, within).expect(GOVERNED_CTL)
    }

    /// Governed [`SymbolicContext::af`], through its dual
    /// [`SymbolicContext::try_eg`]: flow-pruned over the memoized reached
    /// set, breadth-first over any other `within`.
    pub fn try_af(&mut self, target: Ref, within: Ref) -> Result<Ref, Interrupt> {
        let not_target = self.manager_mut().try_not(target)?;
        let avoid = self.try_eg(not_target, within)?;
        self.manager_mut().try_diff(within, avoid)
    }

    /// CTL `E[hold U until]` restricted to `within` (least fixpoint of
    /// `until ∨ (hold ∧ EX Z)`): states with a path satisfying `hold` at
    /// every step until a state of `until` is reached.
    pub fn eu(&mut self, hold: Ref, until: Ref, within: Ref) -> Ref {
        self.try_eu(hold, until, within).expect(GOVERNED_CTL)
    }

    /// Governed [`SymbolicContext::eu`], computed by *chaining*: each sweep
    /// walks the backward order of [`SymbolicContext::pre_image_all`] and
    /// ORs every transition's pre-image of the current set, restricted to
    /// `hold ∧ within`, into the set at once; a sweep that adds nothing
    /// ends the fixpoint. No transition is skipped as clean.
    /// [`SymbolicContext::try_ef`] may skip them because its `within` is
    /// closed under successors, so a backward path with two firings
    /// commuted stays inside it; under an arbitrary `hold` the
    /// commuted path may leave `hold`, so only a full confirming sweep is
    /// sound. The same holds for a `within` that is not closed, which is
    /// why `E[within U target]` is the `EF` of a truncated run. The budget
    /// is force-checked at every sweep, so a tiny deadline truncates
    /// deterministically even on nets too small for the amortized
    /// in-recursion check to fire.
    pub fn try_eu(&mut self, hold: Ref, until: Ref, within: Ref) -> Result<Ref, Interrupt> {
        let plan = self.image_plan();
        let hold_w = self.manager_mut().try_and(hold, within)?;
        let mut z = self.manager_mut().try_and(until, within)?;
        loop {
            self.manager_mut().force_checkpoint()?;
            let swept_from = z;
            for t in plan.schedule().backward_order() {
                let pre = self.try_planned_pre_image(&plan.transitions()[t], z)?;
                let step = self.manager_mut().try_and(pre, hold_w)?;
                z = self.manager_mut().try_or(z, step)?;
            }
            if z == swept_from {
                return Ok(z);
            }
        }
    }

    /// CTL `A[hold U until]` restricted to `within` (least fixpoint of
    /// `until ∨ (hold ∧ AX Z)`): states all of whose paths satisfy `hold`
    /// until they reach `until`. Deadlocked `hold`-states satisfy it
    /// vacuously, per the module's path semantics.
    pub fn au(&mut self, hold: Ref, until: Ref, within: Ref) -> Ref {
        self.try_au(hold, until, within).expect(GOVERNED_CTL)
    }

    /// Governed [`SymbolicContext::au`], through its duality
    /// `A[p U q] = ¬(E[¬q U ¬p∧¬q] ∨ EG ¬q)` (complements taken in
    /// `within`): the chained [`SymbolicContext::try_eu`] plus one
    /// [`SymbolicContext::try_eg`] (flow-pruned over the memoized reached
    /// set, breadth-first over any other `within`), instead of a full `AX`
    /// step per iteration.
    pub fn try_au(&mut self, hold: Ref, until: Ref, within: Ref) -> Result<Ref, Interrupt> {
        let not_until = self.manager_mut().try_diff(within, until)?;
        let neither = self.manager_mut().try_diff(not_until, hold)?;
        let finite = self.try_eu(not_until, neither, within)?;
        let infinite = self.try_eg(not_until, within)?;
        let fails = self.manager_mut().try_or(finite, infinite)?;
        self.manager_mut().try_diff(within, fails)
    }

    /// Whether some reachable marking satisfies `property`
    /// (`EF property` from the initial marking).
    pub fn check_reachable(&mut self, property: &Property) -> bool {
        let reached = self
            .reached_set(TraversalOptions::default(), None, None)
            .reached;
        let sat = self.sat_set(property, reached);
        sat != self.manager().zero()
    }

    /// Whether every reachable marking satisfies `property`
    /// (`AG property` from the initial marking).
    pub fn check_invariant(&mut self, property: &Property) -> bool {
        let reached = self
            .reached_set(TraversalOptions::default(), None, None)
            .reached;
        let sat = self.sat_set(property, reached);
        sat == reached
    }

    /// Checks `property` at the initial marking over the reachable state
    /// space and, where the top-level operator admits one, extracts a
    /// concrete witness or counterexample firing sequence.
    ///
    /// Traces are produced for: `EF`/`EU`/`EX` witnesses (a path into the
    /// target), `EG` witnesses (a lasso staying in the target set),
    /// `AG`/`AX` counterexamples (a path to a violating state), `AF`
    /// counterexamples (a lasso avoiding the target) and `AU`
    /// counterexamples (a finite `¬until` path into `¬hold ∧ ¬until`, or a
    /// `¬until` lasso). For other shapes `trace` is `None`.
    ///
    /// # Examples
    ///
    /// ```
    /// use pnsym_core::{Encoding, Property, SymbolicContext};
    /// use pnsym_net::nets::philosophers;
    ///
    /// let net = philosophers(2);
    /// let mut ctx = SymbolicContext::new(&net, Encoding::sparse(&net));
    /// // The classic deadlock is reachable; the report carries a witness.
    /// let prop = Property::parse("EF !EX true", &net).unwrap();
    /// let report = ctx.check_property(&prop);
    /// assert!(report.holds);
    /// let trace = report.trace.unwrap();
    /// assert!(trace.validate(&net));
    /// assert!(net.enabled_transitions(trace.witness()).is_empty());
    /// ```
    pub fn check_property(&mut self, property: &Property) -> CheckReport {
        self.check_property_with(property, TraversalOptions::default())
    }

    /// [`SymbolicContext::check_property`] with explicit traversal options:
    /// the strategy and GC threshold of the reachability fixpoint, and a
    /// budget that governs the traversal and, re-armed, the CTL evaluation
    /// (see [`SymbolicContext::check_portfolio_on`]). The fixpoint runs
    /// only while the context has no complete reached set
    /// ([`SymbolicContext::reached_set`]); the report's `duration`
    /// includes it when it runs.
    pub fn check_property_with(
        &mut self,
        property: &Property,
        options: TraversalOptions,
    ) -> CheckReport {
        let start = Instant::now();
        let mut portfolio = self.check_portfolio_with(std::slice::from_ref(property), options);
        let mut report = portfolio.reports.pop().expect("one report per property");
        report.duration = start.elapsed();
        report
    }

    /// Checks a *portfolio* of properties against one reached set in a
    /// single bottom-up pass with shared subterm caching.
    ///
    /// Where repeated [`SymbolicContext::check_property`] calls re-evaluate
    /// common subformulas from scratch (each call recurses over its own AST
    /// with no memory of earlier queries), the portfolio pass memoizes
    /// every subterm's satisfaction set by the subterm itself, so a shared
    /// core — e.g. the `eating.0 & eating.1` conjunction appearing under
    /// both an `AG !(...)` invariant and an `EF (...)` reachability query —
    /// is computed once. The counters on the returned [`PortfolioReport`]
    /// expose the amortization.
    ///
    /// # Examples
    ///
    /// ```
    /// use pnsym_core::{Encoding, Property, SymbolicContext};
    /// use pnsym_net::nets::philosophers;
    ///
    /// let net = philosophers(2);
    /// let mut ctx = SymbolicContext::new(&net, Encoding::sparse(&net));
    /// let props: Vec<Property> = [
    ///     "AG !(eating.0 & eating.1)",
    ///     "EF (eating.0 & eating.1)",
    /// ]
    /// .iter()
    /// .map(|t| Property::parse(t, &net).unwrap())
    /// .collect();
    /// let portfolio = ctx.check_portfolio(&props);
    /// assert!(portfolio.reports[0].holds);
    /// assert!(!portfolio.reports[1].holds);
    /// // The shared `eating.0 & eating.1` subterm came from the cache the
    /// // second time around (one hit short-circuits its whole subtree).
    /// assert!(portfolio.subterm_hits >= 1);
    /// ```
    pub fn check_portfolio(&mut self, properties: &[Property]) -> PortfolioReport {
        self.check_portfolio_with(properties, TraversalOptions::default())
    }

    /// [`SymbolicContext::check_portfolio`] with explicit traversal options
    /// for the underlying reachability fixpoint and the per-query budget.
    /// The portfolio is evaluated over the context's
    /// [`reached_set`](SymbolicContext::reached_set), so only the first
    /// query of a context traverses. The time budget bounds the whole
    /// call: the evaluation gets what the traversal left of it.
    pub fn check_portfolio_with(
        &mut self,
        properties: &[Property],
        options: TraversalOptions,
    ) -> PortfolioReport {
        let start = Instant::now();
        let run = self.reached_set(options, None, None);
        let portfolio = self.check_portfolio_on(properties, &run, options.remaining_since(start));
        if run.truncated.is_some() {
            // Never memoized: release the partial set once it is evaluated.
            self.manager_mut().unprotect(run.reached);
        }
        portfolio
    }

    /// Evaluates a portfolio over an *already computed* reachability result
    /// (the warm-context path: a server reusing one reached set across many
    /// queries skips the traversal entirely and enters here).
    ///
    /// The budget described by `options` is re-armed for the evaluation
    /// phase: every CTL fixpoint runs governed, and a breach degrades the
    /// offending property — and, since a tripped budget is sticky, every
    /// later property of the same portfolio — to a typed
    /// [`TruncationReason`] verdict instead of panicking or stalling.
    /// Witness extraction runs outside the budget (it only walks sets the
    /// governed phase already computed). The budget is disarmed and the
    /// subterm cache drained before returning, so the context stays
    /// serviceable for the next query.
    pub fn check_portfolio_on(
        &mut self,
        properties: &[Property],
        run: &ReachabilityResult,
        options: TraversalOptions,
    ) -> PortfolioReport {
        let reached = run.reached;
        let mut cache = SubtermCache {
            model: match run.truncated {
                None => Model::Complete,
                Some(_) => Model::Truncated,
            },
            ..SubtermCache::default()
        };
        if let Some(budget) = options.budget() {
            self.manager_mut().install_budget(budget);
        }
        let mut reports = Vec::with_capacity(properties.len());
        for property in properties {
            let start = Instant::now();
            let evaluated = self
                .sat_set_memo(property, reached, &mut cache)
                .and_then(|sat| {
                    let init = self.initial_set();
                    let init_sat = self.manager_mut().try_and(init, sat)?;
                    Ok((sat, init_sat != self.manager().zero()))
                });
            let report = match evaluated {
                Ok((sat, holds)) => {
                    // Trace extraction uses the infallible ops: suspend the
                    // budget (keeping its sticky state and absolute
                    // deadline) so a late breach cannot panic mid-walk.
                    let budget = self.manager_mut().take_budget();
                    let explained = self.explain(property, holds, sat, reached, &cache);
                    if let Some(budget) = budget {
                        self.manager_mut().install_budget(budget);
                    }
                    let (trace, trace_kind) = match explained {
                        Some((trace, kind)) => (Some(trace), Some(kind)),
                        None => (None, None),
                    };
                    CheckReport {
                        holds,
                        sat_markings: self.count_markings(sat),
                        reached_markings: run.num_markings,
                        trace,
                        trace_kind,
                        truncated: run.truncated,
                        duration: start.elapsed(),
                    }
                }
                Err(interrupt) => CheckReport {
                    holds: false,
                    sat_markings: 0.0,
                    reached_markings: run.num_markings,
                    trace: None,
                    trace_kind: None,
                    truncated: Some(interrupt.reason),
                    duration: start.elapsed(),
                },
            };
            reports.push(report);
        }
        let _ = self.manager_mut().take_budget();
        let (subterm_hits, subterm_lookups) = (cache.hits, cache.lookups);
        self.drain(cache);
        PortfolioReport {
            reports,
            subterm_hits,
            subterm_lookups,
        }
    }

    /// Releases the protections of every set cached in `cache`.
    fn drain(&mut self, cache: SubtermCache) {
        for set in cache.map.into_values() {
            self.manager_mut().unprotect(set);
        }
    }

    /// The one recursion over [`Property`]: governed bottom-up evaluation
    /// in which the satisfaction set of every subterm is cached (and
    /// protected) in `cache` for the duration of one pass.
    fn sat_set_memo(
        &mut self,
        property: &Property,
        within: Ref,
        cache: &mut SubtermCache,
    ) -> Result<Ref, Interrupt> {
        cache.lookups += 1;
        if let Some(&set) = cache.map.get(property) {
            cache.hits += 1;
            return Ok(set);
        }
        let result = match property {
            Property::Place(p) => {
                let chi = self.place_fn(*p);
                self.manager_mut().try_and(chi, within)?
            }
            Property::True => within,
            Property::False => self.manager().zero(),
            Property::Not(a) => {
                let fa = self.sat_set_memo(a, within, cache)?;
                self.manager_mut().try_diff(within, fa)?
            }
            Property::And(a, b) => {
                let fa = self.sat_set_memo(a, within, cache)?;
                let fb = self.sat_set_memo(b, within, cache)?;
                self.manager_mut().try_and(fa, fb)?
            }
            Property::Or(a, b) => {
                let fa = self.sat_set_memo(a, within, cache)?;
                let fb = self.sat_set_memo(b, within, cache)?;
                self.manager_mut().try_or(fa, fb)?
            }
            Property::Ex(a) => {
                let fa = self.sat_set_memo(a, within, cache)?;
                self.try_ex(fa, within)?
            }
            Property::Ef(a) => {
                let fa = self.sat_set_memo(a, within, cache)?;
                self.try_ef_in(fa, within, Some(cache.model))?
            }
            Property::Eg(a) => {
                let fa = self.sat_set_memo(a, within, cache)?;
                self.try_eg_in(fa, within, true)?
            }
            Property::Ax(a) => {
                let fa = self.sat_set_memo(a, within, cache)?;
                self.try_ax(fa, within)?
            }
            Property::Af(a) => {
                let avoid = self.sat_set_memo(&af_core(a), within, cache)?;
                self.manager_mut().try_diff(within, avoid)?
            }
            Property::Ag(a) => {
                let fa = self.sat_set_memo(a, within, cache)?;
                let not_fa = self.manager_mut().try_diff(within, fa)?;
                let bad = self.try_ef_in(not_fa, within, Some(cache.model))?;
                self.manager_mut().try_diff(within, bad)?
            }
            Property::Eu(a, b) => {
                let fa = self.sat_set_memo(a, within, cache)?;
                let fb = self.sat_set_memo(b, within, cache)?;
                self.try_eu(fa, fb, within)?
            }
            Property::Au(a, b) => {
                let (not_b, neither) = au_finite(a, b);
                let finite = self.sat_set_memo(&Property::eu(not_b, neither), within, cache)?;
                let infinite = self.sat_set_memo(&af_core(b), within, cache)?;
                let fails = self.manager_mut().try_or(finite, infinite)?;
                self.manager_mut().try_diff(within, fails)?
            }
        };
        self.manager_mut().protect(result);
        cache.map.insert(property.clone(), result);
        Ok(result)
    }

    /// Extracts the trace of a [`CheckReport`], dispatching on the
    /// top-level operator and the verdict. `sat` is the already-computed
    /// satisfaction set of `property`, reused where the trace needs exactly
    /// that fixpoint (the `EG` core); every other set, including the `EG`
    /// and `EU` branches that `AF` and `AU` are evaluated through, is read
    /// from the pass's `cache`, which holds every subterm of an evaluated
    /// formula.
    fn explain(
        &mut self,
        property: &Property,
        holds: bool,
        sat: Ref,
        reached: Ref,
        cache: &SubtermCache,
    ) -> Option<(WitnessTrace, TraceKind)> {
        let zero = self.manager().zero();
        // Read through the map so the hit/lookup counters stay untouched.
        let set = |p: &Property| cache.map[p];
        match (holds, property) {
            (true, Property::Ef(a)) => Some((self.witness_trace(set(a))?, TraceKind::Witness)),
            (true, Property::Eu(a, b)) => {
                Some((self.witness_trace_in(set(b), set(a))?, TraceKind::Witness))
            }
            (true, Property::Ex(a)) => Some((self.one_step_trace(set(a))?, TraceKind::Witness)),
            (true, Property::Eg(_)) => {
                // `sat` is the EG core itself.
                Some((self.lasso_from_initial(sat)?, TraceKind::Witness))
            }
            (false, Property::Ag(a)) => {
                let bad = self.manager_mut().diff(reached, set(a));
                Some((self.witness_trace(bad)?, TraceKind::Counterexample))
            }
            (false, Property::Ax(a)) => {
                let not_fa = self.manager_mut().diff(reached, set(a));
                Some((self.one_step_trace(not_fa)?, TraceKind::Counterexample))
            }
            (false, Property::Af(a)) => {
                let core = set(&af_core(a));
                Some((self.lasso_from_initial(core)?, TraceKind::Counterexample))
            }
            (false, Property::Au(a, b)) => {
                // ¬A[a U b] = E[¬b U ¬a∧¬b] ∨ EG ¬b: prefer the finite
                // branch (a ¬b-path into a state violating both), fall back
                // to a ¬b-lasso.
                let (not_b, neither) = au_finite(a, b);
                let finite = set(&Property::eu(not_b.clone(), neither.clone()));
                let init = self.initial_set();
                let init_in_finite = self.manager_mut().and(init, finite);
                let trace = if init_in_finite != zero {
                    self.witness_trace_in(set(&neither), set(&not_b))
                } else {
                    self.lasso_from_initial(set(&af_core(b)))
                };
                Some((trace?, TraceKind::Counterexample))
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::{AssignmentStrategy, Encoding};
    use crate::explicit::ExplicitChecker;
    use pnsym_bdd::Budget;
    use pnsym_net::nets::{
        dme, figure1, muller, philosophers, random_composed, slotted_ring, DmeStyle,
        RandomNetConfig,
    };
    use pnsym_net::{PetriNet, PlaceId};
    use pnsym_structural::find_smcs;

    fn dense_ctx(net: &PetriNet) -> SymbolicContext {
        let smcs = find_smcs(net).unwrap();
        SymbolicContext::new(
            net,
            Encoding::improved(net, &smcs, AssignmentStrategy::Gray),
        )
    }

    /// The breadth-first `E[hold U until]` the chained fixpoint replaced,
    /// kept as its oracle: every iteration takes one full backward step of
    /// the whole current set.
    fn bfs_eu(ctx: &mut SymbolicContext, hold: Ref, until: Ref, within: Ref) -> Ref {
        let hold_w = ctx.manager_mut().and(hold, within);
        let mut z = ctx.manager_mut().and(until, within);
        loop {
            let pre = ctx.pre_image_all(z);
            let step = ctx.manager_mut().and(hold_w, pre);
            let next = ctx.manager_mut().or(z, step);
            if next == z {
                return z;
            }
            z = next;
        }
    }

    /// The breadth-first `EG` the flow-pruned one replaced, kept as its
    /// oracle: the greatest fixpoint of `target ∧ EX Z`, one full backward
    /// step per iteration.
    fn bfs_eg(ctx: &mut SymbolicContext, target: Ref, within: Ref) -> Ref {
        let mut z = ctx.manager_mut().and(target, within);
        loop {
            let pre = ctx.pre_image_all(z);
            let next = ctx.manager_mut().and(z, pre);
            if next == z {
                return z;
            }
            z = next;
        }
    }

    /// The context's memoized complete reached set, over which the public
    /// operators saturate `EF` and prune `EG`.
    fn memoized(ctx: &mut SymbolicContext) -> Ref {
        ctx.reached_set(TraversalOptions::default(), None, None)
            .reached
    }

    /// The `A[hold U until]` the duality replaced, kept as its oracle: the
    /// least fixpoint of `until ∨ (hold ∧ AX Z)`, one `AX` step per
    /// iteration.
    fn ax_iteration_au(ctx: &mut SymbolicContext, hold: Ref, until: Ref, within: Ref) -> Ref {
        let hold_w = ctx.manager_mut().and(hold, within);
        let until_w = ctx.manager_mut().and(until, within);
        let mut z = until_w;
        loop {
            let ax_z = ctx.ax(z, within);
            let step = ctx.manager_mut().and(hold_w, ax_z);
            let next = ctx.manager_mut().or(until_w, step);
            if next == z {
                return z;
            }
            z = next;
        }
    }

    /// The nets the fixpoints are differentially tested on, each under
    /// the sparse and the improved dense encoding. philosophers(2) and the
    /// slotted ring have reachable deadlocks.
    fn differential_contexts() -> Vec<(PetriNet, SymbolicContext)> {
        let mut nets = vec![
            figure1(),
            philosophers(2),
            dme(3, DmeStyle::Spec),
            philosophers(6),
            slotted_ring(6),
            muller(8),
            dme(4, DmeStyle::Circuit),
        ];
        nets.extend((0..3).map(|seed| random_composed(RandomNetConfig::default(), seed)));
        let mut contexts = Vec::new();
        for net in nets {
            let smcs = find_smcs(&net).unwrap();
            for encoding in [
                Encoding::sparse(&net),
                Encoding::improved(&net, &smcs, AssignmentStrategy::Gray),
            ] {
                let ctx = SymbolicContext::new(&net, encoding);
                contexts.push((net.clone(), ctx));
            }
        }
        contexts
    }

    /// The markings of `reached` that mark each of four places spread
    /// over the net.
    fn sampled_places(ctx: &mut SymbolicContext, net: &PetriNet, reached: Ref) -> Vec<Ref> {
        let n = net.num_places();
        [0, n / 3, 2 * n / 3, n - 1]
            .into_iter()
            .map(|i| {
                let chi = ctx.place_fn(PlaceId(i as u32));
                ctx.manager_mut().and(chi, reached)
            })
            .collect()
    }

    #[test]
    fn saturated_ef_and_ag_equal_the_chained_oracle() {
        // The oracle is the chained `E[within U target]`, which fires every
        // transition on every sweep; the saturated `EF` skips clean ones.
        let mut deadlock_nets = 0;
        for (net, mut ctx) in differential_contexts() {
            let reached = memoized(&mut ctx);
            let mut targets = Vec::new();
            for p in sampled_places(&mut ctx, &net, reached) {
                targets.push(p);
                targets.push(ctx.manager_mut().diff(reached, p));
            }
            let dead = ctx.deadlocks_in(reached);
            if dead != ctx.manager().zero() {
                deadlock_nets += 1;
            }
            targets.push(dead);
            for target in targets {
                let chained = ctx.eu(reached, target, reached);
                assert_eq!(ctx.ef(target, reached), chained, "{}: EF", net.name());
                let not_target = ctx.manager_mut().diff(reached, target);
                let bad = ctx.eu(reached, not_target, reached);
                let chained = ctx.manager_mut().diff(reached, bad);
                assert_eq!(ctx.ag(target, reached), chained, "{}: AG", net.name());
            }
        }
        assert!(deadlock_nets >= 2, "reachable deadlocks are covered");
    }

    #[test]
    fn chained_eu_and_dual_au_equal_their_oracles() {
        // philosophers(2) has reachable deadlocks, so the dual AU meets the
        // vacuous deadlock convention there. Over the memoized reached set
        // the dual's `EG` branch is the flow-pruned one.
        for (net, mut ctx) in differential_contexts() {
            let reached = memoized(&mut ctx);
            let marked = sampled_places(&mut ctx, &net, reached);
            let dead = ctx.deadlocks_in(reached);
            // Holds: everything (EF), and each place unmarked, which a
            // firing that marks the place leaves. A hold that is not
            // closed under successors is the case in which a fixpoint
            // that skips clean transitions would miss states; every net
            // has one. Untils: each place, and deadlock.
            let mut pairs = Vec::new();
            let mut open_holds = 0;
            for (i, &p) in marked.iter().enumerate() {
                let unmarked = ctx.manager_mut().diff(reached, p);
                let successors = ctx.image_all(unmarked);
                if ctx.manager_mut().diff(successors, unmarked) != ctx.manager().zero() {
                    open_holds += 1;
                }
                pairs.push((reached, p));
                pairs.push((unmarked, dead));
                for &q in marked.iter().skip(i + 1) {
                    pairs.push((unmarked, q));
                }
            }
            assert!(open_holds > 0, "{}: a hold its firings leave", net.name());
            for (hold, until) in pairs {
                assert_eq!(
                    ctx.eu(hold, until, reached),
                    bfs_eu(&mut ctx, hold, until, reached),
                    "{}: chained EU",
                    net.name()
                );
                assert_eq!(
                    ctx.au(hold, until, reached),
                    ax_iteration_au(&mut ctx, hold, until, reached),
                    "{}: dual AU",
                    net.name()
                );
            }
        }
    }

    #[test]
    fn pruned_eg_equals_the_breadth_first_oracle() {
        // Over the memoized reached set `EG` runs under the transitions
        // that survive the T-semiflow prune and closes its core with
        // `E[A U Z]`; the oracle takes full backward steps. `AF` and `AU`
        // reach the pruned `EG` through their duals.
        let (mut pruned, mut closed) = (0, 0);
        for (net, mut ctx) in differential_contexts() {
            let reached = memoized(&mut ctx);
            let mut targets = Vec::new();
            for p in sampled_places(&mut ctx, &net, reached) {
                targets.push(p);
                targets.push(ctx.manager_mut().diff(reached, p));
            }
            targets.push(ctx.ex(reached, reached));
            targets.push(ctx.deadlocks_in(reached));
            let plan = ctx.image_plan();
            for (i, &a) in targets.iter().enumerate() {
                let oracle = bfs_eg(&mut ctx, a, reached);
                assert_eq!(ctx.eg(a, reached), oracle, "{}: EG", net.name());
                let not_a = ctx.manager_mut().diff(reached, a);
                let af = ctx.manager_mut().diff(reached, oracle);
                assert_eq!(ctx.af(not_a, reached), af, "{}: AF", net.name());
                let hold = targets[(i + 1) % targets.len()];
                let au = ax_iteration_au(&mut ctx, hold, not_a, reached);
                assert_eq!(ctx.au(hold, not_a, reached), au, "{}: AU", net.name());

                // Count the cores on which the prune fired and the closure
                // `E[A U Z]` added states to `Z`.
                let labels = ctx.try_edge_labels(&plan, a).unwrap();
                let cyclic = semiflow_support(&net, &labels);
                if cyclic != labels && cyclic.contains(&true) {
                    pruned += 1;
                    let core = ctx.try_eg_core(&plan, a, &cyclic).unwrap();
                    if core != ctx.manager().zero() && core != oracle {
                        closed += 1;
                    }
                }
            }
        }
        assert!(pruned > 0 && closed > 0, "pruned {pruned}, closed {closed}");
    }

    #[test]
    fn a_budget_interrupts_the_pruned_eg_and_releases_its_protections() {
        // muller's `EG !done.0` prunes its transitions, so the whole
        // four-step `EG` runs. A fresh context has a cold computed cache,
        // so the same call takes the same number of steps each time.
        let net = muller(6);
        let fresh = || {
            let mut ctx = dense_ctx(&net);
            let reached = memoized(&mut ctx);
            let done = ctx.place_fn(net.place_by_name("done.0").unwrap());
            let avoid = ctx.manager_mut().diff(reached, done);
            (ctx, avoid, reached)
        };
        let (mut ctx, avoid, reached) = fresh();
        let eg = crate::trace::assert_protections_balanced(&mut ctx, |ctx| {
            ctx.manager_mut().install_budget(Budget::new());
            let eg = ctx.try_eg(avoid, reached);
            let steps = ctx.manager_mut().take_budget().unwrap().steps();
            eg.map(|eg| (eg, steps))
        });
        let (eg, steps) = eg.unwrap();
        assert_eq!(eg, bfs_eg(&mut ctx, avoid, reached));
        for (budget, reason) in [
            (
                Budget::new().with_step_ceiling(steps / 2),
                TruncationReason::StepBudget,
            ),
            (
                Budget::new().with_deadline(Duration::ZERO),
                TruncationReason::Deadline,
            ),
        ] {
            let (mut ctx, avoid, reached) = fresh();
            let interrupted = crate::trace::assert_protections_balanced(&mut ctx, |ctx| {
                ctx.manager_mut().install_budget(budget);
                let eg = ctx.try_eg(avoid, reached);
                let _ = ctx.manager_mut().take_budget();
                eg
            });
            assert_eq!(interrupted, Err(Interrupt::new(reason)));
        }
    }

    #[test]
    fn af_and_au_share_their_eg_core_through_the_subterm_cache() {
        let net = muller(4);
        let mut ctx = dense_ctx(&net);
        let props: Vec<Property> = ["AF done.0", "A[!done.1 U done.0]"]
            .iter()
            .map(|t| Property::parse(t, &net).unwrap())
            .collect();
        let portfolio = ctx.check_portfolio(&props);
        assert!(portfolio.reports.iter().all(|r| r.holds));
        // `AF done.0` walks its 4 nodes cold: AF, its core EG !done.0,
        // !done.0 and done.0. `A[!done.1 U done.0]` walks AU, its finite
        // branch E[!done.0 U !!done.1 & !done.0], !done.0 (hit), the
        // conjunction, !!done.1, !done.1, done.1, !done.0 (hit) and its
        // infinite branch EG !done.0: a hit, so the core is computed once.
        assert_eq!((portfolio.subterm_hits, portfolio.subterm_lookups), (3, 13));
    }

    #[test]
    fn pre_image_inverts_image_on_figure1() {
        let net = figure1();
        for mut ctx in [
            SymbolicContext::new(&net, Encoding::sparse(&net)),
            dense_ctx(&net),
        ] {
            let reached = ctx.reachable_markings().reached;
            for t in net.transitions() {
                let img = ctx.image(reached, t);
                let back = ctx.pre_image(img, t);
                // Every state that fired t is in the pre-image of its image.
                let enabled = ctx.enabling_fn(t);
                let firing_states = ctx.manager_mut().and(reached, enabled);
                let missing = ctx.manager_mut().diff(firing_states, back);
                assert_eq!(missing, ctx.manager().zero());
            }
        }
    }

    #[test]
    fn pre_image_all_unions_the_per_transition_pre_images() {
        let net = philosophers(2);
        for mut ctx in [
            SymbolicContext::new(&net, Encoding::sparse(&net)),
            dense_ctx(&net),
        ] {
            let reached = ctx.reachable_markings().reached;
            let full = ctx.pre_image_all(reached);
            let mut acc = ctx.manager().zero();
            for t in net.transitions() {
                let pre = ctx.pre_image(reached, t);
                acc = ctx.manager_mut().or(acc, pre);
            }
            assert_eq!(full, acc);
        }
    }

    #[test]
    fn mutual_exclusion_is_an_invariant_of_dme() {
        let net = dme(3, DmeStyle::Spec);
        let mut ctx = dense_ctx(&net);
        let cs: Vec<PlaceId> = (0..3)
            .map(|i| net.place_by_name(&format!("critical.{i}")).unwrap())
            .collect();
        // No two cells in the critical section at once.
        for i in 0..3 {
            for j in i + 1..3 {
                let both = Property::place(cs[i]).and(Property::place(cs[j]));
                assert!(!ctx.check_reachable(&both));
                assert!(ctx.check_invariant(&both.not()));
            }
        }
        // Each cell can reach its critical section.
        for &c in &cs {
            assert!(ctx.check_reachable(&Property::place(c)));
        }
    }

    #[test]
    fn ef_and_ag_fixpoints_on_philosophers() {
        let net = philosophers(2);
        let mut ctx = dense_ctx(&net);
        let reached = memoized(&mut ctx);
        let eating0 = net.place_by_name("eating.0").unwrap();
        let target = ctx.place_fn(eating0);
        // From the initial marking philosopher 0 can eventually eat.
        let ef = ctx.ef(target, reached);
        let init = ctx.initial_set();
        let init_in_ef = ctx.manager_mut().and(init, ef);
        assert_ne!(init_in_ef, ctx.manager().zero());
        // But it is not inevitable: the deadlock avoids it, so AF(eating.0)
        // does not hold initially.
        let af = ctx.af(target, reached);
        let init_in_af = ctx.manager_mut().and(init, af);
        assert_eq!(init_in_af, ctx.manager().zero());
        // AG(true) is everything.
        let ag_true = ctx.ag(ctx.manager().one(), reached);
        assert_eq!(ag_true, reached);
    }

    #[test]
    fn property_combinators_translate_correctly() {
        let net = figure1();
        let mut ctx = SymbolicContext::new(&net, Encoding::sparse(&net));
        let p2 = net.place_by_name("p2").unwrap();
        let p4 = net.place_by_name("p4").unwrap();
        // p2 and p4 belong to the same SMC: never marked together.
        let both = Property::all_marked(&[p2, p4]);
        assert!(!ctx.check_reachable(&both));
        let either = Property::place(p2).or(Property::place(p4));
        assert!(ctx.check_reachable(&either));
        assert!(!ctx.check_invariant(&either));
        assert!(ctx.check_invariant(&Property::True));
    }

    #[test]
    fn eg_finds_the_deadlock_self_loop_free_states() {
        // In figure1 (deadlock-free, strongly connected behaviour),
        // EG(true) over the reached set is the whole reached set.
        let net = figure1();
        let mut ctx = dense_ctx(&net);
        let reached = ctx.reachable_markings().reached;
        let eg = ctx.eg(ctx.manager().one(), reached);
        assert_eq!(eg, reached);
    }

    #[test]
    fn until_operators_satisfy_the_classical_identities() {
        // The expansion laws, checked through the one-step `EX`/`AX`
        // rather than the chained sweep or the duality that compute EU,
        // AU and EG.
        for net in [figure1(), philosophers(2), dme(3, DmeStyle::Spec)] {
            let mut ctx = dense_ctx(&net);
            let reached = ctx.reachable_markings().reached;
            let n = net.num_places();
            let [p, q] = [0, n / 2].map(|i| {
                let chi = ctx.place_fn(PlaceId(i as u32));
                ctx.manager_mut().and(chi, reached)
            });
            let not_p = ctx.manager_mut().diff(reached, p);
            for hold in [reached, not_p] {
                // E[h U q] = q ∨ (h ∧ EX E[h U q]).
                let eu = ctx.eu(hold, q, reached);
                let ex_eu = ctx.ex(eu, reached);
                let step = ctx.manager_mut().and(hold, ex_eu);
                let unfolded = ctx.manager_mut().or(q, step);
                assert_eq!(eu, unfolded, "{}: EU expansion law", net.name());
                // A[h U q] = q ∨ (h ∧ AX A[h U q]).
                let au = ctx.au(hold, q, reached);
                let ax_au = ctx.ax(au, reached);
                let step = ctx.manager_mut().and(hold, ax_au);
                let unfolded = ctx.manager_mut().or(q, step);
                assert_eq!(au, unfolded, "{}: AU expansion law", net.name());
                // EG h = h ∧ EX EG h.
                let eg = ctx.eg(hold, reached);
                let ex_eg = ctx.ex(eg, reached);
                let unfolded = ctx.manager_mut().and(hold, ex_eg);
                assert_eq!(eg, unfolded, "{}: EG expansion law", net.name());
            }
        }
    }

    #[test]
    fn au_duality_holds_with_deadlocks() {
        // The dual AU against the explicit-state checker on philosophers(2):
        // philosopher 0 can eat forever while eating.1 never holds, which
        // only the `EG` branch of the duality catches, and the reachable
        // deadlocks satisfy `A[!eating.1 U eating.0]` vacuously.
        let net = philosophers(2);
        let rg = net.explore().unwrap();
        let checker = ExplicitChecker::new(&net, &rg);
        let mut ctx = dense_ctx(&net);
        let reached = ctx.reachable_markings().reached;
        let [idle0, eating0, eating1] = ["idle.0", "eating.0", "eating.1"].map(|name| {
            let chi = ctx.place_fn(net.place_by_name(name).unwrap());
            ctx.manager_mut().and(chi, reached)
        });
        let not_eating1 = ctx.manager_mut().diff(reached, eating1);
        for (hold, until, text) in [
            (reached, eating1, "A[true U eating.1]"),
            (idle0, eating1, "A[idle.0 U eating.1]"),
            (not_eating1, eating0, "A[!eating.1 U eating.0]"),
        ] {
            let au = ctx.au(hold, until, reached);
            let explicit = checker.sat(&Property::parse(text, &net).unwrap());
            for (i, m) in rg.markings().iter().enumerate() {
                assert_eq!(ctx.set_contains(au, m), explicit[i], "`{text}` at {m}");
            }
        }
        let dead = ctx.deadlocks_in(reached);
        assert_ne!(dead, ctx.manager().zero());
        let au = ctx.au(not_eating1, eating0, reached);
        assert_eq!(ctx.manager_mut().diff(dead, au), ctx.manager().zero());
    }

    #[test]
    fn ax_is_vacuous_at_deadlocks() {
        let net = philosophers(2);
        let mut ctx = dense_ctx(&net);
        let reached = ctx.reachable_markings().reached;
        let dead = ctx.deadlocks_in(reached);
        assert_ne!(dead, ctx.manager().zero());
        // AX false holds exactly at the deadlocked states.
        let ax_false = ctx.ax(ctx.manager().zero(), reached);
        assert_eq!(ax_false, dead);
        // EX true is its complement within the reached set.
        let ex_true = ctx.ex(reached, reached);
        let live = ctx.manager_mut().diff(reached, dead);
        assert_eq!(ex_true, live);
    }

    #[test]
    fn check_property_reports_witnesses_and_counterexamples() {
        let net = philosophers(2);
        let mut ctx = dense_ctx(&net);

        // Witness: the deadlock is reachable.
        let deadlock = Property::parse("EF !EX true", &net).unwrap();
        let report = ctx.check_property(&deadlock);
        assert!(report.holds);
        assert_eq!(report.trace_kind, Some(TraceKind::Witness));
        let trace = report.trace.expect("EF witness");
        assert!(trace.validate(&net));
        assert!(net.enabled_transitions(trace.witness()).is_empty());

        // Counterexample: "no one ever holds their left fork" is violated.
        let inv = Property::parse("AG !hasl.0", &net).unwrap();
        let report = ctx.check_property(&inv);
        assert!(!report.holds);
        assert_eq!(report.trace_kind, Some(TraceKind::Counterexample));
        let trace = report.trace.expect("AG counterexample");
        assert!(trace.validate(&net));
        assert!(trace
            .witness()
            .is_marked(net.place_by_name("hasl.0").unwrap()));

        // AF counterexample is a lasso avoiding the target.
        let fated = Property::parse("AF eating.0", &net).unwrap();
        let report = ctx.check_property(&fated);
        assert!(!report.holds);
        let trace = report.trace.expect("AF counterexample");
        assert!(trace.validate(&net));
        assert!(trace.is_lasso().is_some(), "AF counterexample is a lasso");
        let eating0 = net.place_by_name("eating.0").unwrap();
        assert!(trace.markings.iter().all(|m| !m.is_marked(eating0)));

        // EG witness: an infinite run (philosopher 1 eating forever) on
        // which philosopher 0 never eats.
        let spin = Property::parse("EG !eating.0", &net).unwrap();
        let report = ctx.check_property(&spin);
        assert!(report.holds);
        let trace = report.trace.expect("EG witness");
        assert!(trace.validate(&net));
        assert!(trace.is_lasso().is_some());
        assert!(trace.markings.iter().all(|m| !m.is_marked(eating0)));
    }

    #[test]
    fn check_property_eu_and_au_traces() {
        let net = philosophers(2);
        let mut ctx = dense_ctx(&net);

        // EU witness stays in the hold set until the target.
        let prop = Property::parse("E[!eating.1 U eating.0]", &net).unwrap();
        let report = ctx.check_property(&prop);
        assert!(report.holds);
        let trace = report.trace.expect("EU witness");
        assert!(trace.validate(&net));
        let eating0 = net.place_by_name("eating.0").unwrap();
        let eating1 = net.place_by_name("eating.1").unwrap();
        assert!(trace.witness().is_marked(eating0));
        for m in &trace.markings[..trace.markings.len() - 1] {
            assert!(!m.is_marked(eating1));
        }

        // AU fails: a path can avoid eating.0 forever (the deadlock); the
        // counterexample is a ¬eating.0 trace.
        let prop = Property::parse("A[true U eating.0]", &net).unwrap();
        let report = ctx.check_property(&prop);
        assert!(!report.holds);
        let trace = report.trace.expect("AU counterexample");
        assert!(trace.validate(&net));
        assert!(trace.markings.iter().all(|m| !m.is_marked(eating0)));
    }

    #[test]
    fn trace_extraction_keeps_protections_balanced_across_queries() {
        // After the first query the context's reached set is memoized, so
        // a `check_property` call adds no protection at all. Anything it
        // leaves behind is a leak in the witness/counterexample machinery
        // (ring search, one-step evidence or lasso walk).
        let net = philosophers(2);
        let mut ctx = dense_ctx(&net);
        // Warm the image plan and the reached set so their one-time
        // protections do not show up in the per-query delta.
        let _ = ctx.check_property(&Property::parse("EF true", &net).unwrap());
        for text in [
            "EF !EX true",             // ring-search witness
            "AG !hasl.0",              // ring-search counterexample
            "AF eating.0",             // lasso counterexample
            "EG !eating.0",            // lasso witness
            "E[!eating.1 U eating.0]", // constrained-ring EU witness
            "A[true U eating.0]",      // AU counterexample (finite branch)
            "EX true",                 // one-step witness
            "AX !true",                // one-step counterexample
        ] {
            let prop = Property::parse(text, &net).unwrap();
            let before = ctx.manager().protected_root_count();
            let _ = ctx.check_property(&prop);
            assert_eq!(
                ctx.manager().protected_root_count(),
                before,
                "{text}: a query on a warm context leaves nothing protected"
            );
        }
        // The lasso extractor is individually balanced as well.
        let reached = ctx.reachable_markings().reached;
        let eating0 = ctx.place_fn(net.place_by_name("eating.0").unwrap());
        let avoid = ctx.manager_mut().diff(reached, eating0);
        let eg = ctx.eg(avoid, reached);
        let lasso =
            crate::trace::assert_protections_balanced(&mut ctx, |ctx| ctx.lasso_from_initial(eg));
        let lasso = lasso.expect("EG !eating.0 holds initially");
        assert!(lasso.is_lasso().is_some());
    }

    #[test]
    fn consecutive_queries_on_one_context_traverse_once() {
        // The first query computes and memoizes the reached set; every
        // later `check_property_with` or `check_reachable`, under any
        // strategy, reads it: no image work and no new protection.
        let net = philosophers(3);
        let mut ctx = dense_ctx(&net);
        let both = Property::parse("eating.0 & eating.1", &net).unwrap();
        let bfs = TraversalOptions::with_strategy(FixpointStrategy::Bfs { use_frontier: true });
        let first = ctx.check_property_with(&both, bfs);
        let image_work = |ctx: &SymbolicContext| ctx.stats().op_and_exists.lookups();
        let lookups = image_work(&ctx);
        let roots = ctx.manager().protected_root_count();
        assert!(lookups > 0, "the first query traverses");
        for options in [bfs, TraversalOptions::default()] {
            let again = ctx.check_property_with(&both, options);
            assert_eq!(again.reached_markings, first.reached_markings);
            assert!(!ctx.check_reachable(&both));
            assert_eq!(
                image_work(&ctx),
                lookups,
                "no image work after the first query"
            );
            assert_eq!(ctx.manager().protected_root_count(), roots);
        }
    }

    #[test]
    fn truncated_reachability_is_surfaced_on_the_report() {
        // Regression: a traversal capped by `max_iterations` explores only
        // a prefix of the state space, so a verdict over it is not
        // definitive. The report used to drop that flag on the floor and
        // present the prefix verdict as final.
        let net = philosophers(2);
        let mut ctx = dense_ctx(&net);
        let prop = Property::parse("AG !hasl.0", &net).unwrap();
        let options = TraversalOptions {
            max_iterations: Some(1),
            ..TraversalOptions::default()
        };
        let capped = ctx.check_property_with(&prop, options);
        assert_eq!(
            capped.truncated,
            Some(TruncationReason::Iterations),
            "a capped traversal must flag its verdict as non-definitive"
        );
        let full = ctx.check_property(&prop);
        assert!(full.truncated.is_none());
        assert!(!full.holds);
        assert!(
            capped.reached_markings < full.reached_markings,
            "the capped run really did truncate the state space"
        );
    }

    #[test]
    fn a_truncated_run_keeps_ef_and_ag_on_the_chained_fixpoint() {
        // Two saturation sweeps of the sparse slot-3 reach 6 markings, a
        // set that is not closed under successors. Over it the saturated
        // `EF !free.1` finds 4 of them and the chained
        // `E[within U !free.1]` all 6: skipping clean transitions is unsound
        // there, so the public `EF` over a set other than the memoized
        // reached set, and a portfolio over a truncated run, must chain.
        // The set holds reachable markings only, so the portfolio's `EG`
        // still prunes.
        let net = slotted_ring(3);
        let mut ctx = SymbolicContext::new(&net, Encoding::sparse(&net));
        let capped = TraversalOptions {
            max_iterations: Some(2),
            ..TraversalOptions::default()
        };
        let run = ctx.reachable_markings_with(capped);
        assert_eq!(run.truncated, Some(TruncationReason::Iterations));
        let within = run.reached;
        let free1 = ctx.place_fn(net.place_by_name("free.1").unwrap());
        let not_free1 = ctx.manager_mut().diff(within, free1);
        let chained = ctx.eu(within, not_free1, within);
        let saturated = ctx.try_saturated_ef(not_free1, within).unwrap();
        assert_eq!(ctx.ef(not_free1, within), chained);
        assert_eq!(
            (ctx.count_markings(saturated), ctx.count_markings(chained)),
            (4.0, 6.0)
        );
        let chained_ag = ctx.manager_mut().diff(within, chained);
        let avoid = bfs_eg(&mut ctx, not_free1, within);
        let af = ctx.manager_mut().diff(within, avoid);

        let props: Vec<Property> = ["EF !free.1", "AG free.1", "AF free.1"]
            .iter()
            .map(|t| Property::parse(t, &net).unwrap())
            .collect();
        let portfolio = ctx.check_portfolio_on(&props, &run, TraversalOptions::default());
        let counts: Vec<f64> = portfolio.reports.iter().map(|r| r.sat_markings).collect();
        assert_eq!(
            counts,
            [chained, chained_ag, af].map(|set| ctx.count_markings(set))
        );
        for report in &portfolio.reports {
            assert_eq!(report.truncated, Some(TruncationReason::Iterations));
        }
    }

    #[test]
    fn a_budget_interrupts_the_saturated_ef_and_releases_its_protections() {
        let net = philosophers(4);
        let mut ctx = dense_ctx(&net);
        let reached = memoized(&mut ctx);
        let dead = ctx.deadlocks_in(reached);
        // Interrupted by the step ceiling partway through the sweeps (on a
        // cold computed cache: a step is a cache miss), and at the first
        // forced checkpoint by an expired deadline.
        for (budget, reason) in [
            (
                Budget::new().with_step_ceiling(500),
                TruncationReason::StepBudget,
            ),
            (
                Budget::new().with_deadline(Duration::ZERO),
                TruncationReason::Deadline,
            ),
        ] {
            let interrupted = crate::trace::assert_protections_balanced(&mut ctx, |ctx| {
                ctx.manager_mut().install_budget(budget);
                let ef = ctx.try_ef(dead, reached);
                let _ = ctx.manager_mut().take_budget();
                ef
            });
            assert_eq!(interrupted, Err(Interrupt::new(reason)));
        }
        // Completed: the result is returned unprotected, like every
        // governed CTL operator's.
        let ef =
            crate::trace::assert_protections_balanced(&mut ctx, |ctx| ctx.try_ef(dead, reached));
        assert_eq!(ef, Ok(ctx.eu(reached, dead, reached)));
    }

    #[test]
    fn a_budget_governs_ctl_evaluation_as_well_as_the_traversal() {
        // phil-4's traversal takes about 2,200 governed steps and the
        // saturated `AG EF` fixpoint over its reached set about 7,400, so a
        // 5,000-step budget admits the first and trips inside the second.
        let net = philosophers(4);
        let prop = Property::parse("AG EF eating.0", &net).unwrap();
        let options = TraversalOptions {
            step_budget: Some(5_000),
            ..TraversalOptions::default()
        };
        let run = dense_ctx(&net).reachable_markings_with(options);
        assert!(run.truncated.is_none(), "the traversal fits the budget");

        let mut ctx = dense_ctx(&net);
        let governed = ctx.check_property_with(&prop, options);
        assert_eq!(governed.truncated, Some(TruncationReason::StepBudget));
        assert!(governed.trace.is_none());
        // The budget is disarmed on return.
        let full = ctx.check_property(&prop);
        assert!(full.truncated.is_none());
        assert!(
            !full.holds,
            "the reachable deadlock never lets eating.0 recur"
        );
    }

    #[test]
    fn portfolio_pass_caches_shared_subterms() {
        // Regression for the portfolio-of-check_property pattern: the
        // mutual-exclusion core `eating.0 & eating.1` appears under both an
        // `AG !(...)` invariant and an `EF (...)` reachability query, and
        // used to be recomputed from scratch by every call. The portfolio
        // pass must answer the shared subterms (the conjunction and its two
        // place leaves) from the cache.
        let net = philosophers(2);
        let mut ctx = dense_ctx(&net);
        let texts = [
            "AG !(eating.0 & eating.1)",
            "EF (eating.0 & eating.1)",
            "AG !(eating.0 & eating.1)",
        ];
        let props: Vec<Property> = texts
            .iter()
            .map(|t| Property::parse(t, &net).unwrap())
            .collect();
        let portfolio = ctx.check_portfolio(&props);
        assert_eq!(portfolio.reports.len(), 3);
        // A hit short-circuits the whole shared subtree: the first formula
        // walks all 5 of its nodes cold, the second hits on the shared
        // conjunction (1 hit, and its place leaves are never re-visited),
        // and the third hits on its root.
        assert_eq!(
            (portfolio.subterm_hits, portfolio.subterm_lookups),
            (2, 8),
            "shared subterms must be answered from the cache"
        );

        // Verdicts, counts and traces are bit-identical to the uncached
        // per-property path.
        for (text, report) in texts.iter().zip(&portfolio.reports) {
            let prop = Property::parse(text, &net).unwrap();
            let direct = ctx.check_property(&prop);
            assert_eq!(report.holds, direct.holds, "{text}");
            assert_eq!(report.sat_markings, direct.sat_markings, "{text}");
            assert_eq!(report.reached_markings, direct.reached_markings, "{text}");
            assert_eq!(report.trace_kind, direct.trace_kind, "{text}");
            assert_eq!(
                report.trace.as_ref().map(|t| t.len()),
                direct.trace.as_ref().map(|t| t.len()),
                "{text}"
            );
            if let Some(trace) = &report.trace {
                assert!(trace.validate(&net), "{text}");
            }
        }
    }

    #[test]
    fn portfolio_pass_keeps_protections_balanced() {
        let net = philosophers(2);
        let mut ctx = dense_ctx(&net);
        let props: Vec<Property> = [
            "AG !(eating.0 & eating.1)",
            "EF !EX true",
            "A[true U eating.0]",
        ]
        .iter()
        .map(|t| Property::parse(t, &net).unwrap())
        .collect();
        // Warm the plan so its one-time protections don't show up.
        let _ = ctx.image_plan();
        // A cold portfolio pass protects exactly the memoized reached set,
        // and a second pass over the memo protects nothing.
        let before = ctx.manager().protected_root_count();
        let _ = ctx.check_portfolio(&props);
        assert_eq!(ctx.manager().protected_root_count(), before + 1);
        let _ = ctx.check_portfolio(&props);
        assert_eq!(ctx.manager().protected_root_count(), before + 1);
        // A warm pass over an existing reachability result protects nothing.
        let run = ctx.reachable_markings();
        let before = ctx.manager().protected_root_count();
        let _ = ctx.check_portfolio_on(&props, &run, TraversalOptions::default());
        assert_eq!(
            ctx.manager().protected_root_count(),
            before,
            "the subterm cache must drain its protections"
        );
    }

    #[test]
    fn governed_portfolio_degrades_to_typed_verdicts() {
        let net = philosophers(2);
        let mut ctx = dense_ctx(&net);
        let _ = ctx.image_plan();
        let roots = ctx.manager().protected_root_count();
        let props: Vec<Property> = ["EF eating.0", "AG !(eating.0 & eating.1)"]
            .iter()
            .map(|t| Property::parse(t, &net).unwrap())
            .collect();
        let governed = TraversalOptions {
            time_budget: Some(Duration::ZERO), // already expired: trips at once
            ..TraversalOptions::default()
        };
        let portfolio = ctx.check_portfolio_with(&props, governed);
        for report in &portfolio.reports {
            assert_eq!(
                report.truncated,
                Some(TruncationReason::Deadline),
                "an expired budget degrades every verdict to a typed reason"
            );
        }
        assert_eq!(
            ctx.manager().protected_root_count(),
            roots,
            "the truncated reached set is released, not memoized"
        );
        // The budget is disarmed on return: the same context completes an
        // ungoverned pass with definitive verdicts.
        let full = ctx.check_portfolio(&props);
        assert!(full.reports.iter().all(|r| r.truncated.is_none()));
        assert!(full.reports[0].holds);
        assert!(full.reports[1].holds);
    }
}
