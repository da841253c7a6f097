//! Symbolic CTL model checking on top of the encodings (Section 5 of the
//! paper): pre-image computation through the precomputed
//! [`PreImagePlan`](crate::preplan::PreImagePlan), the full set of CTL
//! fixpoint operators (`EX EF EG AX AF AG EU AU`), and the
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
use crate::property::Property;
use crate::trace::WitnessTrace;
use crate::traverse::{ReachabilityResult, TraversalOptions};
use pnsym_bdd::{Interrupt, Ref, TruncationReason};
use pnsym_net::TransitionId;
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

/// The shared-subterm cache of one portfolio pass: satisfaction sets keyed
/// by the (hashable) property subterm, valid for a single `within` set.
/// Every cached set is protected until the pass drains the cache.
#[derive(Default)]
struct SubtermCache {
    map: HashMap<Property, Ref>,
    hits: u64,
    lookups: u64,
}

/// Panic message of the infallible CTL wrappers when a budget trips under
/// them: governed callers must go through the `try_*` variants.
const GOVERNED_CTL: &str =
    "budget breached inside an infallible CTL fixpoint; governed callers must use the try_* variants";

impl SymbolicContext {
    /// Translates a [`Property`] into the BDD of its satisfying markings.
    ///
    /// Purely boolean formulas are translated over the whole encoded space
    /// (no reachability fixpoint is run); temporal formulas are evaluated
    /// over the reachable state space, i.e. this is
    /// [`SymbolicContext::sat_set`] with the reached set as the model.
    pub fn property_set(&mut self, property: &Property) -> Ref {
        if property.is_boolean() {
            return self.boolean_set(property);
        }
        let reached = self.reachable_markings().reached;
        self.sat_set(property, reached)
    }

    /// Translates a boolean (non-temporal) formula over the whole encoded
    /// space. Temporal subformulas panic; callers dispatch on
    /// [`Property::is_boolean`] first.
    fn boolean_set(&mut self, property: &Property) -> Ref {
        match property {
            Property::Place(p) => self.place_fn(*p),
            Property::True => self.manager().one(),
            Property::False => self.manager().zero(),
            Property::Not(a) => {
                let fa = self.boolean_set(a);
                self.manager_mut().not(fa)
            }
            Property::And(a, b) => {
                let fa = self.boolean_set(a);
                let fb = self.boolean_set(b);
                self.manager_mut().and(fa, fb)
            }
            Property::Or(a, b) => {
                let fa = self.boolean_set(a);
                let fb = self.boolean_set(b);
                self.manager_mut().or(fa, fb)
            }
            _ => unreachable!("boolean_set is only called on boolean formulas"),
        }
    }

    /// The set of markings of `within` satisfying the CTL formula
    /// `property`, computed by bottom-up fixpoint evaluation.
    ///
    /// `within` is the model: the set the path quantifiers range over,
    /// typically the reached set of
    /// [`SymbolicContext::reachable_markings`]. It must be closed under
    /// successors for the universal operators to be meaningful (the
    /// reached set is). The result is always a subset of `within`.
    pub fn sat_set(&mut self, property: &Property, within: Ref) -> Ref {
        match property {
            Property::Place(p) => {
                let chi = self.place_fn(*p);
                self.manager_mut().and(chi, within)
            }
            Property::True => within,
            Property::False => self.manager().zero(),
            Property::Not(a) => {
                let fa = self.sat_set(a, within);
                self.manager_mut().diff(within, fa)
            }
            Property::And(a, b) => {
                let fa = self.sat_set(a, within);
                let fb = self.sat_set(b, within);
                self.manager_mut().and(fa, fb)
            }
            Property::Or(a, b) => {
                let fa = self.sat_set(a, within);
                let fb = self.sat_set(b, within);
                self.manager_mut().or(fa, fb)
            }
            Property::Ex(a) => {
                let fa = self.sat_set(a, within);
                self.ex(fa, within)
            }
            Property::Ef(a) => {
                let fa = self.sat_set(a, within);
                self.ef(fa, within)
            }
            Property::Eg(a) => {
                let fa = self.sat_set(a, within);
                self.eg(fa, within)
            }
            Property::Ax(a) => {
                let fa = self.sat_set(a, within);
                self.ax(fa, within)
            }
            Property::Af(a) => {
                let fa = self.sat_set(a, within);
                self.af(fa, within)
            }
            Property::Ag(a) => {
                let fa = self.sat_set(a, within);
                self.ag(fa, within)
            }
            Property::Eu(a, b) => {
                let fa = self.sat_set(a, within);
                let fb = self.sat_set(b, within);
                self.eu(fa, fb, within)
            }
            Property::Au(a, b) => {
                let fa = self.sat_set(a, within);
                let fb = self.sat_set(b, within);
                self.au(fa, fb, within)
            }
        }
    }

    /// The pre-image of `target` under transition `t`: the markings that
    /// enable `t` and reach a marking of `target` by firing it.
    ///
    /// Uses the precomputed
    /// [`PreImagePlan`](crate::preplan::PreImagePlan): the enabling
    /// function, target cube and quantification cube of `t` are built once
    /// per context, not per call.
    pub fn pre_image(&mut self, target: Ref, t: TransitionId) -> Ref {
        let plan = self.pre_image_plan();
        let (cluster, planned) = plan.planned(t);
        let m = self.manager_mut();
        // target[W_t := T_t] = ∃W_t. (target ∧ T_t)
        let substituted = m.and_exists_cube(target, planned.target, cluster.quant_cube);
        if substituted == m.zero() {
            return substituted;
        }
        m.and(planned.enabling, substituted)
    }

    /// The pre-image of `target` under every transition of one pre-plan
    /// cluster: the shared quantification cube is walked once per member
    /// and the members' partial pre-images are OR-folded.
    pub fn cluster_pre_image(&mut self, cluster: usize, target: Ref) -> Ref {
        self.try_cluster_pre_image(cluster, target)
            .expect("budget breached inside an infallible pre-image; governed callers must use try_cluster_pre_image")
    }

    /// Governed [`SymbolicContext::cluster_pre_image`]: unwinds with a
    /// typed [`Interrupt`] when the installed budget trips.
    pub fn try_cluster_pre_image(&mut self, cluster: usize, target: Ref) -> Result<Ref, Interrupt> {
        let plan = self.pre_image_plan();
        let c = &plan.clusters()[cluster];
        let mut acc = self.manager().zero();
        for member in &c.members {
            let m = self.manager_mut();
            let substituted = m.try_and_exists_cube(target, member.target, c.quant_cube)?;
            if substituted == m.zero() {
                continue;
            }
            let pre = m.try_and(member.enabling, substituted)?;
            acc = m.try_or(acc, pre)?;
        }
        Ok(acc)
    }

    /// The pre-image of `target` under all transitions (one backward step),
    /// folded cluster by cluster in the plan's backward order.
    pub fn pre_image_all(&mut self, target: Ref) -> Ref {
        self.try_pre_image_all(target)
            .expect("budget breached inside an infallible pre-image; governed callers must use try_pre_image_all")
    }

    /// Governed [`SymbolicContext::pre_image_all`]: unwinds with a typed
    /// [`Interrupt`] when the installed budget trips.
    pub fn try_pre_image_all(&mut self, target: Ref) -> Result<Ref, Interrupt> {
        let plan = self.pre_image_plan();
        let mut acc = self.manager().zero();
        for &cluster in plan.backward_order() {
            let pre = self.try_cluster_pre_image(cluster, target)?;
            acc = self.manager_mut().try_or(acc, pre)?;
        }
        Ok(acc)
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

    /// Governed [`SymbolicContext::ef`]: the budget is additionally
    /// force-checked at every fixpoint iteration, so a tiny deadline
    /// truncates deterministically even on nets too small for the
    /// amortized in-recursion check to fire.
    pub fn try_ef(&mut self, target: Ref, within: Ref) -> Result<Ref, Interrupt> {
        let mut z = self.manager_mut().try_and(target, within)?;
        loop {
            self.manager_mut().force_checkpoint()?;
            let pre = self.try_pre_image_all(z)?;
            let step = self.manager_mut().try_and(pre, within)?;
            let next = self.manager_mut().try_or(z, step)?;
            if next == z {
                return Ok(z);
            }
            z = next;
        }
    }

    /// CTL `EG target` restricted to `within` (greatest fixpoint of
    /// `target ∧ EX Z`): states from which some infinite path stays in
    /// `target` forever. Deadlocked states drop out of the fixpoint, per
    /// the module's path semantics.
    pub fn eg(&mut self, target: Ref, within: Ref) -> Ref {
        self.try_eg(target, within).expect(GOVERNED_CTL)
    }

    /// Governed [`SymbolicContext::eg`] (see [`SymbolicContext::try_ef`]
    /// for the per-iteration checkpoint discipline).
    pub fn try_eg(&mut self, target: Ref, within: Ref) -> Result<Ref, Interrupt> {
        let mut z = self.manager_mut().try_and(target, within)?;
        loop {
            self.manager_mut().force_checkpoint()?;
            let pre = self.try_pre_image_all(z)?;
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

    /// Governed [`SymbolicContext::ag`].
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

    /// Governed [`SymbolicContext::af`].
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

    /// Governed [`SymbolicContext::eu`] (see [`SymbolicContext::try_ef`]
    /// for the per-iteration checkpoint discipline).
    pub fn try_eu(&mut self, hold: Ref, until: Ref, within: Ref) -> Result<Ref, Interrupt> {
        let hold_w = self.manager_mut().try_and(hold, within)?;
        let mut z = self.manager_mut().try_and(until, within)?;
        loop {
            self.manager_mut().force_checkpoint()?;
            let pre = self.try_pre_image_all(z)?;
            let step = self.manager_mut().try_and(hold_w, pre)?;
            let next = self.manager_mut().try_or(z, step)?;
            if next == z {
                return Ok(z);
            }
            z = next;
        }
    }

    /// CTL `A[hold U until]` restricted to `within` (least fixpoint of
    /// `until ∨ (hold ∧ AX Z)`): states all of whose paths satisfy `hold`
    /// until they reach `until`. Deadlocked `hold`-states satisfy it
    /// vacuously, per the module's path semantics; the classical duality
    /// `A[p U q] = ¬(E[¬q U ¬p∧¬q] ∨ EG ¬q)` is preserved (and pinned by
    /// the tests).
    pub fn au(&mut self, hold: Ref, until: Ref, within: Ref) -> Ref {
        self.try_au(hold, until, within).expect(GOVERNED_CTL)
    }

    /// Governed [`SymbolicContext::au`] (see [`SymbolicContext::try_ef`]
    /// for the per-iteration checkpoint discipline).
    pub fn try_au(&mut self, hold: Ref, until: Ref, within: Ref) -> Result<Ref, Interrupt> {
        let hold_w = self.manager_mut().try_and(hold, within)?;
        let until_w = self.manager_mut().try_and(until, within)?;
        let mut z = until_w;
        loop {
            self.manager_mut().force_checkpoint()?;
            let ax_z = self.try_ax(z, within)?;
            let step = self.manager_mut().try_and(hold_w, ax_z)?;
            let next = self.manager_mut().try_or(until_w, step)?;
            if next == z {
                return Ok(z);
            }
            z = next;
        }
    }

    /// Whether some reachable marking satisfies `property`
    /// (`EF property` from the initial marking).
    pub fn check_reachable(&mut self, property: &Property) -> bool {
        let reached = self.reachable_markings().reached;
        let sat = self.sat_set(property, reached);
        sat != self.manager().zero()
    }

    /// Whether every reachable marking satisfies `property`
    /// (`AG property` from the initial marking).
    pub fn check_invariant(&mut self, property: &Property) -> bool {
        let reached = self.reachable_markings().reached;
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

    /// [`SymbolicContext::check_property`] with explicit traversal options
    /// for the underlying reachability fixpoint (strategy, GC threshold,
    /// budgets).
    pub fn check_property_with(
        &mut self,
        property: &Property,
        options: TraversalOptions,
    ) -> CheckReport {
        let start = Instant::now();
        let run = self.reachable_markings_with(options);
        let reached = run.reached;
        let sat = self.sat_set(property, reached);
        let init = self.initial_set();
        let init_sat = self.manager_mut().and(init, sat);
        let holds = init_sat != self.manager().zero();
        let explained = self.explain(property, holds, sat, reached);
        let (trace, trace_kind) = match explained {
            Some((trace, kind)) => (Some(trace), Some(kind)),
            None => (None, None),
        };
        CheckReport {
            holds,
            sat_markings: self.count_markings(sat),
            reached_markings: self.count_markings(reached),
            trace,
            trace_kind,
            truncated: run.truncated,
            duration: start.elapsed(),
        }
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
    pub fn check_portfolio_with(
        &mut self,
        properties: &[Property],
        options: TraversalOptions,
    ) -> PortfolioReport {
        let run = self.reachable_markings_with(options);
        self.check_portfolio_on(properties, &run, options)
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
        let mut cache = SubtermCache::default();
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
                    let explained = self.explain(property, holds, sat, reached);
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
        for (_, set) in cache.map.drain() {
            self.manager_mut().unprotect(set);
        }
        let _ = self.manager_mut().take_budget();
        PortfolioReport {
            reports,
            subterm_hits: cache.hits,
            subterm_lookups: cache.lookups,
        }
    }

    /// Memoized, governed [`SymbolicContext::sat_set`]: the satisfaction
    /// set of every subterm is cached (and protected) in `cache` for the
    /// duration of one portfolio pass.
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
                self.try_ef(fa, within)?
            }
            Property::Eg(a) => {
                let fa = self.sat_set_memo(a, within, cache)?;
                self.try_eg(fa, within)?
            }
            Property::Ax(a) => {
                let fa = self.sat_set_memo(a, within, cache)?;
                self.try_ax(fa, within)?
            }
            Property::Af(a) => {
                let fa = self.sat_set_memo(a, within, cache)?;
                self.try_af(fa, within)?
            }
            Property::Ag(a) => {
                let fa = self.sat_set_memo(a, within, cache)?;
                self.try_ag(fa, within)?
            }
            Property::Eu(a, b) => {
                let fa = self.sat_set_memo(a, within, cache)?;
                let fb = self.sat_set_memo(b, within, cache)?;
                self.try_eu(fa, fb, within)?
            }
            Property::Au(a, b) => {
                let fa = self.sat_set_memo(a, within, cache)?;
                let fb = self.sat_set_memo(b, within, cache)?;
                self.try_au(fa, fb, within)?
            }
        };
        self.manager_mut().protect(result);
        cache.map.insert(property.clone(), result);
        Ok(result)
    }

    /// Extracts the trace of a [`CheckReport`], dispatching on the
    /// top-level operator and the verdict. `sat` is the already-computed
    /// satisfaction set of `property`, reused where the trace needs exactly
    /// that fixpoint (the `EG` core, or its complement for failed `AF`).
    fn explain(
        &mut self,
        property: &Property,
        holds: bool,
        sat: Ref,
        reached: Ref,
    ) -> Option<(WitnessTrace, TraceKind)> {
        let zero = self.manager().zero();
        match (holds, property) {
            (true, Property::Ef(a)) => {
                let target = self.sat_set(a, reached);
                Some((self.witness_trace(target)?, TraceKind::Witness))
            }
            (true, Property::Eu(a, b)) => {
                let hold = self.sat_set(a, reached);
                let until = self.sat_set(b, reached);
                Some((self.witness_trace_in(until, hold)?, TraceKind::Witness))
            }
            (true, Property::Ex(a)) => {
                let fa = self.sat_set(a, reached);
                Some((self.one_step_trace(fa)?, TraceKind::Witness))
            }
            (true, Property::Eg(_)) => {
                // `sat` is the EG core itself.
                Some((self.lasso_from_initial(sat)?, TraceKind::Witness))
            }
            (false, Property::Ag(a)) => {
                let fa = self.sat_set(a, reached);
                let bad = self.manager_mut().diff(reached, fa);
                Some((self.witness_trace(bad)?, TraceKind::Counterexample))
            }
            (false, Property::Ax(a)) => {
                let fa = self.sat_set(a, reached);
                let not_fa = self.manager_mut().diff(reached, fa);
                Some((self.one_step_trace(not_fa)?, TraceKind::Counterexample))
            }
            (false, Property::Af(_)) => {
                // AF φ = reached \ EG ¬φ, so the EG ¬φ core is the
                // complement of `sat`.
                let core = self.manager_mut().diff(reached, sat);
                Some((self.lasso_from_initial(core)?, TraceKind::Counterexample))
            }
            (false, Property::Au(a, b)) => {
                // ¬A[a U b] = E[¬b U ¬a∧¬b] ∨ EG ¬b: prefer the finite
                // branch (a ¬b-path into a state violating both), fall back
                // to a ¬b-lasso.
                let fa = self.sat_set(a, reached);
                let fb = self.sat_set(b, reached);
                let not_b = self.manager_mut().diff(reached, fb);
                let not_ab = self.manager_mut().diff(not_b, fa);
                let finite = self.eu(not_b, not_ab, reached);
                let init = self.initial_set();
                let init_in_finite = self.manager_mut().and(init, finite);
                if init_in_finite != zero {
                    Some((
                        self.witness_trace_in(not_ab, not_b)?,
                        TraceKind::Counterexample,
                    ))
                } else {
                    let core = self.eg(not_b, reached);
                    Some((self.lasso_from_initial(core)?, TraceKind::Counterexample))
                }
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::{AssignmentStrategy, Encoding};
    use pnsym_net::nets::{dme, figure1, philosophers, DmeStyle};
    use pnsym_net::{PetriNet, PlaceId};
    use pnsym_structural::find_smcs;

    fn dense_ctx(net: &PetriNet) -> SymbolicContext {
        let smcs = find_smcs(net).unwrap();
        SymbolicContext::new(
            net,
            Encoding::improved(net, &smcs, AssignmentStrategy::Gray),
        )
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
            // Cluster pre-images union to the same set.
            let plan = ctx.pre_image_plan();
            let mut by_cluster = ctx.manager().zero();
            for c in 0..plan.num_clusters() {
                let pre = ctx.cluster_pre_image(c, reached);
                by_cluster = ctx.manager_mut().or(by_cluster, pre);
            }
            assert_eq!(full, by_cluster);
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
        let reached = ctx.reachable_markings().reached;
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
        for net in [figure1(), philosophers(2), dme(3, DmeStyle::Spec)] {
            let mut ctx = dense_ctx(&net);
            let reached = ctx.reachable_markings().reached;
            let target = {
                let p = net.places().next().unwrap();
                let chi = ctx.place_fn(p);
                ctx.manager_mut().and(chi, reached)
            };
            let one = ctx.manager().one();
            // EF p = E[true U p] and AF p = A[true U p].
            let ef = ctx.ef(target, reached);
            let eu = ctx.eu(one, target, reached);
            assert_eq!(ef, eu, "{}: EF = E[true U .]", net.name());
            let af = ctx.af(target, reached);
            let au = ctx.au(one, target, reached);
            assert_eq!(af, au, "{}: AF = A[true U .]", net.name());
        }
    }

    #[test]
    fn au_duality_holds_with_deadlocks() {
        // A[p U q] = ¬(E[¬q U ¬p∧¬q] ∨ EG ¬q) must hold under the vacuous
        // deadlock convention; philosophers(2) has reachable deadlocks, so
        // this exercises the non-total relation case.
        let net = philosophers(2);
        let mut ctx = dense_ctx(&net);
        let reached = ctx.reachable_markings().reached;
        let p = {
            let chi = ctx.place_fn(net.place_by_name("idle.0").unwrap());
            ctx.manager_mut().and(chi, reached)
        };
        let q = {
            let chi = ctx.place_fn(net.place_by_name("eating.1").unwrap());
            ctx.manager_mut().and(chi, reached)
        };
        let au = ctx.au(p, q, reached);
        let not_q = ctx.manager_mut().diff(reached, q);
        let not_pq = ctx.manager_mut().diff(not_q, p);
        let finite = ctx.eu(not_q, not_pq, reached);
        let infinite = ctx.eg(not_q, reached);
        let bad = ctx.manager_mut().or(finite, infinite);
        let dual = ctx.manager_mut().diff(reached, bad);
        assert_eq!(au, dual);
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
        // `check_property` legitimately adds exactly one protection per
        // call: the freshly computed reached set, which stays valid for the
        // context's lifetime. Anything beyond that is a leak in the
        // witness/counterexample machinery (ring search, one-step evidence
        // or lasso walk).
        let net = philosophers(2);
        let mut ctx = dense_ctx(&net);
        // Warm the image and pre-image plans so their one-time artefact
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
                before + 1,
                "{text}: only the reached set may stay protected after a query"
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
        // Warm the plans so their one-time protections don't show up.
        let _ = ctx.check_property(&props[1]);
        // A cold portfolio pass protects exactly the fresh reached set.
        let before = ctx.manager().protected_root_count();
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
        // The budget is disarmed on return: the same context completes an
        // ungoverned pass with definitive verdicts.
        let full = ctx.check_portfolio(&props);
        assert!(full.reports.iter().all(|r| r.truncated.is_none()));
        assert!(full.reports[0].holds);
        assert!(full.reports[1].holds);
    }
}
