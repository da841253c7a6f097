//! The [`SymbolicContext`]: a Petri net, an [`Encoding`] and a BDD manager
//! wired together — characteristic functions of places (Section 5.1),
//! enabling functions (Section 5.3) and the encoded initial marking.
//!
//! There is one vocabulary: state variable `i` of the encoding is BDD
//! variable `i` ([`SymbolicContext::state_var`]). Every transition drives
//! the variables it writes to constants (eq. 6), so images and pre-images
//! run over these variables alone and no next-state copy is allocated.

use crate::encoding::{Block, Encoding};
use crate::image::{compute_transition_effect, TransitionEffect};
use crate::plan::ImagePlan;
use crate::traverse::{PassObserver, ReachabilityResult, TraversalOptions};
use pnsym_bdd::{BddManager, ManagerStats, Ref, VarId};
use pnsym_net::{Marking, PetriNet, PlaceId, TransitionId};
use std::rc::Rc;

/// A symbolic analysis context for one net and one encoding.
///
/// The context owns the [`BddManager`]; every BDD it hands out lives in that
/// manager. The characteristic functions, enabling functions and the initial
/// set are protected from garbage collection for the lifetime of the
/// context.
///
/// The context also owns its one complete reached set
/// ([`SymbolicContext::reached_set`]): the set depends only on the net and
/// the encoding, not on the traversal strategy, so it is computed once and
/// every query of the context reads it.
///
/// # Examples
///
/// ```
/// use pnsym_core::{Encoding, SymbolicContext};
/// use pnsym_net::nets::figure1;
///
/// let net = figure1();
/// let mut ctx = SymbolicContext::new(&net, Encoding::sparse(&net));
/// let init = ctx.initial_set();
/// assert_eq!(ctx.count_markings(init), 1.0);
/// ```
pub struct SymbolicContext {
    net: PetriNet,
    encoding: Encoding,
    manager: BddManager,
    chi: Vec<Ref>,
    enabling: Vec<Ref>,
    initial: Ref,
    /// The precomputed image plan, built lazily on first image or
    /// pre-image computation.
    plan: Option<Rc<ImagePlan>>,
    /// The complete reached set, holding one protection; written only by
    /// [`SymbolicContext::adopt_reached`].
    reached: Option<ReachabilityResult>,
}

impl std::fmt::Debug for SymbolicContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SymbolicContext")
            .field("net", &self.net.name())
            .field("scheme", &self.encoding.scheme())
            .field("state_vars", &self.encoding.num_vars())
            .finish()
    }
}

impl SymbolicContext {
    /// Builds the context: allocates one BDD variable per state variable,
    /// the characteristic function of every place, the enabling function of
    /// every transition, and the encoded initial marking.
    ///
    /// # Panics
    ///
    /// Panics if `encoding` was built for a different net (mismatched place
    /// or transition counts).
    pub fn new(net: &PetriNet, encoding: Encoding) -> Self {
        let mut manager = BddManager::with_vars(encoding.num_vars());

        // Characteristic functions, built owner-first so that the recursive
        // exclusions of eq. (4) only reference already-built functions.
        let mut chi: Vec<Option<Ref>> = vec![None; net.num_places()];
        for p in net.places() {
            build_chi(&mut manager, &encoding, p, &mut chi);
        }
        let chi: Vec<Ref> = chi.into_iter().map(|c| c.expect("chi built")).collect();
        for &c in &chi {
            manager.protect(c);
        }

        // Enabling functions E_t = AND of [p] over the pre-set (eq. 5).
        let mut enabling = Vec::with_capacity(net.num_transitions());
        for t in net.transitions() {
            let lits: Vec<Ref> = net.pre_set(t).iter().map(|&p| chi[p.index()]).collect();
            let e = manager.and_many(&lits);
            manager.protect(e);
            enabling.push(e);
        }

        // Encoded initial marking.
        let initial = marking_cube(&mut manager, &encoding, net.initial_marking());
        manager.protect(initial);

        SymbolicContext {
            net: net.clone(),
            encoding,
            manager,
            chi,
            enabling,
            initial,
            plan: None,
            reached: None,
        }
    }

    /// The constant effect of `t` on the state variables (eq. 6).
    pub fn transition_effect(&self, t: TransitionId) -> TransitionEffect {
        compute_transition_effect(&self.net, &self.encoding, t)
    }

    /// The precomputed [`ImagePlan`] of this context, built on first use.
    ///
    /// The plan's BDDs (enabling functions and target cubes) are protected
    /// in the manager, so the plan stays valid across garbage collection
    /// and reordering for the context's lifetime. The returned handle is
    /// cheap to clone and does not borrow the context.
    pub fn image_plan(&mut self) -> Rc<ImagePlan> {
        if self.plan.is_none() {
            let plan = ImagePlan::build(self);
            self.plan = Some(Rc::new(plan));
        }
        Rc::clone(self.plan.as_ref().expect("plan just built"))
    }

    /// The plan of the backward image: the same [`Rc`] as
    /// [`SymbolicContext::image_plan`], whose enabling functions and target
    /// cubes the pre-image reads too. Kept for source compatibility.
    pub fn pre_image_plan(&mut self) -> Rc<ImagePlan> {
        self.image_plan()
    }

    /// The complete reached set of this context, computed once.
    ///
    /// Returns the memoized result when there is one, whatever strategy
    /// `options` names: every strategy computes the same set. Otherwise it
    /// runs [`reachable_markings_observed`](Self::reachable_markings_observed)
    /// with `options`, `seed` and `observer` and memoizes the result if the
    /// run completed. A truncated result is not memoized; its set carries a
    /// protection of its own, which the caller releases once done with it.
    pub fn reached_set(
        &mut self,
        options: TraversalOptions,
        seed: Option<Ref>,
        observer: Option<&mut PassObserver<'_>>,
    ) -> ReachabilityResult {
        if let Some(run) = self.reached {
            return run;
        }
        let run = self.reachable_markings_observed(options, seed, observer);
        self.adopt_reached(run);
        run
    }

    /// The memoized complete reached set, if one was computed or adopted.
    pub fn memoized_reached(&self) -> Option<ReachabilityResult> {
        self.reached
    }

    /// Hands `run`, whose set carries one protection, to the memo. A
    /// truncated run is ignored and keeps its protection. When the memo
    /// is already filled, the run's protection is released instead: a
    /// complete run of this context always reaches the memoized `Ref`.
    pub(crate) fn adopt_reached(&mut self, run: ReachabilityResult) {
        if run.truncated.is_some() {
            return;
        }
        match self.reached {
            Some(memo) => {
                debug_assert_eq!(memo.reached, run.reached, "a second complete reached set");
                self.manager.unprotect(run.reached);
            }
            None => self.reached = Some(run),
        }
    }

    /// The analysed net.
    pub fn net(&self) -> &PetriNet {
        &self.net
    }

    /// The encoding in use.
    pub fn encoding(&self) -> &Encoding {
        &self.encoding
    }

    /// Shared access to the underlying BDD manager.
    pub fn manager(&self) -> &BddManager {
        &self.manager
    }

    /// Mutable access to the underlying BDD manager (for counting, DOT
    /// export or custom operations on the sets produced by this context).
    pub fn manager_mut(&mut self) -> &mut BddManager {
        &mut self.manager
    }

    /// Statistics snapshot of the underlying BDD manager (node counts,
    /// unique-table load, computed-cache hit rates, GC activity).
    pub fn stats(&self) -> ManagerStats {
        self.manager.stats()
    }

    /// The BDD variable of state variable `i`: by construction, `VarId(i)`.
    /// The inverse is [`VarId::index`].
    pub fn state_var(i: usize) -> VarId {
        VarId(i as u32)
    }

    /// The characteristic function `[p]` of place `p`: the set of encoded
    /// markings in which `p` holds a token (Section 5.1, eq. 4).
    pub fn place_fn(&self, p: PlaceId) -> Ref {
        self.chi[p.index()]
    }

    /// The enabling function `E_t` of transition `t` (eq. 5).
    pub fn enabling_fn(&self, t: TransitionId) -> Ref {
        self.enabling[t.index()]
    }

    /// The encoded initial marking as a singleton set.
    pub fn initial_set(&self) -> Ref {
        self.initial
    }

    /// Encodes a single marking as a one-element set.
    pub fn marking_to_bdd(&mut self, m: &Marking) -> Ref {
        marking_cube(&mut self.manager, &self.encoding, m)
    }

    /// Whether the encoded marking `m` belongs to the set `set`.
    pub fn set_contains(&self, set: Ref, m: &Marking) -> bool {
        let bits = self.encoding.encode_marking(m);
        self.manager.eval(set, |v| bits[v.index()])
    }

    /// Number of markings in a set of encoded markings. Because the
    /// encoding is injective this equals the BDD satisfying-assignment
    /// count over the state variables, which is approximate past
    /// 53 variables (see [`BddManager::sat_count`]).
    pub fn count_markings(&self, set: Ref) -> f64 {
        self.manager.sat_count(set, self.encoding.num_vars())
    }

    /// Number of BDD nodes of `set`.
    pub fn bdd_size(&self, set: Ref) -> usize {
        self.manager.node_count(set)
    }

    /// The set of encoded markings in which at least one transition is
    /// enabled; its complement within the reached set are the deadlocks.
    pub fn any_enabled(&mut self) -> Ref {
        let enab = self.enabling.clone();
        self.manager.or_many(&enab)
    }

    /// The deadlocked markings within `set`.
    pub fn deadlocks_in(&mut self, set: Ref) -> Ref {
        let any = self.any_enabled();
        self.manager.diff(set, any)
    }
}

/// The encoding of marking `m` as a one-element set.
fn marking_cube(manager: &mut BddManager, encoding: &Encoding, m: &Marking) -> Ref {
    let bits = encoding.encode_marking(m);
    let lits: Vec<(VarId, bool)> = bits
        .iter()
        .enumerate()
        .map(|(i, &b)| (SymbolicContext::state_var(i), b))
        .collect();
    manager.cube(&lits)
}

/// Builds `[p]` recursively, memoising into `out`.
fn build_chi(
    manager: &mut BddManager,
    encoding: &Encoding,
    p: PlaceId,
    out: &mut Vec<Option<Ref>>,
) -> Ref {
    if let Some(r) = out[p.index()] {
        return r;
    }
    let owner = encoding.owner_of_place(p);
    let result = match &encoding.blocks()[owner] {
        Block::Place { var, .. } => manager.var(SymbolicContext::state_var(*var)),
        Block::Smc {
            places,
            codes,
            vars,
            ..
        } => {
            let j = places.iter().position(|&q| q == p).expect("owner lists p");
            let code = codes[j];
            // First factor: the block's variables spell p's code.
            let lits: Vec<(VarId, bool)> = vars
                .iter()
                .enumerate()
                .map(|(b, &v)| (SymbolicContext::state_var(v), code & (1 << b) != 0))
                .collect();
            let mut acc = manager.cube(&lits);
            // Second factor: no place sharing the code is marked according
            // to its own (earlier) owner block.
            let sharing: Vec<PlaceId> = places
                .iter()
                .enumerate()
                .filter(|&(k, &q)| {
                    q != p && codes[k] == code && encoding.owner_of_place(q) != owner
                })
                .map(|(_, &q)| q)
                .collect();
            for q in sharing {
                let chi_q = build_chi(manager, encoding, q, out);
                let not_q = manager.not(chi_q);
                acc = manager.and(acc, not_q);
            }
            acc
        }
    };
    out[p.index()] = Some(result);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::AssignmentStrategy;
    use pnsym_net::nets::{figure1, philosophers};
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
    fn characteristic_functions_agree_with_markings() {
        for net in [figure1(), philosophers(2)] {
            let rg = net.explore().unwrap();
            for mut ctx in contexts(&net) {
                for m in rg.markings() {
                    let cube = ctx.marking_to_bdd(m);
                    for p in net.places() {
                        let chi = ctx.place_fn(p);
                        let inter = ctx.manager_mut().and(cube, chi);
                        let marked = inter != ctx.manager().zero();
                        assert_eq!(
                            marked,
                            m.is_marked(p),
                            "[{}] on {} under {:?}",
                            net.place_name(p),
                            m,
                            ctx.encoding().scheme()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn table2_characteristic_functions_shape() {
        // For the improved encoding of the 2-philosopher net, places owned
        // by overlap blocks must exclude their code-sharing partners
        // (cf. Table 2: [p3] = x5'·(x1 + x2)).
        let net = philosophers(2);
        let smcs = find_smcs(&net).unwrap();
        let enc = Encoding::improved(&net, &smcs, AssignmentStrategy::Gray);
        let ctx = SymbolicContext::new(&net, enc);
        for p in net.places() {
            let chi = ctx.place_fn(p);
            let support = ctx.manager().support(chi);
            assert!(!support.is_empty(), "[{}] is constant", net.place_name(p));
        }
    }

    #[test]
    fn enabling_functions_match_explicit_enabledness() {
        let net = figure1();
        let rg = net.explore().unwrap();
        for mut ctx in contexts(&net) {
            for m in rg.markings() {
                let cube = ctx.marking_to_bdd(m);
                for t in net.transitions() {
                    let e = ctx.enabling_fn(t);
                    let inter = ctx.manager_mut().and(cube, e);
                    assert_eq!(
                        inter != ctx.manager().zero(),
                        net.is_enabled(m, t),
                        "E_{} on {}",
                        net.transition_name(t),
                        m
                    );
                }
            }
        }
    }

    #[test]
    fn initial_set_is_the_initial_marking() {
        let net = figure1();
        for ctx in contexts(&net) {
            let init = ctx.initial_set();
            assert_eq!(ctx.count_markings(init), 1.0);
            let m0 = ctx.net().initial_marking().clone();
            assert!(ctx.set_contains(init, &m0));
        }
    }

    #[test]
    fn deadlock_free_net_has_empty_deadlock_set() {
        let net = figure1();
        for mut ctx in contexts(&net) {
            // The full potential space may contain deadlock codes, but the
            // initial marking itself always enables something here.
            let init = ctx.initial_set();
            let dead = ctx.deadlocks_in(init);
            assert_eq!(dead, ctx.manager().zero());
        }
    }

    #[test]
    fn variable_count_matches_encoding() {
        let net = philosophers(2);
        for ctx in &contexts(&net) {
            assert_eq!(
                ctx.manager().num_vars(),
                ctx.encoding().num_vars(),
                "state variable i is BDD variable i"
            );
        }
    }
}
