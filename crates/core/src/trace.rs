//! Witness-trace extraction: a concrete firing sequence from the initial
//! marking to a marking satisfying a target predicate.
//!
//! Each extraction runs its own breadth-first forward search from the
//! initial marking, independent of the reachability traversal (which
//! records no rings), and keeps its frontier "onion rings" until an image
//! meets the target; a witness is then rebuilt backwards, ring by ring, by
//! asking which transition can step from the previous ring into the
//! current prefix of the trace. That step, and every single-marking step
//! of the other modes, plays the token game instead of computing a BDD
//! image: in a safe net a marking has at most one successor and one
//! predecessor under a given transition, so trying the transitions in
//! index order and testing membership of that one marking gives the same
//! choice as intersecting a symbolic image with the set. The result is a
//! list of `(transition, marking)` pairs that the token game of
//! `pnsym-net` re-validates.
//!
//! Three extraction modes serve the CTL checker
//! ([`SymbolicContext::check_property`](crate::SymbolicContext::check_property)):
//!
//! * [`SymbolicContext::witness_trace`] — a shortest path into a target
//!   set (`EF` witnesses, `AG` counterexamples);
//! * [`SymbolicContext::witness_trace_in`] — the same, with every state
//!   before the target confined to a constraint set (`EU` witnesses, the
//!   finite branch of `AU` counterexamples);
//! * [`SymbolicContext::lasso_from_initial`] — a path that closes a cycle
//!   inside an `EG` core, demonstrating an infinite run (`EG` witnesses,
//!   `AF`/`AU` counterexamples).

use crate::context::SymbolicContext;
use pnsym_bdd::{Ref, VarId};
use pnsym_net::{Marking, PlaceId, TransitionId};
use std::collections::HashMap;

/// A firing sequence witnessing the reachability of some target marking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WitnessTrace {
    /// The markings along the trace, starting with the initial marking.
    pub markings: Vec<Marking>,
    /// The transitions fired between consecutive markings
    /// (`transitions.len() == markings.len() - 1`).
    pub transitions: Vec<TransitionId>,
}

impl WitnessTrace {
    /// Number of firings in the trace.
    pub fn len(&self) -> usize {
        self.transitions.len()
    }

    /// Whether the trace is empty (the initial marking already satisfies the
    /// target).
    pub fn is_empty(&self) -> bool {
        self.transitions.is_empty()
    }

    /// The final marking of the trace (the witness itself).
    ///
    /// # Panics
    ///
    /// Never panics: a trace always contains at least the initial marking.
    pub fn witness(&self) -> &Marking {
        self.markings
            .last()
            .expect("trace contains the initial marking")
    }

    /// If the trace closes a cycle — its final marking reappearing earlier
    /// in the trace — returns the index of the first occurrence (the start
    /// of the loop). Lasso-shaped traces demonstrate an *infinite* run:
    /// `EG` witnesses and `AF` counterexamples have this shape.
    pub fn is_lasso(&self) -> Option<usize> {
        let last = self.markings.last()?;
        if self.markings.len() < 2 {
            return None;
        }
        self.markings[..self.markings.len() - 1]
            .iter()
            .position(|m| m == last)
    }

    /// Validates the trace against the net's token game.
    pub fn validate(&self, net: &pnsym_net::PetriNet) -> bool {
        if self.markings.len() != self.transitions.len() + 1 {
            return false;
        }
        for (i, &t) in self.transitions.iter().enumerate() {
            match net.fire(&self.markings[i], t) {
                Ok(next) if next == self.markings[i + 1] => {}
                _ => return false,
            }
        }
        true
    }
}

impl SymbolicContext {
    /// Finds a shortest (in breadth-first steps) firing sequence from the
    /// initial marking to a marking in `target`, or `None` if `target` is
    /// unreachable.
    ///
    /// `target` is a set of encoded markings over the current variables,
    /// typically obtained from [`SymbolicContext::property_set`] or by
    /// combining [`SymbolicContext::place_fn`]s.
    pub fn witness_trace(&mut self, target: Ref) -> Option<WitnessTrace> {
        let everything = self.manager().one();
        self.witness_trace_in(target, everything)
    }

    /// Finds a shortest firing sequence from the initial marking to a
    /// marking in `target` whose every marking *before* the target lies in
    /// `within`, or `None` if no such sequence exists.
    ///
    /// This is the witness shape of `E[hold U until]`: pass the `hold` set
    /// as `within` and the `until` set as `target`. The final marking does
    /// not need to satisfy `within`; an initial marking already in `target`
    /// yields the empty trace.
    pub fn witness_trace_in(&mut self, target: Ref, within: Ref) -> Option<WitnessTrace> {
        let zero = self.manager().zero();
        let init = self.initial_set();
        if self.manager_mut().and(init, target) != zero {
            // The initial marking already satisfies the target.
            return Some(WitnessTrace {
                markings: vec![self.net().initial_marking().clone()],
                transitions: Vec::new(),
            });
        }
        if self.manager_mut().and(init, within) == zero {
            return None;
        }

        // Forward pass: rings of newly discovered `within`-states, until
        // the image of a ring hits the target.
        let mut rings: Vec<Ref> = vec![init];
        let mut reached = init;
        self.manager_mut().protect(reached);
        let hit;
        loop {
            let frontier = *rings.last().expect("at least the initial ring");
            let image = self.image_all(frontier);
            let in_target = self.manager_mut().and(image, target);
            if in_target != zero {
                hit = in_target;
                break;
            }
            let constrained = self.manager_mut().and(image, within);
            let new = self.manager_mut().diff(constrained, reached);
            if new == zero {
                // Release everything the forward pass protected — the ring
                // protections too, or each unreachable query would pin its
                // whole fixpoint in the manager for the context's lifetime.
                self.manager_mut().unprotect(reached);
                for &ring in rings.iter().skip(1) {
                    self.manager_mut().unprotect(ring);
                }
                return None;
            }
            let next_reached = self.manager_mut().or(reached, new);
            self.manager_mut().protect(next_reached);
            self.manager_mut().protect(new);
            self.manager_mut().unprotect(reached);
            reached = next_reached;
            rings.push(new);
        }

        // Pick one concrete target marking hit from the last ring.
        let mut current = self
            .pick_marking(hit)
            .expect("hit is non-empty, so a marking exists");
        let mut markings = vec![current.clone()];
        let mut transitions = Vec::new();

        // Backward pass: for each ring find a predecessor marking and the
        // transition that was fired; `current` starts one step beyond the
        // last ring.
        for &prev_ring in rings.iter().rev() {
            let (t, m) = self
                .predecessor_in(prev_ring, &current)
                .expect("every ring element has a predecessor in the previous ring");
            transitions.push(t);
            markings.push(m.clone());
            current = m;
        }

        // Clean up protections added during the forward pass.
        self.manager_mut().unprotect(reached);
        for &ring in rings.iter().skip(1) {
            self.manager_mut().unprotect(ring);
        }

        markings.reverse();
        transitions.reverse();
        Some(WitnessTrace {
            markings,
            transitions,
        })
    }

    /// A single-firing trace from the initial marking to a successor in
    /// `target`, or `None` if no enabled transition reaches one.
    ///
    /// This is the evidence shape of `EX` witnesses and `AX`
    /// counterexamples: always exactly one firing, even when the initial
    /// marking itself belongs to `target` (e.g. through a self-loop
    /// transition), where the general ring search would return an empty
    /// trace.
    pub fn one_step_trace(&mut self, target: Ref) -> Option<WitnessTrace> {
        let init = self.net().initial_marking().clone();
        let (t, m) = self.successor_in(target, &init)?;
        Some(WitnessTrace {
            markings: vec![init, m],
            transitions: vec![t],
        })
    }

    /// Extracts a lasso-shaped run from the initial marking through `set`:
    /// a concrete firing sequence staying in `set` whose final marking
    /// repeats an earlier one, demonstrating an infinite run.
    ///
    /// `set` is expected to be an `EG` core (a greatest fixpoint of
    /// [`SymbolicContext::eg`] containing the initial marking), where every
    /// state has a successor inside the set — the walk then always closes a
    /// cycle. Returns `None` if the initial marking is not in `set` or the
    /// walk falls out of it (a non-core input).
    pub fn lasso_from_initial(&mut self, set: Ref) -> Option<WitnessTrace> {
        let mut current = self.net().initial_marking().clone();
        if !self.set_contains(set, &current) {
            return None;
        }
        let mut markings = vec![current.clone()];
        let mut transitions = Vec::new();
        let mut seen: HashMap<Marking, usize> = HashMap::new();
        seen.insert(current.clone(), 0);
        // A cycle must close within |set| steps; the cap only guards
        // against astronomically large cores.
        const MAX_STEPS: usize = 100_000;
        for _ in 0..MAX_STEPS {
            let (t, next) = self.successor_in(set, &current)?;
            transitions.push(t);
            markings.push(next.clone());
            if seen.contains_key(&next) {
                return Some(WitnessTrace {
                    markings,
                    transitions,
                });
            }
            seen.insert(next.clone(), markings.len() - 1);
            current = next;
        }
        None
    }

    /// The first transition, in index order, whose firing leads from `m`
    /// into `set`, with the marking it leads to.
    fn successor_in(&self, set: Ref, m: &Marking) -> Option<(TransitionId, Marking)> {
        let net = self.net();
        net.transitions().find_map(|t| {
            let next = net.fire(m, t).ok()?;
            self.set_contains(set, &next).then_some((t, next))
        })
    }

    /// The first transition, in index order, that leads to `m` from a
    /// marking of `set`, with that marking. In a safe net the predecessor
    /// of `m` under `t` is unique: `(m \ t•) ∪ •t`, valid when firing `t`
    /// there gives `m` back.
    fn predecessor_in(&self, set: Ref, m: &Marking) -> Option<(TransitionId, Marking)> {
        let net = self.net();
        net.transitions().find_map(|t| {
            let mut prev = m.clone();
            for &p in net.post_set(t) {
                prev.set(p, false);
            }
            for &p in net.pre_set(t) {
                prev.set(p, true);
            }
            let fires_back = net.fire(&prev, t).is_ok_and(|next| next == *m);
            (fires_back && self.set_contains(set, &prev)).then_some((t, prev))
        })
    }

    /// Extracts one concrete marking from a non-empty set of encoded
    /// markings, or `None` if the set is empty.
    pub fn pick_marking(&mut self, set: Ref) -> Option<Marking> {
        if set == self.manager().zero() {
            return None;
        }
        // Pick a satisfying assignment and complete the unconstrained
        // variables with the recursive place evaluation of the encoding.
        let partial = self.manager().pick_one(set)?;
        let mut bits = vec![false; self.encoding().num_vars()];
        for (var, value) in partial {
            bits[var.index()] = value;
        }
        // A partial assignment may leave some variables free; the chosen
        // completion (false) is only valid if it decodes to a marking whose
        // re-encoding is in the set — fall back to enumerating assignments.
        let decode = |ctx: &SymbolicContext, bits: &[bool]| -> Option<Marking> {
            let places = ctx.encoding().decode_assignment(bits)?;
            let mut m = Marking::empty(ctx.net().num_places());
            for p in places {
                m.set(p, true);
            }
            Some(m)
        };
        if let Some(m) = decode(self, &bits) {
            if self.set_contains(set, &m) {
                return Some(m);
            }
        }
        let state_vars: Vec<VarId> = (0..bits.len()).map(SymbolicContext::state_var).collect();
        let assignments: Vec<Vec<bool>> = self
            .manager()
            .sat_assignments(set, &state_vars)
            .take(64)
            .collect();
        for bits in assignments {
            if let Some(m) = decode(self, &bits) {
                if self.set_contains(set, &m) {
                    return Some(m);
                }
            }
        }
        None
    }

    /// Convenience: the marked places of one marking in `set`, or `None` if
    /// the set is empty (useful for reporting counterexamples).
    pub fn pick_marked_places(&mut self, set: Ref) -> Option<Vec<PlaceId>> {
        self.pick_marking(set).map(|m| m.marked_places())
    }
}

/// Runs `operation` and asserts it leaves the manager's protected-root
/// count exactly where it found it — the invariant every trace-extraction
/// path and every CTL fixpoint must uphold. A leak would pin dead fixpoint
/// rings in the manager for the context's lifetime; an over-release would
/// expose live plan artefacts to garbage collection. Shared by the trace
/// tests here and the model-checker tests in `mc.rs`.
#[cfg(test)]
pub(crate) fn assert_protections_balanced<T>(
    ctx: &mut SymbolicContext,
    operation: impl FnOnce(&mut SymbolicContext) -> T,
) -> T {
    // Warm the lazy plan first: its one-time artefact protections are
    // permanent by design and must not be charged to `operation`.
    let _ = ctx.image_plan();
    let before = ctx.manager().protected_root_count();
    let out = operation(ctx);
    assert_eq!(
        ctx.manager().protected_root_count(),
        before,
        "the operation must release every protection it takes"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::{AssignmentStrategy, Encoding};
    use crate::property::Property;
    use pnsym_net::nets::{dme, figure1, philosophers, DmeStyle};
    use pnsym_net::PetriNet;
    use pnsym_structural::find_smcs;

    fn contexts(net: &PetriNet) -> Vec<SymbolicContext> {
        let smcs = find_smcs(net).unwrap();
        vec![
            SymbolicContext::new(net, Encoding::sparse(net)),
            SymbolicContext::new(
                net,
                Encoding::improved(net, &smcs, AssignmentStrategy::Gray),
            ),
        ]
    }

    #[test]
    fn witness_to_a_reachable_marking_is_valid() {
        let net = figure1();
        for mut ctx in contexts(&net) {
            let p6 = net.place_by_name("p6").unwrap();
            let p7 = net.place_by_name("p7").unwrap();
            let target_prop = Property::all_marked(&[p6, p7]);
            let target = ctx.property_set(&target_prop);
            let trace = assert_protections_balanced(&mut ctx, |ctx| ctx.witness_trace(target))
                .expect("M7 is reachable");
            assert!(trace.validate(&net), "trace must replay on the token game");
            assert!(trace.witness().is_marked(p6));
            assert!(trace.witness().is_marked(p7));
            // M7 = {p6, p7} is reached after 3 firings in Figure 1.b.
            assert_eq!(trace.len(), 3);
        }
    }

    #[test]
    fn empty_trace_when_initial_marking_satisfies_target() {
        let net = figure1();
        for mut ctx in contexts(&net) {
            let p1 = net.place_by_name("p1").unwrap();
            let target = ctx.place_fn(p1);
            let trace = assert_protections_balanced(&mut ctx, |ctx| ctx.witness_trace(target))
                .expect("initially satisfied");
            assert!(trace.is_empty());
            assert_eq!(trace.witness(), net.initial_marking());
        }
    }

    #[test]
    fn unreachable_target_has_no_witness() {
        let net = figure1();
        for mut ctx in contexts(&net) {
            // p2 and p4 belong to the same SMC; both marked is unreachable.
            let p2 = net.place_by_name("p2").unwrap();
            let p4 = net.place_by_name("p4").unwrap();
            let prop = Property::all_marked(&[p2, p4]);
            let target = ctx.property_set(&prop);
            assert!(
                assert_protections_balanced(&mut ctx, |ctx| ctx.witness_trace(target)).is_none()
            );
        }
    }

    #[test]
    fn deadlock_witness_for_the_philosophers() {
        let net = philosophers(2);
        for mut ctx in contexts(&net) {
            let reached = ctx.reachable_markings().reached;
            let dead = ctx.deadlocks_in(reached);
            let trace = assert_protections_balanced(&mut ctx, |ctx| ctx.witness_trace(dead))
                .expect("the deadlock is reachable");
            assert!(trace.validate(&net));
            let witness = trace.witness().clone();
            assert!(net.enabled_transitions(&witness).is_empty());
            // The classic deadlocks: both philosophers hold their left fork,
            // or symmetrically both hold their right fork.
            let both_left = witness.is_marked(net.place_by_name("hasl.0").unwrap())
                && witness.is_marked(net.place_by_name("hasl.1").unwrap());
            let both_right = witness.is_marked(net.place_by_name("hasr.0").unwrap())
                && witness.is_marked(net.place_by_name("hasr.1").unwrap());
            assert!(both_left || both_right, "unexpected deadlock {witness}");
        }
    }

    #[test]
    fn witness_is_shortest_in_steps() {
        let net = dme(3, DmeStyle::Spec);
        for mut ctx in contexts(&net) {
            let cs1 = net.place_by_name("critical.1").unwrap();
            let target = ctx.place_fn(cs1);
            let trace = assert_protections_balanced(&mut ctx, |ctx| ctx.witness_trace(target))
                .expect("reachable");
            assert!(trace.validate(&net));
            // Cell 1 needs: request.1, pass.0 (token from cell 0), enter.1
            // => 3 firings minimum.
            assert_eq!(trace.len(), 3);
        }
    }

    #[test]
    fn unreachable_witness_releases_all_protections() {
        // The forward pass protects one ring per BFS level; the
        // unreachable-target early return must release them all, or every
        // failed query would pin its whole fixpoint in the manager.
        let net = figure1();
        let mut ctx = SymbolicContext::new(&net, crate::encoding::Encoding::sparse(&net));
        let p2 = net.place_by_name("p2").unwrap();
        let p4 = net.place_by_name("p4").unwrap();
        let prop = Property::all_marked(&[p2, p4]);
        let target = ctx.property_set(&prop);
        ctx.manager_mut().protect(target);
        assert!(assert_protections_balanced(&mut ctx, |ctx| ctx.witness_trace(target)).is_none());
        ctx.manager_mut().collect_garbage();
        let live = ctx.manager().live_node_count();
        assert!(assert_protections_balanced(&mut ctx, |ctx| ctx.witness_trace(target)).is_none());
        ctx.manager_mut().collect_garbage();
        assert_eq!(
            ctx.manager().live_node_count(),
            live,
            "a failed witness query must not leave protections behind"
        );
    }

    #[test]
    fn one_step_trace_fires_even_on_self_loops() {
        // A transition mapping the initial marking to itself: EX evidence
        // must still be one firing, where the ring search (whose shortest
        // path is zero steps) would return the empty trace.
        let mut b = pnsym_net::NetBuilder::new("selfloop");
        let a = b.place_marked("a");
        let c = b.place_marked("c");
        let d = b.place("d");
        b.transition("spin", &[a], &[a]);
        b.transition("go", &[c], &[d]);
        let net = b.build().unwrap();
        let mut ctx = SymbolicContext::new(&net, crate::encoding::Encoding::sparse(&net));
        let target = ctx.place_fn(a);
        let trace = assert_protections_balanced(&mut ctx, |ctx| ctx.one_step_trace(target))
            .expect("spin keeps `a` marked");
        assert_eq!(trace.len(), 1);
        assert!(trace.validate(&net));
        assert_eq!(trace.witness(), net.initial_marking());
        assert!(
            assert_protections_balanced(&mut ctx, |ctx| ctx.witness_trace(target))
                .unwrap()
                .is_empty(),
            "the ring search's shortest path is the empty trace here"
        );
        // Unreachable one-step targets yield no trace.
        let never = ctx.place_fn(a);
        let never = ctx.manager_mut().not(never);
        let d_fn = ctx.place_fn(d);
        let bad = ctx.manager_mut().and(never, d_fn);
        assert!(assert_protections_balanced(&mut ctx, |ctx| ctx.one_step_trace(bad)).is_none());
    }

    #[test]
    fn pick_marking_returns_member_of_the_set() {
        let net = philosophers(2);
        for mut ctx in contexts(&net) {
            let reached = ctx.reachable_markings().reached;
            let m = assert_protections_balanced(&mut ctx, |ctx| ctx.pick_marking(reached))
                .expect("non-empty");
            assert!(ctx.set_contains(reached, &m));
            let places = ctx.pick_marked_places(reached).expect("non-empty");
            assert!(!places.is_empty());
        }
    }
}
