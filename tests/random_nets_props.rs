//! Property-based tests over randomly generated safe Petri nets.
//!
//! Random nets are built as compositions of circular state machines that
//! optionally share synchronisation transitions — by construction they are
//! safe, every component is a one-token SMC candidate, and the state space
//! stays small enough for explicit enumeration, so the symbolic engines can
//! be validated against it on thousands of structurally diverse instances.

use pnsym::net::{NetBuilder, PetriNet};
use pnsym::structural::{find_smcs, minimal_invariants, CoverStrategy};
use pnsym::{
    analyze_zdd_with, AssignmentStrategy, Encoding, FixpointStrategy, SymbolicContext,
    TraversalOptions,
};
use proptest::prelude::*;

/// Every fixpoint strategy of the shared driver.
fn all_strategies() -> [FixpointStrategy; 3] {
    [
        FixpointStrategy::Bfs { use_frontier: true },
        FixpointStrategy::Bfs {
            use_frontier: false,
        },
        FixpointStrategy::Saturation,
    ]
}

/// Description of one random net: a list of state-machine component sizes
/// plus synchronisation pairs (component, component) joined at a shared
/// transition.
#[derive(Debug, Clone)]
struct RandomNetSpec {
    component_sizes: Vec<usize>,
    syncs: Vec<(usize, usize)>,
}

fn arb_spec() -> impl Strategy<Value = RandomNetSpec> {
    (2usize..=4)
        .prop_flat_map(|ncomp| {
            let sizes = proptest::collection::vec(2usize..=4, ncomp);
            let syncs = proptest::collection::vec((0..ncomp, 0..ncomp), 0..=2);
            (sizes, syncs)
        })
        .prop_map(|(component_sizes, syncs)| RandomNetSpec {
            component_sizes,
            syncs,
        })
}

/// Builds the net described by `spec`: each component `i` is a cycle
/// `s_i_0 -> s_i_1 -> ... -> s_i_0` with the first place marked; each sync
/// `(a, b)` replaces the first cycle transition of both components with a
/// single shared transition consuming and producing in both.
fn build_net(spec: &RandomNetSpec) -> PetriNet {
    let mut b = NetBuilder::new("random");
    let mut places = Vec::new();
    for (i, &size) in spec.component_sizes.iter().enumerate() {
        let mut component = Vec::new();
        for j in 0..size {
            let name = format!("s{i}_{j}");
            component.push(if j == 0 {
                b.place_marked(name)
            } else {
                b.place(name)
            });
        }
        places.push(component);
    }
    // Which components have their first transition fused with another.
    let mut fused = vec![false; spec.component_sizes.len()];
    for &(x, y) in &spec.syncs {
        if x != y && !fused[x] && !fused[y] {
            fused[x] = true;
            fused[y] = true;
            b.transition(
                format!("sync_{x}_{y}"),
                &[places[x][0], places[y][0]],
                &[
                    places[x][1 % places[x].len()],
                    places[y][1 % places[y].len()],
                ],
            );
        }
    }
    for (i, component) in places.iter().enumerate() {
        let start = usize::from(fused[i]);
        for j in start..component.len() {
            b.transition(
                format!("t{i}_{j}"),
                &[component[j]],
                &[component[(j + 1) % component.len()]],
            );
        }
    }
    b.build().expect("generated net is well formed")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn symbolic_engines_agree_with_explicit_enumeration(spec in arb_spec()) {
        // Every strategy × encoding pair (including the ZDD engine, which
        // shares the fixpoint driver) must agree with explicit exploration.
        let net = build_net(&spec);
        let rg = net.explore().expect("composed state machines are safe");
        let expected = rg.num_markings() as f64;
        let explicit_deadlocks = rg.deadlocks(&net).len() as f64;

        let smcs = find_smcs(&net).expect("small nets");
        let encodings = vec![
            Encoding::sparse(&net),
            Encoding::dense(&net, &smcs, CoverStrategy::Greedy, AssignmentStrategy::Gray),
            Encoding::improved(&net, &smcs, AssignmentStrategy::Gray),
        ];
        for enc in encodings {
            let scheme = enc.scheme();
            let vars = enc.num_vars();
            prop_assert!(vars <= net.num_places());
            for strategy in all_strategies() {
                let mut ctx = SymbolicContext::new(&net, enc.clone());
                let (result, deadlocks) =
                    ctx.analyze_deadlocks(TraversalOptions::with_strategy(strategy));
                prop_assert_eq!(
                    result.num_markings, expected,
                    "scheme {:?} under {}", scheme, strategy
                );
                prop_assert_eq!(
                    deadlocks, explicit_deadlocks,
                    "scheme {:?} under {}: deadlock count", scheme, strategy
                );
            }
        }
        for strategy in all_strategies() {
            let zdd = analyze_zdd_with(&net, strategy);
            prop_assert_eq!(zdd.num_markings, expected, "zdd under {}", strategy);
        }
    }

    #[test]
    fn invariants_of_random_nets_verify(spec in arb_spec()) {
        let net = build_net(&spec);
        let invariants = minimal_invariants(&net).expect("small nets");
        prop_assert!(!invariants.is_empty());
        for inv in &invariants {
            prop_assert!(inv.verify(&net));
            prop_assert!(inv.is_semi_positive());
        }
        // Minimal: no invariant repeats and no support strictly contains
        // another, i.e. a final minimality filter over the result (the
        // oracle of the structural crate's unit tests) would be the identity.
        let strictly_inside =
            |a: &[_], b: &[_]| a.len() < b.len() && a.iter().all(|p| b.contains(p));
        for (i, a) in invariants.iter().enumerate() {
            for b in &invariants[i + 1..] {
                prop_assert_ne!(a, b);
                let (sa, sb) = (a.support(), b.support());
                prop_assert!(
                    !strictly_inside(&sa, &sb) && !strictly_inside(&sb, &sa),
                    "{} / {}", a, b
                );
            }
        }
        // Each circular component is a one-token SMC, so at least as many
        // SMCs as components must be found.
        let smcs = find_smcs(&net).expect("small nets");
        prop_assert!(smcs.len() >= spec.component_sizes.len());
        for smc in &smcs {
            prop_assert_eq!(smc.initial_tokens(), 1);
        }
    }

    #[test]
    fn encodings_are_injective_on_reachable_markings(spec in arb_spec()) {
        let net = build_net(&spec);
        let rg = net.explore().expect("safe");
        let smcs = find_smcs(&net).expect("small nets");
        for enc in [
            Encoding::dense(&net, &smcs, CoverStrategy::Greedy, AssignmentStrategy::Gray),
            Encoding::improved(&net, &smcs, AssignmentStrategy::Gray),
        ] {
            let mut seen = std::collections::HashSet::new();
            for m in rg.markings() {
                let bits = enc.encode_marking(m);
                prop_assert!(seen.insert(bits), "duplicate code under {:?}", enc.scheme());
                for p in net.places() {
                    prop_assert_eq!(
                        enc.place_is_marked_in(&enc.encode_marking(m), p),
                        m.is_marked(p)
                    );
                }
            }
        }
    }
}
