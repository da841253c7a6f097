//! CTL cross-validation: the symbolic checker against the explicit-state
//! oracle, across every encoding × strategy combination.
//!
//! Three layers of agreement are pinned:
//!
//! * every CTL operator's satisfaction *set* matches the explicit checker
//!   state for state on the bundled nets and on random composed nets;
//! * the bundled per-net property suites ([`property_suite`]) produce their
//!   recorded verdicts under both checkers;
//! * every extracted witness/counterexample trace replays on the token game
//!   and actually demonstrates its verdict (final state satisfies the
//!   target, lassos close and avoid it, EU prefixes stay in the hold set).

use pnsym::net::nets::{
    dme, figure1, muller, philosophers, property_suite, random_composed, slotted_ring, DmeStyle,
    RandomNetConfig,
};
use pnsym::net::{PetriNet, ReachabilityGraph};
use pnsym::structural::{find_smcs, CoverStrategy};
use pnsym::{
    AssignmentStrategy, Encoding, ExplicitChecker, FixpointStrategy, Property, SymbolicContext,
    TraceKind, TraversalOptions,
};
use proptest::prelude::*;

fn all_strategies() -> [FixpointStrategy; 3] {
    [
        FixpointStrategy::Bfs { use_frontier: true },
        FixpointStrategy::Bfs {
            use_frontier: false,
        },
        FixpointStrategy::Saturation,
    ]
}

fn encodings(net: &PetriNet) -> Vec<Encoding> {
    let smcs = find_smcs(net).expect("bundled nets are covered");
    vec![
        Encoding::sparse(net),
        Encoding::dense(net, &smcs, CoverStrategy::Greedy, AssignmentStrategy::Gray),
        Encoding::improved(net, &smcs, AssignmentStrategy::Gray),
    ]
}

fn bundled_nets() -> Vec<PetriNet> {
    vec![
        figure1(),
        philosophers(2),
        muller(4),
        slotted_ring(3),
        dme(3, DmeStyle::Spec),
    ]
}

/// A cross-section of formulas exercising every CTL operator, built from
/// two places of the net.
fn operator_formulas(net: &PetriNet) -> Vec<Property> {
    let mut places = net.places();
    let a = Property::place(places.next().expect("non-empty net"));
    let b = Property::place(
        places
            .last()
            .unwrap_or_else(|| net.places().next().expect("non-empty net")),
    );
    vec![
        Property::ex(a.clone()),
        Property::ax(a.clone()),
        Property::ef(a.clone()),
        Property::af(a.clone()),
        Property::eg(a.clone().not()),
        Property::ag(a.clone().implies(Property::ef(b.clone()))),
        Property::eu(a.clone().not(), b.clone()),
        Property::au(a.clone().not(), b.clone()),
        Property::eu(Property::True, a.clone().and(b.clone())),
        Property::au(a.clone().or(b.clone()), Property::ex(b.clone())),
        Property::ag(Property::ex(Property::True)),
        Property::ef(Property::ex(Property::True).not()),
    ]
}

/// Asserts that `sat_set` of every formula equals the explicit checker's
/// satisfaction vector, state for state, for one context.
fn assert_sets_agree(
    net: &PetriNet,
    rg: &ReachabilityGraph,
    checker: &ExplicitChecker,
    ctx: &mut SymbolicContext,
    strategy: FixpointStrategy,
    formulas: &[Property],
) {
    let reached = ctx
        .reachable_markings_with(TraversalOptions::with_strategy(strategy))
        .reached;
    assert_eq!(
        ctx.count_markings(reached),
        rg.num_markings() as f64,
        "{}: reached set matches explicit exploration",
        net.name()
    );
    for prop in formulas {
        let sat = ctx.sat_set(prop, reached);
        let explicit = checker.sat(prop);
        for (i, m) in rg.markings().iter().enumerate() {
            assert_eq!(
                ctx.set_contains(sat, m),
                explicit[i],
                "{} under {:?}/{}: `{}` at {}",
                net.name(),
                ctx.encoding().scheme(),
                strategy,
                prop.display(net),
                m
            );
        }
    }
}

/// The acceptance pin: every CTL operator (EU/AU included) agrees with
/// explicit-state exploration on all bundled nets, for every encoding ×
/// strategy pair.
#[test]
fn ctl_operators_agree_with_explicit_exploration() {
    for net in bundled_nets() {
        let rg = net.explore().expect("bundled nets are small");
        let checker = ExplicitChecker::new(&net, &rg);
        let formulas = operator_formulas(&net);
        for enc in encodings(&net) {
            let mut ctx = SymbolicContext::new(&net, enc);
            for strategy in all_strategies() {
                assert_sets_agree(&net, &rg, &checker, &mut ctx, strategy, &formulas);
            }
        }
    }
}

/// The bundled suites' recorded verdicts hold under both checkers, and
/// parsing agrees with the explicit oracle on every suite formula.
#[test]
fn bundled_property_suites_are_honest() {
    for net in bundled_nets() {
        let rg = net.explore().unwrap();
        let checker = ExplicitChecker::new(&net, &rg);
        let suite = property_suite(&net);
        assert!(!suite.is_empty(), "{} has a suite", net.name());
        let smcs = find_smcs(&net).unwrap();
        let mut ctx = SymbolicContext::new(
            &net,
            Encoding::improved(&net, &smcs, AssignmentStrategy::Gray),
        );
        for spec in suite {
            let prop = Property::parse(&spec.formula, &net)
                .unwrap_or_else(|e| panic!("{}: `{}`: {e}", net.name(), spec.formula));
            let expect = spec.expect.expect("bundled suites pin verdicts");
            assert_eq!(
                checker.holds(&prop),
                expect,
                "{}: `{}` (explicit)",
                net.name(),
                spec.formula
            );
            let report = ctx.check_property(&prop);
            assert_eq!(
                report.holds,
                expect,
                "{}: `{}` (symbolic)",
                net.name(),
                spec.formula
            );
            assert_eq!(report.reached_markings, rg.num_markings() as f64);
            if let Some(trace) = &report.trace {
                assert!(
                    trace.validate(&net),
                    "{}: `{}` trace replays",
                    net.name(),
                    spec.formula
                );
            }
        }
    }
}

/// Every extracted trace demonstrates its verdict: it starts at the initial
/// marking, replays on the token game, and its shape matches the top-level
/// operator (target satisfied at the end, lassos closed and avoiding the
/// target, EU prefixes inside the hold set) — judged by the *explicit*
/// checker, for every encoding × strategy pair.
#[test]
fn witness_traces_demonstrate_their_verdicts() {
    for net in bundled_nets() {
        let rg = net.explore().unwrap();
        let checker = ExplicitChecker::new(&net, &rg);
        let suite = property_suite(&net);
        for enc in encodings(&net) {
            let mut ctx = SymbolicContext::new(&net, enc);
            for strategy in all_strategies() {
                for spec in &suite {
                    let prop = Property::parse(&spec.formula, &net).unwrap();
                    let report =
                        ctx.check_property_with(&prop, TraversalOptions::with_strategy(strategy));
                    let Some(trace) = report.trace else { continue };
                    let kind = report.trace_kind.expect("kind accompanies trace");
                    assert!(trace.validate(&net), "{}: `{}`", net.name(), spec.formula);
                    assert_eq!(
                        &trace.markings[0],
                        net.initial_marking(),
                        "traces start at the initial marking"
                    );
                    let sat_at = |p: &Property, m: &pnsym::net::Marking| -> bool {
                        let idx = rg.index_of(m).expect("trace stays in reached space");
                        checker.sat(p)[idx]
                    };
                    match (&prop, kind) {
                        (Property::Ef(inner), TraceKind::Witness) => {
                            assert!(sat_at(inner, trace.witness()));
                        }
                        (Property::Eu(hold, until), TraceKind::Witness) => {
                            assert!(sat_at(until, trace.witness()));
                            for m in &trace.markings[..trace.markings.len() - 1] {
                                assert!(sat_at(hold, m));
                            }
                        }
                        (Property::Ex(inner), TraceKind::Witness) => {
                            assert_eq!(trace.len(), 1);
                            assert!(sat_at(inner, trace.witness()));
                        }
                        (Property::Eg(inner), TraceKind::Witness) => {
                            assert!(trace.is_lasso().is_some());
                            for m in &trace.markings {
                                assert!(sat_at(inner, m));
                            }
                        }
                        (Property::Ag(inner), TraceKind::Counterexample) => {
                            assert!(!sat_at(inner, trace.witness()));
                        }
                        (Property::Ax(inner), TraceKind::Counterexample) => {
                            assert_eq!(trace.len(), 1);
                            assert!(!sat_at(inner, trace.witness()));
                        }
                        (Property::Af(inner), TraceKind::Counterexample) => {
                            assert!(trace.is_lasso().is_some());
                            for m in &trace.markings {
                                assert!(!sat_at(inner, m));
                            }
                        }
                        (Property::Au(_, until), TraceKind::Counterexample) => {
                            for m in &trace.markings {
                                assert!(!sat_at(until, m));
                            }
                        }
                        (p, k) => panic!("unexpected trace for `{}` ({k:?})", p.display(&net)),
                    }
                }
            }
        }
    }
}

/// The nets of the benchmark's `ctl` workload (phil-10, muller-16,
/// slot-12 and dme-cir-7 in a release build, smaller members of the same
/// families in a debug one), improved dense with Gray codes.
fn ctl_ladder() -> Vec<(PetriNet, SymbolicContext)> {
    let nets = if cfg!(debug_assertions) {
        [
            philosophers(6),
            muller(10),
            slotted_ring(8),
            dme(5, DmeStyle::Circuit),
        ]
    } else {
        [
            philosophers(10),
            muller(16),
            slotted_ring(12),
            dme(7, DmeStyle::Circuit),
        ]
    };
    nets.into_iter()
        .map(|net| {
            let smcs = find_smcs(&net).unwrap();
            let ctx = SymbolicContext::new(
                &net,
                Encoding::improved(&net, &smcs, AssignmentStrategy::Gray),
            );
            (net, ctx)
        })
        .collect()
}

/// The saturated `EF` and `AG` of `sat_set` against the chained oracle
/// `E[within U target]` on the [`ctl_ladder`]. The targets are the
/// operands of every `EF` and `AG` of the net's suite, two places and
/// their negations, and the deadlocks.
#[test]
fn saturated_ef_and_ag_match_the_chained_oracle_on_the_ctl_ladder() {
    for (net, mut ctx) in ctl_ladder() {
        let reached = ctx.reachable_markings().reached;
        let mut targets = vec![Property::ex(Property::True).not()];
        for spec in property_suite(&net) {
            match Property::parse(&spec.formula, &net).unwrap() {
                Property::Ef(a) | Property::Ag(a) => targets.push(*a),
                _ => {}
            }
        }
        for place in [net.places().next(), net.places().last()] {
            let place = Property::place(place.expect("non-empty net"));
            targets.push(place.clone().not());
            targets.push(place);
        }
        for target in targets {
            let inner = ctx.sat_set(&target, reached);
            let oracle = ctx.eu(reached, inner, reached);
            let ef = ctx.sat_set(&Property::ef(target.clone()), reached);
            assert_eq!(ef, oracle, "{}: EF {}", net.name(), target.display(&net));
            let outside = ctx.manager_mut().diff(reached, inner);
            let bad = ctx.eu(reached, outside, reached);
            let oracle = ctx.manager_mut().diff(reached, bad);
            let ag = ctx.sat_set(&Property::ag(target.clone()), reached);
            assert_eq!(ag, oracle, "{}: AG {}", net.name(), target.display(&net));
        }
    }
}

/// The flow-pruned `EG` of `sat_set`, and the `AF` and `AU` evaluated
/// through it, against the breadth-first `EG` on the [`ctl_ladder`]. The
/// public operators prune only over the context's memoized reached set,
/// and `reachable_markings` memoizes nothing, so over its set they run
/// breadth-first. The cores are `EG !p` for the place `p` each net's
/// `AF` is about (slot has none, so its `free.0`), plus every `AU` of the
/// net's suite.
#[test]
fn pruned_eg_matches_the_breadth_first_fixpoint_on_the_ctl_ladder() {
    let cores = ["eating.0", "done.0", "free.0", "critical.0"];
    for ((net, mut ctx), core) in ctl_ladder().into_iter().zip(cores) {
        let reached = ctx.reachable_markings().reached;
        assert!(ctx.memoized_reached().is_none());
        let place = Property::place(net.place_by_name(core).unwrap());
        let marked = ctx.sat_set(&place, reached);
        let avoid = ctx.manager_mut().diff(reached, marked);
        let oracle = ctx.eg(avoid, reached);
        let eg = ctx.sat_set(&Property::eg(place.clone().not()), reached);
        assert_eq!(eg, oracle, "{}: EG !{core}", net.name());
        let oracle = ctx.manager_mut().diff(reached, oracle);
        let af = ctx.sat_set(&Property::af(place), reached);
        assert_eq!(af, oracle, "{}: AF {core}", net.name());
        for spec in property_suite(&net) {
            let prop = Property::parse(&spec.formula, &net).unwrap();
            let Property::Au(hold, until) = &prop else {
                continue;
            };
            let [hold, until] = [hold, until].map(|p| ctx.sat_set(p, reached));
            let oracle = ctx.au(hold, until, reached);
            let au = ctx.sat_set(&prop, reached);
            assert_eq!(au, oracle, "{}: {}", net.name(), spec.formula);
        }
    }
}

/// Formula templates instantiated with random place indices; covers every
/// operator with nested boolean structure.
fn template_formula(which: usize, places: &[Property]) -> Property {
    let p = |i: usize| places[i % places.len()].clone();
    match which % 10 {
        0 => Property::ef(p(0).and(p(1))),
        1 => Property::ag(p(0).implies(Property::ef(p(1)))),
        2 => Property::eu(p(0).not(), p(1)),
        3 => Property::au(p(0).not().or(p(2)), p(1)),
        4 => Property::eg(p(0).not()),
        5 => Property::af(p(1)),
        6 => Property::ax(p(0).or(p(1))),
        7 => Property::ex(Property::ex(p(2))),
        8 => Property::au(Property::True, p(0).and(p(1)).not()),
        _ => Property::eg(Property::ef(p(1))),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random composed nets: every operator template agrees with the
    /// explicit checker per state, across encodings and strategies, and
    /// the parsed rendering of each formula produces the same verdicts.
    #[test]
    fn random_nets_agree_with_explicit_checker(
        seed in 0u64..1_000_000,
        components in 2usize..4,
        syncs in 0usize..3,
        which in 0usize..10,
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
        let checker = ExplicitChecker::new(&net, &rg);
        let atoms: Vec<Property> = net.places().map(Property::place).collect();
        let prop = template_formula(which, &atoms);

        // Parsed vs hand-built: the rendering round-trips to the same AST.
        let rendered = prop.display(&net);
        let reparsed = Property::parse(&rendered, &net).expect("display is parseable");
        prop_assert_eq!(&reparsed, &prop, "`{}` round-trips", rendered);

        let explicit = checker.sat(&prop);
        for enc in encodings(&net) {
            let mut ctx = SymbolicContext::new(&net, enc);
            for strategy in all_strategies() {
                let reached = ctx
                    .reachable_markings_with(TraversalOptions::with_strategy(strategy))
                    .reached;
                let sat = ctx.sat_set(&prop, reached);
                for (i, m) in rg.markings().iter().enumerate() {
                    prop_assert_eq!(
                        ctx.set_contains(sat, m),
                        explicit[i],
                        "{} under {:?}/{}: `{}` at state {}",
                        net.name(), ctx.encoding().scheme(), strategy, rendered, i
                    );
                }
                // The verdict of the full check agrees with the oracle, and
                // any trace replays.
                let report = ctx.check_property_with(
                    &prop,
                    TraversalOptions::with_strategy(strategy),
                );
                prop_assert_eq!(report.holds, explicit[checker.initial_index()]);
                if let Some(trace) = &report.trace {
                    prop_assert!(trace.validate(&net));
                }
            }
        }
    }
}
