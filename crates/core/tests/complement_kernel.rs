//! Differential pinning of the complement-edge BDD kernel.
//!
//! Random nets are analysed by three independent engines — the
//! complement-edge BDD kernel, the ZDD backend (which uses no complement
//! attributes), and the explicit-state oracle — and the results are
//! compared while the BDD run is stressed with tiny GC thresholds, a
//! sifted (non-structural) variable order and typed budget interrupts. A
//! CTL workload additionally pins the headline property of the
//! representation: negation is a bit flip and disjunction goes through the
//! `and` cache, so neither generates computed-cache traffic of its own.

use pnsym_core::{
    Encoding, FixpointStrategy, Property, SymbolicContext, TraversalOptions, ZddContext,
};
use pnsym_net::nets::{philosophers, property_suite, random_composed, RandomNetConfig};
use pnsym_net::PetriNet;
use pnsym_structural::find_smcs;
use proptest::prelude::*;

fn context(net: &PetriNet) -> SymbolicContext {
    match find_smcs(net) {
        Ok(smcs) => SymbolicContext::new(
            net,
            Encoding::improved(net, &smcs, pnsym_core::AssignmentStrategy::Gray),
        ),
        Err(_) => SymbolicContext::new(net, Encoding::sparse(net)),
    }
}

/// The stress profiles the BDD arm cycles through: tiny GC thresholds
/// that rewrite the arena mid-fixpoint, and a variable order sifted over
/// the built transition relations before the traversal starts, so the
/// fixpoint (saturation's level buckets included) runs on an order the
/// encoding did not lay out.
fn stress_options(
    ctx: &mut SymbolicContext,
    choice: u8,
    strategy: FixpointStrategy,
) -> TraversalOptions {
    let mut options = TraversalOptions::with_strategy(strategy);
    match choice % 4 {
        1 => options.gc_threshold = 32,
        2 => sift_over_the_relations(ctx),
        3 => {
            options.gc_threshold = 64;
            sift_over_the_relations(ctx);
        }
        _ => {}
    }
    options
}

fn sift_over_the_relations(ctx: &mut SymbolicContext) {
    ctx.image_plan();
    ctx.manager_mut().sift();
}

fn arb_config() -> impl Strategy<Value = RandomNetConfig> {
    (1usize..4, 2usize..4, 0usize..4).prop_map(|(components, min_places, synchronisations)| {
        RandomNetConfig {
            components,
            min_places,
            max_places: min_places + 2,
            synchronisations,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The complemented kernel, the ZDD backend and the explicit oracle
    /// agree on every random net, under every strategy, while GC rewrites
    /// the arena between passes, under the structural or a sifted order.
    #[test]
    fn engines_agree_on_random_nets_under_maintenance_stress(
        config in arb_config(),
        seed in 0u64..1000,
        stress in 0u8..4,
    ) {
        let net = random_composed(config, seed);
        let explicit = net.explore().expect("random nets are small");
        let expected_markings = explicit.num_markings() as f64;
        let expected_deadlocks = explicit.deadlocks(&net).len() as f64;

        for strategy in [
            FixpointStrategy::Bfs { use_frontier: true },
            FixpointStrategy::Bfs { use_frontier: false },
            FixpointStrategy::Saturation,
        ] {
            let mut ctx = context(&net);
            let options = stress_options(&mut ctx, stress, strategy);
            let run = ctx.reachable_markings_with(options);
            prop_assert!(run.truncated.is_none(), "{strategy} truncated");
            prop_assert_eq!(run.num_markings, expected_markings, "{} markings", strategy);
            let dead = ctx.deadlocks_in(run.reached);
            prop_assert_eq!(ctx.count_markings(dead), expected_deadlocks, "{} deadlocks", strategy);
            prop_assert!(ctx.manager().check_invariants().is_ok());

            // The ZDD backend shares the fixpoint driver but none of the
            // node representation: same fixpoint, op for op.
            let mut zdd = ZddContext::new(&net);
            let zrun = zdd.reachable_markings_with(strategy);
            prop_assert!(zrun.truncated.is_none());
            prop_assert_eq!(zrun.num_markings, expected_markings, "{} zdd markings", strategy);
            if matches!(strategy, FixpointStrategy::Bfs { .. }) {
                // Breadth-first steps count the state-space depth, which
                // no representation choice may change. (Saturation sweep
                // counts differ, because each backend buckets the
                // transitions by its own levels: BDD variables here,
                // places there.)
                prop_assert_eq!(zrun.iterations, run.iterations, "{} iterations", strategy);
            }
        }
    }

    /// A typed budget interrupt mid-fixpoint unwinds with every protection
    /// balanced: the truncated result carries exactly one extra protected
    /// root, the arena stays canonical (also after a sift of the unwound
    /// manager, as the degradation ladder runs one), and an ungoverned
    /// re-run on the same manager still reaches the oracle's fixpoint.
    #[test]
    fn budget_interrupts_unwind_with_balanced_protections(
        config in arb_config(),
        seed in 0u64..1000,
        steps in 1u64..200,
    ) {
        let net = random_composed(config, seed);
        let explicit = net.explore().expect("random nets are small");
        let expected = explicit.num_markings() as f64;

        let mut ctx = context(&net);
        // Force the lazily built image plan first: constructing it protects
        // the target cubes, which would otherwise pollute the baseline.
        let warmup = ctx.reachable_markings_with(TraversalOptions::default());
        ctx.manager_mut().unprotect(warmup.reached);
        let before = ctx.manager().protected_root_count();
        let governed = TraversalOptions {
            step_budget: Some(steps),
            gc_threshold: 64,
            ..TraversalOptions::default()
        };
        let run = ctx.reachable_markings_with(governed);
        // Whether or not the tiny budget tripped, the reached set carries
        // exactly one protection and the arena is canonical.
        prop_assert_eq!(ctx.manager().protected_root_count(), before + 1);
        prop_assert!(ctx.manager().check_invariants().is_ok());
        prop_assert!(run.num_markings <= expected, "truncation under-approximates");

        // The typed unwind leaves the manager fully operational: it sifts
        // cleanly, and the ungoverned re-run completes and agrees with the
        // oracle.
        ctx.manager_mut().sift();
        prop_assert!(ctx.manager().check_invariants().is_ok());
        prop_assert_eq!(ctx.manager().protected_root_count(), before + 1);
        ctx.manager_mut().unprotect(run.reached);
        let rerun = ctx.reachable_markings_with(TraversalOptions::default());
        prop_assert!(rerun.truncated.is_none());
        prop_assert_eq!(rerun.num_markings, expected);
        prop_assert_eq!(ctx.manager().protected_root_count(), before + 1);
    }
}

/// Negation is a complement-bit flip and disjunction is derived (De Morgan
/// through the `and` cache): an entire CTL suite — EF/AF/AG/EG nesting,
/// fixpoints, witness extraction — must account every computed-cache
/// lookup to `and`, `exists` or `and_exists`.
#[test]
fn ctl_workload_generates_no_not_cache_traffic() {
    let net = philosophers(3);
    let suite = property_suite(&net);
    assert!(!suite.is_empty(), "bundled suite exists");
    let mut ctx = context(&net);
    for spec in &suite {
        let prop = Property::parse(&spec.formula, &net).expect("bundled formulas parse");
        let report = ctx.check_property_with(&prop, TraversalOptions::default());
        assert!(report.truncated.is_none());
        if let Some(expect) = spec.expect {
            assert_eq!(report.holds, expect, "`{}`", spec.formula);
        }
    }
    let stats = ctx.stats();
    assert!(
        stats.cache_hits + stats.cache_misses > 0,
        "the workload ran"
    );
    let listed: u64 = stats.per_op().iter().map(|(_, op)| op.lookups()).sum();
    assert_eq!(
        stats.cache_hits + stats.cache_misses,
        listed,
        "`not` and `or` must be free under complement edges"
    );
}
