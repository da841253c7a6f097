//! Deadlock agreement between the explicit and symbolic engines, with exact
//! expected values pinned per net.
//!
//! The cross-engine harness asserts only that the two engines agree with each
//! other; these tests additionally pin the expected marking and deadlock
//! counts so a bug that breaks both engines identically still fails loudly.

use pnsym::net::nets::{dme, figure1, slotted_ring, DmeStyle};
use pnsym::net::PetriNet;
use pnsym::structural::{find_smcs, CoverStrategy};
use pnsym::{AssignmentStrategy, Encoding, FixpointStrategy, SymbolicContext, TraversalOptions};

/// Asserts explicit and symbolic deadlock counts equal `expected_deadlocks`
/// under the sparse, dense and improved encodings, for the breadth-first
/// (frontier and full) and saturation fixpoint strategies.
fn check_deadlocks(net: &PetriNet, expected_markings: usize, expected_deadlocks: usize) {
    let rg = net.explore().expect("benchmark nets fit in memory");
    assert_eq!(
        rg.num_markings(),
        expected_markings,
        "{}: explicit marking count",
        net.name()
    );
    let explicit = rg.deadlocks(net);
    assert_eq!(
        explicit.len(),
        expected_deadlocks,
        "{}: explicit deadlock count",
        net.name()
    );
    // Every explicitly found deadlock really is dead: no transition enabled.
    for m in &explicit {
        assert!(
            net.enabled_transitions(m).is_empty(),
            "{}: explicit deadlock {m} has an enabled transition",
            net.name()
        );
    }

    let smcs = find_smcs(net).expect("benchmark nets stay within limits");
    let encodings = [
        Encoding::sparse(net),
        Encoding::dense(net, &smcs, CoverStrategy::Greedy, AssignmentStrategy::Gray),
        Encoding::improved(net, &smcs, AssignmentStrategy::Gray),
    ];
    for encoding in encodings {
        let scheme = encoding.scheme();
        for strategy in [
            FixpointStrategy::Bfs { use_frontier: true },
            FixpointStrategy::Bfs {
                use_frontier: false,
            },
            FixpointStrategy::Saturation,
        ] {
            let mut ctx = SymbolicContext::new(net, encoding.clone());
            let result = ctx.reachable_markings_with(TraversalOptions::with_strategy(strategy));
            assert_eq!(
                result.num_markings,
                expected_markings as f64,
                "{}: symbolic marking count under {scheme} with {strategy}",
                net.name()
            );
            let dead = ctx.deadlocks_in(result.reached);
            assert_eq!(
                ctx.count_markings(dead),
                expected_deadlocks as f64,
                "{}: symbolic deadlock count under {scheme} with {strategy}",
                net.name()
            );
        }
    }
}

/// Pinned strategy regression: Saturation and Bfs must report *identical*
/// marking and deadlock counts on the dme and slotted-ring families.
fn check_strategy_agreement(net: &PetriNet, expected_markings: f64, expected_deadlocks: f64) {
    let smcs = find_smcs(net).expect("benchmark nets stay within limits");
    let encoding = Encoding::improved(net, &smcs, AssignmentStrategy::Gray);
    let mut bfs_ctx = SymbolicContext::new(net, encoding.clone());
    let (bfs, bfs_dead) =
        bfs_ctx.analyze_deadlocks(TraversalOptions::with_strategy(FixpointStrategy::Bfs {
            use_frontier: true,
        }));
    assert_eq!(bfs.num_markings, expected_markings, "{}: bfs", net.name());
    assert_eq!(
        bfs_dead,
        expected_deadlocks,
        "{}: bfs deadlocks",
        net.name()
    );
    // Saturation reaches the identical fixpoint through its level-bucketed
    // sweeps (sweep counts are finer-grained than BFS iterations, so only
    // the counts of the fixpoint itself are pinned).
    let mut sat_ctx = SymbolicContext::new(net, encoding);
    let (sat, sat_dead) = sat_ctx.analyze_deadlocks(TraversalOptions::with_strategy(
        FixpointStrategy::Saturation,
    ));
    assert_eq!(
        sat.num_markings,
        expected_markings,
        "{}: saturation",
        net.name()
    );
    assert_eq!(
        sat_dead,
        expected_deadlocks,
        "{}: saturation deadlocks",
        net.name()
    );
}

#[test]
fn saturation_and_bfs_agree_on_slotted_ring() {
    check_strategy_agreement(&slotted_ring(2), 14.0, 1.0);
    check_strategy_agreement(&slotted_ring(3), 62.0, 1.0);
}

#[test]
fn saturation_and_bfs_agree_on_dme() {
    check_strategy_agreement(&dme(3, DmeStyle::Spec), 135.0, 0.0);
}

#[test]
fn figure1_is_deadlock_free() {
    // The paper's running example: 8 reachable markings, strongly connected
    // behaviour, no deadlock.
    check_deadlocks(&figure1(), 8, 0);
}

#[test]
fn slotted_ring_has_exactly_one_deadlock() {
    // The slotted ring deadlocks exactly once per size: every node can grab
    // its local slot simultaneously, mirroring the philosophers' circular
    // wait. The count stays 1 as the ring grows.
    check_deadlocks(&slotted_ring(2), 14, 1);
    check_deadlocks(&slotted_ring(3), 62, 1);
}

#[test]
fn dme_rings_are_deadlock_free() {
    // Mutual-exclusion rings keep the token circulating; no reachable
    // marking is dead in either modelling style.
    check_deadlocks(&dme(2, DmeStyle::Spec), 30, 0);
    check_deadlocks(&dme(3, DmeStyle::Spec), 135, 0);
    check_deadlocks(&dme(2, DmeStyle::Circuit), 42, 0);
}
