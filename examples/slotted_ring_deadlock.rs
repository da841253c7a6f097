//! Property checking on the slotted-ring protocol: symbolic reachability,
//! deadlock detection, and verification of the per-node mutual-exclusion
//! invariants — all under the dense encoding.
//!
//! Run with `cargo run --release --example slotted_ring_deadlock [nodes]`.

use pnsym::net::nets::slotted_ring;
use pnsym::structural::find_smcs;
use pnsym::{
    AnalysisError, AssignmentStrategy, Encoding, FixpointStrategy, SymbolicContext,
    TraversalOptions,
};

fn main() -> Result<(), AnalysisError> {
    let nodes: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);
    let net = slotted_ring(nodes.max(2));
    println!("net: {net}");

    let smcs = find_smcs(&net).map_err(AnalysisError::Structural)?;
    let encoding = Encoding::improved(&net, &smcs, AssignmentStrategy::Gray);
    println!(
        "dense encoding: {} variables (sparse would use {})",
        encoding.num_vars(),
        net.num_places()
    );

    let mut ctx = SymbolicContext::new(&net, encoding);
    // Breadth-first, so the iteration count is the state-space depth.
    let bfs = FixpointStrategy::Bfs { use_frontier: true };
    let result = ctx.reachable_markings_with(TraversalOptions::with_strategy(bfs));
    println!(
        "reachable markings: {} ({} BDD nodes, {} iterations, {:.1} ms)",
        result.num_markings,
        result.bdd_nodes,
        result.iterations,
        result.duration.as_secs_f64() * 1e3
    );

    // Deadlock: all nodes simultaneously waiting to send.
    let deadlocks = ctx.deadlocks_in(result.reached);
    let num_deadlocks = ctx.count_markings(deadlocks);
    println!("reachable deadlocks: {num_deadlocks}");
    if num_deadlocks > 0.0 {
        println!("  (all nodes holding a full slot while none is idle to receive)");
    }

    // Safety-style invariant check: a slot is never both free and full.
    let mut violations = 0u32;
    for i in 0..nodes.max(2) {
        let free = net.place_by_name(&format!("free.{i}")).expect("place");
        let full = net.place_by_name(&format!("full.{i}")).expect("place");
        let chi_free = ctx.place_fn(free);
        let chi_full = ctx.place_fn(full);
        let both = ctx.manager_mut().and(chi_free, chi_full);
        let bad = ctx.manager_mut().and(result.reached, both);
        if bad != ctx.manager().zero() {
            violations += 1;
        }
    }
    println!("slots that can be free and full at once: {violations} (expected 0)");
    Ok(())
}
