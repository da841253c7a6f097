//! Walkthrough of Sections 4.3–5.4 of the paper: the dining-philosophers net
//! of Figure 4, its SMC decomposition (Figure 3), the improved encoding
//! (Table 1) and the characteristic functions (Table 2) — then scales the
//! family up and detects the classic deadlock symbolically.
//!
//! Run with `cargo run --example dining_philosophers [n]`.

use pnsym::net::nets::philosophers;
use pnsym::structural::find_smcs;
use pnsym::{
    analyze, AnalysisError, AnalysisOptions, AssignmentStrategy, Block, Encoding, FixpointStrategy,
    SymbolicContext, TraversalOptions,
};

fn main() -> Result<(), AnalysisError> {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2);
    let net = philosophers(n.max(2));
    println!("net: {net}");

    // The SMC decomposition (Figure 3 for n = 2).
    let smcs = find_smcs(&net).map_err(AnalysisError::Structural)?;
    println!("\n{} one-token SMCs found:", smcs.len());
    for (i, smc) in smcs.iter().enumerate() {
        let names: Vec<&str> = smc.places().iter().map(|&p| net.place_name(p)).collect();
        println!("  SM{}: {{{}}}", i + 1, names.join(", "));
    }

    // The improved encoding (Table 1 for n = 2: 8 variables for 14 places).
    let encoding = Encoding::improved(&net, &smcs, AssignmentStrategy::Gray);
    println!(
        "\nimproved encoding: {} variables for {} places",
        encoding.num_vars(),
        net.num_places()
    );
    for (i, block) in encoding.blocks().iter().enumerate() {
        match block {
            Block::Place { place, var } => {
                println!("  block {i}: place {} -> x{var}", net.place_name(*place));
            }
            Block::Smc {
                places,
                codes,
                vars,
                ..
            } => {
                let vars_s: Vec<String> = vars.iter().map(|v| format!("x{v}")).collect();
                println!("  block {i}: SMC on [{}]", vars_s.join(" "));
                for (j, &p) in places.iter().enumerate() {
                    println!(
                        "      {} = {:0width$b}",
                        net.place_name(p),
                        codes[j],
                        width = vars.len()
                    );
                }
            }
        }
    }

    // Symbolic reachability + deadlock detection.
    let mut ctx = SymbolicContext::new(&net, encoding);
    // Breadth-first, so the iteration count is the state-space depth.
    let bfs = FixpointStrategy::Bfs { use_frontier: true };
    let result = ctx.reachable_markings_with(TraversalOptions::with_strategy(bfs));
    let deadlocks = ctx.deadlocks_in(result.reached);
    let num_deadlocks = ctx.count_markings(deadlocks);
    println!(
        "\nreachable markings: {} ({} BDD nodes, {} iterations)",
        result.num_markings, result.bdd_nodes, result.iterations
    );
    println!("reachable deadlocks: {num_deadlocks} (every philosopher holding their left fork)");

    // Compare against the sparse scheme.
    let sparse = analyze(&net, &AnalysisOptions::sparse())?;
    println!(
        "\nsparse encoding: {} variables, {} BDD nodes — dense saves {:.0}% of the variables",
        sparse.num_variables,
        sparse.bdd_nodes,
        100.0 * (1.0 - ctx.encoding().num_vars() as f64 / sparse.num_variables as f64)
    );
    Ok(())
}
