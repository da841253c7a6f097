//! The experiment harness: regenerates every table and figure of the
//! paper's evaluation (Section 6) plus the illustrative numbers of
//! Sections 3–5.
//!
//! ```text
//! experiments table3 [--paper-scale]   sparse vs dense encoding (Table 3)
//! experiments table4 [--paper-scale]   ZDD-sparse vs dense BDD (Table 4)
//! experiments fig2                     encoding / toggling comparison (Figure 2, Section 3)
//! experiments table1                   the 2-philosopher encoding (Tables 1-2, Figure 3/4)
//! experiments ablation                 Gray vs binary codes, basic vs improved cover
//! experiments strategies               Bfs vs Saturation fixpoint strategies per net
//! experiments properties               CTL property suites of the bundled nets
//! experiments check <props-file>       run a property file against its nets (or --check=FILE)
//! experiments all [--paper-scale]      everything above except `check`
//! experiments smoke                    fast kernel sanity run on the two smallest nets (CI)
//! ```
//!
//! Run with `cargo run --release -p pnsym-bench --bin experiments -- all`.
//!
//! `--strategy=bfs|bfs-full|saturation` selects the fixpoint strategy used
//! by the table3/table4/smoke/properties/check analyses (default `bfs`, the
//! paper's algorithm, although the library default is saturation). The
//! `strategies` command always compares Bfs and Saturation per net. The
//! retired names `chaining`, `chaining-index`, `parallel` and `parallel-N`
//! exit with status 2.
//!
//! Any other `--flag` — a typo such as `--stratgy=saturation`, or a retired
//! flag such as `--threads=N` or `--order=NAME` — is a usage error: the
//! harness names the flag and exits with status 2.
//!
//! `--time-budget=DUR` (e.g. `1ms`, `250us`, `2s`) and `--node-budget=N`
//! put the table3/table4/smoke/properties/check analyses under a resource
//! budget: a run that breaches returns a typed-truncated partial result
//! (printed with its [`TruncationReason`](pnsym_core::TruncationReason))
//! instead of running away. The budgets are recorded in the `--json`
//! output alongside each record's `truncated`/`degraded` columns.
//!
//! A `check` run whose traversal was truncated (by an iteration cap or a
//! budget) exits non-zero: a verdict over a partial state space is not
//! definitive.
//!
//! Passing `--json[=PATH]` additionally writes the per-net timings, node
//! counts and kernel statistics of the table3/table4/strategies/properties
//! runs as JSON (default path `BENCH.json`); the committed `BENCH_*.json`
//! snapshots tracking the performance trajectory across PRs are produced
//! this way.
//!
//! # Property files
//!
//! A property file (see `crates/bench/props/`) interleaves `net` directives
//! with named CTL queries in the textual property language; `#` starts a
//! comment. Each query carries its expected verdict (`holds`, `fails`, or
//! `?` for informational queries); `check` exits non-zero when an
//! expectation is violated, so CI can run a suite in release mode.
//!
//! ```text
//! net philosophers(3)
//! can-eat:            holds  EF eating.0
//! eating-not-fated:   fails  AF eating.0
//! ```

use pnsym_bench::{net_by_spec, table3_workloads, table4_workloads, Scale, Workload};
use pnsym_core::json::Json;
use pnsym_core::server::build_context;
use pnsym_core::{
    analyze, analyze_zdd_governed, analyze_zdd_with, toggling_activity, toggling_of_state_codes,
    AnalysisOptions, AnalysisReport, AssignmentStrategy, Budget, Encoding, FixpointStrategy,
    Property, SymbolicContext, TraversalOptions, ZddAnalysisReport,
};
use pnsym_net::nets::{
    dme, figure1, muller, philosophers, property_suite, slotted_ring, DmeStyle, PropertySpec,
};
use pnsym_net::{Marking, PetriNet};
use pnsym_structural::{find_smcs, select_smc_cover, CoverStrategy};
use std::time::{Duration, Instant};

/// The resource-budget flags (`--time-budget=DUR`, `--node-budget=N`),
/// threaded into every governed analysis. A budgeted run that breaches
/// reports a typed truncation instead of hanging or dying, so the harness
/// prints the reason and (except for `check`, where a truncated verdict is
/// a failure) carries on.
#[derive(Debug, Clone, Copy, Default)]
struct BudgetFlags {
    time: Option<Duration>,
    nodes: Option<usize>,
}

impl BudgetFlags {
    fn is_set(&self) -> bool {
        self.time.is_some() || self.nodes.is_some()
    }

    /// The flags applied to a set of analysis options.
    fn analysis(&self, mut options: AnalysisOptions) -> AnalysisOptions {
        options.traversal.time_budget = self.time;
        options.traversal.node_budget = self.nodes;
        options
    }

    /// The flags applied to traversal options (for direct context runs).
    fn traversal(&self, mut options: TraversalOptions) -> TraversalOptions {
        options.time_budget = self.time;
        options.node_budget = self.nodes;
        options
    }

    /// The flags as a kernel [`Budget`] (for the ZDD engine), when set.
    fn zdd_budget(&self) -> Option<Budget> {
        if !self.is_set() {
            return None;
        }
        let mut budget = Budget::new();
        if let Some(window) = self.time {
            budget = budget.with_deadline(window);
        }
        if let Some(ceiling) = self.nodes {
            budget = budget.with_node_ceiling(ceiling);
        }
        Some(budget)
    }
}

/// Parses `--time-budget` durations: `1ms`, `250us`, `2s`, `500ns`, or a
/// bare integer meaning milliseconds.
fn parse_budget_duration(s: &str) -> Option<Duration> {
    let (digits, nanos_per_unit) = if let Some(v) = s.strip_suffix("ms") {
        (v, 1_000_000)
    } else if let Some(v) = s.strip_suffix("us") {
        (v, 1_000)
    } else if let Some(v) = s.strip_suffix("ns") {
        (v, 1)
    } else if let Some(v) = s.strip_suffix('s') {
        (v, 1_000_000_000)
    } else {
        (s, 1_000_000)
    };
    digits
        .parse::<u64>()
        .ok()
        .map(|n| Duration::from_nanos(n.saturating_mul(nanos_per_unit)))
}

const USAGE: &str = "usage: experiments \
     [table3|table4|fig2|table1|ablation|strategies|properties|check|smoke|all] \
     [--paper-scale] [--strategy=bfs|bfs-full|saturation] [--json[=PATH]] [--check=FILE] \
     [--time-budget=DUR] [--node-budget=N]";

/// Every flag `main` reads. A name ending in `=` takes a value; any other
/// name must match exactly. Anything else starting with `--` — a typo or a
/// retired flag such as `--threads=N` or `--order=NAME` — is a usage error
/// rather than silently ignored.
const KNOWN_FLAGS: [&str; 7] = [
    "--paper-scale",
    "--json",
    "--json=",
    "--strategy=",
    "--check=",
    "--time-budget=",
    "--node-budget=",
];

fn is_known_flag(arg: &str) -> bool {
    KNOWN_FLAGS.iter().any(|&flag| {
        if flag.ends_with('=') {
            arg.starts_with(flag)
        } else {
            arg == flag
        }
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(flag) = args
        .iter()
        .find(|a| a.starts_with("--") && !is_known_flag(a))
    {
        eprintln!("unknown flag `{flag}`");
        eprintln!("{USAGE}");
        std::process::exit(2);
    }
    let paper_scale = args.iter().any(|a| a == "--paper-scale");
    let scale = if paper_scale {
        Scale::Paper
    } else {
        Scale::Default
    };
    let json_path: Option<String> = args.iter().find_map(|a| {
        if a == "--json" {
            Some("BENCH.json".to_string())
        } else {
            a.strip_prefix("--json=").map(str::to_string)
        }
    });
    // The paper's algorithm unless a strategy is named, so the tables keep
    // reproducing the paper.
    let strategy = match args.iter().find_map(|a| a.strip_prefix("--strategy=")) {
        None => FixpointStrategy::Bfs { use_frontier: true },
        Some(name) => name.parse().unwrap_or_else(|err| {
            eprintln!("{err}");
            std::process::exit(2);
        }),
    };
    let check_path: Option<String> = args
        .iter()
        .find_map(|a| a.strip_prefix("--check=").map(str::to_string));
    let budgets = BudgetFlags {
        time: args
            .iter()
            .find_map(|a| a.strip_prefix("--time-budget="))
            .map(|s| {
                parse_budget_duration(s).unwrap_or_else(|| {
                    eprintln!("--time-budget={s}: expected a duration like 1ms, 250us or 2s");
                    std::process::exit(2);
                })
            }),
        nodes: args
            .iter()
            .find_map(|a| a.strip_prefix("--node-budget="))
            .map(|s| {
                s.parse().unwrap_or_else(|_| {
                    eprintln!("--node-budget={s}: expected a positive integer");
                    std::process::exit(2);
                })
            }),
    };
    let non_flags: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    let command = non_flags.first().copied();

    let mut records: Vec<Json> = Vec::new();
    match command {
        Some("table3") => table3(scale, strategy, budgets, &mut records),
        Some("table4") => table4(scale, strategy, budgets, &mut records),
        Some("fig2") => figure2(),
        Some("table1") => table1(),
        Some("ablation") => ablation(),
        Some("strategies") => strategies(scale, &mut records),
        Some("properties") => properties(strategy, budgets, &mut records),
        Some("smoke") => smoke(strategy, budgets, &mut records),
        Some("check") => {
            let path = non_flags.get(1).map(|s| s.to_string()).or(check_path);
            let Some(path) = path else {
                eprintln!("usage: experiments check <props-file> (or --check=FILE)");
                std::process::exit(2);
            };
            check(&path, strategy, budgets, &mut records);
        }
        None if check_path.is_some() => {
            check(
                &check_path.expect("just tested"),
                strategy,
                budgets,
                &mut records,
            );
        }
        Some("all") | None => {
            figure2();
            table1();
            table3(scale, strategy, budgets, &mut records);
            table4(scale, strategy, budgets, &mut records);
            strategies(scale, &mut records);
            properties(strategy, budgets, &mut records);
            ablation();
        }
        Some(other) => {
            eprintln!("unknown command `{other}`");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    }

    if let Some(path) = json_path {
        if records.is_empty() {
            // fig2/table1/ablation emit no per-net records; refusing to
            // write protects a committed BENCH_*.json from being clobbered
            // by an empty snapshot.
            eprintln!("--json: no per-net records produced by this command; not writing {path}");
            return;
        }
        let doc = Json::object(vec![
            ("schema", Json::Str("pnsym-experiments-v1".into())),
            (
                "scale",
                Json::Str(if paper_scale { "paper" } else { "default" }.into()),
            ),
            (
                "time_budget_ms",
                budgets.time.map_or(Json::Str("none".into()), |d| {
                    Json::Float(d.as_secs_f64() * 1e3)
                }),
            ),
            (
                "node_budget",
                budgets
                    .nodes
                    .map_or(Json::Str("none".into()), |n| Json::Int(n as i64)),
            ),
            ("records", Json::Arr(records)),
        ]);
        match std::fs::write(&path, format!("{doc}\n")) {
            Ok(()) => println!("\nwrote {path}"),
            Err(e) => {
                eprintln!("failed to write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}

/// One machine-readable record per (experiment, net, scheme) BDD run.
fn bdd_record(experiment: &str, net: &str, scheme: &str, r: &AnalysisReport) -> Json {
    let s = r.manager_stats;
    let mut record = Json::object(vec![
        ("experiment", Json::Str(experiment.into())),
        ("net", Json::Str(net.into())),
        ("scheme", Json::Str(scheme.into())),
        ("strategy", Json::Str(r.strategy.to_string())),
        ("variables", Json::Int(r.num_variables as i64)),
        ("markings", Json::Float(r.num_markings)),
        ("bdd_nodes", Json::Int(r.bdd_nodes as i64)),
        ("peak_live_nodes", Json::Int(r.peak_live_nodes as i64)),
        ("iterations", Json::Int(r.iterations as i64)),
        (
            "encoding_ms",
            Json::Float(r.encoding_time.as_secs_f64() * 1e3),
        ),
        (
            "traversal_ms",
            Json::Float(r.traversal_time.as_secs_f64() * 1e3),
        ),
        ("total_ms", Json::Float(r.total_time.as_secs_f64() * 1e3)),
        ("unique_entries", Json::Int(s.unique_entries as i64)),
        ("unique_load", Json::Float(s.unique_load())),
        ("cache_hits", Json::Int(s.cache_hits as i64)),
        ("cache_misses", Json::Int(s.cache_misses as i64)),
        ("cache_overwrites", Json::Int(s.cache_overwrites as i64)),
        ("cache_growths", Json::Int(s.cache_growths as i64)),
        ("cache_hit_rate", Json::Float(s.cache_hit_rate())),
        ("cache_capacity", Json::Int(s.cache_capacity as i64)),
        ("gc_runs", Json::Int(s.gc_runs as i64)),
        ("gc_reclaimed", Json::Int(s.gc_reclaimed as i64)),
        (
            "truncated",
            Json::Str(r.truncated.map_or("none".into(), |t| t.to_string())),
        ),
        (
            "degraded",
            Json::Str(r.degraded.map_or("none".into(), |d| format!("{d:?}"))),
        ),
    ]);
    if let Json::Obj(fields) = &mut record {
        for (name, op) in s.per_op() {
            fields.push((format!("op_{name}_hits"), Json::Int(op.hits as i64)));
            fields.push((format!("op_{name}_misses"), Json::Int(op.misses as i64)));
        }
    }
    record
}

/// The ZDD runs carry no BDD-manager statistics.
fn zdd_record(experiment: &str, net: &str, r: &ZddAnalysisReport) -> Json {
    Json::object(vec![
        ("experiment", Json::Str(experiment.into())),
        ("net", Json::Str(net.into())),
        ("scheme", Json::Str("zdd-sparse".into())),
        ("strategy", Json::Str(r.strategy.to_string())),
        ("variables", Json::Int(r.num_variables as i64)),
        ("markings", Json::Float(r.num_markings)),
        ("zdd_nodes", Json::Int(r.zdd_nodes as i64)),
        ("iterations", Json::Int(r.iterations as i64)),
        ("total_ms", Json::Float(r.total_time.as_secs_f64() * 1e3)),
        (
            "truncated",
            Json::Str(r.truncated.map_or("none".into(), |t| t.to_string())),
        ),
    ])
}

/// Compact one-line kernel statistics, printed under each table row.
fn fmt_kernel_stats(r: &AnalysisReport) -> String {
    let s = r.manager_stats;
    format!(
        "cache-hit {:.1}% ({}/{} lookups, {} overwrites, {} growths) uniq-load {:.2} gc {}",
        s.cache_hit_rate() * 100.0,
        s.cache_hits,
        s.cache_hits + s.cache_misses,
        s.cache_overwrites,
        s.cache_growths,
        s.unique_load(),
        s.gc_runs
    )
}

/// Per-operation computed-cache counters (`hit-rate% hits/lookups` per op),
/// printed under the kernel statistics of each table row.
fn fmt_op_stats(r: &AnalysisReport) -> String {
    r.manager_stats
        .per_op()
        .iter()
        .map(|(name, op)| {
            format!(
                "{name} {:.0}% {}/{}",
                op.hit_rate() * 100.0,
                op.hits,
                op.lookups()
            )
        })
        .collect::<Vec<_>>()
        .join("  ")
}

fn fmt_report(name: &str, r: &AnalysisReport) -> String {
    format!(
        "{:<12} {:>12.3e} | {:>5} {:>9} {:>9.2} ",
        name,
        r.num_markings,
        r.num_variables,
        r.bdd_nodes,
        r.total_time.as_secs_f64()
    )
}

/// Table 3: sparse (one variable per place) vs dense (improved SMC)
/// encoding on the Muller pipeline, dining philosophers and slotted ring.
fn table3(scale: Scale, strategy: FixpointStrategy, budgets: BudgetFlags, records: &mut Vec<Json>) {
    println!("\n== Table 3: sparse vs dense encoding ({strategy}) =================");
    println!(
        "{:<12} {:>12} | {:>5} {:>9} {:>9} | {:>5} {:>9} {:>9}",
        "PN", "markings", "V", "BDD", "CPU(s)", "V", "BDD", "CPU(s)"
    );
    println!(
        "{:<12} {:>12} | {:^26} | {:^26}",
        "", "", "sparse encoding", "dense encoding"
    );
    for Workload { name, net } in table3_workloads(scale) {
        let start = Instant::now();
        let sparse = analyze(
            &net,
            &budgets.analysis(AnalysisOptions::sparse().with_strategy(strategy)),
        );
        let dense = analyze(
            &net,
            &budgets.analysis(AnalysisOptions::dense().with_strategy(strategy)),
        );
        match (sparse, dense) {
            (Ok(s), Ok(d)) => {
                if s.truncated.is_none() && d.truncated.is_none() {
                    assert_eq!(s.num_markings, d.num_markings, "{name}: engines disagree");
                } else {
                    println!(
                        "{name:<12} truncated (sparse: {}, dense: {}) — partial rows follow",
                        s.truncated.map_or("no".to_string(), |t| t.to_string()),
                        d.truncated.map_or("no".to_string(), |t| t.to_string()),
                    );
                }
                println!(
                    "{}| {:>5} {:>9} {:>9.2}",
                    fmt_report(&name, &s),
                    d.num_variables,
                    d.bdd_nodes,
                    d.total_time.as_secs_f64()
                );
                println!("             kernel(dense): {}", fmt_kernel_stats(&d));
                println!("             per-op:        {}", fmt_op_stats(&d));
                records.push(bdd_record("table3", &name, "sparse", &s));
                records.push(bdd_record("table3", &name, "improved-dense", &d));
            }
            (s, d) => println!(
                "{name:<12} failed: sparse={:?} dense={:?} after {:.1}s",
                s.err(),
                d.err(),
                start.elapsed().as_secs_f64()
            ),
        }
    }
    println!("(paper: ~50% fewer variables, 2-4x fewer BDD nodes, >=10x faster on muller/slot)");
}

/// Table 4: the ZDD-based sparse representation (Yoneda et al.) vs the dense
/// BDD encoding on the DME and JJreg-style nets.
fn table4(scale: Scale, strategy: FixpointStrategy, budgets: BudgetFlags, records: &mut Vec<Json>) {
    println!("\n== Table 4: ZDD compaction vs dense encoding ({strategy}) =========");
    println!(
        "{:<12} {:>12} | {:>5} {:>9} {:>9} | {:>5} {:>9} {:>9}",
        "PN", "markings", "V", "ZDD", "CPU(s)", "V", "BDD", "CPU(s)"
    );
    println!(
        "{:<12} {:>12} | {:^26} | {:^26}",
        "", "", "ZDD (sparse)", "dense encoding"
    );
    for Workload { name, net } in table4_workloads(scale) {
        let zdd = match budgets.zdd_budget() {
            Some(budget) => analyze_zdd_governed(&net, strategy, budget),
            None => analyze_zdd_with(&net, strategy),
        };
        let dense = analyze(
            &net,
            &budgets.analysis(AnalysisOptions::dense().with_strategy(strategy)),
        );
        match dense {
            Ok(d) => {
                if zdd.truncated.is_none() && d.truncated.is_none() {
                    assert_eq!(zdd.num_markings, d.num_markings, "{name}: engines disagree");
                } else {
                    println!(
                        "{name:<12} truncated (zdd: {}, dense: {}) — partial rows follow",
                        zdd.truncated.map_or("no".to_string(), |t| t.to_string()),
                        d.truncated.map_or("no".to_string(), |t| t.to_string()),
                    );
                }
                println!(
                    "{:<12} {:>12.3e} | {:>5} {:>9} {:>9.2} | {:>5} {:>9} {:>9.2}",
                    name,
                    zdd.num_markings,
                    zdd.num_variables,
                    zdd.zdd_nodes,
                    zdd.total_time.as_secs_f64(),
                    d.num_variables,
                    d.bdd_nodes,
                    d.total_time.as_secs_f64()
                );
                println!("             kernel(dense): {}", fmt_kernel_stats(&d));
                println!("             per-op:        {}", fmt_op_stats(&d));
                records.push(zdd_record("table4", &name, &zdd));
                records.push(bdd_record("table4", &name, "improved-dense", &d));
            }
            Err(e) => println!("{name:<12} dense analysis failed: {e}"),
        }
    }
    println!("(paper: ~40% fewer variables and large node reductions vs ZDDs)");
}

/// Figure 2 / Section 3: the encoding-scheme comparison on the Figure 1 net,
/// including the 15/11 vs 19/11 toggling counts.
fn figure2() {
    println!("\n== Figure 2 / Section 3: encoding schemes on the Figure 1 net =====");
    let net = figure1();
    let rg = net.explore().expect("figure1 is tiny");
    let smcs = find_smcs(&net).expect("figure1");
    println!(
        "net: {} places, {} transitions, {} markings, {} edges",
        net.num_places(),
        net.num_transitions(),
        rg.num_markings(),
        rg.num_edges()
    );

    println!(
        "{:<34} {:>6} {:>10} {:>14}",
        "scheme", "vars", "density", "toggled bits"
    );
    let row = |name: &str, enc: &Encoding| {
        let t = toggling_activity(&net, enc, &rg);
        println!(
            "{:<34} {:>6} {:>10.3} {:>9}/{}",
            name,
            enc.num_vars(),
            enc.density(rg.num_markings() as f64),
            t.total_bits,
            t.num_edges
        );
    };
    row("(a) one variable per place", &Encoding::sparse(&net));
    row(
        "(b) SMC-based, Gray codes",
        &Encoding::improved(&net, &smcs, AssignmentStrategy::Gray),
    );
    row(
        "    SMC-based, binary codes",
        &Encoding::improved(&net, &smcs, AssignmentStrategy::Sequential),
    );

    // The hand-made 3-variable assignments of Figure 2.c / 2.d.
    let index_of = |names: &[&str]| {
        let places: Vec<_> = names
            .iter()
            .map(|n| net.place_by_name(n).unwrap())
            .collect();
        rg.index_of(&Marking::from_places(net.num_places(), &places))
            .unwrap()
    };
    let order = [
        index_of(&["p1"]),
        index_of(&["p2", "p3"]),
        index_of(&["p4", "p5"]),
        index_of(&["p3", "p6"]),
        index_of(&["p2", "p7"]),
        index_of(&["p5", "p6"]),
        index_of(&["p4", "p7"]),
        index_of(&["p6", "p7"]),
    ];
    let fig2c = [0b000u32, 0b001, 0b100, 0b011, 0b101, 0b110, 0b111, 0b010];
    let mut codes_c = vec![0u32; 8];
    let mut codes_d = vec![0u32; 8];
    for (m, &i) in order.iter().enumerate() {
        codes_c[i] = fig2c[m];
        codes_d[i] = m as u32;
    }
    let tc = toggling_of_state_codes(&rg, &codes_c);
    let td = toggling_of_state_codes(&rg, &codes_d);
    println!(
        "(c) optimal 3-var assignment (paper: 15/11)   : {}/{}",
        tc.total_bits, tc.num_edges
    );
    println!(
        "(d) arbitrary 3-var assignment (paper: 19/11) : {}/{}",
        td.total_bits, td.num_edges
    );
}

/// Tables 1–2 / Figures 3–4: the 2-philosopher net, its SMC decomposition,
/// the covering of Section 4.3 and the improved encoding of Section 5.4.
fn table1() {
    println!("\n== Tables 1-2 / Figures 3-4: two dining philosophers ==============");
    let net = philosophers(2);
    let rg = net.explore().expect("tiny");
    let smcs = find_smcs(&net).expect("tiny");
    println!(
        "net: {} places, {} transitions, {} reachable markings (paper: 14 / 10 / 22)",
        net.num_places(),
        net.num_transitions(),
        rg.num_markings()
    );
    println!("SMC decomposition (Figure 3): {} components", smcs.len());
    for (i, smc) in smcs.iter().enumerate() {
        let names: Vec<&str> = smc.places().iter().map(|&p| net.place_name(p)).collect();
        println!("  SM{}: {{{}}}", i + 1, names.join(", "));
    }
    let cover = select_smc_cover(&net, &smcs, CoverStrategy::Exact);
    println!(
        "Section 4.3 basic cover: {} variables (paper: 10)",
        cover.num_variables
    );
    let improved = Encoding::improved(&net, &smcs, AssignmentStrategy::Gray);
    println!(
        "Section 5.4 improved encoding: {} variables (paper: 8, Table 1)",
        improved.num_vars()
    );
    let mut ctx = SymbolicContext::new(&net, improved);
    println!("characteristic functions of the places (Table 2):");
    for p in net.places() {
        let chi = ctx.place_fn(p);
        let formula = ctx
            .manager_mut()
            .format_sop(chi, |v| format!("x{}", v.index() + 1));
        println!("  [{}] = {}", net.place_name(p), formula);
    }
}

/// Fast kernel sanity run for CI: full sparse + dense analysis of the two
/// smallest table-3 nets, cross-checked against explicit exploration, so a
/// kernel regression (wrong counts or a pathological slowdown) surfaces
/// without a full `table3` run.
fn smoke(strategy: FixpointStrategy, budgets: BudgetFlags, records: &mut Vec<Json>) {
    println!("\n== Smoke: kernel sanity on the two smallest nets ({strategy}) =====");
    let mut workloads = table3_workloads(Scale::Default);
    workloads.sort_by_key(|w| w.net.num_places());
    for Workload { name, net } in workloads.into_iter().take(2) {
        let expected = net.explore().expect("smoke nets are tiny").num_markings() as f64;
        let start = Instant::now();
        let sparse = analyze(
            &net,
            &budgets.analysis(AnalysisOptions::sparse().with_strategy(strategy)),
        )
        .expect("sparse analysis");
        let dense = analyze(
            &net,
            &budgets.analysis(AnalysisOptions::dense().with_strategy(strategy)),
        )
        .expect("dense analysis");
        // A budgeted smoke run may legitimately truncate (that is what the
        // CI `--time-budget=1ms` step exercises): the typed reason is the
        // verdict, and the partial counts are under-approximations that
        // cannot be compared to the explicit oracle.
        match (sparse.truncated, dense.truncated) {
            (None, None) => {
                assert_eq!(
                    sparse.num_markings, expected,
                    "{name}: sparse disagrees with explicit exploration"
                );
                assert_eq!(
                    dense.num_markings, expected,
                    "{name}: dense disagrees with explicit exploration"
                );
            }
            (s, d) => {
                assert!(
                    sparse.num_markings <= expected && dense.num_markings <= expected,
                    "{name}: a truncated run must under-approximate"
                );
                println!(
                    "{name:<12} truncated (sparse: {}, dense: {}) — budgets honored, partial \
                     results returned",
                    s.map_or("no".to_string(), |t| t.to_string()),
                    d.map_or("no".to_string(), |t| t.to_string()),
                );
            }
        }
        println!(
            "{name:<12} {expected:>8} markings  sparse {:.3}s  dense {:.3}s  total {:.3}s",
            sparse.total_time.as_secs_f64(),
            dense.total_time.as_secs_f64(),
            start.elapsed().as_secs_f64()
        );
        println!("             kernel(dense): {}", fmt_kernel_stats(&dense));
        println!("             per-op:        {}", fmt_op_stats(&dense));
        records.push(bdd_record("smoke", &name, "sparse", &sparse));
        records.push(bdd_record("smoke", &name, "improved-dense", &dense));
    }
    println!("smoke OK");
}

/// Bfs vs Saturation comparison per net: the dense analysis of every
/// table-3 and table-4 workload under both strategies, medians over several
/// runs. The marking counts must agree (the strategies compute the same
/// fixpoint); what differs is the number of iterations/sweeps, the peak
/// node pressure, and the traversal time. The printed speedup is
/// bfs/saturation.
fn strategies(scale: Scale, records: &mut Vec<Json>) {
    const SAMPLES: usize = 9;
    println!("\n== Strategies: Bfs vs Saturation (dense encoding, median of {SAMPLES}) ====");
    println!(
        "{:<12} {:>12} | {:>5} {:>8} {:>9} | {:>5} {:>8} {:>9} | {:>6}",
        "PN", "markings", "iters", "peak", "trav(ms)", "sweep", "peak", "trav(ms)", "b/s"
    );
    println!(
        "{:<12} {:>12} | {:^24} | {:^24} |",
        "", "", "bfs (frontier)", "saturation (levels)"
    );
    let compared = [
        FixpointStrategy::Bfs { use_frontier: true },
        FixpointStrategy::Saturation,
    ];
    let mut workloads = table3_workloads(scale);
    workloads.extend(table4_workloads(scale));
    for Workload { name, net } in workloads {
        // One report (median traversal time over SAMPLES runs) per
        // strategy. Samples are interleaved round-robin across the
        // strategies so ambient load drift hits every strategy equally
        // instead of biasing whichever one happened to run during a spike.
        let mut runs: Vec<Vec<AnalysisReport>> = vec![Vec::new(); compared.len()];
        let mut failed = false;
        'sampling: for _ in 0..SAMPLES {
            for (si, strategy) in compared.into_iter().enumerate() {
                let options = AnalysisOptions::dense().with_strategy(strategy);
                match analyze(&net, &options) {
                    Ok(r) => runs[si].push(r),
                    Err(e) => {
                        println!("{name:<12} {strategy} analysis failed: {e}");
                        failed = true;
                        break 'sampling;
                    }
                }
            }
        }
        if failed {
            continue;
        }
        let mut rows: Vec<(AnalysisReport, f64)> = Vec::new();
        for mut samples in runs {
            samples.sort_by_key(|a| a.traversal_time);
            let median_ms = samples[samples.len() / 2].traversal_time.as_secs_f64() * 1e3;
            let representative = samples.swap_remove(samples.len() / 2);
            rows.push((representative, median_ms));
        }
        let (bfs, bfs_ms) = &rows[0];
        let (sat, sat_ms) = &rows[1];
        assert_eq!(
            bfs.num_markings, sat.num_markings,
            "{name}: saturation disagrees on the fixpoint"
        );
        println!(
            "{:<12} {:>12.3e} | {:>5} {:>8} {:>9.3} | {:>5} {:>8} {:>9.3} | {:>5.2}x",
            name,
            bfs.num_markings,
            bfs.iterations,
            bfs.peak_live_nodes,
            bfs_ms,
            sat.iterations,
            sat.peak_live_nodes,
            sat_ms,
            bfs_ms / sat_ms
        );
        for (report, median_ms) in &rows {
            let mut record = bdd_record("strategies", &name, "improved-dense", report);
            if let Json::Obj(fields) = &mut record {
                fields.push(("median_traversal_ms".to_string(), Json::Float(*median_ms)));
                fields.push(("samples".to_string(), Json::Int(SAMPLES as i64)));
            }
            records.push(record);
        }
    }
    println!("(both strategies must match the bfs markings exactly)");
}

/// Checks one suite against one net, printing the per-property table rows.
/// Returns whether every recorded expectation was met.
fn run_property_suite(
    net: &PetriNet,
    queries: &[PropertySpec],
    strategy: FixpointStrategy,
    budgets: BudgetFlags,
    records: &mut Vec<Json>,
) -> bool {
    println!(
        "\n-- {} ({} queries, {strategy})",
        net.name(),
        queries.len()
    );
    println!(
        "   {:<20} {:>7} {:>7} {:>12} {:>8} {:>9}  formula",
        "property", "verdict", "expect", "sat/reached", "witness", "time(ms)"
    );
    let mut ctx = build_context(net);
    let mut all_met = true;
    for query in queries {
        let prop = match Property::parse(&query.formula, net) {
            Ok(p) => p,
            Err(e) => {
                println!("   {:<20} PARSE ERROR {e}  {}", query.name, query.formula);
                all_met = false;
                continue;
            }
        };
        let report = ctx.check_property_with(
            &prop,
            budgets.traversal(TraversalOptions::with_strategy(strategy)),
        );
        let verdict = if report.holds { "holds" } else { "fails" };
        let expect = match query.expect {
            Some(true) => "holds",
            Some(false) => "fails",
            None => "?",
        };
        // A verdict over a truncated traversal is not definitive — never
        // count it as meeting an expectation, even when it happens to agree.
        let met = query.expect.is_none_or(|e| e == report.holds) && report.truncated.is_none();
        all_met &= met;
        let witness = report
            .trace
            .as_ref()
            .map_or("-".to_string(), |t| t.len().to_string());
        let ms = report.duration.as_secs_f64() * 1e3;
        let marker = match report.truncated {
            Some(reason) => format!("  <-- TRUNCATED ({reason}: not definitive)"),
            None if met => String::new(),
            None => "  <-- MISMATCH".to_string(),
        };
        println!(
            "   {:<20} {:>7} {:>7} {:>12} {:>8} {:>9.2}  {}{}",
            query.name,
            verdict,
            expect,
            format!("{}/{}", report.sat_markings, report.reached_markings),
            witness,
            ms,
            query.formula,
            marker
        );
        records.push(Json::object(vec![
            ("experiment", Json::Str("properties".into())),
            ("net", Json::Str(net.name().into())),
            ("property", Json::Str(query.name.clone())),
            ("formula", Json::Str(query.formula.clone())),
            ("strategy", Json::Str(strategy.to_string())),
            ("holds", Json::Str(verdict.into())),
            ("expected", Json::Str(expect.into())),
            ("sat_markings", Json::Float(report.sat_markings)),
            ("reached_markings", Json::Float(report.reached_markings)),
            (
                "truncated",
                Json::Str(report.truncated.map_or("none".into(), |t| t.to_string())),
            ),
            (
                "witness_len",
                Json::Int(report.trace.as_ref().map_or(-1, |t| t.len() as i64)),
            ),
            ("check_ms", Json::Float(ms)),
        ]));
    }
    all_met
}

/// The bundled per-net CTL property suites (mutual exclusion, liveness,
/// deadlock, ordering) on a representative instance of every family.
fn properties(strategy: FixpointStrategy, budgets: BudgetFlags, records: &mut Vec<Json>) {
    println!("\n== Properties: bundled CTL suites ({strategy}) ====================");
    let nets = [
        figure1(),
        philosophers(3),
        muller(6),
        slotted_ring(3),
        dme(3, DmeStyle::Spec),
    ];
    let mut all_met = true;
    for net in nets {
        let suite = property_suite(&net);
        all_met &= run_property_suite(&net, &suite, strategy, budgets, records);
    }
    if budgets.is_set() {
        // Budgeted verdicts are typed-truncated, not definitive; report
        // instead of asserting.
        if !all_met {
            println!("(budgeted run: some verdicts truncated or mismatched — not asserting)");
        }
    } else {
        assert!(all_met, "a bundled property suite missed its expectation");
    }
    println!("(verdicts are pinned against the explicit-state checker by tests/ctl_props.rs)");
}

/// Parses a property file: `net <spec>` directives followed by
/// `name: holds|fails|? formula` lines; `#` starts a comment.
fn parse_props_file(text: &str) -> Result<Vec<(PetriNet, Vec<PropertySpec>)>, String> {
    let mut suites: Vec<(PetriNet, Vec<PropertySpec>)> = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let err = |msg: String| format!("line {}: {msg}", lineno + 1);
        if let Some(spec) = line.strip_prefix("net ") {
            let net = net_by_spec(spec)
                .ok_or_else(|| err(format!("unknown net specifier `{}`", spec.trim())))?;
            suites.push((net, Vec::new()));
            continue;
        }
        let (name, rest) = line
            .split_once(':')
            .ok_or_else(|| err("expected `name: verdict formula`".into()))?;
        let rest = rest.trim();
        let (verdict, formula) = rest
            .split_once(char::is_whitespace)
            .ok_or_else(|| err("expected a formula after the verdict".into()))?;
        let expect = match verdict {
            "holds" => Some(true),
            "fails" => Some(false),
            "?" => None,
            other => {
                return Err(err(format!(
                    "unknown verdict `{other}` (expected holds|fails|?)"
                )))
            }
        };
        let suite = suites
            .last_mut()
            .ok_or_else(|| err("property before any `net` directive".into()))?;
        suite.1.push(PropertySpec {
            name: name.trim().to_string(),
            formula: formula.trim().to_string(),
            expect,
        });
    }
    Ok(suites)
}

/// `experiments check <file>`: run every suite of a property file and exit
/// non-zero when a recorded expectation is violated.
fn check(path: &str, strategy: FixpointStrategy, budgets: BudgetFlags, records: &mut Vec<Json>) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("check: cannot read {path}: {e}");
        std::process::exit(2);
    });
    let suites = parse_props_file(&text).unwrap_or_else(|e| {
        eprintln!("check: {path}: {e}");
        std::process::exit(2);
    });
    println!("\n== Check: {path} ({strategy}) =====================================");
    let mut all_met = true;
    for (net, queries) in &suites {
        all_met &= run_property_suite(net, queries, strategy, budgets, records);
    }
    if !all_met {
        eprintln!("check: expectation mismatches or truncated verdicts in {path}");
        std::process::exit(1);
    }
    println!("check OK ({} suites)", suites.len());
}

/// Ablations: Gray vs binary code assignment, basic vs improved scheme,
/// greedy vs exact covering.
fn ablation() {
    println!("\n== Ablations =======================================================");
    println!(
        "{:<12} {:>22} {:>22} {:>22}",
        "PN", "improved+Gray", "improved+binary", "basic cover"
    );
    for Workload { name, net } in table3_workloads(Scale::Default) {
        let smcs = match find_smcs(&net) {
            Ok(s) => s,
            Err(e) => {
                println!("{name:<12} structural failure: {e}");
                continue;
            }
        };
        let rg = net.explore().ok();
        let gray = Encoding::improved(&net, &smcs, AssignmentStrategy::Gray);
        let seq = Encoding::improved(&net, &smcs, AssignmentStrategy::Sequential);
        let basic = Encoding::dense(&net, &smcs, CoverStrategy::Greedy, AssignmentStrategy::Gray);
        let describe = |enc: &Encoding| -> String {
            match rg.as_ref() {
                Some(rg) => format!(
                    "V={:<3} avg-toggle={:.2}",
                    enc.num_vars(),
                    toggling_activity(&net, enc, rg).average()
                ),
                None => format!("V={:<3} avg-toggle=  - ", enc.num_vars()),
            }
        };
        println!(
            "{:<12} {:>22} {:>22} {:>22}",
            name,
            describe(&gray),
            describe(&seq),
            describe(&basic)
        );
    }
}
