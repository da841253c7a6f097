//! The in-process workloads `encode`, `reach` and `ctl`: one operation is
//! one cold analysis of one net, timed as a whole (untraced) or as the
//! sequence of public layer calls it is made of (traced).

use crate::reference::Reference;
use crate::refs::{count_matches, spec, suite, Expectation, Family, NetSpec};
use crate::stats::{fast, geomean, median, ms, peak_rss_mb, Metrics, Tally};
use crate::trace::{RoundLayers, Tracer};
use crate::{Args, Outcome, SETUPS};
use pnsym_bdd::ManagerStats;
use pnsym_core::server::{build_context, canonical_net_hash, SnapshotStore, WarmContext};
use pnsym_core::{
    analyze, build_encoding, AnalysisOptions, AssignmentStrategy, Encoding, FixpointStrategy,
    PortfolioReport, Property, ReachabilityResult, SchemeKind, SiftPolicy, SymbolicContext,
    TraversalOptions, VariableOrder,
};
use pnsym_net::PetriNet;
use pnsym_structural::{
    minimal_invariants_with, smcs_from_invariants, CoverStrategy, InvariantOptions,
};
use std::path::Path;
use std::time::{Duration, Instant};

/// Live-node count above which the kernel collects garbage between passes.
pub const GC_THRESHOLD: usize = 500_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Encode,
    Reach,
    Ctl,
}

/// One net of a ladder with the traversal strategy it runs under.
#[derive(Debug, Clone, Copy)]
pub struct Arm {
    pub net: NetSpec,
    pub strategy: FixpointStrategy,
}

const SAT: FixpointStrategy = FixpointStrategy::Saturation;
const BFS: FixpointStrategy = FixpointStrategy::Bfs { use_frontier: true };

/// The ladder of a workload. Every net stays at or below 48 encoding
/// variables.
pub fn ladder(kind: Kind) -> Vec<Arm> {
    let arm = |family, n, strategy| Arm {
        net: spec(family, n),
        strategy,
    };
    match kind {
        Kind::Encode => vec![
            arm(Family::DmeSpec, 9, SAT),
            arm(Family::DmeSpec, 10, SAT),
            arm(Family::DmeCir, 7, SAT),
            arm(Family::DmeCir, 8, SAT),
        ],
        Kind::Reach => vec![
            arm(Family::Muller, 24, SAT),
            arm(Family::Slot, 12, SAT),
            arm(Family::Muller, 12, BFS),
            arm(Family::Slot, 12, BFS),
            arm(Family::Phil, 10, BFS),
        ],
        Kind::Ctl => vec![
            arm(Family::Phil, 10, SAT),
            arm(Family::Muller, 16, SAT),
            arm(Family::Slot, 12, SAT),
            arm(Family::DmeCir, 7, SAT),
        ],
    }
}

/// Traversal options with every setting the benchmark depends on named;
/// the budgets keep their default, which is none.
#[allow(clippy::needless_update)]
pub fn traversal(strategy: FixpointStrategy) -> TraversalOptions {
    TraversalOptions {
        strategy,
        gc_threshold: GC_THRESHOLD,
        sift: SiftPolicy::Never,
        ..TraversalOptions::default()
    }
}

/// The paper's improved dense encoding with Gray codes, structural
/// variable order and the given strategy.
#[allow(clippy::needless_update)]
pub fn analysis_options(strategy: FixpointStrategy) -> AnalysisOptions {
    AnalysisOptions {
        scheme: SchemeKind::ImprovedDense,
        assignment: AssignmentStrategy::Gray,
        cover_strategy: CoverStrategy::Greedy,
        invariants: InvariantOptions::default(),
        order: VariableOrder::Structural,
        traversal: traversal(strategy),
        ..AnalysisOptions::default()
    }
}

/// A ladder net made ready for timing: generated, and its suite parsed.
pub struct Input {
    pub arm: Arm,
    pub net: PetriNet,
    pub suite: Vec<(Expectation, Property)>,
}

impl Input {
    pub fn new(arm: Arm) -> Input {
        let net = arm.net.build();
        let suite = suite(&net)
            .into_iter()
            .map(|e| {
                let property = Property::parse(&e.formula, &net)
                    .unwrap_or_else(|err| panic!("{}: {}: {err}", net.name(), e.name));
                (e, property)
            })
            .collect();
        Input { arm, net, suite }
    }

    fn properties(&self) -> Vec<Property> {
        self.suite.iter().map(|(_, p)| p.clone()).collect()
    }

    fn options(&self) -> AnalysisOptions {
        analysis_options(self.arm.strategy)
    }

    fn fresh_context(&self) -> SymbolicContext {
        let encoding = build_encoding(&self.net, &self.options()).expect("ladder nets encode");
        SymbolicContext::new(&self.net, encoding)
    }
}

fn check_reach(input: &Input, run: &ReachabilityResult) -> Option<String> {
    let name = input.arm.net.name();
    if let Some(reason) = run.truncated {
        return Some(format!("{name}: traversal truncated ({reason:?})"));
    }
    let expected = input.arm.net.markings();
    (!count_matches(run.num_markings, expected))
        .then(|| format!("{name}: {} markings, expected {expected}", run.num_markings))
}

fn check_deadlocks(input: &Input, reported: f64) -> Option<String> {
    let expected = input.arm.net.deadlocks();
    (!count_matches(reported, expected)).then(|| {
        format!(
            "{}: {reported} deadlocks, expected {expected}",
            input.arm.net.name()
        )
    })
}

fn check_portfolio(input: &Input, portfolio: &PortfolioReport) -> Option<String> {
    let name = input.arm.net.name();
    if portfolio.reports.len() != input.suite.len() {
        return Some(format!(
            "{name}: portfolio answered {} of {} properties",
            portfolio.reports.len(),
            input.suite.len()
        ));
    }
    for ((expect, _), report) in input.suite.iter().zip(&portfolio.reports) {
        if let Some(reason) = report.truncated {
            return Some(format!("{name}: {} truncated ({reason:?})", expect.name));
        }
        if report.holds != expect.holds {
            return Some(format!(
                "{name}: {} = {}, expected {}",
                expect.name, report.holds, expect.holds
            ));
        }
        if !count_matches(report.reached_markings, input.arm.net.markings()) {
            return Some(format!(
                "{name}: {} evaluated over {} markings",
                expect.name, report.reached_markings
            ));
        }
        if let Some(trace) = &report.trace {
            let from_start = trace.markings.first() == Some(input.net.initial_marking());
            if !from_start || !trace.validate(&input.net) {
                return Some(format!("{name}: {} trace does not replay", expect.name));
            }
        }
    }
    None
}

/// One untraced operation: the workload's public entry point on one net,
/// with its outputs checked.
pub fn run_op(kind: Kind, input: &Input) -> Option<String> {
    match kind {
        Kind::Encode | Kind::Reach => {
            let report = match analyze(&input.net, &input.options()) {
                Ok(report) => report,
                Err(err) => return Some(format!("{}: {err}", input.arm.net.name())),
            };
            if let Some(reason) = report.truncated {
                return Some(format!("{}: truncated ({reason:?})", report.net_name));
            }
            if !count_matches(report.num_markings, input.arm.net.markings()) {
                return Some(format!(
                    "{}: {} markings, expected {}",
                    report.net_name,
                    report.num_markings,
                    input.arm.net.markings()
                ));
            }
            check_deadlocks(input, report.num_deadlocks)
        }
        Kind::Ctl => {
            let mut ctx = input.fresh_context();
            let options = traversal(input.arm.strategy);
            let run = ctx.reachable_markings_with(options);
            let portfolio = ctx.check_portfolio_on(&input.properties(), &run, options);
            check_reach(input, &run).or_else(|| check_portfolio(input, &portfolio))
        }
    }
}

fn bdd_counters(tr: &mut Tracer, before: &ManagerStats, after: &ManagerStats) {
    let lookups = |s: &ManagerStats| (s.cache_hits + s.cache_misses) as f64;
    tr.add("bdd.cache_lookups", lookups(after) - lookups(before));
    tr.add(
        "bdd.cache_hits",
        (after.cache_hits - before.cache_hits) as f64,
    );
    tr.add(
        "bdd.and_exists_lookups",
        (after.op_and_exists.lookups() - before.op_and_exists.lookups()) as f64,
    );
    tr.add("bdd.gc_runs", (after.gc_runs - before.gc_runs) as f64);
    tr.max("bdd.peak_live_nodes", after.peak_live_nodes as f64);
}

/// The structural pass, the encoding and the context, each in its span.
fn traced_context(input: &Input, tr: &mut Tracer) -> SymbolicContext {
    let options = input.options();
    let invariants = tr.span("structural.invariants", || {
        minimal_invariants_with(&input.net, options.invariants).expect("ladder nets encode")
    });
    let smcs = tr.span("structural.smcs", || {
        smcs_from_invariants(&input.net, &invariants)
    });
    let encoding = tr.span("encoding.build", || {
        Encoding::improved(&input.net, &smcs, options.assignment)
    });
    tr.add("structural.invariants", invariants.len() as f64);
    tr.add("structural.smcs", smcs.len() as f64);
    tr.add("encoding.vars", encoding.num_vars() as f64);
    tr.span("context.build", || {
        let mut ctx = SymbolicContext::new(&input.net, encoding);
        ctx.image_plan();
        ctx
    })
}

fn traced_reach(input: &Input, ctx: &mut SymbolicContext, tr: &mut Tracer) -> ReachabilityResult {
    let before = ctx.stats();
    let run = tr.span("traverse", || {
        ctx.reachable_markings_with(traversal(input.arm.strategy))
    });
    bdd_counters(tr, &before, &ctx.stats());
    tr.add("traverse.iterations", run.iterations as f64);
    run
}

fn traced_deadlocks(
    input: &Input,
    ctx: &mut SymbolicContext,
    run: &ReachabilityResult,
    tr: &mut Tracer,
) -> Option<String> {
    let before = ctx.stats();
    let deadlocks = tr.span("deadlock", || {
        let dead = ctx.deadlocks_in(run.reached);
        ctx.count_markings(dead)
    });
    bdd_counters(tr, &before, &ctx.stats());
    check_deadlocks(input, deadlocks)
}

/// The model checker on a fresh context `ctx` that has reached `run`:
/// the pre-image plan, then the suite portfolio. As a probe, each
/// property's satisfaction set is first computed alone on a second fresh
/// context, so that `mc.witness_ms` is the portfolio time less `mc.sat_ms`.
fn traced_mc(
    input: &Input,
    ctx: &mut SymbolicContext,
    run: &ReachabilityResult,
    tr: &mut Tracer,
) -> Option<String> {
    let probe = Instant::now();
    let mut alone = SymbolicContext::new(&input.net, ctx.encoding().clone());
    let reached = alone
        .reachable_markings_with(traversal(input.arm.strategy))
        .reached;
    let mut sat_ms = 0.0;
    for (_, property) in &input.suite {
        let start = Instant::now();
        let sat = tr.span("mc.sat", || alone.sat_set(property, reached));
        sat_ms += ms(start.elapsed());
        alone.manager_mut().protect(sat);
    }
    drop(alone);
    tr.add_probe(ms(probe.elapsed()));

    let before = ctx.stats();
    tr.span("mc.preplan", || ctx.pre_image_plan());
    let start = Instant::now();
    let options = traversal(input.arm.strategy);
    let portfolio = tr.span("mc.portfolio", || {
        ctx.check_portfolio_on(&input.properties(), run, options)
    });
    let portfolio_ms = ms(start.elapsed());
    bdd_counters(tr, &before, &ctx.stats());
    tr.add("mc.witness_ms", portfolio_ms - sat_ms);
    tr.add("mc.subterm_hits", portfolio.subterm_hits as f64);
    tr.add("mc.subterm_lookups", portfolio.subterm_lookups as f64);
    check_portfolio(input, &portfolio)
}

/// One traced operation: the same work as [`run_op`], as its sequence of
/// layer calls.
pub fn traced_op(kind: Kind, input: &Input, tr: &mut Tracer) -> Option<String> {
    let mut ctx = traced_context(input, tr);
    let run = traced_reach(input, &mut ctx, tr);
    check_reach(input, &run).or_else(|| match kind {
        Kind::Encode | Kind::Reach => traced_deadlocks(input, &mut ctx, &run, tr),
        Kind::Ctl => traced_mc(input, &mut ctx, &run, tr),
    })
}

/// Every layer an operation of `kind` does not cross, measured once on
/// `input` after the traced rounds: deadlock detection or the model
/// checker, the daemon's context rebuild, and a snapshot save and
/// restore through `snapshot_dir`.
pub fn probe_layers(
    kind: Kind,
    input: &Input,
    snapshot_dir: &Path,
    tr: &mut Tracer,
) -> Option<String> {
    let mut ctx = input.fresh_context();
    let run = ctx.reachable_markings_with(traversal(input.arm.strategy));
    let mut problem = check_reach(input, &run);
    problem = problem.or(match kind {
        Kind::Encode | Kind::Reach => traced_mc(input, &mut ctx, &run, tr),
        Kind::Ctl => traced_deadlocks(input, &mut ctx, &run, tr),
    });
    drop(ctx);
    problem.or(probe_snapshot(input.arm.net, &input.net, snapshot_dir, tr))
}

/// Cold context builds timed per net; `context.rebuild_ms` is the fastest.
const REBUILDS: usize = 5;

/// `context.rebuild_ms`, `snapshot.save_ms`, `snapshot.restore_ms` and
/// `snapshot.bytes` for one net: the daemon's cold context build, a warm
/// context's save, and its restore into a rebuilt context.
pub fn probe_snapshot(
    spec: NetSpec,
    net: &PetriNet,
    dir: &Path,
    tr: &mut Tracer,
) -> Option<String> {
    let name = spec.name();
    let mut store = match SnapshotStore::open(dir) {
        Ok(store) => store,
        Err(err) => return Some(format!("{name}: snapshot dir: {err}")),
    };
    let key = canonical_net_hash(net);
    let timed_build = || {
        let clock = Instant::now();
        let ctx = build_context(net);
        (ctx, ms(clock.elapsed()))
    };
    let (ctx, first_build_ms) = timed_build();
    let mut warm = WarmContext::new(key, name.clone(), ctx);
    let run = warm.context_mut().reachable_markings_with(traversal(SAT));
    if !count_matches(run.num_markings, spec.markings()) {
        return Some(format!("{name}: {} markings before save", run.num_markings));
    }
    warm.store_reached(SAT, run);
    if let Err(err) = tr.span("snapshot.save", || store.save_warm(&warm)) {
        return Some(format!("{name}: snapshot save: {err}"));
    }
    drop(warm);
    let bytes: u64 = std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0);
    tr.add("snapshot.bytes", bytes as f64);
    let mut rebuild_ms = first_build_ms;
    for _ in 0..REBUILDS - 1 {
        rebuild_ms = rebuild_ms.min(timed_build().1);
    }
    tr.add("context.rebuild_ms", rebuild_ms);
    let mut cold = build_context(net);
    let restored = tr.span("snapshot.restore", || store.restore_warm(key, &mut cold));
    store.discard_warm(key);
    match restored {
        Some(Ok(results)) => match results.iter().find(|(s, _)| *s == SAT) {
            Some((_, run)) if count_matches(run.num_markings, spec.markings()) => None,
            Some((_, run)) => Some(format!("{name}: restored {} markings", run.num_markings)),
            None => Some(format!(
                "{name}: restored snapshot lacks the saturation result"
            )),
        },
        Some(Err(reason)) => Some(format!("{name}: snapshot rejected: {reason}")),
        None => Some(format!("{name}: snapshot missing after save")),
    }
}

/// Per-layer metrics taken from the traced rounds: time spans (reported
/// with an `_ms` suffix or `.ms`), then recorded values.
const ROUND_SPANS: &[(&str, &str)] = &[
    ("structural.invariants", "structural.invariants_ms"),
    ("structural.smcs", "structural.smcs_ms"),
    ("encoding.build", "encoding.build_ms"),
    ("context.build", "context.build_ms"),
    ("traverse", "traverse.ms"),
    ("deadlock", "deadlock.ms"),
    ("mc.preplan", "mc.preplan_ms"),
    ("mc.sat", "mc.sat_ms"),
    ("snapshot.save", "snapshot.save_ms"),
    ("snapshot.restore", "snapshot.restore_ms"),
];

const ROUND_COUNTS: &[(&str, &str)] = &[
    ("structural.invariants", "count"),
    ("structural.smcs", "count"),
    ("encoding.vars", "count"),
    ("traverse.iterations", "count"),
    ("bdd.cache_lookups", "count"),
    ("bdd.and_exists_lookups", "count"),
    ("bdd.peak_live_nodes", "count"),
    ("bdd.gc_runs", "count"),
    ("mc.witness_ms", "ms"),
    ("context.rebuild_ms", "ms"),
    ("snapshot.bytes", "bytes"),
];

/// The layers whose figures come from the traced rounds when the
/// operation crosses them, and from the probe pass otherwise.
pub fn layer_metrics(rounds: &[RoundLayers], probe: &RoundLayers, out: &mut Metrics) {
    let from_rounds = |get: &dyn Fn(&RoundLayers) -> Option<f64>| -> f64 {
        let values: Vec<f64> = rounds.iter().filter_map(get).collect();
        if values.is_empty() {
            get(probe).unwrap_or(0.0)
        } else {
            median(&values)
        }
    };
    for &(span, metric) in ROUND_SPANS {
        out.put(metric, from_rounds(&|r| r.ms.get(span).copied()), "ms");
    }
    for &(counter, unit) in ROUND_COUNTS {
        out.put(
            counter,
            from_rounds(&|r| r.counts.get(counter).copied()),
            unit,
        );
    }
    let ratio = |hits: &'static str, lookups: &'static str| {
        move |r: &RoundLayers| Some(r.counts.get(hits)? / r.counts.get(lookups)?)
    };
    out.put(
        "bdd.cache_hit_rate",
        from_rounds(&ratio("bdd.cache_hits", "bdd.cache_lookups")),
        "ratio",
    );
    out.put(
        "mc.subterm_hit_rate",
        from_rounds(&ratio("mc.subterm_hits", "mc.subterm_lookups")),
        "ratio",
    );
}

/// One set-up: generate the nets, parse the suites, and run one checked
/// warm-up round. Returns the inputs and the set-up's wall time in s.
fn set_up(kind: Kind, arms: &[Arm], order: &[usize], tally: &mut Tally) -> (Vec<Input>, f64) {
    let clock = Instant::now();
    let inputs: Vec<Input> = arms.iter().map(|&arm| Input::new(arm)).collect();
    for &i in order {
        tally.record(run_op(kind, &inputs[i]));
    }
    (inputs, clock.elapsed().as_secs_f64())
}

/// Runs an in-process workload.
pub fn run(kind: Kind, args: &Args) -> Result<Outcome, String> {
    let arms = ladder(kind);
    let start = (args.seed % arms.len() as u64) as usize;
    let order: Vec<usize> = (0..arms.len()).map(|i| (start + i) % arms.len()).collect();
    let mut tally = Tally::default();

    let (mut inputs, first_setup) = set_up(kind, &arms, &order, &mut tally);
    let mut setups = vec![first_setup];

    let budget = Duration::from_secs_f64(args.seconds);
    let clock = Instant::now();
    let mut reference = Reference::new();
    let mut reference_ms = vec![reference.run_ms()];
    let mut op_ms: Vec<Vec<f64>> = vec![Vec::new(); arms.len()];
    // Each operation's time over the mean of the reference runs on either
    // side of it.
    let mut op_rel: Vec<Vec<f64>> = vec![Vec::new(); arms.len()];
    let mut traced_op_ms: Vec<Vec<f64>> = vec![Vec::new(); arms.len()];
    let mut traced_ms = Vec::new();
    let mut traced_layers = Vec::new();
    let mut tracer = Tracer::new();
    let mut rounds = 0;
    loop {
        // The other set-ups are spread evenly over the run, so that a slow
        // spell of the host meets one or two of them rather than all.
        let due = budget.mul_f64(setups.len() as f64 / SETUPS as f64);
        if setups.len() < SETUPS && clock.elapsed() >= due {
            let (fresh, secs) = set_up(kind, &arms, &order, &mut tally);
            inputs = fresh;
            setups.push(secs);
            reference_ms.push(reference.run_ms());
        }
        for &i in &order {
            let op = Instant::now();
            tally.record(run_op(kind, &inputs[i]));
            let elapsed = ms(op.elapsed());
            let before = reference_ms[reference_ms.len() - 1];
            let after = reference.run_ms();
            reference_ms.push(after);
            op_ms[i].push(elapsed);
            op_rel[i].push(elapsed / ((before + after) / 2.0));
        }
        rounds += 1;
        if args.trace {
            // Traced and untraced rounds alternate, so the overhead of
            // tracing is measured under the same conditions. Probes are
            // left out of an operation's time.
            let mut round_ms = 0.0;
            for &i in &order {
                let probed = tracer.probe_ms();
                let op = Instant::now();
                tally.record(traced_op(kind, &inputs[i], &mut tracer));
                let op_ms = ms(op.elapsed()) - (tracer.probe_ms() - probed);
                traced_op_ms[i].push(op_ms);
                round_ms += op_ms;
            }
            traced_ms.push(round_ms);
            traced_layers.push(tracer.finish_round());
            // The next untraced operation's reference run before it.
            reference_ms.push(reference.run_ms());
        }
        if clock.elapsed() >= budget && setups.len() == SETUPS {
            break;
        }
    }

    let mut detail = Metrics::default();
    detail.put("rounds", rounds as f64, "count");
    detail.put("reference_ms.p50", median(&reference_ms), "ms");
    detail.put("reference_ms.min", fast(&reference_ms), "ms");
    let per_net = |samples: &[Vec<f64>], stat: fn(&[f64]) -> f64| -> Vec<f64> {
        samples.iter().map(|s| stat(s)).collect()
    };
    detail.put(
        "round_s.p50",
        per_net(&op_ms, median).iter().sum::<f64>() / 1e3,
        "s",
    );
    detail.put(
        "round_s.min",
        per_net(&op_ms, fast).iter().sum::<f64>() / 1e3,
        "s",
    );
    for ((arm, samples), rel) in arms.iter().zip(&op_ms).zip(&op_rel) {
        let name = format!("{}.{}", arm.net.name(), arm.strategy);
        detail.put(format!("op_ms.{name}.min"), fast(samples), "ms");
        detail.put(format!("op_ms.{name}.p50"), median(samples), "ms");
        detail.put(format!("op_rel.{name}.p50"), median(rel), "ratio");
    }
    let mut metrics = Metrics::default();
    if !args.trace {
        let rel = per_net(&op_rel, median);
        metrics.put("setup_s", median(&setups), "s");
        metrics.put(
            "peak_rss_mb",
            peak_rss_mb().ok_or("cannot read VmHWM")?,
            "MiB",
        );
        metrics.put("round_rel", rel.iter().sum::<f64>(), "ratio");
        metrics.put("op_rel.geomean", geomean(&rel), "ratio");
        return Ok(Outcome {
            metrics,
            tally,
            detail,
        });
    }

    // The probe pass: each distinct net once, for the layers the
    // operation does not cross.
    let snapshot_dir = args
        .work_dir
        .join(format!("probe-snapshots-{}", std::process::id()));
    let mut probe = Tracer::new();
    let mut distinct = Vec::new();
    for input in &inputs {
        if !distinct.contains(&input.arm.net) {
            distinct.push(input.arm.net);
            tally.record(probe_layers(kind, input, &snapshot_dir, &mut probe));
        }
    }
    let _ = std::fs::remove_dir_all(&snapshot_dir);
    let probed = probe.finish_round();
    layer_metrics(&traced_layers, &probed, &mut metrics);
    let served = crate::daemon::probe_daemon(args, &distinct)?;
    tally.merge(served.tally);
    for (name, value, unit) in served.metrics.iter() {
        metrics.put(name.clone(), *value, unit);
    }
    let fastest_round = |per_op: &[Vec<f64>]| per_op.iter().map(|s| fast(s)).sum::<f64>();
    let (traced_round, untraced_round) = (fastest_round(&traced_op_ms), fastest_round(&op_ms));
    metrics.put("trace.overhead", traced_round / untraced_round, "ratio");

    // Each layer's share of a traced round, as the median over rounds.
    let share = |spans: &[&str]| {
        let per_round: Vec<f64> = traced_layers
            .iter()
            .zip(&traced_ms)
            .map(|(r, total)| spans.iter().filter_map(|s| r.ms.get(s)).sum::<f64>() / total)
            .collect();
        median(&per_round)
    };
    detail.put(
        "share.structural",
        share(&["structural.invariants", "structural.smcs"]),
        "ratio",
    );
    detail.put("share.encoding", share(&["encoding.build"]), "ratio");
    detail.put("share.context", share(&["context.build"]), "ratio");
    detail.put("share.traverse", share(&["traverse"]), "ratio");
    detail.put("share.deadlock", share(&["deadlock"]), "ratio");
    detail.put("share.mc", share(&["mc.preplan", "mc.portfolio"]), "ratio");
    detail.put("round_ms.traced", traced_round, "ms");
    detail.put("round_ms.untraced", untraced_round, "ms");
    Ok(Outcome {
        metrics,
        tally,
        detail,
    })
}
