//! Robustness of the resource governor: budget breaches, interleaved
//! maintenance and injected faults must never corrupt a manager.
//!
//! The contract under test, for every fixpoint strategy and every encoding
//! scheme:
//!
//! * a breached budget unwinds with a typed [`TruncationReason`] — no panic,
//!   no `bool` flag — and the partial `reached` set is a valid
//!   under-approximation of the true reachable set;
//! * the unwind leaks no protections: a governed traversal pins exactly one
//!   new root (its result), like a completed one;
//! * the manager stays usable — an uninterrupted re-run *on the same
//!   context* completes and agrees with the oracle, even when the truncated
//!   run interleaved garbage collections and the unwound manager was sifted
//!   (as the degradation ladder does) before the re-run.

use std::time::Duration;

use pnsym::net::nets::{dme, figure1, muller, philosophers, slotted_ring, DmeStyle};
use pnsym::net::{NetBuilder, PetriNet};
use pnsym::structural::{find_smcs, CoverStrategy};
use pnsym::{
    AssignmentStrategy, Budget, Encoding, FixpointStrategy, SymbolicContext, TraversalOptions,
    TruncationReason, ZddContext,
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

/// Sparse, dense and improved-dense encodings of `net`.
fn all_encodings(net: &PetriNet) -> Vec<Encoding> {
    let smcs = find_smcs(net).expect("bundled nets are SMC-coverable");
    vec![
        Encoding::sparse(net),
        Encoding::dense(net, &smcs, CoverStrategy::Greedy, AssignmentStrategy::Gray),
        Encoding::improved(net, &smcs, AssignmentStrategy::Gray),
    ]
}

/// Runs `options` twice on a fresh context over `net`/`enc` and checks the
/// governor's invariants, then re-runs ungoverned on the *same* context and
/// checks the result against `oracle` markings. Returns the truncation
/// reason of the first governed run.
fn assert_governed_contract(
    net: &PetriNet,
    enc: &Encoding,
    options: TraversalOptions,
    oracle: f64,
    label: &str,
) -> Option<TruncationReason> {
    let mut ctx = SymbolicContext::new(net, enc.clone());
    let first = ctx.reachable_markings_with(options);
    assert!(
        first.num_markings <= oracle,
        "{label}: truncated run must under-approximate ({} > {oracle})",
        first.num_markings
    );
    // The first run protected the image plan and its own result; the second
    // governed run reuses the plan, so any imbalance it introduces beyond
    // its single result protection is a leak from the unwind path.
    let before = ctx.manager().protected_root_count();
    let second = ctx.reachable_markings_with(options);
    let after = ctx.manager().protected_root_count();
    assert_eq!(
        after,
        before + 1,
        "{label}: a governed traversal must pin exactly its result"
    );
    assert!(
        second.num_markings <= oracle,
        "{label}: repeated governed run must under-approximate"
    );
    // The breached budget is disarmed when the traversal returns: the same
    // context must sift like the degradation ladder does, then complete an
    // ungoverned run and agree with the oracle.
    ctx.manager_mut().sift();
    assert_eq!(
        ctx.manager().protected_root_count(),
        after,
        "{label}: sifting the unwound manager must keep its protections"
    );
    assert!(
        ctx.manager().check_invariants().is_ok(),
        "{label}: sifting the unwound manager must keep it canonical"
    );
    let rerun = ctx.reachable_markings_with(TraversalOptions::with_strategy(options.strategy));
    assert!(
        rerun.truncated.is_none(),
        "{label}: ungoverned re-run reported {:?}",
        rerun.truncated
    );
    assert_eq!(
        rerun.num_markings, oracle,
        "{label}: ungoverned re-run after a breach must match the oracle"
    );
    first.truncated
}

#[test]
fn a_sub_millisecond_deadline_truncates_every_strategy_and_encoding() {
    let nets: Vec<(&str, PetriNet)> = vec![
        ("figure1", figure1()),
        ("philosophers(3)", philosophers(3)),
        ("muller(6)", muller(6)),
        ("slotted_ring(3)", slotted_ring(3)),
        ("dme(2)", dme(2, DmeStyle::Spec)),
    ];
    for (name, net) in &nets {
        // One symbolic oracle per net: every engine agrees on these nets
        // (pinned by the cross-engine equivalence suite).
        let oracle = SymbolicContext::new(net, Encoding::sparse(net))
            .reachable_markings()
            .num_markings;
        for enc in all_encodings(net) {
            for strategy in all_strategies() {
                let label = format!("{name} / {:?} / {strategy}", enc.scheme());
                let options = TraversalOptions {
                    time_budget: Some(Duration::ZERO),
                    ..TraversalOptions::with_strategy(strategy)
                };
                let reason = assert_governed_contract(net, &enc, options, oracle, &label);
                assert_eq!(
                    reason,
                    Some(TruncationReason::Deadline),
                    "{label}: an already-expired deadline must trip before the first pass"
                );
            }
        }
    }
}

#[test]
fn a_sub_millisecond_deadline_truncates_the_zdd_engine_too() {
    let net = philosophers(3);
    let oracle = ZddContext::new(&net).reachable_markings().num_markings;
    for strategy in all_strategies() {
        let mut ctx = ZddContext::new(&net);
        let budget = Budget::new().with_deadline(Duration::ZERO);
        let run = ctx.reachable_markings_governed(strategy, budget);
        assert_eq!(
            run.truncated,
            Some(TruncationReason::Deadline),
            "zdd / {strategy}"
        );
        assert!(run.num_markings <= oracle, "zdd / {strategy}");
        let rerun = ctx.reachable_markings_with(strategy);
        assert!(rerun.truncated.is_none(), "zdd / {strategy}");
        assert_eq!(rerun.num_markings, oracle, "zdd / {strategy}");
    }
}

/// Description of one random net: a list of circular state-machine
/// component sizes plus synchronisation pairs joined at a shared
/// transition (the same generator family as `random_nets_props`).
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
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Interleave budget breaches with garbage collection on random nets,
    /// and sift each unwound manager. Protections must stay balanced and
    /// an uninterrupted re-run on the same manager must match the explicit
    /// oracle, for every strategy under every encoding.
    #[test]
    fn budget_breaches_interleaved_with_gc_and_sifting_leave_managers_usable(
        spec in arb_spec(),
        step_ceiling in 1u64..=48,
    ) {
        let net = build_net(&spec);
        let rg = net.explore().expect("composed state machines are safe");
        let oracle = rg.num_markings() as f64;
        for enc in all_encodings(&net) {
            for strategy in all_strategies() {
                let label = format!(
                    "{:?} / {strategy} / steps={step_ceiling}", enc.scheme()
                );
                // A tiny GC threshold forces collections between passes,
                // so the unwind path is exercised against the maintenance
                // hook; the contract then sifts the unwound manager.
                let options = TraversalOptions {
                    gc_threshold: 16,
                    step_budget: Some(step_ceiling),
                    ..TraversalOptions::with_strategy(strategy)
                };
                let reason =
                    assert_governed_contract(&net, &enc, options, oracle, &label);
                // Tight ceilings trip mid-run; generous ones complete.
                // Either way the reason must be typed, never some other
                // variant the budget does not govern here.
                prop_assert!(
                    reason.is_none() || reason == Some(TruncationReason::StepBudget),
                    "{}: unexpected reason {:?}", label, reason
                );
            }
        }
    }
}

/// The daemon under governed load: concurrent clients with mixed budgets
/// must each get their own typed degradation, and none of them may leave
/// the shared context pool unserviceable.
mod daemon_matrix {
    use super::*;
    use pnsym::net::nets;
    use pnsym::server::{serve, Client, NetResolver, Request, Response, ServerConfig};
    use std::thread;

    fn boot() -> pnsym::server::ServerHandle {
        let resolver: NetResolver = Box::new(|spec| {
            let sized = |prefix: &str| -> Option<usize> {
                spec.strip_prefix(prefix).and_then(|n| n.parse().ok())
            };
            if spec == "figure1" {
                Some(nets::figure1())
            } else if let Some(n) = sized("phil-") {
                Some(nets::philosophers(n))
            } else if let Some(n) = sized("muller-") {
                Some(nets::muller(n))
            } else {
                sized("dme-spec-").map(|n| nets::dme(n, nets::DmeStyle::Spec))
            }
        });
        serve("127.0.0.1:0", ServerConfig::default(), resolver).expect("ephemeral port")
    }

    fn governed_check(
        id: u64,
        net: &str,
        deadline_ms: Option<u64>,
        step_ceiling: Option<u64>,
    ) -> Request {
        let mut request = Request::check_text(
            id,
            net,
            &[
                ("probe", "EF true"),
                ("exclusion", "AG !(eating.0 & eating.1)"),
            ],
        );
        if net.starts_with("dme-") || net.starts_with("muller-") {
            request = Request::check_text(id, net, &[("probe", "EF true")]);
        }
        if let Request::Check(check) = &mut request {
            check.deadline_ms = deadline_ms;
            check.step_ceiling = step_ceiling;
        }
        request
    }

    fn done_truncation(responses: &[Response]) -> Option<TruncationReason> {
        match responses.last() {
            Some(Response::Done { truncated, .. }) => *truncated,
            other => panic!("stream must end in done, got {other:?}"),
        }
    }

    /// N concurrent clients with mixed budgets: one holds a 1ms deadline on
    /// a heavy cold net and must degrade to a typed `Deadline` truncation;
    /// the ungoverned clients' verdicts stay clean; a tight step ceiling
    /// degrades to its own typed reason; and after the storm the pool still
    /// answers the heavy query ungoverned to completion.
    #[test]
    fn concurrent_clients_with_mixed_budgets_get_typed_degradation() {
        let handle = boot();
        let addr = handle.addr();

        let mut workers = Vec::new();
        // Client 0: 1ms deadline against a net whose cold traversal takes
        // far longer than 1ms — a deterministic Deadline truncation.
        workers.push(thread::spawn(move || {
            let mut client = Client::connect(addr).expect("connect");
            let responses = client
                .request(&governed_check(10, "dme-spec-6", Some(1), None))
                .expect("governed query");
            assert_eq!(
                done_truncation(&responses),
                Some(TruncationReason::Deadline),
                "1ms deadline on a cold heavy net must trip: {responses:?}"
            );
        }));
        // Client 1: a tight step ceiling; the degradation (if it trips
        // before completion) must be the matching typed reason.
        workers.push(thread::spawn(move || {
            let mut client = Client::connect(addr).expect("connect");
            let responses = client
                .request(&governed_check(11, "muller-8", None, Some(8)))
                .expect("governed query");
            let reason = done_truncation(&responses);
            assert!(
                reason.is_none() || reason == Some(TruncationReason::StepBudget),
                "step ceiling must degrade to its own reason: {reason:?}"
            );
        }));
        // Clients 2..4: ungoverned traffic that must stay clean throughout.
        for (offset, spec) in ["phil-3", "phil-4", "figure1"].iter().enumerate() {
            workers.push(thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for round in 0..3u64 {
                    let request = if *spec == "figure1" {
                        Request::check_text(
                            20 + offset as u64 * 10 + round,
                            spec,
                            &[("m7", "EF (p6 & p7)"), ("excl", "AG !(p2 & p4)")],
                        )
                    } else {
                        governed_check(20 + offset as u64 * 10 + round, spec, None, None)
                    };
                    let responses = client.request(&request).expect("clean query");
                    assert_eq!(
                        done_truncation(&responses),
                        None,
                        "ungoverned client must not be degraded by its neighbours"
                    );
                    for response in &responses {
                        if let Response::Verdict(v) = response {
                            assert!(v.holds, "bundled formulas hold on {spec}");
                            assert!(v.truncated.is_none());
                        }
                    }
                }
            }));
        }
        for worker in workers {
            worker.join().expect("client thread");
        }

        // The pool survived the storm: the heavy net now completes
        // ungoverned on the same daemon (same pooled context).
        let mut client = Client::connect(addr).expect("connect");
        let responses = client
            .request(&governed_check(99, "dme-spec-6", None, None))
            .expect("ungoverned follow-up");
        assert_eq!(
            done_truncation(&responses),
            None,
            "pool must stay serviceable after a deadline breach: {responses:?}"
        );
        handle.shutdown();
    }

    /// A scheduled fault mid-query surfaces as a typed `internal` protocol
    /// error (and `injected-fault` verdict truncation), the connection
    /// survives, and the next query against the *same pooled context*
    /// succeeds cleanly. Probes several seeds on distinct cold nets —
    /// some schedules arm sites that sequential evaluation never reaches.
    #[cfg(feature = "fault-inject")]
    #[test]
    fn scheduled_fault_mid_query_degrades_typed_and_context_recovers() {
        use pnsym::server::ErrorCode;

        let handle = boot();
        let addr = handle.addr();
        let mut client = Client::connect(addr).expect("connect");
        let mut tripped = None;
        for seed in 0..16u64 {
            // A fresh net size per probe keeps each traversal cold so the
            // schedule sees the full site sequence.
            let spec = format!("phil-{}", 3 + (seed as usize % 6));
            let mut request = governed_check(100 + seed, &spec, None, None);
            if let Request::Check(check) = &mut request {
                check.fault_seed = Some(seed);
            }
            let responses = client.request(&request).expect("faulted query");
            let faulted = responses.iter().any(|r| {
                matches!(
                    r,
                    Response::Error {
                        code: ErrorCode::Internal,
                        terminal: false,
                        ..
                    }
                )
            });
            if faulted {
                assert_eq!(
                    done_truncation(&responses),
                    Some(TruncationReason::InjectedFault),
                    "fault must surface as its typed reason: {responses:?}"
                );
                tripped = Some(spec);
                break;
            }
        }
        let spec = tripped.expect("at least one seed in 0..16 must fire a fault");

        // Same daemon, same pooled context, no fault schedule: clean run.
        let responses = client
            .request(&governed_check(200, &spec, None, None))
            .expect("recovery query");
        assert_eq!(
            done_truncation(&responses),
            None,
            "context must recover after an injected fault: {responses:?}"
        );
        for response in &responses {
            if let Response::Verdict(v) = response {
                assert!(v.holds && v.truncated.is_none());
            }
        }
        handle.shutdown();
    }
}

#[cfg(feature = "fault-inject")]
mod fault_injection {
    use super::*;
    use pnsym::FaultSchedule;

    /// Seeded fault schedules hit table growth and cache growth at
    /// deterministic points; every outcome must be a typed
    /// truncation with balanced protections and a usable manager.
    #[test]
    fn seeded_fault_schedules_unwind_cleanly_across_the_matrix() {
        let net = philosophers(3);
        let oracle = SymbolicContext::new(&net, Encoding::sparse(&net))
            .reachable_markings()
            .num_markings;
        for seed in 0..24u64 {
            for enc in all_encodings(&net) {
                for strategy in all_strategies() {
                    let label = format!("{:?} / {strategy} / seed={seed}", enc.scheme());
                    let options = TraversalOptions {
                        faults: Some(FaultSchedule::from_seed(seed)),
                        ..TraversalOptions::with_strategy(strategy)
                    };
                    let mut ctx = SymbolicContext::new(&net, enc.clone());
                    let run = ctx.reachable_markings_with(options);
                    assert!(
                        run.truncated.is_none()
                            || run.truncated == Some(TruncationReason::InjectedFault),
                        "{label}: unexpected reason {:?}",
                        run.truncated
                    );
                    assert!(run.num_markings <= oracle, "{label}");
                    let rerun =
                        ctx.reachable_markings_with(TraversalOptions::with_strategy(strategy));
                    assert!(rerun.truncated.is_none(), "{label}");
                    assert_eq!(rerun.num_markings, oracle, "{label}");
                }
            }
        }
    }

    /// The same seed must produce the same failure point: fault injection
    /// is deterministic, so truncated runs are reproducible.
    #[test]
    fn fault_injection_is_deterministic_per_seed() {
        let net = figure1();
        for seed in 0..16u64 {
            let run_once = |net: &PetriNet| {
                let mut ctx = SymbolicContext::new(net, Encoding::sparse(net));
                let options = TraversalOptions {
                    faults: Some(FaultSchedule::from_seed(seed)),
                    ..TraversalOptions::default()
                };
                let r = ctx.reachable_markings_with(options);
                (r.truncated, r.num_markings, r.iterations)
            };
            assert_eq!(run_once(&net), run_once(&net), "seed={seed}");
        }
    }
}
