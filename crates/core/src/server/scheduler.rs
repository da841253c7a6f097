//! The daemon's query scheduler: decoded requests in, response lines out.
//!
//! [`SymbolicContext`] is deliberately not `Send`
//! (its image plans are shared `Rc` artefacts), so the scheduler — which
//! owns the whole [`ContextPool`] — runs on exactly one thread; connection
//! threads hand it decoded [`Request`]s and receive [`Response`] streams
//! back over channels. That single-writer design is what lets warm
//! contexts, their computed caches, and cached reached sets be reused
//! across queries without any locking inside the kernel.
//!
//! A query's lifecycle: resolve the net spec → canonical-hash it into the
//! pool → parse the portfolio (each bad formula degrades to a non-terminal
//! typed error) → reuse or compute the reached set under the query's
//! [`Budget`](pnsym_bdd::Budget) → evaluate the portfolio in one memoized
//! bottom-up pass → stream one verdict line per property and a closing
//! summary line.
//!
//! There is one reached set per context, independent of the traversal
//! strategy ([`SymbolicContext::reached_set`]): once any query completes
//! the fixpoint, queries under every strategy are served from it without a
//! traversal. A traversal resumes from the net's checkpoint whichever
//! strategy wrote it, and a truncated set is released as soon as its
//! portfolio has been evaluated.

use super::pool::{canonical_net_hash, ContextPool, WarmContext};
use super::proto::{CheckRequest, ErrorCode, PoolOutcome, Request, Response, Verdict};
use super::snapshot::SnapshotStore;
use crate::context::SymbolicContext;
use crate::encoding::{AssignmentStrategy, Encoding};
use crate::property::Property;
use crate::traverse::{FixpointStrategy, TraversalOptions};
use pnsym_bdd::{Ref, TruncationReason};
use pnsym_net::PetriNet;
use pnsym_structural::find_smcs;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Maps a net spec string from a `check` request to a net. The daemon
/// plugs in the bench crate's spec grammar; tests plug in closures over
/// the bundled generators.
pub type NetResolver = Box<dyn Fn(&str) -> Option<PetriNet> + Send>;

/// Scheduler tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Warm contexts kept in the LRU pool.
    pub pool_capacity: usize,
    /// Traversal strategy used when a query does not name one.
    pub default_strategy: FixpointStrategy,
    /// Directory for durable warm-context snapshots and fixpoint
    /// checkpoints; `None` disables durability entirely.
    pub snapshot_dir: Option<PathBuf>,
    /// Checkpoint a running fixpoint every this many productive passes
    /// (`0` disables checkpointing; ignored without a snapshot dir).
    pub checkpoint_every: usize,
    /// Portfolio queries admitted into service at once (the scheduler is
    /// single-threaded, so this bounds the work it has accepted, not
    /// parallelism).
    pub max_inflight: usize,
    /// Queries allowed to wait behind the in-flight ones before the
    /// admission gate answers `overloaded` with a retry-after hint.
    pub max_queue: usize,
    /// Deterministic disk-fault schedule armed on the snapshot store.
    #[cfg(feature = "fault-inject")]
    pub disk_faults: Option<super::snapshot::DiskFaultSchedule>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            pool_capacity: 4,
            default_strategy: FixpointStrategy::default(),
            snapshot_dir: None,
            checkpoint_every: 8,
            max_inflight: 4,
            max_queue: 64,
            #[cfg(feature = "fault-inject")]
            disk_faults: None,
        }
    }
}

/// Builds the context the daemon serves for a net: the improved dense SMC
/// encoding with Gray assignment when an SMC cover exists, the sparse
/// one-variable-per-place encoding otherwise. The bench harness's property
/// runner builds its contexts here too.
pub fn build_context(net: &PetriNet) -> SymbolicContext {
    match find_smcs(net) {
        Ok(smcs) => SymbolicContext::new(
            net,
            Encoding::improved(net, &smcs, AssignmentStrategy::Gray),
        ),
        Err(_) => SymbolicContext::new(net, Encoding::sparse(net)),
    }
}

/// The single-threaded query scheduler owning the warm-context pool.
pub struct Scheduler {
    pool: ContextPool,
    resolver: NetResolver,
    config: ServerConfig,
    snapshots: Option<SnapshotStore>,
    queries: u64,
}

impl Scheduler {
    /// Creates a scheduler with the given pool capacity and net resolver.
    /// When the config names a snapshot directory, the pool rehydrates
    /// from it immediately: every decodable warm snapshot whose spec still
    /// resolves is restored (up to the pool capacity) before the first
    /// query arrives.
    pub fn new(config: ServerConfig, resolver: NetResolver) -> Scheduler {
        let snapshots =
            config
                .snapshot_dir
                .as_ref()
                .and_then(|dir| match SnapshotStore::open(dir.clone()) {
                    Ok(store) => Some(store),
                    Err(err) => {
                        eprintln!(
                        "pnsymd: cannot open snapshot dir {}: {err}; running without durability",
                        dir.display()
                    );
                        None
                    }
                });
        #[cfg(feature = "fault-inject")]
        let snapshots = {
            let mut snapshots = snapshots;
            if let (Some(store), Some(faults)) = (snapshots.as_mut(), config.disk_faults) {
                store.arm_faults(faults);
            }
            snapshots
        };
        let mut scheduler = Scheduler {
            pool: ContextPool::new(config.pool_capacity),
            resolver,
            config,
            snapshots,
            queries: 0,
        };
        scheduler.rehydrate();
        scheduler
    }

    /// Startup rehydration: restores warm snapshots into the pool in key
    /// order until it holds `pool_capacity` of them. Each file is read and
    /// decoded once, and files past the capacity are not read at all. A
    /// corrupt or mismatched snapshot is deleted with a typed reason, and
    /// one whose net hashes differently than its key claims is discarded;
    /// neither counts against the capacity, nor does one whose spec no
    /// longer resolves (it stays on disk).
    fn rehydrate(&mut self) {
        let Some(store) = self.snapshots.as_mut() else {
            return;
        };
        let mut restored = 0;
        for key in store.warm_keys() {
            if restored == self.config.pool_capacity {
                break;
            }
            let snapshot = match store.read_warm(key) {
                Ok(snapshot) => snapshot,
                Err(reason) => {
                    eprintln!(
                        "pnsymd: snapshot {key:016x} rejected at startup ({reason}); deleted"
                    );
                    continue;
                }
            };
            let Some(net) = (self.resolver)(snapshot.spec()) else {
                continue;
            };
            if canonical_net_hash(&net) != key {
                store.discard_warm(key);
                continue;
            }
            let mut entry = WarmContext::new(key, snapshot.spec(), build_context(&net));
            match store.import_warm(snapshot, entry.context_mut()) {
                Ok(_) => {
                    self.pool.note_restore();
                    let _ = self.pool.insert(entry);
                    restored += 1;
                }
                Err(reason) => {
                    eprintln!(
                        "pnsymd: snapshot {key:016x} rejected at startup ({reason}); deleted"
                    );
                }
            }
        }
    }

    /// Handles one decoded request, pushing every response line (the last
    /// one terminal) through `emit`.
    pub fn handle(&mut self, request: &Request, emit: &mut dyn FnMut(Response)) {
        match request {
            Request::Ping { id } => emit(Response::Pong { id: *id }),
            Request::Shutdown { id } => emit(Response::Bye { id: *id }),
            Request::Stats { id } => {
                let stats = self.pool.stats();
                emit(Response::Stats {
                    id: *id,
                    contexts: self.pool.len() as u64,
                    hits: stats.hits,
                    misses: stats.misses,
                    evictions: stats.evictions,
                    spills: stats.spills,
                    restores: stats.restores,
                    queries: self.queries,
                });
            }
            Request::Check(check) => self.handle_check(check, emit),
        }
    }

    fn handle_check(&mut self, check: &CheckRequest, emit: &mut dyn FnMut(Response)) {
        let start = Instant::now();
        let id = check.id;
        self.queries += 1;

        let strategy = match &check.strategy {
            None => self.config.default_strategy,
            Some(spec) => match spec.parse::<FixpointStrategy>() {
                Ok(strategy) => strategy,
                Err(err) => {
                    return emit(Response::Error {
                        id,
                        code: ErrorCode::Request,
                        message: err.to_string(),
                        terminal: true,
                        retry_after_ms: None,
                    });
                }
            },
        };

        let Some(net) = (self.resolver)(&check.net) else {
            return emit(Response::Error {
                id,
                code: ErrorCode::Net,
                message: format!("unknown net spec {:?}", check.net),
                terminal: true,
                retry_after_ms: None,
            });
        };

        // Parse the whole portfolio up front: every rejected formula
        // becomes a non-terminal typed error, and the surviving formulas
        // are still evaluated.
        let mut properties = Vec::with_capacity(check.properties.len());
        for named in &check.properties {
            match Property::parse(&named.formula, &net) {
                Ok(property) => properties.push((named, property)),
                Err(err) => emit(Response::Error {
                    id,
                    code: ErrorCode::Property,
                    message: format!("{}: {err}", named.name),
                    terminal: false,
                    retry_after_ms: None,
                }),
            }
        }

        let mut options = TraversalOptions {
            strategy,
            ..TraversalOptions::default()
        };
        options.time_budget = check.deadline_ms.map(Duration::from_millis);
        options.node_budget = check.node_ceiling.map(|n| n as usize);
        options.step_budget = check.step_ceiling;
        #[cfg(feature = "fault-inject")]
        {
            options.faults = check.fault_seed.map(pnsym_bdd::FaultSchedule::from_seed);
        }
        #[cfg(not(feature = "fault-inject"))]
        let _ = check.fault_seed;

        let key = canonical_net_hash(&net);
        let checkpoint_every = self.config.checkpoint_every;
        let pool = &mut self.pool;
        let mut snapshots = self.snapshots.as_mut();

        let pool_outcome = if pool.touch(key) {
            PoolOutcome::Hit
        } else {
            // Miss: before building cold, try to rehydrate the net's warm
            // snapshot into a fresh context. A corrupt or mismatched file
            // has already been deleted by the store; the query degrades to
            // a cold rebuild with the typed reason on stderr.
            let mut fresh = WarmContext::new(key, check.net.clone(), build_context(&net));
            let mut restored = false;
            if let Some(store) = snapshots.as_deref_mut() {
                match store.restore_warm(key, fresh.context_mut()) {
                    Some(Ok(_)) => restored = true,
                    Some(Err(reason)) => {
                        eprintln!(
                            "pnsymd: snapshot {key:016x} rejected ({reason}); rebuilding cold"
                        )
                    }
                    None => {}
                }
            }
            let outcome = if restored {
                pool.note_restore();
                PoolOutcome::Restored
            } else {
                pool.note_miss();
                PoolOutcome::Miss
            };
            // Spill-instead-of-drop: the evicted entry's warm results go
            // to disk when durability is on, so LRU pressure loses time,
            // not work.
            if let Some(evicted) = pool.insert(fresh) {
                if let Some(store) = snapshots.as_deref_mut() {
                    match store.save_warm(&evicted) {
                        Ok(true) => pool.note_spill(),
                        Ok(false) => {}
                        Err(err) => {
                            eprintln!("pnsymd: failed to spill {:016x}: {err}", evicted.key())
                        }
                    }
                }
            }
            outcome
        };
        let entry = pool.get_mut(key).expect("entry just touched or inserted");

        // Reuse the context's complete reached set, whatever strategy
        // produced it; otherwise run the governed traversal — resumed from
        // the last durable checkpoint when one exists, re-checkpointed at
        // pass boundaries as it runs — and snapshot the result if it ran
        // to completion (the context memoizes it).
        let mut spilled = false;
        let run = match entry.context().memoized_reached() {
            Some(run) => run,
            None => {
                let mut seed = None;
                let mut base_iterations = 0usize;
                if let Some(store) = snapshots.as_deref_mut() {
                    match store.load_checkpoint(key, entry.context_mut()) {
                        Some(Ok((set, passes))) => {
                            seed = Some(set);
                            base_iterations = passes;
                        }
                        Some(Err(reason)) => eprintln!(
                            "pnsymd: checkpoint {key:016x} rejected ({reason}); restarting cold"
                        ),
                        None => {}
                    }
                }
                let spec = check.net.as_str();
                let mut observer = |ctx: &SymbolicContext, reached: Ref, pass: usize| {
                    if checkpoint_every == 0 || !pass.is_multiple_of(checkpoint_every) {
                        return;
                    }
                    if let Some(store) = snapshots.as_deref_mut() {
                        if let Err(err) = store.save_checkpoint(
                            key,
                            spec,
                            strategy,
                            ctx,
                            reached,
                            base_iterations + pass,
                        ) {
                            eprintln!("pnsymd: checkpoint write failed: {err}");
                        }
                    }
                };
                let run = entry.context_mut().reached_set(
                    options.remaining_since(start),
                    seed,
                    Some(&mut observer),
                );
                if let Some(seed) = seed {
                    entry.context_mut().manager_mut().unprotect(seed);
                }
                if run.truncated.is_none() {
                    if let Some(store) = snapshots {
                        store.clear_checkpoint(key);
                        match store.save_warm(&*entry) {
                            Ok(wrote) => spilled = wrote,
                            Err(err) => {
                                eprintln!("pnsymd: failed to snapshot {key:016x}: {err}")
                            }
                        }
                    }
                }
                run
            }
        };

        let portfolio_props: Vec<Property> = properties.iter().map(|(_, p)| p.clone()).collect();
        let portfolio = entry.context_mut().check_portfolio_on(
            &portfolio_props,
            &run,
            options.remaining_since(start),
        );
        if run.truncated.is_some() {
            // Never memoized: release the partial set once it is evaluated.
            entry.context_mut().manager_mut().unprotect(run.reached);
        }
        if spilled {
            pool.note_spill();
        }

        let mut query_truncated = run.truncated;
        let mut faulted = false;
        for ((named, _), report) in properties.iter().zip(&portfolio.reports) {
            if query_truncated.is_none() {
                query_truncated = report.truncated;
            }
            if report.truncated == Some(TruncationReason::InjectedFault) {
                faulted = true;
            }
            let trace = if check.witness {
                report.trace.as_ref().map(|trace| {
                    trace
                        .transitions
                        .iter()
                        .map(|&t| net.transition_name(t).to_string())
                        .collect()
                })
            } else {
                None
            };
            emit(Response::Verdict(Verdict {
                id,
                name: named.name.clone(),
                formula: named.formula.clone(),
                holds: report.holds,
                sat_markings: report.sat_markings,
                reached_markings: report.reached_markings,
                truncated: report.truncated,
                trace_kind: if check.witness {
                    report.trace_kind
                } else {
                    None
                },
                trace,
                check_ms: report.duration.as_secs_f64() * 1e3,
            }));
        }

        // An injected fault is a server-side failure, not a budget verdict:
        // surface it as a typed (non-terminal) error line too, so clients
        // distinguish "your budget ran out" from "the backend faulted".
        if faulted {
            emit(Response::Error {
                id,
                code: ErrorCode::Internal,
                message: "injected fault tripped while evaluating the portfolio".to_string(),
                terminal: false,
                retry_after_ms: None,
            });
        }

        emit(Response::Done {
            id,
            net: check.net.clone(),
            pool: pool_outcome,
            properties: portfolio.reports.len() as u64,
            subterm_hits: portfolio.subterm_hits,
            subterm_lookups: portfolio.subterm_lookups,
            truncated: query_truncated,
            total_ms: start.elapsed().as_secs_f64() * 1e3,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::proto::PoolOutcome;
    use pnsym_net::nets;

    fn test_scheduler(capacity: usize) -> Scheduler {
        let resolver: NetResolver = Box::new(|spec| match spec {
            "figure1" => Some(nets::figure1()),
            "phil-2" => Some(nets::philosophers(2)),
            _ => None,
        });
        Scheduler::new(
            ServerConfig {
                pool_capacity: capacity,
                ..ServerConfig::default()
            },
            resolver,
        )
    }

    #[test]
    fn rehydration_reads_each_snapshot_once_and_stops_at_capacity() {
        let resolve = |spec: &str| match spec {
            "figure1" => Some(nets::figure1()),
            "phil-2" => Some(nets::philosophers(2)),
            "phil-3" => Some(nets::philosophers(3)),
            "muller-3" => Some(nets::muller(3)),
            _ => None,
        };
        let dir = std::env::temp_dir().join(format!("pnsym-rehydrate-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = SnapshotStore::open(&dir).unwrap();
        for spec in ["figure1", "phil-2", "phil-3", "muller-3"] {
            let net = resolve(spec).unwrap();
            let mut entry = WarmContext::new(canonical_net_hash(&net), spec, build_context(&net));
            let _ = entry
                .context_mut()
                .reached_set(TraversalOptions::default(), None, None);
            assert!(store.save_warm(&entry).unwrap());
        }
        // A corrupt file sorts first: it is rejected and deleted, and does
        // not count against the capacity.
        let corrupt = dir.join(format!("warm-{:016x}.pnsnap", 0));
        std::fs::write(&corrupt, b"not a snapshot").unwrap();
        let keys = store.warm_keys();
        assert_eq!((keys.len(), keys[0]), (5, 0));

        let capacity = 2;
        let scheduler = Scheduler::new(
            ServerConfig {
                pool_capacity: capacity,
                snapshot_dir: Some(dir.clone()),
                ..ServerConfig::default()
            },
            Box::new(resolve),
        );
        assert_eq!(scheduler.pool.len(), capacity);
        assert!(!corrupt.exists());
        // The corrupt file and the first two valid ones, each read once;
        // the two past the capacity are never read.
        let expected: Vec<PathBuf> = keys[..=capacity]
            .iter()
            .map(|key| dir.join(format!("warm-{key:016x}.pnsnap")))
            .collect();
        assert_eq!(scheduler.snapshots.as_ref().unwrap().reads, expected);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn collect(scheduler: &mut Scheduler, request: &Request) -> Vec<Response> {
        let mut out = Vec::new();
        scheduler.handle(request, &mut |resp| out.push(resp));
        assert!(
            out.last().is_some_and(Response::is_terminal),
            "stream must end with a terminal line: {out:?}"
        );
        out
    }

    #[test]
    fn strategy_names_round_trip_through_display() {
        for strategy in [
            FixpointStrategy::Bfs { use_frontier: true },
            FixpointStrategy::Bfs {
                use_frontier: false,
            },
            FixpointStrategy::Saturation,
        ] {
            assert_eq!(strategy.to_string().parse(), Ok(strategy));
        }
        assert!("dfs".parse::<FixpointStrategy>().is_err());
    }

    #[test]
    fn check_streams_verdicts_and_reports_warm_hits() {
        let mut scheduler = test_scheduler(2);
        let request = Request::check_text(
            1,
            "phil-2",
            &[
                ("exclusion", "AG !(eating.0 & eating.1)"),
                ("can-eat", "EF eating.0"),
            ],
        );
        let cold = collect(&mut scheduler, &request);
        assert_eq!(cold.len(), 3);
        let Response::Done { pool, .. } = &cold[2] else {
            panic!("expected done line, got {:?}", cold[2]);
        };
        assert_eq!(*pool, PoolOutcome::Miss);

        let warm = collect(&mut scheduler, &request);
        let Response::Done { pool, .. } = &warm[2] else {
            panic!("expected done line, got {:?}", warm[2]);
        };
        assert_eq!(*pool, PoolOutcome::Hit);
        // Bit-identical verdicts cold vs warm (timing aside).
        let zero_ms = |resp: &Response| match resp {
            Response::Verdict(v) => {
                let mut v = v.clone();
                v.check_ms = 0.0;
                Response::Verdict(v)
            }
            other => other.clone(),
        };
        let cold_norm: Vec<_> = cold[0..2].iter().map(zero_ms).collect();
        let warm_norm: Vec<_> = warm[0..2].iter().map(zero_ms).collect();
        assert_eq!(cold_norm, warm_norm);
        let Response::Verdict(v) = &cold[0] else {
            panic!("expected verdict, got {:?}", cold[0]);
        };
        assert!(v.holds, "philosophers(2) exclusion holds");
    }

    #[test]
    fn bad_formula_is_a_typed_nonterminal_error() {
        let mut scheduler = test_scheduler(1);
        let request = Request::check_text(
            7,
            "figure1",
            &[("bad", "EF nonexistent_place"), ("good", "EF p7")],
        );
        let responses = collect(&mut scheduler, &request);
        assert_eq!(responses.len(), 3, "{responses:?}");
        let Response::Error { code, terminal, .. } = &responses[0] else {
            panic!("expected property error, got {:?}", responses[0]);
        };
        assert_eq!(*code, ErrorCode::Property);
        assert!(!terminal, "property errors must not close the stream");
        assert!(matches!(&responses[1], Response::Verdict(v) if v.name == "good" && v.holds));
        assert!(matches!(&responses[2], Response::Done { .. }));
    }

    #[test]
    fn unknown_net_and_strategy_are_terminal_errors() {
        let mut scheduler = test_scheduler(1);
        let bad_net = Request::check_text(2, "zorkmid-9", &[("p", "EF p7")]);
        let responses = collect(&mut scheduler, &bad_net);
        assert_eq!(responses.len(), 1);
        assert!(matches!(
            &responses[0],
            Response::Error {
                code: ErrorCode::Net,
                terminal: true,
                ..
            }
        ));

        let mut bad_strategy = Request::check_text(3, "figure1", &[("p", "EF p7")]);
        if let Request::Check(check) = &mut bad_strategy {
            check.strategy = Some("dfs".to_string());
        }
        let responses = collect(&mut scheduler, &bad_strategy);
        assert_eq!(responses.len(), 1);
        assert!(matches!(
            &responses[0],
            Response::Error {
                code: ErrorCode::Request,
                terminal: true,
                ..
            }
        ));
    }

    #[test]
    fn zero_deadline_degrades_to_typed_deadline_verdicts() {
        let mut scheduler = test_scheduler(1);
        let mut request = Request::check_text(4, "phil-2", &[("p", "EF eating.0")]);
        if let Request::Check(check) = &mut request {
            check.deadline_ms = Some(0);
        }
        let responses = collect(&mut scheduler, &request);
        let Response::Verdict(v) = &responses[0] else {
            panic!("expected verdict, got {:?}", responses[0]);
        };
        assert_eq!(v.truncated, Some(TruncationReason::Deadline));
        let Response::Done { truncated, .. } = &responses[1] else {
            panic!("expected done, got {:?}", responses[1]);
        };
        assert_eq!(*truncated, Some(TruncationReason::Deadline));

        // The pool stays serviceable: the same context answers an
        // ungoverned query cleanly afterwards.
        let clean = collect(
            &mut scheduler,
            &Request::check_text(5, "phil-2", &[("p", "EF eating.0")]),
        );
        let Response::Verdict(v) = &clean[0] else {
            panic!("expected verdict, got {:?}", clean[0]);
        };
        assert_eq!(v.truncated, None);
        assert!(v.holds);
    }

    #[test]
    fn the_deadline_bounds_the_whole_query_not_each_phase() {
        // The net resolver runs inside the query, before the governed
        // phases; a slow one uses up the whole window. The reached set is
        // already memoized, so the evaluation is the only governed phase,
        // and it must get what is left of the window (nothing), not a
        // fresh window of its own.
        let resolver: NetResolver = Box::new(|spec| {
            std::thread::sleep(Duration::from_millis(30));
            (spec == "phil-2").then(|| nets::philosophers(2))
        });
        let mut scheduler = Scheduler::new(ServerConfig::default(), resolver);
        let suite = [("p", "EF eating.0")];
        let _ = collect(&mut scheduler, &Request::check_text(1, "phil-2", &suite));
        let mut request = Request::check_text(2, "phil-2", &suite);
        if let Request::Check(check) = &mut request {
            check.deadline_ms = Some(10);
        }
        let responses = collect(&mut scheduler, &request);
        let Response::Verdict(v) = &responses[0] else {
            panic!("expected verdict, got {:?}", responses[0]);
        };
        assert_eq!(v.truncated, Some(TruncationReason::Deadline));
        assert!(matches!(
            responses.last(),
            Some(Response::Done {
                pool: PoolOutcome::Hit,
                truncated: Some(TruncationReason::Deadline),
                ..
            })
        ));
    }

    fn context_of<'a>(scheduler: &'a mut Scheduler, net: &PetriNet) -> &'a mut SymbolicContext {
        let key = canonical_net_hash(net);
        scheduler
            .pool
            .get_mut(key)
            .expect("net is warm")
            .context_mut()
    }

    fn with_strategy(mut request: Request, strategy: &str) -> Request {
        if let Request::Check(check) = &mut request {
            check.strategy = Some(strategy.to_string());
        }
        request
    }

    #[test]
    fn repeated_deadline_queries_release_their_truncated_sets() {
        let net = nets::philosophers(2);
        let mut scheduler = test_scheduler(1);
        let mut request = Request::check_text(4, "phil-2", &[("p", "EF eating.0")]);
        if let Request::Check(check) = &mut request {
            check.deadline_ms = Some(0);
        }
        let _ = collect(&mut scheduler, &request);
        let roots = context_of(&mut scheduler, &net)
            .manager()
            .protected_root_count();
        for _ in 0..3 {
            let responses = collect(&mut scheduler, &request);
            assert!(matches!(
                responses.last(),
                Some(Response::Done {
                    pool: PoolOutcome::Hit,
                    truncated: Some(TruncationReason::Deadline),
                    ..
                })
            ));
            let ctx = context_of(&mut scheduler, &net);
            assert!(ctx.memoized_reached().is_none());
            assert_eq!(
                ctx.manager().protected_root_count(),
                roots,
                "a truncated reached set must not stay protected"
            );
        }
    }

    #[test]
    fn any_strategy_is_served_from_a_completed_reached_set() {
        let net = nets::philosophers(2);
        let suite = [
            ("exclusion", "AG !(eating.0 & eating.1)"),
            ("can-eat", "EF eating.0"),
            ("both", "eating.0 & eating.1"),
        ];
        let mut warm = test_scheduler(1);
        let _ = collect(
            &mut warm,
            &with_strategy(Request::check_text(1, "phil-2", &suite), "saturation"),
        );
        // A bfs query of boolean formulas after the completed saturation
        // query does no image work: it runs no traversal.
        let lookups = context_of(&mut warm, &net).stats().op_and_exists.lookups();
        let _ = collect(
            &mut warm,
            &with_strategy(Request::check_text(2, "phil-2", &suite[2..]), "bfs"),
        );
        assert_eq!(
            context_of(&mut warm, &net).stats().op_and_exists.lookups(),
            lookups
        );
        // Its verdict lines equal those of a cold bfs query.
        let verdicts = |responses: Vec<Response>| -> Vec<(bool, f64, f64)> {
            responses
                .into_iter()
                .filter_map(|resp| match resp {
                    Response::Verdict(v) => Some((v.holds, v.sat_markings, v.reached_markings)),
                    _ => None,
                })
                .collect()
        };
        let bfs = with_strategy(Request::check_text(3, "phil-2", &suite), "bfs");
        let served = verdicts(collect(&mut warm, &bfs));
        let cold = verdicts(collect(&mut test_scheduler(1), &bfs));
        assert_eq!(served.len(), suite.len());
        assert_eq!(served, cold);
    }
}
