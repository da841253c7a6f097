//! End-to-end tests of the `pnsymd` daemon over real TCP.
//!
//! Boots the server on an ephemeral port in-process, drives the bundled
//! philosophers and figure1 portfolios through a real client connection,
//! and pins the streamed verdicts — truth value, satisfying-marking count,
//! witness length and firing sequence — against direct `check_property`
//! calls on an identically built context. The warm second pass must report
//! a context-pool hit and return bit-identical verdicts, and on dme the
//! warm pass must be at least 5× faster than the cold one. The daemon runs
//! breadth-first, the strategy these figures were measured under.

use pnsym::net::nets::{self, property_suite};
use pnsym::net::PetriNet;
use pnsym::server::{
    build_context, serve, Client, NetResolver, PoolOutcome, Request, Response, ServerConfig,
    ServerHandle, Verdict,
};
use pnsym::{FixpointStrategy, Property, TraversalOptions};
use std::time::Instant;

const BFS: FixpointStrategy = FixpointStrategy::Bfs { use_frontier: true };

fn boot() -> ServerHandle {
    let resolver: NetResolver = Box::new(|spec| match spec {
        "figure1" => Some(nets::figure1()),
        "phil-3" => Some(nets::philosophers(3)),
        "dme-spec-5" => Some(nets::dme(5, nets::DmeStyle::Spec)),
        _ => None,
    });
    let config = ServerConfig {
        default_strategy: BFS,
        ..ServerConfig::default()
    };
    serve("127.0.0.1:0", config, resolver).expect("ephemeral port")
}

/// The net's bundled suite as a `check` request.
fn suite_request(id: u64, spec: &str, net: &PetriNet) -> Request {
    let suite = property_suite(net);
    assert!(!suite.is_empty(), "{spec} ships a property suite");
    let props: Vec<(&str, &str)> = suite
        .iter()
        .map(|p| (p.name.as_str(), p.formula.as_str()))
        .collect();
    Request::check_text(id, spec, &props)
}

fn verdicts(responses: &[Response]) -> Vec<&Verdict> {
    responses
        .iter()
        .filter_map(|r| match r {
            Response::Verdict(v) => Some(v),
            _ => None,
        })
        .collect()
}

/// Strips the timing and pool-outcome fields (which legitimately differ
/// between a cold and a warm pass) so the streams can be compared
/// bit-for-bit.
fn normalized(responses: &[Response]) -> Vec<Response> {
    responses
        .iter()
        .map(|r| match r {
            Response::Verdict(v) => {
                let mut v = v.clone();
                v.check_ms = 0.0;
                Response::Verdict(v)
            }
            Response::Done {
                id,
                net,
                properties,
                subterm_hits,
                subterm_lookups,
                truncated,
                ..
            } => Response::Done {
                id: *id,
                net: net.clone(),
                pool: PoolOutcome::Miss,
                properties: *properties,
                subterm_hits: *subterm_hits,
                subterm_lookups: *subterm_lookups,
                truncated: *truncated,
                total_ms: 0.0,
            },
            other => other.clone(),
        })
        .collect()
}

#[test]
fn served_verdicts_match_direct_check_property() {
    let handle = boot();
    let mut client = Client::connect(handle.addr()).expect("connect");

    for (spec, net) in [
        ("phil-3", nets::philosophers(3)),
        ("figure1", nets::figure1()),
    ] {
        let responses = client
            .request(&suite_request(1, spec, &net))
            .expect("served portfolio");
        assert!(
            matches!(
                responses.last(),
                Some(Response::Done {
                    truncated: None,
                    ..
                })
            ),
            "{spec}: clean query must not truncate: {responses:?}"
        );
        let served = verdicts(&responses);
        let suite = property_suite(&net);
        assert_eq!(
            served.len(),
            suite.len(),
            "{spec}: one verdict per property"
        );

        // The reference: the same encoding policy, driven directly.
        let mut ctx = build_context(&net);
        for (spec_prop, verdict) in suite.iter().zip(&served) {
            let property = Property::parse(&spec_prop.formula, &net).expect("bundled formula");
            let direct = ctx.check_property_with(&property, TraversalOptions::with_strategy(BFS));
            assert_eq!(verdict.name, spec_prop.name);
            assert_eq!(
                verdict.holds, direct.holds,
                "{spec}/{}: served truth value",
                spec_prop.name
            );
            assert_eq!(
                Some(verdict.holds),
                spec_prop.expect,
                "{spec}/{}: bundled expectation",
                spec_prop.name
            );
            assert_eq!(
                verdict.sat_markings, direct.sat_markings,
                "{spec}/{}: satisfying markings",
                spec_prop.name
            );
            assert_eq!(
                verdict.reached_markings, direct.reached_markings,
                "{spec}/{}: reached markings",
                spec_prop.name
            );
            assert_eq!(
                verdict.trace_kind, direct.trace_kind,
                "{spec}/{}: trace kind",
                spec_prop.name
            );
            match (&verdict.trace, &direct.trace) {
                (Some(served_trace), Some(direct_trace)) => {
                    let direct_names: Vec<String> = direct_trace
                        .transitions
                        .iter()
                        .map(|&t| net.transition_name(t).to_string())
                        .collect();
                    assert_eq!(
                        served_trace, &direct_names,
                        "{spec}/{}: witness firing sequence",
                        spec_prop.name
                    );
                }
                (None, None) => {}
                (a, b) => panic!(
                    "{spec}/{}: trace presence differs (served {:?}, direct {:?})",
                    spec_prop.name,
                    a.as_ref().map(Vec::len),
                    b.as_ref().map(|t| t.transitions.len()),
                ),
            }
        }
    }
    handle.shutdown();
}

#[test]
fn warm_pass_reports_pool_hit_with_identical_results() {
    let handle = boot();
    let mut client = Client::connect(handle.addr()).expect("connect");
    let net = nets::philosophers(3);
    let request = suite_request(2, "phil-3", &net);

    let cold = client.request(&request).expect("cold query");
    let warm = client.request(&request).expect("warm query");
    let Some(Response::Done {
        pool: cold_pool, ..
    }) = cold.last()
    else {
        panic!("cold stream ends in done: {cold:?}");
    };
    let Some(Response::Done {
        pool: warm_pool, ..
    }) = warm.last()
    else {
        panic!("warm stream ends in done: {warm:?}");
    };
    assert_eq!(*cold_pool, PoolOutcome::Miss);
    assert_eq!(*warm_pool, PoolOutcome::Hit);
    assert_eq!(
        normalized(&cold),
        normalized(&warm),
        "warm pass must reproduce the cold verdicts bit-for-bit"
    );
    handle.shutdown();
}

#[test]
fn warm_pass_is_5x_faster_on_dme() {
    let handle = boot();
    let mut client = Client::connect(handle.addr()).expect("connect");
    let net = nets::dme(5, nets::DmeStyle::Spec);
    let request = suite_request(3, "dme-spec-5", &net);

    let cold_start = Instant::now();
    let cold = client.request(&request).expect("cold query");
    let cold_elapsed = cold_start.elapsed();

    // Two warm passes; take the faster to shed scheduler noise.
    let mut warm_elapsed = std::time::Duration::MAX;
    let mut warm = Vec::new();
    for _ in 0..2 {
        let start = Instant::now();
        let responses = client.request(&request).expect("warm query");
        let elapsed = start.elapsed();
        if elapsed < warm_elapsed {
            warm_elapsed = elapsed;
        }
        warm = responses;
    }

    let Some(Response::Done {
        pool: cold_pool, ..
    }) = cold.last()
    else {
        panic!("cold stream ends in done: {cold:?}");
    };
    let Some(Response::Done {
        pool: warm_pool, ..
    }) = warm.last()
    else {
        panic!("warm stream ends in done: {warm:?}");
    };
    assert_eq!(*cold_pool, PoolOutcome::Miss);
    assert_eq!(*warm_pool, PoolOutcome::Hit);
    assert_eq!(
        normalized(&cold),
        normalized(&warm),
        "warm dme verdicts must be bit-identical to cold"
    );
    assert!(
        warm_elapsed * 5 <= cold_elapsed,
        "warm pass must be at least 5x faster: cold {cold_elapsed:?}, warm {warm_elapsed:?}"
    );
    handle.shutdown();
}
