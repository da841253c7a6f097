//! Property-based tests of the `pnsymd` line-JSON wire protocol.
//!
//! Round-trips every request and response variant through the codec with
//! generated payloads — including strings full of quotes, backslashes,
//! control characters and non-ASCII — and drives a live daemon with
//! formulas `Property::parse` rejects plus outright garbage lines: every
//! failure must come back as a *typed* protocol error on a connection that
//! stays usable; the server must never drop the connection or panic.

use pnsym::net::nets;
use pnsym::server::{
    serve, CheckRequest, Client, ErrorCode, Json, NamedFormula, NetResolver, PoolOutcome, Request,
    Response, ServerConfig, Verdict, MAX_LINE_BYTES,
};
use pnsym::{TraceKind, TruncationReason};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

/// Strings exercising every escape path of the codec: quotes, backslashes,
/// newlines, control characters, non-ASCII, and plain identifiers.
fn arb_string() -> impl Strategy<Value = String> {
    let palette: Vec<char> = "abcXYZ09 _-.\"\\\n\r\t/{}[]:,\u{1}\u{7f}é⊕礼\u{fffd}"
        .chars()
        .collect();
    proptest::collection::vec(0usize..palette.len(), 0..24)
        .prop_map(move |picks| picks.into_iter().map(|i| palette[i]).collect())
}

/// Finite floats spanning magnitudes, signs and non-integral values.
fn arb_float() -> impl Strategy<Value = f64> {
    (any::<u64>(), any::<u64>()).prop_map(|(mantissa, shape)| {
        let base = (mantissa % (1u64 << 53)) as f64;
        let scaled = match shape % 5 {
            0 => base,
            1 => base / 1024.0,
            2 => base * 1e9,
            3 => base / 1e9,
            _ => base + 0.5,
        };
        if shape % 2 == 0 {
            scaled
        } else {
            -scaled
        }
    })
}

/// Protocol integers travel as JSON `i64`s, so u64 fields are 63-bit on
/// the wire; generate within that range.
fn arb_id() -> impl Strategy<Value = u64> {
    any::<u64>().prop_map(|v| v >> 1)
}

fn arb_truncation() -> impl Strategy<Value = Option<TruncationReason>> {
    (0usize..6).prop_map(|i| match i {
        0 => Some(TruncationReason::Iterations),
        1 => Some(TruncationReason::Deadline),
        2 => Some(TruncationReason::NodeBudget),
        3 => Some(TruncationReason::StepBudget),
        4 => Some(TruncationReason::InjectedFault),
        _ => None,
    })
}

fn arb_error_code() -> impl Strategy<Value = ErrorCode> {
    (0usize..6).prop_map(|i| match i {
        0 => ErrorCode::Json,
        1 => ErrorCode::Request,
        2 => ErrorCode::Net,
        3 => ErrorCode::Property,
        4 => ErrorCode::Overloaded,
        _ => ErrorCode::Internal,
    })
}

fn arb_request() -> impl Strategy<Value = Request> {
    let named =
        (arb_string(), arb_string()).prop_map(|(name, formula)| NamedFormula { name, formula });
    let opt_u64 = || (any::<bool>(), arb_id()).prop_map(|(some, v)| some.then_some(v >> 12));
    let check = (
        (
            arb_id(),
            arb_string(),
            proptest::collection::vec(named, 0..5),
        ),
        (opt_u64(), opt_u64(), opt_u64(), opt_u64()),
        (
            (any::<bool>(), arb_string()).prop_map(|(some, s)| some.then_some(s)),
            any::<bool>(),
        ),
    )
        .prop_map(
            |(
                (id, net, properties),
                (deadline_ms, node_ceiling, step_ceiling, fault_seed),
                (strategy, witness),
            )| {
                Request::Check(CheckRequest {
                    id,
                    net,
                    properties,
                    deadline_ms,
                    node_ceiling,
                    step_ceiling,
                    fault_seed,
                    strategy,
                    witness,
                })
            },
        );
    prop_oneof![
        arb_id().prop_map(|id| Request::Ping { id }),
        arb_id().prop_map(|id| Request::Stats { id }),
        arb_id().prop_map(|id| Request::Shutdown { id }),
        check,
    ]
}

fn arb_verdict() -> impl Strategy<Value = Verdict> {
    (
        (arb_id(), arb_string(), arb_string(), any::<bool>()),
        (arb_float(), arb_float(), arb_float()),
        arb_truncation(),
        (0usize..3),
        (any::<bool>(), proptest::collection::vec(arb_string(), 0..6)),
    )
        .prop_map(
            |(
                (id, name, formula, holds),
                (sat, reached, ms),
                truncated,
                kind,
                (has_trace, trace),
            )| {
                Verdict {
                    id,
                    name,
                    formula,
                    holds,
                    sat_markings: sat.abs(),
                    reached_markings: reached.abs(),
                    truncated,
                    trace_kind: match kind {
                        0 => Some(TraceKind::Witness),
                        1 => Some(TraceKind::Counterexample),
                        _ => None,
                    },
                    trace: has_trace.then_some(trace),
                    check_ms: ms.abs(),
                }
            },
        )
}

fn arb_response() -> impl Strategy<Value = Response> {
    let stats = (
        (arb_id(), arb_id(), arb_id()),
        (arb_id(), arb_id(), arb_id()),
    )
        .prop_map(
            |((id, contexts, hits), (misses, evictions, queries))| Response::Stats {
                id,
                contexts,
                hits,
                misses,
                evictions,
                queries,
                spills: hits / 2,
                restores: misses / 3,
            },
        );
    let error = (
        arb_id(),
        arb_error_code(),
        arb_string(),
        any::<bool>(),
        (any::<bool>(), arb_id()),
    )
        .prop_map(
            |(id, code, message, terminal, (hinted, hint))| Response::Error {
                id,
                code,
                message,
                terminal,
                retry_after_ms: hinted.then_some(hint),
            },
        );
    let done = (
        (arb_id(), arb_string(), any::<bool>()),
        (arb_id(), arb_id(), arb_id()),
        arb_truncation(),
        arb_float(),
    )
        .prop_map(
            |((id, net, hit), (properties, subterm_hits, subterm_lookups), truncated, total_ms)| {
                Response::Done {
                    id,
                    net,
                    pool: if hit {
                        PoolOutcome::Hit
                    } else {
                        PoolOutcome::Miss
                    },
                    properties,
                    subterm_hits,
                    subterm_lookups,
                    truncated,
                    total_ms: total_ms.abs(),
                }
            },
        );
    prop_oneof![
        arb_id().prop_map(|id| Response::Pong { id }),
        arb_id().prop_map(|id| Response::Bye { id }),
        stats,
        error,
        arb_verdict().prop_map(Response::Verdict),
        done,
    ]
}

proptest! {
    /// Every request serializes to one line that decodes back to itself.
    #[test]
    fn request_round_trip(request in arb_request()) {
        let line = request.to_line();
        prop_assert!(!line.contains('\n'), "one request, one line: {line:?}");
        let back = Request::parse(&line).expect("own output must parse");
        prop_assert_eq!(back, request);
    }

    /// Every response serializes to one line that decodes back to itself —
    /// floats included (the writer emits shortest-round-trip forms).
    #[test]
    fn response_round_trip(response in arb_response()) {
        let line = response.to_line();
        prop_assert!(!line.contains('\n'), "one response, one line: {line:?}");
        let back = Response::parse(&line).expect("own output must parse");
        prop_assert_eq!(back, response);
    }

    /// Arbitrary bytes never panic the parser: they either decode or yield
    /// a typed error.
    #[test]
    fn garbage_never_panics(line in arb_string()) {
        let _ = Request::parse(&line);
        let _ = Response::parse(&line);
        let _ = Json::parse(&line);
    }
}

// ---------------------------------------------------------------------------
// Live-server protocol robustness
// ---------------------------------------------------------------------------

fn boot() -> pnsym::server::ServerHandle {
    let resolver: NetResolver = Box::new(|spec| match spec {
        "figure1" => Some(nets::figure1()),
        _ => None,
    });
    serve("127.0.0.1:0", ServerConfig::default(), resolver).expect("ephemeral port")
}

proptest! {
    // Each case boots a real daemon; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Formulas the property parser rejects come back as typed
    /// `property` errors — never a dropped connection — and the query's
    /// valid formulas are still answered, on one long-lived connection.
    #[test]
    fn rejected_formulas_become_typed_errors(bad in proptest::collection::vec(arb_string(), 1..4)) {
        let handle = boot();
        let mut client = Client::connect(handle.addr()).expect("connect");
        for chunk in bad.chunks(2) {
            let mut properties: Vec<(&str, &str)> =
                chunk.iter().map(|f| ("generated", f.as_str())).collect();
            properties.push(("anchor", "EF (p6 & p7)"));
            let responses = client
                .request(&Request::check_text(1, "figure1", &properties))
                .expect("connection must survive rejected formulas");
            // Some generated strings may accidentally parse; every one
            // that does not must surface as a non-terminal property error.
            let errors = responses
                .iter()
                .filter(|r| matches!(r, Response::Error { .. }))
                .count();
            let verdicts = responses
                .iter()
                .filter(|r| matches!(r, Response::Verdict(_)))
                .count();
            prop_assert_eq!(errors + verdicts, properties.len(), "{:?}", responses);
            for response in &responses[..responses.len() - 1] {
                if let Response::Error { code, terminal, .. } = response {
                    prop_assert_eq!(*code, ErrorCode::Property);
                    prop_assert!(!terminal);
                }
            }
            let anchor = responses.iter().find_map(|r| match r {
                Response::Verdict(v) if v.name == "anchor" => Some(v),
                _ => None,
            });
            prop_assert!(anchor.is_some_and(|v| v.holds), "anchor verdict survives");
            prop_assert!(matches!(responses.last(), Some(Response::Done { .. })));
        }
        handle.shutdown();
    }

    /// Raw garbage lines yield terminal typed errors and the connection
    /// keeps serving real queries afterwards.
    #[test]
    fn garbage_lines_keep_the_connection_alive(lines in proptest::collection::vec(arb_string(), 1..4)) {
        let handle = boot();
        let mut client = Client::connect(handle.addr()).expect("connect");
        for line in &lines {
            // Newlines inside the generated string would split it into
            // several protocol lines; send it as-is anyway and just drain
            // one response stream per line actually sent.
            let sent_lines = line.split('\n').filter(|l| !l.trim().is_empty()).count();
            client.send_raw(line).expect("send");
            for _ in 0..sent_lines {
                let responses = client.read_stream().expect("typed response stream");
                prop_assert!(responses.last().is_some_and(Response::is_terminal));
            }
        }
        let pong = client.request(&Request::Ping { id: 11 }).expect("ping");
        prop_assert_eq!(pong, vec![Response::Pong { id: 11 }]);
        handle.shutdown();
    }
}

/// A peer that streams more than `MAX_LINE_BYTES` without a newline gets a
/// terminal typed `request` error as soon as the cap is crossed — not once
/// the line ends — and the connection serves the next line after it. A
/// line that is not UTF-8 is refused the same way.
#[test]
fn over_long_and_non_utf8_lines_are_refused_and_the_connection_survives() {
    use std::io::{BufRead, BufReader, Write};

    let handle = boot();
    let mut stream = std::net::TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .expect("read timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut read_response = || {
        let mut line = String::new();
        reader
            .read_line(&mut line)
            .expect("response within the timeout");
        Response::parse(line.trim_end()).expect("well-formed response")
    };

    stream
        .write_all(&vec![b'x'; MAX_LINE_BYTES + 1])
        .expect("send over-long line");
    let mut expect_request_error = || match read_response() {
        Response::Error { code, terminal, .. } => {
            assert_eq!(code, ErrorCode::Request);
            assert!(terminal);
        }
        other => panic!("expected a typed request error, got {other:?}"),
    };
    expect_request_error();

    stream.write_all(b"xx\n").expect("end the over-long line");
    stream
        .write_all(b"\xff\xfe\n")
        .expect("send a non-UTF-8 line");
    expect_request_error();
    stream
        .write_all(format!("{}\n", Request::Ping { id: 12 }.to_line()).as_bytes())
        .expect("send ping");
    assert_eq!(read_response(), Response::Pong { id: 12 });
    handle.shutdown();
}
