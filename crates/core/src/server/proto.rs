//! The `pnsymd` wire protocol: line-delimited JSON over TCP.
//!
//! Every request and every response is one JSON object on one line —
//! written and read by the workspace's one JSON codec, [`Json`]
//! ([`crate::json`]). The protocol is strictly request/response with
//! streaming: one request line produces one or more response lines, the
//! last of which is *terminal* ([`Response::is_terminal`]), so a client
//! reads until the terminal line and the connection is immediately ready
//! for the next request.
//!
//! Malformed input of any kind — unparseable JSON, an unknown `op`, a
//! formula [`Property::parse`](crate::Property::parse) rejects — comes back
//! as a typed [`Response::Error`]; the server never drops the connection
//! over bad input and never panics on it.

pub use crate::json::Json;

use crate::mc::TraceKind;
use pnsym_bdd::TruncationReason;

// ---------------------------------------------------------------------------
// Typed protocol errors
// ---------------------------------------------------------------------------

/// What class of failure a [`Response::Error`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorCode {
    /// The request line was not valid JSON.
    Json,
    /// The request was valid JSON but not a valid request (unknown `op`,
    /// missing or ill-typed field, unknown strategy).
    Request,
    /// The requested net spec did not resolve.
    Net,
    /// A property formula was rejected by the parser; the query's other
    /// properties are still evaluated.
    Property,
    /// A server-side failure (e.g. an injected fault tripped mid-query).
    Internal,
    /// The server's admission gate is full (`--max-inflight` plus
    /// `--max-queue` portfolio queries already pending). The error line
    /// carries a `retry_after_ms` hint; resending the same request
    /// (idempotent by id) after the hint is the intended recovery.
    Overloaded,
}

impl ErrorCode {
    fn as_str(self) -> &'static str {
        match self {
            ErrorCode::Json => "json",
            ErrorCode::Request => "request",
            ErrorCode::Net => "net",
            ErrorCode::Property => "property",
            ErrorCode::Internal => "internal",
            ErrorCode::Overloaded => "overloaded",
        }
    }

    fn parse(s: &str) -> Option<ErrorCode> {
        Some(match s {
            "json" => ErrorCode::Json,
            "request" => ErrorCode::Request,
            "net" => ErrorCode::Net,
            "property" => ErrorCode::Property,
            "internal" => ErrorCode::Internal,
            "overloaded" => ErrorCode::Overloaded,
            _ => return None,
        })
    }
}

/// A typed protocol failure: decoding a request or response line failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    /// The failure class.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

impl ProtoError {
    pub(crate) fn json(message: String) -> ProtoError {
        ProtoError {
            code: ErrorCode::Json,
            message,
        }
    }

    pub(crate) fn request(message: String) -> ProtoError {
        ProtoError {
            code: ErrorCode::Request,
            message,
        }
    }

    /// The terminal [`Response::Error`] this decoding failure maps to.
    pub fn into_response(self, id: u64) -> Response {
        Response::Error {
            id,
            code: self.code,
            message: self.message,
            terminal: true,
            retry_after_ms: None,
        }
    }
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code.as_str(), self.message)
    }
}

impl std::error::Error for ProtoError {}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// One named formula of a portfolio query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NamedFormula {
    /// Short identifier echoed on the verdict line.
    pub name: String,
    /// The formula, in the textual CTL syntax of
    /// [`Property::parse`](crate::Property::parse).
    pub formula: String,
}

/// A portfolio query: one net, a portfolio of CTL properties, an optional
/// per-query budget and traversal strategy.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckRequest {
    /// Client-chosen id echoed on every response line.
    pub id: u64,
    /// The net spec, resolved by the server's net resolver (the bundled
    /// daemon understands the bench `net_by_spec` grammar: `figure1`,
    /// `phil-3`, `philosophers(3)`, `dme-spec-3`, ...).
    pub net: String,
    /// The portfolio, evaluated in order in a single bottom-up pass with
    /// shared subterm caching.
    pub properties: Vec<NamedFormula>,
    /// Wall-clock deadline in milliseconds, counted from when the server
    /// starts handling the request: it bounds the whole query, traversal
    /// and evaluation together.
    pub deadline_ms: Option<u64>,
    /// Live-node ceiling of the evaluating manager.
    pub node_ceiling: Option<u64>,
    /// Governed-step ceiling.
    pub step_ceiling: Option<u64>,
    /// Seed for a deterministic injected-fault schedule; honored only when
    /// the server is built with the `fault-inject` feature, ignored
    /// otherwise.
    pub fault_seed: Option<u64>,
    /// Traversal strategy override (`bfs`, `bfs-full` or `saturation`);
    /// `None` uses the server default. Any other name is a terminal
    /// `request` error.
    pub strategy: Option<String>,
    /// Whether verdict lines should carry witness traces.
    pub witness: bool,
}

/// One decoded request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe; answered by [`Response::Pong`].
    Ping {
        /// Client-chosen id echoed on the response.
        id: u64,
    },
    /// Pool/scheduler statistics; answered by [`Response::Stats`].
    Stats {
        /// Client-chosen id echoed on the response.
        id: u64,
    },
    /// Orderly shutdown; answered by [`Response::Bye`], after which the
    /// server stops accepting connections.
    Shutdown {
        /// Client-chosen id echoed on the response.
        id: u64,
    },
    /// A portfolio query; answered by a stream of [`Response::Verdict`]
    /// (and per-property [`Response::Error`]) lines closed by a
    /// [`Response::Done`].
    Check(CheckRequest),
}

impl Request {
    /// Convenience constructor for a budgetless portfolio query from
    /// `(name, formula)` text pairs.
    pub fn check_text(id: u64, net: &str, properties: &[(&str, &str)]) -> Request {
        Request::Check(CheckRequest {
            id,
            net: net.to_string(),
            properties: properties
                .iter()
                .map(|(name, formula)| NamedFormula {
                    name: name.to_string(),
                    formula: formula.to_string(),
                })
                .collect(),
            deadline_ms: None,
            node_ceiling: None,
            step_ceiling: None,
            fault_seed: None,
            strategy: None,
            witness: true,
        })
    }

    /// The client-chosen id of the request.
    pub fn id(&self) -> u64 {
        match self {
            Request::Ping { id } | Request::Stats { id } | Request::Shutdown { id } => *id,
            Request::Check(c) => c.id,
        }
    }

    /// Serializes the request as one protocol line (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut fields: Vec<(String, Json)> = Vec::new();
        let op = match self {
            Request::Ping { .. } => "ping",
            Request::Stats { .. } => "stats",
            Request::Shutdown { .. } => "shutdown",
            Request::Check(_) => "check",
        };
        fields.push(("op".to_string(), Json::Str(op.to_string())));
        fields.push(("id".to_string(), Json::Int(self.id() as i64)));
        if let Request::Check(c) = self {
            fields.push(("net".to_string(), Json::Str(c.net.clone())));
            fields.push((
                "properties".to_string(),
                Json::Arr(
                    c.properties
                        .iter()
                        .map(|p| {
                            Json::Obj(vec![
                                ("name".to_string(), Json::Str(p.name.clone())),
                                ("formula".to_string(), Json::Str(p.formula.clone())),
                            ])
                        })
                        .collect(),
                ),
            ));
            let opt = |fields: &mut Vec<(String, Json)>, key: &str, v: Option<u64>| {
                if let Some(v) = v {
                    fields.push((key.to_string(), Json::Int(v as i64)));
                }
            };
            opt(&mut fields, "deadline_ms", c.deadline_ms);
            opt(&mut fields, "node_ceiling", c.node_ceiling);
            opt(&mut fields, "step_ceiling", c.step_ceiling);
            opt(&mut fields, "fault_seed", c.fault_seed);
            if let Some(strategy) = &c.strategy {
                fields.push(("strategy".to_string(), Json::Str(strategy.clone())));
            }
            fields.push(("witness".to_string(), Json::Bool(c.witness)));
        }
        let mut out = String::new();
        Json::Obj(fields).write(&mut out);
        out
    }

    /// Decodes one request line. Failures carry a typed [`ProtoError`]
    /// which the server answers with a terminal [`Response::Error`] — the
    /// connection itself survives.
    pub fn parse(line: &str) -> Result<Request, ProtoError> {
        let value = Json::parse(line)?;
        if !matches!(value, Json::Obj(_)) {
            return Err(ProtoError::request(
                "request must be a JSON object".to_string(),
            ));
        }
        let id = value.get("id").and_then(Json::as_u64).unwrap_or(0);
        let op = value
            .get("op")
            .and_then(Json::as_str)
            .ok_or_else(|| ProtoError::request("missing string field \"op\"".to_string()))?;
        match op {
            "ping" => Ok(Request::Ping { id }),
            "stats" => Ok(Request::Stats { id }),
            "shutdown" => Ok(Request::Shutdown { id }),
            "check" => {
                let net = value
                    .get("net")
                    .and_then(Json::as_str)
                    .ok_or_else(|| {
                        ProtoError::request("check: missing string field \"net\"".to_string())
                    })?
                    .to_string();
                let Some(Json::Arr(raw_props)) = value.get("properties") else {
                    return Err(ProtoError::request(
                        "check: missing array field \"properties\"".to_string(),
                    ));
                };
                let mut properties = Vec::with_capacity(raw_props.len());
                for (i, p) in raw_props.iter().enumerate() {
                    let formula = p.get("formula").and_then(Json::as_str).ok_or_else(|| {
                        ProtoError::request(format!(
                            "check: properties[{i}] is missing string field \"formula\""
                        ))
                    })?;
                    let name = p
                        .get("name")
                        .and_then(Json::as_str)
                        .map(str::to_string)
                        .unwrap_or_else(|| format!("p{i}"));
                    properties.push(NamedFormula {
                        name,
                        formula: formula.to_string(),
                    });
                }
                let uint = |key: &str| -> Result<Option<u64>, ProtoError> {
                    match value.get(key) {
                        None | Some(Json::Null) => Ok(None),
                        Some(v) => v.as_u64().map(Some).ok_or_else(|| {
                            ProtoError::request(format!(
                                "check: field \"{key}\" must be a non-negative integer"
                            ))
                        }),
                    }
                };
                Ok(Request::Check(CheckRequest {
                    id,
                    net,
                    properties,
                    deadline_ms: uint("deadline_ms")?,
                    node_ceiling: uint("node_ceiling")?,
                    step_ceiling: uint("step_ceiling")?,
                    fault_seed: uint("fault_seed")?,
                    strategy: value
                        .get("strategy")
                        .and_then(Json::as_str)
                        .map(str::to_string),
                    witness: value.get("witness").and_then(Json::as_bool).unwrap_or(true),
                }))
            }
            other => Err(ProtoError::request(format!("unknown op {other:?}"))),
        }
    }
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// One verdict line of a portfolio query.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// The request id.
    pub id: u64,
    /// The property's name, echoed from the request.
    pub name: String,
    /// The formula text, echoed from the request.
    pub formula: String,
    /// Whether the initial marking satisfies the property (over the
    /// explored prefix when `truncated` is set).
    pub holds: bool,
    /// Markings of the reached set satisfying the property.
    pub sat_markings: f64,
    /// Markings of the reached set the property was evaluated over.
    pub reached_markings: f64,
    /// Why the verdict is non-definitive, if it is.
    pub truncated: Option<TruncationReason>,
    /// What the attached trace demonstrates, when one is attached.
    pub trace_kind: Option<TraceKind>,
    /// The trace as a firing sequence of transition names.
    pub trace: Option<Vec<String>>,
    /// Server-side evaluation time of this property, milliseconds.
    pub check_ms: f64,
}

/// Whether a portfolio query was answered from a warm pool entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolOutcome {
    /// The net's context (and possibly its reached set) was already warm.
    Hit,
    /// A fresh context was built (and possibly an older one evicted).
    Miss,
    /// The context was rehydrated from an on-disk snapshot: warm results
    /// without a traversal, but a rebuilt manager.
    Restored,
}

/// One decoded response line.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to [`Request::Ping`]. Terminal.
    Pong {
        /// The request id.
        id: u64,
    },
    /// Answer to [`Request::Stats`]. Terminal.
    Stats {
        /// The request id.
        id: u64,
        /// Warm contexts currently pooled.
        contexts: u64,
        /// Pool hits since start.
        hits: u64,
        /// Pool misses since start.
        misses: u64,
        /// Pool evictions since start.
        evictions: u64,
        /// Warm entries spilled to the snapshot directory since start.
        spills: u64,
        /// Queries rehydrated from snapshots since start.
        restores: u64,
        /// Portfolio queries served since start.
        queries: u64,
    },
    /// Answer to [`Request::Shutdown`]. Terminal.
    Bye {
        /// The request id.
        id: u64,
    },
    /// A typed error. `terminal` distinguishes a query-level failure (the
    /// request is answered, the response stream ends here) from a
    /// property-level one (more lines follow; the query's `done` line still
    /// closes the stream). The connection survives either way.
    Error {
        /// The request id (0 when the line did not decode far enough to
        /// carry one).
        id: u64,
        /// The failure class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
        /// Whether this line closes the response stream of its request.
        terminal: bool,
        /// For [`ErrorCode::Overloaded`]: how long the client should back
        /// off before resending the (idempotent) request, in milliseconds.
        retry_after_ms: Option<u64>,
    },
    /// One property's verdict within a portfolio query.
    Verdict(Verdict),
    /// The summary line closing a portfolio query. Terminal.
    Done {
        /// The request id.
        id: u64,
        /// The net spec, echoed from the request.
        net: String,
        /// Whether the query hit a warm pooled context.
        pool: PoolOutcome,
        /// Number of verdicts streamed before this line.
        properties: u64,
        /// Shared-subterm cache hits of the portfolio pass.
        subterm_hits: u64,
        /// Shared-subterm cache lookups of the portfolio pass.
        subterm_lookups: u64,
        /// The query-level truncation reason, if any part degraded.
        truncated: Option<TruncationReason>,
        /// Server-side total time of the query, milliseconds.
        total_ms: f64,
    },
}

fn truncation_to_str(reason: TruncationReason) -> &'static str {
    match reason {
        TruncationReason::Iterations => "iterations",
        TruncationReason::Deadline => "deadline",
        TruncationReason::NodeBudget => "node-budget",
        TruncationReason::StepBudget => "step-budget",
        TruncationReason::InjectedFault => "injected-fault",
    }
}

fn truncation_from_str(s: &str) -> Option<TruncationReason> {
    Some(match s {
        "iterations" => TruncationReason::Iterations,
        "deadline" => TruncationReason::Deadline,
        "node-budget" => TruncationReason::NodeBudget,
        "step-budget" => TruncationReason::StepBudget,
        "injected-fault" => TruncationReason::InjectedFault,
        _ => return None,
    })
}

impl Response {
    /// Whether this line closes the response stream of its request (the
    /// client stops reading after it).
    pub fn is_terminal(&self) -> bool {
        match self {
            Response::Pong { .. }
            | Response::Stats { .. }
            | Response::Bye { .. }
            | Response::Done { .. } => true,
            Response::Error { terminal, .. } => *terminal,
            Response::Verdict(_) => false,
        }
    }

    /// The request id the line answers.
    pub fn id(&self) -> u64 {
        match self {
            Response::Pong { id }
            | Response::Stats { id, .. }
            | Response::Bye { id }
            | Response::Error { id, .. }
            | Response::Done { id, .. } => *id,
            Response::Verdict(v) => v.id,
        }
    }

    /// Serializes the response as one protocol line (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut fields: Vec<(String, Json)> = Vec::new();
        let push_str = |fields: &mut Vec<(String, Json)>, key: &str, v: &str| {
            fields.push((key.to_string(), Json::Str(v.to_string())));
        };
        let push_int = |fields: &mut Vec<(String, Json)>, key: &str, v: u64| {
            fields.push((key.to_string(), Json::Int(v as i64)));
        };
        match self {
            Response::Pong { id } => {
                push_str(&mut fields, "type", "pong");
                push_int(&mut fields, "id", *id);
            }
            Response::Stats {
                id,
                contexts,
                hits,
                misses,
                evictions,
                spills,
                restores,
                queries,
            } => {
                push_str(&mut fields, "type", "stats");
                push_int(&mut fields, "id", *id);
                push_int(&mut fields, "contexts", *contexts);
                push_int(&mut fields, "hits", *hits);
                push_int(&mut fields, "misses", *misses);
                push_int(&mut fields, "evictions", *evictions);
                push_int(&mut fields, "spills", *spills);
                push_int(&mut fields, "restores", *restores);
                push_int(&mut fields, "queries", *queries);
            }
            Response::Bye { id } => {
                push_str(&mut fields, "type", "bye");
                push_int(&mut fields, "id", *id);
            }
            Response::Error {
                id,
                code,
                message,
                terminal,
                retry_after_ms,
            } => {
                push_str(&mut fields, "type", "error");
                push_int(&mut fields, "id", *id);
                push_str(&mut fields, "code", code.as_str());
                push_str(&mut fields, "message", message);
                fields.push(("terminal".to_string(), Json::Bool(*terminal)));
                if let Some(ms) = retry_after_ms {
                    push_int(&mut fields, "retry_after_ms", *ms);
                }
            }
            Response::Verdict(v) => {
                push_str(&mut fields, "type", "verdict");
                push_int(&mut fields, "id", v.id);
                push_str(&mut fields, "name", &v.name);
                push_str(&mut fields, "formula", &v.formula);
                fields.push(("holds".to_string(), Json::Bool(v.holds)));
                fields.push(("sat_markings".to_string(), Json::Float(v.sat_markings)));
                fields.push((
                    "reached_markings".to_string(),
                    Json::Float(v.reached_markings),
                ));
                if let Some(reason) = v.truncated {
                    push_str(&mut fields, "truncated", truncation_to_str(reason));
                }
                if let Some(kind) = v.trace_kind {
                    let kind = match kind {
                        TraceKind::Witness => "witness",
                        TraceKind::Counterexample => "counterexample",
                    };
                    push_str(&mut fields, "trace_kind", kind);
                }
                if let Some(trace) = &v.trace {
                    fields.push((
                        "trace".to_string(),
                        Json::Arr(trace.iter().map(|t| Json::Str(t.clone())).collect()),
                    ));
                }
                fields.push(("check_ms".to_string(), Json::Float(v.check_ms)));
            }
            Response::Done {
                id,
                net,
                pool,
                properties,
                subterm_hits,
                subterm_lookups,
                truncated,
                total_ms,
            } => {
                push_str(&mut fields, "type", "done");
                push_int(&mut fields, "id", *id);
                push_str(&mut fields, "net", net);
                let pool = match pool {
                    PoolOutcome::Hit => "hit",
                    PoolOutcome::Miss => "miss",
                    PoolOutcome::Restored => "restored",
                };
                push_str(&mut fields, "pool", pool);
                push_int(&mut fields, "properties", *properties);
                push_int(&mut fields, "subterm_hits", *subterm_hits);
                push_int(&mut fields, "subterm_lookups", *subterm_lookups);
                if let Some(reason) = truncated {
                    push_str(&mut fields, "truncated", truncation_to_str(*reason));
                }
                fields.push(("total_ms".to_string(), Json::Float(*total_ms)));
            }
        }
        let mut out = String::new();
        Json::Obj(fields).write(&mut out);
        out
    }

    /// Decodes one response line.
    pub fn parse(line: &str) -> Result<Response, ProtoError> {
        let value = Json::parse(line)?;
        let id = value.get("id").and_then(Json::as_u64).unwrap_or(0);
        let ty = value
            .get("type")
            .and_then(Json::as_str)
            .ok_or_else(|| ProtoError::request("missing string field \"type\"".to_string()))?;
        let uint = |key: &str| value.get(key).and_then(Json::as_u64).unwrap_or(0);
        let float = |key: &str| value.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        let truncated = || {
            value
                .get("truncated")
                .and_then(Json::as_str)
                .and_then(truncation_from_str)
        };
        match ty {
            "pong" => Ok(Response::Pong { id }),
            "bye" => Ok(Response::Bye { id }),
            "stats" => Ok(Response::Stats {
                id,
                contexts: uint("contexts"),
                hits: uint("hits"),
                misses: uint("misses"),
                evictions: uint("evictions"),
                spills: uint("spills"),
                restores: uint("restores"),
                queries: uint("queries"),
            }),
            "error" => {
                let code = value
                    .get("code")
                    .and_then(Json::as_str)
                    .and_then(ErrorCode::parse)
                    .ok_or_else(|| {
                        ProtoError::request("error: missing or unknown \"code\"".to_string())
                    })?;
                Ok(Response::Error {
                    id,
                    code,
                    message: value
                        .get("message")
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string(),
                    terminal: value
                        .get("terminal")
                        .and_then(Json::as_bool)
                        .unwrap_or(true),
                    retry_after_ms: value.get("retry_after_ms").and_then(Json::as_u64),
                })
            }
            "verdict" => {
                let trace = match value.get("trace") {
                    Some(Json::Arr(items)) => Some(
                        items
                            .iter()
                            .map(|t| {
                                t.as_str().map(str::to_string).ok_or_else(|| {
                                    ProtoError::request(
                                        "verdict: trace entries must be strings".to_string(),
                                    )
                                })
                            })
                            .collect::<Result<Vec<_>, _>>()?,
                    ),
                    _ => None,
                };
                let trace_kind = match value.get("trace_kind").and_then(Json::as_str) {
                    Some("witness") => Some(TraceKind::Witness),
                    Some("counterexample") => Some(TraceKind::Counterexample),
                    _ => None,
                };
                Ok(Response::Verdict(Verdict {
                    id,
                    name: value
                        .get("name")
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string(),
                    formula: value
                        .get("formula")
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string(),
                    holds: value.get("holds").and_then(Json::as_bool).unwrap_or(false),
                    sat_markings: float("sat_markings"),
                    reached_markings: float("reached_markings"),
                    truncated: truncated(),
                    trace_kind,
                    trace,
                    check_ms: float("check_ms"),
                }))
            }
            "done" => {
                let pool = match value.get("pool").and_then(Json::as_str) {
                    Some("hit") => PoolOutcome::Hit,
                    Some("restored") => PoolOutcome::Restored,
                    _ => PoolOutcome::Miss,
                };
                Ok(Response::Done {
                    id,
                    net: value
                        .get("net")
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string(),
                    pool,
                    properties: uint("properties"),
                    subterm_hits: uint("subterm_hits"),
                    subterm_lookups: uint("subterm_lookups"),
                    truncated: truncated(),
                    total_ms: float("total_ms"),
                })
            }
            other => Err(ProtoError::request(format!(
                "unknown response type {other:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_lines_round_trip() {
        let requests = [
            Request::Ping { id: 7 },
            Request::Stats { id: 0 },
            Request::Shutdown {
                id: u32::MAX as u64,
            },
            Request::check_text(3, "phil-3", &[("can-eat", "EF eating.0")]),
            Request::Check(CheckRequest {
                id: 9,
                net: "dme-spec-3".to_string(),
                properties: vec![NamedFormula {
                    name: "weird \"name\"\n".to_string(),
                    formula: "AG !(critical.0 & critical.1)".to_string(),
                }],
                deadline_ms: Some(250),
                node_ceiling: Some(1_000_000),
                step_ceiling: Some(1 << 40),
                fault_seed: Some(42),
                strategy: Some("saturation".to_string()),
                witness: false,
            }),
        ];
        for request in requests {
            let line = request.to_line();
            assert_eq!(Request::parse(&line).unwrap(), request, "{line}");
        }
    }

    #[test]
    fn response_lines_round_trip() {
        let responses = [
            Response::Pong { id: 1 },
            Response::Bye { id: 2 },
            Response::Stats {
                id: 3,
                contexts: 2,
                hits: 10,
                misses: 4,
                evictions: 2,
                spills: 3,
                restores: 1,
                queries: 14,
            },
            Response::Error {
                id: 4,
                code: ErrorCode::Property,
                message: "parse error at position 3: unknown place \"zork\"".to_string(),
                terminal: false,
                retry_after_ms: None,
            },
            Response::Error {
                id: 11,
                code: ErrorCode::Overloaded,
                message: "admission gate full".to_string(),
                terminal: true,
                retry_after_ms: Some(150),
            },
            Response::Verdict(Verdict {
                id: 5,
                name: "can-eat".to_string(),
                formula: "EF eating.0".to_string(),
                holds: true,
                sat_markings: 18.0,
                reached_markings: 22.0,
                truncated: Some(TruncationReason::Deadline),
                trace_kind: Some(TraceKind::Witness),
                trace: Some(vec!["go.0".to_string(), "takel.0".to_string()]),
                check_ms: 1.25,
            }),
            Response::Done {
                id: 6,
                net: "phil-3".to_string(),
                pool: PoolOutcome::Hit,
                properties: 6,
                subterm_hits: 4,
                subterm_lookups: 19,
                truncated: None,
                total_ms: 0.5,
            },
            Response::Done {
                id: 8,
                net: "muller-6".to_string(),
                pool: PoolOutcome::Restored,
                properties: 1,
                subterm_hits: 0,
                subterm_lookups: 2,
                truncated: None,
                total_ms: 0.25,
            },
        ];
        for response in responses {
            let line = response.to_line();
            assert_eq!(Response::parse(&line).unwrap(), response, "{line}");
        }
    }

    #[test]
    fn malformed_lines_produce_typed_errors() {
        for line in ["", "{", "nope", "[1,2]", "{\"op\":\"zap\"}", "{\"id\":1}"] {
            let err = Request::parse(line).unwrap_err();
            assert!(
                matches!(err.code, ErrorCode::Json | ErrorCode::Request),
                "{line:?} -> {err}"
            );
        }
    }

    #[test]
    fn string_escapes_survive_the_codec() {
        let ugly = "a\"b\\c\nd\te\u{1}f\u{fffd}";
        let mut out = String::new();
        Json::Str(ugly.to_string()).write(&mut out);
        assert_eq!(Json::parse(&out).unwrap(), Json::Str(ugly.to_string()));
    }
}
