//! The `rtlb-rpc-v1` wire protocol: request parsing and response
//! building.
//!
//! One request is one JSON object on one line; the server answers with
//! one JSON object on one line. Every message carries
//! `"proto": "rtlb-rpc-v1"`; requests carry `"op"` plus op-specific
//! fields and may carry a client-chosen `"id"` that is echoed back.
//!
//! Requests:
//!
//! ```text
//! {"proto":"rtlb-rpc-v1","op":"open","instance":"<.rtlb text>"}
//! {"proto":"rtlb-rpc-v1","op":"delta","session":"s1","edits":["set radar_a c=4"]}
//! {"proto":"rtlb-rpc-v1","op":"analyze","instance":"<.rtlb text>"}
//! {"proto":"rtlb-rpc-v1","op":"close","session":"s1"}
//! {"proto":"rtlb-rpc-v1","op":"stats"}
//! {"proto":"rtlb-rpc-v1","op":"shutdown"}
//! ```
//!
//! `open`, `delta`, and `analyze` accept an optional `"deadline_ms"`.
//! Successful analysis responses carry `"bounds"` (same shape as the
//! `rtlb-batch-v1` per-instance bounds) and `"text"` (the exact Step 3
//! bounds table `rtlb analyze` prints). Failures carry
//! `{"ok":false,"error":{"code":...,"message":...}}` where `code` is
//! [`ErrorCode::label`]: the admission codes `busy` / `bad-request` /
//! `no-session`, or one of the batch taxonomy labels
//! (`parse-error`, `infeasible`, `overflow`, `timeout`, `panicked`).

use rtlb_cache::bound_json;
use rtlb_core::{OutcomeKind, ResourceBound};
use rtlb_graph::TaskGraph;
use rtlb_obs::{json, Json};

/// Protocol tag carried by every request and response.
pub const RPC_SCHEMA: &str = "rtlb-rpc-v1";

/// One parsed request: the op plus the echoed client id.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// Client-chosen correlation id, echoed verbatim in the response.
    pub id: Option<String>,
    /// What to do.
    pub op: Op,
}

/// The operations of `rtlb-rpc-v1`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// Analyze an instance and keep it resident as a session.
    Open {
        /// The `.rtlb` instance text.
        instance: String,
        /// Per-request deadline in milliseconds.
        deadline_ms: Option<u64>,
    },
    /// Apply edit lines to a session, returning updated bounds.
    Delta {
        /// Session id from a previous `open`.
        session: String,
        /// Edit lines in the scenario syntax (`set` / `message` /
        /// `demand`), applied as one atomic batch.
        edits: Vec<String>,
        /// Per-request deadline in milliseconds.
        deadline_ms: Option<u64>,
    },
    /// Stateless one-shot analysis (no session is created).
    Analyze {
        /// The `.rtlb` instance text.
        instance: String,
        /// Per-request deadline in milliseconds.
        deadline_ms: Option<u64>,
    },
    /// Drop a session (live or parked).
    Close {
        /// Session id from a previous `open`.
        session: String,
    },
    /// Report pool occupancy and the embedded metrics snapshot.
    Stats,
    /// Stop the daemon after answering this request.
    Shutdown,
}

impl Op {
    /// Stable op name, as it appears on the wire.
    pub fn label(&self) -> &'static str {
        match self {
            Op::Open { .. } => "open",
            Op::Delta { .. } => "delta",
            Op::Analyze { .. } => "analyze",
            Op::Close { .. } => "close",
            Op::Stats => "stats",
            Op::Shutdown => "shutdown",
        }
    }
}

/// Typed failure code of an `rtlb-rpc-v1` error response.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The server is at its admission limit; retry later.
    Busy,
    /// The request is malformed (bad JSON, missing fields, an edit that
    /// references an unknown task).
    BadRequest,
    /// The named session does not exist (never opened, closed, or
    /// dropped from the parked tier).
    NoSession,
    /// The analysis itself failed, classified with the batch driver's
    /// taxonomy ([`OutcomeKind::label`]).
    Outcome(OutcomeKind),
}

impl ErrorCode {
    /// The stable wire label.
    pub fn label(self) -> &'static str {
        match self {
            ErrorCode::Busy => "busy",
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::NoSession => "no-session",
            ErrorCode::Outcome(kind) => kind.label(),
        }
    }
}

/// A typed request failure: the wire code plus a human-readable message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RpcError {
    /// The wire code.
    pub code: ErrorCode,
    /// What went wrong, for humans.
    pub message: String,
}

impl RpcError {
    /// A `bad-request` error.
    pub fn bad_request(message: impl Into<String>) -> RpcError {
        RpcError {
            code: ErrorCode::BadRequest,
            message: message.into(),
        }
    }
}

/// Parses one request line.
///
/// # Errors
///
/// [`RpcError`] with code `bad-request` describing the first problem:
/// invalid JSON, a missing/`proto` mismatch, an unknown `op`, or a
/// missing or mistyped field.
pub fn parse_request(line: &str) -> Result<Request, RpcError> {
    let mut doc =
        json::parse(line).map_err(|e| RpcError::bad_request(format!("invalid JSON: {e}")))?;
    match doc.get("proto").and_then(Json::as_str) {
        Some(RPC_SCHEMA) => {}
        Some(other) => {
            return Err(RpcError::bad_request(format!(
                "unsupported proto `{other}` (this server speaks {RPC_SCHEMA})"
            )))
        }
        None => {
            return Err(RpcError::bad_request(format!(
                "missing `proto` (expected \"{RPC_SCHEMA}\")"
            )))
        }
    }
    // String fields move out of the document: an instance text is
    // never copied.
    let id = match doc.take("id") {
        None | Some(Json::Null) => None,
        Some(Json::Str(s)) => Some(s),
        Some(_) => return Err(RpcError::bad_request("`id` must be a string")),
    };
    let op_field = doc.take("op");
    let op = match op_field.as_ref().and_then(Json::as_str) {
        None => return Err(RpcError::bad_request("missing `op`")),
        Some("open") => Op::Open {
            instance: required_str(&mut doc, "instance")?,
            deadline_ms: optional_u64(&doc, "deadline_ms")?,
        },
        Some("delta") => Op::Delta {
            session: required_str(&mut doc, "session")?,
            edits: required_str_array(&mut doc, "edits")?,
            deadline_ms: optional_u64(&doc, "deadline_ms")?,
        },
        Some("analyze") => Op::Analyze {
            instance: required_str(&mut doc, "instance")?,
            deadline_ms: optional_u64(&doc, "deadline_ms")?,
        },
        Some("close") => Op::Close {
            session: required_str(&mut doc, "session")?,
        },
        Some("stats") => Op::Stats,
        Some("shutdown") => Op::Shutdown,
        Some(other) => return Err(RpcError::bad_request(format!("unknown op `{other}`"))),
    };
    Ok(Request { id, op })
}

fn required_str(doc: &mut Json, key: &str) -> Result<String, RpcError> {
    match doc.take(key) {
        Some(Json::Str(s)) => Ok(s),
        Some(_) => Err(RpcError::bad_request(format!("`{key}` must be a string"))),
        None => Err(RpcError::bad_request(format!("missing `{key}`"))),
    }
}

fn required_str_array(doc: &mut Json, key: &str) -> Result<Vec<String>, RpcError> {
    let items = match doc.take(key) {
        Some(Json::Arr(items)) => items,
        Some(_) => return Err(RpcError::bad_request(format!("`{key}` must be an array"))),
        None => return Err(RpcError::bad_request(format!("missing `{key}`"))),
    };
    items
        .into_iter()
        .map(|v| match v {
            Json::Str(s) => Ok(s),
            _ => Err(RpcError::bad_request(format!(
                "`{key}` must contain only strings"
            ))),
        })
        .collect()
}

fn optional_u64(doc: &Json, key: &str) -> Result<Option<u64>, RpcError> {
    match doc.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(json) => match json.as_int().and_then(|v| u64::try_from(v).ok()) {
            Some(v) => Ok(Some(v)),
            None => Err(RpcError::bad_request(format!(
                "`{key}` must be a non-negative integer"
            ))),
        },
    }
}

/// The shared response prefix: proto, echoed id, the op, and `ok`.
fn response_head(id: &Option<String>, op: &str, ok: bool) -> Vec<(String, Json)> {
    let mut fields = vec![("proto".to_owned(), Json::str(RPC_SCHEMA))];
    if let Some(id) = id {
        fields.push(("id".to_owned(), Json::str(id.as_str())));
    }
    fields.push(("op".to_owned(), Json::str(op)));
    fields.push(("ok".to_owned(), Json::Bool(ok)));
    fields
}

/// A success response: the head plus op-specific `body` fields.
pub fn ok_response(id: &Option<String>, op: &str, body: Vec<(String, Json)>) -> Json {
    let mut fields = response_head(id, op, true);
    fields.extend(body);
    Json::Obj(fields)
}

/// An error response carrying the typed code and message.
pub fn err_response(id: &Option<String>, op: &str, error: &RpcError) -> Json {
    let mut fields = response_head(id, op, false);
    fields.push((
        "error".to_owned(),
        Json::obj([
            ("code", Json::str(error.code.label())),
            ("message", Json::str(error.message.as_str())),
        ]),
    ));
    Json::Obj(fields)
}

/// The bounds payload every successful analysis response carries:
/// `bounds`, one [`bound_json`] row per resource (the `rtlb-batch-v1`
/// per-instance shape), and `text`, the exact bounds table `rtlb
/// analyze` prints for the same instance (byte-for-byte — both call
/// [`render_bounds`](rtlb_core::render_bounds)).
pub fn bounds_body(graph: &TaskGraph, bounds: &[ResourceBound]) -> Vec<(String, Json)> {
    let rows = bounds
        .iter()
        .map(|b| bound_json(graph.catalog().name(b.resource), b))
        .collect();
    vec![
        ("bounds".to_owned(), Json::Arr(rows)),
        (
            "text".to_owned(),
            Json::str(rtlb_core::render_bounds(graph, bounds)),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(line: &str) -> Request {
        parse_request(line).expect("request parses")
    }

    #[test]
    fn requests_parse_with_ids_and_deadlines() {
        let r =
            req(r#"{"proto":"rtlb-rpc-v1","op":"open","id":"7","instance":"x","deadline_ms":250}"#);
        assert_eq!(r.id.as_deref(), Some("7"));
        assert_eq!(
            r.op,
            Op::Open {
                instance: "x".to_owned(),
                deadline_ms: Some(250)
            }
        );
        let r = req(r#"{"proto":"rtlb-rpc-v1","op":"delta","session":"s1","edits":["set a c=4"]}"#);
        assert_eq!(
            r.op,
            Op::Delta {
                session: "s1".to_owned(),
                edits: vec!["set a c=4".to_owned()],
                deadline_ms: None
            }
        );
        assert_eq!(req(r#"{"proto":"rtlb-rpc-v1","op":"stats"}"#).op, Op::Stats);
        assert_eq!(
            req(r#"{"proto":"rtlb-rpc-v1","op":"shutdown"}"#).op,
            Op::Shutdown
        );
    }

    #[test]
    fn malformed_requests_are_bad_request() {
        for line in [
            "not json",
            r#"{"op":"stats"}"#,
            r#"{"proto":"rtlb-rpc-v2","op":"stats"}"#,
            r#"{"proto":"rtlb-rpc-v1"}"#,
            r#"{"proto":"rtlb-rpc-v1","op":"fly"}"#,
            r#"{"proto":"rtlb-rpc-v1","op":"open"}"#,
            r#"{"proto":"rtlb-rpc-v1","op":"open","instance":7}"#,
            r#"{"proto":"rtlb-rpc-v1","op":"delta","session":"s1","edits":[1]}"#,
            r#"{"proto":"rtlb-rpc-v1","op":"delta","session":"s1"}"#,
            r#"{"proto":"rtlb-rpc-v1","op":"open","instance":"x","deadline_ms":-4}"#,
            r#"{"proto":"rtlb-rpc-v1","op":"open","instance":"x","id":9}"#,
        ] {
            let err = parse_request(line).expect_err(line);
            assert_eq!(err.code, ErrorCode::BadRequest, "{line}");
        }
    }

    #[test]
    fn error_codes_cover_taxonomy_and_admission() {
        assert_eq!(ErrorCode::Busy.label(), "busy");
        assert_eq!(ErrorCode::BadRequest.label(), "bad-request");
        assert_eq!(ErrorCode::NoSession.label(), "no-session");
        for kind in rtlb_core::OUTCOME_KINDS {
            assert_eq!(ErrorCode::Outcome(kind).label(), kind.label());
        }
    }

    #[test]
    fn responses_echo_id_and_render_one_line() {
        let ok = ok_response(
            &Some("42".to_owned()),
            "stats",
            vec![("sessions".to_owned(), Json::Int(3))],
        );
        assert_eq!(ok.get("proto").and_then(Json::as_str), Some(RPC_SCHEMA));
        assert_eq!(ok.get("id").and_then(Json::as_str), Some("42"));
        assert_eq!(ok.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(ok.get("sessions").and_then(Json::as_int), Some(3));
        assert!(!ok.render().contains('\n'));

        let err = err_response(
            &None,
            "open",
            &RpcError {
                code: ErrorCode::Busy,
                message: "4 requests in flight".to_owned(),
            },
        );
        assert_eq!(err.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(
            err.get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str),
            Some("busy")
        );
        assert!(err.get("id").is_none());
    }
}
