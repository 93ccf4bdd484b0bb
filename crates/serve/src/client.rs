//! A small blocking `rtlb-rpc-v1` client: one TCP connection, one
//! request line out, one response line back.
//!
//! Used by the end-to-end tests to drive the daemon over the wire.
//! Protocol-level failures (a response that is not valid JSON, a closed
//! connection) are `Err`; typed server errors (`busy`, `timeout`, ...)
//! are `Ok` responses with `"ok": false` — use [`error_code`] to
//! classify them.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

use rtlb_obs::{json, Json};

use crate::proto::RPC_SCHEMA;

/// One connection to a `rtlb serve` daemon.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to a daemon.
    ///
    /// # Errors
    ///
    /// A human-readable message when the connection cannot be
    /// established.
    pub fn connect(addr: impl ToSocketAddrs + std::fmt::Debug) -> Result<Client, String> {
        let stream =
            TcpStream::connect(&addr).map_err(|e| format!("cannot connect to {addr:?}: {e}"))?;
        // See the server side: Nagle + delayed ACK stalls one-line
        // request/response exchanges by ~40 ms each.
        stream
            .set_nodelay(true)
            .map_err(|e| format!("cannot set nodelay: {e}"))?;
        let writer = stream
            .try_clone()
            .map_err(|e| format!("cannot clone stream: {e}"))?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Sends one request object and reads the one response line.
    ///
    /// # Errors
    ///
    /// Transport problems only: write failure, a connection closed
    /// before a response line, a response that is not valid JSON.
    pub fn call(&mut self, request: &Json) -> Result<Json, String> {
        writeln!(self.writer, "{}", request.render()).map_err(|e| format!("send failed: {e}"))?;
        self.writer
            .flush()
            .map_err(|e| format!("send failed: {e}"))?;
        let mut line = String::new();
        let n = self
            .reader
            .read_line(&mut line)
            .map_err(|e| format!("receive failed: {e}"))?;
        if n == 0 {
            return Err("connection closed before a response arrived".to_owned());
        }
        json::parse(line.trim()).map_err(|e| format!("invalid response JSON: {e}"))
    }

    /// `open`: analyze `instance` and keep it resident.
    ///
    /// # Errors
    ///
    /// Same as [`Client::call`].
    pub fn open(&mut self, instance: &str, deadline_ms: Option<u64>) -> Result<Json, String> {
        self.call(&request(
            "open",
            [
                Some(("instance", Json::str(instance))),
                deadline_ms.map(|ms| ("deadline_ms", Json::Int(ms as i64))),
            ],
        ))
    }

    /// `delta`: apply edit lines to a session.
    ///
    /// # Errors
    ///
    /// Same as [`Client::call`].
    pub fn delta(
        &mut self,
        session: &str,
        edits: &[String],
        deadline_ms: Option<u64>,
    ) -> Result<Json, String> {
        self.call(&request(
            "delta",
            [
                Some(("session", Json::str(session))),
                Some(("edits", Json::Arr(edits.iter().map(Json::str).collect()))),
                deadline_ms.map(|ms| ("deadline_ms", Json::Int(ms as i64))),
            ],
        ))
    }

    /// `analyze`: stateless one-shot analysis.
    ///
    /// # Errors
    ///
    /// Same as [`Client::call`].
    pub fn analyze(&mut self, instance: &str, deadline_ms: Option<u64>) -> Result<Json, String> {
        self.call(&request(
            "analyze",
            [
                Some(("instance", Json::str(instance))),
                deadline_ms.map(|ms| ("deadline_ms", Json::Int(ms as i64))),
            ],
        ))
    }

    /// `close`: drop a session.
    ///
    /// # Errors
    ///
    /// Same as [`Client::call`].
    pub fn close_session(&mut self, session: &str) -> Result<Json, String> {
        self.call(&request("close", [Some(("session", Json::str(session)))]))
    }

    /// `stats`: pool occupancy plus the embedded metrics snapshot.
    ///
    /// # Errors
    ///
    /// Same as [`Client::call`].
    pub fn stats(&mut self) -> Result<Json, String> {
        self.call(&request::<0>("stats", []))
    }

    /// `shutdown`: stop the daemon.
    ///
    /// # Errors
    ///
    /// Same as [`Client::call`].
    pub fn shutdown(&mut self) -> Result<Json, String> {
        self.call(&request::<0>("shutdown", []))
    }
}

/// Builds a request object with the protocol preamble.
fn request<const N: usize>(op: &str, fields: [Option<(&str, Json)>; N]) -> Json {
    let mut pairs = vec![
        ("proto".to_owned(), Json::str(RPC_SCHEMA)),
        ("op".to_owned(), Json::str(op)),
    ];
    for field in fields.into_iter().flatten() {
        pairs.push((field.0.to_owned(), field.1));
    }
    Json::Obj(pairs)
}

/// `true` when a response reports success.
pub fn is_ok(response: &Json) -> bool {
    response.get("ok") == Some(&Json::Bool(true))
}

/// The typed error code of a failed response, if any.
pub fn error_code(response: &Json) -> Option<&str> {
    response
        .get("error")
        .and_then(|e| e.get("code"))
        .and_then(Json::as_str)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{parse_request, Op};

    #[test]
    fn built_requests_parse_back() {
        let open = request(
            "open",
            [
                Some(("instance", Json::str("processor P\n"))),
                Some(("deadline_ms", Json::Int(50))),
            ],
        );
        let parsed = parse_request(&open.render()).expect("round trip");
        assert_eq!(
            parsed.op,
            Op::Open {
                instance: "processor P\n".to_owned(),
                deadline_ms: Some(50)
            }
        );
        let stats = request::<0>("stats", []);
        assert_eq!(parse_request(&stats.render()).unwrap().op, Op::Stats);
    }

    #[test]
    fn response_helpers_classify() {
        let ok = Json::obj([("ok", Json::Bool(true))]);
        assert!(is_ok(&ok));
        assert_eq!(error_code(&ok), None);
        let err = Json::obj([
            ("ok", Json::Bool(false)),
            ("error", Json::obj([("code", Json::str("busy"))])),
        ]);
        assert!(!is_ok(&err));
        assert_eq!(error_code(&err), Some("busy"));
    }
}
