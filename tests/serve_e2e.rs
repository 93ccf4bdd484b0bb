//! End-to-end tests of the `rtlb serve` daemon over real loopback TCP.
//!
//! The contract under test: responses carry the same bounds as `rtlb
//! analyze` **bit for bit** (including the rendered bounds table), one
//! request's failure — deadline, overflow, panic — is a typed error that
//! never takes down the daemon or its other sessions, and saturation is
//! answered with a typed `busy` error instead of a queue, and clients
//! served at the same time get the same bounds as a lone client. A
//! request line the daemon cannot read, because it is not UTF-8 or is
//! longer than the cap, is answered with a typed error too.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier, Condvar, Mutex};
use std::time::Duration;

use rtlb::obs::{json, Json};
use rtlb::serve::{serve, serve_with_parser, Client, ServeConfig, MAX_REQUEST_BYTES};

const INSTANCES: [&str; 2] = [
    "examples/instances/paper_fig7.rtlb",
    "examples/instances/sensor_fusion.rtlb",
];

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

fn error_code(response: &Json) -> &str {
    rtlb::serve::client::error_code(response).expect("typed error code")
}

/// A connection that writes raw bytes and reads raw response lines; a
/// stalled daemon fails the read after 10 s instead of hanging the test.
fn raw_connect(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("client connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let reader = BufReader::new(stream.try_clone().expect("clone socket"));
    (stream, reader)
}

/// Reads one response line: `Err` on EOF, a read error or invalid JSON.
fn read_response(reader: &mut BufReader<TcpStream>) -> Result<Json, String> {
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(0) => Err("the daemon closed the connection".to_owned()),
        Ok(_) => json::parse(line.trim()).map_err(|e| e.to_string()),
        Err(e) => Err(format!("no response: {e}")),
    }
}

fn counter(stats: &Json, name: &str) -> Option<i64> {
    stats
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .and_then(|c| c.get(name))
        .and_then(Json::as_int)
}

const STATS_LINE: &[u8] = b"{\"proto\":\"rtlb-rpc-v1\",\"op\":\"stats\"}\n";

#[test]
fn server_bounds_match_cli_analyze_bit_for_bit() {
    let server = serve(ServeConfig::default()).expect("daemon binds");
    let mut client = Client::connect(server.addr()).expect("client connects");
    for path in INSTANCES {
        let instance = read(path);
        let response = client.analyze(&instance, None).expect("analyze answers");
        assert!(
            rtlb::serve::client::is_ok(&response),
            "{path}: {response:?}"
        );
        let text = response
            .get("text")
            .and_then(Json::as_str)
            .expect("response carries the rendered bounds table");

        let cli = std::process::Command::new(env!("CARGO_BIN_EXE_rtlb"))
            .args(["analyze", path])
            .output()
            .expect("CLI runs");
        assert!(cli.status.success(), "{path}: CLI failed");
        let stdout = String::from_utf8(cli.stdout).expect("CLI output is UTF-8");
        assert!(
            stdout.contains(text),
            "{path}: the daemon's bounds table is not a byte-identical \
             slice of `rtlb analyze` output.\nserver:\n{text}\ncli:\n{stdout}"
        );

        // `open` reports the same bounds as the stateless `analyze`.
        let opened = client.open(&instance, None).expect("open answers");
        assert_eq!(opened.get("bounds"), response.get("bounds"), "{path}");
        assert_eq!(opened.get("text"), response.get("text"), "{path}");
    }
}

/// Four clients at once, each holding at most one request in flight, so
/// the default admission limit of four never refuses. Each sends 25
/// one-shot `analyze` requests, then opens a session and streams 25
/// `delta` edits that move the first task's computation down one tick
/// and back. Every response is `ok` with the bounds a lone client gets
/// in the same state.
#[test]
fn concurrent_clients_get_the_bounds_a_lone_client_gets() {
    const CLIENTS: usize = 4;
    const REQUESTS: usize = 25;
    let server = serve(ServeConfig::default()).expect("daemon binds");
    let addr = server.addr();
    let instance = read(INSTANCES[1]);
    let parsed = rtlb::format::parse(&instance).expect("instance parses");
    let (_, first) = parsed.graph.tasks().next().expect("instance has a task");
    let c = first.computation().ticks();
    let edits = [
        format!("set {} c={}", first.name(), c - 1),
        format!("set {} c={c}", first.name()),
    ];
    let ok_bounds = |response: Json| {
        assert!(rtlb::serve::client::is_ok(&response), "{response:?}");
        response.get("bounds").cloned().expect("bounds")
    };
    let session_of = |response: &Json| {
        response
            .get("session")
            .and_then(Json::as_str)
            .expect("session id")
            .to_owned()
    };

    // The lone client: one-shot bounds, then the bounds after each edit.
    let mut lone = Client::connect(addr).expect("client connects");
    let oneshot = ok_bounds(lone.analyze(&instance, None).expect("analyze answers"));
    let session = session_of(&lone.open(&instance, None).expect("open answers"));
    let after_edit: Vec<Json> = edits
        .iter()
        .map(|edit| {
            ok_bounds(
                lone.delta(&session, std::slice::from_ref(edit), None)
                    .expect("delta answers"),
            )
        })
        .collect();
    let closed = lone.close_session(&session).expect("close answers");
    assert!(rtlb::serve::client::is_ok(&closed), "{closed:?}");

    let start = Barrier::new(CLIENTS);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let mut client = Client::connect(addr).expect("client connects");
                    start.wait();
                    for _ in 0..REQUESTS {
                        let bounds = ok_bounds(client.analyze(&instance, None).expect("answered"));
                        assert_eq!(bounds, oneshot);
                    }
                    let opened = client.open(&instance, None).expect("answered");
                    let session = session_of(&opened);
                    assert_eq!(ok_bounds(opened), oneshot);
                    for i in 0..REQUESTS {
                        let edit = std::slice::from_ref(&edits[i % edits.len()]);
                        let bounds =
                            ok_bounds(client.delta(&session, edit, None).expect("answered"));
                        assert_eq!(bounds, after_edit[i % edits.len()], "delta {i}");
                    }
                    let closed = client.close_session(&session).expect("answered");
                    assert!(rtlb::serve::client::is_ok(&closed), "{closed:?}");
                })
            })
            .collect();
        for worker in workers {
            worker.join().expect("client thread");
        }
    });
}

#[test]
fn drain_mode_refuses_analysis_but_not_control() {
    let server = serve(ServeConfig {
        max_inflight: 0,
        ..ServeConfig::default()
    })
    .expect("daemon binds");
    let mut client = Client::connect(server.addr()).expect("client connects");
    let instance = read(INSTANCES[0]);
    for response in [
        client.analyze(&instance, None).expect("answered"),
        client.open(&instance, None).expect("answered"),
    ] {
        assert!(!rtlb::serve::client::is_ok(&response));
        assert_eq!(error_code(&response), "busy");
    }
    let stats = client.stats().expect("stats still served in drain mode");
    assert!(rtlb::serve::client::is_ok(&stats));
    assert_eq!(stats.get("max_inflight").and_then(Json::as_int), Some(0));
}

/// A saturated daemon (a slow request holding the only admission slot)
/// answers the next analysis request `busy` immediately — no queueing.
#[test]
fn overload_returns_busy_while_the_slow_request_completes() {
    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let parser_gate = Arc::clone(&gate);
    let server = serve_with_parser(
        ServeConfig {
            max_inflight: 1,
            ..ServeConfig::default()
        },
        Box::new(move |text| {
            let (lock, cvar) = &*parser_gate;
            let mut released = lock.lock().expect("gate");
            while !*released {
                released = cvar.wait(released).expect("gate");
            }
            rtlb::format::parse(text)
        }),
    )
    .expect("daemon binds");
    let addr = server.addr();
    let instance = read(INSTANCES[1]);

    let slow_instance = instance.clone();
    let slow = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("slow client connects");
        client.analyze(&slow_instance, None).expect("answered")
    });

    // Wait until the slow request holds the admission slot.
    let mut client = Client::connect(addr).expect("client connects");
    let mut saturated = false;
    for _ in 0..200 {
        let stats = client.stats().expect("stats answers");
        if stats.get("inflight").and_then(Json::as_int) == Some(1) {
            saturated = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(saturated, "the slow request never took the admission slot");

    let refused = client.analyze(&instance, None).expect("answered");
    assert!(!rtlb::serve::client::is_ok(&refused));
    assert_eq!(error_code(&refused), "busy");

    // Release the gate: the slow request completes normally.
    let (lock, cvar) = &*gate;
    *lock.lock().expect("gate") = true;
    cvar.notify_all();
    let slow_response = slow.join().expect("slow client thread");
    assert!(
        rtlb::serve::client::is_ok(&slow_response),
        "{slow_response:?}"
    );

    // With the slot free again the same request is admitted.
    let retried = client.analyze(&instance, None).expect("answered");
    assert!(rtlb::serve::client::is_ok(&retried));
}

#[test]
fn expired_deadline_reports_timeout_and_daemon_survives() {
    let server = serve(ServeConfig::default()).expect("daemon binds");
    let mut client = Client::connect(server.addr()).expect("client connects");
    let instance = read(INSTANCES[0]);
    let response = client.analyze(&instance, Some(0)).expect("answered");
    assert!(!rtlb::serve::client::is_ok(&response));
    assert_eq!(error_code(&response), "timeout");
    // The daemon is fine; the same request without a deadline succeeds.
    let retried = client.analyze(&instance, None).expect("answered");
    assert!(rtlb::serve::client::is_ok(&retried));
}

#[test]
fn overflowing_instance_reports_a_typed_error() {
    let server = serve(ServeConfig::default()).expect("daemon binds");
    let mut client = Client::connect(server.addr()).expect("client connects");
    let response = client
        .analyze(&read("examples/batch/overflow.rtlb"), None)
        .expect("answered");
    assert!(!rtlb::serve::client::is_ok(&response));
    assert_eq!(error_code(&response), "overflow");
}

/// The ISSUE's isolation contract: a panicking request returns a typed
/// `panicked` error while a concurrent healthy session completes its
/// delta untouched.
#[test]
fn panicking_request_is_isolated_from_other_sessions() {
    let server = serve_with_parser(
        ServeConfig::default(),
        Box::new(|text| {
            assert!(!text.starts_with("panic!"), "injected parser panic");
            rtlb::format::parse(text)
        }),
    )
    .expect("daemon binds");
    let addr = server.addr();
    let instance = read(INSTANCES[1]);

    let mut healthy = Client::connect(addr).expect("healthy client connects");
    let opened = healthy.open(&instance, None).expect("open answers");
    assert!(rtlb::serve::client::is_ok(&opened));
    let session = opened
        .get("session")
        .and_then(Json::as_str)
        .expect("session id")
        .to_owned();

    let panicker = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("panic client connects");
        client
            .analyze("panic! this is not an instance", None)
            .expect("a panicking request still gets a response")
    });
    let delta = healthy
        .delta(&session, &["set radar_a c=5".to_owned()], None)
        .expect("delta answers");
    let panic_response = panicker.join().expect("panic client thread");

    assert_eq!(error_code(&panic_response), "panicked");
    assert!(
        rtlb::serve::client::is_ok(&delta),
        "a healthy session must complete while another request panics: {delta:?}"
    );
    // And the daemon keeps serving afterwards.
    let stats = healthy.stats().expect("stats answers");
    assert!(rtlb::serve::client::is_ok(&stats));
}

#[test]
fn malformed_lines_and_unknown_sessions_get_typed_errors() {
    let server = serve(ServeConfig::default()).expect("daemon binds");
    let mut client = Client::connect(server.addr()).expect("client connects");

    let garbage = client
        .call(&Json::obj([("op", Json::str("open"))]))
        .expect("answered");
    assert_eq!(error_code(&garbage), "bad-request");

    let delta = client
        .delta("s99", &["set x c=1".to_owned()], None)
        .expect("answered");
    assert_eq!(error_code(&delta), "no-session");

    let closed = client.close_session("s99").expect("answered");
    assert_eq!(error_code(&closed), "no-session");
}

#[test]
fn stats_embeds_a_valid_metrics_snapshot() {
    let server = serve(ServeConfig::default()).expect("daemon binds");
    let mut client = Client::connect(server.addr()).expect("client connects");
    let instance = read(INSTANCES[0]);
    let opened = client.open(&instance, None).expect("open answers");
    assert!(rtlb::serve::client::is_ok(&opened));

    let stats = client.stats().expect("stats answers");
    let sessions = stats.get("sessions").expect("sessions object");
    assert_eq!(sessions.get("live").and_then(Json::as_int), Some(1));
    assert_eq!(sessions.get("resident").and_then(Json::as_int), Some(1));
    let metrics = stats.get("metrics").expect("embedded metrics snapshot");
    // The embedded document is a valid rtlb-metrics-v1 export — the same
    // validation `rtlb check-report` applies.
    let summary = rtlb::check::check_document(metrics).expect("valid snapshot");
    assert!(summary.contains("rtlb-metrics-v1"), "{summary}");

    // The daemon counted the requests this test sent.
    let counters = metrics.get("counters").expect("counters");
    assert!(counters.get("serve.requests").and_then(Json::as_int) >= Some(2));
    assert_eq!(
        counters.get("serve.op.open").and_then(Json::as_int),
        Some(1)
    );
}

/// The cache contract over the wire: a daemon pointed at `--cache=DIR`
/// answers repeated (and reformatted) requests from the store with
/// byte-identical bounds, and a second daemon sharing the directory
/// starts warm.
#[test]
fn shared_cache_serves_byte_identical_bounds_across_daemons() {
    let dir = std::env::temp_dir().join(format!("rtlb-serve-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = || ServeConfig {
        cache_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };
    let instance = read(INSTANCES[1]);

    let first = serve(config()).expect("daemon binds");
    let mut client = Client::connect(first.addr()).expect("client connects");
    let cold = client.analyze(&instance, None).expect("analyze answers");
    assert!(rtlb::serve::client::is_ok(&cold), "{cold:?}");
    let warm = client.analyze(&instance, None).expect("analyze answers");
    assert_eq!(warm.get("bounds"), cold.get("bounds"));
    assert_eq!(warm.get("text"), cold.get("text"));

    // Reformatting — comments, indentation, blank lines — still hits:
    // the key is content-addressed, not text-addressed.
    let reformatted = format!(
        "# a reformatting comment\n{}\n\n",
        instance.replace('\n', "  \n")
    );
    let reread = client.analyze(&reformatted, None).expect("analyze answers");
    assert_eq!(reread.get("bounds"), cold.get("bounds"));
    assert_eq!(reread.get("text"), cold.get("text"));

    let stats = client.stats().expect("stats answers");
    let counters = stats
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .expect("counters");
    assert_eq!(counters.get("cache.miss").and_then(Json::as_int), Some(1));
    assert_eq!(counters.get("cache.write").and_then(Json::as_int), Some(1));
    assert!(counters.get("cache.hit").and_then(Json::as_int) >= Some(2));
    drop(client);
    first.shutdown();

    // A fresh daemon on the same directory starts warm: its first answer
    // comes from the store, byte-identical to the first daemon's.
    let second = serve(config()).expect("daemon binds");
    let mut client = Client::connect(second.addr()).expect("client connects");
    let served = client.analyze(&instance, None).expect("analyze answers");
    assert_eq!(served.get("bounds"), cold.get("bounds"));
    assert_eq!(served.get("text"), cold.get("text"));
    let stats = client.stats().expect("stats answers");
    let counters = stats
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .expect("counters");
    assert_eq!(counters.get("cache.hit").and_then(Json::as_int), Some(1));
    assert_eq!(counters.get("cache.miss").and_then(Json::as_int), None);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shutdown_request_stops_the_daemon() {
    let server = serve(ServeConfig::default()).expect("daemon binds");
    let addr = server.addr();
    let mut client = Client::connect(addr).expect("client connects");
    let response = client.shutdown().expect("shutdown answers");
    assert!(rtlb::serve::client::is_ok(&response));
    let snapshot = server.wait();
    assert!(snapshot
        .counters
        .iter()
        .any(|(name, _)| name == "serve.op.shutdown"));
    // The listener is gone (give the OS a moment to tear it down).
    std::thread::sleep(Duration::from_millis(50));
    assert!(
        Client::connect(addr).is_err() || {
            // A TCP connect may still succeed briefly on some stacks; a
            // request on it must then fail.
            let mut late = Client::connect(addr).expect("probe");
            late.stats().is_err()
        }
    );
}

/// A request line that is not UTF-8 is answered like malformed JSON: a
/// typed `bad-request`, with the connection kept open for the next one.
#[test]
fn non_utf8_request_gets_a_typed_error_and_the_connection_lives() {
    let server = serve(ServeConfig::default()).expect("daemon binds");
    let (mut writer, mut reader) = raw_connect(server.addr());
    writer
        .write_all(b"{\"proto\":\"rtlb-rpc-v1\",\"op\":\"\xff\xfe\"}\n")
        .expect("send");
    let response = read_response(&mut reader).expect("the bad line is answered");
    assert_eq!(error_code(&response), "bad-request");
    let message = response
        .get("error")
        .and_then(|e| e.get("message"))
        .and_then(Json::as_str)
        .expect("error message");
    assert!(message.contains("UTF-8"), "{message}");

    writer.write_all(STATS_LINE).expect("send");
    let stats = read_response(&mut reader).expect("the same socket still answers");
    assert!(rtlb::serve::client::is_ok(&stats), "{stats:?}");
    assert_eq!(counter(&stats, "serve.rejected.not_utf8"), Some(1));
}

/// A request nested too deeply for the decoder is a typed
/// `bad-request` on a connection that stays open, not a stack overflow
/// that aborts the daemon.
#[test]
fn deeply_nested_request_gets_a_typed_error_and_the_daemon_lives() {
    let server = serve(ServeConfig::default()).expect("daemon binds");
    let (mut writer, mut reader) = raw_connect(server.addr());
    let mut line = vec![b'['; 1 << 20];
    line.push(b'\n');
    writer.write_all(&line).expect("send");
    let response = read_response(&mut reader).expect("the deep line is answered");
    assert_eq!(error_code(&response), "bad-request");

    writer.write_all(STATS_LINE).expect("send");
    let stats = read_response(&mut reader).expect("the same socket still answers");
    assert!(rtlb::serve::client::is_ok(&stats), "{stats:?}");
}

/// A line longer than [`MAX_REQUEST_BYTES`] is refused with a typed
/// error naming the cap, and its connection is closed; the daemon keeps
/// serving other connections.
#[test]
fn oversized_request_line_is_refused_and_its_connection_closed() {
    let server = serve(ServeConfig::default()).expect("daemon binds");
    let (mut writer, mut reader) = raw_connect(server.addr());
    writer
        .write_all(&vec![b'x'; MAX_REQUEST_BYTES + 1])
        .expect("the daemon reads up to the cap");
    let response = read_response(&mut reader).expect("the long line is answered");
    assert_eq!(error_code(&response), "bad-request");
    let message = response
        .get("error")
        .and_then(|e| e.get("message"))
        .and_then(Json::as_str)
        .expect("error message");
    assert!(
        message.contains(&MAX_REQUEST_BYTES.to_string()),
        "{message}"
    );
    let mut rest = String::new();
    assert_eq!(
        reader.read_line(&mut rest).expect("a clean close"),
        0,
        "the connection is closed after the refusal: {rest}"
    );

    let mut client = Client::connect(server.addr()).expect("a second client connects");
    let stats = client.stats().expect("the daemon still answers");
    assert!(rtlb::serve::client::is_ok(&stats), "{stats:?}");
    assert_eq!(counter(&stats, "serve.rejected.oversize"), Some(1));
}

/// A client still sending when its line passes the cap finishes its
/// writes and reads the typed refusal and then a clean end of stream:
/// the daemon half-closes and discards the rest of the line instead of
/// closing with unread input, which would reset the connection and fail
/// the client's next write.
#[test]
fn client_still_sending_past_the_cap_reads_the_refusal() {
    let server = serve(ServeConfig::default()).expect("daemon binds");
    let (mut writer, mut reader) = raw_connect(server.addr());
    writer
        .write_all(&vec![b'x'; MAX_REQUEST_BYTES + 1])
        .expect("the daemon reads up to the cap");
    let chunk = vec![b'x'; 128 << 10];
    for _ in 0..8 {
        // Paced, so a reset sent at the refusal would reach this socket
        // before its next write.
        std::thread::sleep(Duration::from_millis(10));
        writer
            .write_all(&chunk)
            .expect("the rest of the line is accepted after the refusal");
    }
    writer.write_all(b"\n").expect("the line ends");
    writer
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");

    let response = read_response(&mut reader).expect("the refusal is read after sending");
    assert_eq!(error_code(&response), "bad-request");
    let mut rest = String::new();
    assert_eq!(
        reader
            .read_line(&mut rest)
            .expect("a clean close, not a reset"),
        0,
        "{rest}"
    );

    let mut client = Client::connect(server.addr()).expect("a second client connects");
    let stats = client.stats().expect("the daemon still answers");
    assert_eq!(counter(&stats, "serve.rejected.oversize"), Some(1));
}

/// A request that arrives in pieces, with a pause longer than the
/// daemon's 200 ms read poll between them, is still read as one line.
#[test]
fn partial_request_line_survives_the_read_poll() {
    let server = serve(ServeConfig::default()).expect("daemon binds");
    let (mut writer, mut reader) = raw_connect(server.addr());
    let (head, tail) = STATS_LINE.split_at(STATS_LINE.len() / 2);
    writer.write_all(head).expect("send");
    std::thread::sleep(Duration::from_millis(450));
    writer.write_all(tail).expect("send");
    let stats = read_response(&mut reader).expect("answered");
    assert!(rtlb::serve::client::is_ok(&stats), "{stats:?}");
}
