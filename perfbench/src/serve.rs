//! The two serve workloads: one connection to an in-process daemon,
//! closed loop, request lines rendered before the timed window and raw
//! response lines checked after it.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

use rtlb_core::{
    analyze_with, analyze_with_probe, AnalysisOptions, AnalysisSession, CancelToken, SystemModel,
};
use rtlb_graph::{Dur, TaskGraph, Time};
use rtlb_obs::{Json, NULL_PROBE};
use rtlb_serve::proto::{bounds_body, ok_response};
use rtlb_serve::{parse_request, serve, Checkout, Op, ServeConfig, Server, SessionPool};
use rtlb_workloads::{framed_tasks, layered, LayeredConfig};

use crate::check::{self, BoundRow, Verdict};
use crate::trace::Tracer;
use crate::{
    dump_spans, end_to_end, interleave, per_layer, Args, Replay, Replayed, Report, Rng, Timed,
    SETUPS,
};

/// Distinct one-shot instances the requests cycle through.
const ONESHOT_POOL: usize = 16;

/// Sessions the delta workload keeps open, each on its own seeded graph.
/// How costly one graph's edits are moves with its seed; pooling four
/// independent graphs halves that. The cycle visits the sessions in
/// turn, so every pass over it carries the same mix of graphs.
const DELTA_SESSIONS: usize = 4;

/// Do/undo edit pairs per session, spread over the 20 depths of the DAG:
/// the cycle of 800 edits is long enough that p99 is set by its eight
/// costliest positions rather than by one edit.
const DELTA_PAIRS: usize = 100;

/// Pairs per session sent as warm-up in each set-up.
const DELTA_WARMUP_PAIRS: usize = 10;

/// Edit kinds of the delta cycle, in [`edit_pair`]'s numbering, repeated
/// along it: computation and demand edits (which re-sweep) outnumber
/// message and deadline edits (most of which change no window). With
/// equal shares the cheap edits make up about half of the ops, so p50
/// would sit on the cliff between them and the re-sweeping ones and jump
/// with the seed; with these shares it sits among the demand edits.
const DELTA_KINDS: [usize; 10] = [0, 3, 0, 3, 1, 2, 0, 3, 1, 2];

/// The analysis options of a default daemon, which the references use.
fn serve_options() -> AnalysisOptions {
    ServeConfig::default().options
}

/// A request line with its trailing newline.
fn request(op: &str, id: String, fields: Vec<(&str, Json)>) -> String {
    let mut pairs = vec![
        ("proto", Json::str(rtlb_serve::RPC_SCHEMA)),
        ("id", Json::str(id)),
        ("op", Json::str(op)),
    ];
    pairs.extend(fields);
    let mut line = Json::obj(pairs).render();
    line.push('\n');
    line
}

/// One client connection speaking raw lines.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl Conn {
    fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("TCP_NODELAY: {e}"))?;
        let reader = stream
            .try_clone()
            .map_err(|e| format!("clone socket: {e}"))?;
        Ok(Conn {
            writer: stream,
            reader: BufReader::new(reader),
            line: String::new(),
        })
    }

    /// Writes one request line and reads its response line (without the
    /// newline).
    fn round_trip(&mut self, request: &str) -> Result<&str, String> {
        self.writer
            .write_all(request.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        self.line.clear();
        let read = self
            .reader
            .read_line(&mut self.line)
            .map_err(|e| format!("receive: {e}"))?;
        if read == 0 {
            return Err("daemon closed the connection".to_owned());
        }
        Ok(self.line.trim_end())
    }
}

/// Raw responses of the timed phase, kept for checking after it. Ops at
/// the same cycle position send the same bytes, so a response equal to
/// its position's first one is only counted, not stored again.
pub(crate) struct Responses {
    first: Vec<Option<String>>,
    repeats: Vec<u64>,
    others: Vec<(usize, String)>,
}

impl Responses {
    pub(crate) fn new(positions: usize) -> Responses {
        Responses {
            first: vec![None; positions],
            repeats: vec![0; positions],
            others: Vec::new(),
        }
    }

    pub(crate) fn record(&mut self, position: usize, line: &str) {
        match &self.first[position] {
            None => self.first[position] = Some(line.to_owned()),
            Some(first) if first == line => self.repeats[position] += 1,
            Some(_) => self.others.push((position, line.to_owned())),
        }
    }

    /// `(succeeded, busy)` against the reference rows of each position.
    pub(crate) fn tally(&self, expected: &[Vec<BoundRow>]) -> (u64, u64) {
        let mut succeeded = 0;
        let mut busy = 0;
        let mut count = |verdict: Verdict, ops: u64| match verdict {
            Verdict::Match => succeeded += ops,
            Verdict::Busy => busy += ops,
            Verdict::Mismatch | Verdict::Error => {}
        };
        for (pos, first) in self.first.iter().enumerate() {
            if let Some(line) = first {
                count(check::judge(line, &expected[pos]), 1 + self.repeats[pos]);
            }
        }
        for (pos, line) in &self.others {
            count(check::judge(line, &expected[*pos]), 1);
        }
        (succeeded, busy)
    }
}

/// Renders the cycle's request lines for the session ids.
type RenderLines = Box<dyn Fn(&[String]) -> Vec<String>>;

/// A serve workload: which sessions to set up (if any) and which lines
/// to cycle through, with the reference bounds of each position.
struct Load {
    /// `open` requests sent during set-up, with their reference rows.
    opens: Vec<(String, Vec<BoundRow>)>,
    /// Renders the cycle's request lines for the session ids the `open`s
    /// returned, in order (ignored without `open`s).
    lines: RenderLines,
    expected: Vec<Vec<BoundRow>>,
    /// Leading lines of the cycle sent as warm-up in each set-up; for the
    /// delta cycle, whole do/undo pairs of every session, so each session
    /// is back at its base state.
    warmup: usize,
}

/// A started daemon with its client, ready for the timed phase.
struct Ready {
    server: Server,
    conn: Conn,
    lines: Vec<String>,
}

impl Ready {
    fn stop(self) {
        drop(self.conn);
        self.server.shutdown();
    }
}

/// One set-up: daemon start, connect, `open`s, warm-up ops. Returns
/// the time spent in those program calls; rendering the cycle's lines
/// after the `open`s is the benchmark's own work and is not counted.
fn set_up(load: &Load) -> Result<(Ready, f64), String> {
    let started = Instant::now();
    let server = serve(ServeConfig::default())?;
    let mut conn = Conn::connect(server.addr())?;
    let mut program = started.elapsed();
    let mut sessions = Vec::with_capacity(load.opens.len());
    for (open, expected) in &load.opens {
        let started = Instant::now();
        let response = conn.round_trip(open)?.to_owned();
        program += started.elapsed();
        if check::judge(&response, expected) != Verdict::Match {
            return Err(format!(
                "`open` did not answer the reference bounds: {response}"
            ));
        }
        let session = rtlb_obs::json::parse(&response)
            .ok()
            .and_then(|doc| doc.get("session").and_then(Json::as_str).map(str::to_owned))
            .ok_or("`open` returned no session id")?;
        sessions.push(session);
    }
    let lines = (load.lines)(&sessions);
    let started = Instant::now();
    for line in &lines[..load.warmup] {
        conn.round_trip(line)?;
    }
    program += started.elapsed();
    Ok((
        Ready {
            server,
            conn,
            lines,
        },
        program.as_secs_f64(),
    ))
}

/// The untraced closed loop: one request in flight, cycling through the
/// lines. `run_until` resumes the cycle where its last call stopped.
struct Untraced<'a> {
    ready: &'a mut Ready,
    timed: &'a mut Timed,
    responses: Responses,
    op: usize,
}

impl<'a> Untraced<'a> {
    fn new(ready: &'a mut Ready, timed: &'a mut Timed) -> Untraced<'a> {
        let positions = ready.lines.len();
        Untraced {
            ready,
            timed,
            responses: Responses::new(positions),
            op: 0,
        }
    }

    fn run_until(&mut self, deadline: Instant) -> Result<(), String> {
        let cycle = self.ready.lines.len();
        while Instant::now() < deadline {
            let pos = self.op % cycle;
            let sent = Instant::now();
            let response = self.ready.conn.round_trip(&self.ready.lines[pos])?;
            self.timed.record(sent, pos, cycle);
            self.responses.record(pos, response);
            self.op += 1;
        }
        Ok(())
    }

    /// Checks the responses against the references.
    fn finish(self, expected: &[Vec<BoundRow>]) {
        let (succeeded, busy) = self.responses.tally(expected);
        self.timed.succeeded += succeeded;
        self.timed.busy += busy;
    }
}

/// Runs a serve workload: end-to-end without a replay, else the
/// untraced loop interleaved with the traced replay.
fn run(
    args: &Args,
    load: &Load,
    digest_ok: bool,
    replay: Option<&mut dyn Replay>,
) -> Result<Report, String> {
    let Some(replay) = replay else {
        let mut setups = Vec::with_capacity(SETUPS);
        let mut timed = Timed::new();
        for _ in 0..SETUPS {
            let (mut ready, seconds) = set_up(load)?;
            setups.push(seconds);
            let mut untraced = Untraced::new(&mut ready, &mut timed);
            let result = untraced.run_until(Instant::now() + args.duration() / SETUPS as u32);
            untraced.finish(&load.expected);
            ready.stop();
            result?;
        }
        return end_to_end(&timed, &setups, digest_ok);
    };
    let (mut ready, _) = set_up(load)?;
    let tracer = Tracer::new();
    let mut replayed = Replayed::default();
    let mut timed = Timed::new();
    let mut untraced = Untraced::new(&mut ready, &mut timed);
    let result = interleave(
        args.duration(),
        &mut |deadline| untraced.run_until(deadline),
        &mut |deadline| replayed.run_until(replay, &tracer, deadline),
    );
    untraced.finish(&load.expected);
    ready.stop();
    result?;
    dump_spans(&tracer, args);
    let mut report = per_layer(&tracer, &replayed, &timed, "serve_overhead.us", &[]);
    report.correct &= digest_ok;
    Ok(report)
}

/// `serve-oneshot`: stateless `analyze` of distinct 400-task
/// `framed_tasks(100, 4, ·)` instances, ~20 KB per request line.
pub fn oneshot(args: &Args) -> Result<Report, String> {
    let options = serve_options();
    let mut lines = Vec::with_capacity(ONESHOT_POOL);
    let mut expected = Vec::with_capacity(ONESHOT_POOL);
    for i in 0..ONESHOT_POOL {
        let graph = framed_tasks(100, 4, args.seed.wrapping_mul(1000).wrapping_add(i as u64));
        let analysis = analyze_with(&graph, &SystemModel::shared(), options)
            .map_err(|e| format!("reference analysis failed: {e}"))?;
        expected.push(check::rows(&graph, analysis.bounds()));
        let text = rtlb_format::render(&graph, None, None);
        lines.push(request(
            "analyze",
            format!("a{i}"),
            vec![("instance", Json::str(text))],
        ));
    }
    let digest_ok = check::digest_ok(&args.workload, args.seed, &expected);
    let load = Load {
        opens: Vec::new(),
        lines: Box::new(move |_| lines.clone()),
        expected,
        warmup: ONESHOT_POOL,
    };
    if !args.trace {
        return run(args, &load, digest_ok, None);
    }
    let mut replay = OneshotReplay {
        lines: (load.lines)(&[]),
        expected: load.expected.clone(),
        options,
    };
    run(args, &load, digest_ok, Some(&mut replay))
}

/// The daemon's `analyze` path, one public call per layer.
struct OneshotReplay {
    lines: Vec<String>,
    expected: Vec<Vec<BoundRow>>,
    options: AnalysisOptions,
}

impl Replay for OneshotReplay {
    fn op(&mut self, tracer: &Tracer, op: u64) -> Result<bool, String> {
        let pos = op as usize % self.lines.len();
        let line = self.lines[pos].trim_end();
        let root = tracer.start_op(op);
        let request = tracer.span("rpc_decode", || parse_request(line));
        tracer.count("rpc_decode.bytes", line.len() as u64);
        let request = request.map_err(|e| format!("request did not decode: {}", e.message))?;
        let Op::Analyze { instance, .. } = &request.op else {
            return Err("one-shot line is not an `analyze`".to_owned());
        };
        let parsed = tracer
            .span("text_parse", || rtlb_format::parse(instance))
            .map_err(|e| format!("instance did not parse: {e}"))?;
        let analysis =
            analyze_with_probe(&parsed.graph, &SystemModel::shared(), self.options, tracer)
                .map_err(|e| format!("analysis failed: {e}"))?;
        let bounds = analysis.bounds().to_vec();
        tracer.count(
            "sweep.intervals",
            bounds.iter().map(|b| b.intervals_examined).sum(),
        );
        let response = tracer.span("encode", || {
            ok_response(&request.id, "analyze", bounds_body(&parsed.graph, &bounds)).render()
        });
        tracer.count("encode.bytes", response.len() as u64);
        tracer.close(root);
        Ok(check::judge(&response, &self.expected[pos]) == Verdict::Match)
    }
}

/// One relaxing edit of the delta cycle and the line that undoes it.
struct EditPair {
    apply: String,
    undo: String,
    /// The base graph with `apply` made, for the reference.
    edited: TaskGraph,
}

/// Picks a relaxing edit on a task of layer `layer` of the 20×20 DAG:
/// `kind` 0 lowers a computation time, 1 lowers a message time, 2 moves
/// a deadline later, 3 drops a resource demand. A kind that no task of
/// the layer admits falls through to the next kind; every task admits
/// kind 2.
fn edit_pair(graph: &TaskGraph, layer: usize, kind: usize, rng: &mut Rng) -> EditPair {
    let width = 20;
    let offset = rng.below(width);
    for k in 0..4 {
        let kind = (kind + k) % 4;
        for w in 0..width {
            let name = format!("L{layer}T{}", (offset + w) % width);
            let id = graph
                .task_id(&name)
                .expect("layered names are L<layer>T<w>");
            let task = graph.task(id);
            let mut edited = graph.clone();
            let pair = match kind {
                0 if task.computation().ticks() >= 2 => {
                    let c = task.computation().ticks();
                    edited
                        .set_computation(id, Dur::new(c - 1))
                        .expect("task of this graph");
                    Some((
                        format!("set {name} c={}", c - 1),
                        format!("set {name} c={c}"),
                    ))
                }
                1 => graph
                    .successors(id)
                    .iter()
                    .find(|e| e.message.ticks() >= 1)
                    .map(|e| {
                        let to = graph.task(e.other).name().to_owned();
                        let m = e.message.ticks();
                        edited
                            .set_message(id, e.other, Dur::new(m - 1))
                            .expect("edge of this graph");
                        (
                            format!("message {name} -> {to} m={}", m - 1),
                            format!("message {name} -> {to} m={m}"),
                        )
                    }),
                2 => {
                    let d = task.deadline().ticks();
                    edited
                        .set_deadline(id, Time::new(d + 5))
                        .expect("task of this graph");
                    Some((
                        format!("set {name} deadline={}", d + 5),
                        format!("set {name} deadline={d}"),
                    ))
                }
                3 => task.resources().first().map(|&r| {
                    let resource = graph.catalog().name(r).to_owned();
                    edited
                        .remove_resource_demand(id, r)
                        .expect("task of this graph");
                    (
                        format!("demand {name} remove {resource}"),
                        format!("demand {name} add {resource}"),
                    )
                }),
                _ => None,
            };
            if let Some((apply, undo)) = pair {
                return EditPair {
                    apply,
                    undo,
                    edited,
                };
            }
        }
    }
    unreachable!("every task admits a deadline edit")
}

/// `serve-delta`: [`DELTA_SESSIONS`] sessions, each on its own 400-task
/// layered 20×20 DAG, streamed single-edit do/undo pairs on tasks at
/// every depth.
pub fn delta(args: &Args) -> Result<Report, String> {
    let options = serve_options();
    let config = LayeredConfig {
        layers: 20,
        width: 20,
        ..LayeredConfig::default()
    };
    let reference = |g: &TaskGraph| {
        analyze_with(g, &SystemModel::shared(), options)
            .map(|a| check::rows(g, a.bounds()))
            .map_err(|e| format!("reference analysis failed: {e}"))
    };
    let mut opens = Vec::with_capacity(DELTA_SESSIONS);
    // Per session: the edit of each step and the reference rows after it.
    let mut steps: Vec<Vec<(String, Vec<BoundRow>)>> = Vec::with_capacity(DELTA_SESSIONS);
    let mut references = Vec::new();
    for session in 0..DELTA_SESSIONS {
        let seed = args.seed.wrapping_mul(1000).wrapping_add(session as u64);
        let graph = layered(&config, seed);
        let base = reference(&graph)?;
        references.push(base.clone());
        let mut rng = Rng::new(seed ^ 0x5eed_de17a);
        let mut session_steps = Vec::with_capacity(2 * DELTA_PAIRS);
        for i in 0..DELTA_PAIRS {
            let pair = edit_pair(&graph, i % 20, DELTA_KINDS[(i + i / 20) % 10], &mut rng);
            let edited = reference(&pair.edited)?;
            references.push(edited.clone());
            session_steps.push((pair.apply, edited));
            session_steps.push((pair.undo, base.clone()));
        }
        let text = rtlb_format::render(&graph, None, None);
        opens.push((
            request(
                "open",
                format!("open{session}"),
                vec![("instance", Json::str(text))],
            ),
            base,
        ));
        steps.push(session_steps);
    }
    let digest_ok = check::digest_ok(&args.workload, args.seed, &references);

    // Op `j` of the cycle is step `j / DELTA_SESSIONS` of session
    // `j % DELTA_SESSIONS`.
    let (edits, expected): (Vec<String>, Vec<Vec<BoundRow>>) =
        (0..2 * DELTA_PAIRS * DELTA_SESSIONS)
            .map(|j| steps[j % DELTA_SESSIONS][j / DELTA_SESSIONS].clone())
            .unzip();
    let load = Load {
        opens,
        lines: Box::new(move |sessions| {
            edits
                .iter()
                .enumerate()
                .map(|(j, edit)| {
                    request(
                        "delta",
                        format!("d{j}"),
                        vec![
                            ("session", Json::str(sessions[j % DELTA_SESSIONS].as_str())),
                            ("edits", Json::Arr(vec![Json::str(edit.as_str())])),
                        ],
                    )
                })
                .collect()
        }),
        expected,
        warmup: 2 * DELTA_WARMUP_PAIRS * DELTA_SESSIONS,
    };
    if !args.trace {
        return run(args, &load, digest_ok, None);
    }
    let mut replay = DeltaReplay::new(&load, options)?;
    run(args, &load, digest_ok, Some(&mut replay))
}

/// The daemon's `delta` path on its own session pool: decode, checkout,
/// edit parse, apply, encode, checkin, render — the order `op_delta`
/// and `handle_connection` call them in.
struct DeltaReplay {
    pool: SessionPool,
    lines: Vec<String>,
    expected: Vec<Vec<BoundRow>>,
}

impl DeltaReplay {
    fn new(load: &Load, options: AnalysisOptions) -> Result<DeltaReplay, String> {
        let mut pool = SessionPool::new(ServeConfig::default().max_sessions);
        let mut sessions = Vec::with_capacity(load.opens.len());
        for (open, _) in &load.opens {
            let Ok(request) = parse_request(open.trim_end()) else {
                return Err("`open` line did not decode".to_owned());
            };
            let Op::Open { instance, .. } = request.op else {
                return Err("`open` line is not an `open`".to_owned());
            };
            let parsed = rtlb_format::parse(&instance).map_err(|e| format!("instance: {e}"))?;
            let session = AnalysisSession::new_ctl(
                parsed.graph,
                SystemModel::shared(),
                options,
                &NULL_PROBE,
                &CancelToken::none(),
            )
            .map_err(|e| format!("session: {e}"))?;
            sessions.push(pool.admit(session));
        }
        Ok(DeltaReplay {
            pool,
            lines: (load.lines)(&sessions),
            expected: load.expected.clone(),
        })
    }
}

impl Replay for DeltaReplay {
    fn op(&mut self, tracer: &Tracer, op: u64) -> Result<bool, String> {
        let pool = &mut self.pool;
        let pos = op as usize % self.lines.len();
        let line = self.lines[pos].trim_end();
        let root = tracer.start_op(op);
        let request = tracer.span("rpc_decode", || parse_request(line));
        tracer.count("rpc_decode.bytes", line.len() as u64);
        let request = request.map_err(|e| format!("request did not decode: {}", e.message))?;
        let Op::Delta { session, edits, .. } = &request.op else {
            return Err("delta line is not a `delta`".to_owned());
        };
        let Checkout::Live(live) = tracer.span("session_checkout", || pool.checkout(session))
        else {
            return Err("session is not live".to_owned());
        };
        let mut live = *live;
        let deltas = tracer
            .span("edit_parse", || {
                let mut deltas = Vec::new();
                for (index, text) in edits.iter().enumerate() {
                    let parsed = rtlb_format::parse_edit_line(text, index + 1)?;
                    deltas.extend(rtlb_format::resolve_edits(
                        &parsed,
                        live.graph(),
                        index + 1,
                    )?);
                }
                Ok::<_, rtlb_format::ParseError>(deltas)
            })
            .map_err(|e| format!("edit did not parse: {e}"))?;
        let stats = tracer
            .span("session_apply", || {
                live.apply_ctl(&deltas, &NULL_PROBE, &CancelToken::none())
            })
            .map_err(|e| format!("apply failed: {e}"))?;
        tracer.count("session_apply.tasks_recomputed", stats.tasks_recomputed());
        tracer.count("session_apply.blocks_resweeped", stats.blocks_resweeped);
        let response = tracer.span("encode", || {
            let mut body = vec![
                ("session".to_owned(), Json::str(session.as_str())),
                ("rebuilt".to_owned(), Json::Bool(false)),
                (
                    "tasks_recomputed".to_owned(),
                    Json::Int(i64::try_from(stats.tasks_recomputed()).unwrap_or(i64::MAX)),
                ),
            ];
            body.extend(bounds_body(live.graph(), &live.bounds()));
            ok_response(&request.id, "delta", body)
        });
        tracer.span("session_checkout", || pool.checkin(session.clone(), live));
        let response = tracer.span("encode", || response.render());
        tracer.count("encode.bytes", response.len() as u64);
        tracer.close(root);
        Ok(check::judge(&response, &self.expected[pos]) == Verdict::Match)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(lb: i64) -> Vec<BoundRow> {
        vec![BoundRow {
            resource: "P0".to_owned(),
            lb,
            intervals: 10,
            witness: Some((0, 6, 12)),
        }]
    }

    fn response(lb: i64) -> String {
        format!(
            r#"{{"proto":"rtlb-rpc-v1","id":"a0","op":"analyze","ok":true,"bounds":[{{"resource":"P0","lb":{lb},"intervals_examined":10,"witness":{{"t1":0,"t2":6,"demand":12}}}}],"text":""}}"#
        )
    }

    #[test]
    fn a_response_with_one_altered_bound_counts_as_failed() {
        let mut responses = Responses::new(2);
        for _ in 0..3 {
            responses.record(0, &response(2));
        }
        responses.record(1, &response(2));
        responses.record(0, &response(3));
        let (succeeded, busy) = responses.tally(&[rows(2), rows(2)]);
        assert_eq!((succeeded, busy), (4, 0), "5 ops, the altered one fails");
    }
}
