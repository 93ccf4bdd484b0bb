//! Pins the exact error, line and message, that the instance parser
//! reports for malformed lines: a faster parser must tell the user
//! exactly what the old one did, including which of several problems on
//! one line (or in one file) it names first. Also checks that very long
//! instance and edit input is handled in time linear in its size.

use std::fmt::Write as _;
use std::sync::mpsc;
use std::time::Duration;

use rtlb::format::{parse, parse_edit_line, resolve_edits, ScenarioEdit};
use rtlb::graph::Dur;
use rtlb::workloads::framed_tasks;

/// Declares `P` (processor), `r` (resource) and a default deadline on
/// lines 1–3, so each case's own lines start at line 4.
const HEAD: &str = "processor P\nresource r\ndefault_deadline 50\n";

/// Two tasks, `a` on line 4 and `b` on line 5, for the edge cases (whose
/// own lines start at line 6).
const TASKS: &str = "processor P\nresource r\ndefault_deadline 50\n\
                     task a c=1 proc=P\ntask b c=2 proc=P\n";

fn assert_error(text: &str, line: usize, message: &str) {
    let e = parse(text).expect_err(text);
    assert_eq!(
        (e.line, e.message.as_str()),
        (line, message),
        "input:\n{text}"
    );
}

#[test]
fn malformed_task_lines() {
    let cases: &[(&str, usize, &str)] = &[
        ("task", 4, "usage: task <name> c=<ticks> proc=<type> ..."),
        ("task t c=1 c=2 proc=P", 4, "duplicate field `c`"),
        ("task t c=1 proc=P zz=1 zz=2", 4, "duplicate field `zz`"),
        // Two unknown fields: the first in sorted order is named.
        ("task t c=1 proc=P zz=1 aa=2", 4, "unknown task field `aa`"),
        ("task t c=1 proc=P =5", 4, "unknown task field ``"),
        ("task t c=1 proc=P fast", 4, "unknown task flag `fast`"),
        // Flags are checked before fields.
        (
            "task t c=1 proc=P zz=1 fast slow",
            4,
            "unknown task flag `fast`",
        ),
        ("task t proc=P", 4, "task needs c=<ticks>"),
        ("task t c=1", 4, "task needs proc=<type>"),
        ("task t c=x proc=P", 4, "invalid computation `x`"),
        ("task t c=-3 proc=P", 4, "computation must be non-negative"),
        ("task t c=1 proc=Q", 4, "unknown type `Q`"),
        ("task t c=1 proc=P rel=x", 4, "invalid release `x`"),
        ("task t c=1 proc=P deadline=x", 4, "invalid deadline `x`"),
        ("task t c=1 proc=P uses=r,q", 4, "unknown type `q`"),
        (
            "task t c=1 proc=r",
            4,
            "task `t` is badly typed: `r` is not a processor type",
        ),
        (
            "task t c=1 proc=P uses=P",
            4,
            "task `t` is badly typed: `P` is a processor type but was listed in R_i",
        ),
        (
            "task t c=1 proc=P\n\n# comment\ntask t c=2 proc=P",
            7,
            "duplicate task name `t`",
        ),
    ];
    for &(body, line, message) in cases {
        assert_error(&format!("{HEAD}{body}"), line, message);
    }
}

#[test]
fn malformed_edge_lines() {
    let cases: &[(&str, usize, &str)] = &[
        ("edge a b", 6, "usage: edge <from> -> <to> [m=<ticks>]"),
        ("edge a ->", 6, "usage: edge <from> -> <to> [m=<ticks>]"),
        ("edge a -> b fast", 6, "unexpected token `fast`"),
        ("edge a -> b m=1 m=2", 6, "duplicate field `m`"),
        ("edge a -> b m=x", 6, "invalid message `x`"),
        ("edge a -> b m=-1", 6, "message must be non-negative"),
        ("edge a -> b M=3", 6, "unknown edge field `M`"),
        ("edge a -> u", 6, "unknown task `u`"),
        ("edge u -> v", 6, "unknown task `u`"),
        ("edge a -> a", 6, "self-loop on task `a`"),
        (
            "edge a -> b\nedge a -> b m=3",
            7,
            "duplicate edge `a` -> `b`",
        ),
        // Endpoints resolve after every other line: a later task error
        // is reported before an earlier unknown endpoint.
        ("edge a -> u\ntask z c=1", 7, "task needs proc=<type>"),
        // A cycle is found when the graph is built, on line 0.
        (
            "edge a -> b\nedge b -> a",
            0,
            "precedence relation has a cycle through task `a`",
        ),
    ];
    for &(body, line, message) in cases {
        assert_error(&format!("{TASKS}{body}"), line, message);
    }
}

#[test]
fn malformed_node_lines() {
    let cases: &[(&str, usize, &str)] = &[
        (
            "node",
            4,
            "usage: node <name> proc=<type> [uses=..] cost=<price>",
        ),
        ("node N proc=P cost=1 cost=2", 4, "duplicate field `cost`"),
        ("node N proc=P cost=5 big", 4, "unknown node flag `big`"),
        ("node N cost=5", 4, "node needs proc=<type>"),
        ("node N proc=P", 4, "node needs cost=<price>"),
        ("node N proc=Q cost=5", 4, "unknown type `Q`"),
        ("node N proc=P cost=x", 4, "invalid price `x`"),
        ("node N proc=P cost=5 uses=q", 4, "unknown type `q`"),
        ("node N proc=P cost=5 zz=1", 4, "unknown node field `zz`"),
    ];
    for &(body, line, message) in cases {
        assert_error(&format!("{TASKS}{body}"), line + 2, message);
    }
}

#[test]
fn malformed_files() {
    let cases: &[(&str, usize, &str)] = &[
        // The missing deadline is found when the graph is built, on line
        // 0, and names the first task without one.
        (
            "processor P\ntask a c=1 proc=P deadline=5\ntask b c=1 proc=P\ntask c c=1 proc=P",
            0,
            "task `b` has no deadline and no default deadline was set",
        ),
        ("processor P\n# no tasks\n", 0, "task graph has no tasks"),
        ("frob x", 1, "unknown directive `frob`"),
        ("processor", 1, "usage: processor <name>"),
        // Type declarations are read in a first pass, so their errors
        // come before any other line's.
        ("task\nprocessor", 2, "usage: processor <name>"),
        (
            "processor P\nresource P",
            2,
            "type `P` already interned as processor, requested as resource",
        ),
        ("default_deadline", 1, "usage: default_deadline <ticks>"),
        ("default_deadline soon", 1, "invalid deadline `soon`"),
        ("processor P\ncost P", 2, "usage: cost <type> <price>"),
        ("processor P\ncost Q 5", 2, "unknown type `Q`"),
        ("processor P\ncost P x", 2, "invalid price `x`"),
    ];
    for &(text, line, message) in cases {
        assert_error(text, line, message);
    }
}

/// `count` distinct `k<i>=1` fields, space-separated.
fn many_fields(count: usize) -> String {
    let mut out = String::new();
    for i in 0..count {
        let _ = write!(out, " k{i}=1");
    }
    out
}

/// Runs `f` on its own thread and fails if it takes longer than
/// `limit`, so a parse that went quadratic fails the test instead of
/// stalling the suite.
fn within<T: Send + 'static>(limit: Duration, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(limit)
        .expect("the input is handled in time linear in its size")
}

/// A line with very many distinct fields is rejected in time linear in
/// its length: instance text and edit lines arrive from the network, and
/// a quadratic duplicate-field check would let one request line of a few
/// megabytes hold the parser for minutes. The limit is two orders of
/// magnitude above the linear cost of an unoptimised build.
#[test]
fn lines_with_very_many_fields_are_rejected_quickly() {
    const FIELDS: usize = 200_000;
    const LIMIT: Duration = Duration::from_secs(60);
    let fields = many_fields(FIELDS);

    let text = format!("{HEAD}task t c=1 proc=P{fields}");
    let e = within(LIMIT, move || parse(&text).expect_err("unknown fields"));
    assert_eq!((e.line, e.message.as_str()), (4, "unknown task field `k0`"));

    let text = format!("{HEAD}task t c=1 proc=P{fields} k3=2");
    let e = within(LIMIT, move || parse(&text).expect_err("a duplicate"));
    assert_eq!((e.line, e.message.as_str()), (4, "duplicate field `k3`"));

    let text = format!("set t{fields}");
    let e = within(LIMIT, move || {
        parse_edit_line(&text, 7).expect_err("unknown fields")
    });
    assert_eq!((e.line, e.message.as_str()), (7, "unknown set field `k0`"));
}

/// Resolving edits looks each task up by name in constant time. A scan
/// of every task per edit made resolving one `delta` of `n` edits
/// against an `n`-task graph quadratic, while `rtlb serve` holds an
/// admission permit for it. As above, the limit is far above the linear
/// cost of an unoptimised build.
#[test]
fn edits_resolve_in_time_linear_in_their_count() {
    const TASKS: usize = 150_000;
    const LIMIT: Duration = Duration::from_secs(60);
    let graph = framed_tasks(TASKS / 4, 4, 7);
    let edits: Vec<ScenarioEdit> = graph
        .tasks()
        .map(|(_, t)| ScenarioEdit::SetComputation(t.name().to_owned(), Dur::new(1)))
        .collect();
    let deltas =
        within(LIMIT, move || resolve_edits(&edits, &graph, 1)).expect("every edit names a task");
    assert_eq!(deltas.len(), TASKS);
}

/// The first duplicate in line order is named whether it is found by
/// scanning a short line's keys or, past the eighth field, by a set.
#[test]
fn duplicates_are_found_on_either_side_of_the_scan_limit() {
    let cases: &[(&str, &str)] = &[
        // The seventh key repeats as the eighth: found by the scan.
        (
            "task t c=1 proc=P a=1 b=1 d=1 e=1 g=1 g=2",
            "duplicate field `g`",
        ),
        // The ninth key repeats the first: found by the set.
        (
            "task t c=1 proc=P a=1 b=1 d=1 e=1 f=1 g=1 c=2",
            "duplicate field `c`",
        ),
        (
            "task t c=1 proc=P a=1 b=1 d=1 e=1 f=1 g=1 h=1 h=2 a=2",
            "duplicate field `h`",
        ),
        (
            "task t c=1 proc=P a=1 b=1 d=1 e=1 f=1 g=1 h=1 i=1 zz=1",
            "unknown task field `a`",
        ),
    ];
    for &(body, message) in cases {
        assert_error(&format!("{HEAD}{body}"), 4, message);
    }
}
