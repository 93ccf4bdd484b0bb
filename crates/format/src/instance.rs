//! A plain-text format for applications and system models.
//!
//! Lets instances live in version control and feeds the `rtlb` CLI. The
//! format is line-oriented; `#` starts a comment. Example:
//!
//! ```text
//! # types
//! processor P1
//! processor P2
//! resource  r1
//!
//! default_deadline 36
//!
//! # task <name> c=<ticks> proc=<type> [rel=<t>] [deadline=<t>]
//! #      [uses=<r>,<r>...] [preemptive]
//! task t1 c=3 proc=P1 uses=r1
//! task t4 c=5 proc=P1
//!
//! # edge <from> -> <to> [m=<ticks>]
//! edge t1 -> t4 m=1
//!
//! # optional pricing for the shared cost bound
//! cost P1 30
//!
//! # optional node types for the dedicated model
//! node N1 proc=P1 uses=r1 cost=45
//! ```

use std::collections::HashSet;
use std::error::Error;
use std::fmt;
use std::fmt::Write as _;

use rtlb_core::{DedicatedModel, NodeType, SharedModel};
use rtlb_graph::{Catalog, Dur, GraphError, TaskGraph, TaskGraphBuilder, TaskSpec, Time};

/// A parsed instance: the application plus whatever model information the
/// file carried.
#[derive(Clone, Debug)]
pub struct ParsedSystem {
    /// The application graph.
    pub graph: TaskGraph,
    /// Shared-model prices, if any `cost` lines were present.
    pub shared_costs: Option<SharedModel>,
    /// Dedicated node types, if any `node` lines were present.
    pub node_types: Option<DedicatedModel>,
}

/// Errors produced while parsing the text format.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line of the offending input (0 for end-of-input errors).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl Error for ParseError {}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

fn graph_err(line: usize, e: GraphError) -> ParseError {
    err(line, e.to_string())
}

/// The `key=value` fields and bare flags of one line, in line order.
/// One value is reused for every line of a parse, so splitting a line
/// allocates nothing once the buffers have grown.
#[derive(Default)]
pub(crate) struct Fields<'a> {
    pairs: Vec<(&'a str, &'a str)>,
    flags: Vec<&'a str>,
    /// The line's keys once it has more than [`SCAN_FIELDS`] fields.
    seen: HashSet<&'a str>,
}

/// Up to this many fields, a duplicate key is found by scanning the
/// line's earlier keys; past it, by a set of them, so that a line with
/// very many fields is still split in time linear in its length. No
/// valid line has more than five fields, and the scan costs those
/// lines no hashing.
const SCAN_FIELDS: usize = 8;

impl<'a> Fields<'a> {
    /// Splits `key=value` fields and bare flags out of `tokens`,
    /// replacing the previous line's.
    pub(crate) fn split(&mut self, tokens: &[&'a str], line: usize) -> Result<(), ParseError> {
        self.pairs.clear();
        self.flags.clear();
        self.seen.clear();
        for &t in tokens {
            match t.split_once('=') {
                Some((k, v)) => {
                    let duplicate = if self.pairs.len() < SCAN_FIELDS {
                        self.get(k).is_some()
                    } else {
                        if self.seen.is_empty() {
                            self.seen.extend(self.pairs.iter().map(|&(k, _)| k));
                        }
                        !self.seen.insert(k)
                    };
                    if duplicate {
                        return Err(err(line, format!("duplicate field `{k}`")));
                    }
                    self.pairs.push((k, v));
                }
                None => self.flags.push(t),
            }
        }
        Ok(())
    }

    /// The value of field `key`.
    pub(crate) fn get(&self, key: &str) -> Option<&'a str> {
        self.pairs.iter().find(|&&(k, _)| k == key).map(|&(_, v)| v)
    }

    /// The fields in line order.
    pub(crate) fn pairs(&self) -> &[(&'a str, &'a str)] {
        &self.pairs
    }

    /// The bare flags in line order.
    pub(crate) fn flags(&self) -> &[&'a str] {
        &self.flags
    }

    /// The first field key, in sorted order, that is not in `known`.
    fn unknown_key(&self, known: &[&str]) -> Option<&'a str> {
        self.pairs
            .iter()
            .map(|&(k, _)| k)
            .filter(|k| !known.contains(k))
            .min()
    }
}

pub(crate) fn parse_i64(s: &str, line: usize, what: &str) -> Result<i64, ParseError> {
    s.parse()
        .map_err(|_| err(line, format!("invalid {what} `{s}`")))
}

/// A line with its comment cut off and its ends trimmed.
fn content(raw: &str) -> &str {
    raw.split('#').next().unwrap_or("").trim()
}

/// Parses an instance from the text format.
///
/// Besides what the graph keeps, the happy path allocates only one token
/// buffer and one field list, reused for every line; edge endpoints stay
/// borrowed from `input` until they are resolved.
///
/// # Errors
///
/// [`ParseError`] pinpointing the offending line: unknown directives,
/// malformed fields, references to undeclared types or tasks, and any
/// graph-level violation (cycles, duplicate names, missing deadlines).
pub fn parse(input: &str) -> Result<ParsedSystem, ParseError> {
    let mut catalog = Catalog::new();

    // Pass 1: types only, so tasks can reference them in any order. Only
    // a declaration's tokens are read past the first.
    for (idx, raw) in input.lines().enumerate() {
        let line = idx + 1;
        let mut words = content(raw).split_whitespace();
        let (directive, kind) = match words.next() {
            Some(d @ "processor") => (d, rtlb_graph::ResourceKind::Processor),
            Some(d @ "resource") => (d, rtlb_graph::ResourceKind::Resource),
            _ => continue,
        };
        let (Some(name), None) = (words.next(), words.next()) else {
            return Err(err(line, format!("usage: {directive} <name>")));
        };
        catalog
            .try_intern(name, kind)
            .map_err(|e| graph_err(line, e))?;
    }

    let lookup = |catalog: &Catalog, name: &str, line: usize| {
        catalog
            .lookup(name)
            .ok_or_else(|| err(line, format!("unknown type `{name}`")))
    };

    let mut builder = TaskGraphBuilder::new(catalog);
    let mut edges: Vec<(usize, &str, &str, Dur)> = Vec::new();
    let mut shared = SharedModel::new();
    let mut has_costs = false;
    let mut node_types: Vec<NodeType> = Vec::new();
    let mut tokens: Vec<&str> = Vec::new();
    let mut fields = Fields::default();

    // Pass 2: everything else.
    for (idx, raw) in input.lines().enumerate() {
        let line = idx + 1;
        tokens.clear();
        tokens.extend(content(raw).split_whitespace());
        let Some(&directive) = tokens.first() else {
            continue;
        };
        match directive {
            "processor" | "resource" => {} // pass 1
            "default_deadline" => {
                let [_, v] = tokens[..] else {
                    return Err(err(line, "usage: default_deadline <ticks>"));
                };
                builder.default_deadline(Time::new(parse_i64(v, line, "deadline")?));
            }
            "task" => {
                if tokens.len() < 2 {
                    return Err(err(line, "usage: task <name> c=<ticks> proc=<type> ..."));
                }
                let name = tokens[1];
                fields.split(&tokens[2..], line)?;
                let c = fields
                    .get("c")
                    .ok_or_else(|| err(line, "task needs c=<ticks>"))
                    .and_then(|v| parse_i64(v, line, "computation"))?;
                let c =
                    Dur::try_new(c).ok_or_else(|| err(line, "computation must be non-negative"))?;
                let proc_name = fields
                    .get("proc")
                    .ok_or_else(|| err(line, "task needs proc=<type>"))?;
                let proc = lookup(builder.catalog(), proc_name, line)?;
                let mut spec = TaskSpec::new(name, c, proc);
                if let Some(v) = fields.get("rel") {
                    spec = spec.release(Time::new(parse_i64(v, line, "release")?));
                }
                if let Some(v) = fields.get("deadline") {
                    spec = spec.deadline(Time::new(parse_i64(v, line, "deadline")?));
                }
                if let Some(v) = fields.get("uses") {
                    for r in v.split(',').filter(|r| !r.is_empty()) {
                        spec = spec.resource(lookup(builder.catalog(), r, line)?);
                    }
                }
                for &flag in fields.flags() {
                    match flag {
                        "preemptive" => spec = spec.preemptive(),
                        other => return Err(err(line, format!("unknown task flag `{other}`"))),
                    }
                }
                if let Some(key) = fields.unknown_key(&["c", "proc", "rel", "deadline", "uses"]) {
                    return Err(err(line, format!("unknown task field `{key}`")));
                }
                builder.add_task(spec).map_err(|e| graph_err(line, e))?;
            }
            "edge" => {
                // edge <from> -> <to> [m=<ticks>]
                let arrow = tokens.iter().position(|&t| t == "->");
                let (Some(2), true) = (arrow, tokens.len() >= 4) else {
                    return Err(err(line, "usage: edge <from> -> <to> [m=<ticks>]"));
                };
                fields.split(&tokens[4..], line)?;
                if let Some(flag) = fields.flags().first() {
                    return Err(err(line, format!("unexpected token `{flag}`")));
                }
                let m = match fields.get("m") {
                    Some(v) => Dur::try_new(parse_i64(v, line, "message")?)
                        .ok_or_else(|| err(line, "message must be non-negative"))?,
                    None => Dur::ZERO,
                };
                if let Some(key) = fields.unknown_key(&["m"]) {
                    return Err(err(line, format!("unknown edge field `{key}`")));
                }
                edges.push((line, tokens[1], tokens[3], m));
            }
            "cost" => {
                let [_, name, v] = tokens[..] else {
                    return Err(err(line, "usage: cost <type> <price>"));
                };
                let r = lookup(builder.catalog(), name, line)?;
                shared.set_cost(r, parse_i64(v, line, "price")?);
                has_costs = true;
            }
            "node" => {
                if tokens.len() < 2 {
                    return Err(err(
                        line,
                        "usage: node <name> proc=<type> [uses=..] cost=<price>",
                    ));
                }
                let name = tokens[1];
                fields.split(&tokens[2..], line)?;
                if let Some(flag) = fields.flags().first() {
                    return Err(err(line, format!("unknown node flag `{flag}`")));
                }
                let proc_name = fields
                    .get("proc")
                    .ok_or_else(|| err(line, "node needs proc=<type>"))?;
                let proc = lookup(builder.catalog(), proc_name, line)?;
                let cost = fields
                    .get("cost")
                    .ok_or_else(|| err(line, "node needs cost=<price>"))
                    .and_then(|v| parse_i64(v, line, "price"))?;
                let mut resources = Vec::new();
                if let Some(v) = fields.get("uses") {
                    for r in v.split(',').filter(|r| !r.is_empty()) {
                        resources.push(lookup(builder.catalog(), r, line)?);
                    }
                }
                if let Some(key) = fields.unknown_key(&["proc", "cost", "uses"]) {
                    return Err(err(line, format!("unknown node field `{key}`")));
                }
                node_types.push(NodeType::new(name, proc, resources, cost));
            }
            other => return Err(err(line, format!("unknown directive `{other}`"))),
        }
    }

    for (line, from, to, m) in edges {
        let f = builder
            .task_id(from)
            .ok_or_else(|| err(line, format!("unknown task `{from}`")))?;
        let t = builder
            .task_id(to)
            .ok_or_else(|| err(line, format!("unknown task `{to}`")))?;
        builder.add_edge(f, t, m).map_err(|e| graph_err(line, e))?;
    }

    let graph = builder.build().map_err(|e| graph_err(0, e))?;
    Ok(ParsedSystem {
        graph,
        shared_costs: has_costs.then_some(shared),
        node_types: (!node_types.is_empty()).then(|| DedicatedModel::new(node_types)),
    })
}

/// Renders a task graph (and optional models) back to the text format;
/// `parse(render(..))` round-trips.
pub fn render(
    graph: &TaskGraph,
    shared_costs: Option<&SharedModel>,
    node_types: Option<&DedicatedModel>,
) -> String {
    let mut out = String::new();
    let catalog = graph.catalog();
    for r in catalog.processors() {
        let _ = writeln!(out, "processor {}", catalog.name(r));
    }
    for r in catalog.plain_resources() {
        let _ = writeln!(out, "resource {}", catalog.name(r));
    }
    out.push('\n');
    for (_, task) in graph.tasks() {
        let _ = write!(
            out,
            "task {} c={} proc={} rel={} deadline={}",
            task.name(),
            task.computation(),
            catalog.name(task.processor()),
            task.release(),
            task.deadline(),
        );
        if !task.resources().is_empty() {
            let names: Vec<&str> = task.resources().iter().map(|&r| catalog.name(r)).collect();
            let _ = write!(out, " uses={}", names.join(","));
        }
        if task.is_preemptive() {
            out.push_str(" preemptive");
        }
        out.push('\n');
    }
    out.push('\n');
    for (id, task) in graph.tasks() {
        for e in graph.successors(id) {
            let _ = writeln!(
                out,
                "edge {} -> {} m={}",
                task.name(),
                graph.task(e.other).name(),
                e.message
            );
        }
    }
    if let Some(shared) = shared_costs {
        out.push('\n');
        for r in catalog.ids() {
            if let Some(c) = shared.cost(r) {
                let _ = writeln!(out, "cost {} {}", catalog.name(r), c);
            }
        }
    }
    if let Some(model) = node_types {
        out.push('\n');
        for nt in model.node_types() {
            let _ = write!(
                out,
                "node {} proc={}",
                nt.name(),
                catalog.name(nt.processor())
            );
            if !nt.resources().is_empty() {
                let names: Vec<&str> = nt.resources().iter().map(|&r| catalog.name(r)).collect();
                let _ = write!(out, " uses={}", names.join(","));
            }
            let _ = writeln!(out, " cost={}", nt.cost());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtlb_core::{analyze, shared_cost_bound, SystemModel};

    const SAMPLE: &str = r"
# tiny pipeline
processor P1
processor P2
resource r1

default_deadline 36

task a c=3 proc=P1 uses=r1
task b c=6 proc=P2 rel=2
task c c=4 proc=P1 deadline=20 preemptive

edge a -> b m=5
edge a -> c     # zero message

cost P1 30
cost P2 45
cost r1 20

node N1 proc=P1 uses=r1 cost=45
node N2 proc=P2 cost=45
";

    #[test]
    fn parses_and_analyzes() {
        let parsed = parse(SAMPLE).unwrap();
        assert_eq!(parsed.graph.task_count(), 3);
        assert_eq!(parsed.graph.edge_count(), 2);
        let a = parsed.graph.task_id("a").unwrap();
        assert_eq!(parsed.graph.task(a).computation(), Dur::new(3));
        let c = parsed.graph.task_id("c").unwrap();
        assert!(parsed.graph.task(c).is_preemptive());
        assert_eq!(parsed.graph.task(c).deadline(), Time::new(20));
        let analysis = analyze(&parsed.graph, &SystemModel::shared()).unwrap();
        let shared = parsed.shared_costs.unwrap();
        assert!(shared_cost_bound(&shared, analysis.bounds()).unwrap().total > 0);
        assert_eq!(parsed.node_types.unwrap().node_types().len(), 2);
    }

    #[test]
    fn round_trips() {
        let parsed = parse(SAMPLE).unwrap();
        let rendered = render(
            &parsed.graph,
            parsed.shared_costs.as_ref(),
            parsed.node_types.as_ref(),
        );
        let reparsed = parse(&rendered).unwrap();
        assert_eq!(reparsed.graph.task_count(), parsed.graph.task_count());
        assert_eq!(reparsed.graph.edge_count(), parsed.graph.edge_count());
        for (id, task) in parsed.graph.tasks() {
            let rid = reparsed.graph.task_id(task.name()).unwrap();
            let rtask = reparsed.graph.task(rid);
            assert_eq!(task.computation(), rtask.computation());
            assert_eq!(task.release(), rtask.release());
            assert_eq!(task.deadline(), rtask.deadline());
            assert_eq!(task.is_preemptive(), rtask.is_preemptive());
            assert_eq!(task.resources().len(), rtask.resources().len());
            let _ = id;
        }
        let shared = reparsed.shared_costs.unwrap();
        let p1 = reparsed.graph.catalog().lookup("P1").unwrap();
        assert_eq!(shared.cost(p1), Some(30));
        assert_eq!(reparsed.node_types.unwrap().node_types().len(), 2);
    }

    #[test]
    fn paper_example_round_trips_through_text() {
        let ex = rtlb_workloads::paper_example();
        let rendered = render(&ex.graph, None, None);
        let reparsed = parse(&rendered).unwrap();
        let a1 = analyze(&ex.graph, &SystemModel::shared()).unwrap();
        let a2 = analyze(&reparsed.graph, &SystemModel::shared()).unwrap();
        for (x, y) in a1.bounds().iter().zip(a2.bounds()) {
            assert_eq!(x.bound, y.bound);
        }
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse("bogus directive").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.to_string().contains("bogus"));

        let e = parse("processor P\ntask t proc=P").unwrap_err();
        assert_eq!(e.line, 2); // missing c=

        let e = parse("processor P\ntask t c=1 proc=Q").unwrap_err();
        assert!(e.message.contains("unknown type `Q`"));

        let e = parse("processor P\ntask t c=1 proc=P zzz=9").unwrap_err();
        assert!(e.message.contains("unknown task field"));

        let e = parse("processor P\ntask t c=1 proc=P deadline=5\nedge t -> u").unwrap_err();
        assert!(e.message.contains("unknown task `u`"));

        let e = parse("processor P\ntask t c=-3 proc=P").unwrap_err();
        assert!(e.message.contains("non-negative"));

        // Missing deadline bubbles up as a build error on line 0.
        let e = parse("processor P\ntask t c=1 proc=P").unwrap_err();
        assert_eq!(e.line, 0);
        assert!(e.message.contains("deadline"));
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let parsed =
            parse("# leading comment\n\nprocessor P\n\ntask t c=1 proc=P deadline=9 # trailing\n")
                .unwrap();
        assert_eq!(parsed.graph.task_count(), 1);
        assert!(parsed.shared_costs.is_none());
        assert!(parsed.node_types.is_none());
    }

    #[test]
    fn duplicate_field_rejected() {
        let e = parse("processor P\ntask t c=1 c=2 proc=P deadline=9").unwrap_err();
        assert!(e.message.contains("duplicate field"));
    }
}
