//! A plain-text format for scenario sweeps.
//!
//! A scenario file names a base instance (in the [`crate::instance`] text
//! format) and a list of named scenarios, each a batch of edits applied
//! to the instance. Scenarios are **cumulative**: the `rtlb
//! sweep-scenarios` command feeds them, in file order, to one
//! [`AnalysisSession`](rtlb_core::AnalysisSession), so each scenario
//! edits the state left by the previous one and only the dirty cone is
//! re-analyzed. The format is line-oriented; `#` starts a comment:
//!
//! ```text
//! base sensor_fusion.rtlb           # relative to this file
//!
//! scenario faster-sample
//! set sample c=2                    # also rel=, deadline=, mode=
//! message sample -> track m=0
//!
//! scenario drop-antenna
//! demand sample remove antenna
//! ```
//!
//! `set` accepts any combination of `c=<ticks>`, `rel=<t>`,
//! `deadline=<t>`, and `mode=preemptive|nonpreemptive`; each field
//! becomes one [`Delta`]. `message` edits an existing edge's message
//! time. `demand` adds or removes a plain resource from a task's demand
//! set.
//!
//! Parsing is pure (no IO) and name-based; [`resolve`] maps the names
//! against a built base graph into ready-to-apply [`Delta`] batches.

use std::fmt;

use rtlb_core::Delta;
use rtlb_graph::{Dur, ExecutionMode, TaskGraph, Time};

use crate::instance::{parse_i64, Fields, ParseError};

/// One unresolved, name-based edit line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScenarioEdit {
    /// `set <task> c=<ticks>` — change a computation time.
    SetComputation(String, Dur),
    /// `set <task> rel=<t>` — change a release time.
    SetRelease(String, Time),
    /// `set <task> deadline=<t>` — change a deadline.
    SetDeadline(String, Time),
    /// `set <task> mode=<m>` — change the execution mode.
    SetMode(String, ExecutionMode),
    /// `message <from> -> <to> m=<ticks>` — change a message time.
    SetMessage(String, String, Dur),
    /// `demand <task> add <resource>` — add a resource demand.
    AddDemand(String, String),
    /// `demand <task> remove <resource>` — remove a resource demand.
    RemoveDemand(String, String),
}

/// One named scenario: a batch of edits applied atomically.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Scenario {
    /// The scenario's name, unique within the file.
    pub name: String,
    /// 1-based line the scenario was declared on (for error reporting).
    pub line: usize,
    /// The edits, in file order.
    pub edits: Vec<ScenarioEdit>,
}

/// A parsed scenario file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScenarioFile {
    /// The base instance path, verbatim from the `base` line; the CLI
    /// resolves it relative to the scenario file's directory.
    pub base: String,
    /// The scenarios, in file order.
    pub scenarios: Vec<Scenario>,
}

impl fmt::Display for ScenarioFile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "base `{}`, {} scenario(s)",
            self.base,
            self.scenarios.len()
        )
    }
}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

/// Parses a scenario file.
///
/// # Errors
///
/// [`ParseError`] pinpointing the offending line: a missing or duplicate
/// `base` line, edits outside a scenario, duplicate scenario names,
/// malformed fields, or unknown directives.
pub fn parse_scenarios(input: &str) -> Result<ScenarioFile, ParseError> {
    let mut base: Option<String> = None;
    let mut scenarios: Vec<Scenario> = Vec::new();

    for (idx, raw) in input.lines().enumerate() {
        let line = idx + 1;
        let text = raw.split('#').next().unwrap_or("").trim();
        if text.is_empty() {
            continue;
        }
        let tokens: Vec<&str> = text.split_whitespace().collect();
        match tokens[0] {
            "base" => {
                let [_, path] = tokens[..] else {
                    return Err(err(line, "usage: base <path>"));
                };
                if base.replace(path.to_owned()).is_some() {
                    return Err(err(line, "duplicate `base` line"));
                }
            }
            "scenario" => {
                let [_, name] = tokens[..] else {
                    return Err(err(line, "usage: scenario <name>"));
                };
                if scenarios.iter().any(|s| s.name == name) {
                    return Err(err(line, format!("duplicate scenario `{name}`")));
                }
                scenarios.push(Scenario {
                    name: name.to_owned(),
                    line,
                    edits: Vec::new(),
                });
            }
            "set" | "message" | "demand" => {
                let Some(current) = scenarios.last_mut() else {
                    return Err(err(line, "edit before the first `scenario` line"));
                };
                current.edits.extend(parse_edit(&tokens, line)?);
            }
            other => return Err(err(line, format!("unknown directive `{other}`"))),
        }
    }

    let Some(base) = base else {
        return Err(err(0, "scenario file needs a `base <path>` line"));
    };
    Ok(ScenarioFile { base, scenarios })
}

/// Parses one freestanding edit line (`set ...`, `message ...`, or
/// `demand ...`, exactly as it would appear inside a scenario block) into
/// its [`ScenarioEdit`]s. `line` is reported in errors; wire protocols
/// that carry edits one-per-element pass the element's position.
///
/// # Errors
///
/// [`ParseError`] on an empty line, an unknown directive, or a malformed
/// field — the same rules as [`parse_scenarios`].
pub fn parse_edit_line(text: &str, line: usize) -> Result<Vec<ScenarioEdit>, ParseError> {
    let text = text.split('#').next().unwrap_or("").trim();
    let tokens: Vec<&str> = text.split_whitespace().collect();
    match tokens.first() {
        Some(&("set" | "message" | "demand")) => parse_edit(&tokens, line),
        Some(other) => Err(err(line, format!("unknown edit directive `{other}`"))),
        None => Err(err(line, "empty edit line")),
    }
}

/// Parses one edit line into (possibly several) [`ScenarioEdit`]s.
fn parse_edit(tokens: &[&str], line: usize) -> Result<Vec<ScenarioEdit>, ParseError> {
    match tokens[0] {
        "set" => {
            if tokens.len() < 3 {
                return Err(err(line, "usage: set <task> c=|rel=|deadline=|mode=..."));
            }
            let task = tokens[1];
            let mut fields = Fields::default();
            fields.split(&tokens[2..], line)?;
            if let Some(flag) = fields.flags().first() {
                return Err(err(line, format!("unexpected token `{flag}`")));
            }
            // Fields apply, and fail, in key order, not line order.
            let mut pairs = fields.pairs().to_vec();
            pairs.sort_unstable_by_key(|&(key, _)| key);
            let mut edits = Vec::new();
            for (key, value) in pairs {
                edits.push(match key {
                    "c" => {
                        let c = Dur::try_new(parse_i64(value, line, "computation")?)
                            .ok_or_else(|| err(line, "computation must be non-negative"))?;
                        ScenarioEdit::SetComputation(task.to_owned(), c)
                    }
                    "rel" => ScenarioEdit::SetRelease(
                        task.to_owned(),
                        Time::new(parse_i64(value, line, "release")?),
                    ),
                    "deadline" => ScenarioEdit::SetDeadline(
                        task.to_owned(),
                        Time::new(parse_i64(value, line, "deadline")?),
                    ),
                    "mode" => {
                        let mode = match value {
                            "preemptive" => ExecutionMode::Preemptive,
                            "nonpreemptive" => ExecutionMode::NonPreemptive,
                            other => {
                                return Err(err(line, format!("unknown mode `{other}`")));
                            }
                        };
                        ScenarioEdit::SetMode(task.to_owned(), mode)
                    }
                    other => return Err(err(line, format!("unknown set field `{other}`"))),
                });
            }
            if edits.is_empty() {
                return Err(err(line, "set needs at least one field"));
            }
            Ok(edits)
        }
        "message" => {
            // message <from> -> <to> m=<ticks>
            let arrow = tokens.iter().position(|&t| t == "->");
            let (Some(2), true) = (arrow, tokens.len() == 5) else {
                return Err(err(line, "usage: message <from> -> <to> m=<ticks>"));
            };
            let Some(value) = tokens[4].strip_prefix("m=") else {
                return Err(err(line, "usage: message <from> -> <to> m=<ticks>"));
            };
            let m = Dur::try_new(parse_i64(value, line, "message")?)
                .ok_or_else(|| err(line, "message must be non-negative"))?;
            Ok(vec![ScenarioEdit::SetMessage(
                tokens[1].to_owned(),
                tokens[3].to_owned(),
                m,
            )])
        }
        "demand" => {
            let [_, task, verb, resource] = tokens[..] else {
                return Err(err(line, "usage: demand <task> add|remove <resource>"));
            };
            match verb {
                "add" => Ok(vec![ScenarioEdit::AddDemand(
                    task.to_owned(),
                    resource.to_owned(),
                )]),
                "remove" => Ok(vec![ScenarioEdit::RemoveDemand(
                    task.to_owned(),
                    resource.to_owned(),
                )]),
                other => Err(err(
                    line,
                    format!("demand verb must be add|remove, got `{other}`"),
                )),
            }
        }
        _ => unreachable!("caller dispatches only edit directives"),
    }
}

/// Resolves one scenario's name-based edits against a built base graph
/// into a ready-to-apply [`Delta`] batch.
///
/// # Errors
///
/// [`ParseError`] (reported on the scenario's declaration line) when an
/// edit names an unknown task or resource.
pub fn resolve(scenario: &Scenario, graph: &TaskGraph) -> Result<Vec<Delta>, ParseError> {
    resolve_edits(&scenario.edits, graph, scenario.line)
}

/// Resolves a bare edit batch (no [`Scenario`] wrapper) against a built
/// graph; errors are reported on `line`. This is the entry point wire
/// protocols use after [`parse_edit_line`].
///
/// # Errors
///
/// Same as [`resolve`].
pub fn resolve_edits(
    edits: &[ScenarioEdit],
    graph: &TaskGraph,
    line: usize,
) -> Result<Vec<Delta>, ParseError> {
    let task = |name: &str| {
        graph
            .task_id(name)
            .ok_or_else(|| err(line, format!("unknown task `{name}`")))
    };
    let resource = |name: &str| {
        graph
            .catalog()
            .lookup(name)
            .ok_or_else(|| err(line, format!("unknown type `{name}`")))
    };
    edits
        .iter()
        .map(|edit| {
            Ok(match edit {
                ScenarioEdit::SetComputation(t, c) => Delta::SetComputation {
                    task: task(t)?,
                    computation: *c,
                },
                ScenarioEdit::SetRelease(t, rel) => Delta::SetRelease {
                    task: task(t)?,
                    release: *rel,
                },
                ScenarioEdit::SetDeadline(t, d) => Delta::SetDeadline {
                    task: task(t)?,
                    deadline: *d,
                },
                ScenarioEdit::SetMode(t, mode) => Delta::SetMode {
                    task: task(t)?,
                    mode: *mode,
                },
                ScenarioEdit::SetMessage(from, to, m) => Delta::SetMessage {
                    from: task(from)?,
                    to: task(to)?,
                    message: *m,
                },
                ScenarioEdit::AddDemand(t, r) => Delta::AddDemand {
                    task: task(t)?,
                    resource: resource(r)?,
                },
                ScenarioEdit::RemoveDemand(t, r) => Delta::RemoveDemand {
                    task: task(t)?,
                    resource: resource(r)?,
                },
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r"
# a sweep over the tiny pipeline
base pipeline.rtlb

scenario faster-a
set a c=2 rel=1
message a -> b m=0

scenario drop-resource
demand a remove r1
set c mode=preemptive
";

    fn base_graph() -> TaskGraph {
        crate::instance::parse(
            "processor P1\nresource r1\ndefault_deadline 36\n\
             task a c=3 proc=P1 uses=r1\ntask b c=6 proc=P1\ntask c c=4 proc=P1\n\
             edge a -> b m=5\n",
        )
        .unwrap()
        .graph
    }

    #[test]
    fn parses_scenarios_in_order() {
        let file = parse_scenarios(SAMPLE).unwrap();
        assert_eq!(file.base, "pipeline.rtlb");
        assert_eq!(file.scenarios.len(), 2);
        assert_eq!(file.scenarios[0].name, "faster-a");
        // `set` with two fields expands to two edits plus the message.
        assert_eq!(file.scenarios[0].edits.len(), 3);
        assert_eq!(file.scenarios[1].edits.len(), 2);
        assert!(file.to_string().contains("2 scenario(s)"));
    }

    #[test]
    fn resolves_against_base_graph() {
        let file = parse_scenarios(SAMPLE).unwrap();
        let graph = base_graph();
        let deltas = resolve(&file.scenarios[0], &graph).unwrap();
        let a = graph.task_id("a").unwrap();
        let b = graph.task_id("b").unwrap();
        assert!(deltas.contains(&Delta::SetComputation {
            task: a,
            computation: Dur::new(2)
        }));
        assert!(deltas.contains(&Delta::SetMessage {
            from: a,
            to: b,
            message: Dur::ZERO
        }));
        let deltas = resolve(&file.scenarios[1], &graph).unwrap();
        assert_eq!(deltas.len(), 2);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse_scenarios("scenario s\nset t c=1").unwrap_err();
        assert_eq!(e.line, 0); // missing base

        let e = parse_scenarios("base f\nset t c=1").unwrap_err();
        assert!(e.message.contains("before the first `scenario`"));

        let e = parse_scenarios("base f\nbase g").unwrap_err();
        assert!(e.message.contains("duplicate `base`"));

        let e = parse_scenarios("base f\nscenario s\nscenario s").unwrap_err();
        assert!(e.message.contains("duplicate scenario"));

        let e = parse_scenarios("base f\nscenario s\nset t zzz=1").unwrap_err();
        assert!(e.message.contains("unknown set field"));

        let e = parse_scenarios("base f\nscenario s\nset t mode=sometimes").unwrap_err();
        assert!(e.message.contains("unknown mode"));

        let e = parse_scenarios("base f\nscenario s\ndemand t toggle r").unwrap_err();
        assert!(e.message.contains("add|remove"));

        let e = parse_scenarios("base f\nscenario s\nset t c=-3").unwrap_err();
        assert!(e.message.contains("non-negative"));

        let e = parse_scenarios("base f\nwibble").unwrap_err();
        assert!(e.message.contains("unknown directive"));
    }

    #[test]
    fn edit_lines_parse_standalone() {
        let edits = parse_edit_line("set a c=2 rel=1   # faster", 7).unwrap();
        assert_eq!(edits.len(), 2);
        let edits = parse_edit_line("message a -> b m=0", 1).unwrap();
        assert_eq!(
            edits,
            vec![ScenarioEdit::SetMessage(
                "a".to_owned(),
                "b".to_owned(),
                Dur::ZERO
            )]
        );
        let graph = base_graph();
        let deltas = resolve_edits(&edits, &graph, 1).unwrap();
        assert_eq!(deltas.len(), 1);

        let e = parse_edit_line("", 3).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("empty edit line"), "{e}");
        let e = parse_edit_line("scenario s", 4).unwrap_err();
        assert!(e.message.contains("unknown edit directive"), "{e}");
        let e = parse_edit_line("set a zzz=9", 5).unwrap_err();
        assert!(e.message.contains("unknown set field"), "{e}");
    }

    #[test]
    fn resolve_rejects_unknown_names() {
        let graph = base_graph();
        let file = parse_scenarios("base f\nscenario s\nset nope c=1").unwrap();
        let e = resolve(&file.scenarios[0], &graph).unwrap_err();
        assert!(e.message.contains("unknown task `nope`"));

        let file = parse_scenarios("base f\nscenario s\ndemand a add nope").unwrap();
        let e = resolve(&file.scenarios[0], &graph).unwrap_err();
        assert!(e.message.contains("unknown type `nope`"));
    }
}
