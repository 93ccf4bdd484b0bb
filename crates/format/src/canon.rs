//! Canonical normalization of parsed instances, and the content key the
//! result cache addresses them by.
//!
//! Two instance files that differ only in *presentation* — comments,
//! whitespace, declaration order of processors/resources/tasks/edges,
//! `default_deadline` vs explicit per-task deadlines, the order of a
//! `uses=` list — describe the same analysis problem and must map to the
//! same cache entry. [`canonical_text`] renders a parsed instance into a
//! single normal form: every section sorted by name, every field
//! explicit, exactly one spelling per system. [`content_key`] then hashes
//! the canonical bytes together with a semantic fingerprint of the
//! [`AnalysisOptions`](rtlb_core::AnalysisOptions) (supplied by the
//! caller as a string, see
//! `AnalysisOptions::semantic_fingerprint`), so a cache hit
//! guarantees both the same problem *and* the same analysis settings.
//!
//! Any field that can change a computed bound is part of the canonical
//! text; anything that cannot (names aside — they key the output rows)
//! is not emitted at all.

use std::fmt::Write as _;

use crate::instance::ParsedSystem;
use crate::key::ContentKey;

/// Domain-separation header hashed ahead of the canonical bytes. Bump it
/// if the canonical form ever changes shape: old cache entries then miss
/// instead of being served against a different normalization.
const CANON_VERSION: &str = "rtlb-canon-v1";

/// Renders a parsed instance into its canonical normal form.
///
/// The output is a valid `.rtlb` file that re-parses to an equivalent
/// system, with every section sorted by name and every optional field
/// spelled out. Two files parse to the same canonical text iff they are
/// presentation variants of the same instance.
pub fn canonical_text(parsed: &ParsedSystem) -> String {
    let graph = &parsed.graph;
    let catalog = graph.catalog();
    let mut out = String::new();

    let mut processors: Vec<&str> = catalog.processors().map(|r| catalog.name(r)).collect();
    processors.sort_unstable();
    for name in processors {
        let _ = writeln!(out, "processor {name}");
    }
    let mut resources: Vec<&str> = catalog.plain_resources().map(|r| catalog.name(r)).collect();
    resources.sort_unstable();
    for name in resources {
        let _ = writeln!(out, "resource {name}");
    }

    let mut tasks: Vec<String> = graph
        .tasks()
        .map(|(_, task)| {
            let mut line = format!(
                "task {} c={} proc={} rel={} deadline={}",
                task.name(),
                task.computation(),
                catalog.name(task.processor()),
                task.release(),
                task.deadline(),
            );
            if !task.resources().is_empty() {
                let mut names: Vec<&str> =
                    task.resources().iter().map(|&r| catalog.name(r)).collect();
                names.sort_unstable();
                names.dedup();
                let _ = write!(line, " uses={}", names.join(","));
            }
            if task.is_preemptive() {
                line.push_str(" preemptive");
            }
            line
        })
        .collect();
    tasks.sort_unstable();
    for line in tasks {
        let _ = writeln!(out, "{line}");
    }

    let mut edges: Vec<String> = graph
        .tasks()
        .flat_map(|(id, task)| {
            graph.successors(id).iter().map(move |e| {
                format!(
                    "edge {} -> {} m={}",
                    task.name(),
                    graph.task(e.other).name(),
                    e.message
                )
            })
        })
        .collect();
    edges.sort_unstable();
    for line in edges {
        let _ = writeln!(out, "{line}");
    }

    if let Some(shared) = &parsed.shared_costs {
        let mut costs: Vec<(&str, i64)> = catalog
            .ids()
            .filter_map(|r| shared.cost(r).map(|c| (catalog.name(r), c)))
            .collect();
        costs.sort_unstable();
        for (name, cost) in costs {
            let _ = writeln!(out, "cost {name} {cost}");
        }
    }

    if let Some(model) = &parsed.node_types {
        let mut nodes: Vec<String> = model
            .node_types()
            .iter()
            .map(|nt| {
                let mut line = format!("node {} proc={}", nt.name(), catalog.name(nt.processor()));
                if !nt.resources().is_empty() {
                    let mut names: Vec<&str> =
                        nt.resources().iter().map(|&r| catalog.name(r)).collect();
                    names.sort_unstable();
                    names.dedup();
                    let _ = write!(line, " uses={}", names.join(","));
                }
                let _ = write!(line, " cost={}", nt.cost());
                line
            })
            .collect();
        nodes.sort_unstable();
        for line in nodes {
            let _ = writeln!(out, "{line}");
        }
    }

    out
}

/// The content key of an instance under a given analysis-options
/// fingerprint: SipHash-2-4-128 over the version header, the canonical
/// text, and the fingerprint, each newline-terminated so no
/// concatenation of the parts is ambiguous.
pub fn content_key(parsed: &ParsedSystem, options_fingerprint: &str) -> ContentKey {
    key_of_canonical(&canonical_text(parsed), options_fingerprint)
}

/// The key for an already-canonicalized text.
fn key_of_canonical(canonical: &str, options_fingerprint: &str) -> ContentKey {
    let mut buf = Vec::with_capacity(CANON_VERSION.len() + canonical.len() + 64);
    buf.extend_from_slice(CANON_VERSION.as_bytes());
    buf.push(b'\n');
    buf.extend_from_slice(canonical.as_bytes());
    buf.push(b'\n');
    buf.extend_from_slice(options_fingerprint.as_bytes());
    buf.push(b'\n');
    ContentKey::of(&buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::parse;

    const BASE: &str = "\
processor P1
processor P2
resource r1
default_deadline 36
task a c=3 proc=P1 uses=r1
task b c=6 proc=P2 rel=2
edge a -> b m=5
cost P1 30
cost r1 20
";

    #[test]
    fn canonical_text_reparses_to_the_same_canonical_text() {
        let parsed = parse(BASE).unwrap();
        let canon = canonical_text(&parsed);
        let reparsed = parse(&canon).unwrap();
        assert_eq!(canonical_text(&reparsed), canon);
    }

    #[test]
    fn presentation_variants_share_a_key() {
        let variant = "\
# a comment
resource   r1   # declared first, extra spaces

processor P2
processor P1
task b   c=6 proc=P2 rel=2 deadline=36
task a   c=3 proc=P1 uses=r1 rel=0 deadline=36

cost r1 20
cost P1 30
edge a -> b m=5
";
        let a = parse(BASE).unwrap();
        let b = parse(variant).unwrap();
        assert_eq!(canonical_text(&a), canonical_text(&b));
        assert_eq!(content_key(&a, "fp"), content_key(&b, "fp"));
    }

    #[test]
    fn semantic_edits_change_the_key() {
        let a = parse(BASE).unwrap();
        for (what, edited) in [
            ("computation", BASE.replace("c=3", "c=4")),
            ("release", BASE.replace("rel=2", "rel=3")),
            (
                "deadline",
                BASE.replace("default_deadline 36", "default_deadline 37"),
            ),
            ("message", BASE.replace("m=5", "m=6")),
            ("demand", BASE.replace(" uses=r1", "")),
            ("cost", BASE.replace("cost P1 30", "cost P1 31")),
            ("edge", BASE.replace("edge a -> b m=5", "")),
        ] {
            let b = parse(&edited).unwrap();
            assert_ne!(
                content_key(&a, "fp"),
                content_key(&b, "fp"),
                "{what} edit must change the key"
            );
        }
    }

    #[test]
    fn options_fingerprint_is_part_of_the_key() {
        let a = parse(BASE).unwrap();
        assert_ne!(content_key(&a, "fp-one"), content_key(&a, "fp-two"));
        assert_eq!(content_key(&a, "fp"), content_key(&a, "fp"));
    }
}
