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

use std::io::Write as _;
use std::ops::Range;

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
    let mut out = Vec::new();
    write_canonical(parsed, &mut out);
    String::from_utf8(out).expect("canonical text is built from UTF-8 names and numbers")
}

/// The content key of an instance under a given analysis-options
/// fingerprint: SipHash-2-4-128 over the version header, the canonical
/// text, and the fingerprint, each newline-terminated so no
/// concatenation of the parts is ambiguous. All three are written
/// straight into the one buffer that is hashed.
pub fn content_key(parsed: &ParsedSystem, options_fingerprint: &str) -> ContentKey {
    let mut buf = Vec::new();
    buf.extend_from_slice(CANON_VERSION.as_bytes());
    buf.push(b'\n');
    write_canonical(parsed, &mut buf);
    buf.push(b'\n');
    buf.extend_from_slice(options_fingerprint.as_bytes());
    buf.push(b'\n');
    ContentKey::of(&buf)
}

/// Appends the canonical text of `parsed` to `out`: the one writer
/// behind [`canonical_text`] and [`content_key`].
fn write_canonical(parsed: &ParsedSystem, out: &mut Vec<u8>) {
    let graph = &parsed.graph;
    let catalog = graph.catalog();
    // Writes into a `Vec<u8>` cannot fail, so their results are ignored.
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

    let mut lines = Vec::with_capacity(graph.task_count().max(graph.edge_count()));
    let mut names = Vec::new();
    let start = out.len();
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
            out.extend_from_slice(b" uses=");
            let uses = task.resources().iter().map(|&r| catalog.name(r));
            write_name_set(out, &mut names, uses);
        }
        if task.is_preemptive() {
            out.extend_from_slice(b" preemptive");
        }
        out.push(b'\n');
    }
    sort_lines(&mut out[start..], &mut lines);

    let start = out.len();
    for (id, task) in graph.tasks() {
        for e in graph.successors(id) {
            let to = graph.task(e.other).name();
            let _ = writeln!(out, "edge {} -> {to} m={}", task.name(), e.message);
        }
    }
    sort_lines(&mut out[start..], &mut lines);

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
        let start = out.len();
        for nt in model.node_types() {
            let proc = catalog.name(nt.processor());
            let _ = write!(out, "node {} proc={proc}", nt.name());
            if !nt.resources().is_empty() {
                out.extend_from_slice(b" uses=");
                let uses = nt.resources().iter().map(|&r| catalog.name(r));
                write_name_set(out, &mut names, uses);
            }
            let _ = writeln!(out, " cost={}", nt.cost());
        }
        sort_lines(&mut out[start..], &mut lines);
    }
}

/// Writes `names` sorted, deduplicated and comma-separated, collecting
/// them in the reused `scratch`.
fn write_name_set<'a>(
    out: &mut Vec<u8>,
    scratch: &mut Vec<&'a str>,
    names: impl Iterator<Item = &'a str>,
) {
    scratch.clear();
    scratch.extend(names);
    scratch.sort_unstable();
    scratch.dedup();
    for (i, name) in scratch.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        out.extend_from_slice(name.as_bytes());
    }
}

/// Sorts the newline-terminated lines of `section` as strings: by their
/// bytes without the newline, so a line sorts before every longer line
/// it begins. `lines` is reused scratch for the line spans.
fn sort_lines(section: &mut [u8], lines: &mut Vec<Range<usize>>) {
    lines.clear();
    let mut line_start = 0;
    for (at, &byte) in section.iter().enumerate() {
        if byte == b'\n' {
            lines.push(line_start..at);
            line_start = at + 1;
        }
    }
    lines.sort_unstable_by(|a, b| section[a.clone()].cmp(&section[b.clone()]));
    let mut sorted = Vec::with_capacity(section.len());
    for line in lines.iter() {
        sorted.extend_from_slice(&section[line.clone()]);
        sorted.push(b'\n');
    }
    section.copy_from_slice(&sorted);
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

    /// Every section, with names that hold a byte below a space: lines
    /// sort as whole strings (`task a\u{1}` before `task a`), while
    /// `uses=` lists and costs sort by name (`r` before `r\u{1}`).
    const ODD: &str = "\
processor P1
processor P2
resource r
resource r\u{1}
default_deadline 36
task b c=6 proc=P2 rel=2 uses=r\u{1},r
task a c=3 proc=P1 uses=r preemptive
task a\u{1} c=2 proc=P2
edge a -> b m=5
edge a\u{1} -> b m=1
cost r 20
cost r\u{1} 21
cost P1 30
node N proc=P1 uses=r cost=45
node N\u{1} proc=P2 cost=40
";

    #[test]
    fn canonical_order_is_pinned() {
        let canon = canonical_text(&parse(ODD).unwrap());
        assert_eq!(
            canon,
            "\
processor P1
processor P2
resource r
resource r\u{1}
task a\u{1} c=2 proc=P2 rel=0 deadline=36
task a c=3 proc=P1 rel=0 deadline=36 uses=r preemptive
task b c=6 proc=P2 rel=2 deadline=36 uses=r,r\u{1}
edge a\u{1} -> b m=1
edge a -> b m=5
cost P1 30
cost r 20
cost r\u{1} 21
node N\u{1} proc=P2 cost=40
node N proc=P1 uses=r cost=45
"
        );
        assert_eq!(canonical_text(&parse(&canon).unwrap()), canon);
    }

    /// Keys persist across releases: a cache written by an earlier build
    /// must stay warm, so these values may never change.
    #[test]
    fn content_keys_are_pinned() {
        let fp = "candidates=est-lct;propagation=timeline";
        for (text, fingerprint, key) in [
            (BASE, "fp", "d31142f8f5d1e15d6ed49e08fc683e24"),
            (BASE, fp, "9832a371cf091b060c94e18cbbd542e0"),
            (ODD, "fp", "2b5fd2acb25fe9d71efb3acedd17201a"),
        ] {
            let parsed = parse(text).unwrap();
            assert_eq!(content_key(&parsed, fingerprint).to_hex(), key);
        }
    }

    #[test]
    fn options_fingerprint_is_part_of_the_key() {
        let a = parse(BASE).unwrap();
        assert_ne!(content_key(&a, "fp-one"), content_key(&a, "fp-two"));
        assert_eq!(content_key(&a, "fp"), content_key(&a, "fp"));
    }
}
