//! Property tests pinning the content-key contract the result cache
//! depends on:
//!
//! 1. **Reformatting never changes the key** — comments, whitespace,
//!    declaration order (types, tasks, edges, costs), and `uses=` list
//!    order are presentation; the canonical text and therefore the
//!    content key are identical across all of them.
//! 2. **Semantic edits always change the key** — perturbing any field
//!    that can reach a computed bound (computation, release, deadline,
//!    message size, resource demand, edges, costs) produces a different
//!    key, so a cache hit is never served for a different problem.

use proptest::prelude::*;

use rtlb_format::{canonical_text, content_key, parse};

/// One generated task: `(c, rel, deadline, uses r0, uses r1)`.
type TaskParams = (i64, i64, i64, bool, bool);

/// Builds the base instance text from generated parameters. Two
/// processors and two resources; edges go strictly forward so the graph
/// is a DAG by construction.
fn base_text(tasks: &[TaskParams], edges: &[(usize, usize, i64)]) -> String {
    let mut out = String::from("processor P0\nprocessor P1\nresource r0\nresource r1\n");
    for (i, &(c, rel, deadline, r0, r1)) in tasks.iter().enumerate() {
        out.push_str(&format!(
            "task t{i} c={c} proc=P{} rel={rel} deadline={}",
            i % 2,
            rel + c + deadline,
        ));
        let uses: Vec<&str> = [(r0, "r0"), (r1, "r1")]
            .iter()
            .filter(|(on, _)| *on)
            .map(|(_, n)| *n)
            .collect();
        if !uses.is_empty() {
            out.push_str(&format!(" uses={}", uses.join(",")));
        }
        out.push('\n');
    }
    for &(from, to, m) in edges {
        out.push_str(&format!("edge t{from} -> t{to} m={m}\n"));
    }
    out
}

/// Normalizes generated edge endpoints into unique forward `(from, to)`
/// pairs over `n` tasks.
fn forward_edges(raw: &[(usize, usize, i64)], n: usize) -> Vec<(usize, usize, i64)> {
    let mut seen = std::collections::BTreeSet::new();
    let mut out = Vec::new();
    for &(a, b, m) in raw {
        let (from, to) = (a % n, b % n);
        if from < to && seen.insert((from, to)) {
            out.push((from, to, m));
        }
    }
    out
}

/// Deterministically shuffles `lines` by the generated sort keys, then
/// decorates them with comments and erratic spacing.
fn reformat(text: &str, keys: &[u64]) -> String {
    let mut lines: Vec<(u64, &str)> = text
        .lines()
        .enumerate()
        .map(|(i, l)| (keys[i % keys.len()].rotate_left(i as u32), l))
        .collect();
    lines.sort();
    let mut out = String::from("# reformatted variant\n");
    for (i, (key, line)) in lines.iter().enumerate() {
        // Erratic indentation and inter-token spacing.
        let pad = " ".repeat((key % 4) as usize);
        let gap = " ".repeat(1 + (key % 3) as usize);
        let tokens: Vec<&str> = line.split_whitespace().collect();
        out.push_str(&pad);
        out.push_str(&tokens.join(&gap));
        if key % 2 == 0 {
            out.push_str("   # trailing comment");
        }
        out.push('\n');
        if i % 3 == 0 {
            out.push_str("\n# interleaved comment\n");
        }
    }
    out
}

proptest! {
    /// Shuffling declaration order, reversing `uses=` lists, and
    /// sprinkling comments/whitespace leaves the canonical text — and
    /// therefore the content key — untouched.
    #[test]
    fn reformatting_never_changes_the_key(
        tasks in proptest::collection::vec((1i64..40, 0i64..10, 10i64..80, any::<bool>(), any::<bool>()), 1..10),
        raw_edges in proptest::collection::vec((0usize..16, 0usize..16, 0i64..6), 0..14),
        keys in proptest::collection::vec(any::<u64>(), 32),
    ) {
        let edges = forward_edges(&raw_edges, tasks.len());
        let text = base_text(&tasks, &edges);
        let variant = reformat(&text, &keys)
            .replace("uses=r0,r1", "uses=r1,r0");

        let a = parse(&text).expect("base parses");
        let b = parse(&variant).expect("variant parses");
        prop_assert_eq!(canonical_text(&a), canonical_text(&b));
        prop_assert_eq!(content_key(&a, "fp"), content_key(&b, "fp"));
    }

    /// Every semantic field reachable by the analysis flips the key when
    /// perturbed; the same text twice keys identically.
    #[test]
    fn semantic_edits_always_change_the_key(
        tasks in proptest::collection::vec((1i64..40, 0i64..10, 10i64..80, any::<bool>(), any::<bool>()), 2..10),
        raw_edges in proptest::collection::vec((0usize..16, 0usize..16, 0i64..6), 1..14),
        victim in any::<u64>(),
        which in 0u8..5,
    ) {
        let edges = forward_edges(&raw_edges, tasks.len());
        let text = base_text(&tasks, &edges);
        let a = parse(&text).expect("base parses");
        prop_assert_eq!(content_key(&a, "fp"), content_key(&parse(&text).unwrap(), "fp"));

        let t = (victim % tasks.len() as u64) as usize;
        let (c, rel, deadline, r0, r1) = tasks[t];
        let mut edited_tasks = tasks.clone();
        let mut edited_edges = edges.clone();
        match which {
            0 => edited_tasks[t] = (c + 1, rel, deadline, r0, r1),
            1 => edited_tasks[t] = (c, rel + 1, deadline, r0, r1),
            2 => edited_tasks[t] = (c, rel, deadline + 1, r0, r1),
            3 => edited_tasks[t] = (c, rel, deadline, !r0, r1),
            _ => {
                if edited_edges.is_empty() {
                    // No edge to perturb; fall back to a demand flip.
                    edited_tasks[t] = (c, rel, deadline, r0, !r1);
                } else {
                    let e = (victim % edited_edges.len() as u64) as usize;
                    edited_edges[e].2 += 1;
                }
            }
        }
        let edited = base_text(&edited_tasks, &edited_edges);
        let b = parse(&edited).expect("edited parses");
        prop_assert_ne!(content_key(&a, "fp"), content_key(&b, "fp"));
    }

    /// The options fingerprint is part of the key: the same instance
    /// analyzed at different propagation levels must never alias one
    /// cache entry (the filtered level computes genuinely different
    /// bounds), while the same level keys identically. The fingerprint
    /// strings below mirror `AnalysisOptions::semantic_fingerprint`,
    /// which appends `;propagation=<level>`.
    #[test]
    fn propagation_levels_never_share_a_key(
        tasks in proptest::collection::vec((1i64..40, 0i64..10, 10i64..80, any::<bool>(), any::<bool>()), 1..10),
        raw_edges in proptest::collection::vec((0usize..16, 0usize..16, 0i64..6), 0..14),
    ) {
        let edges = forward_edges(&raw_edges, tasks.len());
        let text = base_text(&tasks, &edges);
        let parsed = parse(&text).expect("base parses");
        let fp = |level: &str| format!("candidates=est-lct;propagation={level}");
        let keys = [
            content_key(&parsed, &fp("timeline")),
            content_key(&parsed, &fp("filtered")),
        ];
        prop_assert_ne!(keys[0], keys[1]);
        prop_assert_eq!(content_key(&parsed, &fp("filtered")), keys[1]);
    }
}
