//! Structural validators for the versioned JSON documents the tools
//! emit — the `rtlb check-report` subcommand.
//!
//! [`check_text`] tells a shard stream from a single document, and
//! [`check_document`] dispatches on the document's `schema` tag. A
//! format the program also reads back is validated by that format's
//! one reader, so `check-report` accepts exactly what the program
//! accepts:
//!
//! * `rtlb-batch-shard-v1` streams — the shard reader behind `--resume`
//!   and `merge-shards` ([`check_shard_stream`]);
//! * `rtlb-cache-v1` and `rtlb-cache-entry-v1` — the index check and
//!   entry decoder behind `ResultCache::{open, lookup}`
//!   ([`check_index`], [`entry_from_json`]);
//! * `rtlb-metrics-v1` — [`MetricsSnapshot::from_json`].
//!
//! The rest are checked here, over rows read by the shared readers:
//!
//! * `rtlb-report-v1` — the per-run report of `rtlb analyze
//!   --metrics=json` ([`check_report`]);
//! * `rtlb-batch-v1` — the batch report ([`check_batch`]), whose
//!   `total` and `counts` rollup must match its rows;
//! * `rtlb-scenarios-v1` — the scenario sweep's report
//!   ([`check_scenarios`]).
//!
//! Validators return a one-line summary on success — CI smoke steps
//! assert on the exit code and humans read the summary.

use std::collections::BTreeMap;

use rtlb_cache::{
    bound_from_json, check_index, entry_from_json, CACHE_ENTRY_SCHEMA, CACHE_SCHEMA, CANON_VERSION,
    KEY_ALGO,
};
use rtlb_graph::ResourceId;
use rtlb_obs::json::{self, arr_field, nonneg_field, str_field};
use rtlb_obs::{Json, MetricsSnapshot};

use crate::batch::{outcome_from_json, OUTCOME_KINDS};
use crate::shard::{is_stream, read_stream};

/// Validates the text of one file: an `rtlb-batch-shard-v1` stream when
/// its first line is a stream header, otherwise one JSON document.
///
/// # Errors
///
/// Invalid JSON, or the first problem [`check_shard_stream`] or
/// [`check_document`] finds.
pub fn check_text(text: &str) -> Result<String, String> {
    if is_stream(text) {
        return check_shard_stream(text);
    }
    let doc = json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    check_document(&doc)
}

/// Validates any supported document, dispatching on its `schema` tag.
///
/// # Errors
///
/// A message naming the first structural problem, prefixed with the
/// JSON path to it; or an unsupported/missing schema tag.
pub fn check_document(doc: &Json) -> Result<String, String> {
    match doc.get("schema").and_then(Json::as_str) {
        Some("rtlb-report-v1") => check_report(doc),
        Some("rtlb-batch-v1") => check_batch(doc),
        Some("rtlb-scenarios-v1") => check_scenarios(doc),
        Some("rtlb-metrics-v1") => {
            let snapshot = MetricsSnapshot::from_json(doc)?;
            Ok(format!(
                "valid rtlb-metrics-v1 ({} counters, {} gauges, {} histograms)",
                snapshot.counters.len(),
                snapshot.gauges.len(),
                snapshot.histograms.len()
            ))
        }
        Some(CACHE_SCHEMA) => {
            check_index(doc)?;
            Ok(format!(
                "valid {CACHE_SCHEMA} (keys {KEY_ALGO}, {CANON_VERSION})"
            ))
        }
        Some(CACHE_ENTRY_SCHEMA) => {
            let (key, bounds) = entry_from_json(doc)?;
            Ok(format!(
                "valid {CACHE_ENTRY_SCHEMA} ({key}, {} bound(s))",
                bounds.len()
            ))
        }
        Some(other) => Err(format!("unsupported schema `{other}`")),
        None => Err("missing `schema` tag".to_owned()),
    }
}

/// Validates an `rtlb-batch-shard-v1` stream over its raw text with the
/// shard reader `--resume` and `merge-shards` use. A stream with fewer
/// rows than its header's `total`, or whose *final* line is torn
/// mid-write, is *valid but incomplete* — the checkpoint state a kill
/// leaves behind — and the summary says so.
///
/// # Errors
///
/// A message naming the offending line (1-based) and field.
pub fn check_shard_stream(text: &str) -> Result<String, String> {
    let stream = read_stream(text)?;
    let header = &stream.header;
    let rows = stream.rows.len();
    let state = if stream.torn.is_some() {
        "incomplete (torn tail) — resume to finish"
    } else if rows == header.total {
        "complete"
    } else {
        "incomplete — resume to finish"
    };
    Ok(format!(
        "valid rtlb-batch-shard-v1 (shard {}/{}, {rows} of {} instance(s), {state})",
        header.shard, header.shards, header.total
    ))
}

/// Validates a `rtlb-report-v1` document.
///
/// # Errors
///
/// See [`check_document`].
pub fn check_report(doc: &Json) -> Result<String, String> {
    let instance = obj_field(doc, "instance")?;
    str_field(instance, "instance", "name")?;
    for key in ["tasks", "edges", "resources"] {
        nonneg_field(instance, "instance", key)?;
    }
    obj_field(doc, "options")?;
    let stages = arr_field(doc, "", "stages")?;
    for (i, stage) in stages.iter().enumerate() {
        let path = format!("stages[{i}]");
        str_field(stage, &path, "name")?;
        nonneg_field(stage, &path, "wall_micros")?;
        nonneg_field(stage, &path, "spans")?;
    }
    counters_obj(doc, "counters")?;
    let threads = arr_field(doc, "", "threads")?;
    for (i, thread) in threads.iter().enumerate() {
        let path = format!("threads[{i}]");
        nonneg_field(thread, &path, "thread")?;
        nonneg_field(thread, &path, "busy_micros")?;
        nonneg_field(thread, &path, "spans")?;
    }
    let partitions = arr_field(doc, "", "partitions")?;
    for (i, partition) in partitions.iter().enumerate() {
        let path = format!("partitions[{i}]");
        str_field(partition, &path, "resource")?;
        nonneg_field(partition, &path, "blocks")?;
        nonneg_field(partition, &path, "tasks")?;
        nonneg_field(partition, &path, "sweep_micros")?;
    }
    let bounds = arr_field(doc, "", "bounds")?;
    for (i, bound) in bounds.iter().enumerate() {
        bound_from_json(bound, &format!("bounds[{i}]"), ResourceId::from_index(i))?;
    }
    Ok(format!(
        "valid rtlb-report-v1 ({} stages, {} bounds)",
        stages.len(),
        bounds.len()
    ))
}

/// Validates a `rtlb-batch-v1` document: every row through the batch
/// row reader, then the rollup cross-check — `total` equals the
/// instance count and each `counts` entry equals the number of
/// instances with that outcome.
///
/// # Errors
///
/// See [`check_document`].
pub fn check_batch(doc: &Json) -> Result<String, String> {
    str_field(doc, "", "root")?;
    nonneg_field(doc, "", "total_micros")?;
    let total = nonneg_field(doc, "", "total")?;
    let rows = arr_field(doc, "", "instances")?;
    if rows.len() as u64 != total {
        return Err(format!(
            "total: claims {total} instance(s) but `instances` has {}",
            rows.len()
        ));
    }

    let mut tallied: BTreeMap<&str, u64> = OUTCOME_KINDS.iter().map(|k| (k.label(), 0)).collect();
    for (i, row) in rows.iter().enumerate() {
        let outcome = outcome_from_json(row, &format!("instances[{i}]"))?;
        *tallied
            .get_mut(outcome.kind.label())
            .expect("label tallied") += 1;
    }

    let counts = obj_field(doc, "counts")?;
    for kind in OUTCOME_KINDS {
        let label = kind.label();
        let claimed = nonneg_field(counts, "counts", label)?;
        let actual = tallied[label];
        if claimed != actual {
            return Err(format!(
                "counts.{label}: claims {claimed} but {actual} instance(s) have that outcome"
            ));
        }
    }
    Ok(format!(
        "valid rtlb-batch-v1 ({} instance(s), {} ok)",
        rows.len(),
        tallied["ok"]
    ))
}

/// Validates a `rtlb-scenarios-v1` document. Its bound rows are
/// `{resource, lb, intervals_examined}`, without a witness.
///
/// # Errors
///
/// See [`check_document`].
pub fn check_scenarios(doc: &Json) -> Result<String, String> {
    str_field(doc, "", "file")?;
    str_field(doc, "", "base")?;
    bool_field(doc, "checked")?;
    let scenarios = arr_field(doc, "", "scenarios")?;
    let mut applied = 0usize;
    for (i, row) in scenarios.iter().enumerate() {
        let path = format!("scenarios[{i}]");
        str_field(row, &path, "name")?;
        nonneg_field(row, &path, "deltas")?;
        if row.get("error").is_some() {
            str_field(row, &path, "error")?;
            if row.get("bounds").is_some() {
                return Err(format!("{path}: a failed scenario must not carry bounds"));
            }
            continue;
        }
        applied += 1;
        for key in [
            "tasks_recomputed",
            "blocks_resweeped",
            "blocks_reused",
            "resources_dirty",
            "apply_micros",
        ] {
            nonneg_field(row, &path, key)?;
        }
        for (j, bound) in arr_field(row, &path, "bounds")?.iter().enumerate() {
            let path = format!("{path}.bounds[{j}]");
            str_field(bound, &path, "resource")?;
            nonneg_field(bound, &path, "lb")?;
            nonneg_field(bound, &path, "intervals_examined")?;
        }
    }
    Ok(format!(
        "valid rtlb-scenarios-v1 ({} scenario(s), {applied} applied)",
        scenarios.len()
    ))
}

fn obj_field<'a>(doc: &'a Json, key: &str) -> Result<&'a Json, String> {
    match doc.get(key) {
        Some(value @ Json::Obj(_)) => Ok(value),
        Some(_) => Err(format!("{key}: must be an object")),
        None => Err(format!("missing `{key}`")),
    }
}

fn counters_obj(doc: &Json, key: &str) -> Result<(), String> {
    let Json::Obj(pairs) = obj_field(doc, key)? else {
        unreachable!("obj_field returns an object")
    };
    for (name, value) in pairs {
        if value.as_int().is_none_or(|v| v < 0) {
            return Err(format!("{key}.{name}: must be a non-negative integer"));
        }
    }
    Ok(())
}

fn bool_field(doc: &Json, key: &str) -> Result<bool, String> {
    match doc.get(key) {
        Some(Json::Bool(b)) => Ok(*b),
        Some(_) => Err(format!("{key}: must be a boolean")),
        None => Err(format!("missing `{key}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch_doc() -> Json {
        json::parse(
            r#"{
              "schema": "rtlb-batch-v1",
              "root": "examples/batch",
              "total": 2,
              "counts": {"ok": 1, "parse-error": 1, "infeasible": 0,
                         "overflow": 0, "timeout": 0, "panicked": 0},
              "total_micros": 1234,
              "instances": [
                {"path": "a.rtlb", "outcome": "ok", "micros": 600,
                 "bounds": [{"resource": "r1", "lb": 2,
                             "intervals_examined": 9,
                             "witness": {"t1": 0, "t2": 6, "demand": 11}}]},
                {"path": "b.rtlb", "outcome": "parse-error", "micros": 30,
                 "detail": "line 1: nope"}
              ]
            }"#,
        )
        .expect("valid JSON")
    }

    #[test]
    fn valid_batch_document_passes_with_summary() {
        let summary = check_document(&batch_doc()).expect("valid");
        assert!(summary.contains("rtlb-batch-v1"), "{summary}");
        assert!(summary.contains("2 instance(s)"), "{summary}");
    }

    #[test]
    fn batch_rollup_mismatches_are_caught() {
        let mut doc = batch_doc();
        // Claim two ok instances; only one exists.
        if let Json::Obj(fields) = &mut doc {
            for (key, value) in fields.iter_mut() {
                if key == "counts" {
                    if let Json::Obj(counts) = value {
                        counts[0].1 = Json::Int(2);
                    }
                }
            }
        }
        let err = check_document(&doc).expect_err("rollup mismatch");
        assert!(err.contains("counts.ok"), "{err}");
    }

    #[test]
    fn batch_structural_defects_are_caught() {
        for (mutation, expected) in [
            (r#"{"schema":"rtlb-batch-v1"}"#, "missing `root`"),
            (r#"{"schema":"rtlb-nope-v9"}"#, "unsupported schema"),
            (r#"{"nothing":true}"#, "missing `schema`"),
        ] {
            let doc = json::parse(mutation).unwrap();
            let err = check_document(&doc).expect_err(mutation);
            assert!(err.contains(expected), "{mutation}: {err}");
        }
        // An instance whose outcome label is unknown.
        let mut doc = batch_doc();
        if let Json::Obj(fields) = &mut doc {
            for (key, value) in fields.iter_mut() {
                if key == "instances" {
                    if let Json::Arr(rows) = value {
                        if let Json::Obj(row) = &mut rows[1] {
                            row[1].1 = Json::str("exploded");
                        }
                    }
                }
            }
        }
        let err = check_document(&doc).expect_err("unknown outcome");
        assert!(err.contains("unknown outcome"), "{err}");
    }

    #[test]
    fn witness_invariants_are_enforced() {
        let with_bound = |row: &str| {
            let valid = batch_doc().render();
            let text = valid.replace(
                r#"{"resource":"r1","lb":2,"intervals_examined":9,"witness":{"t1":0,"t2":6,"demand":11}}"#,
                row,
            );
            assert_ne!(text, valid, "the bound row was replaced");
            check_document(&json::parse(&text).unwrap())
        };
        let err =
            with_bound(r#"{"resource": "r1", "lb": 2, "intervals_examined": 4, "witness": null}"#)
                .expect_err("lb>0 needs witness");
        assert!(err.contains("requires a witness"), "{err}");

        let err = with_bound(
            r#"{"resource": "r1", "lb": 1, "intervals_examined": 4,
                "witness": {"t1": 5, "t2": 5, "demand": 1}}"#,
        )
        .expect_err("degenerate interval");
        assert!(err.contains("degenerate"), "{err}");

        // Only a zero-computation task demands the resource: the sweep
        // examined an interval of demand 0, so lb 0 carries a witness.
        with_bound(
            r#"{"resource": "r1", "lb": 0, "intervals_examined": 1,
                "witness": {"t1": 0, "t2": 10, "demand": 0}}"#,
        )
        .expect("lb 0 with a witness is a zero-work demander");
    }

    #[test]
    fn scenarios_document_validates() {
        let doc = json::parse(
            r#"{
              "schema": "rtlb-scenarios-v1",
              "file": "sweep.rtlbs", "base": "base.rtlb", "checked": true,
              "scenarios": [
                {"name": "a", "deltas": 2, "tasks_recomputed": 3,
                 "blocks_resweeped": 1, "blocks_reused": 4,
                 "resources_dirty": 1, "apply_micros": 55,
                 "bounds": [{"resource": "r1", "lb": 1, "intervals_examined": 3}]},
                {"name": "b", "deltas": 1, "error": "infeasible"}
              ]
            }"#,
        )
        .unwrap();
        let summary = check_document(&doc).expect("valid");
        assert!(summary.contains("2 scenario(s), 1 applied"), "{summary}");
    }

    #[test]
    fn cache_index_and_entry_documents_validate() {
        let index = json::parse(
            r#"{"schema":"rtlb-cache-v1","key_algo":"siphash-2-4-128","canon":"rtlb-canon-v1"}"#,
        )
        .unwrap();
        let summary = check_document(&index).expect("valid index");
        assert!(summary.contains("siphash-2-4-128"), "{summary}");
        let bare = json::parse(r#"{"schema":"rtlb-cache-v1","key_algo":"x"}"#).unwrap();
        assert!(check_document(&bare).unwrap_err().contains("canon"));

        let key = "a".repeat(32);
        let entry = json::parse(&format!(
            r#"{{"schema":"rtlb-cache-entry-v1","key":"{key}","options":"fp",
                "bounds":[{{"resource":"r1","index":0,"lb":2,"intervals_examined":3,
                            "witness":{{"t1":0,"t2":4,"demand":5}}}}]}}"#
        ))
        .unwrap();
        let summary = check_document(&entry).expect("valid entry");
        assert!(summary.contains("1 bound(s)"), "{summary}");
        let entry = json::parse(
            r#"{"schema":"rtlb-cache-entry-v1","key":"nope","options":"fp","bounds":[]}"#,
        )
        .unwrap();
        let err = check_document(&entry).expect_err("bad key");
        assert!(err.contains("content key"), "{err}");
    }

    #[test]
    fn shard_streams_validate_with_completeness_state() {
        let key = "b".repeat(32);
        let header =
            r#"{"schema":"rtlb-batch-shard-v1","root":"corpus","shards":2,"shard":0,"total":2}"#;
        let ok_row =
            format!(r#"{{"path":"a.rtlb","outcome":"ok","micros":9,"bounds":[],"key":"{key}"}}"#);
        let err_row =
            r#"{"path":"b.rtlb","outcome":"parse-error","micros":2,"detail":"bad","key":null}"#;

        let complete = format!("{header}\n{ok_row}\n{err_row}\n");
        let summary = check_shard_stream(&complete).expect("valid stream");
        assert!(summary.contains("2 of 2"), "{summary}");
        assert!(summary.contains("complete"), "{summary}");

        let partial = format!("{header}\n{ok_row}\n");
        let summary = check_shard_stream(&partial).expect("partial is valid");
        assert!(summary.contains("1 of 2"), "{summary}");
        assert!(summary.contains("incomplete"), "{summary}");

        let overfull = format!("{header}\n{ok_row}\n{err_row}\n{ok_row}\n");
        let err = check_shard_stream(&overfull).expect_err("too many rows");
        assert!(err.contains("assigned only 2"), "{err}");

        let torn = format!("{header}\n{ok_row}\n{{\"path\":\"c.rtlb\",\"outco");
        let summary = check_shard_stream(&torn).expect("torn tail is resumable");
        assert!(summary.contains("1 of 2"), "{summary}");
        assert!(summary.contains("torn tail"), "{summary}");

        let torn_mid = format!("{header}\n{{\"path\":\"c.rtlb\",\"outco\n{ok_row}\n");
        let err = check_shard_stream(&torn_mid).expect_err("corruption mid-stream");
        assert!(err.contains("line 2"), "{err}");

        let torn_overfull = format!("{header}\n{ok_row}\n{err_row}\n{{\"path\":\"c.rtlb\",\"ou");
        let err = check_shard_stream(&torn_overfull).expect_err("torn row past total");
        assert!(err.contains("assigned only 2"), "{err}");

        let bad_split =
            r#"{"schema":"rtlb-batch-shard-v1","root":"c","shards":2,"shard":2,"total":0}"#;
        let err = check_shard_stream(bad_split).expect_err("shard out of range");
        assert!(err.contains("not a valid split"), "{err}");

        let not_stream = r#"{"schema":"rtlb-batch-v1"}"#;
        let err = check_shard_stream(not_stream).expect_err("wrong schema");
        assert!(err.contains("header"), "{err}");
    }

    #[test]
    fn metrics_documents_dispatch_to_snapshot_validation() {
        let registry = rtlb_obs::MetricsRegistry::new();
        registry.counter_add("x", 3);
        let doc = registry.snapshot().to_json();
        let summary = check_document(&doc).expect("valid metrics doc");
        assert!(summary.contains("rtlb-metrics-v1"), "{summary}");
        let broken = json::parse(r#"{"schema":"rtlb-metrics-v1"}"#).unwrap();
        assert!(check_document(&broken).is_err());
    }
}
