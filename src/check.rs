//! Structural validators for the versioned JSON documents the tools
//! emit — the `rtlb check-report` subcommand.
//!
//! [`check_document`] dispatches on the document's `schema` tag:
//!
//! * `rtlb-report-v1` — the per-run metrics report of `rtlb analyze
//!   --metrics=json` ([`check_report`]);
//! * `rtlb-batch-v1` — the batch driver's report ([`check_batch`]),
//!   including the cross-check that the `counts` rollup matches the
//!   per-instance outcomes;
//! * `rtlb-scenarios-v1` — the scenario sweep's report
//!   ([`check_scenarios`]);
//! * `rtlb-metrics-v1` — delegated to
//!   [`MetricsSnapshot::from_json`](rtlb_obs::MetricsSnapshot::from_json);
//! * `rtlb-cache-v1` — a result-cache `index.json` pin
//!   ([`check_cache_index`]);
//! * `rtlb-cache-entry-v1` — one stored cache entry
//!   ([`check_cache_entry`]).
//!
//! The `rtlb-batch-shard-v1` stream format is line-delimited rather
//! than one document, so it gets its own entry point over the raw text
//! ([`check_shard_stream`]); `rtlb check-report` sniffs the first line
//! and dispatches there.
//!
//! Validators are pure functions over the parsed [`Json`] tree and
//! return a one-line summary on success — CI smoke steps assert on the
//! exit code and humans read the summary.

use std::collections::BTreeMap;

use rtlb_format::ContentKey;
use rtlb_obs::{json, Json, MetricsSnapshot};

use crate::batch::{OutcomeKind, OUTCOME_KINDS};
use crate::shard::SHARD_SCHEMA;

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
        Some("rtlb-cache-v1") => check_cache_index(doc),
        Some("rtlb-cache-entry-v1") => check_cache_entry(doc),
        Some(other) => Err(format!("unsupported schema `{other}`")),
        None => Err("missing `schema` tag".to_owned()),
    }
}

/// Validates a result cache's `rtlb-cache-v1` `index.json`: the pins
/// this build relies on (key algorithm and canonical-form version) must
/// be present and non-empty strings.
///
/// # Errors
///
/// See [`check_document`].
pub fn check_cache_index(doc: &Json) -> Result<String, String> {
    let key_algo = str_field(doc, "", "key_algo")?;
    let canon = str_field(doc, "", "canon")?;
    if key_algo.is_empty() {
        return Err("key_algo: must be non-empty".to_owned());
    }
    if canon.is_empty() {
        return Err("canon: must be non-empty".to_owned());
    }
    Ok(format!("valid rtlb-cache-v1 (keys {key_algo}, {canon})"))
}

/// Validates one stored `rtlb-cache-entry-v1` document: a well-formed
/// content key, the recorded options fingerprint, and bounds rows with
/// the same witness invariants as a batch report plus each row's
/// catalog `index`.
///
/// # Errors
///
/// See [`check_document`].
pub fn check_cache_entry(doc: &Json) -> Result<String, String> {
    let key = str_field(doc, "", "key")?;
    if ContentKey::parse(&key).is_none() {
        return Err(format!("key: `{key}` is not a 128-bit hex content key"));
    }
    str_field(doc, "", "options")?;
    let bounds = arr_field(doc, "bounds")?;
    for (i, bound) in bounds.iter().enumerate() {
        let path = format!("bounds[{i}]");
        nonneg_field(bound, &path, "index")?;
        check_bound_row(bound, &path, true)?;
    }
    Ok(format!(
        "valid rtlb-cache-entry-v1 ({key}, {} bound(s))",
        bounds.len()
    ))
}

/// Validates an `rtlb-batch-shard-v1` stream over its raw text: the
/// header pin (root, a coherent `shard < shards` split, the assigned
/// `total`), then every row as a batch instance row plus its content
/// `key` (null for parse failures, 128-bit hex otherwise). A stream
/// with fewer rows than `total`, or whose *final* line is torn
/// mid-write, is *valid but incomplete* — that is the checkpoint state
/// a kill leaves behind — and the summary says so; more rows than
/// `total` or an unparseable line with rows after it is an error.
///
/// # Errors
///
/// A message naming the offending line (1-based) and field.
pub fn check_shard_stream(text: &str) -> Result<String, String> {
    let mut lines = text.lines();
    let header_line = lines.next().ok_or("empty shard stream")?;
    let header =
        json::parse(header_line).map_err(|e| format!("line 1: invalid header JSON: {e}"))?;
    if header.get("schema").and_then(Json::as_str) != Some(SHARD_SCHEMA) {
        return Err(format!("line 1: not an {SHARD_SCHEMA} header"));
    }
    str_field(&header, "", "root")?;
    let shards = nonneg_field(&header, "", "shards")?;
    let shard = nonneg_field(&header, "", "shard")?;
    let total = nonneg_field(&header, "", "total")?;
    if shards < 1 || shard >= shards {
        return Err(format!(
            "line 1: shard {shard} of {shards} is not a valid split"
        ));
    }
    let mut rows = 0i64;
    let mut torn = false;
    let mut lines = lines.enumerate().peekable();
    while let Some((i, line)) = lines.next() {
        let lineno = i + 2;
        let row = match json::parse(line) {
            Ok(row) => row,
            // A kill mid-write tears at most the final row; that is the
            // checkpoint state `--resume` repairs, not corruption. An
            // unparseable line with rows after it *is* corruption.
            Err(_) if lines.peek().is_none() => {
                torn = true;
                break;
            }
            Err(e) => return Err(format!("line {lineno}: invalid JSON: {e}")),
        };
        let path = format!("line {lineno}");
        str_field(&row, &path, "path")?;
        nonneg_field(&row, &path, "micros")?;
        let outcome = str_field(&row, &path, "outcome")?;
        let kind = OutcomeKind::from_label(&outcome)
            .ok_or_else(|| format!("{path}.outcome: unknown outcome `{outcome}`"))?;
        if kind == OutcomeKind::Ok {
            let bounds = arr_field(&row, &format!("{path}.bounds"))?;
            for (j, bound) in bounds.iter().enumerate() {
                check_bound_row(bound, &format!("{path}.bounds[{j}]"), true)?;
            }
        } else if row.get("bounds").is_some() {
            return Err(format!("{path}: a `{outcome}` row must not carry bounds"));
        }
        match row.get("key") {
            Some(Json::Null) => {}
            Some(Json::Str(key)) if ContentKey::parse(key).is_some() => {}
            Some(_) => {
                return Err(format!(
                    "{path}.key: must be null or a 128-bit hex content key"
                ))
            }
            None => return Err(format!("{path}: missing `key`")),
        }
        rows += 1;
    }
    if rows > total || (torn && rows == total) {
        return Err(format!(
            "stream has {} row(s) but the header assigned only {total}",
            rows + i64::from(torn)
        ));
    }
    let state = if torn {
        "incomplete (torn tail) — resume to finish"
    } else if rows == total {
        "complete"
    } else {
        "incomplete — resume to finish"
    };
    Ok(format!(
        "valid rtlb-batch-shard-v1 (shard {shard}/{shards}, {rows} of {total} instance(s), {state})"
    ))
}

/// Validates a `rtlb-report-v1` document.
///
/// # Errors
///
/// See [`check_document`].
pub fn check_report(doc: &Json) -> Result<String, String> {
    let instance = obj_field(doc, "instance")?;
    str_field(instance, "instance.name", "name")?;
    for key in ["tasks", "edges", "resources"] {
        nonneg_field(instance, &format!("instance.{key}"), key)?;
    }
    obj_of_any(doc, "options")?;
    let stages = arr_field(doc, "stages")?;
    for (i, stage) in stages.iter().enumerate() {
        let path = format!("stages[{i}]");
        str_field(stage, &path, "name")?;
        nonneg_field(stage, &path, "wall_micros")?;
        nonneg_field(stage, &path, "spans")?;
    }
    counters_obj(doc, "counters")?;
    let threads = arr_field(doc, "threads")?;
    for (i, thread) in threads.iter().enumerate() {
        let path = format!("threads[{i}]");
        nonneg_field(thread, &path, "thread")?;
        nonneg_field(thread, &path, "busy_micros")?;
        nonneg_field(thread, &path, "spans")?;
    }
    let partitions = arr_field(doc, "partitions")?;
    for (i, partition) in partitions.iter().enumerate() {
        let path = format!("partitions[{i}]");
        str_field(partition, &path, "resource")?;
        nonneg_field(partition, &path, "blocks")?;
        nonneg_field(partition, &path, "tasks")?;
        nonneg_field(partition, &path, "sweep_micros")?;
    }
    let bounds = arr_field(doc, "bounds")?;
    for (i, bound) in bounds.iter().enumerate() {
        check_bound_row(bound, &format!("bounds[{i}]"), true)?;
    }
    Ok(format!(
        "valid rtlb-report-v1 ({} stages, {} bounds)",
        stages.len(),
        bounds.len()
    ))
}

/// Validates a `rtlb-batch-v1` document, including the rollup
/// cross-check: `total` equals the instance count and each `counts`
/// entry equals the number of instances with that outcome.
///
/// # Errors
///
/// See [`check_document`].
pub fn check_batch(doc: &Json) -> Result<String, String> {
    str_field(doc, "", "root")?;
    nonneg_field(doc, "", "total_micros")?;
    let total = nonneg_field(doc, "", "total")?;
    let instances = arr_field(doc, "instances")?;
    if instances.len() as i64 != total {
        return Err(format!(
            "total: claims {total} instance(s) but `instances` has {}",
            instances.len()
        ));
    }

    let mut tallied: BTreeMap<&str, i64> = OUTCOME_KINDS.iter().map(|k| (k.label(), 0)).collect();
    for (i, row) in instances.iter().enumerate() {
        let path = format!("instances[{i}]");
        str_field(row, &path, "path")?;
        nonneg_field(row, &path, "micros")?;
        let outcome = str_field(row, &path, "outcome")?;
        let kind = OutcomeKind::from_label(&outcome)
            .ok_or_else(|| format!("{path}.outcome: unknown outcome `{outcome}`"))?;
        *tallied.get_mut(kind.label()).expect("label tallied") += 1;
        if kind == OutcomeKind::Ok {
            let bounds = arr_field(row, &format!("{path}.bounds"))?;
            for (j, bound) in bounds.iter().enumerate() {
                check_bound_row(bound, &format!("{path}.bounds[{j}]"), true)?;
            }
        } else if row.get("bounds").is_some() {
            return Err(format!(
                "{path}: a `{outcome}` instance must not carry bounds"
            ));
        }
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
        instances.len(),
        tallied["ok"]
    ))
}

/// Validates a `rtlb-scenarios-v1` document.
///
/// # Errors
///
/// See [`check_document`].
pub fn check_scenarios(doc: &Json) -> Result<String, String> {
    str_field(doc, "", "file")?;
    str_field(doc, "", "base")?;
    bool_field(doc, "", "checked")?;
    let scenarios = arr_field(doc, "scenarios")?;
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
        let bounds = arr_field(row, &format!("{path}.bounds"))?;
        for (j, bound) in bounds.iter().enumerate() {
            check_bound_row(bound, &format!("{path}.bounds[{j}]"), false)?;
        }
    }
    Ok(format!(
        "valid rtlb-scenarios-v1 ({} scenario(s), {applied} applied)",
        scenarios.len()
    ))
}

/// One bounds row: `{resource, lb, intervals_examined}` plus, when
/// `with_witness`, a `witness` that is `null` exactly when `lb` is 0
/// (an undemanded resource) and otherwise a well-formed interval.
fn check_bound_row(bound: &Json, path: &str, with_witness: bool) -> Result<(), String> {
    str_field(bound, path, "resource")?;
    let lb = nonneg_field(bound, path, "lb")?;
    nonneg_field(bound, path, "intervals_examined")?;
    if !with_witness {
        return Ok(());
    }
    match bound.get("witness") {
        None => {
            return Err(format!(
                "{path}: missing `witness` (use null when undemanded)"
            ))
        }
        Some(Json::Null) => {
            if lb != 0 {
                return Err(format!("{path}: lb {lb} > 0 requires a witness interval"));
            }
        }
        Some(witness) => {
            if lb == 0 {
                return Err(format!("{path}: lb 0 cannot have a witness interval"));
            }
            let t1 = int_field(witness, &format!("{path}.witness"), "t1")?;
            let t2 = int_field(witness, &format!("{path}.witness"), "t2")?;
            nonneg_field(witness, &format!("{path}.witness"), "demand")?;
            if t1 >= t2 {
                return Err(format!("{path}.witness: degenerate interval [{t1}, {t2}]"));
            }
        }
    }
    Ok(())
}

fn at(path: &str, key: &str) -> String {
    if path.is_empty() {
        key.to_owned()
    } else {
        format!("{path}.{key}")
    }
}

fn obj_field<'a>(doc: &'a Json, key: &str) -> Result<&'a Json, String> {
    match doc.get(key) {
        Some(value @ Json::Obj(_)) => Ok(value),
        Some(_) => Err(format!("{key}: must be an object")),
        None => Err(format!("missing `{key}`")),
    }
}

fn obj_of_any(doc: &Json, key: &str) -> Result<(), String> {
    obj_field(doc, key).map(|_| ())
}

fn counters_obj(doc: &Json, key: &str) -> Result<(), String> {
    match doc.get(key) {
        Some(Json::Obj(pairs)) => {
            for (name, value) in pairs {
                match value.as_int() {
                    Some(v) if v >= 0 => {}
                    _ => return Err(format!("{key}.{name}: must be a non-negative integer")),
                }
            }
            Ok(())
        }
        Some(_) => Err(format!("{key}: must be an object")),
        None => Err(format!("missing `{key}`")),
    }
}

fn arr_field<'a>(doc: &'a Json, path: &str) -> Result<&'a [Json], String> {
    let (parent, key) = match path.rsplit_once('.') {
        Some((parent, key)) => (parent, key),
        None => ("", path),
    };
    let _ = parent;
    // `path` is the full dotted path; only its last segment is the key
    // to look up (the caller passes the already-narrowed document).
    match doc.get(key) {
        Some(json) => json
            .as_arr()
            .ok_or_else(|| format!("{path}: must be an array")),
        None => Err(format!("missing `{path}`")),
    }
}

fn str_field(doc: &Json, path: &str, key: &str) -> Result<String, String> {
    match doc.get(key) {
        Some(Json::Str(s)) => Ok(s.clone()),
        Some(_) => Err(format!("{}: must be a string", at(path, key))),
        None => Err(format!("missing `{}`", at(path, key))),
    }
}

fn bool_field(doc: &Json, path: &str, key: &str) -> Result<bool, String> {
    match doc.get(key) {
        Some(Json::Bool(b)) => Ok(*b),
        Some(_) => Err(format!("{}: must be a boolean", at(path, key))),
        None => Err(format!("missing `{}`", at(path, key))),
    }
}

fn int_field(doc: &Json, path: &str, key: &str) -> Result<i64, String> {
    match doc.get(key).and_then(Json::as_int) {
        Some(v) => Ok(v),
        None => Err(format!("{}: must be an integer", at(path, key))),
    }
}

fn nonneg_field(doc: &Json, path: &str, key: &str) -> Result<i64, String> {
    let v = int_field(doc, path, key)?;
    if v < 0 {
        return Err(format!("{}: must be non-negative, got {v}", at(path, key)));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtlb_obs::json;

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
        let row =
            json::parse(r#"{"resource": "r1", "lb": 2, "intervals_examined": 4, "witness": null}"#)
                .unwrap();
        let err = check_bound_row(&row, "bounds[0]", true).expect_err("lb>0 needs witness");
        assert!(err.contains("requires a witness"), "{err}");

        let row = json::parse(
            r#"{"resource": "r1", "lb": 1, "intervals_examined": 4,
                "witness": {"t1": 5, "t2": 5, "demand": 1}}"#,
        )
        .unwrap();
        let err = check_bound_row(&row, "bounds[0]", true).expect_err("degenerate interval");
        assert!(err.contains("degenerate"), "{err}");
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
                "bounds":[{{"resource":"r1","index":0,"lb":1,"intervals_examined":3,
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
