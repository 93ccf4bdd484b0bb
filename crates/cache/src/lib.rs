//! Content-addressed result cache for analysis bounds.
//!
//! The fleet workload is many users sweeping near-identical design
//! points, so most batch work is recomputation of instances the
//! pipeline has already solved. [`ResultCache`] turns those into disk
//! hits: bounds are stored under the instance's 128-bit
//! [`ContentKey`] — a stable hash of the
//! *canonical* instance text plus the semantic fingerprint of the
//! [`AnalysisOptions`](rtlb_core::AnalysisOptions) — so any
//! presentation variant of an already-analyzed system, under the same
//! analysis semantics, is served without re-running the pipeline.
//!
//! Layout on disk (`--cache=DIR`):
//!
//! ```text
//! DIR/index.json        # rtlb-cache-v1: schema + key algorithm pin
//! DIR/<xx>/<key>.json   # rtlb-cache-entry-v1, sharded by the first
//!                       # key byte (256-way) to keep directories flat
//! ```
//!
//! Every write goes through [`write_atomic`] (temp + rename), so a kill
//! mid-store can never leave a torn entry: an entry either exists in
//! full or not at all. Reads are correspondingly forgiving — a missing,
//! unreadable, or malformed entry is a **miss**, never an error; a
//! cache must not be able to fail a run. "Malformed" is decided by the
//! same readers `rtlb check-report` uses: [`check_index`] for the
//! index, [`entry_from_json`] for an entry, and within it the
//! bound-row codec ([`bound_json`] / [`bound_from_json`]) that batch
//! reports, shard streams and `rtlb-rpc-v1` responses share.
//!
//! Only healthy (`ok`) results are cached. Failure outcomes are cheap
//! to recompute (parse errors, infeasibility) or nondeterministic under
//! load (timeouts), and caching them would let one bad run poison every
//! later one.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use rtlb_core::{IntervalWitness, ResourceBound};
use rtlb_format::{content_key, ContentKey, ParsedSystem};
use rtlb_graph::{Catalog, Dur, ResourceId, Time};
use rtlb_obs::{json, Json, Probe};

/// Schema tag of the cache directory's `index.json`.
pub const CACHE_SCHEMA: &str = "rtlb-cache-v1";

/// Schema tag of each stored entry.
pub const CACHE_ENTRY_SCHEMA: &str = "rtlb-cache-entry-v1";

/// The key algorithm pinned in the index; a cache written with a
/// different algorithm or canonical form must miss, not mislead.
pub const KEY_ALGO: &str = "siphash-2-4-128";

/// The canonical-form version pinned in the index (see
/// `rtlb_format::canon`).
pub const CANON_VERSION: &str = "rtlb-canon-v1";

/// The fields of `index.json`, in write order, with this build's values.
const INDEX_PINS: [(&str, &str); 3] = [
    ("schema", CACHE_SCHEMA),
    ("key_algo", KEY_ALGO),
    ("canon", CANON_VERSION),
];

/// Bounds by resource name, exactly as a batch row or `rtlb analyze`
/// carries them.
pub type NamedBounds = Vec<(String, ResourceBound)>;

/// Where the bounds of [`ResultCache::lookup_or_analyze`] came from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Served from the store.
    Hit,
    /// A miss: analyzed, then stored.
    Stored,
    /// A miss: analyzed, but the store failed with this error, so the
    /// next lookup misses again.
    StoreFailed(String),
}

/// Monotone suffix making concurrent temp files unique within one
/// process; the pid handles distinct processes.
static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Writes `contents` to `path` atomically: the bytes land in a sibling
/// temp file first and are renamed into place, so a kill mid-write can
/// never leave a truncated file at `path`. The temp name carries the
/// pid and a process-local sequence number, so concurrent writers —
/// batch workers, serve connections, parallel shard processes — never
/// clobber each other's in-flight bytes.
///
/// # Errors
///
/// A human-readable message naming the failing path and OS error.
pub fn write_atomic(path: &Path, contents: &str) -> Result<(), String> {
    let mut tmp_name = path.file_name().unwrap_or_default().to_owned();
    tmp_name.push(format!(
        ".tmp.{}.{}",
        std::process::id(),
        TEMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let tmp = path.with_file_name(tmp_name);
    std::fs::write(&tmp, contents).map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path)
        .map_err(|e| format!("cannot rename {} into place: {e}", tmp.display()))
}

/// A content-addressed store of analysis bounds under one directory.
#[derive(Clone, Debug)]
pub struct ResultCache {
    root: PathBuf,
}

impl ResultCache {
    /// Opens (creating if needed) the cache at `dir` and pins its
    /// `index.json`.
    ///
    /// # Errors
    ///
    /// The directory cannot be created, the index cannot be written, or
    /// an existing index disagrees on schema, key algorithm, or
    /// canonical-form version — serving entries across such a mismatch
    /// could return bounds for a *different* normalization, so the open
    /// refuses instead.
    pub fn open(dir: &Path) -> Result<ResultCache, String> {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create cache dir {}: {e}", dir.display()))?;
        let index = dir.join("index.json");
        match std::fs::read_to_string(&index) {
            Ok(text) => json::parse(&text)
                .map_err(|e| e.to_string())
                .and_then(|doc| check_index(&doc))
                .map_err(|e| format!("cache index {}: {e}", index.display()))?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                let doc = Json::obj(INDEX_PINS.map(|(field, pin)| (field, Json::str(pin))));
                write_atomic(&index, &doc.render())?;
            }
            Err(e) => return Err(format!("cannot read cache index {}: {e}", index.display())),
        }
        Ok(ResultCache {
            root: dir.to_path_buf(),
        })
    }

    /// The cache directory this store was opened on.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Where `key`'s entry lives (whether or not it exists yet).
    pub fn entry_path(&self, key: ContentKey) -> PathBuf {
        self.root
            .join(key.shard_prefix())
            .join(format!("{key}.json"))
    }

    /// Fetches the bounds stored under `key`, or `None` on a miss.
    /// Unreadable and malformed entries are misses too — the caller
    /// recomputes and overwrites; corruption can cost time, never
    /// correctness.
    pub fn lookup(&self, key: ContentKey) -> Option<NamedBounds> {
        let text = std::fs::read_to_string(self.entry_path(key)).ok()?;
        let (stored, bounds) = entry_from_json(&json::parse(&text).ok()?).ok()?;
        // A copied or renamed entry must not impersonate another key.
        (stored == key).then_some(bounds)
    }

    /// Stores `bounds` under `key`, atomically. `options_fingerprint`
    /// is recorded for humans inspecting the entry (the fingerprint is
    /// already folded into `key`, so it never disambiguates lookups).
    ///
    /// # Errors
    ///
    /// The shard directory or entry file cannot be written.
    pub fn store(
        &self,
        key: ContentKey,
        options_fingerprint: &str,
        bounds: &[(String, ResourceBound)],
    ) -> Result<(), String> {
        let path = self.entry_path(key);
        let shard = path.parent().expect("entry path has a shard dir");
        std::fs::create_dir_all(shard)
            .map_err(|e| format!("cannot create cache shard {}: {e}", shard.display()))?;
        write_atomic(
            &path,
            &entry_json(key, options_fingerprint, bounds).render(),
        )
    }

    /// Serves one parsed instance from the store, or runs `analyze` and
    /// stores what it returns: the lookup-or-analyze path of every
    /// single-instance caller. Keys by [`content_key`] under
    /// `options_fingerprint`, re-binds a hit with [`resolve_bounds`], and
    /// counts `cache.hit`, `cache.miss` and `cache.write` on `probe`.
    /// Hit or miss, the bounds are the same, so callers print them
    /// without caring which; the outcome says which it was.
    ///
    /// # Errors
    ///
    /// Only what `analyze` returns. A failed store is not an error: the
    /// fresh bounds come back with [`CacheOutcome::StoreFailed`].
    pub fn lookup_or_analyze<E>(
        &self,
        parsed: &ParsedSystem,
        options_fingerprint: &str,
        probe: &dyn Probe,
        analyze: impl FnOnce() -> Result<Vec<ResourceBound>, E>,
    ) -> Result<(ContentKey, Vec<ResourceBound>, CacheOutcome), E> {
        let catalog = parsed.graph.catalog();
        let key = content_key(parsed, options_fingerprint);
        if let Some(bounds) = self
            .lookup(key)
            .and_then(|named| resolve_bounds(catalog, &named))
        {
            probe.add("cache.hit", 1);
            return Ok((key, bounds, CacheOutcome::Hit));
        }
        probe.add("cache.miss", 1);
        let bounds = analyze()?;
        let outcome = match self.store(key, options_fingerprint, &name_bounds(catalog, &bounds)) {
            Ok(()) => {
                probe.add("cache.write", 1);
                CacheOutcome::Stored
            }
            Err(e) => CacheOutcome::StoreFailed(e),
        };
        Ok((key, bounds, outcome))
    }
}

/// Names each bound's resource through `catalog`, the form the store
/// and batch rows carry; [`resolve_bounds`] is the inverse.
pub fn name_bounds(catalog: &Catalog, bounds: &[ResourceBound]) -> NamedBounds {
    bounds
        .iter()
        .map(|b| (catalog.name(b.resource).to_owned(), *b))
        .collect()
}

/// Re-binds name-keyed cached bounds to a graph's catalog ids so they
/// render byte-identically to a fresh analysis (both `render_bounds`
/// and the RPC `bounds_body` resolve names through the catalog). `None`
/// when any cached name is missing from the catalog — the caller should
/// treat that as a miss and recompute; it cannot happen for an entry
/// stored under the same content key, but a defensive miss beats a
/// wrong label.
pub fn resolve_bounds(catalog: &Catalog, named: &NamedBounds) -> Option<Vec<ResourceBound>> {
    named
        .iter()
        .map(|(name, b)| {
            catalog
                .lookup(name)
                .map(|id| ResourceBound { resource: id, ..*b })
        })
        .collect()
}

/// The `rtlb-cache-entry-v1` document for one stored result: each
/// [`bound_json`] row gains the resource's catalog `index`.
pub fn entry_json(
    key: ContentKey,
    options_fingerprint: &str,
    bounds: &[(String, ResourceBound)],
) -> Json {
    let rows: Vec<Json> = bounds
        .iter()
        .map(|(name, b)| {
            let Json::Obj(mut fields) = bound_json(name, b) else {
                unreachable!("bound_json returns an object")
            };
            fields.insert(
                1,
                ("index".to_owned(), Json::Int(b.resource.index() as i64)),
            );
            Json::Obj(fields)
        })
        .collect();
    Json::obj([
        ("schema", Json::str(CACHE_ENTRY_SCHEMA)),
        ("key", Json::str(key.to_hex())),
        ("options", Json::str(options_fingerprint)),
        ("bounds", Json::Arr(rows)),
    ])
}

/// Decodes an [`entry_json`] document into the key it was stored under
/// and its bounds, each bound to its stored catalog `index`. This is
/// the one entry reader: [`ResultCache::lookup`] treats any error as a
/// miss, and `rtlb check-report` reports it.
///
/// # Errors
///
/// A message naming the first field that breaks the entry schema or
/// the [`bound_from_json`] row rules.
pub fn entry_from_json(doc: &Json) -> Result<(ContentKey, NamedBounds), String> {
    if doc.get("schema").and_then(Json::as_str) != Some(CACHE_ENTRY_SCHEMA) {
        return Err(format!("not an {CACHE_ENTRY_SCHEMA} document"));
    }
    let hex = json::str_field(doc, "", "key")?;
    let key = ContentKey::parse(hex)
        .ok_or_else(|| format!("key: `{hex}` is not a 128-bit hex content key"))?;
    json::str_field(doc, "", "options")?;
    let bounds = json::arr_field(doc, "", "bounds")?
        .iter()
        .enumerate()
        .map(|(i, row)| {
            let path = format!("bounds[{i}]");
            let index = json::nonneg_field(row, &path, "index")?;
            let index = u32::try_from(index)
                .map_err(|_| format!("{path}.index: {index} is not a catalog index"))?;
            bound_from_json(row, &path, ResourceId::from_index(index as usize))
        })
        .collect::<Result<_, _>>()?;
    Ok((key, bounds))
}

/// Checks a cache directory's `rtlb-cache-v1` `index.json` against the
/// pins this build relies on — the one check behind
/// [`ResultCache::open`] and `rtlb check-report`. Serving entries
/// across a mismatch could return bounds for a *different*
/// normalization.
///
/// # Errors
///
/// A pin is missing, not a string, or differs from this build's.
pub fn check_index(doc: &Json) -> Result<(), String> {
    let found = INDEX_PINS
        .iter()
        .map(|(field, _)| json::str_field(doc, "", field))
        .collect::<Result<Vec<_>, _>>()?;
    for ((field, want), got) in INDEX_PINS.iter().zip(found) {
        if got != *want {
            return Err(format!("{field} is {got:?}, this build needs {want:?}"));
        }
    }
    Ok(())
}

/// The JSON row for one resource's bound — `{resource, lb,
/// intervals_examined, witness}`, where `witness` is `null` or the
/// interval `{t1, t2, demand}` whose demand `Θ(r, t1, t2)` attains
/// `LB_r` (Eq. 6.3). Batch reports, shard streams, cache entries and
/// `rtlb-rpc-v1` responses all carry this row; [`bound_from_json`]
/// reads it back.
pub fn bound_json(name: &str, bound: &ResourceBound) -> Json {
    let witness = match &bound.witness {
        None => Json::Null,
        Some(w) => Json::obj([
            ("t1", Json::Int(w.t1.ticks())),
            ("t2", Json::Int(w.t2.ticks())),
            ("demand", Json::Int(w.demand.ticks())),
        ]),
    };
    Json::obj([
        ("resource", Json::str(name)),
        ("lb", Json::Int(i64::from(bound.bound))),
        (
            "intervals_examined",
            Json::Int(i64::try_from(bound.intervals_examined).unwrap_or(i64::MAX)),
        ),
        ("witness", witness),
    ])
}

/// Decodes a [`bound_json`] row found at `path` (which errors name)
/// into its resource name and bound, attributed to `resource`.
///
/// The row must keep the witness rule the sweep guarantees: the
/// witness is `null` exactly when no interval was examined, a witness
/// interval has `t1 < t2`, and `lb > 0` needs a witness. A witness with
/// `lb` 0 is valid (only zero-computation tasks demand the resource),
/// and `lb` may exceed the ceiling the witness alone justifies
/// (filtered propagation raises it).
///
/// # Errors
///
/// A message naming the first field that breaks the row shape or the
/// witness rule.
pub fn bound_from_json(
    row: &Json,
    path: &str,
    resource: ResourceId,
) -> Result<(String, ResourceBound), String> {
    let name = json::str_field(row, path, "resource")?;
    let lb = json::nonneg_field(row, path, "lb")?;
    let bound = u32::try_from(lb).map_err(|_| format!("{path}.lb: {lb} exceeds a u32 bound"))?;
    let intervals_examined = json::nonneg_field(row, path, "intervals_examined")?;
    let witness = match row.get("witness") {
        None => return Err(format!("missing `{path}.witness` (null when none)")),
        Some(Json::Null) => None,
        Some(w) => {
            let at = format!("{path}.witness");
            let t1 = json::int_field(w, &at, "t1")?;
            let t2 = json::int_field(w, &at, "t2")?;
            let demand = Dur::try_new(json::int_field(w, &at, "demand")?)
                .ok_or_else(|| format!("{at}.demand: must be non-negative"))?;
            if t1 >= t2 {
                return Err(format!("{at}: degenerate interval [{t1}, {t2}]"));
            }
            Some(IntervalWitness {
                t1: Time::new(t1),
                t2: Time::new(t2),
                demand,
            })
        }
    };
    match (witness, intervals_examined) {
        (None, _) if bound > 0 => Err(format!(
            "{path}: lb {bound} > 0 requires a witness interval"
        )),
        (None, n) if n > 0 => Err(format!("{path}: {n} interval(s) examined but no witness")),
        (Some(_), 0) => Err(format!("{path}: a witness needs an examined interval")),
        _ => Ok((
            name.to_owned(),
            ResourceBound {
                resource,
                bound,
                witness,
                intervals_examined,
            },
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rtlb-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_bounds() -> NamedBounds {
        vec![
            (
                "P1".to_owned(),
                ResourceBound {
                    resource: ResourceId::from_index(0),
                    bound: 3,
                    witness: Some(IntervalWitness {
                        t1: Time::new(2),
                        t2: Time::new(9),
                        demand: Dur::new(21),
                    }),
                    intervals_examined: 17,
                },
            ),
            (
                "r1".to_owned(),
                ResourceBound {
                    resource: ResourceId::from_index(2),
                    bound: 0,
                    witness: None,
                    intervals_examined: 0,
                },
            ),
        ]
    }

    #[test]
    fn store_then_lookup_round_trips_exactly() {
        let dir = temp_dir("roundtrip");
        let cache = ResultCache::open(&dir).unwrap();
        let key = ContentKey::of(b"instance");
        assert_eq!(cache.lookup(key), None, "fresh cache misses");
        let bounds = sample_bounds();
        cache.store(key, "fp", &bounds).unwrap();
        assert_eq!(cache.lookup(key), Some(bounds));
        assert_eq!(cache.lookup(ContentKey::of(b"other")), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_accepts_same_pin_and_rejects_foreign_index() {
        let dir = temp_dir("reopen");
        {
            let cache = ResultCache::open(&dir).unwrap();
            cache
                .store(ContentKey::of(b"x"), "fp", &sample_bounds())
                .unwrap();
        }
        let cache = ResultCache::open(&dir).unwrap();
        assert!(cache.lookup(ContentKey::of(b"x")).is_some());

        write_atomic(
            &dir.join("index.json"),
            r#"{"schema":"rtlb-cache-v0","key_algo":"fnv","canon":"old"}"#,
        )
        .unwrap();
        let err = ResultCache::open(&dir).unwrap_err();
        assert!(err.contains("schema"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_and_mislabeled_entries_are_misses() {
        let dir = temp_dir("corrupt");
        let cache = ResultCache::open(&dir).unwrap();
        let key = ContentKey::of(b"victim");
        cache.store(key, "fp", &sample_bounds()).unwrap();

        // Truncated JSON: miss.
        std::fs::write(cache.entry_path(key), "{\"schema\":").unwrap();
        assert_eq!(cache.lookup(key), None);

        // A valid entry copied under the wrong key: miss.
        let other = ContentKey::of(b"somebody-else");
        cache.store(other, "fp", &sample_bounds()).unwrap();
        std::fs::create_dir_all(cache.entry_path(key).parent().unwrap()).unwrap();
        std::fs::copy(cache.entry_path(other), cache.entry_path(key)).unwrap();
        assert_eq!(cache.lookup(key), None);
        assert!(cache.lookup(other).is_some());

        // A bound raised past its missing witness: miss.
        let text = std::fs::read_to_string(cache.entry_path(other)).unwrap();
        let tampered = text.replacen(r#""lb":3"#, r#""lb":8"#, 1).replacen(
            r#"{"t1":2,"t2":9,"demand":21}"#,
            "null",
            1,
        );
        assert_ne!(tampered, text);
        std::fs::write(cache.entry_path(other), tampered).unwrap();
        assert_eq!(cache.lookup(other), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bound_rows_keep_the_witness_rule() {
        let row = |text: &str| {
            bound_from_json(&json::parse(text).unwrap(), "b", ResourceId::from_index(0))
        };
        // Only zero-computation tasks demand the resource: lb 0 with a witness.
        let (name, bound) =
            row(r#"{"resource":"r","lb":0,"intervals_examined":1,"witness":{"t1":0,"t2":10,"demand":0}}"#)
                .unwrap();
        assert_eq!((name.as_str(), bound.bound), ("r", 0));
        assert!(row(r#"{"resource":"r","lb":0,"intervals_examined":0,"witness":null}"#).is_ok());
        for (text, expected) in [
            (
                r#"{"resource":"r","lb":2,"intervals_examined":4,"witness":null}"#,
                "requires a witness",
            ),
            (
                r#"{"resource":"r","lb":0,"intervals_examined":4,"witness":null}"#,
                "no witness",
            ),
            (
                r#"{"resource":"r","lb":1,"intervals_examined":0,"witness":{"t1":0,"t2":4,"demand":4}}"#,
                "needs an examined interval",
            ),
            (
                r#"{"resource":"r","lb":1,"intervals_examined":3,"witness":{"t1":5,"t2":5,"demand":1}}"#,
                "degenerate",
            ),
            (
                r#"{"resource":"r","lb":0,"intervals_examined":0}"#,
                "missing `b.witness`",
            ),
            (
                r#"{"resource":"r","lb":-1,"intervals_examined":0,"witness":null}"#,
                "b.lb",
            ),
        ] {
            let err = row(text).expect_err(text);
            assert!(err.contains(expected), "{text}: {err}");
        }
    }

    #[test]
    fn write_atomic_replaces_and_leaves_no_temp() {
        let dir = temp_dir("atomic");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("report.json");
        write_atomic(&path, "first").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "first");
        write_atomic(&path, "second").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "second");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(leftovers, vec![std::ffi::OsString::from("report.json")]);
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(write_atomic(&dir.join("missing/x.json"), "y").is_err());
    }

    #[test]
    fn resolve_bounds_rebinds_to_catalog_ids_or_misses() {
        let mut catalog = Catalog::new();
        let p1 = catalog.processor("P1");
        let r1 = catalog.resource("r1");
        let resolved = resolve_bounds(&catalog, &sample_bounds()).unwrap();
        assert_eq!(resolved[0].resource, p1);
        assert_eq!(resolved[1].resource, r1);
        assert_eq!(resolved[0].bound, 3);
        assert_eq!(resolved[0].witness, sample_bounds()[0].1.witness);
        let foreign = vec![("ghost".to_owned(), sample_bounds()[0].1)];
        assert_eq!(resolve_bounds(&catalog, &foreign), None);
    }

    #[test]
    fn entries_shard_by_key_prefix() {
        let dir = temp_dir("shards");
        let cache = ResultCache::open(&dir).unwrap();
        let key = ContentKey::of(b"sharded");
        cache.store(key, "fp", &[]).unwrap();
        let expected = dir.join(key.shard_prefix()).join(format!("{key}.json"));
        assert!(expected.is_file());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
