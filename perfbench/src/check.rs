//! Output checks: every timed op's bounds are compared with a
//! from-scratch `rtlb_core::analyze_with` on the same graph, computed
//! outside the timed window.

use rtlb_core::ResourceBound;
use rtlb_graph::TaskGraph;
use rtlb_obs::{json, Json};

/// One resource's bound in a form both the wire and the library map to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BoundRow {
    pub resource: String,
    pub lb: i64,
    pub intervals: i64,
    /// `(t1, t2, demand)` of the witness interval.
    pub witness: Option<(i64, i64, i64)>,
}

fn row(resource: &str, b: &ResourceBound) -> BoundRow {
    BoundRow {
        resource: resource.to_owned(),
        lb: i64::from(b.bound),
        intervals: i64::try_from(b.intervals_examined).expect("interval count fits i64"),
        witness: b
            .witness
            .map(|w| (w.t1.ticks(), w.t2.ticks(), w.demand.ticks())),
    }
}

/// Rows of bounds computed on `graph`.
pub fn rows(graph: &TaskGraph, bounds: &[ResourceBound]) -> Vec<BoundRow> {
    bounds
        .iter()
        .map(|b| row(graph.catalog().name(b.resource), b))
        .collect()
}

/// Rows of name-keyed bounds, as a batch report carries them.
pub fn named_rows(bounds: &[(String, ResourceBound)]) -> Vec<BoundRow> {
    bounds.iter().map(|(name, b)| row(name, b)).collect()
}

/// How one response line compares with its reference.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// `ok` with bounds equal to the reference.
    Match,
    /// `ok`, but some bound differs from the reference.
    Mismatch,
    /// Refused by admission control.
    Busy,
    /// Any other error response, or a line that is not a response.
    Error,
}

/// Judges one `rtlb-rpc-v1` response line against the reference rows.
pub fn judge(line: &str, expected: &[BoundRow]) -> Verdict {
    let Ok(doc) = json::parse(line) else {
        return Verdict::Error;
    };
    if doc.get("ok") != Some(&Json::Bool(true)) {
        let code = doc
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str);
        return if code == Some("busy") {
            Verdict::Busy
        } else {
            Verdict::Error
        };
    }
    match wire_rows(&doc) {
        Some(rows) if rows == expected => Verdict::Match,
        _ => Verdict::Mismatch,
    }
}

/// The `bounds` array of a successful response.
fn wire_rows(doc: &Json) -> Option<Vec<BoundRow>> {
    doc.get("bounds")?
        .as_arr()?
        .iter()
        .map(|b| {
            let witness = match b.get("witness")? {
                Json::Null => None,
                w => Some((
                    w.get("t1")?.as_int()?,
                    w.get("t2")?.as_int()?,
                    w.get("demand")?.as_int()?,
                )),
            };
            Some(BoundRow {
                resource: b.get("resource")?.as_str()?.to_owned(),
                lb: b.get("lb")?.as_int()?,
                intervals: b.get("intervals_examined")?.as_int()?,
                witness,
            })
        })
        .collect()
}

/// The seed whose reference digests are committed in `digests.txt`.
pub const DEFAULT_SEED: u64 = 1;

const DIGESTS: &str = include_str!("../digests.txt");

/// A stable 64-bit FNV-1a digest of every reference bound, in order.
pub fn digest(references: &[Vec<BoundRow>]) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for (i, rows) in references.iter().enumerate() {
        for r in rows {
            let (t1, t2, demand) = r.witness.unwrap_or((0, 0, -1));
            let line = format!(
                "{i} {} {} {} {t1} {t2} {demand}\n",
                r.resource, r.lb, r.intervals
            );
            for byte in line.bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    format!("{hash:016x}")
}

/// At the default seed, checks the references against the committed
/// digest, so a change that moves a bound on both the served path and
/// the reference path still fails. Other seeds have no committed digest
/// and pass.
pub fn digest_ok(workload: &str, seed: u64, references: &[Vec<BoundRow>]) -> bool {
    let got = digest(references);
    eprintln!("perfbench: {workload} seed {seed}: reference digest {got}");
    if seed != DEFAULT_SEED {
        return true;
    }
    let want = DIGESTS
        .lines()
        .filter_map(|line| line.split_once(' '))
        .find(|(name, _)| *name == workload)
        .map(|(_, hex)| hex.trim());
    if want != Some(got.as_str()) {
        eprintln!(
            "perfbench: {workload}: reference digest {got} differs from the committed {want:?}"
        );
    }
    want == Some(got.as_str())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn expected() -> Vec<BoundRow> {
        vec![
            BoundRow {
                resource: "P0".to_owned(),
                lb: 3,
                intervals: 120,
                witness: Some((4, 16, 33)),
            },
            BoundRow {
                resource: "r0".to_owned(),
                lb: 1,
                intervals: 40,
                witness: None,
            },
        ]
    }

    const OK: &str = r#"{"proto":"rtlb-rpc-v1","id":"0","op":"analyze","ok":true,"bounds":[{"resource":"P0","lb":3,"intervals_examined":120,"witness":{"t1":4,"t2":16,"demand":33}},{"resource":"r0","lb":1,"intervals_examined":40,"witness":null}],"text":"..."}"#;

    #[test]
    fn one_altered_bound_counts_as_failed() {
        assert_eq!(judge(OK, &expected()), Verdict::Match);
        let altered = OK.replacen(r#""lb":3"#, r#""lb":2"#, 1);
        assert_eq!(judge(&altered, &expected()), Verdict::Mismatch);
        let altered = OK.replacen(r#""demand":33"#, r#""demand":32"#, 1);
        assert_eq!(judge(&altered, &expected()), Verdict::Mismatch);
    }

    #[test]
    fn busy_and_errors_are_told_apart() {
        let busy = r#"{"proto":"rtlb-rpc-v1","op":"analyze","ok":false,"error":{"code":"busy","message":"4 in flight"}}"#;
        assert_eq!(judge(busy, &expected()), Verdict::Busy);
        let bad = busy.replace("busy", "parse-error");
        assert_eq!(judge(&bad, &expected()), Verdict::Error);
        assert_eq!(judge("not json", &expected()), Verdict::Error);
    }

    #[test]
    fn digest_moves_with_any_bound() {
        let mut moved = expected();
        moved[1].lb = 2;
        assert_ne!(digest(&[expected()]), digest(&[moved]));
        assert_eq!(digest(&[expected()]), digest(&[expected()]));
    }
}
