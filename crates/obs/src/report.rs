//! The versioned run report: what one pipeline run did and where its
//! time went.
//!
//! [`RunReport`] is plain data — the analysis crates fill it in from a
//! [`Metrics`](crate::Metrics) snapshot and their own results — with two
//! sinks: a human-readable summary table ([`RunReport::render_text`]) and
//! the versioned JSON document ([`RunReport::to_json`], schema
//! [`REPORT_SCHEMA`]). [`RunReport::normalize`] zeroes every wall-clock
//! field so golden tests can pin the structural content.

use std::fmt::Write as _;

use crate::json::Json;
use crate::metrics::MetricsSnapshot;

/// The `schema` tag of the JSON run report.
pub const REPORT_SCHEMA: &str = "rtlb-report-v1";

/// The `schema` tag of the `--profile` phase-breakdown document.
pub const PROFILE_SCHEMA: &str = "rtlb-profile-v1";

/// Static facts about the analyzed instance.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct InstanceStats {
    /// Instance name (usually the input file path).
    pub name: String,
    /// Number of tasks.
    pub tasks: u64,
    /// Number of precedence edges.
    pub edges: u64,
    /// Number of demanded resources.
    pub resources: u64,
}

/// Aggregated wall-clock time of one pipeline stage (one span name).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StageStat {
    /// Span name, e.g. `analyze.sweep`.
    pub name: String,
    /// Total wall-clock microseconds across all spans of this name.
    pub wall_micros: u64,
    /// Number of spans aggregated.
    pub spans: u64,
}

/// Work done by one recording thread.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ThreadStat {
    /// Dense thread index (0 = the thread that recorded first).
    pub thread: u64,
    /// Microseconds spent inside sweep worker/chunk spans on this thread.
    pub busy_micros: u64,
    /// Spans recorded on this thread.
    pub spans: u64,
}

/// Per-resource partition shape and sweep time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartitionStat {
    /// Resource name.
    pub resource: String,
    /// Number of Figure 4 blocks.
    pub blocks: u64,
    /// Tasks demanding the resource.
    pub tasks: u64,
    /// Microseconds of sweep-chunk time attributed to this partition.
    pub sweep_micros: u64,
}

/// The witness interval of one bound, `(t1, t2, demand)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WitnessStat {
    /// Interval start.
    pub t1: i64,
    /// Interval end.
    pub t2: i64,
    /// `Θ` on the witness interval.
    pub demand: i64,
}

/// One final `LB_r` value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BoundStat {
    /// Resource name.
    pub resource: String,
    /// `LB_r`.
    pub lb: u64,
    /// The interval that produced the bound, if any task demands `r`.
    pub witness: Option<WitnessStat>,
    /// Candidate intervals the sweep examined for this resource.
    pub intervals_examined: u64,
}

/// Everything one instrumented pipeline run reports.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunReport {
    /// The analyzed instance.
    pub instance: InstanceStats,
    /// The analysis options in effect, as `(key, value)` pairs.
    pub options: Vec<(String, Json)>,
    /// Per-stage wall-clock durations, sorted by stage name.
    pub stages: Vec<StageStat>,
    /// All recorded counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Per-thread sweep work.
    pub threads: Vec<ThreadStat>,
    /// Per-resource partition shapes (empty when partitioning was off).
    pub partitions: Vec<PartitionStat>,
    /// The final `LB_r` values, in resource-id order.
    pub bounds: Vec<BoundStat>,
    /// Step 4 shared-model cost total, when computed.
    pub shared_cost: Option<i64>,
    /// Step 4 dedicated-model cost total, when computed.
    pub dedicated_cost: Option<i64>,
    /// The `--profile` phase breakdown, when one was requested.
    pub profile: Option<PhaseProfile>,
}

impl RunReport {
    /// Zeroes every wall-clock field (durations vary run to run; the
    /// structural content does not). Golden tests pin the normalized
    /// report.
    pub fn normalize(&mut self) {
        for s in &mut self.stages {
            s.wall_micros = 0;
        }
        for t in &mut self.threads {
            t.busy_micros = 0;
        }
        for p in &mut self.partitions {
            p.sweep_micros = 0;
        }
        if let Some(profile) = &mut self.profile {
            profile.normalize();
        }
    }

    /// [`normalize`](Self::normalize) plus collapsing the per-thread rows
    /// into one aggregate row.
    ///
    /// Which worker thread picks up which sweep chunk varies run to run,
    /// so per-thread span attribution is nondeterministic even though the
    /// analysis result is not. Determinism tests that pin a multi-threaded
    /// run's report byte-for-byte use this instead of
    /// [`normalize`](Self::normalize): the total span count is stable, the
    /// per-thread split is not.
    pub fn normalize_schedule(&mut self) {
        self.normalize();
        let spans: u64 = self.threads.iter().map(|t| t.spans).sum();
        self.threads = vec![ThreadStat {
            thread: 0,
            busy_micros: 0,
            spans,
        }];
    }

    /// The versioned JSON document (schema [`REPORT_SCHEMA`]).
    pub fn to_json(&self) -> Json {
        let mut doc = vec![
            ("schema".to_owned(), Json::str(REPORT_SCHEMA)),
            (
                "instance".to_owned(),
                Json::obj([
                    ("name", Json::str(&self.instance.name)),
                    ("tasks", Json::Int(self.instance.tasks as i64)),
                    ("edges", Json::Int(self.instance.edges as i64)),
                    ("resources", Json::Int(self.instance.resources as i64)),
                ]),
            ),
            (
                "options".to_owned(),
                Json::Obj(
                    self.options
                        .iter()
                        .map(|(k, v)| (k.clone(), v.clone()))
                        .collect(),
                ),
            ),
            (
                "stages".to_owned(),
                Json::Arr(
                    self.stages
                        .iter()
                        .map(|s| {
                            Json::obj([
                                ("name", Json::str(&s.name)),
                                ("wall_micros", Json::Int(s.wall_micros as i64)),
                                ("spans", Json::Int(s.spans as i64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "counters".to_owned(),
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Int(*v as i64)))
                        .collect(),
                ),
            ),
            (
                "threads".to_owned(),
                Json::Arr(
                    self.threads
                        .iter()
                        .map(|t| {
                            Json::obj([
                                ("thread", Json::Int(t.thread as i64)),
                                ("busy_micros", Json::Int(t.busy_micros as i64)),
                                ("spans", Json::Int(t.spans as i64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "partitions".to_owned(),
                Json::Arr(
                    self.partitions
                        .iter()
                        .map(|p| {
                            Json::obj([
                                ("resource", Json::str(&p.resource)),
                                ("blocks", Json::Int(p.blocks as i64)),
                                ("tasks", Json::Int(p.tasks as i64)),
                                ("sweep_micros", Json::Int(p.sweep_micros as i64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "bounds".to_owned(),
                Json::Arr(
                    self.bounds
                        .iter()
                        .map(|b| {
                            Json::obj([
                                ("resource", Json::str(&b.resource)),
                                ("lb", Json::Int(b.lb as i64)),
                                (
                                    "witness",
                                    match b.witness {
                                        None => Json::Null,
                                        Some(w) => Json::obj([
                                            ("t1", Json::Int(w.t1)),
                                            ("t2", Json::Int(w.t2)),
                                            ("demand", Json::Int(w.demand)),
                                        ]),
                                    },
                                ),
                                ("intervals_examined", Json::Int(b.intervals_examined as i64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ];
        if self.shared_cost.is_some() || self.dedicated_cost.is_some() {
            let mut cost = Vec::new();
            if let Some(total) = self.shared_cost {
                cost.push(("shared_total".to_owned(), Json::Int(total)));
            }
            if let Some(total) = self.dedicated_cost {
                cost.push(("dedicated_total".to_owned(), Json::Int(total)));
            }
            doc.push(("cost".to_owned(), Json::Obj(cost)));
        }
        if let Some(profile) = &self.profile {
            doc.push(("profile".to_owned(), profile.to_json()));
        }
        Json::Obj(doc)
    }

    /// The human-readable summary table.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "instance {}: {} tasks, {} edges, {} resources",
            self.instance.name, self.instance.tasks, self.instance.edges, self.instance.resources
        );
        let options: Vec<String> = self
            .options
            .iter()
            .map(|(k, v)| format!("{k}={}", v.render()))
            .collect();
        let _ = writeln!(out, "options  {}", options.join(" "));

        let _ = writeln!(out, "\n{:<24} {:>12} {:>7}", "stage", "wall", "spans");
        for s in &self.stages {
            let _ = writeln!(
                out,
                "{:<24} {:>12} {:>7}",
                s.name,
                format_micros(s.wall_micros),
                s.spans
            );
        }

        let _ = writeln!(out, "\n{:<32} {:>12}", "counter", "value");
        for (name, value) in &self.counters {
            let _ = writeln!(out, "{:<32} {:>12}", name, value);
        }

        if !self.threads.is_empty() {
            let _ = writeln!(out, "\n{:<8} {:>12} {:>7}", "thread", "sweep busy", "spans");
            for t in &self.threads {
                let _ = writeln!(
                    out,
                    "{:<8} {:>12} {:>7}",
                    t.thread,
                    format_micros(t.busy_micros),
                    t.spans
                );
            }
        }

        if !self.partitions.is_empty() {
            let _ = writeln!(
                out,
                "\n{:<12} {:>7} {:>7} {:>12}",
                "partition", "blocks", "tasks", "sweep"
            );
            for p in &self.partitions {
                let _ = writeln!(
                    out,
                    "{:<12} {:>7} {:>7} {:>12}",
                    p.resource,
                    p.blocks,
                    p.tasks,
                    format_micros(p.sweep_micros)
                );
            }
        }

        let _ = writeln!(
            out,
            "\n{:<12} {:>4} {:>20} {:>10}",
            "bound", "LB", "witness", "intervals"
        );
        for b in &self.bounds {
            let witness = match b.witness {
                Some(w) => format!("Θ[{},{}]={}", w.t1, w.t2, w.demand),
                None => "-".to_owned(),
            };
            let _ = writeln!(
                out,
                "{:<12} {:>4} {:>20} {:>10}",
                b.resource, b.lb, witness, b.intervals_examined
            );
        }

        if let Some(total) = self.shared_cost {
            let _ = writeln!(out, "\nshared cost bound    {total}");
        }
        if let Some(total) = self.dedicated_cost {
            let _ = writeln!(out, "dedicated cost bound {total}");
        }

        if let Some(profile) = &self.profile {
            let _ = writeln!(out);
            out.push_str(&profile.render_text());
        }
        out
    }
}

/// One row of the `--profile` breakdown: a pipeline phase with its
/// aggregated wall-clock time and span count.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhaseStat {
    /// Phase name (`est-lct-fixpoint`, `partition`, `sweep`, …).
    pub phase: &'static str,
    /// Total wall-clock microseconds attributed to the phase.
    pub wall_micros: u64,
    /// Spans aggregated into the phase (deterministic for a fixed run).
    pub spans: u64,
}

/// The `--profile` report: where a run's wall-clock time went, phase by
/// phase, aggregated from the span histograms of a [`MetricsSnapshot`].
///
/// The phase mapping follows the paper's pipeline: `est-lct-fixpoint`
/// is the Figs. 2–3 fixpoint (`analyze.timing` plus incremental
/// `session.timing`), `partition` the Fig. 4 block partitioning,
/// `sweep` the Eq. 6.3 interval sweep (`analyze.sweep` plus
/// `session.sweep`), `propagate` the filtered level's per-block
/// refinement (`analyze.propagate` plus `session.propagate`), and
/// `cost-bounds` the Step-4 shared/dedicated cost totals. `other` is whatever part of the top-level spans the mapped
/// phases do not cover, and `telemetry_micros` is the profiler watching
/// itself: the time spent snapshotting and serializing the registry,
/// measured by the caller and recorded here.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PhaseProfile {
    /// Total wall-clock microseconds across the top-level pipeline spans.
    pub total_micros: u64,
    /// Self-profiling: microseconds the telemetry layer itself spent
    /// (snapshot + serialization), filled in by the caller.
    pub telemetry_micros: u64,
    /// The per-phase rows, in pipeline order, `other` last.
    pub phases: Vec<PhaseStat>,
}

impl PhaseProfile {
    /// Builds the breakdown from `snapshot`'s span histograms
    /// (`span.<name>.micros`); `telemetry_micros` starts at zero.
    pub fn from_snapshot(snapshot: &MetricsSnapshot) -> PhaseProfile {
        let spans = |names: &[&str]| -> (u64, u64) {
            names.iter().fold((0, 0), |(micros, count), name| {
                match snapshot.histogram(&format!("span.{name}.micros")) {
                    Some(h) => (micros + h.sum, count + h.count),
                    None => (micros, count),
                }
            })
        };
        const PHASES: &[(&str, &[&str])] = &[
            ("validate", &["analyze.validate"]),
            ("est-lct-fixpoint", &["analyze.timing", "session.timing"]),
            ("feasibility", &["analyze.feasibility"]),
            ("partition", &["analyze.partition"]),
            ("sweep", &["analyze.sweep", "session.sweep"]),
            ("propagate", &["analyze.propagate", "session.propagate"]),
            ("cost-bounds", &["cost.shared", "cost.dedicated"]),
        ];
        let (total_micros, _) = spans(&["analyze", "session.analyze", "session.apply"]);
        let mut phases: Vec<PhaseStat> = PHASES
            .iter()
            .map(|&(phase, names)| {
                let (wall_micros, spans) = spans(names);
                PhaseStat {
                    phase,
                    wall_micros,
                    spans,
                }
            })
            .collect();
        let mapped: u64 = phases.iter().map(|p| p.wall_micros).sum();
        phases.push(PhaseStat {
            phase: "other",
            wall_micros: total_micros.saturating_sub(mapped),
            spans: 0,
        });
        PhaseProfile {
            total_micros,
            telemetry_micros: 0,
            phases,
        }
    }

    /// Zeroes every wall-clock field, keeping the (deterministic) span
    /// counts — the profile analogue of [`RunReport::normalize`].
    pub fn normalize(&mut self) {
        self.total_micros = 0;
        self.telemetry_micros = 0;
        for p in &mut self.phases {
            p.wall_micros = 0;
        }
    }

    /// The versioned JSON document (schema [`PROFILE_SCHEMA`]).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::str(PROFILE_SCHEMA)),
            ("total_micros", Json::Int(self.total_micros as i64)),
            ("telemetry_micros", Json::Int(self.telemetry_micros as i64)),
            (
                "phases",
                Json::Arr(
                    self.phases
                        .iter()
                        .map(|p| {
                            Json::obj([
                                ("phase", Json::str(p.phase)),
                                ("wall_micros", Json::Int(p.wall_micros as i64)),
                                ("spans", Json::Int(p.spans as i64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// The human-readable breakdown table, with each phase's share of
    /// the total in tenths of a percent.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<18} {:>12} {:>7} {:>7}",
            "phase", "wall", "spans", "share"
        );
        for p in &self.phases {
            let share = (p.wall_micros * 1000)
                .checked_div(self.total_micros)
                .unwrap_or(0);
            let _ = writeln!(
                out,
                "{:<18} {:>12} {:>7} {:>6}.{}%",
                p.phase,
                format_micros(p.wall_micros),
                p.spans,
                share / 10,
                share % 10
            );
        }
        let _ = writeln!(
            out,
            "{:<18} {:>12}",
            "total",
            format_micros(self.total_micros)
        );
        let _ = writeln!(
            out,
            "{:<18} {:>12}",
            "telemetry",
            format_micros(self.telemetry_micros)
        );
        out
    }
}

/// `1234` → `1.234ms`-style human formatting; whole microseconds below
/// one millisecond.
fn format_micros(micros: u64) -> String {
    if micros >= 1_000_000 {
        format!("{:.3}s", micros as f64 / 1e6)
    } else if micros >= 1_000 {
        format!("{:.3}ms", micros as f64 / 1e3)
    } else {
        format!("{micros}us")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn sample() -> RunReport {
        RunReport {
            instance: InstanceStats {
                name: "x.rtlb".to_owned(),
                tasks: 15,
                edges: 17,
                resources: 3,
            },
            options: vec![
                ("sweep".to_owned(), Json::str("incremental")),
                ("jobs".to_owned(), Json::Int(1)),
            ],
            stages: vec![StageStat {
                name: "analyze.sweep".to_owned(),
                wall_micros: 1234,
                spans: 1,
            }],
            counters: vec![("sweep.pairs_offered".to_owned(), 33)],
            threads: vec![ThreadStat {
                thread: 0,
                busy_micros: 1200,
                spans: 4,
            }],
            partitions: vec![PartitionStat {
                resource: "P1".to_owned(),
                blocks: 4,
                tasks: 12,
                sweep_micros: 900,
            }],
            bounds: vec![BoundStat {
                resource: "P1".to_owned(),
                lb: 3,
                witness: Some(WitnessStat {
                    t1: 3,
                    t2: 6,
                    demand: 9,
                }),
                intervals_examined: 18,
            }],
            shared_cost: Some(140),
            dedicated_cost: None,
            profile: None,
        }
    }

    #[test]
    fn json_carries_schema_and_sections() {
        let doc = sample().to_json();
        assert_eq!(doc.get("schema").unwrap().as_str(), Some(REPORT_SCHEMA));
        assert_eq!(
            doc.keys(),
            vec![
                "schema",
                "instance",
                "options",
                "stages",
                "counters",
                "threads",
                "partitions",
                "bounds",
                "cost"
            ]
        );
        let rendered = doc.pretty();
        let parsed = parse(&rendered).unwrap();
        assert_eq!(parsed, doc, "report JSON roundtrips");
        assert_eq!(
            parsed
                .get("counters")
                .unwrap()
                .get("sweep.pairs_offered")
                .unwrap()
                .as_int(),
            Some(33)
        );
        assert_eq!(
            parsed
                .get("cost")
                .unwrap()
                .get("shared_total")
                .unwrap()
                .as_int(),
            Some(140)
        );
        assert_eq!(parsed.get("cost").unwrap().get("dedicated_total"), None);
    }

    #[test]
    fn normalize_zeroes_only_wallclock() {
        let mut report = sample();
        report.normalize();
        assert_eq!(report.stages[0].wall_micros, 0);
        assert_eq!(report.threads[0].busy_micros, 0);
        assert_eq!(report.partitions[0].sweep_micros, 0);
        assert_eq!(report.counters[0].1, 33);
        assert_eq!(report.bounds[0].lb, 3);
    }

    #[test]
    fn normalize_schedule_collapses_threads() {
        let mut report = sample();
        report.threads.push(ThreadStat {
            thread: 1,
            busy_micros: 700,
            spans: 3,
        });
        report.normalize_schedule();
        assert_eq!(
            report.threads,
            vec![ThreadStat {
                thread: 0,
                busy_micros: 0,
                spans: 7,
            }]
        );
        assert_eq!(report.stages[0].wall_micros, 0, "normalize() still ran");
        assert_eq!(report.counters[0].1, 33);
    }

    #[test]
    fn text_summary_mentions_every_section() {
        let text = sample().render_text();
        for needle in [
            "instance x.rtlb",
            "analyze.sweep",
            "sweep.pairs_offered",
            "1.234ms",
            "Θ[3,6]=9",
            "shared cost bound    140",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn report_with_profile_carries_and_normalizes_the_section() {
        let mut report = sample();
        report.profile = Some(PhaseProfile {
            total_micros: 500,
            telemetry_micros: 9,
            phases: vec![PhaseStat {
                phase: "sweep",
                wall_micros: 500,
                spans: 2,
            }],
        });
        let doc = report.to_json();
        assert_eq!(*doc.keys().last().unwrap(), "profile");
        assert_eq!(
            doc.get("profile").unwrap().get("schema").unwrap().as_str(),
            Some(PROFILE_SCHEMA)
        );
        assert!(report.render_text().contains("telemetry"));
        report.normalize();
        assert_eq!(report.profile.as_ref().unwrap().total_micros, 0);
        assert_eq!(report.profile.as_ref().unwrap().phases[0].spans, 2);
    }

    #[test]
    fn phase_profile_maps_spans_and_accounts_for_other() {
        use crate::metrics::MetricsRegistry;
        use crate::probe::{Label, Probe};
        let r = MetricsRegistry::new();
        // Synthesize a run's spans without sleeping: drive begin/end
        // directly so durations are near-zero but counts are exact.
        for name in [
            "analyze",
            "analyze.validate",
            "analyze.timing",
            "analyze.feasibility",
            "analyze.partition",
            "analyze.sweep",
            "analyze.propagate",
            "session.propagate",
            "cost.shared",
            "cost.dedicated",
            "sweep.chunk",
        ] {
            let id = r.begin(name, Label::None);
            r.end(id);
        }
        let snapshot = r.snapshot();
        let profile = PhaseProfile::from_snapshot(&snapshot);
        let by_name = |phase: &str| {
            profile
                .phases
                .iter()
                .find(|p| p.phase == phase)
                .unwrap_or_else(|| panic!("missing phase {phase}"))
        };
        assert_eq!(by_name("est-lct-fixpoint").spans, 1);
        assert_eq!(by_name("sweep").spans, 1);
        assert_eq!(by_name("propagate").spans, 2);
        assert_eq!(by_name("cost-bounds").spans, 2);
        assert_eq!(by_name("other").spans, 0);
        assert_eq!(
            profile.phases.last().unwrap().phase,
            "other",
            "other comes last"
        );
        // total covers at least the mapped phases (durations are tiny
        // but the subtraction must never underflow).
        let mapped: u64 = profile.phases.iter().map(|p| p.wall_micros).sum();
        assert!(mapped <= profile.total_micros || by_name("other").wall_micros == 0);
    }

    #[test]
    fn phase_profile_json_and_text_and_normalize() {
        let mut profile = PhaseProfile {
            total_micros: 1000,
            telemetry_micros: 42,
            phases: vec![
                PhaseStat {
                    phase: "sweep",
                    wall_micros: 750,
                    spans: 3,
                },
                PhaseStat {
                    phase: "other",
                    wall_micros: 250,
                    spans: 0,
                },
            ],
        };
        let doc = profile.to_json();
        assert_eq!(doc.get("schema").unwrap().as_str(), Some(PROFILE_SCHEMA));
        let parsed = parse(&doc.pretty()).unwrap();
        assert_eq!(parsed, doc);
        let text = profile.render_text();
        assert!(text.contains("75.0%"), "share column:\n{text}");
        assert!(text.contains("telemetry"));
        profile.normalize();
        assert_eq!(profile.total_micros, 0);
        assert_eq!(profile.telemetry_micros, 0);
        assert_eq!(profile.phases[0].wall_micros, 0);
        assert_eq!(profile.phases[0].spans, 3, "span counts survive");
    }

    #[test]
    fn micros_formatting_scales() {
        assert_eq!(format_micros(0), "0us");
        assert_eq!(format_micros(999), "999us");
        assert_eq!(format_micros(1_500), "1.500ms");
        assert_eq!(format_micros(2_000_000), "2.000s");
    }
}
