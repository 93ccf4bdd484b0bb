//! Golden-file tests: the shipped `.rtlb` instances must produce these
//! exact analysis results — bounds, witness intervals, interval counts,
//! and partition block structure — and the naive sweep oracle must
//! reproduce the bounds bit for bit.
//!
//! The values were produced by the analysis itself and reviewed against
//! the paper (Figure 7 / Table 1 for `paper_fig7`); they pin the
//! implementation against silent behavioral drift. If a deliberate
//! algorithm change shifts a witness or interval count, re-derive the
//! constants and say why in the commit.

use rtlb::core::oracle::naive_bounds;
use rtlb::core::{analyze, CandidatePolicy, SystemModel};
use rtlb::format::ParsedSystem;
use rtlb::graph::Time;

fn load(name: &str) -> ParsedSystem {
    let path = format!("{}/examples/instances/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    rtlb::format::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// One resource's expected outcome: bound, witness `(t1, t2, demand)`,
/// and the number of candidate intervals the partitioned sweep examines.
struct ExpectedBound {
    resource: &'static str,
    bound: u32,
    witness: (i64, i64, i64),
    intervals: u64,
}

/// One expected partition block: member task names (any order) and the
/// block's `[start, finish]` span.
struct ExpectedBlock {
    resource: &'static str,
    tasks: &'static [&'static str],
    span: (i64, i64),
}

fn check(name: &str, expected: &[ExpectedBound], blocks: &[ExpectedBlock]) {
    let parsed = load(name);
    let analysis = analyze(&parsed.graph, &SystemModel::shared()).unwrap();
    let naive = naive_bounds(
        &parsed.graph,
        analysis.timing(),
        analysis.partitions(),
        CandidatePolicy::EstLct,
    )
    .unwrap();
    let catalog = parsed.graph.catalog();
    for (oracle, bounds) in [("incremental", analysis.bounds()), ("naive", &naive[..])] {
        assert_eq!(bounds.len(), expected.len(), "{name}: bound count");
        for expect in expected {
            let r = catalog.lookup(expect.resource).unwrap();
            let b = bounds.iter().find(|b| b.resource == r).unwrap();
            let ctx = format!("{name}/{}/{oracle}", expect.resource);
            assert_eq!(b.bound, expect.bound, "{ctx}: LB");
            assert_eq!(b.intervals_examined, expect.intervals, "{ctx}: intervals");
            let w = b.witness.unwrap();
            assert_eq!(
                (w.t1.ticks(), w.t2.ticks(), w.demand.ticks()),
                expect.witness,
                "{ctx}: witness"
            );
        }
    }

    let mut seen = 0;
    for expect in blocks {
        let r = catalog.lookup(expect.resource).unwrap();
        let partition = analysis
            .partitions()
            .iter()
            .find(|p| p.resource == r)
            .unwrap();
        let block = partition
            .blocks()
            .find(|b| b.start == Time::new(expect.span.0))
            .unwrap_or_else(|| {
                panic!(
                    "{name}/{}: no block starting at {}",
                    expect.resource, expect.span.0
                )
            });
        let mut got: Vec<&str> = block
            .tasks
            .iter()
            .map(|&t| parsed.graph.task(t).name())
            .collect();
        got.sort_unstable();
        let mut want = expect.tasks.to_vec();
        want.sort_unstable();
        assert_eq!(got, want, "{name}/{}: block membership", expect.resource);
        assert_eq!(
            block.finish,
            Time::new(expect.span.1),
            "{name}/{}: block finish",
            expect.resource
        );
        seen += 1;
    }
    let total: usize = analysis.partitions().iter().map(|p| p.block_count()).sum();
    assert_eq!(total, seen, "{name}: every partition block is pinned");
}

/// The paper's 15-task avionics example (Figure 7): published bounds
/// LB_P1 = 3, LB_P2 = 2, LB_r1 = 2, and the Figure 4 partition
/// structure from the E2 run of the paper.
#[test]
fn paper_fig7_golden() {
    check(
        "paper_fig7.rtlb",
        &[
            ExpectedBound {
                resource: "P1",
                bound: 3,
                witness: (3, 6, 9),
                intervals: 18,
            },
            ExpectedBound {
                resource: "P2",
                bound: 2,
                witness: (11, 15, 8),
                intervals: 7,
            },
            ExpectedBound {
                resource: "r1",
                bound: 2,
                witness: (0, 3, 6),
                intervals: 8,
            },
        ],
        &[
            ExpectedBlock {
                resource: "P1",
                tasks: &["t1", "t2", "t3", "t4", "t5"],
                span: (0, 15),
            },
            ExpectedBlock {
                resource: "P1",
                tasks: &["t9"],
                span: (16, 19),
            },
            ExpectedBlock {
                resource: "P1",
                tasks: &["t10", "t11", "t13", "t14"],
                span: (19, 30),
            },
            ExpectedBlock {
                resource: "P1",
                tasks: &["t12", "t15"],
                span: (30, 36),
            },
            ExpectedBlock {
                resource: "P2",
                tasks: &["t6", "t7"],
                span: (10, 16),
            },
            ExpectedBlock {
                resource: "P2",
                tasks: &["t8"],
                span: (18, 23),
            },
            ExpectedBlock {
                resource: "r1",
                tasks: &["t1", "t2"],
                span: (0, 6),
            },
            ExpectedBlock {
                resource: "r1",
                tasks: &["t5"],
                span: (6, 15),
            },
            ExpectedBlock {
                resource: "r1",
                tasks: &["t10", "t13", "t14"],
                span: (19, 30),
            },
            ExpectedBlock {
                resource: "r1",
                tasks: &["t15"],
                span: (30, 36),
            },
        ],
    );
}

/// The sensor-fusion example: two radar front-ends on DSPs sharing a
/// bus, fused downstream on a CPU.
#[test]
fn sensor_fusion_golden() {
    check(
        "sensor_fusion.rtlb",
        &[
            ExpectedBound {
                resource: "DSP",
                bound: 1,
                witness: (0, 17, 12),
                intervals: 1,
            },
            ExpectedBound {
                resource: "CPU",
                bound: 1,
                witness: (9, 30, 10),
                intervals: 10,
            },
            ExpectedBound {
                resource: "radar_bus",
                bound: 1,
                witness: (0, 17, 12),
                intervals: 1,
            },
        ],
        &[
            ExpectedBlock {
                resource: "DSP",
                tasks: &["radar_a", "radar_b"],
                span: (0, 17),
            },
            ExpectedBlock {
                resource: "CPU",
                tasks: &["alarm", "display", "tracker"],
                span: (9, 45),
            },
            ExpectedBlock {
                resource: "radar_bus",
                tasks: &["radar_a", "radar_b"],
                span: (0, 17),
            },
        ],
    );
}
