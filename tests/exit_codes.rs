//! Driver tests of the documented exit-code table: 0 success, 1 run
//! failure (analysis error, untolerated batch outcome, invalid
//! document), 2 usage error (unknown command or flag, missing or
//! invalid argument) — uniform across every subcommand.

use std::process::Command;

fn rtlb(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_rtlb"))
        .args(args)
        .output()
        .expect("rtlb runs")
}

fn exit_code(args: &[&str]) -> i32 {
    rtlb(args).status.code().expect("rtlb exits")
}

#[test]
fn success_is_exit_zero() {
    assert_eq!(exit_code(&["help"]), 0);
    assert_eq!(exit_code(&["--help"]), 0);
    assert_eq!(exit_code(&["example"]), 0);
    assert_eq!(
        exit_code(&["analyze", "examples/instances/paper_fig7.rtlb"]),
        0
    );
    assert_eq!(
        exit_code(&[
            "batch",
            "examples/batch",
            "--tolerate=parse-error,infeasible,overflow",
        ]),
        0
    );
}

#[test]
fn usage_errors_are_exit_two() {
    // Unknown command, no command.
    assert_eq!(exit_code(&[]), 2);
    assert_eq!(exit_code(&["frobnicate"]), 2);
    // Missing required arguments.
    assert_eq!(exit_code(&["analyze"]), 2);
    assert_eq!(
        exit_code(&["schedule", "examples/instances/paper_fig7.rtlb"]),
        2
    );
    assert_eq!(exit_code(&["sweep-scenarios"]), 2);
    assert_eq!(exit_code(&["batch"]), 2);
    assert_eq!(exit_code(&["check-report"]), 2);
    assert_eq!(exit_code(&["bench-serve"]), 2);
    // Unknown or malformed flags, on old and new subcommands alike.
    assert_eq!(
        exit_code(&["analyze", "examples/instances/paper_fig7.rtlb", "--bogus"]),
        2
    );
    assert_eq!(
        exit_code(&["batch", "examples/batch", "--tolerate=exploded"]),
        2
    );
    assert_eq!(exit_code(&["serve", "--max-inflight=lots"]), 2);
    // The sweep strategy, the partition switch, and the paper packing are
    // test oracles, not options.
    for flag in ["--sweep=naive", "--no-partition", "--propagation=paper"] {
        assert_eq!(
            exit_code(&["analyze", "examples/instances/paper_fig7.rtlb", flag]),
            2,
            "analyze {flag}"
        );
        assert_eq!(
            exit_code(&["batch", "examples/batch", flag]),
            2,
            "batch {flag}"
        );
        assert_eq!(exit_code(&["serve", flag]), 2, "serve {flag}");
    }
    assert_eq!(
        exit_code(&[
            "bench-serve",
            "examples/instances/paper_fig7.rtlb",
            "--workload=warp"
        ]),
        2
    );
    assert_eq!(
        exit_code(&["schedule", "examples/instances/paper_fig7.rtlb", "several"]),
        2
    );
    // A surplus argument, and a shard index outside the split.
    let output = rtlb(&[
        "schedule",
        "examples/instances/paper_fig7.rtlb",
        "5",
        "extra",
    ]);
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("unexpected argument `extra`"), "{stderr}");
    let stream = std::env::temp_dir().join(format!("rtlb-exit-codes-{}.jsonl", std::process::id()));
    let shard_out = format!("--shard-out={}", stream.display());
    assert_eq!(
        exit_code(&[
            "batch",
            "examples/batch",
            "--shards=2",
            "--shard=5",
            &shard_out
        ]),
        2
    );
    assert!(!stream.exists(), "a refused split writes no stream");
}

/// An unknown flag is named once and followed by the usage hint once,
/// on every subcommand that takes flags.
#[test]
fn unknown_flag_prints_the_usage_hint_once() {
    for args in [
        &["analyze", "examples/instances/paper_fig7.rtlb", "--bogus"][..],
        &["dot", "examples/instances/paper_fig7.rtlb", "--bogus"],
        &["example", "--bogus"],
        &[
            "schedule",
            "examples/instances/paper_fig7.rtlb",
            "5",
            "--bogus",
        ],
        &["serve", "--bogus"],
        &[
            "sweep-scenarios",
            "examples/scenarios/sensor_sweep.rtlbs",
            "--bogus",
        ],
        &["batch", "examples/batch", "--bogus"],
        &["merge-shards", "--bogus"],
    ] {
        let output = rtlb(args);
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(
            stderr.matches("(see `rtlb --help`)").count(),
            1,
            "{args:?}: {stderr}"
        );
        assert_eq!(stderr.matches("unknown flag `--bogus`").count(), 1);
    }
}

#[test]
fn run_failures_are_exit_one() {
    // Unreadable input.
    assert_eq!(exit_code(&["analyze", "no/such/file.rtlb"]), 1);
    // A batch with untolerated failures.
    assert_eq!(exit_code(&["batch", "examples/batch"]), 1);
    // An instance that fails analysis (magnitude overflow).
    assert_eq!(exit_code(&["analyze", "examples/batch/overflow.rtlb"]), 1);
}

#[test]
fn check_report_validates_documents_end_to_end() {
    let dir = std::env::temp_dir().join(format!("rtlb-exit-codes-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let good = dir.join("batch.json");
    let bad = dir.join("bad.json");

    // A real batch report validates...
    let output = rtlb(&[
        "batch",
        "examples/batch",
        "--tolerate=parse-error,infeasible,overflow",
        "--json",
    ]);
    std::fs::write(&good, &output.stdout).expect("write report");
    assert_eq!(
        exit_code(&["check-report", good.to_str().expect("utf-8 path")]),
        0
    );

    // ...a corrupted rollup does not.
    let text = String::from_utf8(output.stdout).expect("utf-8 report");
    std::fs::write(&bad, text.replace("\"total\": 6", "\"total\": 7")).expect("write bad");
    assert_eq!(
        exit_code(&["check-report", bad.to_str().expect("utf-8 path")]),
        1
    );
    // Invalid JSON is a run failure too.
    std::fs::write(&bad, "{not json").expect("write bad");
    assert_eq!(
        exit_code(&["check-report", bad.to_str().expect("utf-8 path")]),
        1
    );

    std::fs::remove_dir_all(&dir).ok();
}
