//! Driver tests of the documented exit-code table: 0 success, 1 run
//! failure (analysis error, untolerated batch outcome, invalid
//! document), 2 usage error (unknown command or flag, missing or
//! invalid argument) — uniform across every subcommand.

use std::process::{Command, Stdio};

fn rtlb(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_rtlb"))
        .args(args)
        .output()
        .expect("rtlb runs")
}

fn exit_code(args: &[&str]) -> i32 {
    rtlb(args).status.code().expect("rtlb exits")
}

/// `args` is a usage error (exit 2) whose message contains `needle`.
fn usage_error(args: &[&str], needle: &str) {
    let output = rtlb(args);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(needle), "{args:?}: {stderr}");
}

/// Stdout with the wall-clock fields of a JSON report (`micros`,
/// `total_micros`, `apply_micros`) zeroed.
fn zero_micros(stdout: &[u8]) -> String {
    String::from_utf8_lossy(stdout)
        .lines()
        .map(|line| match line.split_once("micros\": ") {
            Some((key, value)) => {
                let comma = if value.ends_with(',') { "," } else { "" };
                format!("{key}micros\": 0{comma}\n")
            }
            None => format!("{line}\n"),
        })
        .collect()
}

const FIG7: &str = "examples/instances/paper_fig7.rtlb";
const TOLERATE: &str = "--tolerate=parse-error,infeasible,overflow";

#[test]
fn success_is_exit_zero() {
    assert_eq!(exit_code(&["help"]), 0);
    assert_eq!(exit_code(&["--help"]), 0);
    // `--help` or `-h` after any subcommand prints the same usage, even
    // beside arguments that would fail.
    let usage = rtlb(&["--help"]).stdout;
    for command in [
        "analyze",
        "dot",
        "example",
        "schedule",
        "sweep-scenarios",
        "batch",
        "merge-shards",
        "check-report",
        "serve",
    ] {
        for help in ["--help", "-h"] {
            let output = rtlb(&[command, help]);
            assert_eq!(output.status.code(), Some(0), "{command} {help}");
            assert_eq!(output.stdout, usage, "{command} {help}");
        }
    }
    assert_eq!(
        exit_code(&["analyze", "no/such/file.rtlb", "--bogus", "-h"]),
        0
    );
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
    // A usage error wins over a file error: every argument is checked
    // before any file is read.
    usage_error(&["analyze", "no/such/file.rtlb", "--bogus"], "`--bogus`");
    usage_error(&["dot", "no/such/file.rtlb", "--bogus"], "`--bogus`");
    usage_error(
        &["schedule", "no/such/file.rtlb", "5", "--bogus"],
        "`--bogus`",
    );
    usage_error(
        &["schedule", "no/such/file.rtlb", "several"],
        "invalid unit count",
    );
    // A value flag without its value names the value it takes; a
    // switch refuses a value.
    usage_error(
        &["analyze", FIG7, "--cache"],
        "--cache needs a value: --cache=DIR",
    );
    usage_error(
        &["batch", "examples/batch", "--jobs"],
        "--jobs needs a value: --jobs=N",
    );
    usage_error(
        &["batch", "examples/batch", "--json=1"],
        "--json takes no value",
    );
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
/// An argument that is not valid UTF-8 is a usage error that names it,
/// refused before any file is read, never a panic.
#[cfg(unix)]
#[test]
fn non_utf8_argument_is_a_usage_error() {
    use std::os::unix::ffi::OsStrExt;

    let output = Command::new(env!("CARGO_BIN_EXE_rtlb"))
        .arg("analyze")
        .arg(std::ffi::OsStr::from_bytes(b"\xff.rtlb"))
        .output()
        .expect("rtlb runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains(r#""\xFF.rtlb" is not valid UTF-8"#),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}

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

/// Flags may come before, between or after the positional arguments,
/// with the same stdout as the flags-last order.
#[test]
fn flags_and_arguments_come_in_any_order() {
    for (flags_first, flags_last) in [
        (
            &["analyze", "--jobs=2", FIG7, "--extended"][..],
            &["analyze", FIG7, "--jobs=2", "--extended"][..],
        ),
        (
            &["batch", "--json", "examples/batch", TOLERATE],
            &["batch", "examples/batch", "--json", TOLERATE],
        ),
        (
            &[
                "sweep-scenarios",
                "--check",
                "--json",
                "examples/scenarios/sensor_sweep.rtlbs",
            ],
            &[
                "sweep-scenarios",
                "examples/scenarios/sensor_sweep.rtlbs",
                "--check",
                "--json",
            ],
        ),
    ] {
        let first = rtlb(flags_first);
        let last = rtlb(flags_last);
        assert_eq!(first.status.code(), Some(0), "{flags_first:?}");
        assert_eq!(last.status.code(), Some(0), "{flags_last:?}");
        assert_eq!(
            zero_micros(&first.stdout),
            zero_micros(&last.stdout),
            "{flags_first:?}"
        );
    }
}

/// A closed stdout is a run failure (exit 1, a message, no panic) on
/// every subcommand that writes stdout; `serve` is the one left out,
/// since it only stops on a shutdown request.
#[test]
fn closed_stdout_is_a_run_failure() {
    let dir = std::env::temp_dir().join(format!("rtlb-closed-stdout-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let stream = dir.join("s.jsonl");
    let stream = stream.to_str().expect("utf-8 path");
    let shard_out = format!("--shard-out={stream}");
    assert_eq!(
        exit_code(&["batch", "examples/batch", &shard_out, TOLERATE]),
        0
    );
    for args in [
        &["--help"][..],
        &["example"],
        &["analyze", FIG7],
        &["dot", FIG7],
        &["schedule", FIG7, "5"],
        &["sweep-scenarios", "examples/scenarios/sensor_sweep.rtlbs"],
        &["batch", "examples/batch", "--json", TOLERATE],
        &["merge-shards", stream],
        &["check-report", stream],
    ] {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let output = Command::new(env!("CARGO_BIN_EXE_rtlb"))
            .args(args)
            .stdout(writer)
            .stderr(Stdio::piped())
            .output()
            .expect("rtlb runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains("cannot write to stdout"),
            "{args:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
