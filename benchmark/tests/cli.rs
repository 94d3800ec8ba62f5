//! Drives the built benchmark at `--scale tiny` (1/100 size), and scans
//! its source for API the roadmap's refactors may delete.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn bench(args: &[&str], out: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_trim-benchmark"))
        .args(args)
        .args(["--scale", "tiny", "--seconds", "0.05", "--out"])
        .arg(out)
        .output()
        .expect("the benchmark binary starts")
}

/// A fresh directory under the build's temp dir.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn last_line(output: &Output) -> String {
    let stdout = String::from_utf8_lossy(&output.stdout);
    stdout.lines().last().unwrap_or_default().to_string()
}

/// Every workload, untraced and traced, every check, both output files.
#[test]
fn tiny_run_of_all_four_workloads_passes_every_check() {
    let out = scratch("full");
    let output = bench(&["--seed", "12"], &out);
    let stdout = format!("\n{}", String::from_utf8_lossy(&output.stdout));
    assert!(output.status.success(), "{stdout}");
    for workload in [
        "incast_dense",
        "incast_storm",
        "serve_sessions",
        "campaign_quick",
    ] {
        assert_eq!(
            stdout
                .matches(&format!("{workload} checks attempted="))
                .count(),
            2
        );
        assert!(stdout.contains(&format!("\n{workload} wall_s ")));
        assert!(stdout.contains(&format!("\n{workload} phase.run_s ")));
    }
    assert!(!stdout.contains(" failed=1"), "{stdout}");

    let metrics = std::fs::read_to_string(out.join("metrics.json")).unwrap();
    assert_eq!(metrics.matches("\"failed_ratio\": 0,").count(), 4);
    assert_eq!(metrics.matches("\"wall_s\": {\"value\": ").count(), 4);
    assert_eq!(
        metrics
            .matches("\"netsim.pkt_hop_ns\": {\"value\": ")
            .count(),
        4
    );

    // Per workload: the rep spans of the traced pass, each a root with
    // its five phases beneath it.
    let spans = std::fs::read_to_string(out.join("trace.jsonl")).unwrap();
    for line in spans.lines() {
        assert!(
            line.starts_with("{\"id\": ") && line.ends_with("}}"),
            "{line}"
        );
    }
    let reps = spans.matches("\"parent\": null").count();
    assert_eq!(reps, 4, "one traced rep per workload");
    for phase in ["build", "wire", "run", "harvest", "drop"] {
        assert_eq!(
            spans.matches(&format!("\"name\": \"{phase}\"")).count(),
            reps
        );
    }
    assert_eq!(spans.matches("\"name\": \"run.slice.").count(), 30);
    assert_eq!(spans.matches("\"name\": \"exp.").count(), 3);

    // Nothing but the two result files is left behind.
    let mut left: Vec<_> = std::fs::read_dir(&out)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    left.sort();
    assert_eq!(left, ["metrics.json", "trace.jsonl"]);
}

/// One run in the shape of the `BENCHMARK.json` contract.
#[test]
fn a_single_run_ends_in_the_contract_result_line() {
    let output = bench(
        &[
            "--workload",
            "serve_sessions",
            "--seed",
            "7",
            "--trace",
            "0",
        ],
        &scratch("single"),
    );
    assert!(output.status.success());
    let line = last_line(&output);
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
    assert!(line.contains("\"failed\": 0, \"metrics\": {\"wall_s\": {\"value\": "));
    for name in ["setup_s", "work_per_s"] {
        assert!(
            line.contains(&format!("\"{name}\": {{\"value\": ")),
            "{line}"
        );
    }
    assert!(line.ends_with("\"unit\": \"1/s\"}}}"), "{line}");
}

/// A truncated golden fails its byte comparison: the result says so and
/// the command exits non-zero.
#[test]
fn a_truncated_golden_fails_the_run() {
    let out = scratch("golden");
    let goldens = out.join("goldens");
    std::fs::create_dir_all(&goldens).unwrap();
    let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("../results");
    for entry in std::fs::read_dir(committed).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "csv") {
            std::fs::copy(&path, goldens.join(path.file_name().unwrap())).unwrap();
        }
    }
    let run = |out: &Path| {
        bench(
            &[
                "--workload",
                "campaign_quick",
                "--trace",
                "0",
                "--goldens",
                goldens.to_str().unwrap(),
            ],
            out,
        )
    };
    let intact = run(&out.join("intact"));
    assert!(intact.status.success(), "{}", last_line(&intact));
    assert!(last_line(&intact).contains("\"correct\": true"));

    let victim = goldens.join("fig1_trains.csv");
    let bytes = std::fs::read(&victim).unwrap();
    std::fs::write(&victim, &bytes[..bytes.len() / 2]).unwrap();
    let broken = run(&out.join("broken"));
    assert_eq!(broken.status.code(), Some(1));
    let line = last_line(&broken);
    assert!(line.starts_with("{\"correct\": false, "), "{line}");
    assert!(!line.contains("\"failed\": 0,"), "{line}");
    let stdout = String::from_utf8_lossy(&broken.stdout);
    assert!(stdout.contains("FAILED CHECK campaign_quick: fig1_trains.csv differs"));
}

#[test]
fn bad_arguments_exit_with_usage() {
    let output = bench(&["--workload", "nope"], &scratch("usage"));
    assert_eq!(output.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&output.stderr).contains("usage: trim-benchmark"));
}

/// The benchmark must survive the roadmap's refactors: it may not name
/// the schedulers, the flow table type or the ghost accounting (item
/// "one scheduler contract" may delete them), and `events_processed`
/// only feeds the one informational `netsim.events` line.
#[test]
fn source_names_no_api_the_roadmap_may_delete() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut event_count_lines = 0;
    for entry in std::fs::read_dir(src).unwrap() {
        let path = entry.unwrap().path();
        let text = std::fs::read_to_string(&path).unwrap();
        for banned in ["EventQueue", "TimerWheel", "FlowSlab", "ghost"] {
            assert!(!text.contains(banned), "{} names {banned}", path.display());
        }
        event_count_lines += text
            .lines()
            .filter(|l| l.contains("events_processed"))
            .count();
    }
    assert_eq!(event_count_lines, 1);
}
