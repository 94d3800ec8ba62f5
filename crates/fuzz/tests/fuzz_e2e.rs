//! End-to-end fuzzer checks: a bounded clean run finds nothing, and the
//! detector self-test re-finds the injected over-admission and shrinks
//! it to a minimal spec — the debug-mode twin of CI's release-mode
//! `trim-fuzz --iterations 200 --seed 7` smoke. Also: `--replay` turns
//! an out-of-range spec file into one error line, not a panic.

use trim_fuzz::{check_spec, run_fuzz, FuzzConfig, GenConfig};

#[test]
fn bounded_clean_fuzz_finds_nothing() {
    // The same deterministic prefix CI covers at release scale.
    let report = run_fuzz(&FuzzConfig {
        iterations: 12,
        seed: 7,
        ..Default::default()
    });
    assert_eq!(report.iterations_run, 12);
    assert!(
        report.failures.is_empty(),
        "unexpected failure: {}",
        report.failures[0].verdict.headline()
    );
}

#[test]
fn injected_overadmit_is_refound_and_shrunk_to_a_minimal_spec() {
    // Seed 4 hits the fault on iteration 3 of the burst family.
    let report = run_fuzz(&FuzzConfig {
        iterations: 10,
        seed: 4,
        gen: GenConfig {
            fault_overadmit: true,
            saturate_every: 0,
            ..Default::default()
        },
        max_failures: 1,
        store: None,
        quiet: true,
    });
    assert_eq!(report.failures.len(), 1, "detector self-test found nothing");
    let f = &report.failures[0];
    assert_eq!(f.verdict.key().as_deref(), Some("monitor:queue-bound"));
    assert!(
        f.shrunk.senders <= 4,
        "shrunk repro has {} senders, want <= 4",
        f.shrunk.senders
    );
    assert!(f.shrunk.senders <= f.original.senders);
    assert!(f.shrunk.trains.len() <= f.original.trains.len());
    assert!(f.stats.accepted > 0, "shrinker made no progress");

    // The minimal repro is stable: text round-trip plus two replays
    // agree on the verdict.
    let text = f.shrunk.to_text();
    let reparsed = trim_workload::spec::ScenarioSpec::from_text(&text).unwrap();
    assert_eq!(reparsed, f.shrunk);
    let a = check_spec(&f.shrunk).unwrap();
    let b = check_spec(&reparsed).unwrap();
    assert_eq!(a.violations, b.violations);
    assert_eq!(a.key().as_deref(), Some("monitor:queue-bound"));
}

#[test]
fn shrunk_repro_is_locally_minimal_in_fan_in() {
    // Dropping to half the senders (the shrinker's own first move) must
    // no longer reproduce — otherwise the shrinker stopped early.
    let report = run_fuzz(&FuzzConfig {
        iterations: 10,
        seed: 4,
        gen: GenConfig {
            fault_overadmit: true,
            saturate_every: 0,
            ..Default::default()
        },
        max_failures: 1,
        store: None,
        quiet: true,
    });
    let shrunk = &report.failures[0].shrunk;
    if shrunk.senders > 1 {
        let mut fewer = shrunk.clone();
        fewer.senders /= 2;
        fewer.trains.retain(|t| t.sender < fewer.senders);
        if !fewer.trains.is_empty() {
            let v = check_spec(&fewer).unwrap();
            assert_ne!(
                v.key().as_deref(),
                Some("monitor:queue-bound"),
                "half the fan-in still reproduces; shrinker should have taken it"
            );
        }
    }
}

#[test]
fn replay_rejects_out_of_range_specs_without_panicking() {
    // Each of these once wrapped time or byte arithmetic, tripped the
    // TcpConfig constructor panic, or aborted on allocation.
    let base = [
        ("senders", "1"),
        ("link_mbps", "1000"),
        ("delay_us", "50"),
        ("buffer_pkts", "64"),
        ("cc", "reno"),
        ("min_rto_us", "10000"),
        ("horizon_ms", "300"),
        ("train", "0 100 58400"),
    ];
    let max = u64::MAX;
    let cases = [
        ("delay_us", i64::MAX.to_string()),
        ("min_rto_us", max.to_string()),
        ("train", format!("0 100 {max}")),
        ("horizon_ms", max.to_string()),
        ("link_mbps", max.to_string()),
        ("buffer_pkts", max.to_string()),
        ("senders", "3000000000".to_string()),
    ];
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("out_of_range_specs");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for (i, (field, bad)) in cases.iter().enumerate() {
        let text: String = base
            .iter()
            .map(|(key, value)| {
                let value = if key == field { bad.as_str() } else { value };
                format!("{key} = {value}\n")
            })
            .collect();
        std::fs::write(dir.join(format!("{i}.spec")), text).unwrap();
    }
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_trim-fuzz"))
        .arg("--replay")
        .arg(&dir)
        .output()
        .unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    let lines: Vec<&str> = stderr.lines().collect();
    assert_eq!(lines.len(), cases.len(), "one line per spec: {stderr}");
    for (i, ((field, _), line)) in cases.iter().zip(&lines).enumerate() {
        // "<file>: <field> <value> exceeds the ceiling <max>"
        let named = format!("{i}.spec: {field} ");
        assert!(line.contains(&named) && line.contains("ceiling"), "{line}");
    }
}
