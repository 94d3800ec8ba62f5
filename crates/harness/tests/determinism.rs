//! End-to-end guarantees of the campaign engine: artifacts are
//! byte-identical regardless of worker count, resume skips completed
//! jobs without changing outputs, and `--force` recomputes.

#![expect(
    clippy::disallowed_types,
    reason = "the test counts job executions across the harness's worker threads"
)]

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use trim_harness::store::normalize_manifest;
use trim_harness::{engine, Campaign, ExecConfig, Table};

/// A scratch results root, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("trim-harness-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

static EXECUTIONS: AtomicUsize = AtomicUsize::new(0);

/// A campaign of 12 jobs whose artifacts depend only on the derived
/// seed, plus a reduce table aggregating all of them.
fn campaign() -> Campaign {
    let mut c = Campaign::new("determinism", 0xD37);
    for i in 0..12 {
        c.table_job(format!("job{i}"), &[("i", i.to_string())], move |seed| {
            EXECUTIONS.fetch_add(1, Ordering::SeqCst);
            // A cheap seed-dependent pseudo-computation.
            let mut t = Table::new("t", &["i", "value"]);
            let mut x = seed;
            for _ in 0..=i {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
            }
            t.row(&[i.to_string(), format!("{x}")]);
            t
        });
    }
    c.reduce(|records| {
        let mut t = Table::new("sum", &["jobs", "xor"]);
        let xor = records
            .iter()
            .fold(0u64, |acc, r| acc ^ r.only().u64_at(0, 1));
        t.row(&[records.len().to_string(), xor.to_string()]);
        vec![("determinism_sum".to_string(), t)]
    });
    c
}

/// Every file under `root`, keyed by relative path, with the manifests
/// normalized (wall-clock zeroed) so runs compare equal.
fn snapshot(root: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir).expect("read_dir") {
            let path = entry.expect("entry").path();
            if path.is_dir() {
                stack.push(path);
            } else {
                let rel = path
                    .strip_prefix(root)
                    .expect("under root")
                    .to_string_lossy()
                    .replace('\\', "/");
                let mut bytes = fs::read(&path).expect("read");
                if rel.ends_with(".json") {
                    let text = String::from_utf8(bytes).expect("utf8 manifest");
                    bytes = normalize_manifest(&text).into_bytes();
                }
                out.insert(rel, bytes);
            }
        }
    }
    out
}

fn exec(dir: &Path, jobs: usize, force: bool) -> engine::CampaignOutcome {
    let cfg = ExecConfig {
        jobs,
        force,
        results_dir: dir.to_path_buf(),
        quiet: true,
    };
    engine::execute(campaign(), &cfg).expect("execute")
}

#[test]
fn artifacts_are_identical_for_any_worker_count_and_resume_skips() {
    let serial = Scratch::new("serial");
    let parallel = Scratch::new("parallel");

    let out1 = exec(&serial.0, 1, false);
    let out8 = exec(&parallel.0, 8, false);
    assert_eq!(out1.skipped, 0);
    assert_eq!(out8.skipped, 0);

    let snap1 = snapshot(&serial.0);
    let snap8 = snapshot(&parallel.0);
    assert!(
        snap1.keys().any(|k| k.contains("jobs/determinism")),
        "per-job artifacts exist: {:?}",
        snap1.keys().collect::<Vec<_>>()
    );
    assert!(snap1.contains_key("manifest.json"));
    assert!(snap1.contains_key("determinism_sum.csv"));
    assert_eq!(
        snap1, snap8,
        "--jobs 1 and --jobs 8 must produce byte-identical results"
    );

    // Resume: a second run over the same root executes nothing.
    let before = EXECUTIONS.load(Ordering::SeqCst);
    let resumed = exec(&serial.0, 4, false);
    assert_eq!(resumed.skipped, 12, "every job resumes from disk");
    assert_eq!(
        EXECUTIONS.load(Ordering::SeqCst),
        before,
        "resume must not re-run job closures"
    );
    assert_eq!(snapshot(&serial.0), snap1, "resume leaves artifacts intact");

    // Force: everything recomputes, to the same bytes.
    let forced = exec(&serial.0, 4, true);
    assert_eq!(forced.skipped, 0);
    assert_eq!(EXECUTIONS.load(Ordering::SeqCst), before + 12);
    assert_eq!(snapshot(&serial.0), snap1);
}
