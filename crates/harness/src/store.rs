//! The result store: deterministic artifact layout, resume sentinels,
//! and the run manifest.
//!
//! Layout under the results root (default `results/`):
//!
//! ```text
//! results/
//!   <figure>.csv                     # reduce artifacts (one per figure/table)
//!   jobs/<campaign>/<key>/<name>.csv # per-job artifacts
//!   jobs/<campaign>/<key>/JOB_OK     # resume sentinel: seed + artifact list
//!   manifest/<campaign>.json         # per-campaign manifest fragment
//!   manifest.json                    # combined run manifest
//! ```
//!
//! All writes go through a temp-file + rename so concurrent runs never
//! observe a torn artifact. The sentinel is written only after every
//! artifact of its job has been renamed into place, and it records the
//! job seed: a seed change (new campaign seed or changed key
//! derivation) invalidates the resume automatically.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::job::JobRecord;
use crate::table::Table;

/// Manifest schema version, bumped on layout changes.
pub const MANIFEST_VERSION: u32 = 1;

const SENTINEL: &str = "JOB_OK";

/// Handle on the results directory.
#[derive(Clone, Debug)]
pub struct ResultStore {
    root: PathBuf,
}

impl ResultStore {
    /// Opens (lazily creating) a store rooted at `root`.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        ResultStore { root: root.into() }
    }

    /// The results root.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Replaces every character outside `[A-Za-z0-9._-]` so a job key
    /// maps to a single path component.
    pub fn sanitize(key: &str) -> String {
        key.chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                    c
                } else {
                    '_'
                }
            })
            .collect()
    }

    /// Directory holding one job's artifacts.
    pub fn job_dir(&self, campaign: &str, key: &str) -> PathBuf {
        self.root
            .join("jobs")
            .join(Self::sanitize(campaign))
            .join(Self::sanitize(key))
    }

    /// Writes a job's artifacts and its resume sentinel.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_job(
        &self,
        campaign: &str,
        key: &str,
        seed: u64,
        artifacts: &[(String, Table)],
    ) -> io::Result<()> {
        let dir = self.job_dir(campaign, key);
        for (name, table) in artifacts {
            table.write_csv(&dir, &Self::sanitize(name))?;
        }
        let mut sentinel = format!("seed={seed}\n");
        for (name, _) in artifacts {
            sentinel.push_str(&Self::sanitize(name));
            sentinel.push('\n');
        }
        let tmp = dir.join(".JOB_OK.tmp");
        fs::write(&tmp, sentinel)?;
        fs::rename(&tmp, dir.join(SENTINEL))
    }

    /// Attempts to load a previously completed job's artifacts. Returns
    /// `None` unless the sentinel exists, records the same seed, and
    /// every listed artifact reads back cleanly.
    pub fn load_job(&self, campaign: &str, key: &str, seed: u64) -> Option<Vec<(String, Table)>> {
        let dir = self.job_dir(campaign, key);
        let sentinel = fs::read_to_string(dir.join(SENTINEL)).ok()?;
        let mut lines = sentinel.lines();
        let seed_line = lines.next()?;
        if seed_line.strip_prefix("seed=")?.parse::<u64>().ok()? != seed {
            return None;
        }
        let mut artifacts = Vec::new();
        for name in lines {
            let table = Table::read_csv(&dir.join(format!("{name}.csv"))).ok()?;
            artifacts.push((name.to_string(), table));
        }
        Some(artifacts)
    }

    /// Deletes a job's artifacts (the `--force` path), ignoring a
    /// missing directory.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors other than "not found".
    pub fn clear_job(&self, campaign: &str, key: &str) -> io::Result<()> {
        match fs::remove_dir_all(self.job_dir(campaign, key)) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
            _ => Ok(()),
        }
    }

    /// Atomically writes `contents` to `rel` (a path relative to the
    /// results root, e.g. `fuzz/<repro>.spec`), creating parent
    /// directories. Same temp-file + rename discipline as every other
    /// artifact, so a concurrent reader never observes a torn file.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    ///
    /// # Panics
    ///
    /// Panics if `rel` has no file name (e.g. ends in `/`).
    pub fn write_text_artifact(&self, rel: &str, contents: &str) -> io::Result<()> {
        let path = self.root.join(rel);
        let dir = path.parent().expect("artifact path has a parent");
        fs::create_dir_all(dir)?;
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .expect("artifact path has a file name");
        let tmp = dir.join(format!(".{name}.tmp"));
        fs::write(&tmp, contents)?;
        fs::rename(&tmp, &path)
    }

    /// Writes a reduce artifact to the results root.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_reduce_artifact(&self, name: &str, table: &Table) -> io::Result<()> {
        table.write_csv(&self.root, &Self::sanitize(name))
    }

    /// Writes the per-campaign manifest fragment and rebuilds the
    /// combined `manifest.json` from every fragment present.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_manifest(
        &self,
        campaign: &str,
        seed: u64,
        records: &[JobRecord],
        reduce_artifacts: &[(String, Table)],
    ) -> io::Result<()> {
        let dir = self.root.join("manifest");
        fs::create_dir_all(&dir)?;
        let fragment = campaign_json(self, campaign, seed, records, reduce_artifacts);
        let name = Self::sanitize(campaign);
        let tmp = dir.join(format!(".{name}.json.tmp"));
        fs::write(&tmp, &fragment)?;
        fs::rename(&tmp, dir.join(format!("{name}.json")))?;
        self.rebuild_combined_manifest()
    }

    /// Concatenates every `manifest/<campaign>.json` fragment (sorted
    /// by file name, so the result is order-independent) into
    /// `manifest.json`.
    fn rebuild_combined_manifest(&self) -> io::Result<()> {
        let dir = self.root.join("manifest");
        let mut names: Vec<String> = fs::read_dir(&dir)?
            .filter_map(|e| e.ok())
            .filter_map(|e| e.file_name().into_string().ok())
            .filter(|n| n.ends_with(".json") && !n.starts_with('.'))
            .collect();
        names.sort();
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"version\": {MANIFEST_VERSION},\n"));
        out.push_str("  \"campaigns\": [\n");
        for (i, name) in names.iter().enumerate() {
            let fragment = fs::read_to_string(dir.join(name))?;
            out.push_str(&indent(fragment.trim_end(), 4));
            out.push_str(if i + 1 < names.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ]\n}\n");
        let tmp = self.root.join(".manifest.json.tmp");
        fs::write(&tmp, out)?;
        fs::rename(&tmp, self.root.join("manifest.json"))
    }
}

/// Renders one campaign's manifest fragment as JSON.
fn campaign_json(
    store: &ResultStore,
    campaign: &str,
    seed: u64,
    records: &[JobRecord],
    reduce_artifacts: &[(String, Table)],
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"id\": {},\n", json_str(campaign)));
    out.push_str(&format!("  \"seed\": {seed},\n"));
    out.push_str("  \"jobs\": [\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"key\": {},\n", json_str(&r.key)));
        out.push_str(&format!("      \"seed\": {},\n", r.seed));
        out.push_str("      \"params\": {");
        for (j, (k, v)) in r.params.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("{}: {}", json_str(k), json_str(v)));
        }
        out.push_str("},\n");
        out.push_str(&format!("      \"skipped\": {},\n", r.skipped));
        out.push_str(&format!(
            "      \"wall_ms\": {},\n",
            crate::table::num(r.wall_ms)
        ));
        out.push_str("      \"artifacts\": [");
        let rel = |name: &str| {
            format!(
                "jobs/{}/{}/{}.csv",
                ResultStore::sanitize(campaign),
                ResultStore::sanitize(&r.key),
                ResultStore::sanitize(name)
            )
        };
        for (j, (name, table)) in r.artifacts.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"file\": {}, \"rows\": {}}}",
                json_str(&rel(name)),
                table.len()
            ));
        }
        out.push_str("]\n");
        out.push_str(if i + 1 < records.len() {
            "    },\n"
        } else {
            "    }\n"
        });
    }
    out.push_str("  ],\n");
    out.push_str("  \"reduce_artifacts\": [");
    for (j, (name, table)) in reduce_artifacts.iter().enumerate() {
        if j > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!(
            "{{\"file\": {}, \"rows\": {}}}",
            json_str(&format!("{}.csv", ResultStore::sanitize(name))),
            table.len()
        ));
    }
    out.push_str("]\n");
    out.push_str("}\n");
    let _ = store;
    out
}

/// JSON string literal with minimal escaping.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn indent(s: &str, by: usize) -> String {
    let pad = " ".repeat(by);
    s.lines()
        .map(|l| format!("{pad}{l}"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Rewrites every `"wall_ms": <number>` to `"wall_ms": 0` and every
/// `"skipped": <bool>` to `"skipped": false` in a manifest.
///
/// Those two are the intentionally run-specific manifest fields (how
/// long a job took; whether it was resumed from disk). The determinism
/// tests compare manifests after this normalization and everything
/// else byte-for-byte.
pub fn normalize_manifest(manifest: &str) -> String {
    fn rewrite(manifest: &str, key: &str, replacement: &str) -> String {
        let mut out = String::with_capacity(manifest.len());
        let mut rest = manifest;
        while let Some(pos) = rest.find(key) {
            let value_start = pos + key.len();
            out.push_str(&rest[..value_start]);
            let tail = &rest[value_start..];
            let end = tail.find([',', '}', '\n']).unwrap_or(tail.len());
            out.push_str(replacement);
            rest = &tail[end..];
        }
        out.push_str(rest);
        out
    }
    let pass1 = rewrite(manifest, "\"wall_ms\": ", "0");
    rewrite(&pass1, "\"skipped\": ", "false")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_store(tag: &str) -> ResultStore {
        let dir = std::env::temp_dir().join(format!("trim_store_test_{tag}"));
        let _ = fs::remove_dir_all(&dir);
        ResultStore::new(dir)
    }

    fn one_row_table() -> Table {
        let mut t = Table::new("t", &["a", "b"]);
        t.row(&["1".into(), "2".into()]);
        t
    }

    #[test]
    fn job_round_trip_and_seed_check() {
        let store = tmp_store("roundtrip");
        let arts = vec![("data".to_string(), one_row_table())];
        store.write_job("camp", "k/1", 42, &arts).unwrap();
        let loaded = store.load_job("camp", "k/1", 42).expect("resumable");
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0].0, "data");
        assert_eq!(loaded[0].1.rows(), arts[0].1.rows());
        // A different seed invalidates the artifacts.
        assert!(store.load_job("camp", "k/1", 43).is_none());
        // Clearing removes them.
        store.clear_job("camp", "k/1").unwrap();
        assert!(store.load_job("camp", "k/1", 42).is_none());
    }

    #[test]
    fn text_artifact_round_trips_and_creates_dirs() {
        let store = tmp_store("text_artifact");
        store
            .write_text_artifact("fuzz/repro.spec", "flows = 1\n")
            .unwrap();
        let read = fs::read_to_string(store.root().join("fuzz/repro.spec")).unwrap();
        assert_eq!(read, "flows = 1\n");
        // Overwrite is atomic (rename), not append.
        store
            .write_text_artifact("fuzz/repro.spec", "flows = 2\n")
            .unwrap();
        let read = fs::read_to_string(store.root().join("fuzz/repro.spec")).unwrap();
        assert_eq!(read, "flows = 2\n");
    }

    #[test]
    fn sanitization_collapses_path_chars() {
        assert_eq!(ResultStore::sanitize("a/b c:d"), "a_b_c_d");
        assert_eq!(ResultStore::sanitize("ok-1.2_x"), "ok-1.2_x");
    }

    #[test]
    fn manifest_mentions_jobs_and_artifacts() {
        let store = tmp_store("manifest");
        let rec = JobRecord {
            key: "k1".into(),
            seed: 7,
            params: vec![("n", "5".into())],
            skipped: false,
            wall_ms: 12.5,
            artifacts: vec![("data".into(), one_row_table())],
        };
        store
            .write_manifest("camp", 1, &[rec], &[("fig".into(), one_row_table())])
            .unwrap();
        let combined = fs::read_to_string(store.root().join("manifest.json")).unwrap();
        assert!(combined.contains("\"id\": \"camp\""));
        assert!(combined.contains("\"key\": \"k1\""));
        assert!(combined.contains("\"n\": \"5\""));
        assert!(combined.contains("jobs/camp/k1/data.csv"));
        assert!(combined.contains("fig.csv"));
        assert!(combined.contains("\"wall_ms\": 12.5"));
    }

    #[test]
    fn normalization_zeroes_wall_clock_only() {
        let a = "{\"wall_ms\": 12.5, \"rows\": 3}\n{\"wall_ms\": 0.25}";
        let b = "{\"wall_ms\": 99.125, \"rows\": 3}\n{\"wall_ms\": 7}";
        assert_eq!(normalize_manifest(a), normalize_manifest(b));
        assert!(normalize_manifest(a).contains("\"rows\": 3"));
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }
}
