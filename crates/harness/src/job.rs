//! [`Job`] and [`Campaign`]: the unit of parallel work and the sweep
//! that owns it.
//!
//! A job is a closure from a derived seed to a set of named tables
//! (its artifacts). The seed is a pure function of the campaign seed
//! and the job key, so a campaign's artifacts do not depend on worker
//! count, scheduling order, or which jobs were resumed from disk.

use crate::table::Table;
use crate::{fnv1a, splitmix64};

/// Named tables produced by a job or a reduce step. The name becomes
/// the artifact's CSV file stem.
pub type Artifacts = Vec<(String, Table)>;

/// A job's `(name, value)` parameters, recorded in the manifest. An
/// array is moved into the job; a borrowed one is cloned.
pub trait JobParams {
    /// The parameters, owned.
    fn into_params(self) -> Vec<(&'static str, String)>;
}

impl<const N: usize> JobParams for [(&'static str, String); N] {
    fn into_params(self) -> Vec<(&'static str, String)> {
        Vec::from(self)
    }
}

impl<const N: usize> JobParams for &[(&'static str, String); N] {
    fn into_params(self) -> Vec<(&'static str, String)> {
        self.to_vec()
    }
}

/// One independent unit of work in a campaign.
pub struct Job {
    pub(crate) key: String,
    /// FNV-1a hash of `key`, compared before the key itself when
    /// checking for duplicates.
    key_hash: u64,
    /// FNV-1a hash of the seed derivation key, which defaults to `key`.
    /// Jobs that compare protocols on the *same* random workload share a
    /// seed key so the comparison stays paired.
    pub(crate) seed_hash: u64,
    pub(crate) params: Vec<(&'static str, String)>,
    pub(crate) run: Box<dyn FnOnce(u64) -> Artifacts + Send>,
}

impl std::fmt::Debug for Job {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Job")
            .field("key", &self.key)
            .field("params", &self.params)
            .finish_non_exhaustive()
    }
}

impl Job {
    /// The job's key, unique within its campaign.
    pub fn key(&self) -> &str {
        &self.key
    }
}

/// The completed (or resumed) state of one job, handed to the reduce
/// step and recorded in the run manifest.
#[derive(Debug)]
pub struct JobRecord {
    /// The job key.
    pub key: String,
    /// The derived per-job seed.
    pub seed: u64,
    /// The job's parameters, for the manifest.
    pub params: Vec<(&'static str, String)>,
    /// Whether the artifacts were loaded from a previous run.
    pub skipped: bool,
    /// Wall-clock time executing the job (0 when skipped).
    pub wall_ms: f64,
    /// The job's artifact tables, in production order.
    pub artifacts: Artifacts,
}

impl JobRecord {
    /// The artifact table with the given name.
    ///
    /// # Panics
    ///
    /// Panics if the job produced no artifact of that name.
    pub fn table(&self, name: &str) -> &Table {
        self.artifacts
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, t)| t)
            .unwrap_or_else(|| panic!("job '{}' has no artifact '{name}'", self.key))
    }

    /// The sole artifact of a single-table job.
    ///
    /// # Panics
    ///
    /// Panics if the job produced zero or multiple artifacts.
    pub fn only(&self) -> &Table {
        assert_eq!(
            self.artifacts.len(),
            1,
            "job '{}' has {} artifacts, expected 1",
            self.key,
            self.artifacts.len()
        );
        &self.artifacts[0].1
    }
}

/// The record of the job submitted under `key`, for reduce steps.
///
/// # Panics
///
/// Panics if no job of the campaign has that key.
pub fn record_for<'a>(records: &'a [JobRecord], key: &str) -> &'a JobRecord {
    records
        .iter()
        .find(|r| r.key == key)
        .unwrap_or_else(|| panic!("missing job '{key}'"))
}

type ReduceFn = Box<dyn FnOnce(&[JobRecord]) -> Artifacts + Send>;

/// A named sweep: a seed, a set of jobs, and a reduce step assembling
/// the jobs' artifacts into the experiment's figure tables.
pub struct Campaign {
    pub(crate) id: String,
    pub(crate) seed: u64,
    pub(crate) jobs: Vec<Job>,
    pub(crate) reduce: Option<ReduceFn>,
}

impl std::fmt::Debug for Campaign {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Campaign")
            .field("id", &self.id)
            .field("seed", &self.seed)
            .field("jobs", &self.jobs.len())
            .finish_non_exhaustive()
    }
}

impl Campaign {
    /// Creates an empty campaign with the given id and seed.
    pub fn new(id: impl Into<String>, seed: u64) -> Self {
        Campaign {
            id: id.into(),
            seed,
            jobs: Vec::new(),
            reduce: None,
        }
    }

    /// The campaign id.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// The campaign seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of submitted jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether no jobs have been submitted.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// The submitted job keys, in submission order.
    pub fn job_keys(&self) -> Vec<&str> {
        self.jobs.iter().map(|j| j.key.as_str()).collect()
    }

    /// Replaces the campaign seed (the `--seed` override), re-deriving
    /// every job seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Submits a job producing (possibly several) named tables.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate key.
    pub fn job(
        &mut self,
        key: impl Into<String>,
        params: impl JobParams,
        run: impl FnOnce(u64) -> Artifacts + Send + 'static,
    ) -> &mut Self {
        let key = key.into();
        let key_hash = fnv1a(key.as_bytes());
        self.push_job(key, key_hash, key_hash, params.into_params(), run)
    }

    /// Like [`Campaign::job`] but deriving the seed from `seed_key`
    /// instead of the job key: jobs that share a `seed_key` see the
    /// identical random workload, keeping A/B protocol comparisons
    /// paired.
    pub fn job_seeded(
        &mut self,
        key: impl Into<String>,
        seed_key: impl AsRef<str>,
        params: impl JobParams,
        run: impl FnOnce(u64) -> Artifacts + Send + 'static,
    ) -> &mut Self {
        let key = key.into();
        let key_hash = fnv1a(key.as_bytes());
        let seed_hash = fnv1a(seed_key.as_ref().as_bytes());
        self.push_job(key, key_hash, seed_hash, params.into_params(), run)
    }

    fn push_job(
        &mut self,
        key: String,
        key_hash: u64,
        seed_hash: u64,
        params: Vec<(&'static str, String)>,
        run: impl FnOnce(u64) -> Artifacts + Send + 'static,
    ) -> &mut Self {
        assert!(
            self.jobs
                .iter()
                .all(|j| j.key_hash != key_hash || j.key != key),
            "duplicate job key '{key}' in campaign '{}'",
            self.id
        );
        self.jobs.push(Job {
            key,
            key_hash,
            seed_hash,
            params,
            run: Box::new(run),
        });
        self
    }

    /// Submits a job producing exactly one table, stored under the
    /// artifact name `data`.
    pub fn table_job(
        &mut self,
        key: impl Into<String>,
        params: impl JobParams,
        run: impl FnOnce(u64) -> Table + Send + 'static,
    ) -> &mut Self {
        self.job(key, params, move |seed| {
            vec![("data".to_string(), run(seed))]
        })
    }

    /// [`Campaign::table_job`] with an explicit seed key (see
    /// [`Campaign::job_seeded`]).
    pub fn table_job_seeded(
        &mut self,
        key: impl Into<String>,
        seed_key: impl AsRef<str>,
        params: impl JobParams,
        run: impl FnOnce(u64) -> Table + Send + 'static,
    ) -> &mut Self {
        self.job_seeded(key, seed_key, params, move |seed| {
            vec![("data".to_string(), run(seed))]
        })
    }

    /// Sets the reduce step run after every job completes. Its tables
    /// are written to the results root and returned by the engine.
    pub fn reduce(&mut self, f: impl FnOnce(&[JobRecord]) -> Artifacts + Send + 'static) {
        self.reduce = Some(Box::new(f));
    }

    /// The deterministic seed for the job with the given key: a pure
    /// function of `(campaign seed, seed key)`, where the seed key
    /// defaults to the job key.
    pub fn job_seed(&self, key: &str) -> u64 {
        let seed_hash = self
            .jobs
            .iter()
            .find(|j| j.key == key)
            .map_or_else(|| fnv1a(key.as_bytes()), |j| j.seed_hash);
        seed_of_hash(self.seed, seed_hash)
    }
}

/// Derives a job seed from a campaign seed and a job key.
pub fn derive_seed(campaign_seed: u64, key: &str) -> u64 {
    seed_of_hash(campaign_seed, fnv1a(key.as_bytes()))
}

/// [`derive_seed`] from the FNV-1a hash of the key.
pub(crate) fn seed_of_hash(campaign_seed: u64, key_hash: u64) -> u64 {
    splitmix64(campaign_seed ^ key_hash)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_depend_on_campaign_seed_and_key_only() {
        let mut a = Campaign::new("x", 1);
        a.table_job("j1", &[], |_| Table::new("t", &["v"]));
        a.table_job("j2", &[], |_| Table::new("t", &["v"]));
        assert_eq!(a.job_seed("j1"), derive_seed(1, "j1"));
        assert_ne!(a.job_seed("j1"), a.job_seed("j2"));
        let b = Campaign::new("y", 1); // same seed, different id: same derivation
        assert_eq!(a.job_seed("j1"), b.job_seed("j1"));
        let c = Campaign::new("x", 2);
        assert_ne!(a.job_seed("j1"), c.job_seed("j1"));
    }

    #[test]
    fn shared_seed_keys_pair_jobs() {
        let mut c = Campaign::new("x", 9);
        c.table_job_seeded("tcp_n4", "n4", &[], |_| Table::new("t", &["v"]));
        c.table_job_seeded("trim_n4", "n4", &[], |_| Table::new("t", &["v"]));
        c.table_job("solo", &[], |_| Table::new("t", &["v"]));
        assert_eq!(c.job_seed("tcp_n4"), c.job_seed("trim_n4"));
        assert_eq!(c.job_seed("tcp_n4"), derive_seed(9, "n4"));
        assert_ne!(c.job_seed("solo"), c.job_seed("tcp_n4"));
    }

    #[test]
    #[should_panic(expected = "duplicate job key")]
    fn rejects_duplicate_keys() {
        let mut c = Campaign::new("x", 1);
        c.table_job("j", &[], |_| Table::new("t", &["v"]));
        c.table_job("j", &[], |_| Table::new("t", &["v"]));
    }

    #[test]
    fn record_lookup() {
        let mut t = Table::new("t", &["v"]);
        t.row(&["1".into()]);
        let r = JobRecord {
            key: "k".into(),
            seed: 0,
            params: vec![],
            skipped: false,
            wall_ms: 0.0,
            artifacts: vec![("data".into(), t)],
        };
        assert_eq!(r.table("data").len(), 1);
        assert_eq!(r.only().len(), 1);
    }
}
