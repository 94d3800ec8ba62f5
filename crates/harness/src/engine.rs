//! Campaign execution: a work-stealing pool over scoped threads.
//!
//! Workers pull jobs from a shared queue, so a slow job never blocks
//! the others (classic work stealing degenerates to this single-queue
//! form when jobs are coarse, which campaign jobs are). Determinism
//! does not depend on the pool at all: each job's seed is derived from
//! `(campaign seed, job key)` before any thread starts, and results
//! are re-ordered back into submission order before the reduce step.

use std::io;
use std::sync::Mutex;
use std::time::Instant;

use crate::job::{Artifacts, Campaign, Job, JobRecord};
use crate::progress::Progress;
use crate::store::ResultStore;

/// Execution settings for [`execute`].
#[derive(Clone, Debug)]
pub struct ExecConfig {
    /// Worker threads; `0` means "available parallelism".
    pub jobs: usize,
    /// Recompute jobs even when resumable artifacts exist.
    pub force: bool,
    /// Results root (artifacts, manifest).
    pub results_dir: std::path::PathBuf,
    /// Suppress progress output.
    pub quiet: bool,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            jobs: 0,
            force: false,
            results_dir: std::path::PathBuf::from("results"),
            quiet: false,
        }
    }
}

impl ExecConfig {
    /// The effective worker count.
    pub fn effective_jobs(&self) -> usize {
        if self.jobs > 0 {
            self.jobs
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

/// Everything a finished campaign produced.
#[derive(Debug)]
pub struct CampaignOutcome {
    /// Per-job records in submission order.
    pub records: Vec<JobRecord>,
    /// The reduce step's tables (empty when no reduce was set).
    pub reduced: Artifacts,
    /// How many jobs were resumed from disk.
    pub skipped: usize,
}

impl CampaignOutcome {
    /// The reduce tables, consumed.
    pub fn into_tables(self) -> Vec<crate::table::Table> {
        self.reduced.into_iter().map(|(_, t)| t).collect()
    }
}

/// Runs every job of `campaign` on a scoped thread pool, persists
/// artifacts and the manifest through a [`ResultStore`], then runs the
/// reduce step.
///
/// # Errors
///
/// Propagates filesystem errors from the store.
///
/// # Panics
///
/// Panics if a job panics (the panic is resurfaced on the calling
/// thread with the job key attached).
pub fn execute(campaign: Campaign, cfg: &ExecConfig) -> io::Result<CampaignOutcome> {
    let store = ResultStore::new(cfg.results_dir.clone());
    let Campaign {
        id,
        seed,
        jobs,
        reduce,
    } = campaign;
    let progress = Progress::new(&id, jobs.len(), cfg.quiet);

    let n_jobs = jobs.len();
    let queue: Mutex<Vec<(usize, Job)>> = Mutex::new(jobs.into_iter().enumerate().rev().collect());
    let slots: Mutex<Vec<Option<JobRecord>>> = Mutex::new((0..n_jobs).map(|_| None).collect());
    let failure: Mutex<Option<(String, Box<dyn std::any::Any + Send>)>> = Mutex::new(None);
    let io_error: Mutex<Option<io::Error>> = Mutex::new(None);

    let workers = cfg.effective_jobs().min(n_jobs.max(1));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let Some((index, job)) = queue.lock().unwrap().pop() else {
                    return;
                };
                match run_one(&store, &id, seed, job, cfg.force) {
                    Ok(record) => {
                        progress.job_done(&record.key, record.wall_ms, record.skipped);
                        slots.lock().unwrap()[index] = Some(record);
                    }
                    Err(RunError::Io(e)) => {
                        io_error.lock().unwrap().get_or_insert(e);
                        queue.lock().unwrap().clear();
                        return;
                    }
                    Err(RunError::Panic(key, payload)) => {
                        failure.lock().unwrap().get_or_insert((key, payload));
                        queue.lock().unwrap().clear();
                        return;
                    }
                }
            });
        }
    });

    if let Some((key, payload)) = failure.into_inner().unwrap() {
        eprintln!("job '{key}' panicked");
        std::panic::resume_unwind(payload);
    }
    if let Some(e) = io_error.into_inner().unwrap() {
        return Err(e);
    }

    let records: Vec<JobRecord> = slots
        .into_inner()
        .unwrap()
        .into_iter()
        .map(|r| r.expect("every job slot filled"))
        .collect();
    let skipped = records.iter().filter(|r| r.skipped).count();

    let reduced = match reduce {
        Some(f) => f(&records),
        None => Vec::new(),
    };
    for (name, table) in &reduced {
        store.write_reduce_artifact(name, table)?;
    }
    store.write_manifest(&id, seed, &records, &reduced)?;
    progress.finish();

    Ok(CampaignOutcome {
        records,
        reduced,
        skipped,
    })
}

enum RunError {
    Io(io::Error),
    Panic(String, Box<dyn std::any::Any + Send>),
}

fn run_one(
    store: &ResultStore,
    campaign: &str,
    campaign_seed: u64,
    job: Job,
    force: bool,
) -> Result<JobRecord, RunError> {
    let key = job.key.clone();
    let seed = crate::job::seed_of_hash(campaign_seed, job.seed_hash);

    if force {
        store.clear_job(campaign, &key).map_err(RunError::Io)?;
    } else if let Some(artifacts) = store.load_job(campaign, &key, seed) {
        return Ok(JobRecord {
            key,
            seed,
            params: job.params,
            skipped: true,
            wall_ms: 0.0,
            artifacts,
        });
    }

    let started = Instant::now();
    let run = job.run;
    let artifacts = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || run(seed)))
        .map_err(|payload| RunError::Panic(key.clone(), payload))?;
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;

    store
        .write_job(campaign, &key, seed, &artifacts)
        .map_err(RunError::Io)?;
    Ok(JobRecord {
        key,
        seed,
        params: job.params,
        skipped: false,
        wall_ms,
        artifacts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{num, Table};

    fn tmp_cfg(tag: &str, jobs: usize) -> ExecConfig {
        let dir = std::env::temp_dir().join(format!("trim_engine_test_{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        ExecConfig {
            jobs,
            force: false,
            results_dir: dir,
            quiet: true,
        }
    }

    fn demo_campaign(n: usize) -> Campaign {
        let mut c = Campaign::new("demo", 0xD0);
        for i in 0..n {
            c.table_job(format!("job{i}"), &[("i", i.to_string())], move |seed| {
                let mut t = Table::new("t", &["i", "seed_lo"]);
                t.row(&[i.to_string(), num((seed & 0xFFFF) as f64)]);
                t
            });
        }
        c.reduce(|records| {
            let mut t = Table::new("sum", &["n"]);
            t.row(&[records.len().to_string()]);
            vec![("demo_sum".to_string(), t)]
        });
        c
    }

    #[test]
    fn executes_all_jobs_in_submission_order() {
        let cfg = tmp_cfg("order", 4);
        let out = execute(demo_campaign(9), &cfg).unwrap();
        assert_eq!(out.records.len(), 9);
        assert_eq!(out.skipped, 0);
        for (i, r) in out.records.iter().enumerate() {
            assert_eq!(r.key, format!("job{i}"));
            assert_eq!(r.only().cell(0, 0), i.to_string());
        }
        assert_eq!(out.reduced.len(), 1);
        assert!(cfg.results_dir.join("demo_sum.csv").exists());
        assert!(cfg.results_dir.join("manifest.json").exists());
    }

    #[test]
    fn worker_count_does_not_change_artifacts() {
        let cfg1 = tmp_cfg("det1", 1);
        let cfg8 = tmp_cfg("det8", 8);
        let a = execute(demo_campaign(6), &cfg1).unwrap();
        let b = execute(demo_campaign(6), &cfg8).unwrap();
        for (ra, rb) in a.records.iter().zip(&b.records) {
            assert_eq!(ra.seed, rb.seed);
            assert_eq!(ra.only().rows(), rb.only().rows());
        }
    }

    #[test]
    fn resume_skips_and_force_recomputes() {
        let cfg = tmp_cfg("resume", 2);
        let first = execute(demo_campaign(4), &cfg).unwrap();
        assert_eq!(first.skipped, 0);
        let second = execute(demo_campaign(4), &cfg).unwrap();
        assert_eq!(second.skipped, 4);
        for (a, b) in first.records.iter().zip(&second.records) {
            assert_eq!(a.only().rows(), b.only().rows());
        }
        let forced = execute(demo_campaign(4), &ExecConfig { force: true, ..cfg }).unwrap();
        assert_eq!(forced.skipped, 0);
    }

    #[test]
    fn seed_change_invalidates_resume() {
        let cfg = tmp_cfg("reseed", 2);
        execute(demo_campaign(3), &cfg).unwrap();
        let out = execute(demo_campaign(3).with_seed(0xD1), &cfg).unwrap();
        assert_eq!(out.skipped, 0);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn job_panic_resurfaces() {
        let cfg = tmp_cfg("panic", 2);
        let mut c = Campaign::new("p", 1);
        c.table_job("bad", &[], |_| panic!("boom"));
        let _ = execute(c, &cfg);
    }
}
