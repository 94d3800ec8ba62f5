//! Progress reporting to stderr: per-job timing and a running ETA.
//!
//! The reporter assumes jobs within a campaign have broadly similar
//! cost, so the ETA is `mean elapsed per finished job × jobs left`.
//! Skipped (resumed) jobs are excluded from the mean so a partially
//! resumed run does not report a wildly optimistic ETA.

use std::io::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// Shared progress state for one campaign run.
#[derive(Debug)]
pub struct Progress {
    campaign: String,
    total: usize,
    quiet: bool,
    started: Instant,
    state: Mutex<State>,
}

#[derive(Debug, Default)]
struct State {
    done: usize,
    skipped: usize,
    executed_ms: f64,
}

impl Progress {
    /// Creates a reporter for `total` jobs of the named campaign.
    pub fn new(campaign: &str, total: usize, quiet: bool) -> Self {
        let p = Progress {
            campaign: campaign.to_string(),
            total,
            quiet,
            started: Instant::now(),
            state: Mutex::new(State::default()),
        };
        if !quiet && total > 0 {
            eprintln!("[{}] {} job(s) queued", p.campaign, total);
        }
        p
    }

    /// Records a job completion (fresh or resumed) and prints one
    /// status line.
    pub fn job_done(&self, key: &str, wall_ms: f64, skipped: bool) {
        let mut s = self.state.lock().unwrap();
        s.done += 1;
        if skipped {
            s.skipped += 1;
        } else {
            s.executed_ms += wall_ms;
        }
        if self.quiet {
            return;
        }
        let executed = s.done - s.skipped;
        let remaining = self.total.saturating_sub(s.done);
        let eta = if executed > 0 && remaining > 0 {
            let per_job = s.executed_ms / executed as f64;
            format!(", eta {}", fmt_ms(per_job * remaining as f64))
        } else {
            String::new()
        };
        let how = if skipped {
            "resumed".to_string()
        } else {
            fmt_ms(wall_ms)
        };
        eprintln!(
            "[{}] {}/{} {key} ({how}{eta})",
            self.campaign, s.done, self.total
        );
        let _ = std::io::stderr().flush();
    }

    /// Prints the campaign summary line.
    pub fn finish(&self) {
        if self.quiet {
            return;
        }
        let s = self.state.lock().unwrap();
        eprintln!(
            "[{}] done: {} job(s), {} resumed, {} wall",
            self.campaign,
            s.done,
            s.skipped,
            fmt_ms(self.started.elapsed().as_secs_f64() * 1e3)
        );
    }
}

fn fmt_ms(ms: f64) -> String {
    if ms >= 60_000.0 {
        format!("{:.1}min", ms / 60_000.0)
    } else if ms >= 1_000.0 {
        format!("{:.1}s", ms / 1e3)
    } else {
        format!("{ms:.0}ms")
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "exact values are the expected results")]
mod tests {
    use super::*;

    #[test]
    fn quiet_reporter_counts_without_printing() {
        let p = Progress::new("camp", 3, true);
        p.job_done("a", 10.0, false);
        p.job_done("b", 0.0, true);
        p.finish();
        let s = p.state.lock().unwrap();
        assert_eq!(s.done, 2);
        assert_eq!(s.skipped, 1);
        assert_eq!(s.executed_ms, 10.0);
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_ms(250.0), "250ms");
        assert_eq!(fmt_ms(2_500.0), "2.5s");
        assert_eq!(fmt_ms(90_000.0), "1.5min");
    }
}
