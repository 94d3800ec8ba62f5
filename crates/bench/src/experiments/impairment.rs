//! Fig. 4 / Fig. 6 — the ON/OFF impairment test.
//!
//! Five web servers hold persistent connections to a front-end (1 Gbps,
//! 50 µs, 100-packet buffer). Each sends 200 small responses (2–10 KB,
//! ~1 ms apart) from 0.1 s, then a long train at 0.5 s. Under Reno the
//! inherited ~900-packet windows crush the bottleneck at 0.5 s (Fig. 4:
//! timeouts, throughput collapse); under TCP-TRIM the probes re-tune the
//! window and nothing is lost (Fig. 6).

use netsim::time::{Dur, SimTime};
use rand::rngs::StdRng;
use rand::SeedableRng;
use trim_harness::{Artifacts, Campaign};
use trim_tcp::CcKind;
use trim_workload::http::impairment_workload;
use trim_workload::scenario::ScenarioBuilder;
use trim_workload::Report;

use crate::num;
use crate::table::fmt_secs;
use crate::{Effort, Table};

const SENDERS: usize = 5;

/// Runs one protocol through the Section II.B scenario.
fn run_protocol(cc: &CcKind, seed: u64) -> Report {
    let mut sc = ScenarioBuilder::many_to_one(SENDERS)
        .congestion_control(cc.clone())
        .record_cwnd()
        .record_queue()
        .throughput_bin(Dur::from_millis(10))
        .build();
    let mut rng = StdRng::seed_from_u64(seed);
    for s in 0..SENDERS {
        sc.send_trains(s, impairment_workload(&mut rng));
    }
    sc.run_for_secs(3.0)
}

/// The two compared protocols.
fn protocols() -> [CcKind; 2] {
    [
        CcKind::Reno,
        CcKind::trim_with_capacity(1_000_000_000, 1460),
    ]
}

/// One protocol's job: the per-connection detail, the goodput series,
/// and a full-precision summary row for the reduce step.
fn protocol_job(cc: &CcKind, seed: u64) -> Artifacts {
    let report = run_protocol(cc, seed);

    // Per-connection detail (the paper discusses connection 5).
    let mut detail = Table::new(
        "detail",
        &[
            "conn",
            "timeouts",
            "cwnd_before_lpt",
            "lpt_ct",
            "trains_done",
        ],
    );
    let before_lpt = SimTime::from_secs_f64(0.499);
    let mut lpt_max: f64 = 0.0;
    let mut finish: f64 = 0.0;
    for s in &report.senders {
        let cwnd_pre = s
            .cwnd
            .as_ref()
            .and_then(|series| series.value_at(before_lpt))
            .unwrap_or(0.0);
        // The LPT is the last-enqueued train (id 200).
        let lpt_ct = s
            .trains
            .iter()
            .find(|t| t.id == 200)
            .map(|t| t.completion_time().as_secs_f64())
            .unwrap_or(f64::NAN);
        lpt_max = lpt_max.max(lpt_ct);
        for t in &s.trains {
            finish = finish.max(t.completed_at.as_secs_f64());
        }
        detail.row(&[
            format!("{}", s.sender + 1),
            format!("{}", s.stats.timeouts),
            format!("{cwnd_pre:.0}"),
            fmt_secs(lpt_ct),
            format!("{}", s.trains.len()),
        ]);
    }

    // Throughput-over-time series (Fig. 4(a)/6(a)): aggregate goodput.
    let mut series = Table::new("throughput", &["t", "mbps"]);
    let mut bins = std::collections::BTreeMap::<u64, f64>::new();
    for s in &report.senders {
        if let Some(m) = &s.throughput {
            for (t, mbps) in m.mbps_series() {
                *bins.entry(t.as_nanos()).or_default() += mbps;
            }
        }
    }
    for (t_ns, mbps) in bins {
        let t = t_ns as f64 / 1e9;
        if (0.4..0.8).contains(&t) {
            series.row(&[format!("{t:.2}"), format!("{mbps:.0}")]);
        }
    }

    // Full-precision numbers the summary table is assembled from.
    let mut raw = Table::new(
        "summary_row",
        &["timeouts", "drops", "max_queue", "act", "lpt_max", "finish"],
    );
    raw.row(&[
        report.total_timeouts().to_string(),
        report.bottleneck.dropped.to_string(),
        report.bottleneck.max_len.to_string(),
        num(report.act().mean),
        num(lpt_max),
        num(finish),
    ]);

    vec![
        ("detail".to_string(), detail),
        ("throughput".to_string(), series),
        ("summary_row".to_string(), raw),
    ]
}

/// Builds the impairment campaign: one job per protocol, reduced into
/// the summary plus per-protocol detail and goodput tables.
pub fn campaign(_effort: Effort) -> Campaign {
    let mut c = Campaign::new("impairment", 42);
    for cc in protocols() {
        let name = cc.name().to_string();
        c.job(name.clone(), [("protocol", name)], move |seed| {
            protocol_job(&cc, seed)
        });
    }
    c.reduce(|records| {
        let mut out: Artifacts = Vec::new();
        let mut summary = Table::new(
            "Fig. 4 vs Fig. 6 — impairment test summary",
            &[
                "protocol",
                "timeouts",
                "drops",
                "max_queue",
                "act",
                "lpt_max_ct",
                "all_done_by",
            ],
        );
        for job in records {
            let raw = job.table("summary_row");
            summary.row(&[
                job.key.clone(),
                raw.cell(0, 0).to_string(),
                raw.cell(0, 1).to_string(),
                raw.cell(0, 2).to_string(),
                fmt_secs(raw.f64_at(0, 3)),
                fmt_secs(raw.f64_at(0, 4)),
                fmt_secs(raw.f64_at(0, 5)),
            ]);
            let name = &job.key;
            out.push((
                format!("fig4_6_{name}_detail"),
                job.table("detail")
                    .clone()
                    .with_title(format!("{name}: per-connection detail")),
            ));
            out.push((
                format!("fig4_6_{name}_throughput"),
                job.table("throughput").clone().with_title(format!(
                    "{name}: bottleneck goodput (10 ms bins, 0.4-0.8 s)"
                )),
            ));
        }
        out.insert(0, ("fig4_6_summary".to_string(), summary));
        out
    });
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_fresh;

    #[test]
    fn reno_times_out_and_trim_does_not() {
        let reno = run_protocol(&CcKind::Reno, 42);
        let trim = run_protocol(&CcKind::trim_with_capacity(1_000_000_000, 1460), 42);
        assert!(
            reno.total_timeouts() >= 2,
            "paper reports 7 timeouts across conns 2-5, got {}",
            reno.total_timeouts()
        );
        assert_eq!(trim.total_timeouts(), 0, "Fig. 6: no TRIM timeouts");
        assert_eq!(trim.bottleneck.dropped, 0, "queue never overflows");
        // Paper: recorded TRIM queue stays under ~20 packets.
        assert!(
            trim.bottleneck.max_len <= 30,
            "TRIM max queue {}",
            trim.bottleneck.max_len
        );
        // Reno inherits huge windows; TRIM strictly limits them pre-LPT.
        let cwnd_at = |r: &Report, i: usize| {
            r.senders[i]
                .cwnd
                .as_ref()
                .unwrap()
                .value_at(SimTime::from_secs_f64(0.499))
                .unwrap_or(0.0)
        };
        assert!(cwnd_at(&reno, 4) > 300.0, "Reno window grows unchecked");
        assert!(cwnd_at(&trim, 4) < 50.0, "TRIM window stays small");
        // Everything still completes under both.
        assert_eq!(reno.completed_trains(), SENDERS * 201);
        assert_eq!(trim.completed_trains(), SENDERS * 201);
        // And TRIM's ACT improves on Reno's.
        assert!(trim.act().mean < reno.act().mean);
    }

    #[test]
    fn campaign_reduces_to_summary_and_per_protocol_tables() {
        let tables = run_fresh("impairment", campaign(Effort::Quick));
        assert_eq!(tables.len(), 5, "summary + 2x(detail, throughput)");
        assert_eq!(tables[0].len(), 2, "one summary row per protocol");
    }
}
