//! Fig. 13 — the "real testbed" experiments, reproduced in simulation
//! with the testbed's parameters (DESIGN.md documents the substitution).
//!
//! (a) 100 Mbps links: two machines stream large files persistently while
//! a third serves 100 responses of mean size 32 KB–1 MB (±10%); the
//! metric is the average response completion time (ARCT), CUBIC vs TRIM.
//! Only the responses are measured, so a run ends when the 100th
//! response completes, capped at 120 s of simulated time.
//!
//! (b)–(e) 1 Gbps links: four machines serve 1000 responses each with
//! sizes and intervals from the Fig. 2 distributions; the paper reports
//! TRIM keeping ~99% of completions under 25 ms while CUBIC and Reno
//! show a heavy tail up to 250 ms.

use netsim::time::{Dur, SimTime};
use trim_tcp::{CcKind, TcpConfig, TcpHost};
use trim_workload::distributions::{pt_interval, pt_size_bytes};
use trim_workload::http::{lpt, testbed_responses};
use trim_workload::metrics::{cdf_points, fraction_below};
use trim_workload::scenario::{ScenarioBuilder, TrainSpec};
use trim_workload::Summary;

use rand::rngs::StdRng;
use rand::SeedableRng;
use trim_harness::{record_for, Artifacts, Campaign};

use crate::num;
use crate::table::{fmt_f64, fmt_secs};
use crate::{Effort, Table};

/// Responses the third machine of Fig. 13(a) serves.
const ARCT_RESPONSES: usize = 100;
/// Simulated-time cap of a Fig. 13(a) run.
const ARCT_CAP_SECS: f64 = 120.0;
/// How far a Fig. 13(a) run advances between checks for its last response.
const ARCT_SLICE: Dur = Dur::from_millis(100);

/// Fig. 13(a): ARCT of 100 responses of mean size `mean_bytes` while two
/// large files stream on 100 Mbps links. The run ends when the 100th
/// response completes, or at 120 s of simulated time if it never does.
pub fn arct_100mbps(cc: &CcKind, mean_bytes: u64, seed: u64) -> Summary {
    let link = netsim::topology::LinkSpec::new(
        netsim::Bandwidth::mbps(100),
        Dur::from_micros(100),
        netsim::QueueConfig::drop_tail(100),
    );
    let mut sc = ScenarioBuilder::many_to_one(3)
        .congestion_control(cc.clone())
        .links(link)
        .tcp_config(TcpConfig::default().with_min_rto(Dur::from_millis(200)))
        .build();
    // Two persistent large-file transfers.
    sc.send_train(0, lpt(0.0, 2_000_000_000));
    sc.send_train(1, lpt(0.0, 2_000_000_000));
    // The third machine serves 100 responses sequentially (request/
    // response on a persistent connection, 2 ms think time).
    let mut rng = StdRng::seed_from_u64(seed);
    let sizes: Vec<u64> = testbed_responses(&mut rng, ARCT_RESPONSES, mean_bytes, 0.0, 1.0)
        .into_iter()
        .map(|s| s.bytes)
        .collect();
    let node = sc.net().senders[2];
    sc.sim_mut()
        .host_mut::<TcpHost>(node)
        .schedule_response_sequence(0, SimTime::from_secs_f64(0.1), sizes, Dur::from_millis(2));
    // The large files never finish: stop once the 100th response has,
    // in slices (a sliced run is bit-identical to an unsliced one).
    let cap = SimTime::from_secs_f64(ARCT_CAP_SECS);
    let mut horizon = SimTime::ZERO;
    while horizon < cap {
        horizon = (horizon + ARCT_SLICE).min(cap);
        sc.sim_mut().run_until(horizon);
        let served = sc.sim_mut().host::<TcpHost>(node).connection(0);
        if served.completed_trains().len() == ARCT_RESPONSES {
            break;
        }
    }
    let report = sc.report();
    let times: Vec<Dur> = report.senders[2]
        .trains
        .iter()
        .map(|t| t.completion_time())
        .collect();
    Summary::of(&times)
}

/// Result of the Fig. 13(b)-(e) web-service run for one protocol.
#[derive(Clone, Debug)]
pub struct WebServiceRun {
    /// Completion times of responses between 64 KB and 256 KB (the
    /// scatter plots 13(b)-(d)), in seconds.
    pub mid_sizes: Vec<f64>,
    /// CDF of all response completion times.
    pub cdf: Vec<(f64, f64)>,
    /// Fraction of responses completing within 25 ms.
    pub under_25ms: f64,
    /// ARCT over all responses.
    pub arct: f64,
}

/// Fig. 13(b)-(e): 4 servers, `n_per_server` responses each on 1 Gbps.
pub fn web_service(cc: &CcKind, n_per_server: usize, seed: u64) -> WebServiceRun {
    let mut sc = ScenarioBuilder::many_to_one(4)
        .congestion_control(cc.clone())
        .tcp_config(TcpConfig::default().with_min_rto(Dur::from_millis(200)))
        .build();
    let size_dist = pt_size_bytes();
    let gap_dist = pt_interval();
    let mut rng = StdRng::seed_from_u64(seed);
    for s in 0..4 {
        let mut t = 0.1;
        for _ in 0..n_per_server {
            let bytes = size_dist.sample(&mut rng).round() as u64;
            sc.send_train(s, TrainSpec::at_secs(t, bytes.max(1)));
            t += gap_dist.sample(&mut rng) / 1e9;
        }
    }
    let report = sc.run_for_secs(60.0);
    let mut all = Vec::new();
    let mut mid = Vec::new();
    for s in &report.senders {
        for tr in &s.trains {
            let ct = tr.completion_time();
            all.push(ct);
            if (64 * 1024..=256 * 1024).contains(&tr.bytes) {
                mid.push(ct.as_secs_f64());
            }
        }
    }
    WebServiceRun {
        mid_sizes: mid,
        cdf: cdf_points(&all),
        under_25ms: fraction_below(&all, Dur::from_millis(25)),
        arct: Summary::of(&all).mean,
    }
}

/// A web-service job's artifacts: the scalar summary plus the CDF
/// checkpoints used by the Fig. 13(e) table.
fn web_service_job(cc: &CcKind, n_per_server: usize, seed: u64) -> Artifacts {
    let r = web_service(cc, n_per_server, seed);
    let max_mid = r.mid_sizes.iter().copied().fold(0.0f64, f64::max);
    let mut summary = Table::new(
        "summary",
        &["arct", "under_25ms", "max_mid_ct", "responses"],
    );
    summary.row(&[
        num(r.arct),
        num(r.under_25ms),
        num(max_mid),
        r.cdf.len().to_string(),
    ]);
    let mut cdf = Table::new("cdf", &["ct_ms", "frac"]);
    for ms in [5.0, 10.0, 25.0, 50.0, 100.0, 250.0] {
        let t = ms / 1e3;
        let frac = r.cdf.partition_point(|&(v, _)| v <= t) as f64 / r.cdf.len().max(1) as f64;
        cdf.row(&[format!("{ms}"), num(frac)]);
    }
    vec![("summary".to_string(), summary), ("cdf".to_string(), cdf)]
}

/// Builds the testbed campaign: one ARCT job per (response size,
/// protocol) on the 100 Mbps network plus one web-service job per
/// protocol on the 1 Gbps network. Protocols share each scenario's
/// seed key so A/B comparisons run the identical workload.
pub fn campaign(effort: Effort) -> Campaign {
    let sizes: Vec<u64> = effort.pick(
        vec![32_768, 131_072, 524_288, 1_048_576],
        vec![32_768, 65_536, 131_072, 262_144, 524_288, 1_048_576],
    );
    let n_per_server = effort.pick(400, 1000);

    let mut c = Campaign::new("testbed", 0xBED);
    for &s in &sizes {
        for proto in ["cubic", "trim"] {
            c.table_job_seeded(
                format!("arct_{s}_{proto}"),
                format!("arct_{s}"),
                [
                    ("mean_bytes", s.to_string()),
                    ("protocol", proto.to_string()),
                ],
                move |seed| {
                    let cc = if proto == "trim" {
                        CcKind::trim_with_capacity(100_000_000, 1460)
                    } else {
                        CcKind::Cubic
                    };
                    let mut t = Table::new("arct", &["mean"]);
                    t.row(&[num(arct_100mbps(&cc, s, seed).mean)]);
                    t
                },
            );
        }
    }
    for (proto, cc) in [
        ("cubic", CcKind::Cubic),
        ("reno", CcKind::Reno),
        ("trim", CcKind::trim_with_capacity(1_000_000_000, 1460)),
    ] {
        c.job_seeded(
            format!("web_{proto}"),
            "web",
            [
                ("protocol", proto.to_string()),
                ("n_per_server", n_per_server.to_string()),
            ],
            move |seed| web_service_job(&cc, n_per_server, seed),
        );
    }
    c.reduce(move |records| {
        let mut fig13a = Table::new(
            "Fig. 13(a) — ARCT on 100 Mbps testbed (s)",
            &["mean_size_kb", "cubic", "trim"],
        );
        for &s in &sizes {
            fig13a.row(&[
                format!("{}", s / 1024),
                fmt_secs(
                    record_for(records, &format!("arct_{s}_cubic"))
                        .only()
                        .f64_at(0, 0),
                ),
                fmt_secs(
                    record_for(records, &format!("arct_{s}_trim"))
                        .only()
                        .f64_at(0, 0),
                ),
            ]);
        }

        let protos = ["cubic", "reno", "trim"];
        let mut fig13e = Table::new(
            "Fig. 13(b)-(e) — web-service completion times (4 servers)",
            &[
                "protocol",
                "arct",
                "p_under_25ms",
                "max_mid_ct",
                "responses",
            ],
        );
        for proto in protos {
            let summary = record_for(records, &format!("web_{proto}")).table("summary");
            fig13e.row(&[
                proto.to_string(),
                fmt_secs(summary.f64_at(0, 0)),
                fmt_f64(summary.f64_at(0, 1)),
                fmt_secs(summary.f64_at(0, 2)),
                summary.cell(0, 3).to_string(),
            ]);
        }

        let mut cdf_table = Table::new(
            "Fig. 13(e) — CDF of response completion time",
            &["ct_ms", "cubic", "reno", "trim"],
        );
        let cdfs: Vec<&Table> = protos
            .iter()
            .map(|proto| record_for(records, &format!("web_{proto}")).table("cdf"))
            .collect();
        for row in 0..cdfs[0].len() {
            cdf_table.row(&[
                cdfs[0].cell(row, 0).to_string(),
                fmt_f64(cdfs[0].f64_at(row, 1)),
                fmt_f64(cdfs[1].f64_at(row, 1)),
                fmt_f64(cdfs[2].f64_at(row, 1)),
            ]);
        }

        vec![
            ("fig13a_arct".to_string(), fig13a),
            ("fig13e_web_service".to_string(), fig13e),
            ("fig13e_cdf".to_string(), cdf_table),
        ]
    });
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trim_beats_cubic_on_large_responses() {
        let cubic = arct_100mbps(&CcKind::Cubic, 262_144, 3);
        let trim = arct_100mbps(&CcKind::trim_with_capacity(100_000_000, 1460), 262_144, 3);
        assert_eq!(cubic.count, 100);
        assert_eq!(trim.count, 100);
        assert!(
            trim.mean < cubic.mean,
            "trim {} vs cubic {}",
            trim.mean,
            cubic.mean
        );
    }

    #[test]
    fn trim_cuts_the_web_service_tail() {
        let trim = CcKind::trim_with_capacity(1_000_000_000, 1460);
        let t = web_service(&trim, 150, 5);
        let c = web_service(&CcKind::Cubic, 150, 5);
        assert!(
            t.under_25ms > c.under_25ms,
            "trim {} vs cubic {} under 25ms",
            t.under_25ms,
            c.under_25ms
        );
        assert!(
            t.under_25ms > 0.9,
            "paper: ~99% under 25 ms, got {}",
            t.under_25ms
        );
    }
}
