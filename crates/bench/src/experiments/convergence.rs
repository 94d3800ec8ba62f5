//! Fig. 10 — fairness and convergence.
//!
//! Six hosts share one switch: the receiver hangs off a 1 Gbps / 50 µs
//! link, the five senders off 1.1 Gbps links. LPTs start at 0.1 s with
//! 2 s spacing, then stop one by one from 12.1 s with the same spacing.
//! The paper shows TRIM's flows converging quickly to their fair share
//! while TCP's shares swing widely.
//!
//! The scenario is deterministic (fixed sizes and start times), so the
//! campaign's jobs ignore their derived seeds.

use netsim::prelude::*;
use netsim::time::{Dur, SimTime};
use netsim::topology::LinkSpec;
use trim_harness::table::fmt_f64;
use trim_harness::{record_for, Artifacts, Campaign};
use trim_tcp::{CcKind, TcpHost};
use trim_workload::scenario::ScenarioBuilder;

use crate::{Effort, Table};

const N: usize = 5;

/// Per-flow throughput series from one convergence run, in 500 ms bins.
pub fn run_once(cc: &CcKind) -> Vec<Vec<(SimTime, f64)>> {
    let sender_link = LinkSpec::new(
        Bandwidth::bps(1_100_000_000),
        Dur::from_micros(50),
        QueueConfig::drop_tail(100),
    );
    let mut sc = ScenarioBuilder::many_to_one(N)
        .congestion_control(cc.clone())
        .sender_links(sender_link)
        .throughput_bin(Dur::from_millis(500))
        .build();
    for i in 0..N {
        let start = 0.1 + 2.0 * i as f64;
        let stop = 12.1 + 2.0 * i as f64;
        // The paper sets all 5 connections up before any data flows; a
        // one-packet exchange on the idle network gives each connection
        // its true base RTT (otherwise late arrivals measure min_RTT
        // against the standing queue and delay-based control turns
        // unfair).
        sc.send_train(
            i,
            trim_workload::TrainSpec::at_secs(0.001 + 0.0002 * i as f64, 1),
        );
        sc.send_train(i, trim_workload::TrainSpec::at_secs(start, 4_000_000_000));
        let node = sc.net().senders[i];
        sc.sim_mut()
            .host_mut::<TcpHost>(node)
            .schedule_stop(0, SimTime::from_secs_f64(stop));
    }
    let report = sc.run_for_secs(22.0);
    report
        .senders
        .iter()
        .map(|s| s.throughput.as_ref().expect("metered").mbps_series())
        .collect()
}

/// Jain's fairness index over the active flows' throughputs.
pub fn jain_index(shares: &[f64]) -> f64 {
    let n = shares.len() as f64;
    let sum: f64 = shares.iter().sum();
    let sum_sq: f64 = shares.iter().map(|x| x * x).sum();
    // trim-lint: allow(no-float-eq, reason = "exact-zero guard before division; any nonzero sum of squares is fine")
    if sum_sq == 0.0 {
        return 1.0;
    }
    sum * sum / (n * sum_sq)
}

fn value_at(series: &[(SimTime, f64)], t: f64) -> f64 {
    let target = SimTime::from_secs_f64(t);
    let i = series.partition_point(|&(at, _)| at <= target);
    if i == 0 {
        return 0.0;
    }
    // A flow that stopped has no later bins: beyond its last bin the
    // throughput is zero, not the stale final value.
    let (bin_start, v) = series[i - 1];
    if target.saturating_since(bin_start) > Dur::from_millis(500) {
        0.0
    } else {
        v
    }
}

/// One protocol's job: the sampled throughput grid plus its per-phase
/// fairness column.
fn protocol_job(cc: &CcKind) -> Artifacts {
    let series = run_once(cc);

    let mut grid = Table::new("grid", &["t", "c1", "c2", "c3", "c4", "c5"]);
    let mut ts = 1.0;
    while ts < 22.0 {
        let mut row = vec![format!("{ts:.1}")];
        for s in &series {
            row.push(fmt_f64(value_at(s, ts)));
        }
        grid.row(&row);
        ts += 1.0;
    }

    // Fairness index at the midpoint of each arrival/departure phase.
    let mut fairness = Table::new("fairness", &["t", "active", "jain"]);
    for phase in 0..9 {
        let t = 1.1 + 2.0 * phase as f64; // midpoints: 1.1, 3.1, ..., 17.1
        let (lo, hi) = if t < 12.1 {
            (0usize, (phase + 1).min(N))
        } else {
            (phase + 1 - 5, N)
        };
        let active = hi - lo;
        if active == 0 {
            continue;
        }
        let shares: Vec<f64> = (lo..hi).map(|i| value_at(&series[i], t)).collect();
        fairness.row(&[
            format!("{t:.1}"),
            format!("{active}"),
            fmt_f64(jain_index(&shares)),
        ]);
    }

    vec![
        ("grid".to_string(), grid),
        ("fairness".to_string(), fairness),
    ]
}

/// Builds the convergence campaign: one job per protocol, reduced into
/// the two throughput grids and the combined fairness table.
pub fn campaign(_effort: Effort) -> Campaign {
    let mut c = Campaign::new("convergence", 0xF1A);
    for proto in ["tcp", "trim"] {
        c.job(proto, [("protocol", proto.to_string())], move |_seed| {
            let cc = if proto == "trim" {
                CcKind::trim_with_capacity(1_000_000_000, 1460)
            } else {
                CcKind::Reno
            };
            protocol_job(&cc)
        });
    }
    c.reduce(|records| {
        let mut out: Artifacts = Vec::new();
        for proto in ["tcp", "trim"] {
            out.push((
                format!("fig10_{proto}"),
                record_for(records, proto)
                    .table("grid")
                    .clone()
                    .with_title(format!(
                        "Fig. 10 ({proto}) — per-connection throughput (Mbps)"
                    )),
            ));
        }
        let tcp_fair = record_for(records, "tcp").table("fairness");
        let trim_fair = record_for(records, "trim").table("fairness");
        let mut fairness = Table::new(
            "Fig. 10 — Jain fairness of active flows (sampled mid-phase)",
            &["t", "active", "tcp_jain", "trim_jain"],
        );
        for (tcp_row, trim_row) in tcp_fair.rows().iter().zip(trim_fair.rows()) {
            fairness.row(&[
                tcp_row[0].clone(),
                tcp_row[1].clone(),
                tcp_row[2].clone(),
                trim_row[2].clone(),
            ]);
        }
        out.push(("fig10_fairness".to_string(), fairness));
        out
    });
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jain_index_basics() {
        assert!((jain_index(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((jain_index(&[1.0, 0.0]) - 0.5).abs() < 1e-12);
        assert_eq!(jain_index(&[0.0, 0.0]), 1.0);
    }

    #[test]
    fn trim_converges_to_fair_share() {
        let trim = CcKind::trim_with_capacity(1_000_000_000, 1460);
        let series = run_once(&trim);
        // At t = 11 s all five flows are active; fair share is ~200 Mbps.
        let shares: Vec<f64> = series.iter().map(|s| value_at(s, 11.0)).collect();
        let j = jain_index(&shares);
        assert!(j > 0.95, "TRIM fairness {j}, shares {shares:?}");
        let total: f64 = shares.iter().sum();
        assert!(total > 850.0, "link utilized: {total} Mbps");
        // Between the fourth and fifth departures (18.1 s - 20.1 s) flow 5
        // is alone and should ramp to the full link.
        let last = value_at(&series[4], 19.5);
        assert!(last > 700.0, "last flow ramps to the full link: {last}");
    }
}
