//! Extension — the million-flow engine stress point.
//!
//! Exercises the engine's timer queue and the per-host flow slab at
//! depth: single-segment flows packed hundreds-to-thousands per host
//! fan into one 1 Gbps front-end, a regime dominated by queue drops and
//! RTO backoff (at `--full`, up to 10⁶ armed timers in one queue).
//! Quick effort runs a packed 5 000-flow point that the golden suite
//! reproduces byte-for-byte; `--full` adds the 10⁶-flow point, which
//! CI runs once per push.
//!
//! Unlike `large_scale_100k` (one host per flow), every host here
//! carries many senders, so every ACK looks its flow up in a slab
//! hundreds of rows deep and the per-host access links
//! are shared — completion counts measure survival under overload, not
//! fairness.

use netsim::time::Dur;
use trim_harness::Campaign;
use trim_tcp::CcKind;
use trim_workload::scale::{run_scale_incast, ScaleConfig};

use crate::num;
use crate::{Effort, Table};

/// `(flows, senders per host)` points per effort level.
fn points(effort: Effort) -> Vec<(usize, usize)> {
    effort.pick(vec![(5_000, 250)], vec![(5_000, 250), (1_000_000, 1_000)])
}

/// Builds the million-flow campaign: one job per (scale point,
/// protocol), reduced into a single packed-incast table.
pub fn campaign(effort: Effort) -> Campaign {
    let pts = points(effort);
    let mut c = Campaign::new("million_flow", 0x1_000_000);
    for &(flows, per_host) in &pts {
        for proto in ["tcp", "trim"] {
            c.table_job(
                format!("f{flows}_{proto}"),
                [
                    ("flows", flows.to_string()),
                    ("per_host", per_host.to_string()),
                    ("protocol", proto.to_string()),
                ],
                move |seed| {
                    let mut cfg = ScaleConfig::million_flow();
                    cfg.flows = flows;
                    cfg.senders_per_host = per_host;
                    cfg.seed = seed;
                    if flows < 1_000_000 {
                        // The scaled-down point keeps the same overload
                        // character but fits the golden suite's budget:
                        // 5 000 segments land within 5 ms on a front-end
                        // buffer of 100, so the first round is mostly
                        // drops and the rest is RTO-backoff recovery.
                        cfg.start_window = Dur::from_millis(5);
                        cfg.horizon = Dur::from_secs(2);
                    }
                    cfg.cc = if proto == "trim" {
                        CcKind::trim_with_capacity(1_000_000_000, 1460)
                    } else {
                        CcKind::Reno
                    };
                    let r = run_scale_incast(&cfg);
                    let mut t = Table::new(
                        "run",
                        &[
                            "completed",
                            "delivered",
                            "dropped",
                            "timeouts",
                            "events",
                            "mean_act",
                        ],
                    );
                    t.row(&[
                        r.completed.to_string(),
                        r.audit.delivered.to_string(),
                        r.audit.dropped.to_string(),
                        r.timeouts.to_string(),
                        r.events.to_string(),
                        num(r.act.mean),
                    ]);
                    t
                },
            );
        }
    }
    let keys: Vec<(usize, usize, &'static str)> = pts
        .iter()
        .flat_map(|&(f, p)| [(f, p, "tcp"), (f, p, "trim")])
        .collect();
    c.reduce(move |records| {
        let mut t = Table::new(
            "Ext — packed incast at engine scale (many senders per host)",
            &[
                "flows",
                "per_host",
                "protocol",
                "completed",
                "delivered",
                "dropped",
                "timeouts",
                "events",
                "mean_act",
            ],
        );
        for &(flows, per_host, proto) in &keys {
            let key = format!("f{flows}_{proto}");
            let rec = records
                .iter()
                .find(|r| r.key == key)
                .unwrap_or_else(|| panic!("missing job '{key}'"));
            let row = rec.only();
            t.row(&[
                flows.to_string(),
                per_host.to_string(),
                proto.to_string(),
                row.cell(0, 0).to_string(),
                row.cell(0, 1).to_string(),
                row.cell(0, 2).to_string(),
                row.cell(0, 3).to_string(),
                row.cell(0, 4).to_string(),
                row.cell(0, 5).to_string(),
            ]);
        }
        vec![("million_flow".to_string(), t)]
    });
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_campaign_has_one_packed_point() {
        let c = campaign(Effort::Quick);
        assert_eq!(c.id(), "million_flow");
        assert_eq!(c.job_keys(), ["f5000_tcp", "f5000_trim"]);
    }

    #[test]
    fn full_campaign_adds_the_million_point() {
        let c = campaign(Effort::Full);
        assert_eq!(
            c.job_keys(),
            ["f5000_tcp", "f5000_trim", "f1000000_tcp", "f1000000_trim"]
        );
    }
}
