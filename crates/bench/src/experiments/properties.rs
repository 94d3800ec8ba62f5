//! Fig. 9 — basic properties of TCP-TRIM: switch queue length, average
//! queue length, packet drops, and bottleneck goodput.
//!
//! Persistent LPT connections share the 1 Gbps / 50 µs / 100-packet
//! bottleneck from 0.1 s to 0.9 s. TCP saw-tooths against the buffer
//! ceiling; TRIM pins the queue near its target `C(K - D)`.
//!
//! The workload here is fully deterministic (fixed-size LPTs, no random
//! arrivals), so the campaign's jobs ignore their derived seeds.

use netsim::time::{Dur, SimTime};
use trim_harness::{record_for, Campaign};
use trim_tcp::{CcKind, TcpConfig, TcpHost};
use trim_workload::http::lpt;
use trim_workload::scenario::ScenarioBuilder;

use crate::num;
use crate::table::fmt_f64;
use crate::{Effort, Table};

const END: f64 = 0.9;
const START: f64 = 0.1;

/// Measurements from one run with `n` persistent LPT connections.
#[derive(Clone, Copy, Debug)]
pub struct PropertyRun {
    /// Average queue length over the active window, in packets.
    pub avg_queue: f64,
    /// Maximum queue length, in packets.
    pub max_queue: usize,
    /// Packets dropped at the bottleneck.
    pub drops: u64,
    /// Goodput delivered at the front-end over the active window, Mbps.
    pub goodput_mbps: f64,
    /// Timeouts across all connections.
    pub timeouts: u64,
}

/// Runs `n` persistent LPTs under `cc`, with the queue-length series
/// optionally returned for Fig. 9(a).
pub fn run_once(
    cc: &CcKind,
    n: usize,
    rto: Dur,
    record: bool,
) -> (PropertyRun, Option<Vec<(f64, usize)>>) {
    let mut builder = ScenarioBuilder::many_to_one(n)
        .congestion_control(cc.clone())
        .tcp_config(TcpConfig::default().with_min_rto(rto));
    if record {
        builder = builder.record_queue();
    }
    let mut sc = builder.build();
    for s in 0..n {
        // Big enough to stay busy for the whole window; stopped at 0.9 s.
        sc.send_train(s, lpt(START, 400_000_000));
    }
    for (i, &node) in sc.net().senders.clone().iter().enumerate() {
        let _ = i;
        sc.sim_mut()
            .host_mut::<TcpHost>(node)
            .schedule_stop(0, SimTime::from_secs_f64(END));
    }
    let report = sc.run_for_secs(END + 0.3);
    let span = Dur::from_secs_f64(END + 0.3);
    let goodput_bytes: u64 = report.senders.iter().map(|s| s.goodput_bytes).sum();
    let run = PropertyRun {
        avg_queue: report.bottleneck.average_len(span),
        max_queue: report.bottleneck.max_len,
        drops: report.bottleneck.dropped,
        goodput_mbps: goodput_bytes as f64 * 8.0 / (END - START) / 1e6,
        timeouts: report.total_timeouts(),
    };
    let series = report.queue_series.map(|samples| {
        samples
            .iter()
            .map(|s| (s.at.as_secs_f64(), s.len))
            .collect()
    });
    (run, series)
}

/// Samples a queue-length series on the 20 ms Fig. 9(a) grid.
fn sampled_series(cc: &CcKind) -> Table {
    let (_, series) = run_once(cc, 5, Dur::from_millis(200), true);
    let series = series.expect("recorded");
    let sample = |t: f64| -> usize {
        match series.partition_point(|&(at, _)| at <= t) {
            0 => 0,
            i => series[i - 1].1,
        }
    };
    let mut out = Table::new("queue", &["t", "len"]);
    let mut t = START;
    while t < END {
        out.row(&[format!("{t:.2}"), format!("{}", sample(t))]);
        t += 0.02;
    }
    out
}

/// One sweep cell's raw metrics.
fn cell_table(run: PropertyRun) -> Table {
    let mut t = Table::new(
        "cell",
        &[
            "avg_queue",
            "max_queue",
            "drops",
            "goodput_mbps",
            "timeouts",
        ],
    );
    t.row(&[
        num(run.avg_queue),
        run.max_queue.to_string(),
        run.drops.to_string(),
        num(run.goodput_mbps),
        run.timeouts.to_string(),
    ]);
    t
}

/// Builds the properties campaign: two recorded queue-series jobs for
/// Fig. 9(a) plus one job per (count, protocol) sweep cell.
pub fn campaign(effort: Effort) -> Campaign {
    let counts: Vec<usize> = effort.pick(vec![2, 4, 6, 8, 10], vec![2, 3, 4, 5, 6, 7, 8, 9, 10]);

    let mut c = Campaign::new("properties", 0xF19);
    for proto in ["tcp", "trim"] {
        c.table_job(
            format!("series_{proto}"),
            [("protocol", proto.to_string()), ("n_lpts", "5".to_string())],
            move |_seed| {
                let cc = if proto == "trim" {
                    CcKind::trim_with_capacity(1_000_000_000, 1460)
                } else {
                    CcKind::Reno
                };
                sampled_series(&cc)
            },
        );
    }
    for &n in &counts {
        for proto in ["tcp", "trim"] {
            c.table_job(
                format!("sweep_n{n}_{proto}"),
                [("protocol", proto.to_string()), ("n_pts", n.to_string())],
                move |_seed| {
                    let cc = if proto == "trim" {
                        CcKind::trim_with_capacity(1_000_000_000, 1460)
                    } else {
                        CcKind::Reno
                    };
                    cell_table(run_once(&cc, n, Dur::from_millis(1), false).0)
                },
            );
        }
    }
    c.reduce(move |records| {
        // Fig. 9(a): zip the two sampled series.
        let tcp_series = record_for(records, "series_tcp").only();
        let trim_series = record_for(records, "series_trim").only();
        let mut fig9a = Table::new(
            "Fig. 9(a) — switch queue with 5 LPTs (packets, sampled)",
            &["t", "tcp", "trim"],
        );
        for (row, trim_row) in tcp_series.rows().iter().zip(trim_series.rows()) {
            fig9a.row(&[row[0].clone(), row[1].clone(), trim_row[1].clone()]);
        }

        // Fig. 9(b)-(d): one row per concurrency level.
        let mut fig9b = Table::new(
            "Fig. 9(b) — average queue length (packets)",
            &["n_pts", "tcp", "trim"],
        );
        let mut fig9c = Table::new("Fig. 9(c) — dropped packets", &["n_pts", "tcp", "trim"]);
        let mut fig9d = Table::new(
            "Fig. 9(d) — bottleneck goodput (Mbps)",
            &["n_pts", "tcp", "trim", "trim_utilization"],
        );
        for &n in &counts {
            let tcp = record_for(records, &format!("sweep_n{n}_tcp")).only();
            let trm = record_for(records, &format!("sweep_n{n}_trim")).only();
            fig9b.row(&[
                format!("{n}"),
                fmt_f64(tcp.f64_at(0, 0)),
                fmt_f64(trm.f64_at(0, 0)),
            ]);
            fig9c.row(&[
                format!("{n}"),
                tcp.cell(0, 2).to_string(),
                trm.cell(0, 2).to_string(),
            ]);
            fig9d.row(&[
                format!("{n}"),
                fmt_f64(tcp.f64_at(0, 3)),
                fmt_f64(trm.f64_at(0, 3)),
                format!("{}%", fmt_f64(trm.f64_at(0, 3) / 10.0)),
            ]);
        }
        vec![
            ("fig9a_queue_series".to_string(), fig9a),
            ("fig9b_aql".to_string(), fig9b),
            ("fig9c_drops".to_string(), fig9c),
            ("fig9d_goodput".to_string(), fig9d),
        ]
    });
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trim_holds_queue_low_without_drops() {
        let trim = CcKind::trim_with_capacity(1_000_000_000, 1460);
        let (tcp, _) = run_once(&CcKind::Reno, 5, Dur::from_millis(1), false);
        let (trm, _) = run_once(&trim, 5, Dur::from_millis(1), false);
        // Fig. 9: TCP saw-tooths into the ceiling and drops; TRIM's AQL
        // is far lower and it never drops.
        assert!(tcp.drops > 0, "TCP must overflow: {tcp:?}");
        assert_eq!(trm.drops, 0, "TRIM must not drop: {trm:?}");
        assert!(
            trm.avg_queue < tcp.avg_queue / 2.0,
            "TRIM AQL {} vs TCP {}",
            trm.avg_queue,
            tcp.avg_queue
        );
        // Fig. 9(d): TRIM's goodput stays near line rate (~98%).
        assert!(
            trm.goodput_mbps > 900.0,
            "TRIM goodput {} Mbps",
            trm.goodput_mbps
        );
    }
}
