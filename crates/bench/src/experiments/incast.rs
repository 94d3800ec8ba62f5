//! Extension experiment (beyond the paper's figures): partition/aggregate
//! query completion time versus fan-out.
//!
//! The paper's Section II.B.2 motivates TCP-TRIM with the
//! partition/aggregate pattern but never reports query-level numbers.
//! This experiment quantifies them: a query completes when its *slowest*
//! shard arrives, so one RTO on any worker stalls the whole query.

use trim_harness::{record_for, Campaign};
use trim_tcp::CcKind;
use trim_workload::incast::{incast_qct, QueryConfig};

use crate::num;
use crate::table::fmt_secs;
use crate::{Effort, Table};

/// The three protocols of the sweep, in column order.
fn protocols() -> [(&'static str, CcKind); 3] {
    [
        ("tcp", CcKind::Reno),
        ("dctcp", CcKind::Dctcp),
        ("trim", CcKind::trim_with_capacity(1_000_000_000, 1460)),
    ]
}

/// Builds the incast campaign: one job per (fan-out, protocol), with
/// protocols sharing each fan-out's warm-up seed, reduced into the
/// mean/tail/timeout tables.
pub fn campaign(effort: Effort) -> Campaign {
    let fanouts: Vec<usize> = effort.pick(vec![4, 8, 16, 32], vec![4, 8, 16, 32, 48, 64]);

    let mut c = Campaign::new("incast", 0x1ca5);
    for &n in &fanouts {
        for (proto, cc) in protocols() {
            let cc = cc.clone();
            c.table_job_seeded(
                format!("f{n}_{proto}"),
                format!("f{n}"),
                [("workers", n.to_string()), ("protocol", proto.to_string())],
                move |seed| {
                    let cfg = QueryConfig {
                        workers: n,
                        queries: 5,
                        seed,
                        ..QueryConfig::default()
                    };
                    let report = incast_qct(&cc, &cfg);
                    let q = report.queries();
                    let mut t = Table::new("run", &["mean", "max", "timeouts"]);
                    t.row(&[num(q.mean), num(q.max), report.timeouts.to_string()]);
                    t
                },
            );
        }
    }
    c.reduce(move |records| {
        let mut qct = Table::new(
            "Extension — mean query completion time vs fan-out (s)",
            &["workers", "tcp", "dctcp", "trim"],
        );
        let mut tail = Table::new(
            "Extension — worst query completion time vs fan-out (s)",
            &["workers", "tcp", "dctcp", "trim"],
        );
        let mut timeouts = Table::new(
            "Extension — timeouts during the query sweep",
            &["workers", "tcp", "dctcp", "trim"],
        );
        for &n in &fanouts {
            let row: Vec<&Table> = protocols()
                .iter()
                .map(|(proto, _)| record_for(records, &format!("f{n}_{proto}")).only())
                .collect();
            qct.row(&[
                format!("{n}"),
                fmt_secs(row[0].f64_at(0, 0)),
                fmt_secs(row[1].f64_at(0, 0)),
                fmt_secs(row[2].f64_at(0, 0)),
            ]);
            tail.row(&[
                format!("{n}"),
                fmt_secs(row[0].f64_at(0, 1)),
                fmt_secs(row[1].f64_at(0, 1)),
                fmt_secs(row[2].f64_at(0, 1)),
            ]);
            timeouts.row(&[
                format!("{n}"),
                row[0].cell(0, 2).to_string(),
                row[1].cell(0, 2).to_string(),
                row[2].cell(0, 2).to_string(),
            ]);
        }
        vec![
            ("ext_incast_qct".to_string(), qct),
            ("ext_incast_tail".to_string(), tail),
            ("ext_incast_timeouts".to_string(), timeouts),
        ]
    });
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_covers_every_fanout_and_protocol() {
        let c = campaign(Effort::Quick);
        assert_eq!(c.len(), 4 * 3);
        // Protocols are paired on the same workload per fan-out.
        assert_eq!(c.job_seed("f4_tcp"), c.job_seed("f4_trim"));
        assert_ne!(c.job_seed("f4_tcp"), c.job_seed("f8_tcp"));
    }
}
