//! Extension experiment: sensitivity to the minimum RTO.
//!
//! The paper varies RTO_min across its experiments (200 ms default, 20 ms
//! in Fig. 8, 1 ms in Fig. 9) without studying it directly; datacenter
//! incast work (Vasudevan et al.) showed RTO_min dominates TCP's incast
//! behaviour. This sweep quantifies how much of TCP-TRIM's advantage
//! survives when TCP gets an aggressively tuned timer — the answer being:
//! a small RTO_min shrinks TCP's penalty but cannot remove the drops and
//! retransmissions that TRIM avoids entirely.

use netsim::time::Dur;
use trim_harness::{record_for, Campaign};
use trim_tcp::CcKind;

use crate::experiments::concurrency;
use crate::num;
use crate::table::fmt_secs;
use crate::{Effort, Table};

const N_SPT: usize = 8;

/// Builds the RTO-sensitivity campaign: one job per (RTO_min, protocol)
/// on the 8-SPT/2-LPT cell. Every job shares the one cell's seed key,
/// so the sweep varies only the timer and the protocol — never the
/// workload.
pub fn campaign(effort: Effort) -> Campaign {
    let rtos_ms: Vec<u64> = effort.pick(vec![1, 20, 200], vec![1, 5, 10, 20, 50, 200]);

    let mut c = Campaign::new("rto_sensitivity", 0x870);
    for &ms in &rtos_ms {
        for proto in ["tcp", "trim"] {
            c.table_job_seeded(
                format!("rto{ms}_{proto}"),
                "cell",
                [
                    ("rto_min_ms", ms.to_string()),
                    ("protocol", proto.to_string()),
                ],
                move |seed| {
                    let cc = if proto == "trim" {
                        CcKind::trim_with_capacity(1_000_000_000, 1460)
                    } else {
                        CcKind::Reno
                    };
                    let cell = concurrency::run_cell_with_rto_seeded(
                        &cc,
                        N_SPT,
                        2,
                        Dur::from_millis(ms),
                        seed,
                    );
                    let mut t = Table::new("run", &["act", "timeouts"]);
                    t.row(&[num(cell.spt.mean), cell.timeouts.to_string()]);
                    t
                },
            );
        }
    }
    c.reduce(move |records| {
        let mut t = Table::new(
            "Extension — SPT ACT vs RTO_min (8 SPTs + 2 LPTs)",
            &[
                "rto_min_ms",
                "tcp_act",
                "trim_act",
                "tcp_timeouts",
                "trim_timeouts",
            ],
        );
        for &ms in &rtos_ms {
            let tcp = record_for(records, &format!("rto{ms}_tcp")).only();
            let trim = record_for(records, &format!("rto{ms}_trim")).only();
            t.row(&[
                format!("{ms}"),
                fmt_secs(tcp.f64_at(0, 0)),
                fmt_secs(trim.f64_at(0, 0)),
                tcp.cell(0, 1).to_string(),
                trim.cell(0, 1).to_string(),
            ]);
        }
        vec![("ext_rto_sensitivity".to_string(), t)]
    });
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_rto_helps_tcp_but_trim_still_wins() {
        let tcp_1ms = concurrency::run_cell_with_rto(&CcKind::Reno, 8, 2, Dur::from_millis(1));
        let tcp_200ms = concurrency::run_cell_with_rto(&CcKind::Reno, 8, 2, Dur::from_millis(200));
        let trim = CcKind::trim_with_capacity(1_000_000_000, 1460);
        let trim_1ms = concurrency::run_cell_with_rto(&trim, 8, 2, Dur::from_millis(1));
        // An aggressive timer slashes TCP's penalty...
        assert!(
            tcp_1ms.spt.mean < 0.3 * tcp_200ms.spt.mean,
            "1ms {} vs 200ms {}",
            tcp_1ms.spt.mean,
            tcp_200ms.spt.mean
        );
        // ...but TRIM needs no retransmissions at all.
        assert!(
            trim_1ms.spt.mean <= tcp_1ms.spt.mean * 1.5,
            "trim {} vs tcp-1ms {}",
            trim_1ms.spt.mean,
            tcp_1ms.spt.mean
        );
        assert_eq!(trim_1ms.timeouts, 0);
    }
}
