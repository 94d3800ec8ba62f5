//! Ablations of TCP-TRIM's design choices (DESIGN.md's list): probe-pair
//! size, RTT-smoothing weight alpha, the K guideline versus naive
//! choices, per-RTT versus per-ACK back-off, and Eq. 1 window tuning
//! versus a GIP-style fixed restart. Each variant runs the Fig. 4/6
//! impairment scenario and the Fig. 7 concurrency cell.
//!
//! The scenarios pin their own workload seeds (42 for the impairment
//! workload, the legacy cell seed for the concurrency point) so every
//! variant sees the identical traffic; the campaign jobs therefore
//! ignore their derived seeds.

use netsim::prelude::*;
use netsim::topology::LinkSpec;
use rand::rngs::StdRng;
use rand::SeedableRng;
use trim_core::TrimConfig;
use trim_harness::{record_for, Campaign};
use trim_tcp::CcKind;
use trim_workload::http::impairment_workload;
use trim_workload::scenario::ScenarioBuilder;

use crate::experiments::concurrency;
use crate::num;
use crate::table::fmt_secs;
use crate::{Effort, Table};

/// A named TRIM variant (or baseline) for the ablation grid.
#[derive(Clone, Debug)]
pub struct Variant {
    /// Display name.
    pub name: &'static str,
    /// Congestion control to run.
    pub cc: CcKind,
}

/// The ablation grid.
pub fn variants() -> Vec<Variant> {
    let base = TrimConfig::default().with_capacity(1_000_000_000, 1460);
    let mk = |name: &'static str, cfg: TrimConfig| Variant {
        name,
        cc: CcKind::Trim(cfg),
    };
    vec![
        mk("trim (paper)", base),
        mk(
            "probe=1",
            TrimConfig {
                probe_packets: 1,
                ..base
            },
        ),
        mk(
            "probe=4",
            TrimConfig {
                probe_packets: 4,
                ..base
            },
        ),
        mk("alpha=0.1", TrimConfig { alpha: 0.1, ..base }),
        mk("alpha=0.5", TrimConfig { alpha: 0.5, ..base }),
        mk(
            "K=minRTT",
            TrimConfig {
                capacity_pps: None,
                k_fallback_factor: 1.0,
                ..base
            },
        ),
        mk(
            "K=2*minRTT",
            TrimConfig {
                capacity_pps: None,
                k_fallback_factor: 2.0,
                ..base
            },
        ),
        mk(
            "per-ack backoff",
            TrimConfig {
                backoff_per_rtt: false,
                ..base
            },
        ),
        Variant {
            name: "gip restart",
            cc: CcKind::Gip,
        },
        Variant {
            name: "reno",
            cc: CcKind::Reno,
        },
    ]
}

/// Impairment-scenario outcome for one variant.
#[derive(Clone, Copy, Debug)]
pub struct AblationCell {
    /// Total timeouts.
    pub timeouts: u64,
    /// Bottleneck drops.
    pub drops: u64,
    /// Peak bottleneck queue (packets).
    pub max_queue: usize,
    /// Mean completion time across all trains (s).
    pub act: f64,
}

/// Runs the impairment scenario for a variant.
pub fn impairment_cell(cc: &CcKind) -> AblationCell {
    impairment_cell_with_queue(cc, QueueConfig::drop_tail(100))
}

/// Like [`impairment_cell`] but with a custom switch-queue discipline
/// (used for the AQM-versus-end-host comparison).
pub fn impairment_cell_with_queue(cc: &CcKind, queue: QueueConfig) -> AblationCell {
    let link = LinkSpec::new(Bandwidth::gbps(1), Dur::from_micros(50), queue);
    let mut sc = ScenarioBuilder::many_to_one(5)
        .congestion_control(cc.clone())
        .links(link)
        .build();
    let mut rng = StdRng::seed_from_u64(42);
    for s in 0..5 {
        sc.send_trains(s, impairment_workload(&mut rng));
    }
    let report = sc.run_for_secs(3.0);
    AblationCell {
        timeouts: report.total_timeouts(),
        drops: report.bottleneck.dropped,
        max_queue: report.bottleneck.max_len,
        act: report.act().mean,
    }
}

/// The raw artifact for an impairment-style cell.
fn impairment_table(c: AblationCell) -> Table {
    let mut t = Table::new("cell", &["timeouts", "drops", "max_queue", "act"]);
    t.row(&[
        c.timeouts.to_string(),
        c.drops.to_string(),
        c.max_queue.to_string(),
        num(c.act),
    ]);
    t
}

/// The switch-AQM comparison grid: (label, protocol, queue discipline).
fn aqm_rows() -> Vec<(&'static str, CcKind, QueueConfig)> {
    let red = RedConfig::default();
    vec![
        (
            "reno + drop-tail",
            CcKind::Reno,
            QueueConfig::drop_tail(100),
        ),
        (
            "reno + RED",
            CcKind::Reno,
            QueueConfig::drop_tail(100).with_red(red),
        ),
        (
            "dctcp + RED-ECN",
            CcKind::Dctcp,
            QueueConfig::drop_tail(100).with_red(RedConfig { ecn: true, ..red }),
        ),
        (
            "trim + drop-tail",
            CcKind::trim_with_capacity(1_000_000_000, 1460),
            QueueConfig::drop_tail(100),
        ),
    ]
}

/// Builds the ablation campaign: per variant, one impairment job and
/// one concurrency-cell job, plus one job per switch-AQM setup.
pub fn campaign(_effort: Effort) -> Campaign {
    let mut c = Campaign::new("ablation", 0xAB1);
    for v in variants() {
        let cc = v.cc.clone();
        c.table_job(
            format!("imp_{}", v.name),
            [("variant", v.name.to_string())],
            move |_seed| impairment_table(impairment_cell(&cc)),
        );
        let cc = v.cc.clone();
        c.table_job(
            format!("conc_{}", v.name),
            [("variant", v.name.to_string())],
            move |_seed| {
                let cell = concurrency::run_cell(&cc, 8, 2);
                let mut t = Table::new("cell", &["spt_act", "spt_max", "timeouts"]);
                t.row(&[
                    num(cell.spt.mean),
                    num(cell.spt.max),
                    cell.timeouts.to_string(),
                ]);
                t
            },
        );
    }
    for (name, cc, q) in aqm_rows() {
        c.table_job(
            format!("aqm_{name}"),
            [("setup", name.to_string())],
            move |_seed| impairment_table(impairment_cell_with_queue(&cc, q)),
        );
    }
    c.reduce(move |records| {
        let mut t1 = Table::new(
            "Ablation — impairment scenario (5 servers, Fig. 4/6 workload)",
            &["variant", "timeouts", "drops", "max_queue", "act"],
        );
        let mut t2 = Table::new(
            "Ablation — concurrency cell (8 SPTs + 2 LPTs, Fig. 7 point)",
            &["variant", "spt_act", "spt_max", "timeouts"],
        );
        for v in variants() {
            let imp = record_for(records, &format!("imp_{}", v.name)).only();
            t1.row(&[
                v.name.to_string(),
                imp.cell(0, 0).to_string(),
                imp.cell(0, 1).to_string(),
                imp.cell(0, 2).to_string(),
                fmt_secs(imp.f64_at(0, 3)),
            ]);
            let conc = record_for(records, &format!("conc_{}", v.name)).only();
            t2.row(&[
                v.name.to_string(),
                fmt_secs(conc.f64_at(0, 0)),
                fmt_secs(conc.f64_at(0, 1)),
                conc.cell(0, 2).to_string(),
            ]);
        }
        // Can a switch-side AQM substitute for TRIM's end-host control?
        let mut t3 = Table::new(
            "Ablation — switch AQM vs end-host control (impairment workload)",
            &["setup", "timeouts", "drops", "max_queue", "act"],
        );
        for (name, _, _) in aqm_rows() {
            let cell = record_for(records, &format!("aqm_{name}")).only();
            t3.row(&[
                name.to_string(),
                cell.cell(0, 0).to_string(),
                cell.cell(0, 1).to_string(),
                cell.cell(0, 2).to_string(),
                fmt_secs(cell.f64_at(0, 3)),
            ]);
        }
        vec![
            ("ablation_impairment".to_string(), t1),
            ("ablation_concurrency".to_string(), t2),
            ("ablation_aqm".to_string(), t3),
        ]
    });
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_variant_dominates_reno() {
        let vs = variants();
        let trim = impairment_cell(&vs[0].cc);
        let reno = impairment_cell(&vs.last().expect("reno last").cc);
        assert_eq!(trim.timeouts, 0);
        assert!(reno.timeouts > 0);
        assert!(trim.act < reno.act);
    }

    #[test]
    fn single_probe_still_avoids_timeouts() {
        let vs = variants();
        let probe1 = impairment_cell(&vs[1].cc);
        assert_eq!(probe1.timeouts, 0, "{probe1:?}");
    }

    #[test]
    fn per_ack_backoff_trades_queue_for_nothing() {
        // Ablation finding: applying Eq. 3 literally on every ACK is
        // self-regulating (ep -> 0 as RTT -> K), so goodput is unchanged
        // while the average queue sits lower. The per-RTT rate limit is
        // what the paper's "no more aggressive than legacy TCP"
        // stipulation and Eq. 10's one-decrement-per-round model assume,
        // but it is not load-bearing for throughput.
        use crate::experiments::properties;
        use netsim::time::Dur;
        let vs = variants();
        let (per_rtt, _) = properties::run_once(&vs[0].cc, 5, Dur::from_millis(1), false);
        let (per_ack, _) = properties::run_once(&vs[7].cc, 5, Dur::from_millis(1), false);
        assert!(
            per_ack.goodput_mbps > 0.95 * per_rtt.goodput_mbps,
            "goodput comparable: {} vs {} Mbps",
            per_ack.goodput_mbps,
            per_rtt.goodput_mbps
        );
        assert!(
            per_ack.avg_queue < per_rtt.avg_queue,
            "per-ACK holds a shorter queue: {} vs {}",
            per_ack.avg_queue,
            per_rtt.avg_queue
        );
        assert_eq!(per_ack.drops, 0);
    }
}
