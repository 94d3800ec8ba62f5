//! The experiment registry: every paper artifact as a named campaign.
//!
//! `trim-bench --list` prints this table; `--only <ids>` selects rows.

use trim_harness::{Campaign, Effort};

use crate::experiments;

/// One registered experiment.
#[derive(Debug)]
pub struct ExperimentSpec {
    /// Stable id used with `--only` and as the campaign id.
    pub id: &'static str,
    /// Human-readable title (paper artifact).
    pub title: &'static str,
    /// Builds the experiment's campaign at the given effort.
    pub campaign: fn(Effort) -> Campaign,
    /// Stems of the top-level `results/*.csv` goldens this experiment
    /// reduces to. `trim-lint --artifacts` statically cross-checks this
    /// list against the committed CSVs, the EXPERIMENTS.md narrative,
    /// and the reduce code in the experiment's module.
    pub artifacts: &'static [&'static str],
}

/// Every experiment, in suite order.
pub static ALL: &[ExperimentSpec] = &[
    ExperimentSpec {
        id: "trace",
        title: "fig1-2 trace characterization",
        campaign: experiments::trace::campaign,
        artifacts: &["fig1_trains", "fig2a_size_cdf", "fig2b_gap_cdf"],
    },
    ExperimentSpec {
        id: "impairment",
        title: "fig4/6 ON-OFF impairment",
        campaign: experiments::impairment::campaign,
        artifacts: &[
            "fig4_6_summary",
            "fig4_6_reno_detail",
            "fig4_6_reno_throughput",
            "fig4_6_trim_detail",
            "fig4_6_trim_throughput",
        ],
    },
    ExperimentSpec {
        id: "concurrency",
        title: "fig5/7 concurrent SPTs",
        campaign: experiments::concurrency::campaign,
        artifacts: &["fig5a_act", "fig5b_minmax", "fig7_tcp_vs_trim"],
    },
    ExperimentSpec {
        id: "large_scale",
        title: "fig8 large-scale ACT",
        campaign: experiments::large_scale::campaign,
        artifacts: &["fig8_exponential", "fig8_uniform"],
    },
    ExperimentSpec {
        id: "properties",
        title: "fig9 queue/goodput properties",
        campaign: experiments::properties::campaign,
        artifacts: &[
            "fig9a_queue_series",
            "fig9b_aql",
            "fig9c_drops",
            "fig9d_goodput",
        ],
    },
    ExperimentSpec {
        id: "convergence",
        title: "fig10 fairness/convergence",
        campaign: experiments::convergence::campaign,
        artifacts: &["fig10_fairness", "fig10_tcp", "fig10_trim"],
    },
    ExperimentSpec {
        id: "multihop",
        title: "fig11 multi-hop bottlenecks",
        campaign: experiments::multihop::campaign,
        artifacts: &["fig11_multihop"],
    },
    ExperimentSpec {
        id: "fat_tree",
        title: "fig12/tab1 fat-tree comparison",
        campaign: experiments::fat_tree::campaign,
        artifacts: &["fig12_fat_tree", "table1_timeouts"],
    },
    ExperimentSpec {
        id: "testbed",
        title: "fig13 testbed ARCT/CDF",
        campaign: experiments::testbed::campaign,
        artifacts: &["fig13a_arct", "fig13e_cdf", "fig13e_web_service"],
    },
    ExperimentSpec {
        id: "kmodel",
        title: "K-guideline analytical model",
        campaign: experiments::kmodel::campaign,
        artifacts: &[
            "kmodel_guideline",
            "kmodel_steady_state",
            "kmodel_validation",
        ],
    },
    ExperimentSpec {
        id: "ablation",
        title: "design-choice ablations",
        campaign: experiments::ablation::campaign,
        artifacts: &[
            "ablation_aqm",
            "ablation_concurrency",
            "ablation_impairment",
        ],
    },
    ExperimentSpec {
        id: "incast",
        title: "ext: incast query completion",
        campaign: experiments::incast::campaign,
        artifacts: &["ext_incast_qct", "ext_incast_tail", "ext_incast_timeouts"],
    },
    ExperimentSpec {
        id: "rto_sensitivity",
        title: "ext: RTO_min sweep",
        campaign: experiments::rto_sensitivity::campaign,
        artifacts: &["ext_rto_sensitivity"],
    },
    ExperimentSpec {
        id: "large_scale_100k",
        title: "ext: engine-scale incast (100k flows at --full)",
        campaign: experiments::large_scale::campaign_100k,
        artifacts: &["ext_scale_incast"],
    },
    ExperimentSpec {
        id: "serve_slo",
        title: "ext: web-serving session SLOs (2k sessions)",
        campaign: experiments::serve::campaign,
        artifacts: &["ext_serve_slo"],
    },
    ExperimentSpec {
        id: "serve_100k",
        title: "ext: highly concurrent serving (100k+ sessions)",
        campaign: experiments::serve::campaign_100k,
        artifacts: &["ext_serve_100k_slo", "ext_serve_100k_queue"],
    },
    ExperimentSpec {
        id: "aqm_matrix",
        title: "ext: AQM tiny-buffer matrix + RED stability crossval",
        campaign: experiments::aqm_matrix::campaign,
        artifacts: &["aqm_matrix", "aqm_stability"],
    },
    ExperimentSpec {
        id: "serve_meanfield",
        title: "ext: mean-field crossval + 1M-connection sweep",
        campaign: experiments::serve::campaign_meanfield,
        artifacts: &["ext_serve_crossval", "ext_serve_sweep"],
    },
    ExperimentSpec {
        id: "million_flow",
        title: "ext: packed incast stressing the timer queue + flow slab (1M at --full)",
        campaign: experiments::million_flow::campaign,
        artifacts: &["million_flow"],
    },
];

/// Looks an experiment up by id.
pub fn find(id: &str) -> Option<&'static ExperimentSpec> {
    ALL.iter().find(|s| s.id == id)
}

/// Every experiment id, in suite order.
pub fn ids() -> Vec<&'static str> {
    ALL.iter().map(|s| s.id).collect()
}
