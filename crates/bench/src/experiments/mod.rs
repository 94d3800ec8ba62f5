//! Experiment modules, one per paper artifact.
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`trace`] | Fig. 1, Fig. 2(a)/(b) — trace characterization |
//! | [`impairment`] | Fig. 4 (Reno) and Fig. 6 (TRIM) — ON/OFF impairment |
//! | [`concurrency`] | Fig. 5 (TCP) and Fig. 7 (TRIM) — concurrent SPTs |
//! | [`large_scale`] | Fig. 8 — 210..1050-server two-tier ACTs |
//! | [`properties`] | Fig. 9 — queue length, AQL, drops, goodput |
//! | [`convergence`] | Fig. 10 — fairness/convergence of 5 staggered LPTs |
//! | [`multihop`] | Fig. 11 — multi-hop multi-bottleneck throughput |
//! | [`fat_tree`] | Fig. 12 and Table I — protocol comparison in fat-tree |
//! | [`testbed`] | Fig. 13 — "testbed" ARCT and completion-time CDFs |
//! | [`kmodel`] | Section III.B — the K-guideline sweep (analytical) |
//! | [`ablation`] | design-choice ablations called out in DESIGN.md |
//! | [`incast`] | extension: partition/aggregate query completion |
//! | [`rto_sensitivity`] | extension: RTO_min sweep |
//! | [`serve`] | extension: web-serving session SLOs + mean-field fast path |
//! | [`aqm_matrix`] | extension: RED/CoDel tiny-buffer matrix + stability oracle |
//! | [`million_flow`] | extension: packed incast stressing the timer queue + flow slab |

pub mod ablation;
pub mod aqm_matrix;
pub mod concurrency;
pub mod convergence;
pub mod fat_tree;
pub mod impairment;
pub mod incast;
pub mod kmodel;
pub mod large_scale;
pub mod million_flow;
pub mod multihop;
pub mod properties;
pub mod rto_sensitivity;
pub mod serve;
pub mod testbed;
pub mod trace;
