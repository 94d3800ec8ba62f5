//! Every metric the benchmark emits: name, unit and direction, and for
//! end-to-end metrics the regression bound. `BENCHMARK.json` repeats
//! this table; a test keeps the two in step.

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// One metric definition.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Def {
    /// Name: `[A-Za-z0-9_.-]`, starting with a letter or digit.
    pub name: &'static str,
    /// Unit. Simulated (not host) time is marked `sim_`.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
    /// A deterministic count or simulated-time outcome: two runs of the
    /// same commit and seed must agree on it exactly.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound: Some(bound),
        exact: false,
    }
}

const fn speed(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        bound: None,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        bound: None,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// Host-time metrics a user of the simulator sees, reported per
/// workload from untraced reps.
pub const END_TO_END: [Def; 3] = [
    e2e("wall_s", "s", Lower, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("work_per_s", "1/s", Higher, 0.25),
];

/// Metrics of single layers (layer = crate), from the traced run.
pub const PER_LAYER: [Def; 60] = [
    speed("netsim.pkt_hop_ns", "ns", Lower),
    speed("netsim.timer_fire_ns.p1k", "ns", Lower),
    speed("netsim.timer_fire_ns.p100k", "ns", Lower),
    speed("netsim.timer_rearm_ns.p100k", "ns", Lower),
    speed("netsim.queue_op_ns.droptail", "ns", Lower),
    speed("netsim.queue_op_ns.red", "ns", Lower),
    speed("netsim.queue_op_ns.codel", "ns", Lower),
    speed("netsim.star_build_us_per_host", "us", Lower),
    speed("netsim.fat_tree_build_ms", "ms", Lower),
    exact("netsim.pkts_injected", "count", Lower),
    exact("netsim.pkts_dropped", "count", Lower),
    exact("netsim.arena_high_water", "count", Lower),
    // Informational: the definition of an "event" is due to change.
    speed("netsim.events", "count", Lower),
    speed("trim-tcp.segment_ns.reno", "ns", Lower),
    speed("trim-tcp.segment_ns.trim", "ns", Lower),
    speed("trim-tcp.segment_ns.cubic", "ns", Lower),
    speed("trim-tcp.segment_ns.dctcp", "ns", Lower),
    speed("trim-tcp.cc_on_ack_ns.reno", "ns", Lower),
    speed("trim-tcp.cc_on_ack_ns.trim", "ns", Lower),
    speed("trim-tcp.cc_on_ack_ns.cubic", "ns", Lower),
    speed("trim-tcp.cc_on_ack_ns.dctcp", "ns", Lower),
    speed("trim-tcp.cc_on_ack_ns.l2dct", "ns", Lower),
    speed("trim-tcp.rto_observe_ns", "ns", Lower),
    speed("trim-tcp.wire_flow_us", "us", Lower),
    speed("trim-tcp.wire_flow_packed_us", "us", Lower),
    speed("trim-tcp.packed_run_ratio", "ratio", Lower),
    exact("trim-tcp.timeouts", "count", Lower),
    exact("trim-tcp.completed_flows", "count", Higher),
    speed("trim-core.alg2_on_ack_ns", "ns", Lower),
    speed("trim-core.alg1_send_attempt_ns", "ns", Lower),
    speed("trim-workload.summary_of_ns_per_sample", "ns", Lower),
    speed("trim-serve.session_gen_ns", "ns", Lower),
    exact("trim-serve.arct_p50_us", "sim_us", Lower),
    exact("trim-serve.arct_p99_us", "sim_us", Lower),
    exact("trim-serve.requests_completed", "count", Higher),
    speed("trim-check.monitor_overhead_ratio", "ratio", Lower),
    speed("trim-harness.job_overhead_us", "us", Lower),
    speed("trim-harness.csv_write_mb_per_s", "MB/s", Higher),
    speed("trim-harness.parallel_speedup", "ratio", Higher),
    speed("trim-experiments.exp_s.trace", "s", Lower),
    speed("trim-experiments.exp_s.impairment", "s", Lower),
    speed("trim-experiments.exp_s.concurrency", "s", Lower),
    speed("trim-experiments.exp_s.properties", "s", Lower),
    speed("trim-experiments.exp_s.convergence", "s", Lower),
    speed("trim-experiments.exp_s.fat_tree", "s", Lower),
    speed("trim-experiments.exp_s.testbed", "s", Lower),
    speed("trim-experiments.exp_s.kmodel", "s", Lower),
    speed("trim-experiments.exp_s.ablation", "s", Lower),
    speed("trim-experiments.exp_s.incast", "s", Lower),
    speed("trim-experiments.exp_s.rto_sensitivity", "s", Lower),
    speed("trim-experiments.exp_s.serve_slo", "s", Lower),
    speed("trim-experiments.exp_s.aqm_matrix", "s", Lower),
    speed("phase.build_s", "s", Lower),
    speed("phase.wire_s", "s", Lower),
    speed("phase.run_s", "s", Lower),
    speed("phase.harvest_s", "s", Lower),
    speed("phase.drop_s", "s", Lower),
    speed("trace.overhead_ratio", "ratio", Lower),
    speed("process.cold_rep_s", "s", Lower),
    speed("process.peak_rss_mb", "MiB", Lower),
];

/// A measured value of the catalogue metric `name`.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value, in the unit of the name's [`Def`].
    pub value: f64,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, value: f64) -> Self {
        Metric {
            name: name.into(),
            value,
        }
    }
}

/// The definition of `name`.
///
/// # Panics
///
/// Panics on a name the catalogue does not hold: emitting one is a bug.
pub fn def(name: &str) -> &'static Def {
    END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("metric '{name}' is not in the catalogue"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{CAMPAIGN_IDS, WORKLOADS};

    /// The word `BENCHMARK.json` uses for a direction.
    fn word(better: Better) -> &'static str {
        match better {
            Lower => "lower",
            Higher => "higher",
        }
    }

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_stay_inside_the_contract_charset() {
        assert!(!valid_name("has space") && !valid_name(".dot") && !valid_name("a/b"));
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(d.name), "bad name {}", d.name);
            assert!(valid_unit(d.unit), "bad unit {} of {}", d.unit, d.name);
            assert!(seen.insert(d.name), "duplicate {}", d.name);
        }
        for w in WORKLOADS {
            assert!(valid_name(w) && seen.insert(w), "bad workload name {w}");
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn every_campaign_experiment_has_its_metric() {
        for id in CAMPAIGN_IDS {
            assert_eq!(def(&format!("trim-experiments.exp_s.{id}")).unit, "s");
        }
    }

    #[test]
    fn bounds_respect_the_contract() {
        let setup = def("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        for d in &END_TO_END {
            let bound = d.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25);
            assert!(
                bound <= setup.bound.unwrap(),
                "setup_s has the largest bound"
            );
        }
        assert!(PER_LAYER.iter().all(|d| d.bound.is_none()));
    }

    /// `BENCHMARK.json` is written by hand in a fixed layout; this keeps
    /// it in step with the catalogue without a JSON parser.
    #[test]
    fn benchmark_json_repeats_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        for d in &END_TO_END {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                d.name,
                d.unit,
                word(d.better),
                d.bound.unwrap()
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for d in &PER_LAYER {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                d.name,
                d.unit,
                word(d.better)
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in WORKLOADS {
            assert!(
                json.contains(&format!("{{\"name\": \"{w}\", \"why\": ")),
                "no workload {w}"
            );
        }
        let entries = json.matches("{\"name\": ").count();
        assert_eq!(
            entries,
            WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len()
        );
    }
}
