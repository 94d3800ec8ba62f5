//! Mean-field fluid fast path for fleet-scale serving sweeps.
//!
//! Where [`crate::kmodel`] solves the synchronized steady state of
//! Section III.B in closed form, this module integrates the per-class
//! fluid (mean-field) ODEs for congestion-window and bottleneck-queue
//! dynamics, so what-if sweeps over `(C, D, K, N)` with millions of
//! connections run in milliseconds instead of hours of packet-level
//! simulation. The abstraction follows the classic fluid-model
//! treatment of RED/TCP interaction (Reynier's mean-field stability
//! analysis in the related-work list): each *class* `c` of `N_c`
//! statistically identical connections is reduced to one representative
//! window trajectory `W_c(t)`, and the shared bottleneck queue `q(t)`
//! closes the loop through the round-trip time `RTT_c = D_c + q/C`.
//!
//! Per Euler step of length `dt`:
//!
//! - queue: `dq/dt = Σ_c N_c·W_c/RTT_c − C`, clamped to `[0, B]`;
//! - TRIM class: `dW/dt = 1/RTT − (ep/2)·W/RTT` with congestion level
//!   `ep = (RTT − K)/RTT` when `RTT > K`, else `ep = 0` (Eqs. 1–3 in
//!   rate form: one additive increment and at most one `ep/2` decrement
//!   per RTT);
//! - Reno class: `dW/dt = 1/RTT`, plus a synchronized halving of every
//!   Reno window when the queue saturates (drop-tail incast loss, at
//!   most once per RTT per class).
//!
//! The TRIM equilibrium of these ODEs recovers the kmodel targets: rate
//! balance gives `N·W = C·RTT`, the window equilibrium gives
//! `ep·W = 2`, and together `q* = C(K − D) + 2N` — the Eq. 4 target
//! queue plus an `Θ(N)` excess bracketed by the Eq. 7 peak. The
//! cross-validation suite in `crates/serve` gates this model against
//! packet-level simulation on small instances.
//!
//! Everything here is pure `f64` arithmetic over the inputs: no clocks,
//! no randomness, deterministic across runs and worker counts.

use crate::config::MIN_CWND;

const NS_PER_SEC: f64 = 1e9;

/// The congestion controller a fluid class runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FluidCc {
    /// Loss-driven AIMD: additive increase, synchronized halving when
    /// the bottleneck buffer saturates.
    Reno,
    /// TCP-TRIM's delay-driven control with RTT threshold `K`.
    Trim {
        /// The RTT threshold `K` in nanoseconds.
        k_ns: u64,
    },
}

/// RED parameters for the fluid bottleneck, mirroring the packet-level
/// `RedConfig` (thresholds and probabilities in packets; `wq` is the
/// per-packet EWMA weight, converted to a continuous-time averaging rate
/// `a = wq·C` inside the integrator).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RedFluid {
    /// Average queue length below which nothing is dropped.
    pub min_th: f64,
    /// Average queue length above which everything is dropped.
    pub max_th: f64,
    /// Drop probability at `max_th`.
    pub max_p: f64,
    /// Per-packet EWMA weight of the average-queue estimate.
    pub wq: f64,
}

impl RedFluid {
    /// The drop probability at average queue `avg` — the same
    /// min/max-threshold interpolation as the packet-level queue.
    pub fn prob(&self, avg: f64) -> f64 {
        if avg <= self.min_th {
            0.0
        } else if avg >= self.max_th {
            1.0
        } else {
            self.max_p * (avg - self.min_th) / (self.max_th - self.min_th)
        }
    }

    /// The slope `dp/davg` inside the linear band, 0 outside it.
    pub fn slope(&self, avg: f64) -> f64 {
        if avg > self.min_th && avg < self.max_th {
            self.max_p / (self.max_th - self.min_th)
        } else {
            0.0
        }
    }
}

/// The bottleneck's queue discipline in the fluid model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FluidAqm {
    /// Pure drop-tail: losses only on buffer saturation.
    DropTail,
    /// RED early dropping from the EWMA queue estimate. The drop-tail
    /// saturation backstop still applies at the buffer limit.
    Red(RedFluid),
}

/// One class of statistically identical connections.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FluidClass {
    /// Number of connections aggregated into this class (may be huge —
    /// the integration cost does not depend on it).
    pub n: f64,
    /// Base (unloaded) round-trip time `D` in nanoseconds.
    pub base_rtt_ns: u64,
    /// The class's congestion controller.
    pub cc: FluidCc,
}

/// The shared bottleneck and integration parameters.
#[derive(Clone, Debug, PartialEq)]
pub struct FluidConfig {
    /// Bottleneck capacity `C` in packets per second.
    pub capacity_pps: f64,
    /// Bottleneck buffer `B` in packets.
    pub buffer_pkts: f64,
    /// The connection classes sharing the bottleneck.
    pub classes: Vec<FluidClass>,
    /// Euler step in nanoseconds. Must divide the horizon into at least
    /// one step; 10 µs resolves datacenter RTTs comfortably.
    pub dt_ns: u64,
    /// Integration horizon in nanoseconds.
    pub horizon_ns: u64,
    /// The bottleneck's queue discipline.
    pub aqm: FluidAqm,
}

impl FluidConfig {
    /// Sensible defaults for one class on the paper's canonical 1 Gbps
    /// bottleneck: 10 µs steps over a 2 s horizon, drop-tail.
    pub fn single_class(capacity_pps: f64, buffer_pkts: f64, class: FluidClass) -> Self {
        FluidConfig {
            capacity_pps,
            buffer_pkts,
            classes: vec![class],
            dt_ns: 10_000,
            horizon_ns: 2 * NS_PER_SEC as u64,
            aqm: FluidAqm::DropTail,
        }
    }

    /// Switches the bottleneck to RED.
    pub fn with_red(mut self, red: RedFluid) -> Self {
        self.aqm = FluidAqm::Red(red);
        self
    }
}

/// Time-averaged outcome of one fluid integration (averages taken over
/// the second half of the horizon, past the transient).
#[derive(Clone, Debug, PartialEq)]
pub struct FluidOutcome {
    /// Final per-class windows in packets.
    pub windows: Vec<f64>,
    /// Final queue length in packets.
    pub queue: f64,
    /// Time-averaged queue length in packets.
    pub mean_queue: f64,
    /// Peak queue length in packets over the whole horizon.
    pub max_queue: f64,
    /// Time-averaged per-class round-trip time in nanoseconds.
    pub mean_rtt_ns: Vec<f64>,
    /// Time-averaged per-connection throughput `W/RTT` per class, in
    /// packets per second.
    pub per_flow_rate_pps: Vec<f64>,
    /// Time-averaged bottleneck utilization in `[0, 1]`.
    pub utilization: f64,
    /// Peak-to-trough queue swing (max − min, in packets) over the
    /// settled second half of the horizon. A converged system shows a
    /// swing near zero; a limit cycle keeps a large swing forever.
    pub settled_queue_swing: f64,
}

impl FluidOutcome {
    /// Predicted mean application-level response completion time for a
    /// response of `pkts` packets served to a connection of class
    /// `class_idx`, in nanoseconds.
    ///
    /// An ack-clocked connection opens each response with a burst of one
    /// window `W = rate·RTT`, then clocks the remaining `pkts − W` out at
    /// its steady per-flow rate; the last packet is acknowledged one RTT
    /// after it leaves. The burst and the final round trip cancel:
    ///
    /// `ARCT ≈ RTT + (pkts − W)/rate = pkts/rate` once `pkts ≥ W`,
    ///
    /// and a response smaller than one window completes in a single
    /// round trip — hence `max(RTT, pkts/rate)`.
    ///
    /// # Panics
    ///
    /// Panics if `class_idx` is out of range.
    pub fn predicted_arct_ns(&self, class_idx: usize, pkts: f64) -> f64 {
        let rate = self.per_flow_rate_pps[class_idx];
        let rtt = self.mean_rtt_ns[class_idx];
        (pkts / rate * NS_PER_SEC).max(rtt)
    }
}

/// Integrates the fluid ODEs over the configured horizon.
///
/// Deterministic: a pure function of `cfg`.
///
/// # Panics
///
/// Panics if the config is degenerate (no classes, non-positive
/// capacity, zero step, or a step exceeding the horizon).
pub fn integrate(cfg: &FluidConfig) -> FluidOutcome {
    assert!(!cfg.classes.is_empty(), "fluid model needs >= 1 class");
    assert!(
        cfg.capacity_pps.is_finite() && cfg.capacity_pps > 0.0,
        "capacity must be positive"
    );
    assert!(cfg.dt_ns > 0, "step must be positive");
    assert!(cfg.horizon_ns >= cfg.dt_ns, "horizon shorter than one step");
    for cl in &cfg.classes {
        assert!(cl.n > 0.0, "class population must be positive");
        assert!(cl.base_rtt_ns > 0, "base RTT must be positive");
    }

    let dt = cfg.dt_ns as f64 / NS_PER_SEC;
    let c = cfg.capacity_pps;
    let steps = (cfg.horizon_ns / cfg.dt_ns) as usize;
    let settle = steps / 2; // transient discarded from the averages

    let mut w: Vec<f64> = cfg.classes.iter().map(|_| MIN_CWND).collect();
    let mut q = 0.0f64;
    // RED's EWMA queue estimate in continuous time: the per-packet
    // weight wq applied at the arrival rate ~C becomes an averaging
    // rate a = wq·C (Reynier's mean-field reduction of the estimator).
    let mut q_avg = 0.0f64;
    // Synchronized Reno halving fires at most once per RTT per class.
    let mut next_halve_s: Vec<f64> = vec![0.0; cfg.classes.len()];

    let mut max_queue = 0.0f64;
    let mut acc_queue = 0.0f64;
    let mut acc_rtt = vec![0.0f64; cfg.classes.len()];
    let mut acc_rate = vec![0.0f64; cfg.classes.len()];
    let mut acc_util = 0.0f64;
    let mut samples = 0usize;
    let mut settled_min = f64::INFINITY;
    let mut settled_max = f64::NEG_INFINITY;

    let mut rtts = vec![0.0f64; cfg.classes.len()];
    for step in 0..steps {
        let t = step as f64 * dt;
        let mut arrival = 0.0f64;
        for (i, cl) in cfg.classes.iter().enumerate() {
            let rtt = cl.base_rtt_ns as f64 / NS_PER_SEC + q / c;
            rtts[i] = rtt;
            arrival += cl.n * w[i] / rtt;
        }

        // RED early-drop probability from the averaged queue.
        let p_red = match cfg.aqm {
            FluidAqm::DropTail => 0.0,
            FluidAqm::Red(red) => red.prob(q_avg),
        };

        // Queue update, clamped to the buffer: RED sheds `p_red` of the
        // arrivals before they enqueue. Saturation with positive excess
        // inflow is the drop signal for loss-driven classes.
        let q_next = (q + (arrival * (1.0 - p_red) - c) * dt).clamp(0.0, cfg.buffer_pkts);
        let saturated = q_next >= cfg.buffer_pkts && arrival > c;

        for (i, cl) in cfg.classes.iter().enumerate() {
            let rtt = rtts[i];
            // Early losses hit each flow at rate p·W/RTT, and each
            // halves the window: the classic −p·W²/(2·RTT) fluid term.
            let red_cut = p_red * w[i] * w[i] / (2.0 * rtt) * dt;
            let dw = match cl.cc {
                FluidCc::Reno => {
                    if saturated && t >= next_halve_s[i] {
                        next_halve_s[i] = t + rtt;
                        w[i] = (w[i] / 2.0).max(MIN_CWND);
                    }
                    dt / rtt - red_cut
                }
                FluidCc::Trim { k_ns } => {
                    let k = k_ns as f64 / NS_PER_SEC;
                    let ep = if rtt > k { (rtt - k) / rtt } else { 0.0 };
                    dt / rtt - ep / 2.0 * w[i] / rtt * dt - red_cut
                }
            };
            w[i] = (w[i] + dw).max(MIN_CWND);
        }
        q = q_next;
        if let FluidAqm::Red(red) = cfg.aqm {
            let alpha = (red.wq * c * dt).min(1.0);
            q_avg += alpha * (q - q_avg);
        }
        max_queue = max_queue.max(q);

        if step >= settle {
            samples += 1;
            acc_queue += q;
            acc_util += (arrival / c).min(1.0);
            settled_min = settled_min.min(q);
            settled_max = settled_max.max(q);
            for (i, _) in cfg.classes.iter().enumerate() {
                acc_rtt[i] += rtts[i];
                acc_rate[i] += w[i] / rtts[i];
            }
        }
    }

    let nsamp = samples.max(1) as f64;
    FluidOutcome {
        windows: w,
        queue: q,
        mean_queue: acc_queue / nsamp,
        max_queue,
        mean_rtt_ns: acc_rtt.iter().map(|r| r / nsamp * NS_PER_SEC).collect(),
        per_flow_rate_pps: acc_rate.iter().map(|r| r / nsamp).collect(),
        utilization: acc_util / nsamp,
        settled_queue_swing: if samples > 0 {
            settled_max - settled_min
        } else {
            0.0
        },
    }
}

/// Verdict of the RED mean-field stability predicate
/// ([`red_stability`]): the fluid equilibrium and whether small
/// perturbations around it decay (stable) or grow into a limit cycle.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RedStabilityVerdict {
    /// Whether the equilibrium is locally asymptotically stable.
    pub stable: bool,
    /// Equilibrium per-flow window `W*` in packets.
    pub w_star: f64,
    /// Equilibrium queue `q*` in packets.
    pub q_star: f64,
    /// Equilibrium drop probability `p* = 2/W*²`.
    pub p_star: f64,
    /// Routh–Hurwitz margin `c2·c1 / c0`: stable iff > 1. The further
    /// above 1, the better damped; far below 1 means a strong limit
    /// cycle.
    pub margin: f64,
}

/// Reynier-style mean-field stability condition for `n` synchronized
/// AIMD (Reno) flows through one RED bottleneck of capacity
/// `capacity_pps` and base round-trip `base_rtt_ns`.
///
/// The three-state fluid model is the one [`integrate`] solves
/// numerically — per-flow window `W`, queue `q`, EWMA estimate `v`:
///
/// - `dW/dt = 1/R − p(v)·W²/(2R)` with `R = D + q/C`,
/// - `dq/dt = N·W/R − C`,
/// - `dv/dt = a·(q − v)` with averaging rate `a = wq·C`.
///
/// Its equilibrium solves `p(q*) = 2N²/(C·R*)²` (rate balance
/// `N·W* = C·R*` plus window balance `p* = 2/W*²`); the unique root is
/// found by bisection since `p` is nondecreasing in `q` while the
/// demand side decreases. Linearizing around the equilibrium gives the
/// characteristic cubic `λ³ + c2·λ² + c1·λ + c0` with
///
/// `c2 = a1+a2+a`, `c1 = a1a2 + a1a + a2a`, `c0 = a1a2a + a·ρ·C²/(2N)`
///
/// where `a1 = 2/(W*R*)`, `a2 = 1/R*`, and `ρ = dp/dq` is the RED band
/// slope at `q*`. By Routh–Hurwitz the equilibrium is stable iff
/// `c2·c1 > c0`: a steep RED band (`ρ` large), few flows (`N` small), or
/// sluggish averaging destabilize the loop and the queue/windows settle
/// into a sustained oscillation instead of a fixed point.
///
/// Windows pinned at the floor (`W* ≤ 2`, [`MIN_CWND`])
/// cannot oscillate and are reported stable.
///
/// # Panics
///
/// Panics on non-positive `capacity_pps`, `base_rtt_ns`, or `n`, or on
/// a degenerate RED band (`min_th >= max_th`).
pub fn red_stability(
    capacity_pps: f64,
    base_rtt_ns: u64,
    n: f64,
    red: &RedFluid,
) -> RedStabilityVerdict {
    assert!(
        capacity_pps.is_finite() && capacity_pps > 0.0,
        "capacity must be positive"
    );
    assert!(base_rtt_ns > 0, "base RTT must be positive");
    assert!(n.is_finite() && n > 0.0, "population must be positive");
    assert!(red.min_th < red.max_th, "RED band must be non-degenerate");

    let c = capacity_pps;
    let d = base_rtt_ns as f64 / NS_PER_SEC;
    let rtt = |q: f64| d + q / c;
    // Drop probability the equilibrium demands at queue q:
    // p = 2/W*² with W* = C·R(q)/N.
    let demand = |q: f64| 2.0 * n * n / (c * rtt(q)).powi(2);
    let excess = |q: f64| red.prob(q) - demand(q);

    // Unique root of `excess` by bisection: supply is nondecreasing,
    // demand strictly decreasing. Bracket from the empty queue up past
    // the hard-drop threshold (where prob = 1 ≥ demand, unless demand
    // exceeds 1 everywhere — the floor-pinned regime).
    let mut lo = 0.0f64;
    let mut hi = red.max_th.max(1.0) + 2.0 * n;
    let q_star = if excess(lo) >= 0.0 {
        lo
    } else {
        while excess(hi) < 0.0 {
            hi *= 2.0;
            if hi > 1e12 {
                break;
            }
        }
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if excess(mid) < 0.0 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    };

    let r_star = rtt(q_star);
    let w_star = c * r_star / n;
    let p_star = 2.0 / (w_star * w_star);
    if w_star <= MIN_CWND + 1e-9 {
        // Floor-pinned: the window cannot respond, so there is no loop
        // to destabilize.
        return RedStabilityVerdict {
            stable: true,
            w_star: MIN_CWND.max(w_star),
            q_star,
            p_star,
            margin: f64::INFINITY,
        };
    }

    let rho = red.slope(q_star);
    let a1 = 2.0 / (w_star * r_star);
    let a2 = 1.0 / r_star;
    let a = red.wq * c;
    let c2 = a1 + a2 + a;
    let c1 = a1 * a2 + a1 * a + a2 * a;
    let c0 = a1 * a2 * a + a * rho * c * c / (2.0 * n);
    let margin = c2 * c1 / c0;
    RedStabilityVerdict {
        stable: margin > 1.0,
        w_star,
        q_star,
        p_star,
        margin,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kmodel;

    /// The paper's canonical bottleneck: 1 Gbps of 1460-byte packets.
    const C: f64 = 1e9 / (1460.0 * 8.0);

    fn trim_class(n: f64, d_ns: u64, k_ns: u64) -> FluidClass {
        FluidClass {
            n,
            base_rtt_ns: d_ns,
            cc: FluidCc::Trim { k_ns },
        }
    }

    #[test]
    fn trim_equilibrium_matches_the_kmodel_queue_target() {
        // N = 16 connections, D = 200 µs, K at the Eq. 22 guideline.
        let d_ns = 200_000;
        let k_ns = kmodel::k_lower_bound_ns(C, d_ns);
        let n = 16u32;
        let out = integrate(&FluidConfig::single_class(
            C,
            10_000.0, // effectively infinite buffer: delay-controlled
            trim_class(n as f64, d_ns, k_ns),
        ));
        let ss = kmodel::steady_state(C, d_ns, k_ns, n);
        // Fluid equilibrium q* = C(K - D) + 2N sits between the Eq. 4
        // target and slightly above the Eq. 7 peak.
        let expect = ss.target_queue + 2.0 * n as f64;
        assert!(
            (out.mean_queue - expect).abs() / expect < 0.05,
            "fluid queue {} vs analytic {expect}",
            out.mean_queue
        );
        assert!(out.utilization > 0.99, "TRIM keeps the link busy");
    }

    #[test]
    fn trim_rate_balance_shares_capacity_evenly() {
        let d_ns = 100_000;
        let k_ns = kmodel::k_lower_bound_ns(C, d_ns);
        for n in [4.0, 8.0, 64.0] {
            let out = integrate(&FluidConfig::single_class(
                C,
                10_000.0,
                trim_class(n, d_ns, k_ns),
            ));
            let fair = C / n;
            let rate = out.per_flow_rate_pps[0];
            assert!(
                (rate - fair).abs() / fair < 0.05,
                "n={n}: per-flow rate {rate} vs fair share {fair}"
            );
        }
    }

    #[test]
    fn reno_sawtooth_fills_the_buffer_and_halves() {
        let out = integrate(&FluidConfig::single_class(
            C,
            100.0,
            FluidClass {
                n: 8.0,
                base_rtt_ns: 200_000,
                cc: FluidCc::Reno,
            },
        ));
        // Loss-driven control rides the buffer: the peak hits the cap,
        // and the synchronized halving then drains the queue and loses
        // utilization — the aggressive-TCP pathology the paper targets.
        assert!((out.max_queue - 100.0).abs() < 1.0);
        assert!(out.mean_queue > 10.0);
        assert!(out.utilization > 0.5 && out.utilization < 1.0);
        // TRIM on the identical bottleneck keeps the link busy.
        let k_ns = kmodel::k_lower_bound_ns(C, 200_000);
        let trim = integrate(&FluidConfig::single_class(
            C,
            100.0,
            trim_class(8.0, 200_000, k_ns),
        ));
        assert!(trim.utilization > out.utilization);
    }

    #[test]
    fn trim_queue_scales_with_population_not_capacity_waste() {
        // Million-connection sweep: the whole point of the fast path.
        // Each integration is a few hundred thousand f64 steps.
        let d_ns = 100_000;
        let k_ns = kmodel::k_lower_bound_ns(C, d_ns);
        // A million windows at the floor of 2 need RTT ~ 2N/C ~ 23 s to
        // balance, so the sweep uses coarse 1 ms steps over a 60 s
        // horizon — still only 60k f64 steps, done in microseconds.
        let sweep = |n: f64| {
            integrate(&FluidConfig {
                capacity_pps: C,
                buffer_pkts: 5_000_000.0,
                classes: vec![trim_class(n, d_ns, k_ns)],
                dt_ns: 1_000_000,
                horizon_ns: 60_000_000_000,
                aqm: FluidAqm::DropTail,
            })
        };
        let small = sweep(1_000.0);
        let large = sweep(1_000_000.0);
        // At the window floor, rate balance pins q* near 2N/C * C = 2N.
        assert!(large.mean_queue > small.mean_queue + 1_500_000.0);
        assert!(large.utilization > 0.99);
    }

    #[test]
    fn integration_is_deterministic() {
        let cfg = FluidConfig {
            capacity_pps: C,
            buffer_pkts: 100.0,
            classes: vec![
                trim_class(8.0, 100_000, 300_000),
                FluidClass {
                    n: 4.0,
                    base_rtt_ns: 200_000,
                    cc: FluidCc::Reno,
                },
            ],
            dt_ns: 10_000,
            horizon_ns: 1_000_000_000,
            aqm: FluidAqm::DropTail,
        };
        let a = integrate(&cfg);
        let b = integrate(&cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn predicted_arct_is_service_time_floored_by_the_round_trip() {
        let d_ns = 200_000;
        let k_ns = kmodel::k_lower_bound_ns(C, d_ns);
        let out = integrate(&FluidConfig::single_class(
            C,
            10_000.0,
            trim_class(8.0, d_ns, k_ns),
        ));
        // A long response is rate-limited: the opening window burst and
        // the final round trip cancel.
        let pkts = 69.0; // ~100 KB of 1460-byte segments
        let arct = out.predicted_arct_ns(0, pkts);
        let service = pkts / out.per_flow_rate_pps[0] * 1e9;
        assert!((arct - service).abs() < 1.0);
        // A sub-window response completes in one round trip.
        let tiny = out.predicted_arct_ns(0, 1.0);
        assert!((tiny - out.mean_rtt_ns[0]).abs() < 1.0);
        assert!(arct > tiny);
    }

    /// A steep RED band on a long-RTT, two-to-four-flow bottleneck sits
    /// deep in the unstable region: the Routh–Hurwitz margin is far
    /// below 1 and the integrated fluid queue keeps a sustained
    /// limit-cycle swing instead of converging.
    #[test]
    fn red_predicate_and_integration_agree_on_instability() {
        let red = RedFluid {
            min_th: 10.0,
            max_th: 20.0,
            max_p: 1.0,
            wq: 0.01,
        };
        for (d_ns, n) in [(1_000_000u64, 4.0f64), (500_000, 2.0)] {
            let v = red_stability(C, d_ns, n, &red);
            assert!(!v.stable, "D={d_ns} N={n}: margin {}", v.margin);
            assert!(v.margin < 0.1, "deep instability, got {}", v.margin);
            let out = integrate(
                &FluidConfig {
                    capacity_pps: C,
                    buffer_pkts: 100.0,
                    classes: vec![FluidClass {
                        n,
                        base_rtt_ns: d_ns,
                        cc: FluidCc::Reno,
                    }],
                    dt_ns: 10_000,
                    horizon_ns: 4 * NS_PER_SEC as u64,
                    aqm: FluidAqm::DropTail,
                }
                .with_red(red),
            );
            assert!(
                out.settled_queue_swing > 5.0,
                "D={d_ns} N={n}: limit cycle must persist, swing {}",
                out.settled_queue_swing
            );
        }
    }

    /// The default (gentle) RED band at datacenter RTTs is stable: the
    /// margin clears 1 and the integrated queue converges to a fixed
    /// point with (numerically) zero settled swing.
    #[test]
    fn red_predicate_and_integration_agree_on_stability() {
        let red = RedFluid {
            min_th: 15.0,
            max_th: 45.0,
            max_p: 0.1,
            wq: 0.002,
        };
        for (d_ns, n) in [(100_000u64, 8.0f64), (100_000, 4.0)] {
            let v = red_stability(C, d_ns, n, &red);
            assert!(v.stable, "D={d_ns} N={n}: margin {}", v.margin);
            assert!(v.margin > 2.0, "comfortably damped, got {}", v.margin);
            let out = integrate(
                &FluidConfig {
                    capacity_pps: C,
                    buffer_pkts: 100.0,
                    classes: vec![FluidClass {
                        n,
                        base_rtt_ns: d_ns,
                        cc: FluidCc::Reno,
                    }],
                    dt_ns: 10_000,
                    horizon_ns: 4 * NS_PER_SEC as u64,
                    aqm: FluidAqm::DropTail,
                }
                .with_red(red),
            );
            assert!(
                out.settled_queue_swing < 1.0,
                "D={d_ns} N={n}: must converge, swing {}",
                out.settled_queue_swing
            );
        }
    }

    /// Equilibrium identities: rate balance `N·W* = C·R*` and window
    /// balance `p* = 2/W*²` hold at the bisected fixed point, and the
    /// RED curve supplies exactly the demanded probability inside the
    /// band.
    #[test]
    fn red_equilibrium_satisfies_balance_equations() {
        let red = RedFluid {
            min_th: 15.0,
            max_th: 45.0,
            max_p: 0.1,
            wq: 0.002,
        };
        let v = red_stability(C, 100_000, 8.0, &red);
        let r_star = 100_000.0 / 1e9 + v.q_star / C;
        assert!((8.0 * v.w_star - C * r_star).abs() / (C * r_star) < 1e-6);
        assert!((v.p_star - 2.0 / (v.w_star * v.w_star)).abs() < 1e-9);
        assert!(
            (red.prob(v.q_star) - v.p_star).abs() < 1e-6,
            "supply {} vs demand {}",
            red.prob(v.q_star),
            v.p_star
        );
    }

    /// Massive populations pin the per-flow window at the floor: no
    /// feedback loop left to destabilize, verdict is stable with an
    /// infinite margin.
    #[test]
    fn red_floor_pinned_population_is_stable() {
        let red = RedFluid {
            min_th: 15.0,
            max_th: 45.0,
            max_p: 0.1,
            wq: 0.002,
        };
        let v = red_stability(C, 100_000, 64.0, &red);
        assert!(v.stable);
        assert!(v.margin.is_infinite());
        assert!((v.w_star - 2.0).abs() < 1e-6);
    }

    /// A RED band entirely above the physical buffer never engages: the
    /// integration reduces to drop-tail (identical outcome).
    #[test]
    fn red_band_above_buffer_is_drop_tail() {
        let base = FluidConfig {
            capacity_pps: C,
            buffer_pkts: 50.0,
            classes: vec![FluidClass {
                n: 8.0,
                base_rtt_ns: 200_000,
                cc: FluidCc::Reno,
            }],
            dt_ns: 10_000,
            horizon_ns: NS_PER_SEC as u64,
            aqm: FluidAqm::DropTail,
        };
        let red = base.clone().with_red(RedFluid {
            min_th: 60.0, // above the 50-packet buffer: never reached
            max_th: 120.0,
            max_p: 1.0,
            wq: 0.002,
        });
        let a = integrate(&base);
        let b = integrate(&red);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "class")]
    fn empty_class_list_is_rejected() {
        let _ = integrate(&FluidConfig {
            capacity_pps: C,
            buffer_pkts: 100.0,
            classes: vec![],
            dt_ns: 10_000,
            horizon_ns: 1_000_000,
            aqm: FluidAqm::DropTail,
        });
    }
}
