//! Serializable scenario specifications — the fuzzer's unit of work.
//!
//! A [`ScenarioSpec`] captures a complete many-to-one scenario (fan-in,
//! link rate, delay, buffer, congestion control and its `K` setting,
//! per-sender packet trains and persistent-HTTP sessions, horizon,
//! optional injected fault) in a
//! plain-text `key = value` form that round-trips exactly, so a failing
//! fuzz case can be committed to an on-disk corpus and replayed
//! deterministically — by the `trim-fuzz` binary, or as an ordinary
//! `cargo test` case.
//!
//! [`ScenarioSpec::run`] is the replay entrypoint: it builds the
//! scenario, force-attaches the `trim-check` monitor suite (replay must
//! observe the same invariants in release builds as in debug), applies
//! the spec's fault, runs to the horizon, and returns the report
//! together with every recorded violation instead of panicking.

use netsim::time::{Dur, SimTime};
use netsim::topology::LinkSpec;
use netsim::{Bandwidth, CoDelConfig, QueueConfig, QueueDiscipline, RedConfig};
use trim_tcp::{CcKind, TcpConfig, MAX_RTO, MSS_BYTES};

use crate::scenario::{Report, Scenario, ScenarioBuilder, TrainSpec};

// Ceilings on what a spec may ask for. A spec file can come from outside
// the generators, so `ScenarioSpec::validate` bounds every magnitude:
// each us->ns, ms->ns and MSS-padding product then fits `u64`, and no
// field can size an allocation the replay cannot make. All sit far above
// anything the generators emit or `corpus/` holds.
const SPEC_MAX_SENDERS: usize = 10_000;
const SPEC_MAX_LINK_MBPS: u64 = 400_000;
const SPEC_MAX_DELAY_US: u64 = 100_000;
const SPEC_MAX_BUFFER_PKTS: usize = 100_000;
const SPEC_MAX_HORIZON_MS: u64 = 600_000;
/// Longest think time or CoDel interval: the longest horizon.
const SPEC_MAX_SPAN_US: u64 = SPEC_MAX_HORIZON_MS * 1_000;
/// Largest single train or session response.
const SPEC_MAX_BYTES: u64 = 1 << 40;

/// `Err` naming `field` when `value` is above its ceiling.
fn at_most<T: PartialOrd + std::fmt::Display>(field: &str, value: T, max: T) -> Result<(), String> {
    if value > max {
        return Err(format!("{field} {value} exceeds the ceiling {max}"));
    }
    Ok(())
}

/// Congestion-control selection for a spec.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpecCc {
    /// TCP Reno / NewReno (the paper's legacy baseline).
    Reno,
    /// TCP-TRIM with `K` from the Eq. 4 guideline at the bottleneck
    /// capacity.
    TrimGuideline,
    /// TCP-TRIM with an explicit `K` override in nanoseconds.
    TrimOverrideNs(u64),
}

/// Queue-discipline selection for a spec, in integer-quantized units so
/// the text form round-trips exactly (no floats in the corpus).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SpecAqm {
    /// Plain drop-tail on every queue (the historical default; omitted
    /// from the text form).
    #[default]
    DropTail,
    /// RED early dropping (or ECN marking) on every queue.
    Red {
        /// Minimum threshold in packets.
        min_th: u32,
        /// Maximum threshold in packets (must exceed `min_th`).
        max_th: u32,
        /// Maximum drop probability in thousandths (1..=1000).
        max_p_milli: u32,
        /// EWMA weight in millionths (1..=1_000_000).
        wq_micro: u32,
        /// Mark ECT packets CE instead of dropping.
        ecn: bool,
    },
    /// CoDel sojourn-time dropping (or ECN marking) on every queue.
    Codel {
        /// Acceptable standing sojourn time in microseconds.
        target_us: u32,
        /// Sliding window over which the sojourn must stay above the
        /// target, in microseconds (must be >= `target_us`).
        interval_us: u32,
        /// Mark ECT packets CE instead of dropping.
        ecn: bool,
    },
}

impl SpecAqm {
    /// The runnable `netsim` discipline this selection quantizes.
    pub fn discipline(&self) -> QueueDiscipline {
        match *self {
            SpecAqm::DropTail => QueueDiscipline::DropTail,
            SpecAqm::Red {
                min_th,
                max_th,
                max_p_milli,
                wq_micro,
                ecn,
            } => QueueDiscipline::Red(RedConfig {
                min_th: f64::from(min_th),
                max_th: f64::from(max_th),
                max_p: f64::from(max_p_milli) / 1_000.0,
                wq: f64::from(wq_micro) / 1_000_000.0,
                ecn,
                ..RedConfig::default()
            }),
            SpecAqm::Codel {
                target_us,
                interval_us,
                ecn,
            } => QueueDiscipline::CoDel(CoDelConfig {
                target: Dur::from_micros(u64::from(target_us)),
                interval: Dur::from_micros(u64::from(interval_us)),
                ecn,
            }),
        }
    }

    fn to_token(self) -> Option<String> {
        match self {
            SpecAqm::DropTail => None,
            SpecAqm::Red {
                min_th,
                max_th,
                max_p_milli,
                wq_micro,
                ecn,
            } => {
                let head = if ecn { "red-ecn" } else { "red" };
                Some(format!("{head}:{min_th}:{max_th}:{max_p_milli}:{wq_micro}"))
            }
            SpecAqm::Codel {
                target_us,
                interval_us,
                ecn,
            } => {
                let head = if ecn { "codel-ecn" } else { "codel" };
                Some(format!("{head}:{target_us}:{interval_us}"))
            }
        }
    }

    fn from_token(value: &str) -> Option<SpecAqm> {
        if value == "drop-tail" {
            return Some(SpecAqm::DropTail);
        }
        let (head, rest) = value.split_once(':')?;
        let fields: Option<Vec<u32>> = rest.split(':').map(|f| f.parse::<u32>().ok()).collect();
        match (head, fields.as_deref()) {
            ("red" | "red-ecn", Some(&[min_th, max_th, max_p_milli, wq_micro])) => {
                Some(SpecAqm::Red {
                    min_th,
                    max_th,
                    max_p_milli,
                    wq_micro,
                    ecn: head == "red-ecn",
                })
            }
            ("codel" | "codel-ecn", Some(&[target_us, interval_us])) => Some(SpecAqm::Codel {
                target_us,
                interval_us,
                ecn: head == "codel-ecn",
            }),
            _ => None,
        }
    }
}

/// A deterministic fault to inject before the run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpecFault {
    /// Let the bottleneck queue admit `extra` packets beyond its
    /// capacity (`Simulator::inject_queue_overadmit`), which the
    /// `queue-bound` monitor must catch.
    QueueOveradmit {
        /// Packets admitted beyond capacity.
        extra: u64,
    },
}

/// One packet train: `bytes` handed to TCP on `sender` at `at_us`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpecTrain {
    /// 0-based sender index.
    pub sender: usize,
    /// Injection time in microseconds.
    pub at_us: u64,
    /// Application bytes.
    pub bytes: u64,
}

/// One persistent-HTTP user session: the responses of `sizes` go out
/// sequentially on `sender`, each `think_us` after the previous one
/// completes, starting at `at_us`. At most one session per sender (a
/// sender's connection carries one response sequence), and a sender
/// with a session carries no standalone trains: a spec keeps each
/// connection's workload one kind or the other (`TcpHost` itself can
/// interleave them).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpecSession {
    /// 0-based sender index.
    pub sender: usize,
    /// Session start time in microseconds.
    pub at_us: u64,
    /// Think time between consecutive responses, in microseconds.
    pub think_us: u64,
    /// Application bytes of each response, in order.
    pub sizes: Vec<u64>,
}

/// A complete, serializable many-to-one scenario description.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioSpec {
    /// The fuzz seed that produced this spec (informational; replay does
    /// not use it).
    pub seed: u64,
    /// Fan-in: number of sending web servers.
    pub senders: usize,
    /// Link rate (all links) in Mbit/s.
    pub link_mbps: u64,
    /// One-way per-link propagation delay in microseconds.
    pub delay_us: u64,
    /// Switch buffer size in packets on every queue.
    pub buffer_pkts: usize,
    /// Congestion-control policy for every sender.
    pub cc: SpecCc,
    /// Minimum retransmission timeout in microseconds.
    pub min_rto_us: u64,
    /// Simulation horizon in milliseconds.
    pub horizon_ms: u64,
    /// Optional injected fault.
    pub fault: Option<SpecFault>,
    /// Queue discipline on every queue (drop-tail when omitted).
    pub aqm: SpecAqm,
    /// Attach the `trim-check` stability oracles (cwnd limit-cycle and
    /// standing-queue detectors) during [`ScenarioSpec::run`].
    pub stability: bool,
    /// Expected replay verdict for a committed corpus spec:
    /// `monitor:<name>` (a violation from that monitor must fire) or
    /// `oracle:<name>` (that post-run oracle must fail). `None` means
    /// the replay harness derives the expectation (fault implies
    /// `monitor:queue-bound`, otherwise a clean run).
    pub expect: Option<String>,
    /// The packet trains, in no particular order.
    pub trains: Vec<SpecTrain>,
    /// Persistent-HTTP sessions, at most one per sender.
    pub sessions: Vec<SpecSession>,
}

/// What a spec run produced: the scenario report plus every invariant
/// violation the monitors recorded (empty on a clean run).
#[derive(Clone, Debug)]
pub struct SpecOutcome {
    /// Results at the horizon (collected without the clean-run
    /// assertion).
    pub report: Report,
    /// Violations recorded by the attached monitors.
    pub violations: Vec<netsim::monitor::Violation>,
}

impl ScenarioSpec {
    /// Checks internal consistency; [`ScenarioSpec::run`] refuses
    /// invalid specs.
    pub fn validate(&self) -> Result<(), String> {
        if self.senders == 0 {
            return Err("senders must be >= 1".into());
        }
        if self.link_mbps == 0 {
            return Err("link_mbps must be >= 1".into());
        }
        if self.buffer_pkts == 0 {
            return Err("buffer_pkts must be >= 1".into());
        }
        if self.min_rto_us == 0 {
            return Err("min_rto_us must be >= 1".into());
        }
        if self.horizon_ms == 0 {
            return Err("horizon_ms must be >= 1".into());
        }
        // No timeout floor or RTT threshold above the longest timeout.
        let max_rto_ns = MAX_RTO.as_nanos();
        at_most("senders", self.senders, SPEC_MAX_SENDERS)?;
        at_most("link_mbps", self.link_mbps, SPEC_MAX_LINK_MBPS)?;
        at_most("delay_us", self.delay_us, SPEC_MAX_DELAY_US)?;
        at_most("buffer_pkts", self.buffer_pkts, SPEC_MAX_BUFFER_PKTS)?;
        at_most("min_rto_us", self.min_rto_us, max_rto_ns / 1_000)?;
        at_most("horizon_ms", self.horizon_ms, SPEC_MAX_HORIZON_MS)?;
        match self.cc {
            SpecCc::TrimOverrideNs(0) => return Err("trim-k override must be >= 1 ns".into()),
            SpecCc::TrimOverrideNs(k) => at_most("trim-k override", k, max_rto_ns)?,
            SpecCc::Reno | SpecCc::TrimGuideline => {}
        }
        if let Some(SpecFault::QueueOveradmit { extra: 0 }) = self.fault {
            return Err("overadmit extra must be >= 1".into());
        }
        match self.aqm {
            SpecAqm::DropTail => {}
            SpecAqm::Red {
                min_th,
                max_th,
                max_p_milli,
                wq_micro,
                ..
            } => {
                if min_th >= max_th {
                    return Err(format!("red min_th {min_th} must be < max_th {max_th}"));
                }
                at_most("red max_th", max_th as usize, SPEC_MAX_BUFFER_PKTS)?;
                if !(1..=1_000).contains(&max_p_milli) {
                    return Err("red max_p_milli must be in 1..=1000".into());
                }

                if !(1..=1_000_000).contains(&wq_micro) {
                    return Err("red wq_micro must be in 1..=1000000".into());
                }
            }
            SpecAqm::Codel {
                target_us,
                interval_us,
                ..
            } => {
                if target_us == 0 {
                    return Err("codel target_us must be >= 1".into());
                }
                if interval_us < target_us {
                    return Err(format!(
                        "codel interval_us {interval_us} must be >= target_us {target_us}"
                    ));
                }
                at_most(
                    "codel interval_us",
                    u64::from(interval_us),
                    SPEC_MAX_SPAN_US,
                )?;
            }
        }
        if let Some(expect) = &self.expect {
            let valid = ["monitor:", "oracle:"]
                .iter()
                .any(|p| expect.strip_prefix(p).is_some_and(|n| !n.is_empty()));
            if !valid {
                return Err(format!(
                    "expect must be `monitor:<name>` or `oracle:<name>`, got `{expect}`"
                ));
            }
        }
        if self.trains.is_empty() && self.sessions.is_empty() {
            return Err("at least one train or session is required".into());
        }
        for t in &self.trains {
            if t.sender >= self.senders {
                return Err(format!(
                    "train on sender {} but only {} senders",
                    t.sender, self.senders
                ));
            }
            if t.bytes == 0 {
                return Err("train bytes must be >= 1".into());
            }
            at_most("train bytes", t.bytes, SPEC_MAX_BYTES)?;
            if t.at_us >= self.horizon_ms * 1_000 {
                return Err(format!(
                    "train at_us {} starts at or after the {}ms horizon",
                    t.at_us, self.horizon_ms
                ));
            }
        }
        for (i, s) in self.sessions.iter().enumerate() {
            if s.sender >= self.senders {
                return Err(format!(
                    "session on sender {} but only {} senders",
                    s.sender, self.senders
                ));
            }
            if s.sizes.is_empty() {
                return Err("session needs at least one response".into());
            }
            if s.sizes.contains(&0) {
                return Err("session response bytes must be >= 1".into());
            }
            for &bytes in &s.sizes {
                at_most("session response bytes", bytes, SPEC_MAX_BYTES)?;
            }
            at_most("session think_us", s.think_us, SPEC_MAX_SPAN_US)?;
            if s.at_us >= self.horizon_ms * 1_000 {
                return Err(format!(
                    "session at_us {} starts at or after the {}ms horizon",
                    s.at_us, self.horizon_ms
                ));
            }
            if self.sessions[..i].iter().any(|p| p.sender == s.sender) {
                return Err(format!("sender {} has more than one session", s.sender));
            }
            if self.trains.iter().any(|t| t.sender == s.sender) {
                return Err(format!(
                    "sender {} mixes a session with standalone trains",
                    s.sender
                ));
            }
        }
        Ok(())
    }

    /// The session driving `sender`, if any.
    pub fn session_for(&self, sender: usize) -> Option<&SpecSession> {
        self.sessions.iter().find(|s| s.sender == sender)
    }

    /// The bottleneck rate in bits per second.
    pub fn bottleneck_bps(&self) -> u64 {
        Bandwidth::mbps(self.link_mbps).as_bps()
    }

    /// The no-load round-trip time in nanoseconds: two links each way.
    pub fn base_rtt_ns(&self) -> u64 {
        4 * self.delay_us * 1_000
    }

    /// Offered load for `sender` in on-the-wire payload bytes: TCP sends
    /// whole segments, so each train and each session response is padded
    /// to a multiple of the MSS. For a session this is the full offered
    /// load if every response gets issued; a horizon cutting the session
    /// mid-think leaves later responses unissued.
    pub fn offered_padded_bytes(&self, sender: usize) -> u64 {
        let mss = u64::from(MSS_BYTES);
        let pad = |b: u64| b.div_ceil(mss) * mss;
        let trains: u64 = self
            .trains
            .iter()
            .filter(|t| t.sender == sender)
            .map(|t| pad(t.bytes))
            .sum();
        let sessions: u64 = self
            .sessions
            .iter()
            .filter(|s| s.sender == sender)
            .flat_map(|s| s.sizes.iter())
            .map(|&b| pad(b))
            .sum();
        trains + sessions
    }

    /// Builds the runnable [`Scenario`] (monitors attach per the normal
    /// `TRIM_CHECK_MONITORS` policy; [`ScenarioSpec::run`] forces them).
    pub fn build(&self) -> Scenario {
        let link = LinkSpec::new(
            Bandwidth::mbps(self.link_mbps),
            Dur::from_micros(self.delay_us),
            QueueConfig::drop_tail(self.buffer_pkts),
        );
        let tcp = TcpConfig::default().with_min_rto(Dur::from_micros(self.min_rto_us));
        let b = ScenarioBuilder::many_to_one(self.senders)
            .links(link)
            .queue_discipline(self.aqm.discipline())
            .tcp_config(tcp);
        match self.cc {
            SpecCc::Reno => b.congestion_control(CcKind::Reno),
            SpecCc::TrimGuideline => b.trim(),
            SpecCc::TrimOverrideNs(k) => {
                b.congestion_control(CcKind::Trim(trim_core::TrimConfig {
                    k_override_ns: Some(k),
                    ..Default::default()
                }))
            }
        }
        .build()
    }

    /// Replays the spec under the full monitor suite and returns the
    /// outcome without panicking on violations.
    pub fn run(&self) -> Result<SpecOutcome, String> {
        self.validate()?;
        let mut sc = self.build();
        trim_check::attach_standard(sc.sim_mut());
        if self.stability {
            for m in trim_check::stability_monitors() {
                sc.sim_mut().attach_monitor(m);
            }
        }
        if let Some(SpecFault::QueueOveradmit { extra }) = self.fault {
            let ch = sc.net().bottleneck;
            sc.sim_mut().inject_queue_overadmit(ch, extra);
        }
        for t in &self.trains {
            sc.send_train(
                t.sender,
                TrainSpec {
                    at: SimTime::from_nanos(t.at_us * 1_000),
                    bytes: t.bytes,
                },
            );
        }
        for s in &self.sessions {
            sc.send_session(
                s.sender,
                SimTime::from_nanos(s.at_us * 1_000),
                s.sizes.clone(),
                Dur::from_micros(s.think_us),
            );
        }
        sc.sim_mut()
            .run_until(SimTime::ZERO + Dur::from_millis(self.horizon_ms));
        let violations = sc.sim_mut().violations().into_iter().cloned().collect();
        let report = sc.report_unchecked();
        Ok(SpecOutcome { report, violations })
    }

    /// Serializes to the canonical text form (exact round-trip through
    /// [`ScenarioSpec::from_text`]).
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        s.push_str("# trim-fuzz scenario spec v1\n");
        s.push_str(&format!("seed = {}\n", self.seed));
        s.push_str(&format!("senders = {}\n", self.senders));
        s.push_str(&format!("link_mbps = {}\n", self.link_mbps));
        s.push_str(&format!("delay_us = {}\n", self.delay_us));
        s.push_str(&format!("buffer_pkts = {}\n", self.buffer_pkts));
        let cc = match self.cc {
            SpecCc::Reno => "reno".to_string(),
            SpecCc::TrimGuideline => "trim-guideline".to_string(),
            SpecCc::TrimOverrideNs(k) => format!("trim-k:{k}"),
        };
        s.push_str(&format!("cc = {cc}\n"));
        s.push_str(&format!("min_rto_us = {}\n", self.min_rto_us));
        s.push_str(&format!("horizon_ms = {}\n", self.horizon_ms));
        if let Some(SpecFault::QueueOveradmit { extra }) = self.fault {
            s.push_str(&format!("fault = overadmit:{extra}\n"));
        }
        if let Some(aqm) = self.aqm.to_token() {
            s.push_str(&format!("aqm = {aqm}\n"));
        }
        if self.stability {
            s.push_str("stability = on\n");
        }
        if let Some(expect) = &self.expect {
            s.push_str(&format!("expect = {expect}\n"));
        }
        for t in &self.trains {
            s.push_str(&format!("train = {} {} {}\n", t.sender, t.at_us, t.bytes));
        }
        for sess in &self.sessions {
            let sizes = sess
                .sizes
                .iter()
                .map(|b| b.to_string())
                .collect::<Vec<_>>()
                .join(" ");
            s.push_str(&format!(
                "session = {} {} {} {sizes}\n",
                sess.sender, sess.at_us, sess.think_us
            ));
        }
        s
    }

    /// Parses the text form. Unknown keys, missing required keys,
    /// repeated keys (other than `train` and `session`, which add one
    /// each) and malformed values are errors — a corpus typo must not
    /// silently replay a different scenario.
    pub fn from_text(text: &str) -> Result<Self, String> {
        let mut seed = None;
        let mut senders = None;
        let mut link_mbps = None;
        let mut delay_us = None;
        let mut buffer_pkts = None;
        let mut cc = None;
        let mut min_rto_us = None;
        let mut horizon_ms = None;
        let mut fault = None;
        let mut aqm = None;
        let mut stability = None;
        let mut expect = None;
        let mut trains = Vec::new();
        let mut sessions = Vec::new();
        let mut scalars = std::collections::BTreeSet::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("line {}: expected `key = value`", lineno + 1))?;
            let (key, value) = (key.trim(), value.trim());
            if !matches!(key, "train" | "session") && !scalars.insert(key) {
                return Err(format!("line {}: repeated key `{key}`", lineno + 1));
            }
            let bad = |what: &str| format!("line {}: bad {what}: `{value}`", lineno + 1);
            match key {
                "seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("seed"))?),
                "senders" => senders = Some(value.parse::<usize>().map_err(|_| bad("senders"))?),
                "link_mbps" => {
                    link_mbps = Some(value.parse::<u64>().map_err(|_| bad("link_mbps"))?)
                }
                "delay_us" => delay_us = Some(value.parse::<u64>().map_err(|_| bad("delay_us"))?),
                "buffer_pkts" => {
                    buffer_pkts = Some(value.parse::<usize>().map_err(|_| bad("buffer_pkts"))?)
                }
                "cc" => {
                    cc = Some(match value {
                        "reno" => SpecCc::Reno,
                        "trim-guideline" => SpecCc::TrimGuideline,
                        other => match other.strip_prefix("trim-k:") {
                            Some(k) => {
                                SpecCc::TrimOverrideNs(k.parse::<u64>().map_err(|_| bad("cc"))?)
                            }
                            None => return Err(bad("cc")),
                        },
                    })
                }
                "min_rto_us" => {
                    min_rto_us = Some(value.parse::<u64>().map_err(|_| bad("min_rto_us"))?)
                }
                "horizon_ms" => {
                    horizon_ms = Some(value.parse::<u64>().map_err(|_| bad("horizon_ms"))?)
                }
                "aqm" => aqm = Some(SpecAqm::from_token(value).ok_or_else(|| bad("aqm"))?),
                "stability" => {
                    stability = Some(match value {
                        "on" => true,
                        "off" => false,
                        _ => return Err(bad("stability (want `on` or `off`)")),
                    })
                }
                "expect" => expect = Some(value.to_string()),
                "fault" => match value.strip_prefix("overadmit:") {
                    Some(extra) => {
                        fault = Some(SpecFault::QueueOveradmit {
                            extra: extra.parse::<u64>().map_err(|_| bad("fault"))?,
                        })
                    }
                    None => return Err(bad("fault")),
                },
                "train" => {
                    let mut it = value.split_whitespace();
                    let parse = |field: Option<&str>| field.and_then(|f| f.parse::<u64>().ok());
                    match (
                        parse(it.next()),
                        parse(it.next()),
                        parse(it.next()),
                        it.next(),
                    ) {
                        (Some(sender), Some(at_us), Some(bytes), None) => trains.push(SpecTrain {
                            sender: sender as usize,
                            at_us,
                            bytes,
                        }),
                        _ => return Err(bad("train (want `sender at_us bytes`)")),
                    }
                }
                "session" => {
                    let fields: Option<Vec<u64>> = value
                        .split_whitespace()
                        .map(|f| f.parse::<u64>().ok())
                        .collect();
                    match fields.as_deref() {
                        Some([sender, at_us, think_us, sizes @ ..]) if !sizes.is_empty() => {
                            sessions.push(SpecSession {
                                sender: *sender as usize,
                                at_us: *at_us,
                                think_us: *think_us,
                                sizes: sizes.to_vec(),
                            })
                        }
                        _ => {
                            return Err(bad(
                                "session (want `sender at_us think_us size1 [size2 ...]`)",
                            ))
                        }
                    }
                }
                other => return Err(format!("line {}: unknown key `{other}`", lineno + 1)),
            }
        }
        fn req(name: &'static str) -> impl Fn() -> String {
            move || format!("missing required key `{name}`")
        }
        let spec = ScenarioSpec {
            seed: seed.unwrap_or(0),
            senders: senders.ok_or_else(req("senders"))?,
            link_mbps: link_mbps.ok_or_else(req("link_mbps"))?,
            delay_us: delay_us.ok_or_else(req("delay_us"))?,
            buffer_pkts: buffer_pkts.ok_or_else(req("buffer_pkts"))?,
            cc: cc.ok_or_else(req("cc"))?,
            min_rto_us: min_rto_us.ok_or_else(req("min_rto_us"))?,
            horizon_ms: horizon_ms.ok_or_else(req("horizon_ms"))?,
            fault,
            aqm: aqm.unwrap_or_default(),
            stability: stability.unwrap_or(false),
            expect,
            trains,
            sessions,
        };
        spec.validate()?;
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ScenarioSpec {
        ScenarioSpec {
            seed: 7,
            senders: 3,
            link_mbps: 1000,
            delay_us: 50,
            buffer_pkts: 100,
            cc: SpecCc::TrimGuideline,
            min_rto_us: 200_000,
            horizon_ms: 500,
            fault: None,
            aqm: SpecAqm::DropTail,
            stability: false,
            expect: None,
            trains: vec![
                SpecTrain {
                    sender: 0,
                    at_us: 100,
                    bytes: 29_200,
                },
                SpecTrain {
                    sender: 2,
                    at_us: 350,
                    bytes: 14_601,
                },
            ],
            sessions: Vec::new(),
        }
    }

    fn session_sample() -> ScenarioSpec {
        let mut spec = sample();
        spec.trains = vec![SpecTrain {
            sender: 0,
            at_us: 100,
            bytes: 29_200,
        }];
        spec.sessions = vec![SpecSession {
            sender: 1,
            at_us: 200,
            think_us: 5_000,
            sizes: vec![14_600, 2_920, 29_200],
        }];
        spec
    }

    #[test]
    fn text_round_trips_exactly() {
        for cc in [
            SpecCc::Reno,
            SpecCc::TrimGuideline,
            SpecCc::TrimOverrideNs(275_000),
        ] {
            for fault in [None, Some(SpecFault::QueueOveradmit { extra: 3 })] {
                let mut spec = sample();
                spec.cc = cc;
                spec.fault = fault;
                let text = spec.to_text();
                let parsed = ScenarioSpec::from_text(&text).unwrap();
                assert_eq!(parsed, spec);
                assert_eq!(parsed.to_text(), text);
            }
        }
    }

    #[test]
    fn session_specs_round_trip_and_enforce_their_rules() {
        let spec = session_sample();
        spec.validate().unwrap();
        let text = spec.to_text();
        assert!(text.contains("session = 1 200 5000 14600 2920 29200\n"));
        let parsed = ScenarioSpec::from_text(&text).unwrap();
        assert_eq!(parsed, spec);
        assert_eq!(parsed.to_text(), text);
        assert_eq!(parsed.session_for(1).unwrap().sizes.len(), 3);
        assert!(parsed.session_for(0).is_none());
        // Session responses count toward offered load, padded.
        assert_eq!(spec.offered_padded_bytes(1), 14_600 + 2_920 + 29_200);

        // A session on the same sender as a train is rejected.
        let mut mixed = spec.clone();
        mixed.sessions[0].sender = 0;
        assert!(mixed.validate().is_err());
        // Two sessions on one sender are rejected.
        let mut dup = spec.clone();
        dup.sessions.push(dup.sessions[0].clone());
        assert!(dup.validate().is_err());
        // Out-of-range sender, empty sizes, zero-byte response, late start.
        let mut bad = spec.clone();
        bad.sessions[0].sender = 99;
        assert!(bad.validate().is_err());
        let mut bad = spec.clone();
        bad.sessions[0].sizes.clear();
        assert!(bad.validate().is_err());
        let mut bad = spec.clone();
        bad.sessions[0].sizes[1] = 0;
        assert!(bad.validate().is_err());
        let mut bad = spec.clone();
        bad.sessions[0].at_us = bad.horizon_ms * 1_000;
        assert!(bad.validate().is_err());
        // A session alone satisfies the at-least-one-workload rule.
        let mut alone = spec.clone();
        alone.trains.clear();
        alone.validate().unwrap();
    }

    #[test]
    fn session_spec_replays_sequentially_and_deterministically() {
        let spec = session_sample();
        let out = spec.run().unwrap();
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        let sess = &out.report.senders[1];
        // Every response completed, in order, separated by the think.
        assert_eq!(sess.trains.len(), 3);
        for pair in sess.trains.windows(2) {
            let think = pair[1].enqueued_at.saturating_since(pair[0].completed_at);
            assert_eq!(think, Dur::from_micros(5_000));
        }
        assert_eq!(sess.goodput_bytes, spec.offered_padded_bytes(1));
        let again = spec.run().unwrap();
        assert_eq!(
            out.report.completion_times(),
            again.report.completion_times()
        );
    }

    #[test]
    fn aqm_and_stability_specs_round_trip_exactly() {
        let red = SpecAqm::Red {
            min_th: 10,
            max_th: 30,
            max_p_milli: 200,
            wq_micro: 2_000,
            ecn: false,
        };
        let red_ecn = SpecAqm::Red {
            min_th: 15,
            max_th: 45,
            max_p_milli: 100,
            wq_micro: 2_000,
            ecn: true,
        };
        let codel = SpecAqm::Codel {
            target_us: 50,
            interval_us: 1_000,
            ecn: false,
        };
        let codel_ecn = SpecAqm::Codel {
            target_us: 50,
            interval_us: 1_000,
            ecn: true,
        };
        for aqm in [SpecAqm::DropTail, red, red_ecn, codel, codel_ecn] {
            for stability in [false, true] {
                let mut spec = sample();
                spec.aqm = aqm;
                spec.stability = stability;
                if stability {
                    spec.expect = Some("monitor:cwnd-limit-cycle".into());
                }
                let text = spec.to_text();
                let parsed = ScenarioSpec::from_text(&text).unwrap();
                assert_eq!(parsed, spec);
                assert_eq!(parsed.to_text(), text);
            }
        }
        // Canonical token spellings.
        let mut spec = sample();
        spec.aqm = red;
        assert!(spec.to_text().contains("aqm = red:10:30:200:2000\n"));
        spec.aqm = codel_ecn;
        assert!(spec.to_text().contains("aqm = codel-ecn:50:1000\n"));
        // Defaults stay omitted, so pre-AQM corpus text is unchanged.
        let legacy = sample().to_text();
        assert!(!legacy.contains("aqm"));
        assert!(!legacy.contains("stability"));
        assert!(!legacy.contains("expect"));
    }

    #[test]
    fn aqm_validation_rejects_degenerate_parameters() {
        let with_aqm = |aqm| ScenarioSpec { aqm, ..sample() };
        // Inverted RED band, out-of-range probability and weight.
        for (min_th, max_th, max_p_milli, wq_micro) in [
            (30, 30, 200, 2_000),
            (40, 30, 200, 2_000),
            (10, 30, 0, 2_000),
            (10, 30, 1_001, 2_000),
            (10, 30, 200, 0),
            (10, 30, 200, 1_000_001),
        ] {
            let spec = with_aqm(SpecAqm::Red {
                min_th,
                max_th,
                max_p_milli,
                wq_micro,
                ecn: false,
            });
            assert!(
                spec.validate().is_err(),
                "red {min_th}/{max_th}/{max_p_milli}/{wq_micro} must be rejected"
            );
        }
        // CoDel: zero target, interval below target.
        for (target_us, interval_us) in [(0, 1_000), (100, 50)] {
            let spec = with_aqm(SpecAqm::Codel {
                target_us,
                interval_us,
                ecn: false,
            });
            assert!(spec.validate().is_err());
        }
        // Malformed expect strings.
        for expect in ["cwnd-limit-cycle", "monitor:", "oracle:", "watch:x"] {
            let mut spec = sample();
            spec.expect = Some(expect.into());
            assert!(
                spec.validate().is_err(),
                "expect `{expect}` must be rejected"
            );
        }
        for expect in ["monitor:cwnd-limit-cycle", "oracle:goodput-conservation"] {
            let mut spec = sample();
            spec.expect = Some(expect.into());
            spec.validate().unwrap();
        }
    }

    #[test]
    fn red_spec_replays_deterministically_with_early_drops() {
        let mut spec = sample();
        spec.buffer_pkts = 16;
        spec.aqm = SpecAqm::Red {
            min_th: 2,
            max_th: 6,
            max_p_milli: 500,
            wq_micro: 500_000,
            ecn: false,
        };
        spec.trains = (0..spec.senders)
            .map(|s| SpecTrain {
                sender: s,
                at_us: 100,
                bytes: 146_000,
            })
            .collect();
        let a = spec.run().unwrap();
        assert!(a.violations.is_empty(), "{:?}", a.violations);
        assert!(
            a.report.bottleneck.dropped > 0,
            "a tight RED band over synchronized trains must drop early"
        );
        let b = spec.run().unwrap();
        assert_eq!(a.report.bottleneck.dropped, b.report.bottleneck.dropped);
        assert_eq!(a.report.completion_times(), b.report.completion_times());
    }

    #[test]
    fn codel_spec_replays_cleanly_under_monitors() {
        let mut spec = sample();
        spec.buffer_pkts = 16;
        spec.aqm = SpecAqm::Codel {
            target_us: 50,
            interval_us: 1_000,
            ecn: false,
        };
        spec.stability = true;
        spec.trains = (0..spec.senders)
            .map(|s| SpecTrain {
                sender: s,
                at_us: 100,
                bytes: 73_000,
            })
            .collect();
        let out = spec.run().unwrap();
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert_eq!(out.report.completed_trains(), spec.senders);
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        let base = sample().to_text();
        for (needle, replacement, why) in [
            ("senders = 3", "senders = 0", "zero senders"),
            ("senders = 3", "sneders = 3", "unknown key"),
            ("cc = trim-guideline", "cc = vegas", "unknown cc"),
            ("train = 0 100 29200", "train = 9 100 29200", "sender range"),
            ("train = 0 100 29200", "train = 0 100", "short train"),
            ("horizon_ms = 500", "horizon_ms = 0", "train after horizon"),
            ("seed = 7", "seed = 7\nseed = 8", "repeated seed"),
            (
                "cc = trim-guideline",
                "cc = trim-guideline\ncc = reno",
                "repeated cc",
            ),
            (
                "horizon_ms = 500",
                "horizon_ms = 500\nhorizon_ms = 500",
                "same value twice",
            ),
        ] {
            let text = base.replace(needle, replacement);
            assert!(
                ScenarioSpec::from_text(&text).is_err(),
                "expected parse failure for {why}"
            );
        }
        // Dropping a required key is also an error.
        let text = base.replace("link_mbps = 1000\n", "");
        assert!(ScenarioSpec::from_text(&text).is_err());
        // Malformed aqm tokens, stability flags, and expect values.
        for bad_line in [
            "aqm = red:10:30:200",
            "aqm = red:10:30:200:2000:9",
            "aqm = codel:50",
            "aqm = fq-codel:50:1000",
            "aqm = red:ten:30:200:2000",
            "stability = maybe",
            "expect = cwnd-limit-cycle",
        ] {
            let text = format!("{base}{bad_line}\n");
            assert!(
                ScenarioSpec::from_text(&text).is_err(),
                "expected parse failure for `{bad_line}`"
            );
        }
        // The error names the repeated key and its line.
        let text = base.replace("senders = 3", "senders = 3\nsenders = 3");
        let err = ScenarioSpec::from_text(&text).unwrap_err();
        assert_eq!(err, "line 4: repeated key `senders`");
        // Session lines need a sender, start, think, and >= 1 size.
        for bad_line in ["session = 1 200 5000", "session = 1 200 x 14600"] {
            let text = format!("{base}{bad_line}\n");
            assert!(
                ScenarioSpec::from_text(&text).is_err(),
                "expected parse failure for `{bad_line}`"
            );
        }
    }

    #[test]
    fn validate_rejects_out_of_range_magnitudes_by_field_name() {
        let base = "seed = 0\nsenders = 1\nlink_mbps = 1000\ndelay_us = 50\nbuffer_pkts = 64\n\
                    cc = reno\nmin_rto_us = 10000\nhorizon_ms = 300\ntrain = 0 100 58400\n";
        ScenarioSpec::from_text(base).unwrap();
        let max = u64::MAX;
        // (key of the line to replace, its replacement, field the error names)
        for (key, line, field) in [
            ("delay_us", format!("delay_us = {}", i64::MAX), "delay_us"),
            ("min_rto_us", format!("min_rto_us = {max}"), "min_rto_us"),
            ("train", format!("train = 0 100 {max}"), "train bytes"),
            ("train", format!("train = 0 {max} 58400"), "train at_us"),
            ("horizon_ms", format!("horizon_ms = {max}"), "horizon_ms"),
            ("link_mbps", format!("link_mbps = {max}"), "link_mbps"),
            ("buffer_pkts", format!("buffer_pkts = {max}"), "buffer_pkts"),
            ("senders", "senders = 3000000000".into(), "senders"),
            ("cc", format!("cc = trim-k:{max}"), "trim-k"),
            (
                "seed",
                "aqm = red:1:4000000000:100:2000".into(),
                "red max_th",
            ),
            (
                "seed",
                "aqm = codel:50:4000000000".into(),
                "codel interval_us",
            ),
            ("train", format!("session = 0 100 {max} 1460"), "think_us"),
            (
                "train",
                format!("session = 0 {max} 0 1460"),
                "session at_us",
            ),
            (
                "train",
                format!("session = 0 100 0 1460 {max}"),
                "response bytes",
            ),
        ] {
            let text: String = base
                .lines()
                .map(|l| if l.starts_with(key) { &line } else { l })
                .flat_map(|l| [l, "\n"])
                .collect();
            let err = ScenarioSpec::from_text(&text).unwrap_err();
            assert!(err.contains(field), "`{line}` -> `{err}`");
        }
        // Each ceiling is itself allowed.
        let at_ceiling = ScenarioSpec {
            senders: SPEC_MAX_SENDERS,
            link_mbps: SPEC_MAX_LINK_MBPS,
            delay_us: SPEC_MAX_DELAY_US,
            buffer_pkts: SPEC_MAX_BUFFER_PKTS,
            cc: SpecCc::TrimOverrideNs(MAX_RTO.as_nanos()),
            min_rto_us: MAX_RTO.as_nanos() / 1_000,
            horizon_ms: SPEC_MAX_HORIZON_MS,
            aqm: SpecAqm::Codel {
                target_us: 50,
                interval_us: SPEC_MAX_SPAN_US as u32,
                ecn: false,
            },
            trains: vec![SpecTrain {
                sender: 0,
                at_us: SPEC_MAX_SPAN_US - 1,
                bytes: SPEC_MAX_BYTES,
            }],
            sessions: vec![SpecSession {
                sender: 1,
                at_us: 0,
                think_us: SPEC_MAX_SPAN_US,
                sizes: vec![SPEC_MAX_BYTES],
            }],
            ..sample()
        };
        at_ceiling.validate().unwrap();
    }

    #[test]
    fn padded_offered_load_rounds_to_whole_segments() {
        let spec = sample();
        assert_eq!(spec.offered_padded_bytes(0), 29_200); // 20 segments
        assert_eq!(spec.offered_padded_bytes(2), 14_600 + 1_460); // 11 segments
        assert_eq!(spec.offered_padded_bytes(1), 0);
        assert_eq!(spec.base_rtt_ns(), 200_000);
        assert_eq!(spec.bottleneck_bps(), 1_000_000_000);
    }

    #[test]
    fn clean_spec_runs_monitored_and_conserves_goodput() {
        let spec = sample();
        let out = spec.run().unwrap();
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        for s in &out.report.senders {
            assert!(s.goodput_bytes <= spec.offered_padded_bytes(s.sender));
            if !s.unfinished {
                assert_eq!(s.goodput_bytes, spec.offered_padded_bytes(s.sender));
            }
        }
        assert_eq!(out.report.completed_trains(), 2);
    }

    #[test]
    fn overadmit_fault_spec_is_caught_by_the_queue_bound_monitor() {
        let mut spec = sample();
        // Enough synchronized traffic to overflow a small buffer.
        spec.buffer_pkts = 8;
        spec.fault = Some(SpecFault::QueueOveradmit { extra: 3 });
        spec.trains = (0..spec.senders)
            .map(|s| SpecTrain {
                sender: s,
                at_us: 100,
                bytes: 58_400,
            })
            .collect();
        let out = spec.run().unwrap();
        assert!(
            out.violations.iter().any(|v| v.monitor == "queue-bound"),
            "expected a queue-bound violation, got {:?}",
            out.violations
        );
    }

    #[test]
    fn replay_is_deterministic() {
        let spec = sample();
        let a = spec.run().unwrap();
        let b = spec.run().unwrap();
        assert_eq!(a.violations, b.violations);
        assert_eq!(a.report.at, b.report.at);
        assert_eq!(a.report.completion_times(), b.report.completion_times());
        for (x, y) in a.report.senders.iter().zip(&b.report.senders) {
            assert_eq!(x.goodput_bytes, y.goodput_bytes);
            assert_eq!(x.stats, y.stats);
        }
    }
}
