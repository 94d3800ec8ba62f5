//! The repo benchmark: four workloads, host-time end-to-end metrics,
//! per-layer probes and a traced run. See `README.md`.
//!
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>` is one run
//! of one workload, ending in one JSON line (the `BENCHMARK.json`
//! contract). Without `--workload` every workload runs, untraced then
//! traced, each in a fresh child process; `--selfcheck` does that twice
//! and compares the two sets against the benchmark's own bounds.

#![forbid(unsafe_code)]

mod catalogue;
mod layers;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use catalogue::{def, Metric, END_TO_END, PER_LAYER};
use stats::{median, peak_rss_mib, quartiles};
use trace::{secs_of, Span, Tracer};
use workloads::{
    build_campaigns, campaign_ids, campaign_rep, check_campaign_rep, check_sim_rep, golden_dir,
    goldens_for, sim_rep, sim_workload, warmups, Checks, Scale, SimRep, SimWorkload, DEFAULT_SEED,
    WORKLOADS,
};

/// Timed reps a simulator workload contributes at least, however short
/// `--seconds` is.
const MIN_SIM_REPS: usize = 5;
/// `campaign_quick` needs two reps to compare their CSVs.
const MIN_CAMPAIGN_REPS: usize = 2;

const USAGE: &str = "usage: trim-benchmark [--workload NAME] [--seed N] [--seconds S] \
[--trace 0|1] [--out DIR] [--scale full|tiny] [--goldens DIR] [--selfcheck]";

#[derive(Clone, Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    scale: Scale,
    /// Where the committed golden CSVs live.
    goldens: PathBuf,
    selfcheck: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 15.0,
        trace: false,
        out: Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
        scale: Scale::Full,
        goldens: golden_dir(),
        selfcheck: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--selfcheck" {
            args.selfcheck = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!("unknown workload '{value}' (one of {WORKLOADS:?})"));
                }
                args.workload = Some(value.clone());
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => args.out = PathBuf::from(value),
            "--goldens" => args.goldens = PathBuf::from(value),
            "--scale" => {
                args.scale = match value.as_str() {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown option '{flag}'")),
        }
    }
    Ok(args)
}

/// What one run of one workload produced.
#[derive(Clone, Debug, Default)]
struct RunResult {
    metrics: Vec<Metric>,
    /// Human-only detail printed beside a metric (quartiles, counts).
    notes: BTreeMap<String, String>,
    checks: Checks,
    spans: Vec<Span>,
}

impl RunResult {
    /// Reports the median of `samples` under `name`, quartiles beside it.
    fn median_of(&mut self, name: &str, samples: &[f64]) {
        let (q1, q3) = quartiles(samples);
        let list: Vec<String> = samples.iter().map(|v| format!("{v:.4e}")).collect();
        let note = format!(
            "q1={q1:.6} q3={q3:.6} n={} samples={}",
            samples.len(),
            list.join(",")
        );
        self.notes.insert(name.to_string(), note);
        self.metrics.push(Metric::new(name, median(samples)));
    }
}

/// Scratch space of this process under `--out`; removed when the run ends.
fn scratch_dir(args: &Args) -> PathBuf {
    args.out.join(format!("tmp-{}", std::process::id()))
}

/// Untraced reps of a simulator workload: the end-to-end metrics.
fn end_to_end_sim(name: &str, w: &SimWorkload, args: &Args) -> RunResult {
    let mut r = RunResult::default();
    let mut reference = None;
    let mut checked_rep = || {
        let rep = sim_rep(w, false, &mut Tracer::off());
        let reference = reference.get_or_insert_with(|| rep.digest());
        check_sim_rep(name, w, &rep, reference, &mut r.checks);
        rep
    };
    for _ in 0..warmups(name) {
        checked_rep();
    }
    let mut timed: Vec<SimRep> = Vec::new();
    let mut measured = 0.0;
    while measured < args.seconds || timed.len() < MIN_SIM_REPS {
        let rep = checked_rep();
        measured += rep.wall_s;
        timed.push(rep);
    }
    let column = |f: fn(&SimRep) -> f64| timed.iter().map(f).collect::<Vec<f64>>();
    r.median_of("wall_s", &column(|rep| rep.wall_s));
    r.median_of("setup_s", &column(|rep| rep.setup_s));
    r.median_of(
        "work_per_s",
        &column(|rep| rep.audit.injected as f64 / rep.run_s),
    );
    r
}

/// The CSVs every rep of `campaign_quick` must reproduce: the committed
/// goldens at the default seed, the first rep's otherwise.
fn campaign_reference(args: &Args, first: &BTreeMap<String, Vec<u8>>) -> BTreeMap<String, Vec<u8>> {
    if args.seed == DEFAULT_SEED {
        goldens_for(first, &args.goldens)
    } else {
        first.clone()
    }
}

/// Untraced reps of `campaign_quick`: the end-to-end metrics.
fn end_to_end_campaign(args: &Args) -> RunResult {
    let mut r = RunResult::default();
    let ids = campaign_ids(args.scale);
    let dir = scratch_dir(args).join("results");
    let mut reference = None;
    let (mut wall, mut rate) = (Vec::new(), Vec::new());
    let mut measured = 0.0;
    while measured < args.seconds || wall.len() < MIN_CAMPAIGN_REPS {
        let rep = campaign_rep(ids, 1, args.seed, &dir, &mut Tracer::off());
        let reference = reference.get_or_insert_with(|| campaign_reference(args, &rep.csvs));
        check_campaign_rep(&rep, reference, &mut r.checks);
        measured += rep.run_s;
        wall.push(rep.run_s);
        rate.push(rep.jobs as f64 / rep.run_s);
    }
    // Building the 13 campaigns takes tens of microseconds: too short to
    // time once per rep, so time batches of 50 on their own.
    let setup: Vec<f64> = (0..21)
        .map(|_| {
            let t0 = stats::now();
            for _ in 0..50 {
                std::hint::black_box(build_campaigns(ids));
            }
            stats::secs_since(t0) / 50.0
        })
        .collect();
    r.median_of("wall_s", &wall);
    r.median_of("setup_s", &setup);
    r.median_of("work_per_s", &rate);
    r
}

/// Checks that the phases under every `rep` span account for it.
fn check_span_tree(spans: &[Span], checks: &mut Checks) {
    for rep in spans.iter().filter(|s| s.name == "rep") {
        let own = trace::self_secs(spans, rep.id);
        checks.check(own.abs() <= 0.02 * rep.secs(), || {
            format!(
                "{}: {:.6} s of a {:.6} s rep lie outside its phases",
                rep.workload,
                own,
                rep.secs()
            )
        });
    }
}

/// The phase metrics, read from the last traced rep.
fn phase_metrics(r: &mut RunResult) {
    for phase in ["build", "wire", "run", "harvest", "drop"] {
        let secs = secs_of(&r.spans, phase).expect("a traced rep has every phase");
        r.metrics
            .push(Metric::new(format!("phase.{phase}_s"), secs));
    }
}

/// Deterministic counts of a simulator rep, in the order
/// [`traced_sim`] reports them.
const SIM_COUNTS: [&str; 6] = [
    "netsim.pkts_injected",
    "netsim.pkts_dropped",
    "netsim.arena_high_water",
    "netsim.events",
    "trim-tcp.timeouts",
    "trim-tcp.completed_flows",
];

/// The traced pass of a simulator workload: cold rep, warm-ups, the
/// traced rep between two untraced ones, one monitored rep.
fn traced_sim(name: &str, w: &SimWorkload, r: &mut RunResult) {
    let cold = sim_rep(w, false, &mut Tracer::off());
    let reference = cold.digest();
    check_sim_rep(name, w, &cold, &reference, &mut r.checks);
    for _ in 1..warmups(name) {
        let rep = sim_rep(w, false, &mut Tracer::off());
        check_sim_rep(name, w, &rep, &reference, &mut r.checks);
    }
    // An untraced rep either side of the traced one, so a box that is
    // speeding up or slowing down does not read as tracing overhead.
    let before = sim_rep(w, false, &mut Tracer::off());
    let mut tracer = Tracer::on(name);
    let traced = sim_rep(w, false, &mut tracer);
    let after = sim_rep(w, false, &mut Tracer::off());
    for rep in [&before, &traced, &after] {
        check_sim_rep(name, w, rep, &reference, &mut r.checks);
    }
    let untraced_s = (before.wall_s + after.wall_s) / 2.0;
    // Read before the monitored rep, the probes and the reference
    // measurements raise the high-water mark with memory of their own.
    let peak_rss_mb = peak_rss_mib();
    let monitored = sim_rep(w, true, &mut Tracer::off());
    check_sim_rep(name, w, &monitored, &reference, &mut r.checks);

    r.spans = tracer.spans().to_vec();
    phase_metrics(r);
    r.metrics.extend([
        Metric::new("trace.overhead_ratio", traced.wall_s / untraced_s),
        Metric::new("process.cold_rep_s", cold.wall_s),
        Metric::new("process.peak_rss_mb", peak_rss_mb),
    ]);
    let counts = [
        traced.audit.injected,
        traced.audit.dropped,
        traced.arena_high_water as u64,
        traced.events,
        traced.timeouts,
        traced.completed as u64,
    ];
    r.metrics.extend(
        SIM_COUNTS
            .iter()
            .zip(counts)
            .map(|(name, n)| Metric::new(*name, n as f64)),
    );
}

/// The traced pass of `campaign_quick`: one untraced rep (cold, as a
/// user's is), one traced with a span per experiment.
fn traced_campaign(args: &Args, r: &mut RunResult) -> f64 {
    let ids = campaign_ids(args.scale);
    let dir = scratch_dir(args).join("results");
    let plain = campaign_rep(ids, 1, args.seed, &dir, &mut Tracer::off());
    let reference = campaign_reference(args, &plain.csvs);
    check_campaign_rep(&plain, &reference, &mut r.checks);
    let mut tracer = Tracer::on("campaign_quick");
    let traced = campaign_rep(ids, 1, args.seed, &dir, &mut tracer);
    check_campaign_rep(&traced, &reference, &mut r.checks);

    r.spans = tracer.spans().to_vec();
    phase_metrics(r);
    r.metrics.extend([
        Metric::new("trace.overhead_ratio", traced.run_s / plain.run_s),
        Metric::new("process.cold_rep_s", plain.run_s),
        Metric::new("process.peak_rss_mb", peak_rss_mib()),
    ]);
    // `drive` exposes no packet accounting: the simulator counts of a
    // campaign are not observable from outside and read zero.
    r.metrics
        .extend(SIM_COUNTS.iter().map(|name| Metric::new(*name, 0.0)));
    traced.run_s
}

/// One run of one workload, as the `BENCHMARK.json` contract defines it.
fn run_workload(name: &str, args: &Args) -> RunResult {
    let sim = sim_workload(name, args.seed, args.scale);
    let mut r = match (&sim, args.trace) {
        (Some(w), false) => end_to_end_sim(name, w, args),
        (None, false) => end_to_end_campaign(args),
        (_, true) => {
            let mut r = RunResult::default();
            let t0 = stats::now();
            let campaign = match &sim {
                Some(w) => {
                    traced_sim(name, w, &mut r);
                    None
                }
                None => Some((traced_campaign(args, &mut r), r.spans.clone())),
            };
            check_span_tree(&r.spans, &mut r.checks);
            eprintln!("# traced pass of {name}: {:.1} s", stats::secs_since(t0));
            let scratch = scratch_dir(args);
            r.metrics.extend(layers::references(
                args.seed, args.scale, &scratch, campaign,
            ));
            eprintln!("# + reference measurements: {:.1} s", stats::secs_since(t0));
            r.metrics
                .extend(layers::probes(args.seed, args.scale, &scratch));
            eprintln!("# + layer probes: {:.1} s", stats::secs_since(t0));
            r
        }
    };
    // Report in catalogue order, whatever order the passes ran in.
    let expected: &[catalogue::Def] = if args.trace { &PER_LAYER } else { &END_TO_END };
    r.metrics
        .sort_by_key(|m| expected.iter().position(|d| d.name == m.name));
    assert!(
        r.metrics
            .iter()
            .map(|m| m.name.as_str())
            .eq(expected.iter().map(|d| d.name)),
        "a run reports exactly the catalogue's metrics"
    );
    r
}

/// `"name": {"value": v, "unit": "u"}, ...`, as the contract writes metrics.
fn metric_entries(metrics: &[Metric]) -> String {
    let entries: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                m.value,
                def(&m.name).unit
            )
        })
        .collect();
    entries.join(", ")
}

/// The contract's result line.
fn result_line(r: &RunResult) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.checks.failed == 0,
        r.checks.attempted,
        r.checks.failed,
        metric_entries(&r.metrics)
    )
}

/// What the parent of a child run reads back from its result line.
#[derive(Clone, Debug, Default, PartialEq)]
struct ChildResult {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

/// Parses a line [`result_line`] wrote.
fn parse_result_line(line: &str) -> Option<ChildResult> {
    fn after<'a>(text: &'a str, key: &str) -> Option<&'a str> {
        text.find(key).map(|at| &text[at + key.len()..])
    }
    fn number(text: &str) -> Option<&str> {
        text.split([',', '}']).next().map(str::trim)
    }
    let attempted = number(after(line, "\"attempted\": ")?)?.parse().ok()?;
    let failed = number(after(line, "\"failed\": ")?)?.parse().ok()?;
    let body = after(line, "\"metrics\": {")?;
    let mut metrics = Vec::new();
    for entry in body.split("\"}").filter(|e| e.contains("\"value\": ")) {
        let name = after(entry, "\"")?.split('"').next()?;
        let value = number(after(entry, "\"value\": ")?)?.parse().ok()?;
        metrics.push(Metric::new(name, value));
    }
    Some(ChildResult {
        attempted,
        failed,
        metrics,
    })
}

fn print_metrics(r: &RunResult) {
    for m in &r.metrics {
        let note = r.notes.get(&m.name).map_or("", String::as_str);
        println!("{} {} {} {note}", m.name, m.value, def(&m.name).unit);
    }
    for failure in &r.checks.failures {
        println!("FAILED CHECK {failure}");
    }
    println!(
        "checks attempted={} failed={}",
        r.checks.attempted, r.checks.failed
    );
}

/// `--workload`: one run, ending in the contract's JSON line.
fn single(name: &str, args: &Args) -> ExitCode {
    std::fs::create_dir_all(scratch_dir(args)).expect("--out is writable");
    let r = run_workload(name, args);
    std::fs::remove_dir_all(scratch_dir(args)).expect("scratch directory is removable");
    if args.trace {
        let path = args.out.join("trace.jsonl");
        std::fs::write(&path, trace::to_jsonl(&r.spans)).expect("--out is writable");
    }
    print_metrics(&r);
    println!("{}", result_line(&r));
    if r.checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Results of every workload, untraced and traced: `(workload, trace)`.
type FullSet = BTreeMap<(&'static str, bool), ChildResult>;

/// Runs every workload, untraced then traced, each in a fresh child
/// process of this executable, and writes `metrics.json` and
/// `trace.jsonl` under `out`.
fn full(args: &Args, out: &Path) -> Result<FullSet, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let mut set = FullSet::new();
    let mut spans = String::new();
    for workload in WORKLOADS {
        for trace in [false, true] {
            let child_out = out.join(workload);
            eprintln!("# {workload} --trace {}", u8::from(trace));
            let output = Command::new(&exe)
                .args(["--workload", workload])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .args([
                    "--scale",
                    if args.scale == Scale::Tiny {
                        "tiny"
                    } else {
                        "full"
                    },
                ])
                .arg("--goldens")
                .arg(&args.goldens)
                .arg("--out")
                .arg(&child_out)
                .stdin(Stdio::null())
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("cannot start {workload}: {e}"))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            // A child that died (a panic, say) printed no result: all of
            // its checks count as failed.
            let result = stdout
                .lines()
                .last()
                .and_then(parse_result_line)
                .unwrap_or(ChildResult {
                    attempted: 1,
                    failed: 1,
                    metrics: Vec::new(),
                });
            for m in &result.metrics {
                println!("{workload} {} {} {}", m.name, m.value, def(&m.name).unit);
            }
            println!(
                "{workload} checks attempted={} failed={}",
                result.attempted, result.failed
            );
            if trace {
                spans +=
                    &std::fs::read_to_string(child_out.join("trace.jsonl")).unwrap_or_default();
            }
            // Gone already if the child never got as far as creating it.
            let _ = std::fs::remove_dir_all(&child_out);
            set.insert((workload, trace), result);
        }
    }
    std::fs::write(out.join("trace.jsonl"), spans).map_err(|e| e.to_string())?;
    std::fs::write(out.join("metrics.json"), metrics_json(args, &set))
        .map_err(|e| e.to_string())?;
    Ok(set)
}

fn metrics_json(args: &Args, set: &FullSet) -> String {
    let mut out = format!("{{\"seed\": {}, \"workloads\": {{", args.seed);
    for (i, workload) in WORKLOADS.iter().enumerate() {
        let (plain, traced) = (&set[&(*workload, false)], &set[&(*workload, true)]);
        let sep = if i == 0 { "" } else { "," };
        write!(
            out,
            "{sep}\n  \"{workload}\": {{\"attempted\": {}, \"failed\": {}, \"failed_ratio\": {},\n    \
             \"end_to_end\": {{{}}},\n    \"per_layer\": {{{}}}}}",
            plain.attempted + traced.attempted,
            plain.failed + traced.failed,
            (plain.failed + traced.failed) as f64 / (plain.attempted + traced.attempted) as f64,
            metric_entries(&plain.metrics),
            metric_entries(&traced.metrics)
        )
        .expect("writing to a String cannot fail");
    }
    out + "\n}}\n"
}

fn failed_checks(set: &FullSet) -> u64 {
    set.values().map(|r| r.failed).sum()
}

/// `--selfcheck`: two complete sets of runs of the same commit must
/// agree within the benchmark's own bounds, and exactly on every count.
fn selfcheck(args: &Args) -> Result<bool, String> {
    let a = full(args, &args.out.join("selfcheck-a"))?;
    let b = full(args, &args.out.join("selfcheck-b"))?;
    let mut ok = failed_checks(&a) + failed_checks(&b) == 0;
    println!("\nselfcheck: workload metric first second rel_diff bound verdict");
    for workload in WORKLOADS {
        for (trace, defs) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let value = |set: &FullSet, name: &str| {
                set[&(workload, trace)]
                    .metrics
                    .iter()
                    .find(|m| m.name == name)
                    .map(|m| m.value)
            };
            for d in defs.iter().filter(|d| d.bound.is_some() || d.exact) {
                let (Some(x), Some(y)) = (value(&a, d.name), value(&b, d.name)) else {
                    println!("selfcheck: {workload} {} missing FAIL", d.name);
                    ok = false;
                    continue;
                };
                let rel = if x == y { 0.0 } else { (y - x).abs() / x.abs() };
                let bound = d.bound.unwrap_or(0.0);
                let pass = rel <= bound;
                ok &= pass;
                let verdict = if pass { "ok" } else { "FAIL" };
                println!(
                    "selfcheck: {workload} {} {x} {y} {rel:.4} {bound} {verdict}",
                    d.name
                );
            }
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("trim-benchmark: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match (&args.workload, args.selfcheck) {
        (Some(name), false) => return single(name, &args),
        (Some(_), true) => Err("--selfcheck runs every workload; drop --workload".to_string()),
        (None, true) => selfcheck(&args),
        (None, false) => full(&args, &args.out).map(|set| failed_checks(&set) == 0),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("trim-benchmark: {msg}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let mut r = RunResult::default();
        r.metrics.push(Metric::new("wall_s", 1.203_456_789_012_3));
        r.metrics.push(Metric::new("work_per_s", 1_993_548.25));
        r.checks.check(true, String::new);
        r.checks.check(false, || "broken".into());
        let line = result_line(&r);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1, \"metrics\": {\"wall_s\": {\"value\": 1.2034567890123, \"unit\": \"s\"}, "));
        let parsed = parse_result_line(&line).unwrap();
        assert_eq!((parsed.attempted, parsed.failed), (2, 1));
        assert_eq!(parsed.metrics, r.metrics);
        assert_eq!(parse_result_line("thread 'main' panicked"), None);
    }

    #[test]
    fn arguments_are_validated() {
        let parse =
            |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        let a =
            parse("--workload incast_storm --seed 12 --seconds 3 --trace 1 --scale tiny").unwrap();
        assert_eq!(a.workload.as_deref(), Some("incast_storm"));
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.scale),
            (12, 3.0, true, Scale::Tiny)
        );
        assert!(parse("").unwrap().workload.is_none());
        for bad in [
            "--workload nope",
            "--trace 2",
            "--seconds 0",
            "--seed",
            "--frobnicate 1",
        ] {
            assert!(parse(bad).is_err(), "{bad} must be rejected");
        }
    }
}
