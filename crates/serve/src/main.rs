//! `trim-serve` — run the web-serving workload and print its SLO report.
//!
//! ```text
//! trim-serve                          # 2,048 sessions, Reno, 4-pod fat-tree
//! trim-serve --sessions N --seed S    # size and seed the session model
//! trim-serve --trim                   # switch every server to TCP-TRIM
//! trim-serve --pods K                 # fat-tree pod count (even)
//! trim-serve --horizon SECS           # simulated horizon
//! trim-serve --crossval               # fluid-vs-packet differential table
//! ```
//!
//! The report prints the session accounting, request percentiles
//! (p50/p99/p999 ARCT), goodput, and last-hop queue occupancy that the
//! `serve_*` campaigns persist as CSV artifacts.

use std::process::ExitCode;

use trim_serve::run::{run, ServeConfig};
use trim_serve::session::SessionModel;
use trim_serve::{cross_validate, instances};

#[derive(Debug)]
struct Options {
    sessions: usize,
    seed: u64,
    trim: bool,
    pods: usize,
    horizon: f64,
    crossval: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Options, String> {
    let mut opts = Options {
        sessions: 2_048,
        seed: 1,
        trim: false,
        pods: 4,
        horizon: 3.0,
        crossval: false,
    };
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        let mut value = |flag: &str| args.next().ok_or_else(|| format!("{flag} needs a value"));
        match a.as_str() {
            "--sessions" => {
                opts.sessions = value("--sessions")?
                    .parse()
                    .map_err(|e| format!("--sessions: {e}"))?
            }
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--trim" => opts.trim = true,
            "--pods" => {
                opts.pods = value("--pods")?
                    .parse()
                    .map_err(|e| format!("--pods: {e}"))?
            }
            "--horizon" => {
                opts.horizon = value("--horizon")?
                    .parse()
                    .map_err(|e| format!("--horizon: {e}"))?
            }
            "--crossval" => opts.crossval = true,
            "--help" | "-h" => {
                println!(
                    "usage: trim-serve [--sessions N] [--seed S] [--trim] [--pods K] \
                     [--horizon SECS] [--crossval]\n\
                     Runs the web-serving workload and prints its SLO report."
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown option '{other}' (see --help)")),
        }
    }
    // The library asserts these; reject them here so bad input is a
    // usage error, not a panic.
    if opts.sessions == 0 {
        return Err("--sessions must be at least 1".into());
    }
    if opts.pods < 2 || !opts.pods.is_multiple_of(2) {
        return Err(format!(
            "--pods must be even and at least 2, got {}",
            opts.pods
        ));
    }
    if !(opts.horizon.is_finite() && opts.horizon > 0.0) {
        return Err(format!(
            "--horizon must be finite and positive, got {}",
            opts.horizon
        ));
    }
    Ok(opts)
}

fn crossval_table() -> ExitCode {
    println!(
        "{:<10} {:>7} {:>14} {:>14} {:>9}",
        "instance", "senders", "packet ARCT s", "fluid ARCT s", "rel err"
    );
    let mut worst = 0.0f64;
    for inst in instances() {
        let cv = cross_validate(&inst);
        worst = worst.max(cv.rel_err);
        println!(
            "{:<10} {:>7} {:>14.6} {:>14.6} {:>8.1}%",
            cv.name,
            cv.senders,
            cv.packet_arct,
            cv.fluid_arct,
            cv.rel_err * 100.0
        );
    }
    println!("worst relative error: {:.1}% (gate: 10%)", worst * 100.0);
    if worst <= 0.10 {
        ExitCode::SUCCESS
    } else {
        eprintln!("trim-serve: mean-field model out of tolerance");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("trim-serve: {msg}");
            return ExitCode::from(2);
        }
    };
    if opts.crossval {
        return crossval_table();
    }
    let mut cfg = ServeConfig::new(SessionModel::new(opts.seed, opts.sessions));
    cfg.pods = opts.pods;
    cfg.horizon_secs = opts.horizon;
    if opts.trim {
        cfg = cfg.trim();
    }
    let report = run(&cfg);
    println!(
        "serve: {} sessions over a {}-pod fat-tree ({})",
        report.sessions_planned,
        opts.pods,
        if opts.trim { "trim" } else { "reno" },
    );
    println!(
        "  sessions   completed {:>8}  open-at-horizon {:>8}  peak concurrent {:>8}",
        report.sessions_completed, report.sessions_open_at_horizon, report.peak_concurrent_sessions
    );
    println!(
        "  requests   issued {:>11}  completed {:>14}  in-flight {:>6}",
        report.requests_issued, report.requests_completed, report.requests_in_flight
    );
    println!(
        "  ARCT       mean {:>10.6}s  p50 {:>10.6}s  p99 {:>10.6}s  p999 {:>10.6}s",
        report.arct.mean, report.arct.p50, report.arct.p99, report.arct.p999
    );
    println!(
        "  transport  goodput {:>9.2} Mbit/s  timeouts {:>6}  downlink drops {:>6}",
        report.goodput_mbps, report.timeouts, report.downlink_dropped
    );
    println!(
        "  queues     downlink mean occupancy {:>7.3} pkt  max {:>4} pkt",
        report.downlink_mean_occupancy, report.downlink_max_occupancy
    );
    println!(
        "  engine     events {:>12}  horizon {:>6.2}s",
        report.events_processed, opts.horizon
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        parse_args(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn defaults_and_valid_values_parse() {
        let o = parse(&[]).unwrap();
        assert_eq!((o.sessions, o.seed, o.pods, o.horizon), (2_048, 1, 4, 3.0));
        assert!(!o.trim && !o.crossval);
        let o = parse(&[
            "--sessions",
            "7",
            "--pods",
            "6",
            "--horizon",
            "0.5",
            "--trim",
        ])
        .unwrap();
        assert_eq!((o.sessions, o.pods, o.horizon, o.trim), (7, 6, 0.5, true));
    }

    #[test]
    fn values_the_library_asserts_on_are_usage_errors_naming_the_flag() {
        for (args, flag) in [
            (["--pods", "3"], "--pods"),
            (["--pods", "0"], "--pods"),
            (["--horizon", "0"], "--horizon"),
            (["--horizon", "-1"], "--horizon"),
            (["--horizon", "nan"], "--horizon"),
            (["--horizon", "inf"], "--horizon"),
            (["--sessions", "0"], "--sessions"),
            (["--sessions", "-4"], "--sessions"),
            (["--pods", "x"], "--pods"),
        ] {
            let err = parse(&args).unwrap_err();
            assert!(err.contains(flag), "{args:?}: {err}");
            assert!(!err.contains('\n'), "{args:?}: one line, got {err:?}");
        }
        assert!(parse(&["--pods"]).unwrap_err().contains("needs a value"));
        assert!(parse(&["--bogus"]).unwrap_err().contains("unknown option"));
    }
}
