//! Command line of the real-time StateFlow benchmark:
//!
//! ```text
//! rtbench --workload <ycsb_a_wal|ycsbt_zipf|spin_uniform> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Prints a line describing the run (pinned
//! configuration, commit, host) and, last, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Exits non-zero when any request
//! errored, timed out or failed its check.

use std::path::Path;
use std::process::ExitCode;

use se_obs::ObsMode;
use se_rtbench::bench::{run, Args, WorkDir};
use se_rtbench::config::{commit_sha, describe, nproc, pinned_config, source_digest};
use se_rtbench::idle::{run_spinners, IdleSpinners, SPINNER_FLAG};
use se_rtbench::workload::{Workload, WORKLOADS};

fn usage(msg: &str) -> ExitCode {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    eprintln!(
        "rtbench: {msg}\nusage: rtbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    );
    ExitCode::from(2)
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::by_name(value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some(SPINNER_FLAG) {
        let threads = argv.get(1).and_then(|n| n.parse().ok()).unwrap_or(1);
        run_spinners(threads);
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(msg) => return usage(&msg),
    };
    let root = Path::new(".");
    let work = match WorkDir::under(root) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("rtbench: cannot create the work directory: {e}");
            return ExitCode::from(2);
        }
    };
    let mode = if args.trace {
        ObsMode::Metrics
    } else {
        ObsMode::Off
    };
    let cfg = pinned_config(
        args.workload.durability,
        Path::new("wal"),
        mode,
        Path::new("obs"),
    );
    println!(
        "run {{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"commit\":\"{}\",\
         \"source_digest\":\"{}\",\"nproc\":{},\"config\":{}}}",
        args.workload.name,
        args.seed,
        args.seconds,
        args.trace,
        commit_sha(root),
        source_digest(root, &["crates", "vendor", "rtbench/src"]),
        nproc(),
        describe(&cfg)
    );
    let spinners = match IdleSpinners::start(nproc()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("rtbench: cannot start the idle spinners: {e}");
            return ExitCode::from(2);
        }
    };
    let out = run(&args, &work);
    drop(spinners);
    println!("{}", out.to_json());
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
