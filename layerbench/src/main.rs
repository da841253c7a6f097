//! `layerbench`: the layered benchmark of pnsym.
//!
//! ```text
//! layerbench --workload encode|reach|ctl --seed N --seconds S --trace 0|1
//!            --pnsymd PATH --work-dir DIR
//! ```
//!
//! Prints one detail line and then, as its last line, the result object
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` they are the
//! per-layer ones. See `README.md` for every metric.

mod daemon;
mod inproc;
mod reference;
mod refs;
mod stats;
mod trace;

use stats::{Metrics, Tally};
use std::path::PathBuf;
use std::process::ExitCode;

/// How often a run repeats its set-up; `setup_s` is the median.
pub const SETUPS: usize = 5;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub pnsymd: PathBuf,
    pub work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut pnsymd, mut work_dir) =
        (None, None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "--seconds takes a number")?),
            "--trace" => trace = Some(value == "1"),
            "--pnsymd" => pnsymd = Some(PathBuf::from(value)),
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        pnsymd: pnsymd.ok_or("--pnsymd is required")?,
        work_dir: work_dir.ok_or("--work-dir is required")?,
    })
}

/// What a workload run hands back: its metrics, the operation tally, and
/// free-form detail for the line before the result.
pub struct Outcome {
    pub metrics: Metrics,
    pub tally: Tally,
    pub detail: Metrics,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("layerbench: {err}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "encode" => inproc::run(inproc::Kind::Encode, &args),
        "reach" => inproc::run(inproc::Kind::Reach, &args),
        "ctl" => inproc::run(inproc::Kind::Ctl, &args),
        other => Err(format!("unknown workload {other}")),
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(err) => {
            eprintln!("layerbench: {err}");
            return ExitCode::from(1);
        }
    };
    for reason in &outcome.tally.reasons {
        eprintln!("layerbench: failed: {reason}");
    }
    println!("{{\"detail\": {}}}", outcome.detail.to_json());
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.tally.failed == 0,
        outcome.tally.attempted,
        outcome.tally.failed,
        outcome.metrics.to_json()
    );
    ExitCode::SUCCESS
}
