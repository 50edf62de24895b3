//! End-to-end benchmark of the shipped GMLake allocator stack.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <train-offload|train-smalltensor|serve-churn> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One closed-loop client thread drives the stack as `PoolService::register`
//! and `ServingService::new` build it, with inputs generated from the seed.
//! `--trace 0` prints the end-to-end metrics; `--trace 1` prints the
//! per-layer metrics from spans and public counters at each layer
//! boundary, and writes the spans to `e2ebench/out/`. The last line of
//! standard output is the JSON result. A correctness violation prints the
//! reason to standard error and exits with code 1; bad arguments exit
//! with code 2.

mod check;
mod ladder;
mod ops;
mod report;
mod rounds;
mod serve;
mod spans;
mod stats;
mod train;

use std::process::ExitCode;
use std::time::Duration;

use train::TrainWorkload;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.clamp(1, 120)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn run(args: &Args) -> Result<report::Report, Box<dyn std::error::Error>> {
    let budget = Duration::from_secs(args.seconds);
    let train = match args.workload.as_str() {
        "train-offload" => Some(TrainWorkload::Offload),
        "train-smalltensor" => Some(TrainWorkload::SmallTensor),
        "serve-churn" => None,
        other => return Err(format!("unknown workload {other}").into()),
    };
    Ok(match (train, args.trace) {
        (Some(w), false) => train::end_to_end(w, args.seed, budget)?,
        (Some(w), true) => train::per_layer(w, args.seed, budget)?,
        (None, false) => serve::end_to_end(args.seed, budget)?,
        (None, true) => serve::per_layer(args.seed, budget)?,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(r) => {
            let mode = if args.trace {
                "per-layer"
            } else {
                "end-to-end"
            };
            print!(
                "{}",
                r.summary(&format!(
                    "{} seed {} ({mode}, {} s)",
                    args.workload, args.seed, args.seconds
                ))
            );
            println!("{}", r.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e2ebench: FAILED: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_driver_command_line() {
        assert_eq!(
            args("--workload serve-churn --seed 7 --seconds 12 --trace 1"),
            Ok(Args {
                workload: "serve-churn".into(),
                seed: 7,
                seconds: 12,
                trace: true,
            })
        );
        assert!(args("--workload x --seed").is_err());
        assert!(args("--workload x --seed 1 --trace 2").is_err());
        assert!(args("--seed 1").is_err());
    }

    #[test]
    fn an_unknown_workload_is_an_error() {
        let a = args("--workload nope --seed 1").unwrap();
        assert!(run(&a).is_err());
    }
}
