//! `servebench`: the serving benchmark of the oxbar workspace.
//!
//! ```text
//! servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run serves three phases through the public `oxbar-serve` API —
//! `cnn_wire_open`, `cnn_offline` and `llm_wire_generate` (see
//! `README.md`) — and checks every answer against an in-process oracle.
//! The named workload's phase runs first, with `--seconds` of traffic
//! and several timed set-ups; the other two run a short fixed pass so
//! that every run reports every metric. The last line of stdout is one
//! JSON object: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics from spans with `--trace 1`.

mod cnn_wire;
mod common;
mod host;
mod llm_wire;
mod offline;
mod probes;
mod report;
mod spans;
mod stats;
mod wire;

use std::process::ExitCode;

/// The workloads, each named after the phase it measures at length.
pub const WORKLOADS: [&str; 3] = ["cnn_wire_open", "cnn_offline", "llm_wire_generate"];

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Index into [`WORKLOADS`].
    pub workload: usize,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Seconds of traffic in the named workload's phase.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
}

const USAGE: &str =
    "usage: servebench --workload <cnn_wire_open|cnn_offline|llm_wire_generate> --seed <n> --seconds <s> --trace <0|1>";

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .position(|w| *w == value)
                        .ok_or_else(|| bad(&"unknown workload"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad(&"must lie in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("servebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match report::run(&args) {
        Ok(out) => {
            println!("{out}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> impl Iterator<Item = String> + '_ {
        s.split_whitespace().map(str::to_string)
    }

    #[test]
    fn parses_a_full_command_line() {
        let args = parse(argv(
            "--workload cnn_offline --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            args,
            Args {
                workload: 1,
                seed: 7,
                seconds: 10.0,
                trace: true
            }
        );
    }

    #[test]
    fn rejects_unknown_or_missing_values() {
        assert!(parse(argv("--workload hit --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse(argv("--workload cnn_offline --seed 1 --seconds 1")).is_err());
        assert!(parse(argv(
            "--workload cnn_offline --seed x --seconds 1 --trace 0"
        ))
        .is_err());
        assert!(parse(argv(
            "--workload cnn_offline --seed 1 --seconds 0 --trace 0"
        ))
        .is_err());
        assert!(parse(argv(
            "--workload cnn_offline --seed 1 --seconds 1 --trace 2"
        ))
        .is_err());
    }
}
