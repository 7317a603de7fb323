//! Command line of the benchmark:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! Prints the environment header, a few summary lines, and as the last line
//! the JSON result. Exits 1 when a correctness check fails, 2 on a usage
//! error or from a debug build.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::bench::{run, Options};
use perfbench::report::{environment, result_json, Pass};
use perfbench::workload::{find, WORKLOADS};

fn usage(message: &str) -> ExitCode {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    eprintln!("perfbench: {message}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]",
        names.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("perfbench: refusing to run a debug build; build with --release");
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut out = None;
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return usage(&format!("{} needs a value", pair[0]));
        };
        match flag.as_str() {
            "--workload" => workload = find(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
            }
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            "--out" => out = Some(PathBuf::from(value)),
            other => return usage(&format!("unknown flag {other}")),
        }
    }
    let (Some(spec), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are required and must be valid");
    };
    let options = Options {
        seed,
        seconds,
        trace,
        tiny: false,
        spans_dir: trace.then(|| out.unwrap_or_else(|| PathBuf::from("perfbench/out"))),
    };
    println!(
        "# perfbench {} seed={seed} trace={} {}",
        spec.name,
        u8::from(trace),
        environment()
    );
    let outcome = run(spec, &options);
    for note in &outcome.notes {
        println!("# {note}");
    }
    for problem in &outcome.problems {
        eprintln!("perfbench: check failed: {problem}");
    }
    let pass = if trace {
        Pass::PerLayer
    } else {
        Pass::EndToEnd
    };
    let line = result_json(&outcome, pass);
    println!("{line}");
    if line.starts_with("{\"correct\": true") {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
