//! The benchmark's output: the metric table, the environment header and the
//! one-line JSON result.

use std::fmt::Write as _;

use crate::bench::Outcome;

/// Which pass reports a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// The untraced run (`--trace 0`): what a user of the system sees.
    EndToEnd,
    /// The traced run (`--trace 1`): one layer's share of the work.
    PerLayer,
}

/// One reported metric. `BENCHMARK.json` declares the same names and units.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name in the JSON result.
    pub name: &'static str,
    /// Unit in the JSON result.
    pub unit: &'static str,
    /// The pass that reports it.
    pub pass: Pass,
}

const fn e2e(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        pass: Pass::EndToEnd,
    }
}

const fn layer(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        pass: Pass::PerLayer,
    }
}

/// Every metric, in output order.
pub const METRICS: &[Metric] = &[
    e2e("throughput_rps", "req/s"),
    e2e("admit_p50_us", "us"),
    e2e("admit_p99_us", "us"),
    e2e("paced_p50_us", "us"),
    e2e("admitted_pct", "%"),
    e2e("energy_per_request", "energy"),
    e2e("peak_rss_mib", "MiB"),
    e2e("setup_s", "s"),
    layer("sim.self_us_per_admit", "us"),
    layer("sim.drain_ms", "ms"),
    layer("predict.self_us_per_admit", "us"),
    layer("predict.observe_ns", "ns"),
    layer("predict.forecast_ns", "ns"),
    layer("predict.calls", "count"),
    layer("predict.offered", "count"),
    layer("predict.kept", "count"),
    layer("predict.kept_ratio", "ratio"),
    layer("predict.type_hit_pct", "%"),
    layer("core.self_us_per_admit", "us"),
    layer("core.decide_p50_us", "us"),
    layer("core.decide_p99_us", "us"),
    layer("core.decide_share_pct", "%"),
    layer("core.depth_mean", "jobs"),
    layer("core.depth_max", "jobs"),
    layer("core.phantoms_mean", "jobs"),
    layer("core.nodes_per_decide", "count"),
    layer("core.used_prediction_pct", "%"),
    layer("core.solver_timeouts", "count"),
    layer("core.degraded", "count"),
    layer("core.rejection_pct", "%"),
    layer("prune.rebuilds", "count"),
    layer("prune.indexed_rows", "count"),
    layer("prune.owned_rows", "count"),
    layer("prune.widened", "count"),
    layer("prune.widened_per_decide", "count"),
    layer("sched.engine_verdicts_per_decide", "count"),
    layer("platform.index_build_ms", "ms"),
    layer("trace.generate_ms", "ms"),
    layer("paced.p99_us", "us"),
    layer("paced.wait_p99_us", "us"),
    layer("bench.admit_us_per_admit", "us"),
    layer("bench.admit_samples", "count"),
    layer("bench.paced_samples", "count"),
    layer("bench.failed_pct", "%"),
    layer("bench.tracing_overhead_pct", "%"),
];

/// Build profile, processor count, git commit and compiler of this run.
#[must_use]
pub fn environment() -> String {
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    format!(
        "profile={profile} nproc={nproc} commit={} rustc={}",
        commit(),
        env!("PERFBENCH_RUSTC")
    )
}

/// `HEAD` of the repository in the working directory, or `unknown` when the
/// directory is not a git checkout.
fn commit() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// The result line: `correct`, `attempted`, `failed` and every metric of
/// `pass` with its unit. A metric the run did not produce, or one that is
/// not finite, makes the result incorrect and is written as 0.
#[must_use]
pub fn result_json(outcome: &Outcome, pass: Pass) -> String {
    let mut correct = outcome.problems.is_empty() && outcome.attempted > 0;
    let mut metrics = String::new();
    for m in METRICS.iter().filter(|m| m.pass == pass) {
        let value = match outcome.metrics.get(m.name) {
            Some(v) if v.is_finite() => *v,
            _ => {
                correct = false;
                0.0
            }
        };
        if !metrics.is_empty() {
            metrics.push_str(", ");
        }
        let _ = write!(
            metrics,
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.attempted, outcome.failed
    )
}
