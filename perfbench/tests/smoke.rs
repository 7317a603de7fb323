//! Smoke test of the benchmark itself: at the tiny size, every workload,
//! untraced and traced, passes every correctness check (including traced ≡
//! untraced decisions and the recorded reference digest) and reports every
//! metric `BENCHMARK.json` declares, with its unit.

use perfbench::bench::{run, Options};
use perfbench::report::{result_json, Pass, METRICS};
use perfbench::workload::{REFERENCE_SEED, WORKLOADS};

fn declared() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

#[test]
fn benchmark_json_declares_every_workload_and_metric() {
    let declared = declared();
    for spec in &WORKLOADS {
        assert!(
            declared.contains(&format!("\"name\": \"{}\"", spec.name)),
            "{}",
            spec.name
        );
    }
    for m in METRICS {
        let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", m.name, m.unit);
        assert!(declared.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
}

#[test]
fn every_workload_passes_its_checks_and_reports_every_metric() {
    for spec in &WORKLOADS {
        for (trace, pass) in [(false, Pass::EndToEnd), (true, Pass::PerLayer)] {
            let options = Options {
                seed: REFERENCE_SEED,
                seconds: 0.0,
                trace,
                tiny: true,
                spans_dir: None,
            };
            let outcome = run(spec, &options);
            assert!(
                outcome.problems.is_empty(),
                "{} trace={trace}: {:?}",
                spec.name,
                outcome.problems
            );
            assert_eq!(outcome.failed, 0, "{}", spec.name);
            let line = result_json(&outcome, pass);
            assert!(line.starts_with("{\"correct\": true"), "{line}");
            for m in METRICS {
                let entry = format!("\"{}\": {{\"value\": ", m.name);
                let unit = format!("\"unit\": \"{}\"}}", m.unit);
                assert_eq!(
                    line.contains(&entry),
                    m.pass == pass,
                    "{} in {line}",
                    m.name
                );
                assert!(
                    m.pass != pass || line.contains(&unit),
                    "{} unit in {line}",
                    m.name
                );
            }
        }
    }
}

#[test]
fn traced_counts_repeat_exactly_between_runs() {
    let spec = &WORKLOADS[0];
    let options = Options {
        seed: 7,
        seconds: 0.0,
        trace: true,
        tiny: true,
        spans_dir: None,
    };
    let counts = |outcome: &perfbench::bench::Outcome| -> Vec<(&str, f64)> {
        METRICS
            .iter()
            .filter(|m| {
                m.pass == Pass::PerLayer && m.unit == "count" && !m.name.starts_with("bench.")
            })
            .map(|m| (m.name, outcome.metrics[m.name]))
            .collect()
    };
    let (a, b) = (run(spec, &options), run(spec, &options));
    assert!(a.problems.is_empty() && b.problems.is_empty());
    assert_eq!(counts(&a), counts(&b));
    assert_eq!(
        a.metrics["core.rejection_pct"],
        b.metrics["core.rejection_pct"]
    );
}

#[test]
fn a_missing_metric_makes_the_result_incorrect() {
    let outcome = perfbench::bench::Outcome {
        attempted: 1,
        ..Default::default()
    };
    assert!(result_json(&outcome, Pass::EndToEnd).starts_with("{\"correct\": false"));
}
