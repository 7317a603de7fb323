//! Differential suite for the with-phantom incremental fast path: end-to-end
//! simulations with prediction *on* (every activation plans around a
//! future-released phantom) must produce **bit-identical**
//! [`rtrm_sim::SimReport`]s whether feasibility probes are answered by the
//! incremental timelines (the segmented demand-criterion sweep on
//! preemptable resources) or by the pre-incremental memoized engine
//! reference (a manager deciding in its own [`TimelinePool::oracle`]).
//! Admissions, placements, energies, gates — all of it must compare equal,
//! under both managers, on platforms with and without a GPU.

use proptest::prelude::*;
use rand::SeedableRng;
use rtrm_core::{Activation, Decision, ExactRm, HeuristicRm, ResourceManager, TimelinePool};
use rtrm_platform::{Platform, TaskCatalog, Trace};
use rtrm_predict::OraclePredictor;
use rtrm_sim::{SimConfig, Simulator};
use rtrm_trace::{generate_catalog, generate_traces, CatalogConfig, TraceConfig};

fn world(seed: u64, cpu_only: bool) -> (Platform, TaskCatalog, Vec<Trace>) {
    let platform = if cpu_only {
        let mut b = Platform::builder();
        b.cpus(3);
        b.build()
    } else {
        Platform::paper_default()
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let catalog = generate_catalog(&platform, &CatalogConfig::paper(), &mut rng);
    let cfg = TraceConfig {
        length: 50,
        ..TraceConfig::calibrated_vt()
    };
    let traces = generate_traces(&catalog, &cfg, 2, seed);
    (platform, catalog, traces)
}

/// Decides in its own [`TimelinePool::oracle`] instead of the pool the
/// simulator hands it: every feasibility probe becomes a memoized
/// from-scratch engine run.
struct OracleFeasibility<R> {
    inner: R,
    pool: TimelinePool,
}

impl<R: ResourceManager> ResourceManager for OracleFeasibility<R> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn decide(&mut self, activation: &Activation<'_>) -> Decision {
        self.pool
            .ensure_index(activation.platform, activation.catalog);
        self.inner.decide_with_pool(activation, &mut self.pool)
    }
}

fn oracle<R>(inner: R) -> OracleFeasibility<R> {
    OracleFeasibility {
        inner,
        pool: TimelinePool::oracle(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Incremental vs oracle feasibility, predictor on: identical reports.
    #[test]
    fn phantom_runs_match_oracle_feasibility_baseline(
        seed in any::<u64>(),
        exact in any::<bool>(),
        cpu_only in any::<bool>(),
    ) {
        let (platform, catalog, traces) = world(seed, cpu_only);
        let sim = Simulator::new(
            &platform,
            &catalog,
            SimConfig {
                record_task_log: true,
                ..SimConfig::default()
            },
        );
        for trace in &traces {
            let run = |rm: &mut dyn ResourceManager| {
                let mut predictor = OraclePredictor::perfect(trace, catalog.len());
                sim.run(trace, rm, Some(&mut predictor))
            };
            let (incremental, reference) = if exact {
                (run(&mut ExactRm::new()), run(&mut oracle(ExactRm::new())))
            } else {
                (run(&mut HeuristicRm::new()), run(&mut oracle(HeuristicRm::new())))
            };
            prop_assert_eq!(incremental, reference);
        }
    }
}
