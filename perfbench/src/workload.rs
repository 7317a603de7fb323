//! The benchmark's workloads: a fixed world (platform and task catalog) per
//! workload, and request streams generated from the run's seed.
//!
//! Each workload interleaves several sessions (one request trace each) in
//! simulated-arrival order, the way one service shard worker serves many
//! streams over a single warm `SimScratch`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rtrm_core::{HeuristicRm, HorizonPolicy, ResourceManager};
use rtrm_platform::{Platform, Request, TaskCatalog, Time, Trace};
use rtrm_predict::{MarkovHorizonPredictor, Predictor};
use rtrm_sim::{PhantomDeadline, Session, SimConfig, SimScratch, Simulator};
use rtrm_trace::{generate_catalog, generate_traces, CatalogConfig, Tightness, TraceConfig};

/// Seed of every workload's task catalog. The world stays fixed across
/// runs; `--seed` varies only the request streams.
const WORLD_SEED: u64 = 0x0DAC_2019;

/// Seed of the reference streams whose decision digests are recorded in
/// [`Spec::reference_digest`].
pub const REFERENCE_SEED: u64 = 0;

/// The headline prediction setting (EXPERIMENTS.md §H, gated): the online
/// Markov horizon predictor with EWMA factor 0.5, horizon depth k = 2 and
/// confidence threshold θ = 0.5, phantom deadline `1.5 × min WCET` (VT).
const PREDICTOR_ALPHA: f64 = 0.5;
const HORIZON: HorizonPolicy = HorizonPolicy {
    depth: 2,
    theta: 0.5,
};
const PHANTOM_COEFFICIENT: f64 = 1.5;

/// Which platform a workload runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hardware {
    /// The paper's 5 CPU + 1 GPU platform.
    Paper,
    /// `n` resources: every sixth a GPU, the CPUs cycling plain, 2-level
    /// and 4-level DVFS ladders.
    Wide(usize),
}

/// Sessions × requests per session of one round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Size {
    /// Interleaved sessions.
    pub sessions: usize,
    /// Requests per session.
    pub length: usize,
}

/// One benchmark workload. Every session runs `HeuristicRm` under the
/// headline prediction setting on VT deadlines (coefficient in `[1.5, 2)`).
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Name passed as `--workload`.
    pub name: &'static str,
    /// Platform.
    pub hardware: Hardware,
    /// Mean simulated interarrival gap of one session (std = mean / 3).
    pub gap_mean: f64,
    /// Size of one measured round.
    pub full: Size,
    /// Size of the smoke-test run and of the reference stream.
    pub tiny: Size,
    /// Fixed arrival rate of the open-loop (paced) replay, requests per
    /// wall-clock second. A constant, never derived from a measurement.
    pub paced_rps: f64,
    /// Decision digest of the reference stream ([`REFERENCE_SEED`] at the
    /// [`tiny`](Spec::tiny) size).
    pub reference_digest: u64,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Spec; 2] = [
    Spec {
        name: "paper-vt",
        hardware: Hardware::Paper,
        gap_mean: 2.8,
        full: Size {
            sessions: 32,
            length: 500,
        },
        tiny: Size {
            sessions: 4,
            length: 100,
        },
        paced_rps: 20_000.0,
        reference_digest: 0xd4df_6acf_0474_69bf,
    },
    Spec {
        name: "wide-128",
        hardware: Hardware::Wide(128),
        gap_mean: 1.2,
        full: Size {
            sessions: 40,
            length: 500,
        },
        tiny: Size {
            sessions: 2,
            length: 100,
        },
        paced_rps: 1_400.0,
        reference_digest: 0x25bc_c605_aa3f_3e03,
    },
];

/// Looks a workload up by name.
#[must_use]
pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Spec {
    /// The simulator configuration every session of this workload uses.
    #[must_use]
    pub fn sim_config(&self) -> SimConfig {
        SimConfig {
            phantom_deadline: PhantomDeadline::MinWcetTimes(PHANTOM_COEFFICIENT),
            horizon: Some(HORIZON),
            ..SimConfig::default()
        }
    }

    fn platform(&self) -> Platform {
        match self.hardware {
            Hardware::Paper => Platform::paper_default(),
            Hardware::Wide(n) => {
                let mut builder = Platform::builder();
                let mut cpus = 0;
                for i in 0..n {
                    if i % 6 == 5 {
                        builder.gpu(format!("g{i}"));
                        continue;
                    }
                    match cpus % 3 {
                        0 => builder.cpu(format!("c{i}")),
                        1 => builder.cpu_with_dvfs(format!("c{i}"), &[0.5, 1.0]),
                        _ => builder.cpu_with_dvfs(format!("c{i}"), &[0.25, 0.5, 1.0, 2.0]),
                    };
                    cpus += 1;
                }
                builder.build()
            }
        }
    }

    fn trace_config(&self, length: usize) -> TraceConfig {
        TraceConfig {
            length,
            interarrival_mean: self.gap_mean,
            interarrival_std: self.gap_mean / 3.0,
            interarrival_floor: 0.01,
            tightness: Tightness::VeryTight,
        }
    }
}

/// A generated workload instance: platform, catalog, one trace per session
/// and the interleaved request stream.
#[derive(Debug)]
pub struct World {
    /// The platform.
    pub platform: Platform,
    /// The task catalog.
    pub catalog: TaskCatalog,
    /// One trace per session.
    pub traces: Vec<Trace>,
    /// `(session, request)` pairs in simulated-arrival order (ties broken by
    /// session, then request id).
    pub stream: Vec<(usize, Request)>,
}

impl World {
    /// Generates the world and the seeded request streams.
    #[must_use]
    pub fn generate(spec: &Spec, size: Size, seed: u64) -> World {
        let platform = spec.platform();
        let catalog = generate_catalog(
            &platform,
            &CatalogConfig::paper(),
            &mut StdRng::seed_from_u64(WORLD_SEED),
        );
        let traces = generate_traces(
            &catalog,
            &spec.trace_config(size.length),
            size.sessions,
            seed,
        );
        let mut stream: Vec<(usize, Request)> = traces
            .iter()
            .enumerate()
            .flat_map(|(s, t)| t.iter().map(move |r| (s, *r)))
            .collect();
        stream.sort_by(|(sa, a), (sb, b)| {
            a.arrival
                .value()
                .total_cmp(&b.arrival.value())
                .then(sa.cmp(sb))
                .then(a.id.index().cmp(&b.id.index()))
        });
        World {
            platform,
            catalog,
            traces,
            stream,
        }
    }
}

/// One open session with its manager and predictor.
pub struct Slot {
    /// `None` once drained.
    pub session: Option<Session>,
    /// The session's resource manager.
    pub manager: Box<dyn ResourceManager>,
    /// The session's predictor.
    pub predictor: Box<dyn Predictor>,
}

impl Slot {
    /// Admits one request through `Session::admit`.
    ///
    /// # Panics
    ///
    /// Panics if the session was already drained.
    pub fn admit(
        &mut self,
        simulator: &Simulator<'_>,
        request: &Request,
        scratch: &mut SimScratch,
    ) -> rtrm_core::Decision {
        self.session
            .as_mut()
            .expect("requests arrive only on open sessions")
            .admit(
                simulator,
                request,
                self.manager.as_mut(),
                Some(self.predictor.as_mut()),
                scratch,
            )
    }
}

/// Wraps a session's manager and predictor (the traced run's layer
/// wrappers, or nothing).
pub type Wrap<'a> = dyn Fn(
        Box<dyn ResourceManager>,
        Box<dyn Predictor>,
    ) -> (Box<dyn ResourceManager>, Box<dyn Predictor>)
    + 'a;

/// Opens slots for sessions `0..sessions`. `wrap` lets the traced run put
/// its layer wrappers around the manager and predictor.
pub fn open_slots(
    world: &World,
    simulator: &Simulator<'_>,
    sessions: usize,
    wrap: &Wrap<'_>,
) -> Vec<Slot> {
    (0..sessions)
        .map(|_| {
            let (manager, predictor) = wrap(
                Box::new(HeuristicRm::new()),
                Box::new(MarkovHorizonPredictor::new(
                    world.catalog.len(),
                    PREDICTOR_ALPHA,
                )),
            );
            Slot {
                session: Some(simulator.session(Time::ZERO)),
                manager,
                predictor,
            }
        })
        .collect()
}
