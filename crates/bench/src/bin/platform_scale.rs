//! Resource-count scaling bench for the pruned candidate path: `decide()`
//! latency of the [`CandidateTable`]-backed managers against the legacy
//! rebuild-per-rung path ([`rtrm_core::reference`]), sweeping the
//! platform from the paper's handful of resources up to 512. Records
//! `BENCH_platform.json` at the workspace root (see README, "Performance");
//! run in release:
//!
//! ```text
//! cargo run --release -p rtrm-bench --bin platform_scale
//! ```
//!
//! The fixture is the decide() hot path at a fixed standing queue depth —
//! the sweep isolates the *resource-count* axis, complementing
//! `BENCH_activation.json`'s queue-depth axis.
//!
//! [`CandidateTable`]: rtrm_core::CandidateTable

use rtrm_core::{
    reference, Activation, ExactRm, HeuristicRm, JobView, Placement, ResourceManager, TimelinePool,
};
use rtrm_platform::{Energy, Platform, TaskCatalog, TaskType, TaskTypeId, Time};
use rtrm_sched::JobKey;

/// The resource-count sweep: the paper's scale (6), then the scaling axis.
const RESOURCES: [usize; 4] = [6, 32, 128, 512];

/// Standing queue depth held constant across the sweep.
const ACTIVE: usize = 16;

/// A platform of `m` CPUs cycling through plain and two DVFS ladders (so
/// candidate rows mix speed levels, like the differential suite), plus one
/// universally executable type whose energies differ per resource.
fn world(m: usize) -> (Platform, TaskCatalog) {
    let mut builder = Platform::builder();
    for i in 0..m {
        match i % 3 {
            0 => builder.cpu(format!("c{i}")),
            1 => builder.cpu_with_dvfs(format!("c{i}"), &[0.5, 1.0]),
            _ => builder.cpu_with_dvfs(format!("c{i}"), &[0.25, 0.5, 1.0, 2.0]),
        };
    }
    let platform = builder.build();
    let mut b = TaskType::builder(0, &platform);
    for (i, r) in platform.ids().enumerate() {
        // A pseudo-random but deterministic energy landscape: ranking work
        // is real (no resource trivially wins everywhere).
        let energy = 3.0 + ((i * 7) % 13) as f64 * 0.5;
        b.profile(r, Time::new(4.0), Energy::new(energy));
    }
    let ty = b
        .uniform_migration(Time::new(0.5), Energy::new(0.25))
        .build();
    (platform, TaskCatalog::new(vec![ty]))
}

/// A synthetic activation at depth [`ACTIVE`]: loosely placed active jobs
/// spread over the platform, one fresh arrival, optionally one phantom.
fn fixture(platform: &Platform, phantom: bool) -> (Vec<JobView>, JobView, Vec<JobView>) {
    let now = Time::ZERO;
    let active: Vec<JobView> = (0..ACTIVE)
        .map(|i| {
            let slack = 1_000.0 + i as f64;
            let mut job = JobView::fresh(
                JobKey(i as u64),
                TaskTypeId::new(0),
                now,
                now + Time::new(4.0 * slack),
            );
            job.placement = Some(Placement {
                resource: rtrm_platform::ResourceId::new(i % platform.len()),
                remaining_fraction: 0.5 + 0.4 * ((i % 5) as f64 / 5.0),
                started: true,
                speed: 1.0,
            });
            job
        })
        .collect();
    let arriving = JobView::fresh(
        JobKey(10_000),
        TaskTypeId::new(0),
        now,
        now + Time::new(5_000.0),
    );
    let predicted = if phantom {
        vec![JobView::fresh(
            JobKey(10_001),
            TaskTypeId::new(0),
            now + Time::new(2.0),
            now + Time::new(6_000.0),
        )]
    } else {
        Vec::new()
    };
    (active, arriving, predicted)
}

/// Mean ns per call over a self-calibrated iteration count (~30 ms).
fn measure<R>(mut f: impl FnMut() -> R) -> f64 {
    let warmup = std::time::Instant::now();
    let mut calibration = 0u64;
    while warmup.elapsed() < std::time::Duration::from_millis(5) {
        std::hint::black_box(f());
        calibration += 1;
    }
    let iters = calibration.max(1) * 6;
    let start = std::time::Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

fn main() {
    let mut rows = Vec::new();
    let mut push_row = |series: &str, resources: usize, baseline_ns: f64, pruned_ns: f64| {
        let speedup = baseline_ns / pruned_ns;
        println!(
            "platform scale: series={series} resources={resources:>4} \
             baseline={baseline_ns:.0}ns pruned={pruned_ns:.0}ns speedup={speedup:.2}x"
        );
        rows.push(format!(
            "    {{\"series\": \"{series}\", \"depth\": {resources}, \"baseline_ns\": \
             {baseline_ns:.1}, \"pruned_ns\": {pruned_ns:.1}, \"speedup\": {speedup:.2}}}"
        ));
    };

    for m in RESOURCES {
        let (platform, catalog) = world(m);
        for (series, phantom) in [
            ("heuristic_decide", false),
            ("heuristic_decide_phantom", true),
        ] {
            let (active, arriving, predicted) = fixture(&platform, phantom);
            let activation = Activation {
                now: Time::ZERO,
                platform: &platform,
                catalog: &catalog,
                active: &active,
                arriving,
                predicted: &predicted,
            };
            // The pruned manager runs exactly as the simulator drives it: a
            // warm pool whose PlatformIndex is installed once per world.
            let mut pool = TimelinePool::new();
            pool.ensure_index(&platform, &catalog);
            let mut pruned = HeuristicRm::new();
            let pruned_ns = measure(|| pruned.decide_with_pool(&activation, &mut pool));
            let mut baseline_pool = TimelinePool::new();
            let baseline = HeuristicRm::new();
            let baseline_ns =
                measure(|| reference::heuristic_decide(&baseline, &activation, &mut baseline_pool));
            push_row(series, m, baseline_ns, pruned_ns);
        }
    }

    // The exact manager shares the table plumbing; record it at the sizes
    // its branch & bound tolerates, on the two-rung (phantom) ladder where
    // rows being built once per decide instead of once per rung pays.
    for m in [6usize, 32] {
        let (platform, catalog) = world(m);
        let (active, arriving, predicted) = fixture(&platform, true);
        let activation = Activation {
            now: Time::ZERO,
            platform: &platform,
            catalog: &catalog,
            active: &active,
            arriving,
            predicted: &predicted,
        };
        let mut pool = TimelinePool::new();
        pool.ensure_index(&platform, &catalog);
        let mut pruned = ExactRm::with_node_budget(2_000);
        let pruned_ns = measure(|| pruned.decide_with_pool(&activation, &mut pool));
        let mut baseline_pool = TimelinePool::new();
        let baseline = ExactRm::with_node_budget(2_000);
        let baseline_ns =
            measure(|| reference::exact_decide(&baseline, &activation, &mut baseline_pool));
        push_row("exact_decide_phantom", m, baseline_ns, pruned_ns);
    }

    let json = format!(
        "{{\n  \"bench\": \"platform_scale\",\n  \"units\": \"ns_per_call\",\n  \
         \"results\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_platform.json");
    std::fs::write(path, json).expect("write BENCH_platform.json");
    println!("wrote {path}");
}
