//! Differential proof that the pruned candidate path is decision-identical.
//!
//! `HeuristicRm` and `ExactRm` decide over the shared [`CandidateTable`]
//! (built once per decide, index-backed when the pool carries a
//! [`PlatformIndex`], scanned through shortlist-then-widen cursors).
//! [`rtrm_core::reference`] keeps the legacy rebuild-per-rung path. The two
//! must produce *identical* [`Decision`]s — admission verdict, every
//! assignment, objective, prediction use, node counts, start gates — on
//! random platforms up to 512 resources with mixed DVFS ladders, with and
//! without an installed index. Node counts are part of the bar on purpose:
//! the exact manager's count moves if its heuristic warm seed does.
//!
//! Active jobs cover every placement kind the cost model distinguishes:
//! fresh, admitted but not started (with relocation debt), started on a CPU
//! and started on a GPU, each at a speed from its resource's ladder. With
//! uniform migration and index rows longer than the shortlist, the indexed
//! pool walks placed jobs' rows lazily from the index; some catalogs carry
//! per-pair migration overheads instead, which keeps those rows
//! materialized. A walked-row suite forces the lazy path and checks through
//! `PruneStats` that it ran. A deep-queue suite puts up to 24 active jobs
//! on at most 12 resources, where capacities bind and the heuristic's
//! cached regret hits go stale; the heuristic's no-regret ablation is
//! checked alongside.
//!
//! [`CandidateTable`]: rtrm_core::CandidateTable
//! [`PlatformIndex`]: rtrm_platform::PlatformIndex
//! [`Decision`]: rtrm_core::Decision

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rtrm_core::{
    reference, Activation, Decision, ExactRm, HeuristicRm, JobView, Placement, PruneStats,
    ResourceManager, TimelinePool,
};
use rtrm_platform::{Energy, Platform, TaskCatalog, TaskType, TaskTypeId, Time};
use rtrm_sched::JobKey;
use rtrm_trace::{generate_catalog, CatalogConfig};

/// One active job of a scenario.
#[derive(Debug, Clone)]
struct ActiveSpec {
    ty: usize,
    /// Placement resource index (modulo the platform size), or fresh.
    place: Option<usize>,
    /// Started with `frac` of its work left, or admitted but not started
    /// with relocation debt `debt` (remaining fraction ≥ 1).
    started: bool,
    frac: f64,
    debt: f64,
    /// Index into the placement resource's speed ladder (modulo its length).
    speed: usize,
    slack: f64,
}

/// A compact recipe for one random activation on a sized platform.
#[derive(Debug, Clone)]
struct Scenario {
    resources: usize,
    with_gpu: bool,
    seed: u64,
    /// Replace each type's uniform migration overhead by per-pair overheads
    /// (platforms up to 32 resources), so a placed job's costs are no
    /// longer monotone in the fresh energy order and its row is
    /// materialized.
    pairwise_migration: bool,
    active: Vec<ActiveSpec>,
    arriving_type: usize,
    arriving_slack: f64,
    predicted: Option<(usize, f64, f64)>,
}

fn active_spec() -> impl Strategy<Value = ActiveSpec> {
    (
        0usize..6,
        prop::option::of(0usize..16),
        any::<bool>(),
        0.05f64..1.0,
        1.0f64..1.6,
        0usize..4,
        1.2f64..4.0,
    )
        .prop_map(
            |(ty, place, started, frac, debt, speed, slack)| ActiveSpec {
                ty,
                place,
                started,
                frac,
                debt,
                speed,
                slack,
            },
        )
}

fn scenario(max_resources: usize, max_active: usize) -> impl Strategy<Value = Scenario> {
    let sizes = if max_resources > 16 {
        // Weight towards small platforms (the oneof choice is uniform, so
        // the small range is listed thrice), but visit the scaling axis the
        // `platform_scale` bench sweeps (32 / 128 / 512) every run.
        prop_oneof![
            2usize..12,
            2usize..12,
            2usize..12,
            Just(32usize),
            Just(128usize),
            Just(512usize),
        ]
        .boxed()
    } else {
        (2usize..=max_resources).boxed()
    };
    (
        sizes,
        any::<bool>(),
        any::<u64>(),
        any::<bool>(),
        prop::collection::vec(active_spec(), 0..max_active),
        0usize..6,
        1.2f64..4.0,
        prop::option::of((0usize..6, 0.1f64..30.0, 1.2f64..4.0)),
    )
        .prop_map(
            |(
                resources,
                with_gpu,
                seed,
                pairwise_migration,
                active,
                arriving_type,
                arriving_slack,
                predicted,
            )| {
                Scenario {
                    resources,
                    with_gpu,
                    seed,
                    pairwise_migration,
                    active,
                    arriving_type,
                    arriving_slack,
                    predicted,
                }
            },
        )
}

/// `catalog` with every type's uniform migration overhead scaled by an
/// independent random factor in `[0, 3)` per ordered resource pair.
fn with_pairwise_migration(
    platform: &Platform,
    catalog: &TaskCatalog,
    rng: &mut StdRng,
) -> TaskCatalog {
    let ids: Vec<_> = platform.ids().collect();
    let types = catalog
        .iter()
        .enumerate()
        .map(|(i, ty)| {
            let mut b = TaskType::builder(i, platform);
            for &r in &ids {
                if let Some(p) = ty.profile(r) {
                    b.profile(r, p.wcet, p.energy);
                }
            }
            for &from in &ids {
                for &to in ids.iter().filter(|&&to| to != from) {
                    let m = ty.migration(from, to);
                    let (ft, fe): (f64, f64) = (rng.gen_range(0.0..3.0), rng.gen_range(0.0..3.0));
                    b.migration(from, to, m.time * ft, m.energy * fe);
                }
            }
            b.build()
        })
        .collect();
    TaskCatalog::new(types)
}

/// Materializes a scenario: a platform whose CPUs cycle through plain and
/// two different DVFS ladders (so index rows mix speed levels), a random
/// catalog, and the activation's jobs. Placed jobs run at a level of their
/// resource's ladder; at most one started job sits on each GPU.
fn build(
    s: &Scenario,
) -> (
    Platform,
    TaskCatalog,
    Vec<JobView>,
    JobView,
    Option<JobView>,
) {
    let mut builder = Platform::builder();
    for i in 0..s.resources {
        match i % 3 {
            0 => builder.cpu(format!("c{i}")),
            1 => builder.cpu_with_dvfs(format!("c{i}"), &[0.5, 1.0]),
            _ => builder.cpu_with_dvfs(format!("c{i}"), &[0.25, 0.5, 1.0, 2.0]),
        };
    }
    if s.with_gpu {
        builder.gpu("gpu0");
    }
    let platform = builder.build();

    let mut rng = StdRng::seed_from_u64(s.seed);
    let cfg = CatalogConfig {
        num_types: 6,
        cpu_wcet_mean: 10.0,
        cpu_wcet_std: 3.0,
        cpu_energy_mean: 5.0,
        cpu_energy_std: 1.5,
        ..CatalogConfig::paper()
    };
    let mut catalog = generate_catalog(&platform, &cfg, &mut rng);
    if s.pairwise_migration && platform.len() <= 32 {
        catalog = with_pairwise_migration(&platform, &catalog, &mut rng);
    }

    let now = Time::new(100.0);
    let mut gpu_started_taken = vec![false; platform.len()];
    let mut active = Vec::new();
    for (i, a) in s.active.iter().enumerate() {
        let ty = TaskTypeId::new(a.ty % catalog.len());
        let deadline = now + catalog.task_type(ty).mean_wcet() * a.slack;
        let mut job = JobView::fresh(JobKey(i as u64), ty, now, deadline);
        if let Some(r) = a.place {
            let r = rtrm_platform::ResourceId::new(r % platform.len());
            if catalog.task_type(ty).is_executable_on(r) {
                let resource = platform.resource(r);
                let mut started = a.started;
                if started && !resource.kind().is_preemptable() {
                    started = !gpu_started_taken[r.index()];
                    gpu_started_taken[r.index()] = true;
                }
                let levels = resource.speed_levels();
                job.placement = Some(Placement {
                    resource: r,
                    remaining_fraction: if started { a.frac } else { a.debt },
                    started,
                    speed: levels[a.speed % levels.len()],
                });
            }
        }
        active.push(job);
    }

    let arr_ty = TaskTypeId::new(s.arriving_type % catalog.len());
    let arriving = JobView::fresh(
        JobKey(1000),
        arr_ty,
        now,
        now + catalog.task_type(arr_ty).mean_wcet() * s.arriving_slack,
    );
    let predicted = s.predicted.map(|(ty, offset, slack)| {
        let ty = TaskTypeId::new(ty % catalog.len());
        let arrival = now + Time::new(offset);
        JobView::fresh(
            JobKey(2000),
            ty,
            arrival,
            arrival + catalog.task_type(ty).mean_wcet() * slack,
        )
    });
    (platform, catalog, active, arriving, predicted)
}

/// Decides `activation` three ways: the reference path, the production
/// path on a plain pool, and the production path on an `ensure_index`'d
/// pool. Returns the three decisions plus the indexed pool's counters.
fn decide_three_ways<M: ResourceManager>(
    activation: &Activation<'_>,
    manager: &mut M,
    reference: impl FnOnce(&Activation<'_>, &mut TimelinePool) -> Decision,
) -> (Decision, Decision, Decision, PruneStats) {
    let legacy = reference(activation, &mut TimelinePool::new());
    let mut plain_pool = TimelinePool::new();
    let plain = manager.decide_with_pool(activation, &mut plain_pool);
    let mut indexed_pool = TimelinePool::new();
    indexed_pool.ensure_index(activation.platform, activation.catalog);
    let indexed = manager.decide_with_pool(activation, &mut indexed_pool);
    (legacy, plain, indexed, indexed_pool.prune_stats())
}

/// Checks the heuristic and its no-regret ablation against the reference
/// path, with and without an installed index. Returns whether every
/// indexed decide walked a placed job's row.
fn heuristics_match_reference(s: &Scenario) -> Result<bool, TestCaseError> {
    let (platform, catalog, active, arriving, predicted) = build(s);
    let phantoms: Vec<_> = predicted.into_iter().collect();
    let activation = Activation {
        now: Time::new(100.0),
        platform: &platform,
        catalog: &catalog,
        active: &active,
        arriving,
        predicted: &phantoms,
    };
    let mut walked = true;
    for rm in [HeuristicRm::new(), HeuristicRm::without_regret_ordering()] {
        let (legacy, plain, indexed, stats) =
            decide_three_ways(&activation, &mut rm.clone(), |act, pool| {
                reference::heuristic_decide(&rm, act, pool)
            });
        let name = rm.name();
        prop_assert_eq!(&plain, &legacy, "{} pruned (no index) diverged", name);
        prop_assert_eq!(&indexed, &legacy, "{} pruned (indexed) diverged", name);
        // The arriving job is always fresh, so the indexed pool must have
        // actually exercised the borrowed-row path.
        prop_assert!(
            stats.indexed_rows > 0,
            "indexed pool never borrowed an index row"
        );
        walked &= stats.walked_rows > 0;
    }
    Ok(walked)
}

/// A scenario whose placed jobs' rows are walked from the index: uniform
/// migration, at least six resources (so every index row has at least 14
/// entries, more than the default shortlist of 8), and a first active job
/// placed on a CPU (every generated type executes on every CPU).
fn walk_scenario(max_resources: usize, max_active: usize) -> impl Strategy<Value = Scenario> {
    (
        scenario(max_resources, max_active),
        active_spec(),
        0usize..6,
    )
        .prop_map(|(mut s, first, cpu)| {
            s.resources = s.resources.max(6);
            s.pairwise_migration = false;
            s.active.insert(
                0,
                ActiveSpec {
                    place: Some(cpu),
                    ..first
                },
            );
            s
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The heuristic's pruned path (with and without an installed index)
    /// matches the reference rebuild-per-rung path decision-for-decision,
    /// up to 512 resources.
    #[test]
    fn heuristic_pruned_matches_reference(s in scenario(512, 6)) {
        heuristics_match_reference(&s)?;
    }

    /// Placed jobs' rows walked lazily from the index decide exactly like
    /// the reference path, and the walk actually ran.
    #[test]
    fn heuristic_walked_rows_match_reference(s in walk_scenario(128, 8)) {
        prop_assert!(
            heuristics_match_reference(&s)?,
            "no placed row was walked from the index"
        );
    }

    /// Deep queues on small platforms: up to 24 active jobs on at most 12
    /// resources, so capacities bind and cached regret hits go stale.
    #[test]
    fn heuristic_pruned_matches_reference_on_deep_queues(s in scenario(12, 25)) {
        heuristics_match_reference(&s)?;
    }

    /// The exact manager's pruned path — rows, warm seed, and floor —
    /// matches the reference path on platforms small enough for branch &
    /// bound.
    #[test]
    fn exact_pruned_matches_reference(s in scenario(6, 4)) {
        exact_matches_reference(&s)?;
    }

    /// The exact manager over walked rows (generated to their end before
    /// the search) matches the reference path, and the walk actually ran.
    #[test]
    fn exact_walked_rows_match_reference(s in walk_scenario(6, 4)) {
        prop_assert!(
            exact_matches_reference(&s)?,
            "no placed row was walked from the index"
        );
    }
}

/// Checks the exact manager against the reference path, with and without
/// an installed index. Returns whether the indexed decide walked a placed
/// job's row.
fn exact_matches_reference(s: &Scenario) -> Result<bool, TestCaseError> {
    let (platform, catalog, active, arriving, predicted) = build(s);
    let phantoms: Vec<_> = predicted.into_iter().collect();
    let activation = Activation {
        now: Time::new(100.0),
        platform: &platform,
        catalog: &catalog,
        active: &active,
        arriving,
        predicted: &phantoms,
    };
    let (legacy, plain, indexed, stats) =
        decide_three_ways(&activation, &mut ExactRm::new(), |act, pool| {
            reference::exact_decide(&ExactRm::new(), act, pool)
        });
    prop_assert_eq!(&plain, &legacy, "pruned (no index) diverged");
    prop_assert_eq!(&indexed, &legacy, "pruned (indexed) diverged");
    Ok(stats.walked_rows > 0)
}

/// Widen-on-infeasibility actually fires — and changes nothing. Ten CPUs
/// whose eight cheapest profiles (the whole default shortlist) are too slow
/// for the deadline: the ranked scan must continue past the shortlist
/// prefix, count one widening, and still admit on the only feasible CPU,
/// identically to the reference path.
#[test]
fn widening_fires_and_preserves_the_decision() {
    let mut builder = Platform::builder();
    for i in 0..10 {
        builder.cpu(format!("c{i}"));
    }
    let platform = builder.build();
    let ids: Vec<_> = platform.ids().collect();
    let mut ty = TaskType::builder(0, &platform);
    for (i, &r) in ids.iter().enumerate().take(9) {
        // Energy-ascending, all far too slow for the deadline below.
        ty.profile(r, Time::new(100.0), Energy::new(1.0 + i as f64));
    }
    // The most expensive placement is the only deadline-feasible one.
    ty.profile(ids[9], Time::new(1.0), Energy::new(50.0));
    let catalog = TaskCatalog::new(vec![ty.build()]);

    let arriving = JobView::fresh(JobKey(0), TaskTypeId::new(0), Time::ZERO, Time::new(5.0));
    let activation = Activation {
        now: Time::ZERO,
        platform: &platform,
        catalog: &catalog,
        active: &[],
        arriving,
        predicted: &[],
    };

    let legacy =
        reference::heuristic_decide(&HeuristicRm::new(), &activation, &mut TimelinePool::new());

    let mut pool = TimelinePool::new();
    pool.ensure_index(&platform, &catalog);
    assert!(
        pool.index().is_some_and(|ix| ix.shortlist_len() == 8),
        "test world must overflow the default shortlist"
    );
    let decision = HeuristicRm::new().decide_with_pool(&activation, &mut pool);

    assert!(pool.prune_stats().widened > 0, "widening never fired");
    assert_eq!(decision, legacy, "widening changed the decision");
    assert!(decision.admitted);
    assert_eq!(decision.assignments[0].resource, ids[9]);
}
