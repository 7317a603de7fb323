//! The shared migration/abort cost model: what does it cost, in remaining
//! execution time (`cpm`) and in not-yet-consumed energy (`ep + em`), to run
//! a task on a given resource?
//!
//! Interpretation decisions (documented in `DESIGN.md` §5):
//!
//! * the paper's `cpm` charges `cm`/`em` whenever a task is *relocated*
//!   from its currently assigned resource — started or not (staging a
//!   task's inputs elsewhere is not free, and this stickiness is what makes
//!   one-step lookahead valuable). A task that was never mapped (arriving,
//!   predicted) pays nothing for its first placement;
//! * a started task on a *preemptable* resource migrates proportionally:
//!   `cp_{j,k} = c_{j,k} · (cp_{j,i} / c_{j,i})` plus `cm`/`em` (paper
//!   Sec 4.1);
//! * a started task on a *non-preemptable* resource (GPU) cannot move with
//!   state: it either stays (and is pinned — it must run to completion
//!   first) or is aborted and restarted from scratch anywhere, with no
//!   migration overhead (nothing is transferred) but with its full WCET and
//!   energy ahead of it again.

use serde::{Deserialize, Serialize};

use rtrm_platform::{
    Energy, MigrationOverhead, Platform, RankedPlacement, ResourceId, TaskCatalog, TaskType, Time,
};

use crate::view::{JobView, Placement};

/// One way of placing a job on a resource, with its planning costs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Candidate {
    /// Target resource.
    pub resource: ResourceId,
    /// Remaining worst-case execution time there, including migration time
    /// overhead (the paper's `cpm_{j,i}`), at the candidate's speed.
    pub exec: Time,
    /// Energy still to be spent there, including migration energy overhead
    /// (the paper's `ep_{j,i} + em_{j,k,i}`), at the candidate's speed.
    /// Already-consumed energy is sunk and excluded.
    pub energy: Energy,
    /// The job is mid-run on this non-preemptable resource and must be
    /// dispatched first if it stays.
    pub pinned: bool,
    /// Progress is discarded: the job restarts from scratch (GPU abort).
    pub restart: bool,
    /// DVFS speed level (factor of nominal frequency): execution time
    /// scales with `1/speed`, dynamic energy with `speed²`. `1.0` on
    /// resources without frequency scaling. The speed is chosen when the
    /// task is placed and kept until it finishes or is relocated.
    pub speed: f64,
}

/// Enumerates every way `job` can be placed, given the platform and catalog.
///
/// `gpu_restart_in_place` additionally offers "abort and re-queue on the same
/// GPU" for a GPU-running job — energy-dominated by staying, but it unpins
/// the job, which can rescue an urgent arrival (Fig 1's scenario (a)
/// discussion). The exact optimizer enables it; the heuristic follows
/// Algorithm 1, which considers one desirability value per resource, and
/// keeps the dominant "stay" option only.
#[must_use]
pub fn candidates(
    job: &JobView,
    platform: &Platform,
    catalog: &TaskCatalog,
    gpu_restart_in_place: bool,
) -> Vec<Candidate> {
    let mut out = Vec::with_capacity(platform.len() + 1);
    candidates_into(job, platform, catalog, gpu_restart_in_place, &mut out);
    out
}

/// Allocation-reusing form of [`candidates`]: appends the job's candidates
/// to `out` (without clearing it), so a caller building a whole activation's
/// candidate table can keep every row in one recycled arena.
pub fn candidates_into(
    job: &JobView,
    platform: &Platform,
    catalog: &TaskCatalog,
    gpu_restart_in_place: bool,
    out: &mut Vec<Candidate>,
) {
    for resource in platform.ids() {
        candidates_on(
            job,
            platform,
            catalog,
            resource,
            gpu_restart_in_place,
            |c| out.push(c),
        );
    }
}

/// The candidates of `job` on one `resource`, passed to `emit` in the order
/// [`candidates`] lists them — a lookup of one placement costs O(speed
/// levels) instead of a whole-platform enumeration.
pub fn candidates_on(
    job: &JobView,
    platform: &Platform,
    catalog: &TaskCatalog,
    resource: ResourceId,
    gpu_restart_in_place: bool,
    emit: impl FnMut(Candidate),
) {
    let ty = catalog.task_type(job.task_type);
    let levels = platform.resource(resource).speed_levels();
    destination(
        job,
        ty,
        platform,
        resource,
        levels,
        gpu_restart_in_place,
        emit,
    );
}

/// Appends `job`'s candidates to `out` in *ranked* emission order: the
/// current resource's candidates first, then one candidate per remaining
/// entry of `row` — the job type's [`PlatformIndex`](rtrm_platform::PlatformIndex)
/// row, already sorted by `(energy, resource)` with ascending speed inside
/// a resource.
///
/// The multiset equals [`candidates_into`]'s, through the same
/// per-destination case analysis. After the stable `(energy, resource)` sort
/// the two rows are identical: only candidates on one resource with equal
/// energy compare equal, and both emission orders list a resource's
/// candidates stay-first, then by ascending speed (`DESIGN.md` §8). Because
/// a destination's cost is monotone in the fresh energy, the ranked row is
/// nearly sorted already, so the sort runs in about linear time. Rows short
/// enough, or with per-pair migration, are built this way instead of being
/// walked lazily (see [`CandidateTable`](crate::CandidateTable)).
pub(crate) fn ranked_candidates_into(
    job: &JobView,
    platform: &Platform,
    catalog: &TaskCatalog,
    row: &[RankedPlacement],
    gpu_restart_in_place: bool,
    out: &mut Vec<Candidate>,
) {
    let stay = job.placement.map(|p| p.resource);
    if let Some(resource) = stay {
        candidates_on(
            job,
            platform,
            catalog,
            resource,
            gpu_restart_in_place,
            |c| out.push(c),
        );
    }
    let ty = catalog.task_type(job.task_type);
    for entry in row.iter().filter(|e| Some(e.resource) != stay) {
        destination(
            job,
            ty,
            platform,
            entry.resource,
            std::slice::from_ref(&entry.speed),
            gpu_restart_in_place,
            |c| out.push(c),
        );
    }
}

/// The cost model's one case analysis: the candidates of placing `job` on
/// `resource`, offering `levels` wherever the placement opens the speed
/// choice (staying keeps the placement's speed). Passed to `emit` stay
/// first, then in `levels` order.
fn destination(
    job: &JobView,
    ty: &TaskType,
    platform: &Platform,
    resource: ResourceId,
    levels: &[f64],
    gpu_restart_in_place: bool,
    mut emit: impl FnMut(Candidate),
) {
    let Some(profile) = ty.profile(resource) else {
        return; // not executable there (the paper's "dummy values")
    };
    // Effective profile at a DVFS level: time 1/s, dynamic energy s².
    let eff = |s: f64| (profile.wcet / s, profile.energy * (s * s));

    let Some(p) = job.placement else {
        // Fresh: no state, free mapping; every speed level of every
        // executable resource is open.
        for &s in levels {
            let (wcet, energy) = eff(s);
            emit(Candidate {
                resource,
                exec: wcet,
                energy,
                pinned: false,
                restart: false,
                speed: s,
            });
        }
        return;
    };
    if p.resource != resource {
        let relocation = Relocation::new(&p, platform, ty.migration(p.resource, resource));
        if relocation.admits(platform, resource) {
            for &s in levels {
                let (wcet, energy) = eff(s);
                emit(relocation.candidate(resource, s, wcet, energy));
            }
        }
        return;
    }
    // Stay: the remaining work at the placement's speed. An unstarted job
    // keeps any pending relocation debt (which `remaining_fraction`
    // already reflects) but still owes its full energy.
    let (wcet, energy) = eff(p.speed);
    if !p.started {
        emit(Candidate {
            resource,
            exec: wcet * p.remaining_fraction,
            energy,
            pinned: false,
            restart: false,
            speed: p.speed,
        });
        return;
    }
    // Started: on a non-preemptable resource it is pinned (it must run to
    // completion first) unless `gpu_restart_in_place` offers re-queueing.
    let preemptable = platform.resource(resource).kind().is_preemptable();
    emit(Candidate {
        resource,
        exec: wcet * p.remaining_fraction,
        energy: energy * p.remaining_fraction,
        pinned: !preemptable,
        restart: false,
        speed: p.speed,
    });
    if gpu_restart_in_place && !preemptable {
        for &s in levels {
            let (wcet, energy) = eff(s);
            emit(Relocation::Restart.candidate(resource, s, wcet, energy));
        }
    }
}

/// How a placed job's costs change when it leaves its current resource: a
/// map from a destination's fresh cost `(wcet, energy)` at one speed level
/// to the relocation candidate's.
///
/// Every arm is monotone non-decreasing in the fresh cost (at most one
/// rounded multiply by a non-negative fraction, then one rounded add),
/// which is what lets [`CandidateTable`](crate::CandidateTable) walk a
/// placed job's row in its type's
/// [`PlatformIndex`](rtrm_platform::PlatformIndex) order (`DESIGN.md` §8).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Relocation {
    /// Admitted but never run: no execution state, but its inputs were
    /// staged on the old resource, so it pays the full work plus the
    /// migration overhead. The destination speed is a fresh choice.
    Unstarted(MigrationOverhead),
    /// Started on a preemptable resource: proportional migration with
    /// overhead (paper Sec 4.1), onto preemptable destinations only — a
    /// non-preemptable resource cannot resume checkpointed state
    /// (`DESIGN.md` §5).
    Migrate {
        remaining_fraction: f64,
        overhead: MigrationOverhead,
    },
    /// Started on a non-preemptable resource (GPU): abort the run and
    /// restart from scratch, with no overhead (nothing is transferred).
    Restart,
}

impl Relocation {
    /// The relocation of a job placed at `p`, given the migration
    /// `overhead` out of `p.resource`.
    pub(crate) fn new(p: &Placement, platform: &Platform, overhead: MigrationOverhead) -> Self {
        let from_preemptable = platform.resource(p.resource).kind().is_preemptable();
        match (p.started, from_preemptable) {
            (false, _) => Relocation::Unstarted(overhead),
            (true, true) => Relocation::Migrate {
                remaining_fraction: p.remaining_fraction,
                overhead,
            },
            (true, false) => Relocation::Restart,
        }
    }

    /// Whether the job may relocate to `resource` at all.
    pub(crate) fn admits(self, platform: &Platform, resource: ResourceId) -> bool {
        !matches!(self, Relocation::Migrate { .. })
            || platform.resource(resource).kind().is_preemptable()
    }

    /// The candidate on `resource` at `speed`, whose fresh cost there is
    /// `(wcet, energy)`.
    pub(crate) fn candidate(
        self,
        resource: ResourceId,
        speed: f64,
        wcet: Time,
        energy: Energy,
    ) -> Candidate {
        let (exec, energy, restart) = match self {
            Relocation::Unstarted(m) => (wcet + m.time, energy + m.energy, false),
            Relocation::Migrate {
                remaining_fraction: f,
                overhead: m,
            } => (wcet * f + m.time, energy * f + m.energy, false),
            Relocation::Restart => (wcet, energy, true),
        };
        Candidate {
            resource,
            exec,
            energy,
            pinned: false,
            restart,
            speed,
        }
    }
}

/// The cheapest not-yet-consumed energy over all placements of `job`, a
/// lower bound used by the exact optimizer's pruning.
#[must_use]
pub fn min_energy(job: &JobView, platform: &Platform, catalog: &TaskCatalog) -> Energy {
    candidates(job, platform, catalog, false)
        .into_iter()
        .map(|c| c.energy)
        .min()
        .unwrap_or(Energy::ZERO)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::Placement;
    use rtrm_platform::{TaskType, TaskTypeId};
    use rtrm_sched::JobKey;

    /// CPU0, CPU1, GPU platform with one task type:
    /// wcet [8, 12, 5], energy [7.3, 8.4, 2.0], migration 1.0/0.5 everywhere.
    fn setup() -> (Platform, TaskCatalog) {
        let platform = Platform::builder().cpus(2).gpu("g").build();
        let ids: Vec<_> = platform.ids().collect();
        let ty = TaskType::builder(0, &platform)
            .profile(ids[0], Time::new(8.0), Energy::new(7.3))
            .profile(ids[1], Time::new(12.0), Energy::new(8.4))
            .profile(ids[2], Time::new(5.0), Energy::new(2.0))
            .uniform_migration(Time::new(1.0), Energy::new(0.5))
            .build();
        (platform, TaskCatalog::new(vec![ty]))
    }

    fn r(i: usize) -> ResourceId {
        ResourceId::new(i)
    }

    fn find(cands: &[Candidate], resource: ResourceId, restart: bool) -> Candidate {
        *cands
            .iter()
            .find(|c| c.resource == resource && c.restart == restart)
            .expect("candidate exists")
    }

    #[test]
    fn fresh_job_has_full_profiles_everywhere() {
        let (platform, catalog) = setup();
        let job = JobView::fresh(JobKey(0), TaskTypeId::new(0), Time::ZERO, Time::new(20.0));
        let cands = candidates(&job, &platform, &catalog, false);
        assert_eq!(cands.len(), 3);
        let gpu = find(&cands, r(2), false);
        assert_eq!(gpu.exec, Time::new(5.0));
        assert_eq!(gpu.energy, Energy::new(2.0));
        assert!(!gpu.pinned && !gpu.restart);
    }

    #[test]
    fn cpu_migration_is_proportional_plus_overhead() {
        let (platform, catalog) = setup();
        let mut job = JobView::fresh(JobKey(0), TaskTypeId::new(0), Time::ZERO, Time::new(20.0));
        job.placement = Some(Placement {
            resource: r(0),
            remaining_fraction: 0.5,
            started: true,
            speed: 1.0,
        });
        let cands = candidates(&job, &platform, &catalog, false);
        let stay = find(&cands, r(0), false);
        assert_eq!(stay.exec, Time::new(4.0));
        assert_eq!(stay.energy, Energy::new(3.65));
        assert!(!stay.pinned);
        let migrate = find(&cands, r(1), false);
        assert_eq!(migrate.exec, Time::new(7.0)); // 12·0.5 + 1
        assert_eq!(migrate.energy, Energy::new(4.7)); // 8.4·0.5 + 0.5
        assert!(
            !cands.iter().any(|c| c.resource == r(2)),
            "a started task cannot move onto the GPU (no state resume there)"
        );
    }

    #[test]
    fn gpu_running_job_stays_pinned_or_restarts() {
        let (platform, catalog) = setup();
        let mut job = JobView::fresh(JobKey(0), TaskTypeId::new(0), Time::ZERO, Time::new(20.0));
        job.placement = Some(Placement {
            resource: r(2),
            remaining_fraction: 0.8,
            started: true,
            speed: 1.0,
        });
        let cands = candidates(&job, &platform, &catalog, true);
        let stay = find(&cands, r(2), false);
        assert!(stay.pinned);
        assert_eq!(stay.exec, Time::new(4.0)); // 5·0.8
        let requeue = find(&cands, r(2), true);
        assert!(!requeue.pinned && requeue.restart);
        assert_eq!(requeue.exec, Time::new(5.0));
        let abort_to_cpu = find(&cands, r(0), true);
        assert_eq!(abort_to_cpu.exec, Time::new(8.0)); // full, no cm
        assert_eq!(abort_to_cpu.energy, Energy::new(7.3)); // full, no em
    }

    #[test]
    fn restart_in_place_excluded_by_default() {
        let (platform, catalog) = setup();
        let mut job = JobView::fresh(JobKey(0), TaskTypeId::new(0), Time::ZERO, Time::new(20.0));
        job.placement = Some(Placement {
            resource: r(2),
            remaining_fraction: 0.8,
            started: true,
            speed: 1.0,
        });
        let cands = candidates(&job, &platform, &catalog, false);
        assert_eq!(cands.iter().filter(|c| c.resource == r(2)).count(), 1);
    }

    #[test]
    fn unstarted_placed_job_pays_relocation() {
        let (platform, catalog) = setup();
        let mut job = JobView::fresh(JobKey(0), TaskTypeId::new(0), Time::ZERO, Time::new(20.0));
        job.placement = Some(Placement {
            resource: r(2),
            remaining_fraction: 1.0,
            started: false,
            speed: 1.0,
        });
        let cands = candidates(&job, &platform, &catalog, false);
        let to_cpu = find(&cands, r(0), false);
        assert_eq!(to_cpu.exec, Time::new(9.0)); // 8 + cm 1.0
        assert_eq!(to_cpu.energy, Energy::new(7.8)); // 7.3 + em 0.5
        let stay = find(&cands, r(2), false);
        assert!(!stay.pinned, "unstarted GPU job is not pinned");
        assert_eq!(stay.exec, Time::new(5.0));
        assert_eq!(stay.energy, Energy::new(2.0));
    }

    #[test]
    fn unstarted_relocation_debt_persists_on_stay() {
        let (platform, catalog) = setup();
        let mut job = JobView::fresh(JobKey(0), TaskTypeId::new(0), Time::ZERO, Time::new(20.0));
        // Previously relocated to CPU0: busy time 8 + 1 = 9, fraction 9/8.
        job.placement = Some(Placement {
            resource: r(0),
            remaining_fraction: 9.0 / 8.0,
            started: false,
            speed: 1.0,
        });
        let cands = candidates(&job, &platform, &catalog, false);
        let stay = find(&cands, r(0), false);
        assert_eq!(stay.exec, Time::new(9.0));
        assert_eq!(
            stay.energy,
            Energy::new(7.3),
            "debt carries no extra energy"
        );
    }

    /// DVFS ladders, two GPUs, a profile on `c1` whose scaled energy is 0
    /// at its two sub-nominal levels (the smallest subnormal underflows, so
    /// those levels tie), an energy tie across resources (`c0`@1.0 and
    /// `c2`), and per-pair migration overheads that reorder destinations
    /// away from the fresh energy order.
    fn ranked_world() -> (Platform, TaskCatalog) {
        let mut b = Platform::builder();
        b.cpu_with_dvfs("c0", &[0.5, 1.0, 2.0])
            .cpu_with_dvfs("c1", &[0.25, 0.5, 1.0])
            .cpu("c2")
            .cpu_with_dvfs("c3", &[0.5, 1.0])
            .gpu("g0")
            .gpu("g1");
        let platform = b.build();
        let ids: Vec<_> = platform.ids().collect();
        let mut ty = TaskType::builder(0, &platform);
        let profiles = [
            (8.0, 4.0),
            (6.0, f64::from_bits(1)),
            (7.0, 4.0),
            (9.0, 1.0),
            (5.0, 2.0),
            (4.0, 2.0),
        ];
        for (&r, &(wcet, energy)) in ids.iter().zip(&profiles) {
            ty.profile(r, Time::new(wcet), Energy::new(energy));
        }
        for (i, &from) in ids.iter().enumerate() {
            for (k, &to) in ids.iter().enumerate() {
                if from != to {
                    let time = 0.5 + ((i * 7 + k * 3) % 5) as f64;
                    let energy = ((i * 5 + k * 11) % 7) as f64 * 0.75;
                    ty.migration(from, to, Time::new(time), Energy::new(energy));
                }
            }
        }
        (platform, TaskCatalog::new(vec![ty.build()]))
    }

    /// Ranked emission (walking the index row) and platform-order emission
    /// give the same row once stable-sorted by `(energy, resource)`, for
    /// every placement kind, speed and `gpu_restart_in_place` setting.
    #[test]
    fn ranked_emission_sorts_to_the_platform_order_row() {
        let (platform, catalog) = ranked_world();
        let index = rtrm_platform::PlatformIndex::build(&platform, &catalog);
        let row = index.row(TaskTypeId::new(0));
        let sort = |v: &mut Vec<Candidate>| {
            v.sort_by(|a, b| a.energy.cmp(&b.energy).then(a.resource.cmp(&b.resource)));
        };
        let mut placements = vec![None];
        for r in platform.ids() {
            for &speed in platform.resource(r).speed_levels() {
                // Unstarted (plain, then with relocation debt), started.
                for (started, remaining_fraction) in
                    [(false, 1.0), (false, 1.375), (true, 0.4), (true, 1.0)]
                {
                    placements.push(Some(Placement {
                        resource: r,
                        remaining_fraction,
                        started,
                        speed,
                    }));
                }
            }
        }
        let mut ties_within_a_resource = 0;
        for placement in placements {
            for restart_in_place in [false, true] {
                let mut job =
                    JobView::fresh(JobKey(0), TaskTypeId::new(0), Time::ZERO, Time::new(20.0));
                job.placement = placement;
                let mut platform_order = Vec::new();
                candidates_into(
                    &job,
                    &platform,
                    &catalog,
                    restart_in_place,
                    &mut platform_order,
                );
                let mut ranked = Vec::new();
                ranked_candidates_into(
                    &job,
                    &platform,
                    &catalog,
                    row,
                    restart_in_place,
                    &mut ranked,
                );
                sort(&mut platform_order);
                sort(&mut ranked);
                assert_eq!(
                    ranked, platform_order,
                    "{placement:?}, restart {restart_in_place}"
                );
                ties_within_a_resource += ranked
                    .windows(2)
                    .filter(|w| w[0].resource == w[1].resource && w[0].energy == w[1].energy)
                    .count();
            }
        }
        assert!(
            ties_within_a_resource > 0,
            "world must produce equal elements"
        );
    }

    /// One resource's candidates, in the order the full enumeration lists
    /// them.
    #[test]
    fn candidates_on_is_the_full_list_restricted_to_one_resource() {
        let (platform, catalog) = ranked_world();
        let mut job = JobView::fresh(JobKey(0), TaskTypeId::new(0), Time::ZERO, Time::new(20.0));
        job.placement = Some(Placement::new(r(4), 0.5, true));
        let all = candidates(&job, &platform, &catalog, true);
        for resource in platform.ids() {
            let mut one = Vec::new();
            candidates_on(&job, &platform, &catalog, resource, true, |c| one.push(c));
            let expected: Vec<Candidate> = all
                .iter()
                .copied()
                .filter(|c| c.resource == resource)
                .collect();
            assert_eq!(one, expected, "resource {resource}");
        }
    }

    #[test]
    fn min_energy_is_gpu_here() {
        let (platform, catalog) = setup();
        let job = JobView::fresh(JobKey(0), TaskTypeId::new(0), Time::ZERO, Time::new(20.0));
        assert_eq!(min_energy(&job, &platform, &catalog), Energy::new(2.0));
    }

    #[test]
    fn non_executable_resources_skipped() {
        let platform = Platform::builder().cpus(2).build();
        let ids: Vec<_> = platform.ids().collect();
        let ty = TaskType::builder(0, &platform)
            .profile(ids[1], Time::new(3.0), Energy::new(1.0))
            .build();
        let catalog = TaskCatalog::new(vec![ty]);
        let job = JobView::fresh(JobKey(0), TaskTypeId::new(0), Time::ZERO, Time::new(20.0));
        let cands = candidates(&job, &platform, &catalog, false);
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0].resource, ids[1]);
    }
}
