//! The paper's fast mapping heuristic (Algorithm 1, Sec 4.3).
//!
//! Resources are knapsacks whose capacity is the planning window K̄ in
//! available processing time; tasks are items weighing `cpm_{j,i}`. The
//! desirability of placing task j on resource i is
//! `f_{j,i} = ep_{j,i} + em_{j,k,i} + M·(cpm_{j,i} > t_left_j)`. Tasks are
//! mapped in order of maximum *regret* (difference between their best and
//! second-best desirability); each task goes to its most desirable resource
//! that passes the EDF `IsSchedulable` test, falling back to the next best
//! until none remain.

use rtrm_platform::{Energy, PlatformIndex, ResourceId, Time};

use crate::activation::{Activation, Decision, PlanBuilder, ResourceManager, TimelinePool};
use crate::cost::{candidates, Candidate};
use crate::driver::{decide_with_fallback, Plan};
use crate::prune::{CandidateTable, RowAccess};
use crate::view::JobView;

/// The knapsack-based mapping heuristic of Algorithm 1.
///
/// # Examples
///
/// See the crate-level example in [`rtrm_core`](crate); `HeuristicRm` is a
/// drop-in [`ResourceManager`].
#[derive(Debug, Clone, Default)]
pub struct HeuristicRm {
    /// Disable the max-regret task ordering (lines 8–23) and map tasks in
    /// input order instead. Only useful for ablation studies; the paper's
    /// algorithm uses regret ordering.
    pub disable_regret_ordering: bool,
}

impl HeuristicRm {
    /// Creates the heuristic as described in the paper.
    #[must_use]
    pub fn new() -> Self {
        HeuristicRm::default()
    }

    /// Ablation variant: tasks are mapped in arrival order instead of
    /// max-regret order.
    #[must_use]
    pub fn without_regret_ordering() -> Self {
        HeuristicRm {
            disable_regret_ordering: true,
        }
    }

    /// One rung of Algorithm 1 over the shared [`CandidateTable`] (built
    /// with `gpu_restart_in_place = false`, the heuristic's candidate set).
    /// Decision-identical to the unpruned
    /// [`reference`](crate::reference) solve by construction: per-iteration
    /// capacity filters commute with the row's stable `(energy, resource)`
    /// sort, and the ranked scan's two-pass partition *is* the desirability
    /// order (see `prune` module docs).
    ///
    /// Returns the plan plus the full job-indexed chosen-candidate vector —
    /// *including* the phantom rows that [`Plan::placements`] omits. The
    /// exact managers seed their branch & bound incumbent from it:
    /// re-summing the chosen energies in the search's own branching order
    /// reproduces the exact leaf cost the search would compute for this
    /// assignment, which the bit-identity protocol of the injected
    /// incumbent relies on.
    pub(crate) fn solve_with_table(
        &self,
        activation: &Activation<'_>,
        num_phantoms: usize,
        table: &mut CandidateTable,
        index: Option<&PlatformIndex>,
        pool: &mut TimelinePool,
    ) -> Option<(Plan, Vec<Candidate>)> {
        let n_real = activation.active.len() + 1;
        let n_jobs = n_real + num_phantoms;
        let now = activation.now;
        let big_m = table.penalty_weight(n_jobs);
        let (jobs_all, mut rows) = table.parts(activation.platform);
        let jobs = &jobs_all[..n_jobs];

        // K̄: every resource starts with the full window as capacity. The
        // paper's t_left is measured from the activation instant
        // (`s_j + d_j − t`), so a future-released phantom's work counts
        // against the span up to its absolute deadline, not just the span
        // after its release.
        let window = jobs
            .iter()
            .map(|j| j.deadline - now)
            .max()
            .unwrap_or(Time::ZERO);
        let mut capacity = vec![window; activation.platform.len()];

        let mut plan = PlanBuilder::new(activation, pool);
        let mut chosen: Vec<Option<Candidate>> = vec![None; n_jobs];
        let mut unmapped: Vec<usize> = (0..n_jobs).collect();
        let mut iterations: u64 = 0;

        // Each unmapped job's first two capacity-feasible scan hits, kept
        // for the rung. Capacities only shrink within a rung, so hits that
        // still fit are still the scan's first two: a job is rescanned only
        // when one of its cached hits has lost its capacity.
        let mut hits: Vec<Option<RegretHits>> = vec![None; n_jobs];

        while !unmapped.is_empty() {
            // Select the task with the maximum regret d* (lines 8–23):
            // regret needs only the best and second-best capacity-feasible
            // desirabilities, i.e. the first two hits of a ranked scan.
            let mut selected: Option<usize> = None;
            let mut best_regret = f64::NEG_INFINITY;
            for &j in &unmapped {
                let cached = hits[j].filter(|h| h.fit(&capacity));
                let RegretHits { first, second } = match cached {
                    Some(h) => h,
                    None => {
                        let tleft = jobs[j].time_left(now);
                        let Some(h) =
                            RegretHits::scan(&mut rows, j, tleft, index, &capacity, big_m)
                        else {
                            return None; // line 22: F_j empty, no solution
                        };
                        hits[j] = Some(h);
                        h
                    }
                };
                let regret = second.map_or(f64::INFINITY, |h| h.desirability - first.desirability);
                if regret > best_regret {
                    best_regret = regret;
                    selected = Some(j);
                }
                if self.disable_regret_ordering {
                    break; // ablation: take the first unmapped task
                }
            }
            let j_star = selected.expect("unmapped is non-empty");

            // Map to the most desirable schedulable resource (lines 24–34);
            // capacities are unchanged since selection, so this scan yields
            // exactly the candidate sequence selection ranked.
            let tleft = jobs[j_star].time_left(now);
            let mut placed = false;
            let mut scan = rows.ranked(j_star, tleft, index);
            while let Some((c, _)) = scan.next() {
                if c.exec > capacity[c.resource.index()] {
                    continue;
                }
                iterations += 1;
                if plan.fits(&jobs[j_star], &c) {
                    plan.place(&jobs[j_star], &c);
                    capacity[c.resource.index()] -= c.exec;
                    chosen[j_star] = Some(c);
                    placed = true;
                    break;
                }
            }
            if !placed {
                return None; // lines 31–32: no more resources
            }
            unmapped.retain(|&j| j != j_star);
        }

        debug_assert!(plan.all_schedulable());
        let objective: Energy = chosen.iter().flatten().map(|c| c.energy).sum();
        let start_gates = if num_phantoms > 0 {
            let keys: Vec<_> = activation.predicted[..num_phantoms]
                .iter()
                .map(|p| p.key)
                .collect();
            plan.reservation_gates(&keys)
        } else {
            Vec::new()
        };
        let full: Vec<Candidate> = chosen.iter().map(|c| c.expect("all jobs mapped")).collect();
        Some((
            Plan {
                placements: jobs[..n_real]
                    .iter()
                    .zip(&full)
                    .map(|(j, c)| (j.key, *c))
                    .collect(),
                objective,
                nodes: iterations,
                start_gates,
            },
            full,
        ))
    }
}

/// One capacity-feasible hit of a ranked regret scan.
#[derive(Debug, Clone, Copy)]
struct Hit {
    resource: usize,
    exec: Time,
    desirability: f64,
}

/// A job's first two capacity-feasible ranked hits (`second` is `None` when
/// the scan ran out after one).
#[derive(Debug, Clone, Copy)]
struct RegretHits {
    first: Hit,
    second: Option<Hit>,
}

impl RegretHits {
    /// Scans job `j`'s ranked row for its first two capacity-feasible
    /// hits; `None` when no candidate fits.
    fn scan(
        rows: &mut RowAccess<'_>,
        j: usize,
        tleft: Time,
        index: Option<&PlatformIndex>,
        capacity: &[Time],
        big_m: f64,
    ) -> Option<Self> {
        let mut scan = rows.ranked(j, tleft, index);
        let mut first: Option<Hit> = None;
        while let Some((c, penalized)) = scan.next() {
            if c.exec > capacity[c.resource.index()] {
                continue;
            }
            let hit = Hit {
                resource: c.resource.index(),
                exec: c.exec,
                desirability: c.energy.value() + if penalized { big_m } else { 0.0 },
            };
            match first {
                None => first = Some(hit),
                Some(first) => {
                    return Some(RegretHits {
                        first,
                        second: Some(hit),
                    })
                }
            }
        }
        first.map(|first| RegretHits {
            first,
            second: None,
        })
    }

    /// `true` while every cached hit still fits its resource's capacity —
    /// the negation of the scan's skip test (`Time` is totally ordered), so
    /// the cache is valid exactly when a rescan would find the same hits.
    fn fit(&self, capacity: &[Time]) -> bool {
        let fits = |h: &Hit| h.exec <= capacity[h.resource];
        fits(&self.first) && self.second.as_ref().is_none_or(fits)
    }
}

impl ResourceManager for HeuristicRm {
    fn name(&self) -> &str {
        if self.disable_regret_ordering {
            "heuristic-noregret"
        } else {
            "heuristic"
        }
    }

    fn decide(&mut self, activation: &Activation<'_>) -> Decision {
        // The fallback ladder's rungs share the timelines and the
        // engine-fallback memo through the pool.
        let mut pool = TimelinePool::new();
        self.decide_with_pool(activation, &mut pool)
    }

    fn decide_with_pool(
        &mut self,
        activation: &Activation<'_>,
        pool: &mut TimelinePool,
    ) -> Decision {
        // Build the candidate table once — all rungs of the fallback ladder
        // share it (rung k reads the prefix of n_real + k rows). Table and
        // index are moved out of the pool so the rung closure can borrow the
        // pool's timelines independently.
        let mut table = pool.take_table();
        let index = pool.take_index();
        table.rebuild(activation, false, index.as_ref());
        let decision = decide_with_fallback(activation, |act, k| {
            self.solve_with_table(act, k, &mut table, index.as_ref(), pool)
                .map(|(plan, _)| plan)
        });
        pool.restore_table(table, index);
        decision
    }
}

/// Re-exported for the ablation benchmark: the resource a fresh job would
/// most desire (minimum energy), ignoring schedulability.
#[must_use]
pub fn most_desirable_resource(job: &JobView, activation: &Activation<'_>) -> Option<ResourceId> {
    candidates(job, activation.platform, activation.catalog, false)
        .into_iter()
        .min_by(|a, b| a.energy.cmp(&b.energy).then(a.resource.cmp(&b.resource)))
        .map(|c| c.resource)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use crate::view::Placement;
    use rtrm_platform::{Platform, PlatformIndex, TaskCatalog, TaskType, TaskTypeId};
    use rtrm_sched::JobKey;

    /// DVFS CPU + plain CPU + GPU, two types with very different energies so
    /// the per-rung maximum actually moves as phantoms join the rung.
    fn world() -> (Platform, TaskCatalog) {
        let mut b = Platform::builder();
        b.cpu_with_dvfs("c0", &[0.5, 1.0, 2.0]).cpus(1).gpu("g");
        let platform = b.build();
        let ids: Vec<_> = platform.ids().collect();
        let small = TaskType::builder(0, &platform)
            .profile(ids[0], Time::new(8.0), Energy::new(4.0))
            .profile(ids[1], Time::new(6.0), Energy::new(5.0))
            .profile(ids[2], Time::new(5.0), Energy::new(2.0))
            .uniform_migration(Time::new(1.0), Energy::new(0.5))
            .build();
        let big = TaskType::builder(1, &platform)
            .profile(ids[0], Time::new(10.0), Energy::new(30.0))
            .profile(ids[1], Time::new(9.0), Energy::new(40.0))
            .uniform_migration(Time::new(1.0), Energy::new(0.5))
            .build();
        (platform, TaskCatalog::new(vec![small, big]))
    }

    /// The multi-phantom fixture: a placed active job (owned row), a fresh
    /// arrival, and two phantoms of a high-energy type that raise the
    /// maximum only on the deeper rungs.
    fn with_fixture<R>(f: impl FnOnce(&Activation<'_>) -> R) -> R {
        let (platform, catalog) = world();
        let ids: Vec<_> = platform.ids().collect();
        let mut active = JobView::fresh(JobKey(0), TaskTypeId::new(0), Time::ZERO, Time::new(25.0));
        active.placement = Some(Placement::new(ids[1], 0.6, true));
        let active = [active];
        let arriving = JobView::fresh(JobKey(1), TaskTypeId::new(0), Time::ZERO, Time::new(20.0));
        let predicted = [
            JobView::fresh(
                JobKey(2),
                TaskTypeId::new(1),
                Time::new(4.0),
                Time::new(30.0),
            ),
            JobView::fresh(
                JobKey(3),
                TaskTypeId::new(1),
                Time::new(8.0),
                Time::new(40.0),
            ),
        ];
        f(&Activation {
            now: Time::ZERO,
            platform: &platform,
            catalog: &catalog,
            active: &active,
            arriving,
            predicted: &predicted,
        })
    }

    /// The table with owned rows, then with rows borrowed from an index.
    fn storage_kinds(activation: &Activation<'_>) -> [(Option<PlatformIndex>, &'static str); 2] {
        [
            (None, "owned rows"),
            (
                Some(PlatformIndex::build(
                    activation.platform,
                    activation.catalog,
                )),
                "indexed rows",
            ),
        ]
    }

    /// The table's prefix-maximum penalty weight equals the reference
    /// per-rung full-table flatten for *every* rung of the ladder.
    #[test]
    fn prefix_penalty_weight_matches_per_rung_flatten() {
        with_fixture(|activation| {
            let n_real = activation.active.len() + 1;
            for (index, label) in storage_kinds(activation) {
                let mut table = CandidateTable::new();
                table.rebuild(activation, false, index.as_ref());
                for k in 0..=activation.predicted.len() {
                    let legacy: Vec<Vec<Candidate>> = activation
                        .jobs_with_phantoms(k)
                        .map(|j| candidates(j, activation.platform, activation.catalog, false))
                        .collect();
                    assert_eq!(
                        table.penalty_weight(n_real + k),
                        reference::penalty_weight(&legacy),
                        "{label}, rung with {k} phantoms"
                    );
                }
            }
        });
    }

    /// The exact managers seed from the pruned solve's full chosen vector,
    /// phantom rows included: on every rung, with both row storage kinds,
    /// it equals the reference solve's — as do the plan's placements,
    /// objective, and iteration count.
    #[test]
    fn pruned_chosen_vector_matches_reference_on_every_rung() {
        with_fixture(|activation| {
            let rm = HeuristicRm::new();
            let mut admitted_with_phantoms = false;
            for (index, label) in storage_kinds(activation) {
                let mut table = CandidateTable::new();
                table.rebuild(activation, false, index.as_ref());
                for k in 0..=activation.predicted.len() {
                    let pruned = rm.solve_with_table(
                        activation,
                        k,
                        &mut table,
                        index.as_ref(),
                        &mut TimelinePool::new(),
                    );
                    let legacy =
                        reference::heuristic_solve(&rm, activation, k, &mut TimelinePool::new());
                    match (pruned, legacy) {
                        (Some((plan, chosen)), Some((legacy_plan, legacy_chosen))) => {
                            assert_eq!(chosen.len(), activation.active.len() + 1 + k);
                            assert_eq!(chosen, legacy_chosen, "{label}, rung {k}");
                            assert_eq!(
                                plan.placements, legacy_plan.placements,
                                "{label}, rung {k}"
                            );
                            assert_eq!(plan.objective, legacy_plan.objective, "{label}, rung {k}");
                            assert_eq!(plan.nodes, legacy_plan.nodes, "{label}, rung {k}");
                            admitted_with_phantoms |= k > 0;
                        }
                        (None, None) => {}
                        (p, l) => panic!(
                            "{label}, rung {k}: pruned {:?} vs reference {:?}",
                            p.is_some(),
                            l.is_some()
                        ),
                    }
                }
            }
            assert!(admitted_with_phantoms, "fixture must plan a phantom row");
        });
    }

    /// Three jobs on three CPUs, one window of 10. Regrets: X 1 (c0 1 J,
    /// c1 2 J), Y 8 (c0 1 J, c1 9 J), Z 5 (c1 1 J, c2 6 J). Y maps to c0
    /// first, which leaves c0 too little capacity for X's cached best hit:
    /// X's rescan gives regret 8, so X beats Z to c1 and Z lands on c2. A
    /// stale X regret (1) would let Z take c1 and push X to c2.
    #[test]
    fn cached_regret_hit_that_loses_capacity_is_rescanned() {
        let platform = Platform::builder().cpus(3).build();
        let ids: Vec<_> = platform.ids().collect();
        let ty = |index: usize, exec: f64, energies: [f64; 3]| {
            let mut b = TaskType::builder(index, &platform);
            for (&r, e) in ids.iter().zip(energies) {
                b.profile(r, Time::new(exec), Energy::new(e));
            }
            b.build()
        };
        let catalog = TaskCatalog::new(vec![
            ty(0, 6.0, [1.0, 2.0, 10.0]),
            ty(1, 6.0, [1.0, 9.0, 9.5]),
            ty(2, 5.0, [9.0, 1.0, 6.0]),
        ]);
        let job = |key: u64, ty: usize| {
            JobView::fresh(
                JobKey(key),
                TaskTypeId::new(ty),
                Time::ZERO,
                Time::new(10.0),
            )
        };
        let active = [job(0, 0), job(1, 1)];
        let activation = Activation {
            now: Time::ZERO,
            platform: &platform,
            catalog: &catalog,
            active: &active,
            arriving: job(2, 2),
            predicted: &[],
        };
        let rm = HeuristicRm::new();
        for (index, label) in storage_kinds(&activation) {
            let mut table = CandidateTable::new();
            table.rebuild(&activation, false, index.as_ref());
            let (plan, chosen) = rm
                .solve_with_table(
                    &activation,
                    0,
                    &mut table,
                    index.as_ref(),
                    &mut TimelinePool::new(),
                )
                .expect("fixture admits");
            let (legacy_plan, legacy_chosen) =
                reference::heuristic_solve(&rm, &activation, 0, &mut TimelinePool::new())
                    .expect("reference admits");
            assert_eq!(chosen, legacy_chosen, "{label}");
            assert_eq!(plan.placements, legacy_plan.placements, "{label}");
            assert_eq!(plan.objective, legacy_plan.objective, "{label}");
            assert_eq!(plan.nodes, legacy_plan.nodes, "{label}");
            let resources: Vec<_> = chosen.iter().map(|c| c.resource).collect();
            assert_eq!(resources, vec![ids[1], ids[0], ids[2]], "{label}");
        }
    }

    /// The pruned decide and the reference decide agree on a multi-phantom
    /// activation (the proptest suite covers this at scale; this is the
    /// fast in-crate smoke check).
    #[test]
    fn pruned_and_reference_decide_identically_here() {
        with_fixture(|activation| {
            let pruned = HeuristicRm::new().decide(activation);
            let legacy = reference::heuristic_decide(
                &HeuristicRm::new(),
                activation,
                &mut TimelinePool::new(),
            );
            assert_eq!(pruned, legacy);
            assert!(pruned.admitted);
        });
    }
}
