//! The pre-pruning decide paths, kept verbatim as differential-testing
//! oracles and benchmark baselines for the production managers (the
//! `prune_differential.rs` suite, the `platform_scale` bench). Nothing in
//! the production decide path calls into this module; use
//! [`HeuristicRm`] / [`ExactRm`] directly in production code.
//!
//! Unlike the production path, which builds one [`CandidateTable`] per
//! decide and shares it across the fallback ladder, every rung here
//! rebuilds each job's candidate list through [`candidates`], and the
//! heuristic re-filters and re-sorts it per mapping iteration. The two
//! paths must produce identical [`Decision`]s — node counts included.
//!
//! The pre-incremental *feasibility* reference is not a second code path:
//! hand any manager a [`TimelinePool::oracle`].
//!
//! [`CandidateTable`]: crate::CandidateTable

use rtrm_platform::{Energy, Time};

use crate::activation::{Activation, Decision, PlanBuilder, TimelinePool};
use crate::cost::{candidates, Candidate};
use crate::driver::{decide_with_fallback, decide_with_fallback_shared, Attempt, Plan};
use crate::exact::{drop_dominated_rows, order_keys, ExactRm};
use crate::heuristic::HeuristicRm;
use crate::view::JobView;

/// The heuristic's decide with the unpruned rung solve
/// ([`heuristic_solve`]); identical to
/// [`HeuristicRm::decide_with_pool`](crate::ResourceManager::decide_with_pool).
#[must_use]
pub fn heuristic_decide(
    rm: &HeuristicRm,
    activation: &Activation<'_>,
    pool: &mut TimelinePool,
) -> Decision {
    decide_with_fallback(activation, |act, k| {
        heuristic_solve(rm, act, k, pool).map(|(plan, _)| plan)
    })
}

/// The exact manager's decide with per-rung legacy rows (`exact_rows`)
/// and the unpruned heuristic ([`heuristic_solve`]) as warm seed and floor;
/// identical to
/// [`ExactRm::decide_with_pool`](crate::ResourceManager::decide_with_pool).
#[must_use]
pub fn exact_decide(
    rm: &ExactRm,
    activation: &Activation<'_>,
    pool: &mut TimelinePool,
) -> Decision {
    let heuristic = HeuristicRm::new();
    let n_real = activation.active.len() + 1;
    decide_with_fallback_shared(
        activation,
        pool,
        |pool, act, k| {
            let jobs: Vec<JobView> = act.jobs_with_phantoms(k).copied().collect();
            let mut cand = exact_rows(act, &jobs, rm.gpu_restart_in_place);
            if cand.iter().any(Vec::is_empty) {
                return Attempt::default();
            }
            // Branch-order keys are taken before the dominance drop so the
            // presolved and unpresolved searches walk the same tree shape.
            let keys = order_keys(&cand);
            if rm.presolve {
                drop_dominated_rows(&mut cand, act.platform.len());
            }
            let seed = if rm.warm_start {
                heuristic_solve(&heuristic, act, k, pool).map(|(_, chosen)| chosen)
            } else {
                None
            };
            rm.branch_and_bound(act, k, n_real, &jobs, &cand, &keys, seed, pool)
        },
        |pool, act| heuristic_solve(&heuristic, act, 0, pool).map(|(plan, _)| plan),
    )
}

/// The exact manager's legacy row builder: every job's candidates, filtered
/// by the per-task deadline bound (constraint (2)) and sorted cheapest
/// first for pruning, rebuilt for every rung.
fn exact_rows(
    activation: &Activation<'_>,
    jobs: &[JobView],
    gpu_restart_in_place: bool,
) -> Vec<Vec<Candidate>> {
    jobs.iter()
        .map(|j| {
            let tleft = j.time_left(activation.now);
            let mut cs: Vec<Candidate> = candidates(
                j,
                activation.platform,
                activation.catalog,
                gpu_restart_in_place,
            )
            .into_iter()
            .filter(|c| c.exec <= tleft)
            .collect();
            cs.sort_by(|a, b| a.energy.cmp(&b.energy).then(a.resource.cmp(&b.resource)));
            cs
        })
        .collect()
}

/// The penalty weight `M` that makes deadline-infeasible placements
/// undesirable (Algorithm 1, line 6), derived from the largest candidate
/// energy of this activation. `M = 2·max_energy + 1` guarantees that every
/// penalized desirability (`>= M`) strictly exceeds every unpenalized one
/// (`<= max_energy < M`), so regret comparisons across tasks are never
/// distorted — a fixed constant would invert them as soon as per-job
/// energies approached it.
///
/// This is the per-rung computation; the production path reads the same
/// value from [`CandidateTable::penalty_weight`](crate::CandidateTable::penalty_weight)'s
/// prefix maxima (pinned equal by a unit test in `heuristic.rs`).
#[must_use]
pub fn penalty_weight(cand: &[Vec<Candidate>]) -> f64 {
    let max_energy = cand
        .iter()
        .flatten()
        .map(|c| c.energy.value())
        .fold(0.0, f64::max);
    2.0 * max_energy + 1.0
}

/// One rung of the unpruned Algorithm 1: rebuilds every candidate list per
/// rung and re-filters/sorts it per mapping iteration. Returns the plan
/// plus the full job-indexed chosen-candidate vector, phantom rows
/// included — the same pair the production rung solve returns.
#[must_use]
pub fn heuristic_solve(
    rm: &HeuristicRm,
    activation: &Activation<'_>,
    num_phantoms: usize,
    pool: &mut TimelinePool,
) -> Option<(Plan, Vec<Candidate>)> {
    let jobs: Vec<JobView> = activation
        .jobs_with_phantoms(num_phantoms)
        .copied()
        .collect();
    let n_real = activation.active.len() + 1;

    // Desirability table: one candidate per (job, resource) — the dominant
    // "stay" option for a GPU-running job (see cost module).
    let cand: Vec<Vec<Candidate>> = jobs
        .iter()
        .map(|j| candidates(j, activation.platform, activation.catalog, false))
        .collect();
    let big_m = penalty_weight(&cand);
    let desirability = |job: &JobView, c: &Candidate| -> f64 {
        let tleft = job.time_left(activation.now);
        c.energy.value() + if c.exec > tleft { big_m } else { 0.0 }
    };

    // K̄: every resource starts with the full window as capacity, measured
    // from the activation instant.
    let window = jobs
        .iter()
        .map(|j| j.deadline - activation.now)
        .max()
        .unwrap_or(Time::ZERO);
    let mut capacity = vec![window; activation.platform.len()];

    let mut plan = PlanBuilder::new(activation, pool);
    let mut chosen: Vec<Option<Candidate>> = vec![None; jobs.len()];
    let mut unmapped: Vec<usize> = (0..jobs.len()).collect();
    let mut iterations: u64 = 0;

    while !unmapped.is_empty() {
        // F_j: resources whose remaining capacity admits the task. A task
        // whose F_j is empty can never be mapped later (capacities only
        // shrink), so the algorithm has no solution.
        let feasible = |j: usize| -> Vec<Candidate> {
            cand[j]
                .iter()
                .filter(|c| c.exec <= capacity[c.resource.index()])
                .copied()
                .collect()
        };

        // Select the task with the maximum regret d* (lines 8–23).
        let mut selected: Option<(usize, Vec<Candidate>)> = None;
        let mut best_regret = f64::NEG_INFINITY;
        for &j in &unmapped {
            let mut fj = feasible(j);
            if fj.is_empty() {
                return None; // line 22: no solution
            }
            fj.sort_by(|a, b| {
                desirability(&jobs[j], a)
                    .total_cmp(&desirability(&jobs[j], b))
                    .then(a.resource.cmp(&b.resource))
            });
            let regret = if fj.len() == 1 {
                f64::INFINITY
            } else {
                desirability(&jobs[j], &fj[1]) - desirability(&jobs[j], &fj[0])
            };
            if regret > best_regret {
                best_regret = regret;
                selected = Some((j, fj));
            }
            if rm.disable_regret_ordering {
                break; // ablation: take the first unmapped task
            }
        }
        let (j_star, mut options) = selected.expect("unmapped is non-empty");

        // Map to the most desirable schedulable resource (lines 24–34).
        let mut placed = false;
        while !options.is_empty() {
            iterations += 1;
            let c = options.remove(0);
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
