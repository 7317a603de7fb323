//! Verdict-safe candidate pruning: the per-activation candidate table.
//!
//! At paper scale the managers can afford to rebuild every job's candidate
//! list from scratch for every rung of the phantom-fallback ladder — and the
//! heuristic even re-filters, re-clones, and re-sorts those lists once per
//! mapping iteration. At hundreds of resources that work dominates the
//! decide path. [`CandidateTable`] removes it without changing a single
//! decision:
//!
//! * **one build per decide** — rows for *all* jobs (active, arriving, every
//!   phantom) are set up once and shared across all fallback rungs (rung `k`
//!   reads the prefix of `n_real + k` rows);
//! * **index-backed rows** — a fresh job's candidates are a pure function of
//!   its task type, so when a [`PlatformIndex`] is installed the row is
//!   *borrowed* from it instead of being recomputed (the index stores the
//!   same `(resource, speed)` placements, pre-sorted in the managers'
//!   candidate order);
//! * **walked rows** — a placed job's relocation candidates are a monotone
//!   map of its type's index row when the migration overhead out of its
//!   resource is the same for every destination, so the row is generated
//!   on demand by walking the index row, only as far as scans read it;
//! * **sorted once** — every other row is built and stable-sorted by
//!   `(energy, resource)` at build time (emitted in the index row's order
//!   when one is installed, so the sort sees nearly sorted input); per-rung
//!   deadline filters and per-iteration capacity filters commute with a
//!   stable sort, so filtering *while scanning the pre-sorted row*
//!   reproduces the legacy scan order exactly;
//! * **partitioned desirability scans** — the heuristic's desirability order
//!   (energy plus a penalty `M` for deadline-infeasible placements) is the
//!   stable partition `[unpenalized | penalized]` of the `(energy,
//!   resource)`-sorted row, so [`RankedScan`] yields it in two passes with
//!   no per-iteration sort and no allocation;
//! * **prefix maxima** — the penalty weight `M = 2·max_energy + 1` of rung
//!   `k` needs the maximum candidate energy over that rung's jobs, which is
//!   [`CandidateTable::penalty_weight`]'s O(1) prefix-maximum read instead
//!   of a per-rung table flatten.
//!
//! The shortlist prefix of a row is what a ranked scan touches in the
//! common case; continuing past it (because every shortlisted placement was
//! capacity- or deadline-infeasible) is the *widen-on-infeasibility*
//! fallback, counted in [`PruneStats::widened`]. Widening is a seamless
//! cursor continuation over the same sorted row, which is why verdicts (and
//! whole decisions) never change — see `DESIGN.md` §8 for the dominance
//! argument, including why a hard cross-resource Pareto filter
//! ([`pareto_front`]) must stay advisory.

use std::cmp::Ordering;

use rtrm_platform::{
    Platform, PlatformIndex, RankedPlacement, ResourceId, TaskTypeId, Time, DEFAULT_SHORTLIST,
};

use crate::activation::Activation;
use crate::cost::{candidates_into, candidates_on, ranked_candidates_into, Candidate, Relocation};
use crate::view::JobView;

/// Counters describing how the pruned decide path behaved, cumulative over
/// the lifetime of the owning [`TimelinePool`](crate::TimelinePool).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PruneStats {
    /// Candidate tables rebuilt (one per pruned decide).
    pub rebuilds: u64,
    /// Job rows read from the installed [`PlatformIndex`]: fresh jobs'
    /// rows borrowed as they are, plus placed jobs' walked rows.
    pub indexed_rows: u64,
    /// Placed jobs' rows among `indexed_rows`, generated on demand by
    /// walking the index row instead of being materialized.
    pub walked_rows: u64,
    /// Job rows built through the cost model and stable-sorted: every row
    /// when no index is installed, otherwise the placed jobs whose row is
    /// not walked (migration out of their resource set per destination
    /// pair, or an index row no longer than the shortlist).
    pub owned_rows: u64,
    /// Ranked scans that widened past the shortlist prefix because every
    /// shortlisted placement was capacity- or deadline-infeasible. The
    /// heuristic reruns a job's regret scan only when a cached hit loses
    /// capacity, so this counts scans actually run, not regret reads.
    pub widened: u64,
}

/// How one job's candidate row is stored.
#[derive(Debug, Clone, Copy)]
enum RowKind {
    /// `arena[start..start + len]`, materialized and sorted.
    Owned { start: usize, len: usize },
    /// A fresh job's row, borrowed from the [`PlatformIndex`] the table was
    /// built with.
    Indexed { ty: TaskTypeId },
    /// A placed job's row, generated into `walks[slot]` from the type's
    /// index row.
    Walked { ty: TaskTypeId, slot: usize },
}

/// The candidate rows of one activation, built once per decide and shared
/// across every rung of the phantom-fallback ladder.
///
/// Tables are recycled: a [`TimelinePool`](crate::TimelinePool) keeps one
/// and the managers [`rebuild`](CandidateTable::rebuild) it in place, so the
/// steady-state decide path performs no candidate allocations at all.
#[derive(Debug, Clone, Default)]
pub struct CandidateTable {
    /// All jobs of the activation: active, arriving, then every phantom —
    /// rung `k` of the ladder reads the prefix of `n_real + k` entries.
    jobs: Vec<JobView>,
    rows: Vec<RowKind>,
    /// Backing storage for every owned row and every walked row's stay
    /// candidates.
    arena: Vec<Candidate>,
    /// Walked rows; the first `live_walks` belong to this activation, the
    /// rest keep their buffers for the next one.
    walks: Vec<Walk>,
    live_walks: usize,
    /// `prefix_max[i]`: largest candidate energy over `jobs[..=i]`, so each
    /// rung's penalty weight is an O(1) read that matches the legacy
    /// per-rung table flatten bit for bit.
    prefix_max: Vec<f64>,
    shortlist: usize,
    stats: PruneStats,
}

impl CandidateTable {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> Self {
        CandidateTable::default()
    }

    /// Rebuilds the table in place for one activation.
    ///
    /// Every row reads in `(energy, resource)` order, stable over
    /// [`candidates`](crate::candidates)' platform order — the candidate
    /// order of [`HeuristicRm`](crate::HeuristicRm) and
    /// [`ExactRm`](crate::ExactRm). With an index matching the activation's
    /// world, fresh jobs borrow their type's index row, and placed jobs
    /// whose index row is longer than the shortlist and whose migration
    /// overhead out of their resource is uniform get a walked row, generated
    /// on demand (`DESIGN.md` §8). Every other row is built through the
    /// cost model — in the index row's ranked order when the index matches,
    /// in platform order otherwise — and stable-sorted here.
    pub fn rebuild(
        &mut self,
        activation: &Activation<'_>,
        gpu_restart_in_place: bool,
        index: Option<&PlatformIndex>,
    ) {
        self.jobs.clear();
        self.rows.clear();
        self.arena.clear();
        self.prefix_max.clear();
        self.live_walks = 0;
        self.jobs.extend(activation.jobs_with_prediction().copied());
        self.shortlist = index.map_or(DEFAULT_SHORTLIST, PlatformIndex::shortlist_len);
        self.stats.rebuilds += 1;

        let (platform, catalog) = (activation.platform, activation.catalog);
        let index = index.filter(|ix| ix.matches(platform, catalog));
        let mut running_max = 0.0f64;
        for job in &self.jobs {
            // A placed job's row is walked when its index row outgrows the
            // shortlist and one relocation map covers every destination.
            let walk = index.zip(job.placement).and_then(|(ix, p)| {
                let row = ix.row(job.task_type);
                if row.len() <= ix.shortlist_len() {
                    return None;
                }
                let overhead = catalog
                    .task_type(job.task_type)
                    .uniform_migration_from(p.resource)?;
                Some((row, p.resource, Relocation::new(&p, platform, overhead)))
            });
            let row_max = if let (Some(ix), None) = (index, job.placement) {
                self.rows.push(RowKind::Indexed { ty: job.task_type });
                self.stats.indexed_rows += 1;
                // Index rows are energy-ascending: the maximum is the tail.
                ix.row(job.task_type)
                    .last()
                    .map_or(0.0, |p| p.energy.value())
            } else if let Some((row, from, relocation)) = walk {
                // The stay candidates, merged into the walk by energy.
                let start = self.arena.len();
                candidates_on(job, platform, catalog, from, gpu_restart_in_place, |c| {
                    self.arena.push(c)
                });
                let stay = &mut self.arena[start..];
                stay.sort_by_key(|c| c.energy);
                let stay_max = stay.iter().map(|c| c.energy.value()).fold(0.0, f64::max);
                // The relocation map is monotone, so the largest relocation
                // energy is the last eligible index entry's.
                let moved_max = row
                    .iter()
                    .rev()
                    .find(|e| e.resource != from && relocation.admits(platform, e.resource))
                    .map_or(0.0, |e| {
                        let c = relocation.candidate(e.resource, e.speed, e.wcet, e.energy);
                        c.energy.value()
                    });
                let slot = self.live_walks;
                self.live_walks += 1;
                let walk = Walk::new(from, relocation, start, self.arena.len());
                match self.walks.get_mut(slot) {
                    Some(recycled) => recycled.reset(walk),
                    None => self.walks.push(walk),
                }
                self.rows.push(RowKind::Walked {
                    ty: job.task_type,
                    slot,
                });
                self.stats.indexed_rows += 1;
                self.stats.walked_rows += 1;
                stay_max.max(moved_max)
            } else {
                let start = self.arena.len();
                match index {
                    Some(ix) => ranked_candidates_into(
                        job,
                        platform,
                        catalog,
                        ix.row(job.task_type),
                        gpu_restart_in_place,
                        &mut self.arena,
                    ),
                    None => candidates_into(
                        job,
                        platform,
                        catalog,
                        gpu_restart_in_place,
                        &mut self.arena,
                    ),
                }
                let row = &mut self.arena[start..];
                // Stable over emission order: exactly the comparator the
                // legacy per-rung lists were sorted with. Ranked emission is
                // nearly sorted already, so this pass is about linear.
                row.sort_by(|a, b| a.energy.cmp(&b.energy).then(a.resource.cmp(&b.resource)));
                let len = row.len();
                self.rows.push(RowKind::Owned { start, len });
                self.stats.owned_rows += 1;
                row.iter().map(|c| c.energy.value()).fold(0.0, f64::max)
            };
            running_max = running_max.max(row_max);
            self.prefix_max.push(running_max);
        }
    }

    /// All jobs of the activation (rung `k` is the prefix of
    /// `n_real + k` entries).
    #[must_use]
    pub fn jobs(&self) -> &[JobView] {
        &self.jobs
    }

    /// The penalty weight `M = 2·max_energy + 1` for a rung planning the
    /// first `n_jobs` jobs — identical to the legacy per-rung computation
    /// over the rung's full candidate table, as an O(1) prefix-maximum read.
    ///
    /// # Panics
    ///
    /// Panics if `n_jobs` is zero or exceeds the table's job count.
    #[must_use]
    pub fn penalty_weight(&self, n_jobs: usize) -> f64 {
        2.0 * self.prefix_max[n_jobs - 1] + 1.0
    }

    /// Cumulative behaviour counters.
    #[must_use]
    pub fn stats(&self) -> PruneStats {
        self.stats
    }

    /// Splits the table into the job list and a row accessor, so a solver
    /// can hold job views and scan rows at the same time. `platform` is the
    /// activation's, which walked rows consult for destination kinds.
    pub(crate) fn parts<'a>(
        &'a mut self,
        platform: &'a Platform,
    ) -> (&'a [JobView], RowAccess<'a>) {
        let CandidateTable {
            jobs,
            rows,
            arena,
            walks,
            stats,
            shortlist,
            ..
        } = self;
        (
            jobs,
            RowAccess {
                rows,
                arena,
                walks,
                platform,
                stats,
                shortlist: *shortlist,
            },
        )
    }
}

/// A placed job's row, generated on demand by walking its type's index row
/// through the job's [`Relocation`] map (`DESIGN.md` §8).
///
/// The map is monotone non-decreasing in the fresh energy, so the mapped
/// walk is already energy-sorted. Two fixes make it the `(energy,
/// resource)`-sorted row: each run of equal mapped energies is reordered by
/// resource id (stable, so one resource's entries keep their ascending-speed
/// order), and the stay candidates — the job's own resource, which the walk
/// skips — are merged in at their sorted position.
#[derive(Debug, Clone)]
struct Walk {
    /// The job's current resource.
    from: ResourceId,
    relocation: Relocation,
    /// The stay candidates still to merge: `arena[stay_next..stay_end]`,
    /// energy-sorted.
    stay_next: usize,
    stay_end: usize,
    /// Next index-row entry to map.
    next: usize,
    /// A mapped candidate read past the end of the last tie run.
    pending: Option<Candidate>,
    /// The generated prefix of the row.
    out: Vec<Candidate>,
}

impl Walk {
    fn new(from: ResourceId, relocation: Relocation, stay_start: usize, stay_end: usize) -> Self {
        Walk {
            from,
            relocation,
            stay_next: stay_start,
            stay_end,
            next: 0,
            pending: None,
            out: Vec::new(),
        }
    }

    /// Starts `walk` over, keeping this walk's buffer.
    fn reset(&mut self, walk: Walk) {
        let mut out = std::mem::replace(self, walk).out;
        out.clear();
        self.out = out;
    }

    /// The next eligible index entry, mapped.
    fn next_moved(&mut self, row: &[RankedPlacement], platform: &Platform) -> Option<Candidate> {
        if let Some(c) = self.pending.take() {
            return Some(c);
        }
        while let Some(e) = row.get(self.next) {
            self.next += 1;
            if e.resource != self.from && self.relocation.admits(platform, e.resource) {
                return Some(
                    self.relocation
                        .candidate(e.resource, e.speed, e.wcet, e.energy),
                );
            }
        }
        None
    }

    /// Appends the next run of equal energy (with the stay candidates
    /// ordered before it) to the row; `false` once the row is complete.
    fn advance(
        &mut self,
        row: &[RankedPlacement],
        arena: &[Candidate],
        platform: &Platform,
    ) -> bool {
        let Some(first) = self.next_moved(row, platform) else {
            let rest = &arena[self.stay_next..self.stay_end];
            self.stay_next = self.stay_end;
            self.out.extend_from_slice(rest);
            return !rest.is_empty();
        };
        let energy = first.energy;
        let stay_while = |walk: &mut Walk, keep: Ordering| {
            while walk.stay_next < walk.stay_end
                && arena[walk.stay_next].energy.cmp(&energy) == keep
            {
                walk.out.push(arena[walk.stay_next]);
                walk.stay_next += 1;
            }
        };
        stay_while(self, Ordering::Less);
        let run = self.out.len();
        self.out.push(first);
        while let Some(c) = self.next_moved(row, platform) {
            if c.energy.cmp(&energy) != Ordering::Equal {
                self.pending = Some(c);
                break;
            }
            self.out.push(c);
        }
        stay_while(self, Ordering::Equal);
        if self.out.len() - run > 1 {
            self.out[run..].sort_by_key(|c| c.resource);
        }
        true
    }

    /// Candidate `i` of the row, generating up to it.
    fn get(
        &mut self,
        i: usize,
        row: &[RankedPlacement],
        arena: &[Candidate],
        platform: &Platform,
    ) -> Option<Candidate> {
        while i >= self.out.len() {
            if !self.advance(row, arena, platform) {
                return None;
            }
        }
        Some(self.out[i])
    }

    /// The whole row.
    fn complete(
        &mut self,
        row: &[RankedPlacement],
        arena: &[Candidate],
        platform: &Platform,
    ) -> &[Candidate] {
        while self.advance(row, arena, platform) {}
        &self.out
    }
}

/// Scanning access to the rows of a [`CandidateTable`].
#[derive(Debug)]
pub(crate) struct RowAccess<'a> {
    rows: &'a [RowKind],
    arena: &'a [Candidate],
    walks: &'a mut [Walk],
    platform: &'a Platform,
    stats: &'a mut PruneStats,
    shortlist: usize,
}

/// One resolved row.
#[derive(Debug)]
enum RowSlice<'a> {
    Owned(&'a [Candidate]),
    Indexed(&'a [RankedPlacement]),
    Walked {
        walk: &'a mut Walk,
        row: &'a [RankedPlacement],
        arena: &'a [Candidate],
        platform: &'a Platform,
    },
}

/// A fresh job's candidate from its index entry.
fn fresh(p: &RankedPlacement) -> Candidate {
    Candidate {
        resource: p.resource,
        exec: p.wcet,
        energy: p.energy,
        pinned: false,
        restart: false,
        speed: p.speed,
    }
}

impl RowSlice<'_> {
    /// Candidate `i` of the row, or `None` past its end.
    fn get(&mut self, i: usize) -> Option<Candidate> {
        match self {
            RowSlice::Owned(s) => s.get(i).copied(),
            RowSlice::Indexed(s) => s.get(i).map(fresh),
            RowSlice::Walked {
                walk,
                row,
                arena,
                platform,
            } => walk.get(i, row, arena, platform),
        }
    }
}

/// Job `j`'s row, borrowing only the fields it needs.
fn resolve<'s>(
    rows: &[RowKind],
    arena: &'s [Candidate],
    walks: &'s mut [Walk],
    platform: &'s Platform,
    j: usize,
    index: Option<&'s PlatformIndex>,
) -> RowSlice<'s> {
    let index_row = |ty| {
        index
            .expect("table built with an index must be scanned with it")
            .row(ty)
    };
    match rows[j] {
        RowKind::Owned { start, len } => RowSlice::Owned(&arena[start..start + len]),
        RowKind::Indexed { ty } => RowSlice::Indexed(index_row(ty)),
        RowKind::Walked { ty, slot } => RowSlice::Walked {
            walk: &mut walks[slot],
            row: index_row(ty),
            arena,
            platform,
        },
    }
}

impl RowAccess<'_> {
    /// Appends job `j`'s deadline-feasible candidates (`exec <= tleft`) to
    /// `out` in stored order — the hot bulk-materialization path, kept
    /// monomorphic per storage kind so it compiles to a plain slice sweep.
    /// A walked row is generated to its end first.
    pub(crate) fn filtered_into(
        &mut self,
        j: usize,
        tleft: Time,
        index: Option<&PlatformIndex>,
        out: &mut Vec<Candidate>,
    ) {
        let row = resolve(self.rows, self.arena, self.walks, self.platform, j, index);
        match row {
            RowSlice::Owned(s) => out.extend(s.iter().filter(|c| c.exec <= tleft).copied()),
            RowSlice::Indexed(s) => {
                out.extend(s.iter().filter(|p| p.wcet <= tleft).map(fresh));
            }
            RowSlice::Walked {
                walk,
                row,
                arena,
                platform,
            } => {
                let s = walk.complete(row, arena, platform);
                out.extend(s.iter().filter(|c| c.exec <= tleft).copied());
            }
        }
    }

    /// Scans job `j`'s row in the heuristic's desirability order: all
    /// deadline-feasible (`exec <= tleft`) candidates by `(energy,
    /// resource)`, then the penalized remainder in the same order.
    pub(crate) fn ranked<'s>(
        &'s mut self,
        j: usize,
        tleft: Time,
        index: Option<&'s PlatformIndex>,
    ) -> RankedScan<'s> {
        let RowAccess {
            rows,
            arena,
            walks,
            platform,
            stats,
            shortlist,
        } = self;
        RankedScan {
            row: resolve(rows, arena, walks, platform, j, index),
            stats,
            shortlist: *shortlist,
            tleft,
            pos: 0,
            pass: 0,
            penalized_seen: false,
            widened: false,
        }
    }
}

/// A desirability-ordered scan over one row (see [`RowAccess::ranked`]):
/// two passes over the `(energy, resource)`-sorted row, unpenalized
/// candidates first — the stable partition that *is* the legacy sort order,
/// without sorting anything per iteration. A walked row is generated as far
/// as the scan reads; the second pass and later scans reread that prefix.
#[derive(Debug)]
pub(crate) struct RankedScan<'a> {
    row: RowSlice<'a>,
    stats: &'a mut PruneStats,
    shortlist: usize,
    tleft: Time,
    pos: usize,
    pass: u8,
    penalized_seen: bool,
    widened: bool,
}

impl RankedScan<'_> {
    /// The next candidate in desirability order, with its penalty flag
    /// (`true` when `exec > tleft`, i.e. desirability carries `+M`).
    pub(crate) fn next(&mut self) -> Option<(Candidate, bool)> {
        loop {
            let rank = self.pos;
            let Some(c) = self.row.get(rank) else {
                if self.pass == 0 && self.penalized_seen {
                    self.pass = 1;
                    self.pos = 0;
                    continue;
                }
                return None;
            };
            self.pos += 1;
            let penalized = c.exec > self.tleft;
            self.penalized_seen |= penalized;
            if penalized == (self.pass == 1) {
                if !self.widened && rank >= self.shortlist {
                    self.widened = true;
                    self.stats.widened += 1;
                }
                return Some((c, penalized));
            }
        }
    }
}

/// The Pareto front of a candidate row on `(exec, energy)`: every candidate
/// not weakly dominated by another (one with `exec <=` and `energy <=`,
/// strictly better on at least one axis). A single sweep over the
/// energy-sorted row — O(m log m), not the naive O(m²) pairwise check.
///
/// Laxity-after-placement (`t_left − exec`) needs no third axis: for a
/// fixed job it is a monotone function of `exec`, so `(exec, energy)`
/// dominance implies laxity dominance.
///
/// The front is *advisory*: cross-resource dominance is not verdict-safe
/// (the dominating candidate's resource may be loaded while the dominated
/// one's is idle), so the managers never hard-drop dominated candidates —
/// the front instead characterizes which placements can ever stop a
/// first-fit scan when capacity alone binds, which is what the shortlist
/// prefix approximates and the widen fallback makes safe (`DESIGN.md` §8).
///
/// # Examples
///
/// ```
/// use rtrm_core::{pareto_front, Candidate};
/// use rtrm_platform::{Energy, ResourceId, Time};
///
/// let mk = |r: usize, exec: f64, energy: f64| Candidate {
///     resource: ResourceId::new(r),
///     exec: Time::new(exec),
///     energy: Energy::new(energy),
///     pinned: false,
///     restart: false,
///     speed: 1.0,
/// };
/// // (8, 1) and (5, 2) trade off; (9, 3) is dominated by both.
/// let front = pareto_front(&[mk(0, 8.0, 1.0), mk(1, 9.0, 3.0), mk(2, 5.0, 2.0)]);
/// let picked: Vec<usize> = front.iter().map(|c| c.resource.index()).collect();
/// assert_eq!(picked, vec![0, 2]);
/// ```
#[must_use]
pub fn pareto_front(row: &[Candidate]) -> Vec<Candidate> {
    let mut sorted: Vec<Candidate> = row.to_vec();
    sorted.sort_by(|a, b| {
        a.energy
            .cmp(&b.energy)
            .then(a.exec.cmp(&b.exec))
            .then(a.resource.cmp(&b.resource))
    });
    let mut front = Vec::new();
    let mut best_exec = Time::new(f64::INFINITY);
    for c in sorted {
        // Energy is non-decreasing, so `c` is undominated iff it strictly
        // improves the best execution time seen so far.
        if c.exec < best_exec {
            best_exec = c.exec;
            front.push(c);
        }
    }
    front
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::Placement;
    use rtrm_platform::{Energy, Platform, ResourceId, TaskCatalog, TaskType};
    use rtrm_sched::JobKey;

    fn world() -> (Platform, TaskCatalog) {
        let mut b = Platform::builder();
        b.cpu_with_dvfs("c0", &[0.5, 1.0]).cpus(1).gpu("g");
        let platform = b.build();
        let ids: Vec<_> = platform.ids().collect();
        let ty = TaskType::builder(0, &platform)
            .profile(ids[0], Time::new(8.0), Energy::new(4.0))
            .profile(ids[1], Time::new(6.0), Energy::new(5.0))
            .profile(ids[2], Time::new(5.0), Energy::new(2.0))
            .build();
        (platform, TaskCatalog::new(vec![ty]))
    }

    fn activation<'a>(
        platform: &'a Platform,
        catalog: &'a TaskCatalog,
        arriving: &'a JobView,
        predicted: &'a [JobView],
    ) -> Activation<'a> {
        Activation {
            now: Time::ZERO,
            platform,
            catalog,
            active: &[],
            arriving: *arriving,
            predicted,
        }
    }

    #[test]
    fn indexed_and_owned_rows_scan_identically() {
        let (platform, catalog) = world();
        let arriving = JobView::fresh(
            JobKey(0),
            rtrm_platform::TaskTypeId::new(0),
            Time::ZERO,
            Time::new(12.0),
        );
        let act = activation(&platform, &catalog, &arriving, &[]);
        let index = PlatformIndex::build(&platform, &catalog);

        let mut owned = CandidateTable::new();
        owned.rebuild(&act, false, None);
        let mut indexed = CandidateTable::new();
        indexed.rebuild(&act, false, Some(&index));
        assert_eq!(owned.stats().owned_rows, 1);
        assert_eq!(indexed.stats().indexed_rows, 1);

        let (_, mut rows_o) = owned.parts(&platform);
        let (_, mut rows_i) = indexed.parts(&platform);
        let forever = Time::new(f64::INFINITY);
        let mut a: Vec<Candidate> = Vec::new();
        rows_o.filtered_into(0, forever, None, &mut a);
        let mut b: Vec<Candidate> = Vec::new();
        rows_i.filtered_into(0, forever, Some(&index), &mut b);
        assert_eq!(a, b);
        assert_eq!(
            owned.penalty_weight(1),
            indexed.penalty_weight(1),
            "prefix maxima agree between storage kinds"
        );
    }

    #[test]
    fn ranked_scan_partitions_by_deadline_feasibility() {
        let (platform, catalog) = world();
        // tleft = 7: c0@0.5 (exec 16) and c0@1.0 (exec 8) are penalized;
        // cpu1 (6) and gpu (5) are not.
        let arriving = JobView::fresh(
            JobKey(0),
            rtrm_platform::TaskTypeId::new(0),
            Time::ZERO,
            Time::new(7.0),
        );
        let act = activation(&platform, &catalog, &arriving, &[]);
        let mut table = CandidateTable::new();
        table.rebuild(&act, false, None);
        let (jobs, mut rows) = table.parts(&platform);
        let tleft = jobs[0].time_left(Time::ZERO);
        let mut scan = rows.ranked(0, tleft, None);
        let mut order = Vec::new();
        while let Some((c, penalized)) = scan.next() {
            order.push((c.energy.value(), penalized));
        }
        // Unpenalized energy-ascending, then penalized energy-ascending —
        // the legacy (desirability, resource) sort order.
        assert_eq!(
            order,
            vec![(2.0, false), (5.0, false), (1.0, true), (4.0, true)]
        );
    }

    #[test]
    fn ranked_scan_counts_widening_past_the_shortlist() {
        let (platform, catalog) = world();
        let index = PlatformIndex::with_shortlist(&platform, &catalog, 2);
        let arriving = JobView::fresh(
            JobKey(0),
            rtrm_platform::TaskTypeId::new(0),
            Time::ZERO,
            Time::new(30.0),
        );
        let act = activation(&platform, &catalog, &arriving, &[]);
        let mut table = CandidateTable::new();
        table.rebuild(&act, false, Some(&index));
        {
            let (_, mut rows) = table.parts(&platform);
            let mut scan = rows.ranked(0, Time::new(30.0), Some(&index));
            scan.next();
            scan.next();
        }
        assert_eq!(table.stats().widened, 0, "stopped inside the shortlist");
        {
            let (_, mut rows) = table.parts(&platform);
            let mut scan = rows.ranked(0, Time::new(30.0), Some(&index));
            while scan.next().is_some() {}
        }
        assert_eq!(table.stats().widened, 1, "exhausting the row widens once");
    }

    /// Eleven index entries per type (longer than the default shortlist):
    /// DVFS ladders, two GPUs, a fresh-energy tie across resources (`c0`@1.0
    /// and `c2`; `g0` and `g1`), and a `c1` profile of energy
    /// `f64::from_bits(1)` whose two sub-nominal levels underflow to 0, so
    /// levels of one resource tie. Migration is uniform.
    fn walk_world() -> (Platform, TaskCatalog) {
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
        ty.uniform_migration(Time::new(1.5), Energy::new(0.75));
        (platform, TaskCatalog::new(vec![ty.build()]))
    }

    fn placed(resource: usize, speed: f64, started: bool, remaining_fraction: f64) -> JobView {
        let mut job = JobView::fresh(JobKey(0), TaskTypeId::new(0), Time::ZERO, Time::new(20.0));
        job.placement = Some(Placement {
            resource: ResourceId::new(resource),
            remaining_fraction,
            started,
            speed,
        });
        job
    }

    /// Builds tables for one activation with `job` active, without and with
    /// an index, and checks that `job`'s row reads the same from both:
    /// equal to `candidates_into` plus the stable `(energy, resource)`
    /// sort, field for field, whether read through ranked scans (stopped
    /// early, then exhausted, at several deadlines) or bulk-filtered, with a
    /// bit-identical penalty weight. Returns the indexed table's counters.
    fn check_row(
        platform: &Platform,
        catalog: &TaskCatalog,
        job: JobView,
        gpu_restart_in_place: bool,
    ) -> (PruneStats, Vec<Candidate>) {
        let arriving = JobView::fresh(JobKey(9), TaskTypeId::new(0), Time::ZERO, Time::new(9.0));
        let active = [job];
        let act = Activation {
            now: Time::ZERO,
            platform,
            catalog,
            active: &active,
            arriving,
            predicted: &[],
        };
        let mut expected = Vec::new();
        candidates_into(&job, platform, catalog, gpu_restart_in_place, &mut expected);
        expected.sort_by(|a, b| a.energy.cmp(&b.energy).then(a.resource.cmp(&b.resource)));

        let index = PlatformIndex::build(platform, catalog);
        let mut plain = CandidateTable::new();
        plain.rebuild(&act, gpu_restart_in_place, None);
        let mut table = CandidateTable::new();
        table.rebuild(&act, gpu_restart_in_place, Some(&index));
        for n_jobs in 1..=2 {
            assert_eq!(
                table.penalty_weight(n_jobs).to_bits(),
                plain.penalty_weight(n_jobs).to_bits(),
                "penalty weight over {n_jobs} rows"
            );
        }

        let forever = Time::new(f64::INFINITY);
        let scan_all = |table: &mut CandidateTable, ix: Option<&PlatformIndex>, tleft| {
            let (_, mut rows) = table.parts(platform);
            let mut scan = rows.ranked(0, tleft, ix);
            std::iter::from_fn(|| scan.next()).collect::<Vec<_>>()
        };
        {
            // Generate a prefix only; later scans reread it.
            let (_, mut rows) = table.parts(platform);
            let mut scan = rows.ranked(0, forever, Some(&index));
            scan.next();
            scan.next();
        }
        let unpenalized: Vec<Candidate> = scan_all(&mut table, Some(&index), forever)
            .into_iter()
            .map(|(c, _)| c)
            .collect();
        assert_eq!(unpenalized, expected, "ranked scan, nothing penalized");
        let mut tlefts: Vec<Time> = expected.iter().map(|c| c.exec).collect();
        tlefts.dedup();
        for tleft in tlefts {
            assert_eq!(
                scan_all(&mut table, Some(&index), tleft),
                scan_all(&mut plain, None, tleft),
                "ranked scan at tleft {tleft:?}"
            );
        }
        let (_, mut rows) = table.parts(platform);
        let mut bulk = Vec::new();
        rows.filtered_into(0, forever, Some(&index), &mut bulk);
        assert_eq!(bulk, expected, "bulk filter");
        (table.stats(), expected)
    }

    fn walked(stats: PruneStats) -> bool {
        stats.walked_rows == 1 && stats.owned_rows == 0 && stats.indexed_rows == 2
    }

    #[test]
    fn walked_row_of_an_unstarted_job_with_relocation_debt() {
        let (platform, catalog) = walk_world();
        for (resource, speed) in [(3, 0.5), (1, 0.25), (4, 1.0)] {
            let (stats, row) = check_row(
                &platform,
                &catalog,
                placed(resource, speed, false, 1.375),
                false,
            );
            assert!(walked(stats), "{stats:?}");
            let r = ResourceId::new(resource);
            assert!(row.iter().any(|c| c.resource == r), "stay merged in");
        }
    }

    #[test]
    fn walked_row_of_a_job_started_on_a_dvfs_cpu_skips_gpus() {
        let (platform, catalog) = walk_world();
        for speed in [0.5, 1.0, 2.0] {
            let (stats, row) = check_row(&platform, &catalog, placed(0, speed, true, 0.4), false);
            assert!(walked(stats), "{stats:?}");
            assert!(
                row.iter()
                    .all(|c| platform.resource(c.resource).kind().is_preemptable()),
                "a started CPU job cannot move onto a GPU"
            );
        }
    }

    #[test]
    fn walked_row_of_a_job_started_on_a_gpu() {
        let (platform, catalog) = walk_world();
        let (stats, row) = check_row(&platform, &catalog, placed(5, 1.0, true, 0.6), false);
        assert!(walked(stats), "{stats:?}");
        assert!(
            row.iter().filter(|c| c.restart).count() > 5,
            "restarts elsewhere"
        );
    }

    #[test]
    fn walked_row_merges_a_multi_entry_stay_group() {
        let (platform, catalog) = walk_world();
        let (stats, row) = check_row(&platform, &catalog, placed(4, 1.0, true, 0.6), true);
        assert!(walked(stats), "{stats:?}");
        let on_g0 = row.iter().filter(|c| c.resource.index() == 4).count();
        assert_eq!(on_g0, 2, "pinned stay plus restart in place");
    }

    /// A relocation overhead of `1e16` absorbs distinct fresh energies
    /// into one rounded value; the cheaper entry (first in index order)
    /// sits on the higher resource id, so the walk must reorder the run.
    #[test]
    fn walked_row_reorders_cross_resource_rounding_ties() {
        let mut b = Platform::builder();
        b.cpus(10);
        let platform = b.build();
        let ids: Vec<_> = platform.ids().collect();
        let mut ty = TaskType::builder(0, &platform);
        for (i, &r) in ids.iter().enumerate() {
            // c0 is the dearest, c9 the cheapest.
            ty.profile(r, Time::new(5.0), Energy::new(0.6 - 0.05 * i as f64));
        }
        ty.uniform_migration(Time::new(1.0), Energy::new(1e16));
        let catalog = TaskCatalog::new(vec![ty.build()]);
        let (stats, row) = check_row(&platform, &catalog, placed(9, 1.0, false, 1.0), false);
        assert!(walked(stats), "{stats:?}");
        let moved: Vec<usize> = row
            .iter()
            .filter(|c| c.energy == Energy::new(1e16))
            .map(|c| c.resource.index())
            .collect();
        assert_eq!(
            moved,
            (0..9).collect::<Vec<_>>(),
            "one tie run, by resource"
        );
    }

    #[test]
    fn per_pair_migration_source_or_short_row_stays_materialized() {
        let (platform, catalog) = walk_world();
        let ids: Vec<_> = platform.ids().collect();
        let mut ty = TaskType::builder(0, &platform);
        let source = catalog.task_type(TaskTypeId::new(0));
        for &r in &ids {
            let p = source.profile(r).expect("executable everywhere");
            ty.profile(r, p.wcet, p.energy);
        }
        ty.uniform_migration(Time::new(1.5), Energy::new(0.75))
            .migration(ids[3], ids[0], Time::new(0.5), Energy::new(3.0));
        let catalog = TaskCatalog::new(vec![ty.build()]);
        let (stats, _) = check_row(&platform, &catalog, placed(3, 1.0, false, 1.0), false);
        assert_eq!(
            (stats.walked_rows, stats.owned_rows),
            (0, 1),
            "per-pair source"
        );
        let (stats, _) = check_row(&platform, &catalog, placed(2, 1.0, true, 0.5), false);
        assert!(walked(stats), "a uniform source still walks: {stats:?}");

        // Four index entries: not longer than the shortlist.
        let (platform, catalog) = world();
        let (stats, _) = check_row(&platform, &catalog, placed(1, 1.0, true, 0.5), false);
        assert_eq!((stats.walked_rows, stats.owned_rows), (0, 1), "short row");
    }

    #[test]
    fn pareto_front_drops_weakly_dominated_candidates() {
        let mk = |r: usize, exec: f64, energy: f64| Candidate {
            resource: ResourceId::new(r),
            exec: Time::new(exec),
            energy: Energy::new(energy),
            pinned: false,
            restart: false,
            speed: 1.0,
        };
        let row = [
            mk(0, 8.0, 1.0),
            mk(1, 8.0, 1.0), // duplicate of 0: weakly dominated
            mk(2, 8.0, 2.0), // dominated by 0 (same exec, more energy)
            mk(3, 4.0, 2.0), // on the front (faster than 0)
            mk(4, 5.0, 3.0), // dominated by 3
            mk(5, 2.0, 9.0), // on the front (fastest)
        ];
        let front = pareto_front(&row);
        let picked: Vec<usize> = front.iter().map(|c| c.resource.index()).collect();
        assert_eq!(picked, vec![0, 3, 5]);
        assert!(pareto_front(&[]).is_empty());
    }
}
