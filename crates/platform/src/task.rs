//! Task types: per-resource execution profiles and migration overheads.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{Energy, Platform, ResourceId, Time};

/// Identifier of a task *type* (the paper's τ_j template, triggered by
/// requests of that type).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct TaskTypeId(u32);

impl TaskTypeId {
    /// Creates a task-type id from its catalog index.
    #[must_use]
    pub fn new(index: usize) -> Self {
        TaskTypeId(u32::try_from(index).expect("task type index fits in u32"))
    }

    /// Returns the catalog index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TaskTypeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "τ{}", self.0)
    }
}

/// Worst-case execution time and average energy of a task type on one
/// resource.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExecutionProfile {
    /// Worst-case execution time (the paper's `c_{j,i}`).
    pub wcet: Time,
    /// Average energy consumed by a full execution (the paper's `e_{j,i}`).
    pub energy: Energy,
}

impl ExecutionProfile {
    /// Creates a profile.
    ///
    /// # Panics
    ///
    /// Panics if `wcet` or `energy` is not strictly positive and finite.
    #[must_use]
    pub fn new(wcet: Time, energy: Energy) -> Self {
        assert!(
            wcet > Time::ZERO && wcet.is_finite(),
            "WCET must be positive and finite"
        );
        assert!(
            energy > Energy::ZERO && energy.is_finite(),
            "energy must be positive and finite"
        );
        ExecutionProfile { wcet, energy }
    }
}

/// Time and energy overhead of migrating a (started) task between two
/// resources (the paper's `cm_{j,k,i}` and `em_{j,k,i}`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct MigrationOverhead {
    /// Extra execution time added on the destination resource.
    pub time: Time,
    /// Extra energy charged for the transfer.
    pub energy: Energy,
}

/// A task type: the per-resource execution profiles plus the migration
/// overhead matrix. A task is executable on at least one resource; resources
/// where it cannot run have no profile (the paper uses "dummy values" there).
///
/// # Examples
///
/// ```
/// use rtrm_platform::{Platform, TaskType, Time, Energy};
///
/// let platform = Platform::builder().cpus(1).gpu("g").build();
/// let ids: Vec<_> = platform.ids().collect();
/// let tt = TaskType::builder(0, &platform)
///     .profile(ids[0], Time::new(8.0), Energy::new(7.3))
///     .profile(ids[1], Time::new(5.0), Energy::new(2.0))
///     .uniform_migration(Time::new(1.0), Energy::new(1.0))
///     .build();
/// assert!(tt.is_executable_on(ids[1]));
/// assert_eq!(tt.wcet(ids[0]).unwrap(), Time::new(8.0));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskType {
    id: TaskTypeId,
    profiles: Vec<Option<ExecutionProfile>>,
    /// `migration[from][to]`; the diagonal is zero.
    migration: Vec<Vec<MigrationOverhead>>,
    /// `uniform_out[from]`: every move out of `from` costs the same,
    /// recorded by the builder (see
    /// [`uniform_migration_from`](TaskType::uniform_migration_from)).
    uniform_out: Vec<bool>,
}

impl TaskType {
    /// Starts building a task type for the given platform.
    #[must_use]
    pub fn builder(index: usize, platform: &Platform) -> TaskTypeBuilder {
        TaskTypeBuilder {
            id: TaskTypeId::new(index),
            n: platform.len(),
            profiles: vec![None; platform.len()],
            migration: vec![vec![MigrationOverhead::default(); platform.len()]; platform.len()],
            uniform_out: vec![true; platform.len()],
        }
    }

    /// Returns the type id.
    #[must_use]
    pub fn id(&self) -> TaskTypeId {
        self.id
    }

    /// Returns `true` if the type can execute on `resource`.
    #[must_use]
    pub fn is_executable_on(&self, resource: ResourceId) -> bool {
        self.profiles[resource.index()].is_some()
    }

    /// Execution profile on `resource`, or `None` if not executable there.
    #[must_use]
    pub fn profile(&self, resource: ResourceId) -> Option<&ExecutionProfile> {
        self.profiles[resource.index()].as_ref()
    }

    /// WCET on `resource`, or `None` if not executable there.
    #[must_use]
    pub fn wcet(&self, resource: ResourceId) -> Option<Time> {
        self.profile(resource).map(|p| p.wcet)
    }

    /// Full-execution energy on `resource`, or `None` if not executable
    /// there.
    #[must_use]
    pub fn energy(&self, resource: ResourceId) -> Option<Energy> {
        self.profile(resource).map(|p| p.energy)
    }

    /// Migration overhead when moving a started task `from → to`.
    #[must_use]
    pub fn migration(&self, from: ResourceId, to: ResourceId) -> MigrationOverhead {
        self.migration[from.index()][to.index()]
    }

    /// The migration overhead out of `from` when it is the same for every
    /// destination, as [`TaskTypeBuilder::uniform_migration`] sets it;
    /// `None` once the builder set any pair out of `from` individually
    /// (even to the same value). O(1): recorded at build time.
    #[must_use]
    pub fn uniform_migration_from(&self, from: ResourceId) -> Option<MigrationOverhead> {
        let row = &self.migration[from.index()];
        // Any off-diagonal entry of a uniform row is the overhead (a
        // one-resource platform has none, and no destination either).
        let other = usize::from(from.index() == 0);
        self.uniform_out[from.index()].then(|| row.get(other).copied().unwrap_or_default())
    }

    /// Ids of the resources the type can execute on.
    pub fn executable_resources(&self) -> impl Iterator<Item = ResourceId> + '_ {
        self.profiles
            .iter()
            .enumerate()
            .filter(|(_, p)| p.is_some())
            .map(|(i, _)| ResourceId::new(i))
    }

    /// Mean WCET over the resources the type can execute on.
    #[must_use]
    pub fn mean_wcet(&self) -> Time {
        let (sum, n) = self
            .profiles
            .iter()
            .flatten()
            .fold((Time::ZERO, 0usize), |(s, n), p| (s + p.wcet, n + 1));
        sum / n as f64
    }

    /// Mean full-execution energy over the resources the type can execute on.
    #[must_use]
    pub fn mean_energy(&self) -> Energy {
        let (sum, n) = self
            .profiles
            .iter()
            .flatten()
            .fold((Energy::ZERO, 0usize), |(s, n), p| (s + p.energy, n + 1));
        sum / n as f64
    }

    /// Smallest WCET over executable resources (a lower bound on response
    /// time regardless of mapping).
    #[must_use]
    pub fn min_wcet(&self) -> Time {
        self.profiles
            .iter()
            .flatten()
            .map(|p| p.wcet)
            .min()
            .expect("task type is executable somewhere")
    }

    /// Smallest full-execution energy over executable resources.
    #[must_use]
    pub fn min_energy(&self) -> Energy {
        self.profiles
            .iter()
            .flatten()
            .map(|p| p.energy)
            .min()
            .expect("task type is executable somewhere")
    }
}

/// Incrementally constructs a [`TaskType`].
#[derive(Debug, Clone)]
pub struct TaskTypeBuilder {
    id: TaskTypeId,
    n: usize,
    profiles: Vec<Option<ExecutionProfile>>,
    migration: Vec<Vec<MigrationOverhead>>,
    uniform_out: Vec<bool>,
}

impl TaskTypeBuilder {
    /// Sets the execution profile on one resource.
    pub fn profile(&mut self, resource: ResourceId, wcet: Time, energy: Energy) -> &mut Self {
        self.profiles[resource.index()] = Some(ExecutionProfile::new(wcet, energy));
        self
    }

    /// Sets the migration overhead for one ordered resource pair.
    pub fn migration(
        &mut self,
        from: ResourceId,
        to: ResourceId,
        time: Time,
        energy: Energy,
    ) -> &mut Self {
        self.migration[from.index()][to.index()] = MigrationOverhead { time, energy };
        if from != to {
            self.uniform_out[from.index()] = false;
        }
        self
    }

    /// Sets the same migration overhead for every off-diagonal pair.
    pub fn uniform_migration(&mut self, time: Time, energy: Energy) -> &mut Self {
        self.uniform_out.fill(true);
        for from in 0..self.n {
            for to in 0..self.n {
                if from != to {
                    self.migration[from][to] = MigrationOverhead { time, energy };
                }
            }
        }
        self
    }

    /// Finalizes the task type.
    ///
    /// # Panics
    ///
    /// Panics if the type is not executable on any resource (the paper
    /// requires executability on at least one resource).
    #[must_use]
    pub fn build(&mut self) -> TaskType {
        assert!(
            self.profiles.iter().any(Option::is_some),
            "task type must be executable on at least one resource"
        );
        TaskType {
            id: self.id,
            profiles: std::mem::take(&mut self.profiles),
            migration: std::mem::take(&mut self.migration),
            uniform_out: std::mem::take(&mut self.uniform_out),
        }
    }
}

/// The set of task types known to the system (the paper creates 100).
///
/// A catalog is built against a specific [`Platform`]; all contained types
/// have profile vectors of the platform's length.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskCatalog {
    types: Vec<TaskType>,
}

impl TaskCatalog {
    /// Creates a catalog from task types.
    ///
    /// # Panics
    ///
    /// Panics if the types' ids are not exactly `0..len` in order, which
    /// would break id-based indexing.
    #[must_use]
    pub fn new(types: Vec<TaskType>) -> Self {
        for (i, t) in types.iter().enumerate() {
            assert_eq!(t.id().index(), i, "task type ids must be dense and ordered");
        }
        TaskCatalog { types }
    }

    /// Number of task types (the paper's `L`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.types.len()
    }

    /// Returns `true` if the catalog is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.types.is_empty()
    }

    /// Returns the type with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is not in this catalog.
    #[must_use]
    pub fn task_type(&self, id: TaskTypeId) -> &TaskType {
        &self.types[id.index()]
    }

    /// Iterates over all types in id order.
    pub fn iter(&self) -> impl Iterator<Item = &TaskType> {
        self.types.iter()
    }
}

impl FromIterator<TaskType> for TaskCatalog {
    fn from_iter<I: IntoIterator<Item = TaskType>>(iter: I) -> Self {
        TaskCatalog::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn platform() -> Platform {
        Platform::builder().cpus(2).gpu("g").build()
    }

    fn r(i: usize) -> ResourceId {
        ResourceId::new(i)
    }

    #[test]
    fn builder_and_accessors() {
        let p = platform();
        let t = TaskType::builder(0, &p)
            .profile(r(0), Time::new(8.0), Energy::new(7.3))
            .profile(r(2), Time::new(5.0), Energy::new(2.0))
            .migration(r(0), r(2), Time::new(0.5), Energy::new(0.2))
            .build();
        assert!(t.is_executable_on(r(0)));
        assert!(!t.is_executable_on(r(1)));
        assert_eq!(t.wcet(r(2)).unwrap(), Time::new(5.0));
        assert_eq!(t.energy(r(1)), None);
        assert_eq!(t.migration(r(0), r(2)).time, Time::new(0.5));
        assert_eq!(t.migration(r(2), r(0)).time, Time::ZERO);
        assert_eq!(t.uniform_migration_from(r(0)), None, "one pair set");
        assert_eq!(
            t.uniform_migration_from(r(2)),
            Some(MigrationOverhead::default())
        );
        assert_eq!(
            t.executable_resources().collect::<Vec<_>>(),
            vec![r(0), r(2)]
        );
    }

    #[test]
    fn uniform_migration_is_recorded_per_source() {
        let p = platform();
        let m = MigrationOverhead {
            time: Time::new(1.0),
            energy: Energy::new(0.5),
        };
        let t = TaskType::builder(0, &p)
            .profile(r(0), Time::new(8.0), Energy::new(7.3))
            .uniform_migration(m.time, m.energy)
            .migration(r(1), r(1), Time::new(9.0), Energy::new(9.0))
            .migration(r(2), r(0), m.time, m.energy)
            .build();
        assert_eq!(t.uniform_migration_from(r(0)), Some(m));
        assert_eq!(t.uniform_migration_from(r(1)), Some(m), "diagonal ignored");
        assert_eq!(t.uniform_migration_from(r(2)), None, "set per pair");
    }

    #[test]
    fn aggregates() {
        let p = platform();
        let t = TaskType::builder(0, &p)
            .profile(r(0), Time::new(10.0), Energy::new(6.0))
            .profile(r(1), Time::new(20.0), Energy::new(2.0))
            .build();
        assert_eq!(t.mean_wcet(), Time::new(15.0));
        assert_eq!(t.mean_energy(), Energy::new(4.0));
        assert_eq!(t.min_wcet(), Time::new(10.0));
        assert_eq!(t.min_energy(), Energy::new(2.0));
    }

    #[test]
    #[should_panic(expected = "at least one resource")]
    fn unexecutable_type_rejected() {
        let p = platform();
        let _ = TaskType::builder(0, &p).build();
    }

    #[test]
    #[should_panic(expected = "dense and ordered")]
    fn catalog_requires_dense_ids() {
        let p = platform();
        let t = TaskType::builder(5, &p)
            .profile(r(0), Time::new(1.0), Energy::new(1.0))
            .build();
        let _ = TaskCatalog::new(vec![t]);
    }

    #[test]
    fn catalog_round_trip() {
        let p = platform();
        let cat: TaskCatalog = (0..3)
            .map(|i| {
                TaskType::builder(i, &p)
                    .profile(r(0), Time::new(1.0 + i as f64), Energy::new(1.0))
                    .build()
            })
            .collect();
        assert_eq!(cat.len(), 3);
        assert_eq!(
            cat.task_type(TaskTypeId::new(2)).wcet(r(0)).unwrap(),
            Time::new(3.0)
        );
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn non_positive_wcet_rejected() {
        let _ = ExecutionProfile::new(Time::ZERO, Energy::new(1.0));
    }
}
