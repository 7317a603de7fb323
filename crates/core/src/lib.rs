//! # rtrm-core
//!
//! The resource managers of *Niknafs, Ukhov, Eles, Peng — "Runtime Resource
//! Management with Workload Prediction", DAC 2019*: at every request arrival
//! they map (and, through per-resource EDF, schedule) the arriving task
//! together with all active tasks so that every deadline holds at minimum
//! energy — optionally also planning around a *predicted* next request.
//!
//! Three interchangeable [`ResourceManager`] policies:
//!
//! * [`HeuristicRm`] — the paper's fast knapsack heuristic (Algorithm 1);
//! * [`ExactRm`] — exact energy-optimal mapping by branch & bound with
//!   EDF-timeline feasibility (the paper's "MILP" series, solver-free);
//! * [`MilpRm`] — the paper's Sec 4.2 MILP formulation solved with the
//!   bundled [`rtrm_milp`] simplex / branch & bound solver;
//! * [`StaticRm`] — a quasi-static design-time-mapping baseline in the
//!   spirit of the related work the paper contrasts against.
//!
//! All three honour the paper's fallback rule: if no plan accommodates the
//! predicted task, a plan without it is attempted before the arriving task
//! is rejected.
//!
//! # Examples
//!
//! The paper's motivational example (Table 1), without prediction — the
//! manager greedily parks τ₁ on the GPU:
//!
//! ```
//! use rtrm_core::{Activation, ExactRm, JobView, ResourceManager};
//! use rtrm_platform::{Energy, Platform, TaskCatalog, TaskType, TaskTypeId, Time};
//! use rtrm_sched::JobKey;
//!
//! let platform = Platform::builder().cpus(2).gpu("gpu").build();
//! let ids: Vec<_> = platform.ids().collect();
//! let tau1 = TaskType::builder(0, &platform)
//!     .profile(ids[0], Time::new(8.0), Energy::new(7.3))
//!     .profile(ids[1], Time::new(12.0), Energy::new(8.4))
//!     .profile(ids[2], Time::new(5.0), Energy::new(2.0))
//!     .build();
//! let catalog = TaskCatalog::new(vec![tau1]);
//!
//! let mut rm = ExactRm::new();
//! let decision = rm.decide(&Activation {
//!     now: Time::new(0.0),
//!     platform: &platform,
//!     catalog: &catalog,
//!     active: &[],
//!     arriving: JobView::fresh(JobKey(0), TaskTypeId::new(0), Time::new(0.0), Time::new(8.0)),
//!     predicted: &[],
//! });
//! assert!(decision.admitted);
//! assert_eq!(decision.assignments[0].resource, ids[2]); // the GPU: 2 J
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod activation;
mod cost;
mod driver;
mod exact;
mod heuristic;
mod milp_rm;
mod prune;
pub mod reference;
mod static_rm;
mod view;

pub use activation::{
    Activation, Assignment, Decision, PlanBuilder, ResourceManager, TimelinePool,
};
pub use cost::{candidates, candidates_into, candidates_on, min_energy, Candidate};
pub use driver::{
    decide_with_fallback, decide_with_fallback_tracked, gate_horizon, Attempt, HorizonPolicy, Plan,
};
pub use exact::ExactRm;
pub use heuristic::{most_desirable_resource, HeuristicRm};
pub use milp_rm::MilpRm;
pub use prune::{pareto_front, CandidateTable, PruneStats};
pub use static_rm::StaticRm;
pub use view::{JobView, Placement};
