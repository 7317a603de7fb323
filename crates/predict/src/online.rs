//! Online predictors in the spirit of the authors' prior work
//! (Niknafs et al., DSD'17 / NORCAS'17): lightweight models suitable for
//! runtime use, learning task-type transitions and interarrival gaps from
//! the observed stream only.

use rtrm_platform::{Request, TaskTypeId, Time};

use crate::{Prediction, Predictor};

/// First-order Markov-chain predictor over task types: counts observed
/// `type → type` transitions and predicts the most frequent successor of the
/// last observed type (ties: lowest type id; unseen type: the globally most
/// frequent type).
///
/// # Examples
///
/// ```
/// use rtrm_platform::{Request, RequestId, TaskTypeId, Time};
/// use rtrm_predict::MarkovTypePredictor;
///
/// let mut p = MarkovTypePredictor::new(3);
/// for (i, ty) in [0usize, 1, 0, 1, 0].into_iter().enumerate() {
///     p.observe_type_transition_from_request(&Request {
///         id: RequestId::new(i),
///         arrival: Time::new(i as f64),
///         task_type: TaskTypeId::new(ty),
///         deadline: Time::new(1.0),
///     });
/// }
/// assert_eq!(p.predict_type(), Some(TaskTypeId::new(1))); // 0 → 1 dominates
/// ```
#[derive(Debug, Clone)]
pub struct MarkovTypePredictor {
    /// `successors[from]`: every type observed right after `from`, with its
    /// (positive) count, in first-seen order. Sparse, because a stream
    /// visits few of the `types²` transitions: a dense matrix for the
    /// paper's 100-type catalog costs 80 KB per predictor.
    successors: Vec<Vec<(TaskTypeId, u64)>>,
    totals: Vec<u64>,
    last: Option<TaskTypeId>,
}

/// The most frequent entry of a successor list (ties: lowest type id) with
/// its count.
fn mode(row: &[(TaskTypeId, u64)]) -> Option<(TaskTypeId, u64)> {
    row.iter()
        .copied()
        .max_by_key(|&(ty, c)| (c, std::cmp::Reverse(ty.index())))
}

impl MarkovTypePredictor {
    /// Creates a predictor for a catalog of `num_types` types.
    ///
    /// # Panics
    ///
    /// Panics if `num_types` is zero.
    #[must_use]
    pub fn new(num_types: usize) -> Self {
        assert!(num_types > 0, "catalog must contain at least one type");
        MarkovTypePredictor {
            successors: vec![Vec::new(); num_types],
            totals: vec![0; num_types],
            last: None,
        }
    }

    /// Records the transition implied by one observed request.
    pub fn observe_type_transition_from_request(&mut self, request: &Request) {
        let ty = request.task_type;
        if let Some(prev) = self.last {
            let row = &mut self.successors[prev.index()];
            match row.iter_mut().find(|(to, _)| *to == ty) {
                Some((_, count)) => *count += 1,
                None => row.push((ty, 1)),
            }
        }
        self.totals[ty.index()] += 1;
        self.last = Some(ty);
    }

    /// Predicts the type of the next request, or `None` before any
    /// observation.
    #[must_use]
    pub fn predict_type(&self) -> Option<TaskTypeId> {
        let last = self.last?;
        let best_row = mode(&self.successors[last.index()]).map(|(ty, _)| ty);
        best_row.or_else(|| {
            self.totals
                .iter()
                .enumerate()
                .max_by_key(|&(i, c)| (*c, std::cmp::Reverse(i)))
                .filter(|&(_, c)| *c > 0)
                .map(|(i, _)| TaskTypeId::new(i))
        })
    }

    /// Clears all learned transitions.
    pub fn clear(&mut self) {
        for row in &mut self.successors {
            row.clear();
        }
        self.totals.fill(0);
        self.last = None;
    }

    /// Number of task types this chain was built for.
    #[must_use]
    pub fn num_types(&self) -> usize {
        self.totals.len()
    }

    /// The last observed task type, if any.
    #[must_use]
    pub fn last_observed(&self) -> Option<TaskTypeId> {
        self.last
    }

    /// Empirical transition probability `P(to | from)` from the learned
    /// counts, or `0.0` when no transition out of `from` was observed.
    ///
    /// This is the read-only view of the transition matrix that k-step
    /// horizon predictors iterate — they never re-estimate the chain.
    #[must_use]
    pub fn transition_probability(&self, from: TaskTypeId, to: TaskTypeId) -> f64 {
        let row = &self.successors[from.index()];
        let total: u64 = row.iter().map(|&(_, c)| c).sum();
        if total == 0 {
            return 0.0;
        }
        let count = row.iter().find(|&&(ty, _)| ty == to).map_or(0, |&(_, c)| c);
        count as f64 / total as f64
    }

    /// The most likely successor of `from` with its transition probability,
    /// or `None` when no transition out of `from` was observed. Ties break
    /// to the lowest type id — identical to [`predict_type`].
    ///
    /// [`predict_type`]: MarkovTypePredictor::predict_type
    #[must_use]
    pub fn most_likely_successor(&self, from: TaskTypeId) -> Option<(TaskTypeId, f64)> {
        let row = &self.successors[from.index()];
        let total: u64 = row.iter().map(|&(_, c)| c).sum();
        mode(row).map(|(ty, c)| (ty, c as f64 / total as f64))
    }

    /// The globally most frequent type with its share of all observations,
    /// or `None` before any observation. Ties break to the lowest type id —
    /// identical to [`predict_type`]'s fallback.
    ///
    /// [`predict_type`]: MarkovTypePredictor::predict_type
    #[must_use]
    pub fn global_mode(&self) -> Option<(TaskTypeId, f64)> {
        let total: u64 = self.totals.iter().sum();
        self.totals
            .iter()
            .enumerate()
            .max_by_key(|&(i, c)| (*c, std::cmp::Reverse(i)))
            .filter(|&(_, c)| *c > 0)
            .map(|(i, c)| (TaskTypeId::new(i), *c as f64 / total as f64))
    }
}

/// Exponentially weighted moving average over interarrival gaps: predicts
/// the next arrival as `last arrival + EWMA(gaps)`.
#[derive(Debug, Clone)]
pub struct EwmaInterarrivalPredictor {
    alpha: f64,
    estimate: Option<f64>,
    last_arrival: Option<Time>,
}

impl EwmaInterarrivalPredictor {
    /// Creates a predictor with smoothing factor `alpha` ∈ (0, 1] (higher =
    /// more weight on recent gaps).
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `(0, 1]`.
    #[must_use]
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        EwmaInterarrivalPredictor {
            alpha,
            estimate: None,
            last_arrival: None,
        }
    }

    /// Records one observed arrival instant.
    pub fn observe_arrival(&mut self, arrival: Time) {
        if let Some(prev) = self.last_arrival {
            let gap = (arrival - prev).value().max(0.0);
            self.estimate = Some(match self.estimate {
                Some(e) => self.alpha * gap + (1.0 - self.alpha) * e,
                None => gap,
            });
        }
        self.last_arrival = Some(arrival);
    }

    /// Predicts the next arrival instant, or `None` before two observations.
    #[must_use]
    pub fn predict_arrival(&self) -> Option<Time> {
        Some(self.last_arrival? + Time::new(self.estimate?))
    }

    /// Current gap estimate, if any.
    #[must_use]
    pub fn gap_estimate(&self) -> Option<Time> {
        self.estimate.map(Time::new)
    }

    /// The last observed arrival instant, if any — the anchor horizon
    /// predictors extrapolate gap multiples from.
    #[must_use]
    pub fn last_arrival(&self) -> Option<Time> {
        self.last_arrival
    }

    /// Clears all learned state.
    pub fn clear(&mut self) {
        self.estimate = None;
        self.last_arrival = None;
    }
}

/// A full [`Predictor`] built from observed history only:
/// [`MarkovTypePredictor`] for the type and [`EwmaInterarrivalPredictor`]
/// for the arrival time. Returns `None` until both sub-models have enough
/// history.
#[derive(Debug, Clone)]
pub struct HistoryPredictor {
    types: MarkovTypePredictor,
    arrivals: EwmaInterarrivalPredictor,
}

impl HistoryPredictor {
    /// Creates a history predictor for `num_types` types with EWMA factor
    /// `alpha`.
    ///
    /// # Panics
    ///
    /// Panics if `num_types` is zero or `alpha` is outside `(0, 1]`.
    #[must_use]
    pub fn new(num_types: usize, alpha: f64) -> Self {
        HistoryPredictor {
            types: MarkovTypePredictor::new(num_types),
            arrivals: EwmaInterarrivalPredictor::new(alpha),
        }
    }
}

impl Predictor for HistoryPredictor {
    fn observe(&mut self, request: &Request) {
        self.types.observe_type_transition_from_request(request);
        self.arrivals.observe_arrival(request.arrival);
    }

    fn predict_next(&mut self) -> Option<Prediction> {
        Some(Prediction {
            task_type: self.types.predict_type()?,
            arrival: self.arrivals.predict_arrival()?,
        })
    }

    fn reset(&mut self) {
        self.types.clear();
        self.arrivals.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtrm_platform::RequestId;

    fn req(i: usize, arrival: f64, ty: usize) -> Request {
        Request {
            id: RequestId::new(i),
            arrival: Time::new(arrival),
            task_type: TaskTypeId::new(ty),
            deadline: Time::new(1.0),
        }
    }

    #[test]
    fn markov_learns_alternation() {
        let mut p = MarkovTypePredictor::new(4);
        for (i, ty) in [0usize, 2, 0, 2, 0, 2, 0].iter().enumerate() {
            p.observe_type_transition_from_request(&req(i, i as f64, *ty));
        }
        assert_eq!(p.predict_type(), Some(TaskTypeId::new(2)));
    }

    #[test]
    fn markov_falls_back_to_global_mode() {
        let mut p = MarkovTypePredictor::new(4);
        // Only one observation: no transition from type 3 recorded.
        p.observe_type_transition_from_request(&req(0, 0.0, 3));
        assert_eq!(p.predict_type(), Some(TaskTypeId::new(3)));
    }

    /// Successors are stored in first-seen order; ties still break to the
    /// lowest type id, and probabilities count every successor.
    #[test]
    fn markov_successor_ties_break_to_lowest_id_regardless_of_order() {
        let mut p = MarkovTypePredictor::new(4);
        for (i, ty) in [0usize, 3, 0, 1, 0].iter().enumerate() {
            p.observe_type_transition_from_request(&req(i, i as f64, *ty));
        }
        assert_eq!(p.predict_type(), Some(TaskTypeId::new(1)));
        let from = TaskTypeId::new(0);
        assert_eq!(
            p.most_likely_successor(from),
            Some((TaskTypeId::new(1), 0.5))
        );
        assert_eq!(p.transition_probability(from, TaskTypeId::new(3)), 0.5);
        assert_eq!(p.transition_probability(from, TaskTypeId::new(2)), 0.0);
        p.clear();
        assert_eq!(p.predict_type(), None);
        assert_eq!(p.transition_probability(from, TaskTypeId::new(3)), 0.0);
    }

    #[test]
    fn markov_empty_predicts_none() {
        let p = MarkovTypePredictor::new(4);
        assert_eq!(p.predict_type(), None);
    }

    #[test]
    fn markov_exposes_transition_matrix_read_only() {
        let mut p = MarkovTypePredictor::new(3);
        // Transitions out of 0: 0→1 twice, 0→2 once.
        for (i, ty) in [0usize, 1, 0, 2, 0, 1].iter().enumerate() {
            p.observe_type_transition_from_request(&req(i, i as f64, *ty));
        }
        let from = TaskTypeId::new(0);
        assert!((p.transition_probability(from, TaskTypeId::new(1)) - 2.0 / 3.0).abs() < 1e-12);
        assert!((p.transition_probability(from, TaskTypeId::new(2)) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(p.transition_probability(from, TaskTypeId::new(0)), 0.0);
        let (succ, prob) = p.most_likely_successor(from).unwrap();
        assert_eq!(succ, TaskTypeId::new(1));
        assert!((prob - 2.0 / 3.0).abs() < 1e-12);
        // 2 → 0 is the only recorded transition out of 2.
        assert_eq!(
            p.most_likely_successor(TaskTypeId::new(2)),
            Some((TaskTypeId::new(0), 1.0))
        );
        // A fresh chain has no transitions and no mode at all.
        let empty = MarkovTypePredictor::new(3);
        assert_eq!(empty.most_likely_successor(TaskTypeId::new(0)), None);
        assert_eq!(empty.global_mode(), None);
        assert_eq!(empty.last_observed(), None);
        let (mode, share) = p.global_mode().unwrap();
        assert_eq!(mode, TaskTypeId::new(0));
        assert!((share - 3.0 / 6.0).abs() < 1e-12);
        assert_eq!(p.last_observed(), Some(TaskTypeId::new(1)));
        assert_eq!(p.num_types(), 3);
    }

    /// The accessor pair reproduces `predict_type` exactly (row argmax with
    /// low-id tie-break, global-mode fallback) — the horizon predictor's
    /// first step cannot drift from the one-step path.
    #[test]
    fn markov_accessors_agree_with_predict_type() {
        let mut p = MarkovTypePredictor::new(4);
        for (i, ty) in [3usize, 1, 3, 2, 3, 1, 2].iter().enumerate() {
            p.observe_type_transition_from_request(&req(i, i as f64, *ty));
        }
        let last = p.last_observed().unwrap();
        let via_accessors = p
            .most_likely_successor(last)
            .or_else(|| p.global_mode())
            .map(|(ty, _)| ty);
        assert_eq!(via_accessors, p.predict_type());
    }

    #[test]
    fn ewma_tracks_constant_gap() {
        let mut p = EwmaInterarrivalPredictor::new(0.3);
        for i in 0..10 {
            p.observe_arrival(Time::new(2.0 * f64::from(i)));
        }
        let next = p.predict_arrival().unwrap();
        assert!((next.value() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn ewma_needs_two_observations() {
        let mut p = EwmaInterarrivalPredictor::new(0.5);
        assert!(p.predict_arrival().is_none());
        p.observe_arrival(Time::new(1.0));
        assert!(p.predict_arrival().is_none());
        p.observe_arrival(Time::new(2.5));
        assert_eq!(p.predict_arrival().unwrap(), Time::new(4.0));
    }

    #[test]
    fn ewma_weights_recent_gaps() {
        let mut p = EwmaInterarrivalPredictor::new(0.9);
        p.observe_arrival(Time::new(0.0));
        p.observe_arrival(Time::new(10.0)); // gap 10
        p.observe_arrival(Time::new(11.0)); // gap 1
        let est = p.gap_estimate().unwrap().value();
        assert!(
            est < 2.5,
            "estimate should chase the recent small gap: {est}"
        );
    }

    #[test]
    fn history_predictor_round_trip() {
        let mut p = HistoryPredictor::new(3, 0.5);
        assert!(p.predict_next().is_none());
        for (i, ty) in [0usize, 1, 0, 1].iter().enumerate() {
            p.observe(&req(i, 1.5 * i as f64, *ty));
        }
        let pred = p.predict_next().unwrap();
        // Last observed type is 1, whose recorded successor is 0.
        assert_eq!(pred.task_type, TaskTypeId::new(0));
        assert!((pred.arrival.value() - 6.0).abs() < 1e-9);
        p.reset();
        assert!(p.predict_next().is_none());
    }
}
