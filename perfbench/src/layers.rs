//! Tracing from outside the program: wrappers around each layer's public
//! entry point that record spans and counters, and the span store.
//!
//! The wrappers forward every trait method, so a traced run makes exactly
//! the decisions an untraced one does (the benchmark asserts equal decision
//! digests). A trait default left in place would silently drop the warm
//! `TimelinePool` or report confidence 1.0 and bypass the θ-gate.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use rtrm_core::{Activation, Decision, ResourceManager, TimelinePool};
use rtrm_platform::{Request, TaskTypeId};
use rtrm_predict::{ConfidentPrediction, Prediction, Predictor};

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// Request id of a span that belongs to a whole session (its drain).
pub const NO_REQUEST: u32 = u32::MAX;

/// The layer boundary a span was recorded at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `Session::admit` (rtrm-sim), timed by the replay loop.
    Admit,
    /// `Predictor::observe` (rtrm-predict).
    Observe,
    /// A forecast call: `predict_next`, `predict_horizon` or
    /// `predict_horizon_confident` (rtrm-predict).
    Forecast,
    /// `ResourceManager::decide_with_pool` or `decide` (rtrm-core).
    Decide,
    /// `Session::into_report` (rtrm-sim), timed by the replay loop.
    Drain,
}

impl Layer {
    /// The name written to the spans file.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Layer::Admit => "sim.admit",
            Layer::Observe => "predict.observe",
            Layer::Forecast => "predict.forecast",
            Layer::Decide => "core.decide",
            Layer::Drain => "sim.drain",
        }
    }
}

/// One recorded interval. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Session (trace) index.
    pub trace: u32,
    /// Request id within the session, or [`NO_REQUEST`].
    pub request: u32,
    /// Layer boundary.
    pub layer: Layer,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// Start.
    pub start: u64,
    /// End.
    pub end: u64,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

/// Counts taken at the layer boundaries over one round.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Decide calls.
    pub decides: u64,
    /// Sum of active-job counts over decides.
    pub depth_sum: u64,
    /// Largest active-job count seen.
    pub depth_max: u64,
    /// Phantoms handed to the manager (the forecasts the θ-gate kept).
    pub phantoms: u64,
    /// Search nodes reported in decisions.
    pub nodes: u64,
    /// Decisions whose plan honoured a prediction.
    pub used_prediction: u64,
    /// Solver timeouts reported in decisions.
    pub solver_timeouts: u64,
    /// Degraded decisions.
    pub degraded: u64,
    /// `TimelinePool::prune_stats().rebuilds` delta.
    pub rebuilds: u64,
    /// `TimelinePool::prune_stats().indexed_rows` delta.
    pub indexed_rows: u64,
    /// `TimelinePool::prune_stats().owned_rows` delta.
    pub owned_rows: u64,
    /// `TimelinePool::prune_stats().widened` delta.
    pub widened: u64,
    /// `TimelinePool::engine_verdicts()` delta.
    pub engine_verdicts: u64,
    /// Forecast calls.
    pub forecasts: u64,
    /// Forecast steps returned by the predictor.
    pub offered: u64,
    /// Forecasts followed by an observed request in the same session.
    pub hit_checks: u64,
    /// Of those, forecasts whose first step's type was the observed type.
    pub hits: u64,
    /// Pool counters that went backwards between two reads (must stay 0).
    pub regressions: u64,
}

impl Counters {
    fn delta(&mut self, after: u64, before: u64) -> u64 {
        after.checked_sub(before).unwrap_or_else(|| {
            self.regressions += 1;
            0
        })
    }
}

/// The in-memory span store and counters of one traced run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    /// Every span recorded so far.
    pub spans: Vec<Span>,
    /// Counters of the current round.
    pub counters: Counters,
    parent: u32,
    trace: u32,
    request: u32,
}

/// The tracer shared by the replay loop and the wrappers (single thread).
pub type SharedTracer = Rc<RefCell<Tracer>>;

impl Tracer {
    /// Creates an empty tracer whose clock starts now.
    #[must_use]
    pub fn shared() -> SharedTracer {
        Rc::new(RefCell::new(Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            counters: Counters::default(),
            parent: NO_PARENT,
            trace: 0,
            request: NO_REQUEST,
        }))
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a root span; spans the wrappers record until
    /// [`close`](Tracer::close) become its children.
    pub fn open(&mut self, layer: Layer, trace: usize, request: u32, start: Instant) -> u32 {
        let index = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let start = self.ns(start);
        self.trace = u32::try_from(trace).expect("session index fits u32");
        self.request = request;
        self.parent = index;
        self.spans.push(Span {
            trace: self.trace,
            request,
            layer,
            parent: NO_PARENT,
            start,
            end: start,
        });
        index
    }

    /// Closes the root span opened as `index`.
    pub fn close(&mut self, index: u32, end: Instant) {
        let end = self.ns(end);
        self.spans[index as usize].end = end;
        self.parent = NO_PARENT;
    }

    fn child(&mut self, layer: Layer, start: Instant, end: Instant) {
        let span = Span {
            trace: self.trace,
            request: self.request,
            layer,
            parent: self.parent,
            start: self.ns(start),
            end: self.ns(end),
        };
        self.spans.push(span);
    }
}

/// Times `ResourceManager` calls and reads the activation, the decision and
/// the pool counters around each one.
pub struct TracedManager {
    inner: Box<dyn ResourceManager>,
    tracer: SharedTracer,
}

impl TracedManager {
    /// Wraps `inner`.
    #[must_use]
    pub fn new(inner: Box<dyn ResourceManager>, tracer: SharedTracer) -> Self {
        TracedManager { inner, tracer }
    }

    fn record(
        &self,
        activation: &Activation<'_>,
        decision: &Decision,
        start: Instant,
        end: Instant,
    ) {
        let mut t = self.tracer.borrow_mut();
        t.child(Layer::Decide, start, end);
        let c = &mut t.counters;
        let depth = activation.active.len() as u64;
        c.decides += 1;
        c.depth_sum += depth;
        c.depth_max = c.depth_max.max(depth);
        c.phantoms += activation.predicted.len() as u64;
        c.nodes += decision.nodes;
        c.used_prediction += u64::from(decision.used_prediction);
        c.solver_timeouts += u64::from(decision.solver_timeouts);
        c.degraded += u64::from(decision.degraded);
    }
}

impl ResourceManager for TracedManager {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn decide(&mut self, activation: &Activation<'_>) -> Decision {
        let start = Instant::now();
        let decision = self.inner.decide(activation);
        self.record(activation, &decision, start, Instant::now());
        decision
    }

    fn decide_with_pool(
        &mut self,
        activation: &Activation<'_>,
        pool: &mut TimelinePool,
    ) -> Decision {
        let prune = pool.prune_stats();
        let verdicts = pool.engine_verdicts();
        let start = Instant::now();
        let decision = self.inner.decide_with_pool(activation, pool);
        let end = Instant::now();
        let prune_after = pool.prune_stats();
        let verdicts_after = pool.engine_verdicts();
        self.record(activation, &decision, start, end);
        let c = &mut self.tracer.borrow_mut().counters;
        let d = c.delta(prune_after.rebuilds, prune.rebuilds);
        c.rebuilds += d;
        let d = c.delta(prune_after.indexed_rows, prune.indexed_rows);
        c.indexed_rows += d;
        let d = c.delta(prune_after.owned_rows, prune.owned_rows);
        c.owned_rows += d;
        let d = c.delta(prune_after.widened, prune.widened);
        c.widened += d;
        let d = c.delta(verdicts_after, verdicts);
        c.engine_verdicts += d;
        decision
    }

    fn set_wall_clock(&mut self, budget: Option<f64>) {
        self.inner.set_wall_clock(budget);
    }
}

/// Times `Predictor` calls and scores each forecast's first step against
/// the request the session observes next.
pub struct TracedPredictor {
    inner: Box<dyn Predictor>,
    tracer: SharedTracer,
    pending: Option<TaskTypeId>,
}

impl TracedPredictor {
    /// Wraps `inner`.
    #[must_use]
    pub fn new(inner: Box<dyn Predictor>, tracer: SharedTracer) -> Self {
        TracedPredictor {
            inner,
            tracer,
            pending: None,
        }
    }

    fn forecast<T>(
        &mut self,
        call: impl FnOnce(&mut dyn Predictor) -> Vec<T>,
        first_type: impl Fn(&T) -> TaskTypeId,
    ) -> Vec<T> {
        let start = Instant::now();
        let steps = call(self.inner.as_mut());
        let end = Instant::now();
        self.pending = steps.first().map(first_type);
        let mut t = self.tracer.borrow_mut();
        t.child(Layer::Forecast, start, end);
        t.counters.forecasts += 1;
        t.counters.offered += steps.len() as u64;
        steps
    }
}

impl Predictor for TracedPredictor {
    fn observe(&mut self, request: &Request) {
        let start = Instant::now();
        self.inner.observe(request);
        let end = Instant::now();
        let mut t = self.tracer.borrow_mut();
        t.child(Layer::Observe, start, end);
        if let Some(predicted) = self.pending.take() {
            t.counters.hit_checks += 1;
            t.counters.hits += u64::from(predicted == request.task_type);
        }
    }

    fn predict_next(&mut self) -> Option<Prediction> {
        self.forecast(|p| p.predict_next().into_iter().collect(), |p| p.task_type)
            .pop()
    }

    fn predict_horizon(&mut self, k: usize) -> Vec<Prediction> {
        self.forecast(|p| p.predict_horizon(k), |p| p.task_type)
    }

    fn predict_horizon_confident(&mut self, k: usize) -> Vec<ConfidentPrediction> {
        self.forecast(
            |p| p.predict_horizon_confident(k),
            |c| c.prediction.task_type,
        )
    }

    fn reset(&mut self) {
        self.pending = None;
        self.inner.reset();
    }
}
