//! One benchmark run: repeated set-up, the closed-loop and paced replays,
//! the optional traced pass, the correctness checks, and the metrics.
//!
//! Everything runs on the calling thread. Sessions are interleaved in
//! simulated-arrival order over one warm `SimScratch`, as one service shard
//! worker serves them; no batch runner, service ring or extra thread is
//! involved, so the numbers measure the admission pipeline itself.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use rtrm_core::{Decision, ResourceManager};
use rtrm_platform::{Request, Trace};
use rtrm_predict::Predictor;
use rtrm_sim::{SimReport, SimScratch, Simulator};

use crate::layers::{Counters, Layer, SharedTracer, Span, TracedManager, TracedPredictor, Tracer};
use crate::layers::{NO_PARENT, NO_REQUEST};
use crate::workload::{open_slots, Slot, Spec, World, REFERENCE_SEED};

/// Set-ups per run; `setup_s` and the set-up layer metrics are medians.
const SETUP_REPEATS: usize = 11;

/// How far ahead of the first due time the paced schedule starts.
const PACE_LEAD: Duration = Duration::from_millis(1);

/// Shares of `--seconds` given to the closed-loop, traced and paced
/// passes, without and with `--trace`.
const SHARES: [(f64, f64, f64); 2] = [(0.6, 0.0, 0.4), (0.3, 0.45, 0.25)];

/// Minimum time spent replaying the reference stream before anything is
/// timed, so caches and the processor's clock settle first.
const WARM_UP: Duration = Duration::from_millis(500);

/// The traced pass starts no new round once it holds this many spans,
/// which bounds its memory and the spans file.
const SPAN_CAP: usize = 250_000;

/// Admits listed per run in the traced run's outlier attribution.
const OUTLIERS: usize = 5;

/// What one run does.
#[derive(Debug, Clone)]
pub struct Options {
    /// Seed of the request streams.
    pub seed: u64,
    /// Wall-clock seconds the replays are budgeted (whole rounds only, so a
    /// run may overshoot by less than one round).
    pub seconds: f64,
    /// Run the traced pass and report per-layer metrics instead of the
    /// end-to-end ones.
    pub trace: bool,
    /// Use the workload's tiny size (smoke tests).
    pub tiny: bool,
    /// Where the traced run writes its spans (`None`: keep them in memory
    /// only).
    pub spans_dir: Option<PathBuf>,
}

/// The result of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Requests fed to `Session::admit`.
    pub attempted: u64,
    /// Requests whose admit panicked or that were admitted and then missed
    /// their deadline.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Failed correctness checks (empty when the run is correct).
    pub problems: Vec<String>,
    /// Human-readable lines: sample counts, outliers, the spans file.
    pub notes: Vec<String>,
}

/// Runs one workload. A panic inside the workload is caught: its unserved
/// requests count as failed and the outcome is marked incorrect.
#[must_use]
pub fn run(spec: &Spec, options: &Options) -> Outcome {
    let progress = Progress::default();
    match catch_unwind(AssertUnwindSafe(|| measure(spec, options, &progress))) {
        Ok(outcome) => outcome,
        Err(payload) => {
            let message = payload
                .downcast_ref::<&str>()
                .map(ToString::to_string)
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            let unserved = progress.round_left.get();
            Outcome {
                attempted: progress.attempted.get() + unserved,
                failed: progress.failed.get() + unserved,
                problems: vec![format!("{}: panicked: {message}", spec.name)],
                ..Outcome::default()
            }
        }
    }
}

/// Counters that survive a panic.
#[derive(Debug, Default)]
struct Progress {
    attempted: Cell<u64>,
    failed: Cell<u64>,
    round_left: Cell<u64>,
}

/// The open-loop schedule: request `k` is due at `start + k / rate`.
struct Pace {
    start: Instant,
    interval_ns: f64,
    issued: u64,
    waits: Vec<u64>,
}

impl Pace {
    fn due(&self) -> Instant {
        self.start + Duration::from_nanos((self.issued as f64 * self.interval_ns) as u64)
    }
}

/// Spins until `due`: at the paced rates a request is due well under a
/// millisecond after the previous one, and a late wake-up from sleep would
/// count against the request.
fn wait_until(due: Instant) {
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// FNV-1a over one session's decisions: request, verdict, assignments.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn decision(&mut self, request: &Request, decision: &Decision) {
        self.word(request.id.index() as u64);
        self.word(u64::from(decision.admitted));
        self.word(decision.assignments.len() as u64);
        for a in &decision.assignments {
            self.word(a.key.0);
            self.word(a.resource.index() as u64);
            self.word(u64::from(a.restart));
            self.word(a.speed.to_bits());
        }
    }
}

/// The digest of a whole round: its per-session digests in session order.
fn fold(sessions: &[u64]) -> u64 {
    let mut d = Digest::new();
    for &s in sessions {
        d.word(s);
    }
    d.0
}

/// One pass over the first sessions of the interleaved stream.
struct Round {
    requests: u64,
    wall: Duration,
    /// Decision digest of each replayed session (sessions are independent,
    /// so a session's decisions do not depend on which others run).
    digests: Vec<u64>,
    /// `(session, drained report)` in drain order.
    reports: Vec<(usize, SimReport)>,
}

/// The replay state of one world: simulator, warm scratch, and the slots
/// opened during set-up (used by the first round).
struct Replay<'w> {
    spec: &'w Spec,
    world: &'w World,
    simulator: Simulator<'w>,
    scratch: SimScratch,
    ready: Option<Vec<Slot>>,
    progress: &'w Progress,
}

fn no_wrap(
    m: Box<dyn ResourceManager>,
    p: Box<dyn Predictor>,
) -> (Box<dyn ResourceManager>, Box<dyn Predictor>) {
    (m, p)
}

impl<'w> Replay<'w> {
    fn new(spec: &'w Spec, world: &'w World, scratch: SimScratch, progress: &'w Progress) -> Self {
        Replay {
            spec,
            world,
            simulator: Simulator::new(&world.platform, &world.catalog, spec.sim_config()),
            scratch,
            ready: None,
            progress,
        }
    }

    fn open(&self, sessions: usize, tracer: Option<&SharedTracer>) -> Vec<Slot> {
        let (world, simulator) = (self.world, &self.simulator);
        match tracer {
            None => open_slots(world, simulator, sessions, &no_wrap),
            Some(t) => open_slots(world, simulator, sessions, &|m, p| {
                let m: Box<dyn ResourceManager> = Box::new(TracedManager::new(m, t.clone()));
                let p: Box<dyn Predictor> = Box::new(TracedPredictor::new(p, t.clone()));
                (m, p)
            }),
        }
    }

    /// Replays sessions `0..sessions` of the stream in arrival order (on the
    /// pace's schedule, when paced), draining each session right after its
    /// last request. `latencies` receives one sample per admit: its wall
    /// time, or due-to-verdict when paced.
    fn round(
        &mut self,
        sessions: usize,
        tracer: Option<&SharedTracer>,
        mut pace: Option<&mut Pace>,
        latencies: &mut Vec<u64>,
    ) -> Round {
        let mut slots = match (self.ready.take(), tracer) {
            (Some(slots), None) if slots.len() == sessions => slots,
            _ => self.open(sessions, tracer),
        };
        let mut left: Vec<usize> = self.world.traces[..sessions]
            .iter()
            .map(Trace::len)
            .collect();
        let planned: usize = left.iter().sum();
        self.progress.round_left.set(planned as u64);
        let mut reports = Vec::with_capacity(sessions);
        let mut digests: Vec<Digest> = (0..sessions).map(|_| Digest::new()).collect();
        let started = Instant::now();
        for (s, request) in self.world.stream.iter().filter(|(s, _)| *s < sessions) {
            let due = pace.as_deref().map(Pace::due);
            if let Some(due) = due {
                wait_until(due);
            }
            let t0 = Instant::now();
            let span = tracer.map(|t| {
                let id = u32::try_from(request.id.index()).expect("request id fits u32");
                t.borrow_mut().open(Layer::Admit, *s, id, t0)
            });
            let decision = slots[*s].admit(&self.simulator, request, &mut self.scratch);
            let t1 = Instant::now();
            if let (Some(t), Some(span)) = (tracer, span) {
                t.borrow_mut().close(span, t1);
            }
            latencies.push(nanos(t1 - due.unwrap_or(t0)));
            if let (Some(p), Some(due)) = (pace.as_deref_mut(), due) {
                p.waits.push(nanos(t0.saturating_duration_since(due)));
                p.issued += 1;
            }
            digests[*s].decision(request, &decision);
            self.progress
                .attempted
                .set(self.progress.attempted.get() + 1);
            self.progress
                .round_left
                .set(self.progress.round_left.get() - 1);
            left[*s] -= 1;
            if left[*s] == 0 {
                reports.push((*s, self.drain(&mut slots[*s], *s, tracer)));
            }
        }
        Round {
            requests: planned as u64,
            wall: started.elapsed(),
            digests: digests.into_iter().map(|d| d.0).collect(),
            reports,
        }
    }

    fn drain(&mut self, slot: &mut Slot, s: usize, tracer: Option<&SharedTracer>) -> SimReport {
        let session = slot.session.take().expect("each session drains once");
        let t0 = Instant::now();
        let span = tracer.map(|t| t.borrow_mut().open(Layer::Drain, s, NO_REQUEST, t0));
        let report = session.into_report(&self.simulator, &mut self.scratch);
        if let (Some(t), Some(span)) = (tracer, span) {
            t.borrow_mut().close(span, Instant::now());
        }
        report
    }

    /// Checks the drained reports of a round and counts its deadline misses
    /// as failed requests.
    fn check(&self, round: &Round, phase: &str, problems: &mut Vec<String>) {
        let name = self.spec.name;
        let mut requests = 0;
        let mut misses = 0;
        for (s, r) in &round.reports {
            let mut fail =
                |what: String| problems.push(format!("{name} {phase} session {s}: {what}"));
            requests += r.requests as u64;
            misses += r.deadline_misses as u64;
            if r.deadline_misses != 0 {
                fail(format!("{} deadline misses", r.deadline_misses));
            }
            if r.accepted + r.rejected != r.requests {
                fail(format!(
                    "accepted {} + rejected {} != requests {}",
                    r.accepted, r.rejected, r.requests
                ));
            }
            if r.completed != r.accepted {
                fail(format!(
                    "completed {} != accepted {}",
                    r.completed, r.accepted
                ));
            }
            if !(r.energy.value().is_finite() && r.energy.value() >= 0.0) {
                fail(format!("energy {}", r.energy.value()));
            }
            if r.solver_timeouts != 0 || r.degraded_activations != 0 {
                fail(format!(
                    "{} solver timeouts, {} degraded activations",
                    r.solver_timeouts, r.degraded_activations
                ));
            }
            if r.requests != self.world.traces[*s].len() {
                fail(format!(
                    "served {} of {} requests",
                    r.requests,
                    self.world.traces[*s].len()
                ));
            }
        }
        if requests != round.requests || round.reports.len() != round.digests.len() {
            problems.push(format!(
                "{name} {phase}: {} reports hold {requests} of {} requests",
                round.reports.len(),
                round.requests
            ));
        }
        self.progress
            .failed
            .set(self.progress.failed.get() + misses);
    }
}

/// Rounds of one closed-loop pass.
struct Closed {
    rounds: usize,
    requests: u64,
    wall: Duration,
    first: Round,
    counters: Counters,
}

/// Replays whole rounds until the budget is spent (at least one; a round
/// starts only if a round of average length still fits). Every round must
/// repeat the first one's decisions and counters exactly.
fn closed_loop(
    replay: &mut Replay<'_>,
    tracer: Option<&SharedTracer>,
    budget: f64,
    latencies: &mut Vec<u64>,
    problems: &mut Vec<String>,
) -> Closed {
    let sessions = replay.world.traces.len();
    let phase = if tracer.is_some() { "traced" } else { "closed" };
    let mut first: Option<(Round, Counters)> = None;
    let (mut rounds, mut requests, mut wall) = (0, 0, Duration::ZERO);
    loop {
        if let Some(t) = tracer {
            t.borrow_mut().counters = Counters::default();
        }
        let round = replay.round(sessions, tracer, None, latencies);
        replay.check(&round, phase, problems);
        let counters = tracer.map(|t| t.borrow().counters).unwrap_or_default();
        rounds += 1;
        requests += round.requests;
        wall += round.wall;
        match &first {
            None => first = Some((round, counters)),
            Some((f, c)) => {
                if round.digests != f.digests || counters != *c {
                    problems.push(format!(
                        "{} {phase} round {rounds}: decisions or counters differ from round 1",
                        replay.spec.name
                    ));
                }
            }
        }
        let spent = wall.as_secs_f64();
        let spans = tracer.map_or(0, |t| t.borrow().spans.len());
        if spent + spent / rounds as f64 > budget || spans >= SPAN_CAP {
            break;
        }
    }
    let (first, counters) = first.expect("at least one round");
    Closed {
        rounds,
        requests,
        wall,
        first,
        counters,
    }
}

fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn measure(spec: &Spec, options: &Options, progress: &Progress) -> Outcome {
    let size = if options.tiny { spec.tiny } else { spec.full };
    let mut out = Outcome::default();
    let mut m = BTreeMap::new();

    // Warm-up on the reference stream, whose decisions must equal the
    // recorded digest on every replay.
    let reference = World::generate(spec, spec.tiny, REFERENCE_SEED);
    let mut warm = Replay::new(spec, &reference, SimScratch::new(), progress);
    let began = Instant::now();
    loop {
        let round = warm.round(spec.tiny.sessions, None, None, &mut Vec::new());
        warm.check(&round, "reference", &mut out.problems);
        let digest = fold(&round.digests);
        if digest != spec.reference_digest {
            out.problems.push(format!(
                "{}: reference decision digest {digest:#018x} differs from the recorded {:#018x}",
                spec.name, spec.reference_digest
            ));
            break;
        }
        if options.tiny || began.elapsed() >= WARM_UP {
            break;
        }
    }

    // Set-up, repeated: workload generation, simulator, index, sessions.
    let (mut setup, mut generate, mut index) = (Vec::new(), Vec::new(), Vec::new());
    let mut kept = None;
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        let world = World::generate(spec, size, options.seed);
        let t1 = Instant::now();
        let simulator = Simulator::new(&world.platform, &world.catalog, spec.sim_config());
        let mut scratch = SimScratch::new();
        scratch.prime(&simulator);
        let t2 = Instant::now();
        let slots = open_slots(&world, &simulator, size.sessions, &no_wrap);
        let t3 = Instant::now();
        setup.push((t3 - t0).as_secs_f64());
        generate.push((t1 - t0).as_secs_f64() * 1e3);
        index.push((t2 - t1).as_secs_f64() * 1e3);
        kept = Some((world, scratch, slots));
    }
    let (world, scratch, slots) = kept.expect("at least one set-up");
    let mut replay = Replay::new(spec, &world, scratch, progress);
    replay.ready = Some(slots);
    let n = world.stream.len();

    // Closed loop, untraced.
    let (closed_share, traced_share, paced_share) = SHARES[usize::from(options.trace)];
    let mut latencies = Vec::new();
    let closed = closed_loop(
        &mut replay,
        None,
        options.seconds * closed_share,
        &mut latencies,
        &mut out.problems,
    );
    latencies.sort_unstable();
    let throughput = closed.requests as f64 / closed.wall.as_secs_f64();
    let served: usize = closed.first.reports.iter().map(|(_, r)| r.requests).sum();
    let accepted: usize = closed.first.reports.iter().map(|(_, r)| r.accepted).sum();
    let energy: f64 = closed
        .first
        .reports
        .iter()
        .map(|(_, r)| r.energy.value())
        .sum();
    let admitted_pct = 100.0 * ratio(accepted as f64, served as f64);
    out.notes.push(format!(
        "closed loop: {} rounds x {n} requests in {:.3} s; admit latency n={} p50={:.1} us p99={:.1} us",
        closed.rounds,
        closed.wall.as_secs_f64(),
        latencies.len(),
        percentile(&latencies, 50.0) / 1e3,
        percentile(&latencies, 99.0) / 1e3,
    ));

    // Traced closed loop: same decisions, per-layer attribution.
    let traced = options.trace.then(|| {
        let tracer = Tracer::shared();
        let traced = closed_loop(
            &mut replay,
            Some(&tracer),
            options.seconds * traced_share,
            &mut Vec::new(),
            &mut out.problems,
        );
        if traced.first.digests != closed.first.digests {
            out.problems.push(format!(
                "{}: traced decisions {:#018x} differ from untraced {:#018x}",
                spec.name,
                fold(&traced.first.digests),
                fold(&closed.first.digests)
            ));
        }
        (tracer, traced)
    });

    // Open loop at the workload's fixed rate, over whole sessions: as many
    // whole rounds as the budget holds, then the first sessions of one more.
    let quota = options.seconds * paced_share * spec.paced_rps / size.length as f64;
    let total = (quota.round() as usize).max(1);
    let mut pace = Pace {
        start: Instant::now() + PACE_LEAD,
        interval_ns: 1e9 / spec.paced_rps,
        issued: 0,
        waits: Vec::new(),
    };
    let mut paced = Vec::new();
    let rounds = std::iter::repeat_n(size.sessions, total / size.sessions);
    for sessions in rounds.chain(Some(total % size.sessions).filter(|&s| s > 0)) {
        let round = replay.round(sessions, None, Some(&mut pace), &mut paced);
        replay.check(&round, "paced", &mut out.problems);
        if round.digests[..] != closed.first.digests[..sessions] {
            out.problems.push(format!(
                "{}: paced decisions differ from the closed loop's",
                spec.name
            ));
        }
    }
    paced.sort_unstable();
    pace.waits.sort_unstable();
    out.notes.push(format!(
        "paced at {} req/s: n={} p50={:.1} us p99={:.1} us; generator late p99={:.1} us",
        spec.paced_rps,
        paced.len(),
        percentile(&paced, 50.0) / 1e3,
        percentile(&paced, 99.0) / 1e3,
        percentile(&pace.waits, 99.0) / 1e3,
    ));

    out.attempted = progress.attempted.get();
    out.failed = progress.failed.get();
    let failed_pct = 100.0 * ratio(out.failed as f64, out.attempted as f64);

    let Some((tracer, traced)) = traced else {
        m.insert("setup_s", median(&mut setup));
        m.insert("peak_rss_mib", peak_rss_mib().unwrap_or(0.0));
        m.insert("throughput_rps", throughput);
        m.insert("admit_p50_us", percentile(&latencies, 50.0) / 1e3);
        m.insert("admit_p99_us", percentile(&latencies, 99.0) / 1e3);
        m.insert("paced_p50_us", percentile(&paced, 50.0) / 1e3);
        m.insert("admitted_pct", admitted_pct);
        m.insert("energy_per_request", ratio(energy, served as f64));
        out.metrics = m;
        return out;
    };

    let tracer = tracer.borrow();
    let c = &traced.counters;
    let decides = c.decides as f64;
    if c.regressions != 0 {
        out.problems.push(format!(
            "{}: {} pool counters went backwards",
            spec.name, c.regressions
        ));
    }
    let layers = attribute(&tracer.spans, &mut out.problems);
    let admits = layers.admits.len() as f64;
    let mut decide: Vec<u64> = tracer
        .spans
        .iter()
        .filter(|s| s.layer == Layer::Decide)
        .map(Span::ns)
        .collect();
    decide.sort_unstable();
    let traced_throughput = traced.requests as f64 / traced.wall.as_secs_f64();
    let per_admit_us = |ns: u64| ratio(ns as f64, admits) / 1e3;

    m.insert("sim.self_us_per_admit", per_admit_us(layers.sim));
    m.insert(
        "sim.drain_ms",
        ratio(layers.drain.0 as f64, layers.drain.1 as f64) / 1e6,
    );
    m.insert(
        "predict.self_us_per_admit",
        per_admit_us(layers.observe.0 + layers.forecast.0),
    );
    m.insert(
        "predict.observe_ns",
        ratio(layers.observe.0 as f64, layers.observe.1 as f64),
    );
    m.insert(
        "predict.forecast_ns",
        ratio(layers.forecast.0 as f64, layers.forecast.1 as f64),
    );
    m.insert("predict.calls", c.forecasts as f64);
    m.insert("predict.offered", c.offered as f64);
    m.insert("predict.kept", c.phantoms as f64);
    m.insert(
        "predict.kept_ratio",
        ratio(c.phantoms as f64, c.offered as f64),
    );
    m.insert(
        "predict.type_hit_pct",
        100.0 * ratio(c.hits as f64, c.hit_checks as f64),
    );
    m.insert("core.self_us_per_admit", per_admit_us(layers.decide));
    m.insert("core.decide_p50_us", percentile(&decide, 50.0) / 1e3);
    m.insert("core.decide_p99_us", percentile(&decide, 99.0) / 1e3);
    m.insert(
        "core.decide_share_pct",
        100.0 * ratio(layers.decide as f64, layers.admit as f64),
    );
    m.insert("core.depth_mean", ratio(c.depth_sum as f64, decides));
    m.insert("core.depth_max", c.depth_max as f64);
    m.insert("core.phantoms_mean", ratio(c.phantoms as f64, decides));
    m.insert("core.nodes_per_decide", ratio(c.nodes as f64, decides));
    m.insert(
        "core.used_prediction_pct",
        100.0 * ratio(c.used_prediction as f64, decides),
    );
    m.insert("core.solver_timeouts", c.solver_timeouts as f64);
    m.insert("core.degraded", c.degraded as f64);
    m.insert("core.rejection_pct", 100.0 - admitted_pct);
    m.insert("prune.rebuilds", c.rebuilds as f64);
    m.insert("prune.indexed_rows", c.indexed_rows as f64);
    m.insert("prune.owned_rows", c.owned_rows as f64);
    m.insert("prune.widened", c.widened as f64);
    m.insert("prune.widened_per_decide", ratio(c.widened as f64, decides));
    m.insert(
        "sched.engine_verdicts_per_decide",
        ratio(c.engine_verdicts as f64, decides),
    );
    m.insert("platform.index_build_ms", median(&mut index));
    m.insert("trace.generate_ms", median(&mut generate));
    m.insert("paced.p99_us", percentile(&paced, 99.0) / 1e3);
    m.insert("paced.wait_p99_us", percentile(&pace.waits, 99.0) / 1e3);
    m.insert("bench.admit_us_per_admit", per_admit_us(layers.admit));
    m.insert("bench.admit_samples", latencies.len() as f64);
    m.insert("bench.paced_samples", paced.len() as f64);
    m.insert("bench.failed_pct", failed_pct);
    m.insert(
        "bench.tracing_overhead_pct",
        100.0 * (1.0 - traced_throughput / throughput),
    );

    out.notes.push(format!(
        "traced: {} rounds, {} admits; self time per admit: sim {:.2} + predict {:.2} + core {:.2} = admit {:.2} us",
        traced.rounds,
        layers.admits.len(),
        per_admit_us(layers.sim),
        per_admit_us(layers.observe.0 + layers.forecast.0),
        per_admit_us(layers.decide),
        per_admit_us(layers.admit),
    ));
    let mut slowest = layers.admits;
    slowest.sort_unstable_by_key(|a| std::cmp::Reverse(a.total));
    for a in slowest.iter().take(OUTLIERS) {
        let s = &tracer.spans[a.span as usize];
        out.notes.push(format!(
            "outlier admit session {} request {}: {:.1} us = sim {:.1} + predict {:.1} + core {:.1}",
            s.trace,
            s.request,
            a.total as f64 / 1e3,
            (a.total - a.predict - a.decide) as f64 / 1e3,
            a.predict as f64 / 1e3,
            a.decide as f64 / 1e3,
        ));
    }
    if let Some(dir) = &options.spans_dir {
        let file = dir.join(format!("spans-{}-seed{}.csv", spec.name, options.seed));
        match write_spans(&file, &tracer.spans) {
            Ok(()) => out.notes.push(format!("spans: {}", file.display())),
            Err(e) => out
                .problems
                .push(format!("writing {}: {e}", file.display())),
        }
    }
    out.metrics = m;
    out
}

/// One admit's span split into the layers under it.
struct AdmitSplit {
    span: u32,
    total: u64,
    predict: u64,
    decide: u64,
}

/// Per-layer totals of a traced run, in nanoseconds.
struct Layers {
    admits: Vec<AdmitSplit>,
    admit: u64,
    sim: u64,
    decide: u64,
    observe: (u64, u64),
    forecast: (u64, u64),
    drain: (u64, u64),
}

/// Splits every admit span into self times: `sim` is the admit's duration
/// minus its predict and decide children, so the three add up to the admit
/// total by construction. A child outside its parent is a tracing error.
fn attribute(spans: &[Span], problems: &mut Vec<String>) -> Layers {
    let mut l = Layers {
        admits: Vec::new(),
        admit: 0,
        sim: 0,
        decide: 0,
        observe: (0, 0),
        forecast: (0, 0),
        drain: (0, 0),
    };
    for (i, s) in spans.iter().enumerate() {
        match s.layer {
            Layer::Admit => {
                l.admit += s.ns();
                l.admits.push(AdmitSplit {
                    span: i as u32,
                    total: s.ns(),
                    predict: 0,
                    decide: 0,
                });
            }
            Layer::Drain => l.drain = (l.drain.0 + s.ns(), l.drain.1 + 1),
            child => {
                let parent = l.admits.last_mut().filter(|a| a.span == s.parent);
                let Some(a) = parent.filter(|_| s.parent != NO_PARENT) else {
                    problems.push(format!("span {i} ({}) outside an admit", child.name()));
                    continue;
                };
                match child {
                    Layer::Decide => {
                        a.decide += s.ns();
                        l.decide += s.ns();
                    }
                    Layer::Observe => {
                        a.predict += s.ns();
                        l.observe = (l.observe.0 + s.ns(), l.observe.1 + 1);
                    }
                    _ => {
                        a.predict += s.ns();
                        l.forecast = (l.forecast.0 + s.ns(), l.forecast.1 + 1);
                    }
                }
            }
        }
    }
    for a in &l.admits {
        match a.total.checked_sub(a.predict + a.decide) {
            Some(sim) => l.sim += sim,
            None => problems.push(format!("admit span {}: children exceed the admit", a.span)),
        }
    }
    l
}

fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write as _;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut text = String::with_capacity(spans.len() * 48);
    let _ = writeln!(text, "# {}", crate::report::environment());
    text.push_str("trace,request,layer,parent,start_ns,end_ns\n");
    for s in spans {
        let request = if s.request == NO_REQUEST {
            String::new()
        } else {
            s.request.to_string()
        };
        let parent = if s.parent == NO_PARENT {
            String::new()
        } else {
            s.parent.to_string()
        };
        let _ = writeln!(
            text,
            "{},{request},{},{parent},{},{}",
            s.trace,
            s.layer.name(),
            s.start,
            s.end
        );
    }
    let mut file = std::fs::File::create(path)?;
    file.write_all(text.as_bytes())?;
    file.flush()
}
