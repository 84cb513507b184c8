//! The `serve-repull` and `serve-arranged` workloads.
//!
//! Both serve one generated 128-query workload under a `shared-greedy`
//! joint plan, every query due every tick and everything admitted, with
//! no drift and no faults. `serve-repull` re-pulls every window from the
//! sensors; `serve-arranged` reads the joint plan's materialized windows
//! from rings maintained once per tick. Nearly all tick time is spent in
//! the `streamsim` evaluation path; `qlang`, `serverd`, `faults` and
//! budgeted admission are bypassed.
//!
//! The untraced run drives `ServeLoop::run_with_progress` in a closed
//! loop: one round of `ROUND_TICKS` ticks after another, each round on
//! the same inputs, until the measuring time is up. The per-layer run
//! replays the same seed through the public tick calls the way
//! `ServeLoop` makes them, with spans around each call, and must
//! reproduce the untraced run exactly.

use crate::alloc;
use crate::checks;
use crate::report::{median, percentile, ratio, Outcome};
use crate::trace::Tracer;
use paotr_core::plan::Engine;
use paotr_core::stream::StreamCatalog;
use paotr_core::tree::DnfTree;
use paotr_exec::{
    AcceptAll, Admission, AdmissionCtx, AdmissionPolicy, ArrangeConfig, ArrivalProcess,
    ArrivalSpec, FaultPlan, FaultSpec, FaultySource, ServeConfig, ServeLoop, ServeReport,
    VerdictRecord,
};
use paotr_gen::{workload_instance, WorkloadConfig};
use paotr_multi::{planner_by_name, synthesize, JointPlan, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};
use stream_sim::{
    gaussian_streams, ArrangementStore, EnergyMeter, EnergyModel, MemoryPolicy, Scheduler,
    SimQuery, SimStream,
};

/// Concurrent queries in the served workload.
const QUERIES: usize = 128;
/// Target mean pairwise stream overlap of the generated workload.
const OVERLAP: f64 = 0.6;
/// Generated workload instances per seed. Their stream costs differ, so
/// energy per evaluation varies from one instance to the next; serving
/// several per run keeps the figures steady across seeds.
const INSTANCES: usize = 16;
/// Ticks per `ServeLoop` run; the timed loop repeats runs, cycling
/// through the instances. A run yields `ROUND_TICKS - 1` tick intervals,
/// enough for at least ten to lie beyond its p99.
const ROUND_TICKS: usize = 1200;
/// Cold set-ups per instance; `setup_s` is the median of all of them.
const SETUP_REPS: usize = 2;
const PLANNER: &str = "shared-greedy";

/// Per-layer metrics only the `serve-*` workloads measure;
/// `daemon-churn` prints them as 0.
pub const ONLY_METRICS: [(&str, &str); 12] = [
    ("streamsim.run_query_ns_per_eval", "ns"),
    ("streamsim.begin_tick_us_per_tick", "us"),
    ("streamsim.allocs_per_eval", "allocs/eval"),
    ("streamsim.leaves_per_eval", "leaves/eval"),
    ("streamsim.pulled_items_per_eval", "items/eval"),
    ("arrange.maintain_us_per_tick", "us"),
    ("arrange.allocs_per_tick", "allocs/tick"),
    ("arrange.hit_ratio", "ratio"),
    ("exec.loop_us_per_tick", "us"),
    ("exec.allocs_per_tick", "allocs/tick"),
    ("exec.admit_us_per_tick", "us"),
    ("multi.predicted_over_realized", "ratio"),
];

/// Generated workload instance `index`.
pub fn inputs(index: usize) -> (Vec<DnfTree>, StreamCatalog) {
    workload_instance(WorkloadConfig::with_overlap(QUERIES, OVERLAP), index)
}

/// The serve configuration of one workload.
pub fn config(seed: u64, arranged: bool, ticks: usize) -> ServeConfig {
    ServeConfig {
        ticks,
        seed,
        arrivals: ArrivalSpec::Periodic { every: 1 },
        ticks_between: 1,
        drift: None,
        arrange: arranged.then(ArrangeConfig::default),
        faults: None,
        record_verdicts: false,
    }
}

/// A workload ready to serve.
pub struct Ready {
    pub workload: Workload,
    pub joint: JointPlan,
    pub serve: ServeLoop,
    pub engine: Engine,
    /// Wall time of `WorkloadPlanner::plan`.
    pub plan_time: Duration,
}

/// Workload, joint plan and serving loop from generated inputs; returns
/// the set-up time alongside.
pub fn set_up(
    trees: &[DnfTree],
    catalog: &StreamCatalog,
    config: ServeConfig,
) -> Result<(Ready, Duration), String> {
    let (trees, catalog) = (trees.to_vec(), catalog.clone());
    let planner = planner_by_name(PLANNER).ok_or("shared-greedy is a built-in planner")?;
    let start = Instant::now();
    let workload = Workload::from_trees(trees, catalog).map_err(|e| e.to_string())?;
    let engine = Engine::new();
    let plan_start = Instant::now();
    let joint = planner
        .plan(&workload, &engine)
        .map_err(|e| e.to_string())?;
    let plan_time = plan_start.elapsed();
    let serve = ServeLoop::new(&workload, &joint, config);
    let setup = start.elapsed();
    Ok((
        Ready {
            workload,
            joint,
            serve,
            engine,
            plan_time,
        },
        setup,
    ))
}

/// One generated workload instance, ready to serve, with its reference
/// run.
pub struct Instance {
    pub ready: Ready,
    pub config: ServeConfig,
    /// The reference run's report without its verdict log; every timed
    /// round must repeat it exactly.
    pub reference: ServeReport,
    /// The reference run's verdict log.
    pub verdicts: Vec<VerdictRecord>,
}

impl Instance {
    /// Generates, sets up (`reps` times, keeping the last) and records
    /// instance `k` of `seed`; pushes every set-up time and joint
    /// planning time.
    fn new(
        seed: u64,
        k: usize,
        arranged: bool,
        reps: usize,
        setups: &mut Vec<f64>,
        plan_ms: &mut Vec<f64>,
    ) -> Result<Instance, String> {
        let index = (seed as usize).wrapping_mul(INSTANCES).wrapping_add(k);
        let (trees, catalog) = inputs(index);
        let config = config(index as u64, arranged, ROUND_TICKS);
        let mut ready = None;
        for _ in 0..reps {
            let (r, dt) = set_up(&trees, &catalog, config)?;
            setups.push(dt.as_secs_f64());
            plan_ms.push(r.plan_time.as_secs_f64() * 1e3);
            ready = Some(r);
        }
        let ready = ready.ok_or("at least one set-up")?;
        let recording = ServeLoop::new(
            &ready.workload,
            &ready.joint,
            ServeConfig {
                record_verdicts: true,
                ..config
            },
        );
        let mut reference = recording
            .run(&mut AcceptAll, &ready.engine)
            .map_err(|e| e.to_string())?;
        let verdicts = std::mem::take(&mut reference.verdicts);
        Ok(Instance {
            ready,
            config,
            reference,
            verdicts,
        })
    }

    fn replay(&self, ins: &mut Instr) -> Replay {
        replay(&self.ready.workload, &self.ready.joint, &self.config, ins)
    }
}

/// What the timed `ServeLoop` rounds measured.
#[derive(Debug, Default)]
pub struct Timed {
    pub rounds: u64,
    pub ticks: u64,
    pub served: u64,
    pub due: u64,
    pub shed: u64,
    pub unknown: u64,
    pub wall: Duration,
    /// Interval between consecutive `on_tick` callbacks, in µs.
    pub tick_us: Vec<f64>,
    /// Each round's p99 tick interval, and its evaluations per second.
    pub round_p99_us: Vec<f64>,
    pub round_evals_per_s: Vec<f64>,
    /// Allocations between the first and last callback of each round,
    /// and the ticks they span (only while counting is on).
    pub callback_allocs: u64,
    pub callback_ticks: u64,
    /// Rounds whose report differed from the reference report.
    pub mismatches: Vec<String>,
}

impl Timed {
    pub fn evals_per_s(&self) -> f64 {
        ratio(self.served as f64, self.wall.as_secs_f64())
    }
}

/// Runs `ServeLoop` rounds in a closed loop, cycling through the
/// instances, for at least `budget` and at least one round per instance.
/// Every round's report must equal its instance's reference.
pub fn timed_rounds(
    instances: &[Instance],
    policy: &mut dyn AdmissionPolicy,
    budget: Duration,
) -> Timed {
    let mut out = Timed::default();
    let deadline = Instant::now() + budget;
    for inst in instances.iter().cycle() {
        let mut last: Option<Instant> = None;
        let mut first_allocs = None;
        let mut last_allocs = 0u64;
        let (mut due, mut shed) = (0u64, 0u64);
        let first_sample = out.tick_us.len();
        let start = Instant::now();
        let report = inst
            .ready
            .serve
            .run_with_progress(policy, &inst.ready.engine, |s| {
                let now = Instant::now();
                if let Some(prev) = last {
                    out.tick_us
                        .push(now.duration_since(prev).as_secs_f64() * 1e6);
                }
                last = Some(now);
                let a = alloc::allocs();
                first_allocs.get_or_insert(a);
                last_allocs = a;
                due += s.due as u64;
                shed += s.shed as u64;
            });
        let wall = start.elapsed();
        out.wall += wall;
        out.rounds += 1;
        out.round_p99_us
            .push(percentile(&out.tick_us[first_sample..], 99.0));
        match report {
            Ok(r) => {
                out.round_evals_per_s
                    .push(ratio(r.served as f64, wall.as_secs_f64()));
                out.ticks += r.ticks as u64;
                out.served += r.served;
                out.unknown += r.unknown_verdicts;
                if let Err(e) = checks::rounds_repeat(&inst.reference, &r) {
                    out.mismatches.push(e);
                }
            }
            Err(e) => out.mismatches.push(format!("serve round failed: {e}")),
        }
        out.due += due;
        out.shed += shed;
        out.callback_allocs += last_allocs - first_allocs.unwrap_or(last_allocs);
        out.callback_ticks += (ROUND_TICKS as u64).saturating_sub(1);
        if Instant::now() >= deadline && out.rounds >= INSTANCES as u64 {
            break;
        }
    }
    out
}

/// An admission policy wrapper that times every `admit` call.
pub struct TimedAdmission<P> {
    pub inner: P,
    pub calls: u64,
    pub total: Duration,
}

impl<P: AdmissionPolicy> AdmissionPolicy for TimedAdmission<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn admit(&mut self, tick: u64, due: &[usize], ctx: &AdmissionCtx<'_>) -> Admission {
        let start = Instant::now();
        let out = self.inner.admit(tick, due, ctx);
        self.total += start.elapsed();
        self.calls += 1;
        out
    }
}

/// The layers whose calls the replay measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Admit,
    Maintain,
    Begin,
    RunQuery,
}

impl Layer {
    const ALL: [Layer; 4] = [Layer::Admit, Layer::Maintain, Layer::Begin, Layer::RunQuery];

    fn span(self) -> &'static str {
        match self {
            Layer::Admit => "exec.admit",
            Layer::Maintain => "streamsim.maintain_tick",
            Layer::Begin => "streamsim.begin_tick",
            Layer::RunQuery => "streamsim.run_query",
        }
    }
}

/// How a replay is instrumented.
#[derive(Default)]
pub struct Instr {
    /// Spans around every layer call.
    pub tracer: Option<Tracer>,
    /// Count allocations inside each layer call (switches the counter
    /// on for the replay).
    pub count_allocs: bool,
    /// Allocations per layer, indexed like `Layer::ALL`.
    pub allocs: [u64; 4],
    /// Evaluate every served query's full DNF as a reference.
    pub reference: bool,
}

impl Instr {
    fn call<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        if let Some(t) = self.tracer.as_mut() {
            t.enter(layer.span());
        }
        let before = if self.count_allocs {
            alloc::allocs()
        } else {
            0
        };
        let out = f();
        if self.count_allocs {
            self.allocs[layer as usize] += alloc::allocs() - before;
        }
        if let Some(t) = self.tracer.as_mut() {
            t.exit();
        }
        out
    }

    pub fn layer_allocs(&self, layer: Layer) -> u64 {
        self.allocs[layer as usize]
    }
}

/// The outputs of one replay.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Replay {
    pub ticks: u64,
    pub served: u64,
    pub total_energy: f64,
    /// Leaves evaluated (`QueryOutcome::evaluated`), summed.
    pub leaves: u64,
    pub verdicts: Vec<VerdictRecord>,
    /// The reference value of each served verdict, in the same order
    /// (empty unless requested).
    pub reference: Vec<bool>,
    pub wall: Duration,
}

/// A query's value from its full DNF: every leaf's predicate on its
/// stream's current window, with no short-circuit and no device memory.
pub fn full_dnf(query: &SimQuery, streams: &[SimStream]) -> bool {
    let mut any = false;
    for term in query.terms() {
        let mut all = true;
        for leaf in term {
            let window = streams[leaf.stream.0]
                .recent(leaf.predicate.window as usize)
                .expect("streams are warmed to every window");
            all &= leaf.predicate.eval(&window);
        }
        any |= all;
    }
    any
}

/// Re-drives one `ServeLoop` run through the public tick calls:
/// `gaussian_streams`, `FaultySource::wrap`, `maintain_tick`,
/// `begin_tick`, `run_query` in the joint plan's order, `advance_by`.
/// Arrivals and admission are reproduced with the same public types.
/// Supports exactly the configurations the workloads use: no drift and
/// no faults.
pub fn replay(
    workload: &Workload,
    joint: &JointPlan,
    config: &ServeConfig,
    ins: &mut Instr,
) -> Replay {
    assert!(config.drift.is_none() && config.faults.is_none());
    let start = Instant::now();
    let (queries, _) = synthesize(workload);
    let n = queries.len();
    let n_streams = workload.catalog().len();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut horizons = vec![1u32; n_streams];
    for q in &queries {
        for (k, &w) in q.max_windows(n_streams).iter().enumerate() {
            horizons[k] = horizons[k].max(w);
        }
    }
    let mut streams = gaussian_streams(&horizons, &mut rng);
    let mut scheduler = match config.arrange {
        Some(cfg) if joint.shared_execution && !joint.materialized.is_empty() => {
            let mut store = ArrangementStore::new(cfg);
            for m in &joint.materialized {
                store.acquire(m.stream, m.window);
            }
            Scheduler::with_arrangements(n_streams, store)
        }
        _ => Scheduler::new(n_streams, MemoryPolicy::ClearEachQuery),
    };
    let mut meter = EnergyMeter::new(EnergyModel::from_catalog(workload.catalog()));
    let faults = FaultPlan::new(FaultSpec::none());
    scheduler.set_fault_policy(1, false);
    let mut arrivals: Vec<ArrivalProcess> = (0..n)
        .map(|q| ArrivalProcess::new(config.arrivals, config.seed, q))
        .collect();
    let windows = AdmissionCtx::query_windows(&queries, n_streams);
    let costs = AdmissionCtx::stream_costs(workload.catalog());
    let weights = workload.weights();
    let mut policy = AcceptAll;
    let mut pending: Vec<Option<u64>> = vec![None; n];
    let mut pending_since = vec![0u64; n];
    let mut out = Replay::default();
    if ins.count_allocs {
        alloc::set_counting(true);
    }
    for t in 0..config.ticks as u64 {
        if let Some(tr) = ins.tracer.as_mut() {
            tr.set_request(t);
            tr.enter("exec.tick");
        }
        for (q, arrival) in arrivals.iter_mut().enumerate() {
            if arrival.poll(t) > 0 && pending[q].is_none() {
                pending[q] = Some(t);
            }
        }
        let due: Vec<usize> = (0..n).filter(|&q| pending[q].is_some()).collect();
        for q in 0..n {
            pending_since[q] = pending[q].unwrap_or(t);
        }
        let ctx = AdmissionCtx {
            weights: &weights,
            windows: &windows,
            costs: &costs,
            pending_since: &pending_since,
            shared: joint.shared_execution,
            retry_factor: 1.0,
        };
        let admission = ins.call(Layer::Admit, || policy.admit(t, &due, &ctx));
        let sources = FaultySource::wrap(&streams, &faults);
        ins.call(Layer::Maintain, || {
            scheduler.maintain_tick(&sources, &mut meter)
        });
        let mut admitted = vec![false; n];
        for &q in &admission.admitted {
            admitted[q] = true;
        }
        let admitted_queries: Vec<&SimQuery> =
            admission.admitted.iter().map(|&q| &queries[q]).collect();
        if joint.shared_execution {
            ins.call(Layer::Begin, || {
                scheduler.begin_tick(&admitted_queries, &sources)
            });
        }
        for &q in joint.order.iter().filter(|&&q| admitted[q]) {
            if !joint.shared_execution {
                ins.call(Layer::Begin, || {
                    scheduler.begin_tick(std::slice::from_ref(&queries[q]), &sources)
                });
            }
            let o = ins.call(Layer::RunQuery, || {
                scheduler.run_query(&queries[q], &joint.schedules[q], &sources, &mut meter, None)
            });
            out.leaves += o.evaluated as u64;
            out.verdicts.push(VerdictRecord {
                tick: t,
                query: q,
                verdict: o.verdict,
                degraded: o.degraded,
            });
            if ins.reference {
                out.reference.push(full_dnf(&queries[q], &streams));
            }
            out.served += 1;
            pending[q] = None;
        }
        for &q in &admission.shed {
            pending[q] = None;
        }
        drop(sources);
        if let Some(tr) = ins.tracer.as_mut() {
            tr.exit();
        }
        for s in &mut streams {
            s.advance_by(config.ticks_between.max(1), &mut rng);
        }
    }
    if ins.count_allocs {
        alloc::set_counting(false);
    }
    out.ticks = config.ticks as u64;
    out.total_energy = meter.total_cost();
    out.wall = start.elapsed();
    out
}

/// Sums of the instances' reference reports.
#[derive(Debug, Default)]
struct Totals {
    ticks: u64,
    served: u64,
    energy: f64,
    pulled: u64,
    maintained: u64,
    ring_served: u64,
    retries: u64,
    retry_energy: f64,
    unknown: u64,
}

impl Totals {
    fn of(instances: &[Instance]) -> Totals {
        let mut t = Totals::default();
        for r in instances.iter().map(|i| &i.reference) {
            t.ticks += r.ticks as u64;
            t.served += r.served;
            t.energy += r.total_energy;
            t.pulled += r.pulled_items;
            t.maintained += r.maintained_items;
            t.ring_served += r.arrangement_hit_items;
            t.retries += r.retries;
            t.retry_energy += r.retry_energy;
            t.unknown += r.unknown_verdicts;
        }
        t
    }
}

/// Runs `serve-repull` (`arranged == false`) or `serve-arranged`.
pub fn run(arranged: bool, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let mut setups = Vec::new();
    let mut plan_ms = Vec::new();
    let mut instances = Vec::with_capacity(INSTANCES);
    for k in 0..INSTANCES {
        let mut inst = Instance::new(seed, k, arranged, SETUP_REPS, &mut setups, &mut plan_ms)?;
        o.check(checks::joint_plan_verifies(
            &inst.ready.joint,
            &inst.ready.workload,
        ));
        let mut checking = Instr {
            reference: true,
            ..Instr::default()
        };
        let replayed = inst.replay(&mut checking);
        o.check(checks::replay_matches(
            &inst.reference,
            &inst.verdicts,
            &replayed,
        ));
        o.check(checks::verdicts_match_reference(
            &replayed.verdicts,
            &replayed.reference,
        ));
        // Only traced replays compare verdict logs again; untraced runs
        // free them so peak memory reflects the served program.
        if !trace {
            inst.verdicts = Vec::new();
        }
        instances.push(inst);
    }
    let totals = Totals::of(&instances);

    let budget = Duration::from_secs_f64(if trace { seconds / 3.0 } else { seconds });
    let timed = timed_rounds(&instances, &mut AcceptAll, budget);
    o.failures.extend(timed.mismatches.iter().cloned());
    o.attempted = timed.due;
    o.failed = timed.shed + timed.unknown;
    o.note(format!(
        "serve: {} rounds of {ROUND_TICKS} ticks over {INSTANCES} instances, {} evaluations \
         in {:.3} s; one round per instance: served {} energy {} pulled {} maintained {} \
         ring-served {}",
        timed.rounds,
        timed.served,
        timed.wall.as_secs_f64(),
        totals.served,
        totals.energy,
        totals.pulled,
        totals.maintained,
        totals.ring_served
    ));

    if !trace {
        o.sampled("setup_s", median(&setups), "s", setups.len());
        // Medians over rounds, so a burst of load from outside the
        // benchmark that hits a few rounds does not move the figures.
        let rounds = timed.round_evals_per_s.len();
        o.sampled(
            "evals_per_s",
            median(&timed.round_evals_per_s),
            "eval/s",
            rounds,
        );
        let n = timed.tick_us.len();
        o.sampled("tick_p50_us", percentile(&timed.tick_us, 50.0), "us", n);
        o.sampled("tick_p99_us", median(&timed.round_p99_us), "us", rounds);
        o.metric(
            "energy_per_eval",
            ratio(totals.energy, totals.served as f64),
            "energy/eval",
        );
        o.metric(
            "ok_share",
            1.0 - ratio(o.failed as f64, o.attempted as f64),
            "ratio",
        );
        o.metric("peak_rss_mb", crate::report::peak_rss_mib()?, "MiB");
        return Ok(o);
    }

    // Counter on, admission timed: allocations per tick from callback
    // deltas, and what counting costs.
    let mut timed_admit = TimedAdmission {
        inner: AcceptAll,
        calls: 0,
        total: Duration::ZERO,
    };
    alloc::set_counting(true);
    let counted = timed_rounds(&instances, &mut timed_admit, budget);
    alloc::set_counting(false);
    o.failures.extend(counted.mismatches.iter().cloned());

    // Traced replays: spans around every layer call, cycling through the
    // instances for the phase budget; each must reproduce its reference.
    let mut traced = Instr {
        tracer: Some(Tracer::default()),
        ..Instr::default()
    };
    let deadline = Instant::now() + budget;
    let (mut t_ticks, mut t_served, mut t_wall) = (0u64, 0u64, Duration::ZERO);
    for inst in instances.iter().cycle() {
        let r = inst.replay(&mut traced);
        o.check(checks::replay_matches(&inst.reference, &inst.verdicts, &r));
        t_ticks += r.ticks;
        t_served += r.served;
        t_wall += r.wall;
        if Instant::now() >= deadline {
            break;
        }
    }
    // One replay per instance with allocations counted per layer.
    let mut counting = Instr {
        count_allocs: true,
        ..Instr::default()
    };
    let mut leaves = 0u64;
    for inst in &instances {
        let r = inst.replay(&mut counting);
        o.check(checks::replay_matches(&inst.reference, &inst.verdicts, &r));
        leaves += r.leaves;
    }

    let tracer = traced.tracer.take().expect("traced replay has a tracer");
    let name = if arranged {
        "serve-arranged"
    } else {
        "serve-repull"
    };
    let path = std::path::PathBuf::from(format!("perfbench/out/trace-{name}-seed{seed}.csv"));
    tracer
        .write_csv(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    o.note(format!("spans written to {}", path.display()));

    let per_tick = |ns: u64| ratio(ns as f64 / 1e3, t_ticks as f64);
    let run_query = tracer.agg(Layer::RunQuery.span());
    let begin = tracer.agg(Layer::Begin.span());
    let maintain = tracer.agg(Layer::Maintain.span());
    let admit = tracer.agg(Layer::Admit.span());
    let tick = tracer.agg("exec.tick");
    let ticks = totals.ticks as f64;
    let served = totals.served as f64;
    let layer_allocs: u64 = Layer::ALL.iter().map(|&l| counting.layer_allocs(l)).sum();
    let untraced_tick_us = ratio(timed.wall.as_secs_f64() * 1e6, timed.ticks as f64);
    let layers_tick_us =
        per_tick(run_query.total_ns + begin.total_ns + maintain.total_ns + admit.total_ns);

    o.metric(
        "streamsim.run_query_ns_per_eval",
        ratio(run_query.total_ns as f64, run_query.count as f64),
        "ns",
    );
    o.metric(
        "streamsim.begin_tick_us_per_tick",
        per_tick(begin.total_ns),
        "us",
    );
    o.metric(
        "streamsim.allocs_per_eval",
        ratio(counting.layer_allocs(Layer::RunQuery) as f64, served),
        "allocs/eval",
    );
    o.metric(
        "streamsim.leaves_per_eval",
        ratio(leaves as f64, served),
        "leaves/eval",
    );
    o.metric(
        "streamsim.pulled_items_per_eval",
        ratio(totals.pulled as f64, served),
        "items/eval",
    );
    o.metric(
        "arrange.maintain_us_per_tick",
        per_tick(maintain.total_ns),
        "us",
    );
    o.metric(
        "arrange.allocs_per_tick",
        ratio(counting.layer_allocs(Layer::Maintain) as f64, ticks),
        "allocs/tick",
    );
    o.metric(
        "arrange.hit_ratio",
        ratio(
            totals.ring_served as f64,
            (totals.ring_served + totals.pulled) as f64,
        ),
        "ratio",
    );
    o.metric(
        "arrange.maintained_items_per_tick",
        ratio(totals.maintained as f64, ticks),
        "items/tick",
    );
    o.metric(
        "exec.loop_us_per_tick",
        untraced_tick_us - layers_tick_us,
        "us",
    );
    o.metric(
        "exec.allocs_per_tick",
        ratio(
            counted.callback_allocs as f64,
            counted.callback_ticks as f64,
        ) - ratio(layer_allocs as f64, ticks),
        "allocs/tick",
    );
    o.metric(
        "exec.admit_us_per_tick",
        ratio(
            timed_admit.total.as_secs_f64() * 1e6,
            timed_admit.calls as f64,
        ),
        "us",
    );
    o.sampled("multi.joint_plan_ms", median(&plan_ms), "ms", plan_ms.len());
    let predicted: f64 = instances
        .iter()
        .map(|i| {
            i.ready
                .joint
                .aggregate_predicted(&i.ready.workload.weights())
        })
        .sum();
    o.metric(
        "multi.predicted_over_realized",
        ratio(predicted, totals.energy / ROUND_TICKS as f64),
        "ratio",
    );
    let (mut hits, mut misses, mut hit_ns, mut miss_ns) = (0u64, 0u64, 0u64, 0u64);
    for inst in &instances {
        let c = inst.ready.engine.cache_stats();
        hits += c.hits;
        misses += c.misses;
        hit_ns += c.hit_nanos;
        miss_ns += c.miss_nanos;
    }
    o.metric(
        "core.plan_cache_hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
        "ratio",
    );
    o.metric(
        "core.plan_miss_us",
        ratio(miss_ns as f64 / 1e3, misses as f64),
        "us",
    );
    o.metric(
        "core.plan_hit_us",
        ratio(hit_ns as f64 / 1e3, hits as f64),
        "us",
    );
    for (name, unit) in crate::daemon::ONLY_METRICS {
        o.metric(name, 0.0, unit);
    }
    o.metric(
        "faults.retries_per_eval",
        ratio(totals.retries as f64, served),
        "retries/eval",
    );
    o.metric(
        "faults.retry_energy_share",
        ratio(totals.retry_energy, totals.energy),
        "ratio",
    );
    o.metric(
        "faults.unknown_share",
        ratio(totals.unknown as f64, served),
        "ratio",
    );
    let traced_eps = ratio(t_served as f64, t_wall.as_secs_f64());
    o.metric(
        "trace.overhead_share",
        1.0 - ratio(traced_eps, timed.evals_per_s()),
        "ratio",
    );
    o.metric(
        "trace.alloc_counter_share",
        1.0 - ratio(counted.evals_per_s(), timed.evals_per_s()),
        "ratio",
    );
    o.note(format!(
        "exact counts, one round per instance: served {} pulled {} maintained {} \
         ring-served {} leaves {leaves} allocs in run_query {} maintain_tick {} \
         begin_tick {} admit {}; ServeLoop allocs {} over {} callback intervals",
        totals.served,
        totals.pulled,
        totals.maintained,
        totals.ring_served,
        counting.layer_allocs(Layer::RunQuery),
        counting.layer_allocs(Layer::Maintain),
        counting.layer_allocs(Layer::Begin),
        counting.layer_allocs(Layer::Admit),
        counted.callback_allocs,
        counted.callback_ticks,
    ));
    o.note(format!(
        "self time per tick (us): tick {:.3}, run_query {:.3}, begin_tick {:.3}, \
         maintain_tick {:.3}, admit {:.3}; evals/s untraced {:.0}, traced replay {:.0}, \
         counter on {:.0}",
        per_tick(tick.self_ns),
        per_tick(run_query.self_ns),
        per_tick(begin.self_ns),
        per_tick(maintain.self_ns),
        per_tick(admit.self_ns),
        timed.evals_per_s(),
        traced_eps,
        counted.evals_per_s()
    ));
    Ok(o)
}
