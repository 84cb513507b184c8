//! The serving loop: a long-running, tick-driven multiplexer of one
//! workload over arrival processes, with admission control and
//! drift-triggered re-planning.
//!
//! Each tick the loop (1) polls every query's [`ArrivalProcess`],
//! (2) hands the due set to the [`AdmissionPolicy`], (3) executes the
//! admitted queries with one [`Scheduler::run_tick`] call on the
//! unified runtime (`stream_sim::runtime` — the same scheduler the
//! simulator and the single-query engine run on, so served energies
//! are directly comparable to simulated and predicted ones), and (4)
//! feeds each evaluation's slice of the tick's trace into its
//! [`DriftState`]. When a query's observed rates diverge from its
//! calibrated probabilities beyond the [`DriftConfig`] tolerance, the
//! query is re-planned through the [`Engine`]'s cached planning path
//! against a re-calibrated skeleton.

use crate::admission::{AdmissionCtx, AdmissionPolicy};
use crate::arrivals::{ArrivalProcess, ArrivalSpec};
use paotr_core::error::Result;
use paotr_core::plan::Engine;
use paotr_core::schedule::DnfSchedule;
use paotr_core::stream::StreamCatalog;
use paotr_faults::{FaultPlan, FaultSpec, FaultySource};
use paotr_multi::{extract_schedule, outage_catalog, synthesize, JointPlan, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use stream_sim::{
    gaussian_streams, ArrangeConfig, ArrangementStore, EnergyMeter, EnergyModel, LeafRecord,
    MemoryPolicy, Scheduler, SimQuery, TraceLog, Verdict,
};

/// Cost multiplier applied to dead streams during outage re-planning:
/// large enough that any alive alternative is preferred, small enough
/// to keep the cost model finite and well-ordered.
const OUTAGE_PENALTY: f64 = 1e3;

/// Drift detection knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftConfig {
    /// Absolute divergence between a leaf's observed success rate and
    /// its calibrated probability that triggers a re-plan.
    pub tolerance: f64,
    /// Observations a leaf needs before its rate is trusted.
    pub min_samples: u64,
}

impl Default for DriftConfig {
    fn default() -> DriftConfig {
        DriftConfig {
            tolerance: 0.15,
            min_samples: 30,
        }
    }
}

/// Serving-loop configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Ticks to serve.
    pub ticks: usize,
    /// Seed for sensor data and arrival processes.
    pub seed: u64,
    /// Arrival process applied to every query.
    pub arrivals: ArrivalSpec,
    /// Sensor ticks between consecutive serve ticks.
    pub ticks_between: usize,
    /// Drift-triggered re-planning; `None` disables it.
    pub drift: Option<DriftConfig>,
    /// Maintain the joint plan's materialization set as persistent
    /// arrangements (`None` re-pulls every tick, the pre-arrangement
    /// behaviour). Only effective under shared execution.
    pub arrange: Option<ArrangeConfig>,
    /// Replay the run under this seeded fault plan (`None` = fault
    /// free). Faults enable bounded retries, three-valued verdicts and
    /// outage-triggered re-planning.
    pub faults: Option<FaultSpec>,
    /// Record every evaluation's `(tick, query, verdict)` in the report
    /// — the hook chaos tests use to compare runs bit-for-bit. Off by
    /// default to keep long runs light.
    pub record_verdicts: bool,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            ticks: 400,
            seed: 0,
            arrivals: ArrivalSpec::Periodic { every: 1 },
            ticks_between: 1,
            drift: None,
            arrange: None,
            faults: None,
            record_verdicts: false,
        }
    }
}

/// One tick's headline numbers, for live progress callbacks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TickStats {
    /// The tick index.
    pub tick: u64,
    /// Queries due this tick.
    pub due: usize,
    /// Queries admitted and evaluated.
    pub admitted: usize,
    /// Queries shed.
    pub shed: usize,
    /// Queries deferred.
    pub deferred: usize,
    /// Energy spent this tick.
    pub energy: f64,
}

/// The aggregate outcome of one serve run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Joint planner that produced the served plan.
    pub planner: String,
    /// Admission policy name.
    pub admission: String,
    /// Ticks served.
    pub ticks: usize,
    /// Total arrival events.
    pub arrivals: u64,
    /// Evaluations actually served.
    pub served: u64,
    /// Requests dropped by admission.
    pub shed: u64,
    /// Defer events (a request can be deferred on several ticks).
    pub deferred: u64,
    /// Drift-triggered re-plans.
    pub replans: u64,
    /// Total energy spent.
    pub total_energy: f64,
    /// Largest energy spent in any single tick.
    pub max_tick_energy: f64,
    /// Evaluations served per query (workload order).
    pub per_query_served: Vec<u64>,
    /// Fraction of served evaluations that came out TRUE.
    pub truth_rate: f64,
    /// Stream items paid for by query pulls.
    pub pulled_items: u64,
    /// Stream items paid for by arrangement maintenance (0 with
    /// arrangements off).
    pub maintained_items: u64,
    /// Energy spent on query pulls.
    pub pull_energy: f64,
    /// Energy spent on arrangement maintenance.
    pub maintain_energy: f64,
    /// Arrangements live at the end of the run.
    pub arrangements: usize,
    /// Items served from maintained rings instead of priced pulls.
    pub arrangement_hit_items: u64,
    /// Transient read failures retried (each priced as a pull).
    pub retries: u64,
    /// Energy burnt by failed contacts (included in `total_energy`).
    pub retry_energy: f64,
    /// Leaves given up on (outage, or retries exhausted).
    pub failed_reads: u64,
    /// Evaluations whose verdict was determined by live streams alone.
    pub determined: u64,
    /// Evaluations that ended `unknown`.
    pub unknown_verdicts: u64,
    /// Evaluations resolved only through stale arrangement data.
    pub degraded_verdicts: u64,
    /// Leaves answered from stale rings across the run.
    pub stale_leaves: u64,
    /// Worst staleness (ticks) of any stale window served.
    pub max_staleness: u64,
    /// Re-plans triggered by outage transitions (separate from drift
    /// `replans`).
    pub outage_replans: u64,
    /// Per-evaluation verdict log (empty unless
    /// [`ServeConfig::record_verdicts`] is set).
    pub verdicts: Vec<VerdictRecord>,
}

/// One served evaluation's verdict, for bit-for-bit run comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerdictRecord {
    /// Serve tick.
    pub tick: u64,
    /// Workload query index.
    pub query: usize,
    /// Three-valued verdict.
    pub verdict: Verdict,
    /// Resolved only via stale arrangement data.
    pub degraded: bool,
}

impl ServeReport {
    /// Served evaluations per tick.
    pub fn throughput(&self) -> f64 {
        self.served as f64 / self.ticks.max(1) as f64
    }

    /// Mean energy per tick.
    pub fn mean_tick_energy(&self) -> f64 {
        self.total_energy / self.ticks.max(1) as f64
    }

    /// Energy per served evaluation (`None` when nothing was served).
    pub fn energy_per_served(&self) -> Option<f64> {
        (self.served > 0).then(|| self.total_energy / self.served as f64)
    }

    /// Total stream items physically fetched from sensors: query pulls
    /// plus arrangement maintenance — the acceptance metric arranged
    /// serving is judged on.
    pub fn fetched_items(&self) -> u64 {
        self.pulled_items + self.maintained_items
    }

    /// A `paotr_stats` summary table over several runs — the report the
    /// CLI renders.
    pub fn summary_table(reports: &[ServeReport]) -> paotr_stats::Table {
        let mut t = paotr_stats::Table::new([
            "planner",
            "admission",
            "served/tick",
            "shed",
            "replans",
            "energy/tick",
            "max tick",
            "energy/eval",
        ]);
        for r in reports {
            t.push_row([
                r.planner.clone(),
                r.admission.clone(),
                format!("{:.2}", r.throughput()),
                format!("{}", r.shed),
                format!("{}", r.replans),
                format!("{:.2}", r.mean_tick_energy()),
                format!("{:.2}", r.max_tick_energy),
                r.energy_per_served()
                    .map(|e| format!("{e:.2}"))
                    .unwrap_or_else(|| "n/a".into()),
            ]);
        }
        t
    }
}

/// Per-query drift estimator state (flat term-major leaf order): the
/// calibrated probabilities the current plan assumed plus observed
/// success counters per leaf.
///
/// Public because long-lived serving layers (the `paotr_serverd`
/// daemon) persist this calibration state across restarts — it is
/// exactly the "estimated from historical traces" state the paper
/// assumes, and it outlives any single query's session.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftState {
    /// Per-leaf calibrated probability (what the current plan assumed).
    calibrated: Vec<f64>,
    /// Per-leaf observed successes.
    successes: Vec<u64>,
    /// Per-leaf observations.
    totals: Vec<u64>,
    /// Flat index offsets per term.
    offsets: Vec<usize>,
}

impl DriftState {
    /// Fresh estimators calibrated to `tree`'s leaf probabilities.
    pub fn new(tree: &paotr_core::tree::DnfTree) -> DriftState {
        let mut offsets = Vec::with_capacity(tree.num_terms());
        let mut acc = 0;
        for t in tree.terms() {
            offsets.push(acc);
            acc += t.len();
        }
        DriftState {
            calibrated: tree.leaves().map(|(_, l)| l.prob.value()).collect(),
            successes: vec![0; acc],
            totals: vec![0; acc],
            offsets,
        }
    }

    /// The drift step: counts one evaluation's live leaf records and,
    /// when any sufficiently-observed leaf's success rate has moved past
    /// the tolerance, returns the re-calibrated probabilities (observed
    /// rates where trusted, the old calibration elsewhere). The caller
    /// re-plans against them and adopts them with
    /// [`DriftState::reset_to`].
    pub fn absorb(&mut self, records: &[LeafRecord], cfg: &DriftConfig) -> Option<Vec<f64>> {
        for r in records {
            let i = self.offsets[r.leaf.term] + r.leaf.leaf;
            self.totals[i] += 1;
            self.successes[i] += u64::from(r.value);
        }
        let rates = self
            .calibrated
            .iter()
            .zip(&self.successes)
            .zip(&self.totals)
            .map(|((&p, &s), &n)| (p, (n >= cfg.min_samples).then(|| s as f64 / n as f64)));
        let drifted = rates
            .clone()
            .any(|(p, rate)| rate.is_some_and(|r| (r - p).abs() > cfg.tolerance));
        drifted.then(|| rates.map(|(p, rate)| rate.unwrap_or(p)).collect())
    }

    /// Adopts a new calibration and restarts the estimators.
    pub fn reset_to(&mut self, probs: Vec<f64>) {
        self.calibrated = probs;
        self.successes.iter_mut().for_each(|s| *s = 0);
        self.totals.iter_mut().for_each(|t| *t = 0);
    }

    /// The calibrated per-leaf probabilities (flat term-major order).
    pub fn calibrated(&self) -> &[f64] {
        &self.calibrated
    }

    /// Observed successes per leaf (flat term-major order).
    pub fn successes(&self) -> &[u64] {
        &self.successes
    }

    /// Observations per leaf (flat term-major order).
    pub fn totals(&self) -> &[u64] {
        &self.totals
    }

    /// Restores persisted estimator state (snapshot restore). Lengths
    /// must match the tree this state was built for.
    pub fn restore(
        &mut self,
        calibrated: Vec<f64>,
        successes: Vec<u64>,
        totals: Vec<u64>,
    ) -> std::result::Result<(), String> {
        let n = self.calibrated.len();
        if calibrated.len() != n || successes.len() != n || totals.len() != n {
            return Err(format!(
                "calibration state covers {} leaves, query has {n}",
                calibrated.len()
            ));
        }
        if successes.iter().zip(&totals).any(|(s, t)| s > t) {
            return Err("leaf successes exceed observations".into());
        }
        self.calibrated = calibrated;
        self.successes = successes;
        self.totals = totals;
        Ok(())
    }
}

/// A workload wired for serving: concrete queries, the joint plan's
/// schedules and order, and the serve configuration.
#[derive(Debug, Clone)]
pub struct ServeLoop {
    queries: Vec<SimQuery>,
    names: Vec<String>,
    schedules: Vec<Arc<DnfSchedule>>,
    order: Vec<usize>,
    shared: bool,
    weights: Vec<f64>,
    catalog: StreamCatalog,
    planner: String,
    config: ServeConfig,
    drift_seed: Vec<DriftState>,
    /// The joint plan's materialization set: `(stream, window)` pairs
    /// to maintain when serving with arrangements enabled.
    materialized: Vec<(paotr_core::stream::StreamId, u32)>,
}

impl ServeLoop {
    /// Wires `workload` for serving under `joint`: concrete predicates
    /// are synthesized from the abstract trees (the same lowering the
    /// validation simulator uses), so each leaf's marginal truth rate
    /// matches its calibrated probability.
    pub fn new(workload: &Workload, joint: &JointPlan, config: ServeConfig) -> ServeLoop {
        let (queries, _) = synthesize(workload);
        ServeLoop::with_queries(queries, workload, joint, config)
    }

    /// Wires custom concrete queries (shape-compatible with the
    /// workload's trees) — the hook drift tests use to serve data whose
    /// true rates disagree with the calibrated probabilities.
    ///
    /// # Panics
    /// Panics when a query's leaf count does not match its tree.
    pub fn with_queries(
        queries: Vec<SimQuery>,
        workload: &Workload,
        joint: &JointPlan,
        config: ServeConfig,
    ) -> ServeLoop {
        assert_eq!(queries.len(), workload.len(), "one sim query per tree");
        for (q, wq) in queries.iter().zip(workload.queries()) {
            assert_eq!(
                q.num_leaves(),
                wq.tree.num_leaves(),
                "query `{}` shape mismatch",
                wq.name
            );
        }
        let drift_seed = workload
            .queries()
            .iter()
            .map(|q| DriftState::new(&q.tree))
            .collect();
        ServeLoop {
            queries,
            names: workload.queries().iter().map(|q| q.name.clone()).collect(),
            schedules: joint.schedules.clone(),
            order: joint.order.clone(),
            shared: joint.shared_execution,
            weights: workload.weights(),
            catalog: workload.catalog().clone(),
            planner: joint.planner.clone(),
            config,
            drift_seed,
            materialized: joint
                .materialized
                .iter()
                .map(|m| (m.stream, m.window))
                .collect(),
        }
    }

    /// Serves the configured number of ticks under `policy`, using
    /// `engine` for drift re-planning.
    pub fn run(&self, policy: &mut dyn AdmissionPolicy, engine: &Engine) -> Result<ServeReport> {
        self.run_with_progress(policy, engine, |_| {})
    }

    /// [`ServeLoop::run`] with a per-tick callback (live dashboards).
    pub fn run_with_progress(
        &self,
        policy: &mut dyn AdmissionPolicy,
        engine: &Engine,
        mut on_tick: impl FnMut(&TickStats),
    ) -> Result<ServeReport> {
        let n = self.queries.len();
        let n_streams = self.catalog.len();
        let mut rng = StdRng::seed_from_u64(self.config.seed);

        // Streams, warmed to the widest window (same lowering as the
        // validation simulator).
        let mut horizons = vec![1u32; n_streams];
        for q in &self.queries {
            for (k, &w) in q.max_windows(n_streams).iter().enumerate() {
                horizons[k] = horizons[k].max(w);
            }
        }
        let mut streams = gaussian_streams(&horizons, &mut rng);

        // With arrangements on, the serving loop is the (sole) reader
        // of every materialized stream: acquire the joint plan's
        // materialization set once and maintain it for the whole run.
        let mut scheduler = match self.config.arrange {
            Some(cfg) if self.shared && !self.materialized.is_empty() => {
                let mut store = ArrangementStore::new(cfg);
                for &(k, window) in &self.materialized {
                    store.acquire(k, window);
                }
                Scheduler::with_arrangements(n_streams, store)
            }
            _ => Scheduler::new(n_streams, MemoryPolicy::ClearEachQuery),
        };
        let mut meter = EnergyMeter::new(EnergyModel::from_catalog(&self.catalog));

        // Fault injection: every run executes through FaultySource
        // decorators — under the empty plan they are pass-throughs, so
        // faulty and fault-free runs share one code path (which is what
        // makes determined verdicts bit-for-bit comparable).
        let fault_spec = self.config.faults.unwrap_or_else(FaultSpec::none);
        let fault_plan = FaultPlan::new(fault_spec);
        let faults_on = self.config.faults.is_some();
        scheduler.set_fault_policy(fault_spec.max_attempts.max(1), fault_spec.stale_serve);
        let retry_factor = f64::from(fault_spec.max_attempts.max(1));
        // Outage signature of the previous tick, and the catalog the
        // planners currently see (dead streams penalized during an
        // outage so re-plans pull them last).
        let mut last_out = vec![false; n_streams];
        let mut live_catalog = self.catalog.clone();

        let mut arrivals: Vec<ArrivalProcess> = (0..n)
            .map(|q| ArrivalProcess::new(self.config.arrivals, self.config.seed, q))
            .collect();
        let windows: Vec<Vec<u32>> = AdmissionCtx::query_windows(&self.queries, n_streams);
        let costs = AdmissionCtx::stream_costs(&self.catalog);

        let mut schedules = self.schedules.clone();
        let mut drift = self.drift_seed.clone();
        // `Some(t)` = a request has been pending since tick `t`; deferred
        // requests keep their original arrival tick so admission's
        // equal-weight tie-break serves the oldest request first.
        let mut pending: Vec<Option<u64>> = vec![None; n];
        let mut pending_since = vec![0u64; n];
        let mut trace = TraceLog::default();

        let mut total_arrivals = 0u64;
        let mut served = 0u64;
        let mut shed = 0u64;
        let mut deferred = 0u64;
        let mut replans = 0u64;
        let mut max_tick_energy = 0.0f64;
        let mut per_query_served = vec![0u64; n];
        let mut truths = 0u64;
        let mut retries = 0u64;
        let mut failed_reads = 0u64;
        let mut determined = 0u64;
        let mut unknown_verdicts = 0u64;
        let mut degraded_verdicts = 0u64;
        let mut stale_leaves = 0u64;
        let mut max_staleness = 0u64;
        let mut outage_replans = 0u64;
        let mut verdicts: Vec<VerdictRecord> = Vec::new();
        // Per-tick working sets, reused across ticks.
        let mut due: Vec<usize> = Vec::with_capacity(n);
        let mut is_admitted = vec![false; n];
        let mut run_order: Vec<usize> = Vec::with_capacity(n);
        let mut outcomes = Vec::with_capacity(n);
        // `run_tick`'s `(query, schedule)` pairs borrow `schedules`,
        // which re-plans replace, so between ticks their buffer is
        // parked empty under a borrow-free type of the same layout.
        let mut parked_pairs: Vec<(usize, usize)> = Vec::with_capacity(n);

        for t in 0..self.config.ticks as u64 {
            // Outage transitions re-plan the affected queries against a
            // penalized catalog, so schedules stop pulling dead streams
            // first; recoveries re-plan back (a cache hit in `engine`).
            if faults_on {
                let now = streams.first().map(|s| s.now()).unwrap_or(0);
                let out = fault_plan.outage_signature(n_streams, now);
                if out != last_out {
                    live_catalog = if out.iter().any(|&b| b) {
                        outage_catalog(&self.catalog, &out, OUTAGE_PENALTY)
                    } else {
                        self.catalog.clone()
                    };
                    for q in 0..n {
                        let touched =
                            (0..n_streams).any(|k| out[k] != last_out[k] && windows[q][k] > 0);
                        if !touched {
                            continue;
                        }
                        let probs = drift[q].calibrated().to_vec();
                        let tree = self.queries[q].skeleton(&probs);
                        let plan = engine.plan(&tree, &live_catalog)?;
                        schedules[q] = Arc::new(extract_schedule(&plan, &tree, &self.names[q])?);
                        outage_replans += 1;
                    }
                    last_out = out;
                }
            }

            for (q, arrival) in arrivals.iter_mut().enumerate() {
                let fired = arrival.poll(t);
                total_arrivals += fired;
                if fired > 0 && pending[q].is_none() {
                    pending[q] = Some(t);
                }
            }
            due.clear();
            due.extend((0..n).filter(|&q| pending[q].is_some()));
            for q in 0..n {
                pending_since[q] = pending[q].unwrap_or(t);
            }
            let ctx = AdmissionCtx {
                weights: &self.weights,
                windows: &windows,
                costs: &costs,
                pending_since: &pending_since,
                shared: self.shared,
                retry_factor,
            };
            let admission = policy.admit(t, &due, &ctx);

            // Execute the admitted set in the joint plan's order so the
            // planned cross-query sharing materializes.
            let energy_before = meter.total_cost();
            let sources = FaultySource::wrap(&streams, &fault_plan);
            is_admitted.fill(false);
            for &q in &admission.admitted {
                is_admitted[q] = true;
            }
            run_order.clear();
            run_order.extend(self.order.iter().copied().filter(|&q| is_admitted[q]));
            let mut pairs: Vec<(&SimQuery, &DnfSchedule)> =
                recycle(std::mem::take(&mut parked_pairs));
            pairs.extend(
                run_order
                    .iter()
                    .map(|&q| (&self.queries[q], &*schedules[q])),
            );
            scheduler.run_tick(
                &pairs,
                &sources,
                self.shared,
                &mut meter,
                self.config.drift.is_some().then_some(&mut trace),
                &mut outcomes,
            );
            parked_pairs = recycle(pairs);
            // Drift re-plans run after the tick's evaluations: each
            // query runs at most once per tick, so a new schedule is
            // first used on the next tick either way.
            let mut records = trace.records();
            for (&q, out) in run_order.iter().zip(&outcomes) {
                truths += u64::from(out.value);
                retries += u64::from(out.retries);
                failed_reads += u64::from(out.failed_reads);
                stale_leaves += u64::from(out.stale_leaves);
                max_staleness = max_staleness.max(out.staleness);
                match out.verdict {
                    Verdict::Unknown => unknown_verdicts += 1,
                    _ if out.degraded => degraded_verdicts += 1,
                    _ => determined += 1,
                }
                if self.config.record_verdicts {
                    verdicts.push(VerdictRecord {
                        tick: t,
                        query: q,
                        verdict: out.verdict,
                        degraded: out.degraded,
                    });
                }
                per_query_served[q] += 1;
                served += 1;
                pending[q] = None;

                if let Some(cfg) = &self.config.drift {
                    let (mine, rest) = records.split_at(out.live_leaves());
                    records = rest;
                    if let Some(probs) = drift[q].absorb(mine, cfg) {
                        let tree = self.queries[q].skeleton(&probs);
                        let plan = engine.plan(&tree, &live_catalog)?;
                        schedules[q] = Arc::new(extract_schedule(&plan, &tree, &self.names[q])?);
                        drift[q].reset_to(probs);
                        replans += 1;
                    }
                }
            }
            // Cleared every tick to keep the log bounded over
            // arbitrarily long serve runs.
            trace.clear();
            for &q in &admission.shed {
                pending[q] = None;
            }
            shed += admission.shed.len() as u64;
            deferred += admission.deferred.len() as u64;

            let tick_energy = meter.total_cost() - energy_before;
            max_tick_energy = max_tick_energy.max(tick_energy);
            on_tick(&TickStats {
                tick: t,
                due: due.len(),
                admitted: admission.admitted.len(),
                shed: admission.shed.len(),
                deferred: admission.deferred.len(),
                energy: tick_energy,
            });

            for s in &mut streams {
                s.advance_by(self.config.ticks_between.max(1), &mut rng);
            }
        }

        let stats = scheduler.arrangements().map(|s| s.stats());
        Ok(ServeReport {
            planner: self.planner.clone(),
            admission: policy.name().to_string(),
            ticks: self.config.ticks,
            arrivals: total_arrivals,
            served,
            shed,
            deferred,
            replans,
            total_energy: meter.total_cost(),
            max_tick_energy,
            per_query_served,
            truth_rate: if served > 0 {
                truths as f64 / served as f64
            } else {
                0.0
            },
            pulled_items: meter.items_pulled().iter().sum(),
            maintained_items: meter.items_maintained().iter().sum(),
            pull_energy: meter.pull_cost_total(),
            maintain_energy: meter.maintain_cost_total(),
            arrangements: stats.map_or(0, |s| s.arrangements),
            arrangement_hit_items: stats.map_or(0, |s| s.hit_items),
            retries,
            retry_energy: meter.retry_cost_total(),
            failed_reads,
            determined,
            unknown_verdicts,
            degraded_verdicts,
            stale_leaves,
            max_staleness,
            outage_replans,
            verdicts,
        })
    }
}

/// Empties `v` and returns its allocation as a `Vec<U>`. No element is
/// ever converted, so this is safe for any `U`; when `T` and `U` share a
/// size and alignment, std collects the adapter in place and the buffer
/// is reused instead of reallocated. This lets a per-tick buffer of
/// borrows outlive the borrows it held.
fn recycle<T, U>(mut v: Vec<T>) -> Vec<U> {
    v.clear();
    v.into_iter()
        .map(|_| unreachable!("the vector is empty"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recycle_hands_back_the_same_allocation_empty() {
        let (a, b) = (1u8, 2u16);
        let mut pairs: Vec<(&u8, &u16)> = Vec::with_capacity(8);
        pairs.push((&a, &b));
        let ptr = pairs.as_ptr() as usize;
        let parked: Vec<(usize, usize)> = recycle(pairs);
        assert!(parked.is_empty());
        assert_eq!((parked.as_ptr() as usize, parked.capacity()), (ptr, 8));
        let back: Vec<(&u8, &u16)> = recycle(parked);
        assert_eq!((back.as_ptr() as usize, back.capacity()), (ptr, 8));
    }
}
