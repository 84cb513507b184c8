//! The `daemon-churn` workload.
//!
//! An in-process `Daemon` is driven only through `handle_line`, one JSON
//! protocol line at a time, by a closed-loop client: the next request is
//! sent once the previous reply is back. The requests come from
//! generated churn scripts (registers, unregisters and tick bursts, each
//! burst sent as single-tick `tick` requests), with an inline `snapshot`
//! request every `SNAPSHOT_EVERY` script events. The daemon runs with a
//! deferring energy budget, drift re-planning, arrangements and seeded
//! faults, so this workload exercises `qlang`, the `core` plan cache,
//! `multi` joint re-planning, `faults`, admission and snapshots, which
//! the `serve-*` workloads bypass.

use crate::alloc;
use crate::checks;
use crate::report::{median, percentile, ratio, Outcome};
use paotr_core::plan::Engine;
use paotr_exec::{ArrangeConfig, DriftConfig, FaultSpec};
use paotr_gen::{
    churn_script, instance_seed, random_query_source, ChurnConfig, ChurnEvent, Experiment,
};
use paotr_serverd::json::{parse, Json};
use paotr_serverd::{Config, Daemon};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Churn scripts per seed, each served by a fresh daemon. Generated
/// query sets differ widely in cost, so a run serves several scripts to
/// keep its figures steady across seeds.
const SCRIPTS: usize = 32;
/// Events per churn script.
const EVENTS: usize = 400;
/// Ceiling on sessions a script keeps live at once.
const MAX_LIVE: usize = 48;
/// Stream-name pool of the generated queries.
const STREAMS: usize = 24;
/// Widest predicate window of the generated queries.
const MAX_WINDOW: u32 = 16;
/// Sessions registered during set-up (half the script's live cap). They
/// stay live for the whole script.
const SETUP_SESSIONS: usize = MAX_LIVE / 2;
/// Script events between inline snapshot requests.
const SNAPSHOT_EVERY: usize = 200;
/// Per-tick worst-case energy budget; binds on some ticks.
const BUDGET: f64 = 1000.0;
/// Cold set-ups per script besides those of the passes.
const SETUP_REPS: usize = 2;
/// Ticks both daemons serve after the snapshot round trip.
const ROUND_TRIP_TICKS: u64 = 20;

/// Per-layer metrics only this workload measures; the `serve-*`
/// workloads print them as 0.
pub const ONLY_METRICS: [(&str, &str); 11] = [
    ("multi.replan_tick_ms", "ms"),
    ("qlang.compile_us", "us"),
    ("serverd.register_p50_us", "us"),
    ("serverd.register_p99_us", "us"),
    ("serverd.tick_us", "us"),
    ("serverd.allocs_per_tick", "allocs/tick"),
    ("serverd.unregister_us", "us"),
    ("serverd.snapshot_ms", "ms"),
    ("serverd.deferred_share", "ratio"),
    ("serverd.drift_replans", "count"),
    ("serverd.churn_replans", "count"),
];

fn churn_config() -> ChurnConfig {
    ChurnConfig {
        events: EVENTS,
        max_live: MAX_LIVE,
        streams: STREAMS,
        max_window: MAX_WINDOW,
        ..ChurnConfig::default()
    }
}

/// The daemon configuration of script `index`; `faults == false` gives
/// the fault-free twin the verdict check compares against.
pub fn daemon_config(index: u64, faults: bool) -> Config {
    Config {
        seed: index,
        planner: "shared-greedy".into(),
        budget: Some(BUDGET),
        defer: true,
        drift: Some(DriftConfig::default()),
        replan_after: 8,
        max_sessions: SETUP_SESSIONS + MAX_LIVE,
        max_window: MAX_WINDOW,
        arrange: Some(ArrangeConfig::default()),
        faults: faults.then(|| FaultSpec {
            seed: index,
            transient_rate: 0.05,
            outage_streams: 0.2,
            max_attempts: 3,
            stale_serve: true,
            ..FaultSpec::default()
        }),
    }
}

/// One protocol request of a script.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    Register {
        line: String,
    },
    /// Unregister the `nth` oldest session the script registered.
    Unregister {
        nth: usize,
    },
    Tick,
    Snapshot,
}

/// One generated churn script: its index (which also seeds the daemon's
/// sensor data and fault plan), the set-up registrations and the steps.
pub struct Script {
    pub index: u64,
    pub setup: Vec<String>,
    pub steps: Vec<Step>,
}

fn register_line(source: &str, weight: f64) -> String {
    Json::obj([
        ("cmd", Json::Str("register".into())),
        ("query", Json::Str(source.into())),
        ("weight", Json::Num(weight)),
    ])
    .to_string_compact()
}

/// Generated churn script `index`.
pub fn script(index: u64) -> Script {
    let cfg = churn_config();
    let mut rng = StdRng::seed_from_u64(instance_seed(Experiment::Daemon, 1, index as usize));
    let setup = (0..SETUP_SESSIONS)
        .map(|_| {
            let source = random_query_source(&cfg, &mut rng);
            register_line(&source, rng.gen_range(0.5..4.0))
        })
        .collect();
    let mut steps = Vec::new();
    for (i, ev) in churn_script(&cfg, 0, index as usize)
        .into_iter()
        .enumerate()
    {
        if i > 0 && i % SNAPSHOT_EVERY == 0 {
            steps.push(Step::Snapshot);
        }
        match ev {
            ChurnEvent::Register { source, weight } => steps.push(Step::Register {
                line: register_line(&source, weight),
            }),
            ChurnEvent::Unregister { nth_live } => steps.push(Step::Unregister { nth: nth_live }),
            ChurnEvent::Tick { n } => steps.extend((0..n).map(|_| Step::Tick)),
        }
    }
    Script {
        index,
        setup,
        steps,
    }
}

/// The scripts of one seed.
pub fn scripts(seed: u64) -> Vec<Script> {
    (0..SCRIPTS as u64)
        .map(|k| script(seed.wrapping_mul(SCRIPTS as u64).wrapping_add(k)))
        .collect()
}

const TICK: &str = r#"{"cmd":"tick"}"#;
const SNAPSHOT: &str = r#"{"cmd":"snapshot"}"#;
const REPLAN: &str = r#"{"cmd":"replan"}"#;

pub fn reply_ok(reply: &str) -> bool {
    reply.starts_with(r#"{"ok":true"#)
}

/// The session id in a `register` reply.
pub fn reply_id(reply: &str) -> Option<u64> {
    parse(reply).ok()?.get("id")?.as_u64()
}

/// A fresh daemon with the script's set-up population registered and one
/// joint re-plan; returns the set-up time and the re-plan request's
/// latency.
pub fn set_up(script: &Script, faults: bool) -> Result<(Daemon, Duration, Duration), String> {
    let config = daemon_config(script.index, faults);
    let start = Instant::now();
    let mut d = Daemon::new(config).map_err(|e| e.to_string())?;
    for line in &script.setup {
        let (reply, _) = d.handle_line(line);
        if !reply_ok(&reply) {
            return Err(format!("set-up register failed: {reply}"));
        }
    }
    let replan_start = Instant::now();
    let (reply, _) = d.handle_line(REPLAN);
    let replan = replan_start.elapsed();
    if !reply_ok(&reply) {
        return Err(format!("set-up replan failed: {reply}"));
    }
    Ok((d, start.elapsed(), replan))
}

/// Request kinds with their own latency samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Register,
    Unregister,
    Tick,
    Snapshot,
}

/// Sends every step to `send(kind, line)`, which returns the reply;
/// unregisters address the ids that `register` replies returned.
pub fn drive(steps: &[Step], mut send: impl FnMut(Kind, &str) -> String) {
    let mut live: Vec<u64> = Vec::new();
    for step in steps {
        match step {
            Step::Register { line } => {
                if let Some(id) = reply_id(&send(Kind::Register, line)) {
                    live.push(id);
                }
            }
            Step::Unregister { nth } => {
                if *nth < live.len() {
                    let id = live.remove(*nth);
                    send(
                        Kind::Unregister,
                        &format!(r#"{{"cmd":"unregister","id":{id}}}"#),
                    );
                }
            }
            Step::Tick => {
                send(Kind::Tick, TICK);
            }
            Step::Snapshot => {
                send(Kind::Snapshot, SNAPSHOT);
            }
        }
    }
}

/// FNV-1a over every reply to a script, so passes can be compared
/// without keeping their replies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        self.0 = (self.0 ^ 0xff).wrapping_mul(0x0100_0000_01b3);
    }
}

/// Exact daemon counters of one pass, summed over its scripts.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Counters {
    pub requests: u64,
    pub not_ok: u64,
    pub evals: u64,
    pub ticks: u64,
    pub deferred: u64,
    pub shed: u64,
    pub unknown: u64,
    pub retries: u64,
    pub drift_replans: u64,
    pub churn_replans: u64,
    pub maintained_items: u64,
    pub energy: f64,
    pub retry_energy: f64,
}

impl Counters {
    fn add(&mut self, t: &paotr_serverd::Telemetry) {
        self.evals += t.evals;
        self.ticks += t.ticks;
        self.deferred += t.deferred;
        self.shed += t.shed;
        self.unknown += t.unknown_verdicts;
        self.retries += t.retries;
        self.drift_replans += t.drift_replans;
        self.churn_replans += t.churn_replans;
        self.energy += t.total_energy;
        self.retry_energy += t.retry_energy;
    }
}

/// What one timed pass over every script measured.
#[derive(Debug, Default)]
pub struct Pass {
    pub setup_s: Vec<f64>,
    pub replan_ms: Vec<f64>,
    /// Time spent on the scripts' steps, set-ups excluded.
    pub wall: Duration,
    pub register_us: Vec<f64>,
    pub unregister_us: Vec<f64>,
    pub tick_us: Vec<f64>,
    /// Latency of the tick requests that ran a churn re-plan.
    pub replan_tick_us: Vec<f64>,
    pub plain_tick_us: Vec<f64>,
    pub snapshot_us: Vec<f64>,
    pub tick_allocs: u64,
    pub digests: Vec<Digest>,
    pub counters: Counters,
    pub cache: paotr_core::plan::CacheStats,
    pub sources: Vec<String>,
}

/// One pass: for each script a fresh set-up, then every step in a
/// closed loop. With `count_allocs`, allocations are counted during
/// tick requests.
pub fn timed_pass(scripts: &[Script], count_allocs: bool) -> Result<Pass, String> {
    let mut p = Pass::default();
    for script in scripts {
        let (mut d, setup, replan) = set_up(script, true)?;
        p.setup_s.push(setup.as_secs_f64());
        p.replan_ms.push(replan.as_secs_f64() * 1e3);
        let mut digest = Digest::default();
        let start = Instant::now();
        drive(&script.steps, |kind, line| {
            let replans = d.telemetry().churn_replans;
            let allocs = alloc::allocs();
            if count_allocs && kind == Kind::Tick {
                alloc::set_counting(true);
            }
            let t0 = Instant::now();
            let (reply, _) = d.handle_line(line);
            let us = t0.elapsed().as_secs_f64() * 1e6;
            if count_allocs && kind == Kind::Tick {
                alloc::set_counting(false);
                p.tick_allocs += alloc::allocs() - allocs;
            }
            p.counters.requests += 1;
            p.counters.not_ok += u64::from(!reply_ok(&reply));
            digest.update(reply.as_bytes());
            match kind {
                Kind::Register => p.register_us.push(us),
                Kind::Unregister => p.unregister_us.push(us),
                Kind::Snapshot => p.snapshot_us.push(us),
                Kind::Tick => {
                    p.tick_us.push(us);
                    if d.telemetry().churn_replans > replans {
                        p.replan_tick_us.push(us);
                    } else {
                        p.plain_tick_us.push(us);
                    }
                }
            }
            reply
        });
        p.wall += start.elapsed();
        p.digests.push(digest);
        p.counters.add(d.telemetry());
        let cache = d.engine().cache_stats();
        p.cache.hits += cache.hits;
        p.cache.misses += cache.misses;
        p.cache.hit_nanos += cache.hit_nanos;
        p.cache.miss_nanos += cache.miss_nanos;
        let (stats, _) = d.handle_line(r#"{"cmd":"stats"}"#);
        p.counters.maintained_items += parse(&stats)
            .ok()
            .and_then(|v| v.get("arrange")?.get("maintained_items")?.as_u64())
            .ok_or_else(|| format!("stats reply without arrangement counters: {stats}"))?;
        p.sources
            .extend(d.registry().sessions().map(|s| s.source.clone()));
    }
    Ok(p)
}

/// The untimed checking pass over one script: the faulted daemon and a
/// fault-free twin take the same requests in lockstep. Returns the
/// faulted daemon's reply digest, to be compared with the timed passes',
/// and how many verdicts were compared with the twin.
pub fn checking_pass(script: &Script, o: &mut Outcome) -> Result<(Digest, usize), String> {
    let (mut a, _, _) = set_up(script, true)?;
    let (mut b, _, _) = set_up(script, false)?;
    let mut digest = Digest::default();
    let mut compared = 0usize;
    let mut failures: Vec<String> = Vec::new();
    drive(&script.steps, |kind, line| {
        let (reply, _) = a.handle_line(line);
        let (twin, _) = b.handle_line(line);
        digest.update(reply.as_bytes());
        if kind == Kind::Register && reply_id(&reply) != reply_id(&twin) {
            failures.push(format!("register ids diverge: {reply} vs {twin}"));
        }
        if kind == Kind::Tick {
            for r in [&reply, &twin] {
                if reply_ok(r) {
                    if let Err(e) = checks::tick_within_budget(r, BUDGET) {
                        failures.push(e);
                    }
                }
            }
            match checks::verdicts_agree(a.tick(), a.last_verdicts(), b.last_verdicts()) {
                Ok(n) => compared += n,
                Err(e) => failures.push(e),
            }
        }
        reply
    });
    if compared == 0 {
        failures.push(format!(
            "script {}: no determined verdict was compared with the fault-free twin",
            script.index
        ));
    }
    let (reply, _) = a.handle_line(REPLAN);
    if !reply_ok(&reply) {
        failures.push(format!("final replan failed: {reply}"));
    }
    let cold = a
        .registry()
        .cold_plan_digest(&Engine::new())
        .map_err(|e| e.to_string())?;
    o.check(checks::digests_equal(&a.registry().plan_digest(), &cold));
    let rendered = a.snapshot().render();
    o.check(checks::snapshot_round_trip(
        &mut a,
        &rendered,
        ROUND_TRIP_TICKS,
    ));
    o.failures.extend(failures.into_iter().take(20));
    Ok((digest, compared))
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let scripts = scripts(seed);
    let mut setups = Vec::new();
    let mut replans = Vec::new();
    for script in &scripts {
        for _ in 0..SETUP_REPS {
            let (_, setup, replan) = set_up(script, true)?;
            setups.push(setup.as_secs_f64());
            replans.push(replan.as_secs_f64() * 1e3);
        }
    }

    let budget = Duration::from_secs_f64(if trace { seconds / 2.0 } else { seconds });
    let passes = |count_allocs: bool| -> Result<Vec<Pass>, String> {
        let deadline = Instant::now() + budget;
        let mut out = Vec::new();
        loop {
            out.push(timed_pass(&scripts, count_allocs)?);
            if Instant::now() >= deadline {
                return Ok(out);
            }
        }
    };
    let plain = passes(false)?;
    let counted = if trace { passes(true)? } else { Vec::new() };

    let mut reference = Vec::new();
    let mut compared = 0;
    for script in &scripts {
        let (digest, n) = checking_pass(script, &mut o)?;
        reference.push(digest);
        compared += n;
    }
    for (i, p) in plain.iter().chain(&counted).enumerate() {
        if p.digests != reference {
            o.failures.push(format!(
                "pass {i} replied differently from the checking pass"
            ));
        }
        if p.counters != plain[0].counters {
            o.failures
                .push(format!("pass {i} counted differently from pass 0"));
        }
    }

    let c = &plain[0].counters;
    let passes_run = plain.len() as u64;
    o.attempted = (c.requests + c.evals + c.shed) * passes_run;
    o.failed = (c.not_ok + c.shed + c.unknown) * passes_run;
    let collect = |f: fn(&Pass) -> &Vec<f64>, ps: &[Pass]| -> Vec<f64> {
        ps.iter().flat_map(|p| f(p).iter().copied()).collect()
    };
    let evals_per_s = |ps: &[Pass]| {
        let wall: f64 = ps.iter().map(|p| p.wall.as_secs_f64()).sum();
        ratio((c.evals * ps.len() as u64) as f64, wall)
    };
    for p in &plain {
        setups.extend(&p.setup_s);
        replans.extend(&p.replan_ms);
    }
    o.note(format!(
        "daemon: {} passes over {SCRIPTS} scripts in {:.3} s; per pass: requests {} evals {} \
         ticks {} energy {} deferred {} shed {} unknown {} retries {} drift replans {} \
         churn replans {} not-ok replies {}; {compared} determined verdicts matched the \
         fault-free twin",
        plain.len(),
        plain.iter().map(|p| p.wall.as_secs_f64()).sum::<f64>(),
        c.requests,
        c.evals,
        c.ticks,
        c.energy,
        c.deferred,
        c.shed,
        c.unknown,
        c.retries,
        c.drift_replans,
        c.churn_replans,
        c.not_ok
    ));

    o.note(format!(
        "pass walls (s): {:?}",
        plain
            .iter()
            .map(|p| p.wall.as_secs_f64())
            .collect::<Vec<_>>()
    ));
    if !trace {
        let ticks = collect(|p| &p.tick_us, &plain);
        o.sampled("setup_s", median(&setups), "s", setups.len());
        o.metric("evals_per_s", evals_per_s(&plain), "eval/s");
        o.sampled("tick_p50_us", percentile(&ticks, 50.0), "us", ticks.len());
        o.sampled("tick_p99_us", percentile(&ticks, 99.0), "us", ticks.len());
        o.metric(
            "energy_per_eval",
            ratio(c.energy, c.evals as f64),
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

    for (name, unit) in crate::serve::ONLY_METRICS {
        o.metric(name, 0.0, unit);
    }
    o.sampled("multi.joint_plan_ms", median(&replans), "ms", replans.len());
    let replan_ticks = collect(|p| &p.replan_tick_us, &plain);
    o.sampled(
        "multi.replan_tick_ms",
        median(&replan_ticks) / 1e3,
        "ms",
        replan_ticks.len(),
    );
    let (hits, misses, hit_ns, miss_ns) = plain.iter().fold((0, 0, 0, 0), |acc, p| {
        (
            acc.0 + p.cache.hits,
            acc.1 + p.cache.misses,
            acc.2 + p.cache.hit_nanos,
            acc.3 + p.cache.miss_nanos,
        )
    });
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

    let mut compile_us = Vec::new();
    for source in &plain[0].sources {
        let start = Instant::now();
        paotr_qlang::compile_str(source).map_err(|e| e.to_string())?;
        compile_us.push(start.elapsed().as_secs_f64() * 1e6);
    }
    o.sampled(
        "qlang.compile_us",
        median(&compile_us),
        "us",
        compile_us.len(),
    );
    let registers = collect(|p| &p.register_us, &plain);
    o.sampled(
        "serverd.register_p50_us",
        percentile(&registers, 50.0),
        "us",
        registers.len(),
    );
    o.sampled(
        "serverd.register_p99_us",
        percentile(&registers, 99.0),
        "us",
        registers.len(),
    );
    let plain_ticks = collect(|p| &p.plain_tick_us, &plain);
    o.sampled(
        "serverd.tick_us",
        median(&plain_ticks),
        "us",
        plain_ticks.len(),
    );
    let counted_ticks: u64 = counted.iter().map(|p| p.tick_us.len() as u64).sum();
    let counted_allocs: u64 = counted.iter().map(|p| p.tick_allocs).sum();
    o.metric(
        "serverd.allocs_per_tick",
        ratio(counted_allocs as f64, counted_ticks as f64),
        "allocs/tick",
    );
    let unregisters = collect(|p| &p.unregister_us, &plain);
    o.sampled(
        "serverd.unregister_us",
        median(&unregisters),
        "us",
        unregisters.len(),
    );
    let snapshots = collect(|p| &p.snapshot_us, &plain);
    o.sampled(
        "serverd.snapshot_ms",
        median(&snapshots) / 1e3,
        "ms",
        snapshots.len(),
    );
    o.metric(
        "serverd.deferred_share",
        ratio(c.deferred as f64, (c.evals + c.deferred + c.shed) as f64),
        "ratio",
    );
    o.metric("serverd.drift_replans", c.drift_replans as f64, "count");
    o.metric("serverd.churn_replans", c.churn_replans as f64, "count");
    o.metric(
        "arrange.maintained_items_per_tick",
        ratio(c.maintained_items as f64, c.ticks as f64),
        "items/tick",
    );
    o.metric(
        "faults.retries_per_eval",
        ratio(c.retries as f64, c.evals as f64),
        "retries/eval",
    );
    o.metric(
        "faults.retry_energy_share",
        ratio(c.retry_energy, c.energy),
        "ratio",
    );
    o.metric(
        "faults.unknown_share",
        ratio(c.unknown as f64, c.evals as f64),
        "ratio",
    );
    // The traced passes differ from the plain ones only by the
    // allocation counter, so both shares measure the same thing here.
    let overhead = 1.0 - ratio(evals_per_s(&counted), evals_per_s(&plain));
    o.metric("trace.overhead_share", overhead, "ratio");
    o.metric("trace.alloc_counter_share", overhead, "ratio");
    let cache_repeats = plain
        .iter()
        .all(|p| (p.cache.hits, p.cache.misses) == (plain[0].cache.hits, plain[0].cache.misses));
    o.note(format!(
        "plan cache over {} passes: {hits} hits, {misses} misses, identical in every pass: \
         {cache_repeats}; {counted_allocs} allocations over {counted_ticks} counted tick requests",
        plain.len()
    ));
    Ok(o)
}
