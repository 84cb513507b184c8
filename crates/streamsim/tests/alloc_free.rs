//! The steady-state tick allocates nothing.
//!
//! A counting global allocator (counting only on the thread that asks,
//! so parallel tests do not interfere) wraps the tick calls of three
//! schedulers — `ClearEachQuery`, `Retain` and `Arranged` with
//! `maintain_tick` and the stale fallback — over sources that fail
//! transiently, exhaust their retries and go out. After a few warm-up
//! ticks have grown the scheduler's scratch, device memory and
//! arrangement rings to their working sizes, every further tick must
//! make zero heap allocations.

use paotr_core::schedule::DnfSchedule;
use paotr_core::stream::{StreamCatalog, StreamId};
use rand::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use stream_sim::{
    ArrangeConfig, ArrangementStore, Comparator, EnergyMeter, EnergyModel, MemoryPolicy, Predicate,
    ReadAttempt, Scheduler, SensorModel, SensorSource, SimLeaf, SimQuery, SimStream, StreamSource,
    WindowOp,
};

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator plus a per-thread allocation counter.
struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only extra work is
// touching two const-initialized, drop-free thread-locals, which
// neither allocates nor unwinds (`try_with` skips them during thread
// teardown).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `layout` obligations pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` was returned by this allocator, which is always
        // `System`, with `layout`; the caller guarantees the rest.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn count() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

/// Allocations `f` makes on this thread.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCS.with(Cell::get) - before
}

/// A sensor stream whose contacts fail on a fixed schedule: at stream
/// time `now` the first `now % 4` attempts fail transiently (so with
/// three attempts every fourth tick exhausts its retries), and when
/// `out_every > 0` the stream is out whenever `now % out_every == 0`.
struct Faulty {
    inner: SimStream,
    out_every: u64,
}

impl StreamSource for Faulty {
    fn now(&self) -> u64 {
        self.inner.now()
    }

    fn recent_into(&self, n: usize, buf: &mut Vec<f64>) -> bool {
        self.inner.recent_into(n, buf)
    }

    fn is_out(&self) -> bool {
        self.out_every > 0 && self.now().is_multiple_of(self.out_every)
    }

    fn try_recent_into(&self, n: usize, attempt: u32, buf: &mut Vec<f64>) -> ReadAttempt {
        buf.clear();
        if self.is_out() {
            return ReadAttempt::Outage;
        }
        if u64::from(attempt) < self.now() % 4 {
            return ReadAttempt::Transient;
        }
        if self.inner.recent_into(n, buf) {
            ReadAttempt::Data
        } else {
            ReadAttempt::Cold
        }
    }
}

fn leaf(stream: usize, op: WindowOp, window: u32, cmp: Comparator, thr: f64) -> SimLeaf {
    SimLeaf {
        stream: StreamId(stream),
        predicate: Predicate::new(op, window, cmp, thr),
    }
}

/// Four streams; stream 0 fails transiently, stream 1 also goes out
/// every fifth tick, streams 2 and 3 are healthy.
fn streams(rng: &mut StdRng) -> Vec<Faulty> {
    (0..4)
        .map(|k| {
            let mut inner = SimStream::new(
                SensorSource::new(SensorModel::Gaussian {
                    mean: 0.0,
                    std_dev: 1.0,
                }),
                32,
            );
            inner.advance_by(24, rng);
            Faulty {
                inner,
                out_every: if k == 1 { 5 } else { 0 },
            }
        })
        .collect()
}

/// Overlapping multi-term queries over the four streams.
fn workload() -> (Vec<SimQuery>, Vec<DnfSchedule>) {
    use Comparator::{Gt, Lt};
    use WindowOp::{Avg, Max, Min, Sum};
    let queries = vec![
        SimQuery::new(vec![
            vec![leaf(0, Avg, 8, Lt, 0.2), leaf(1, Max, 4, Gt, 0.5)],
            vec![leaf(2, Sum, 12, Gt, 0.0)],
        ])
        .unwrap(),
        SimQuery::new(vec![
            vec![leaf(1, Avg, 6, Lt, 0.3)],
            vec![leaf(0, Min, 3, Gt, -0.5), leaf(3, Avg, 16, Lt, 0.1)],
            vec![leaf(2, Max, 2, Gt, 1.0)],
        ])
        .unwrap(),
        SimQuery::new(vec![vec![
            leaf(3, Sum, 5, Lt, 0.5),
            leaf(0, Avg, 12, Gt, -0.2),
            leaf(1, Min, 8, Lt, 0.0),
        ]])
        .unwrap(),
    ];
    let schedules = queries
        .iter()
        .map(|q| {
            let mut order = q.leaf_refs();
            order.reverse();
            DnfSchedule::from_order_unchecked(order)
        })
        .collect();
    (queries, schedules)
}

fn meter() -> EnergyMeter {
    let cat = StreamCatalog::from_costs([1.0, 2.0, 0.5, 1.5]).unwrap();
    EnergyMeter::new(EnergyModel::from_catalog(&cat))
}

/// What a run exercised, so each setup provably reaches the paths it
/// claims to check.
#[derive(Debug, Default)]
struct Exercised {
    evaluations: u64,
    retries: u64,
    failed_reads: u64,
    stale_leaves: u64,
}

/// Unmeasured ticks that grow the scratch to its working size. A buffer
/// grows the first time its stream or window is read, and short-circuit
/// evaluation decides which leaves a tick reads, so one tick is not
/// enough: here the first tick leaves some device-memory sets unused.
const WARMUP: usize = 4;
/// Measured ticks.
const TICKS: usize = 200;

/// How a tick is driven: the individual public calls
/// (`maintain_tick`, `begin_tick`, `run_query`), or the one
/// `Scheduler::run_tick` call both serving front ends make.
#[derive(Debug, Clone, Copy)]
enum Driver {
    Calls,
    RunTick,
}

/// Runs `WARMUP` then `TICKS` ticks and returns the allocations of the
/// measured ones. `shared` applies the memory policy once per tick for
/// the whole set, otherwise before each query.
fn run(mut scheduler: Scheduler, shared: bool, driver: Driver) -> (u64, Exercised, Scheduler) {
    let mut rng = StdRng::seed_from_u64(7);
    let mut streams = streams(&mut rng);
    let (queries, schedules) = workload();
    let pairs: Vec<(&SimQuery, &DnfSchedule)> = queries.iter().zip(&schedules).collect();
    let mut meter = meter();
    let mut outcomes = Vec::new();
    let mut seen = Exercised::default();
    let mut allocs = 0;
    for tick in 0..WARMUP + TICKS {
        let mut one_tick = || match driver {
            Driver::Calls => {
                scheduler.maintain_tick(&streams, &mut meter);
                if shared {
                    scheduler.begin_tick(&queries, &streams);
                }
                outcomes.clear();
                for (q, s) in &pairs {
                    if !shared {
                        scheduler.begin_tick(std::slice::from_ref(q), &streams);
                    }
                    outcomes.push(scheduler.run_query(q, s, &streams, &mut meter, None));
                }
            }
            Driver::RunTick => {
                scheduler.run_tick(&pairs, &streams, shared, &mut meter, None, &mut outcomes);
            }
        };
        if tick < WARMUP {
            one_tick();
        } else {
            allocs += allocations_in(one_tick);
        }
        for out in &outcomes {
            seen.evaluations += 1;
            seen.retries += u64::from(out.retries);
            seen.failed_reads += u64::from(out.failed_reads);
            seen.stale_leaves += u64::from(out.stale_leaves);
        }
        for s in &mut streams {
            s.inner.advance(&mut rng);
        }
    }
    assert_eq!(meter.evaluations(), seen.evaluations);
    (allocs, seen, scheduler)
}

/// Every way of driving a tick: shared or per-query memory policy,
/// through the individual calls or through `run_tick`.
const DRIVES: [(bool, Driver); 4] = [
    (true, Driver::Calls),
    (false, Driver::Calls),
    (true, Driver::RunTick),
    (false, Driver::RunTick),
];

fn fault_policy(mut scheduler: Scheduler, stale_fallback: bool) -> Scheduler {
    scheduler.set_fault_policy(3, stale_fallback);
    scheduler
}

#[test]
fn counting_allocator_sees_allocations() {
    let n = allocations_in(|| drop(std::hint::black_box(vec![1u8; 16])));
    assert_eq!(n, 1);
}

#[test]
fn clear_each_query_ticks_allocate_nothing() {
    for (shared, driver) in DRIVES {
        let scheduler = fault_policy(Scheduler::new(4, MemoryPolicy::ClearEachQuery), false);
        let (allocs, seen, _) = run(scheduler, shared, driver);
        assert!(seen.retries > 0 && seen.failed_reads > 0, "{seen:?}");
        assert_eq!(allocs, 0, "shared = {shared}, {driver:?}: {seen:?}");
    }
}

#[test]
fn retain_ticks_allocate_nothing() {
    for (shared, driver) in DRIVES {
        let scheduler = fault_policy(Scheduler::new(4, MemoryPolicy::Retain), false);
        let (allocs, seen, scheduler) = run(scheduler, shared, driver);
        assert!(seen.retries > 0 && seen.failed_reads > 0, "{seen:?}");
        assert!(scheduler.memory().held_count(StreamId(3)) > 0);
        assert_eq!(allocs, 0, "shared = {shared}, {driver:?}: {seen:?}");
    }
}

#[test]
fn arranged_ticks_with_maintenance_and_stale_fallback_allocate_nothing() {
    for driver in [Driver::Calls, Driver::RunTick] {
        let mut store = ArrangementStore::new(ArrangeConfig::default());
        for (k, window) in [(0, 12), (1, 8), (2, 12), (3, 16), (3, 5)] {
            store.acquire(StreamId(k), window);
        }
        let scheduler = fault_policy(Scheduler::with_arrangements(4, store), true);
        let (allocs, seen, scheduler) = run(scheduler, true, driver);
        let stats = scheduler.arrangements().unwrap().stats();
        assert!(stats.hits > 0 && stats.maintained_items > 0, "{stats:?}");
        assert!(
            seen.stale_leaves > 0,
            "the outage reaches the stale path: {seen:?}"
        );
        assert_eq!(allocs, 0, "{driver:?}: {seen:?}");
    }
}
