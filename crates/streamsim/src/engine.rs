//! The pull-based query execution engine — now a thin adapter over the
//! unified runtime.
//!
//! Evaluates a [`SimQuery`] at the current tick, following a schedule:
//! leaves are visited in schedule order, skipped when short-circuited,
//! and each evaluated leaf pulls the *missing* items of its window from
//! its stream (shared device memory makes overlapping windows cheap),
//! paying the energy model. This is the concrete counterpart of the
//! abstract cost model in `paotr_core`: there truth values come from an
//! assignment, here from real predicates over real (simulated) data.
//!
//! The scheduling loop, the memory policy and the energy accounting all
//! live in [`crate::runtime`] ([`Scheduler`] + [`EnergyMeter`]); this
//! type only bundles them with the historical `evaluate` /
//! `evaluate_workload` surface.

use crate::device::MemoryPolicy;
use crate::energy::EnergyModel;
use crate::query::SimQuery;
use crate::runtime::{EnergyMeter, Scheduler};
use crate::stream::SimStream;
use crate::trace::TraceLog;
use paotr_core::schedule::DnfSchedule;

pub use crate::runtime::QueryOutcome;

/// The query-processing device: memory, policy and energy meter.
#[derive(Debug, Clone)]
pub struct Engine {
    scheduler: Scheduler,
    meter: EnergyMeter,
}

impl Engine {
    /// Creates an engine over `n_streams` streams.
    pub fn new(n_streams: usize, policy: MemoryPolicy, energy: EnergyModel) -> Engine {
        assert_eq!(
            energy.len(),
            n_streams,
            "energy model must cover every stream"
        );
        Engine {
            scheduler: Scheduler::new(n_streams, policy),
            meter: EnergyMeter::new(energy),
        }
    }

    /// Total energy spent since construction.
    pub fn total_cost(&self) -> f64 {
        self.meter.total_cost()
    }

    /// Number of query evaluations performed.
    pub fn evaluations(&self) -> u64 {
        self.meter.evaluations()
    }

    /// Items pulled per stream since construction
    /// ([`EnergyMeter::items_pulled`]).
    pub fn items_pulled(&self) -> &[u64] {
        self.meter.items_pulled()
    }

    /// Evaluates `query` under `schedule` against the given streams
    /// (`streams[k]` backs `StreamId(k)`), optionally appending per-leaf
    /// records to a trace.
    ///
    /// # Panics
    /// Panics if a stream is too cold to provide a required window (run
    /// the streams for at least the largest window first) or if the
    /// schedule shape does not match the query.
    pub fn evaluate(
        &mut self,
        query: &SimQuery,
        schedule: &DnfSchedule,
        streams: &[SimStream],
        trace: Option<&mut TraceLog>,
    ) -> QueryOutcome {
        self.scheduler
            .begin_tick(std::slice::from_ref(&query), streams);
        self.scheduler
            .run_query(query, schedule, streams, &mut self.meter, trace)
    }

    /// Evaluates a whole workload at the current tick: every query in
    /// order, against **one shared device memory**, so items pulled by
    /// an earlier query are free for every later query this tick
    /// (`shared = true`). The memory policy is applied once per tick
    /// (for [`MemoryPolicy::Retain`], horizons are the per-stream
    /// maxima over the whole workload).
    ///
    /// With `shared = false` the memory policy is instead applied
    /// before *each* query, exactly as if [`Engine::evaluate`] were
    /// called per query: under [`MemoryPolicy::ClearEachQuery`] every
    /// query pays its own pulls (the independent baseline), while
    /// [`MemoryPolicy::Retain`] keeps its usual cross-evaluation
    /// retention semantics.
    ///
    /// # Panics
    /// As [`Engine::evaluate`], for each query/schedule pair.
    pub fn evaluate_workload(
        &mut self,
        queries: &[(&SimQuery, &DnfSchedule)],
        streams: &[SimStream],
        shared: bool,
        trace: Option<&mut TraceLog>,
    ) -> Vec<QueryOutcome> {
        let mut outcomes = Vec::with_capacity(queries.len());
        self.scheduler.run_tick(
            queries,
            streams,
            shared,
            &mut self.meter,
            trace,
            &mut outcomes,
        );
        outcomes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::{Comparator, Predicate, WindowOp};
    use crate::query::SimLeaf;
    use crate::source::{SensorModel, SensorSource};
    use paotr_core::stream::{StreamCatalog, StreamId};
    use rand::prelude::*;

    fn constant_stream(v: f64, ticks: usize) -> SimStream {
        let mut s = SimStream::new(SensorSource::new(SensorModel::Constant(v)), 64);
        let mut rng = StdRng::seed_from_u64(0);
        s.advance_by(ticks, &mut rng);
        s
    }

    fn leaf(stream: usize, window: u32, cmp: Comparator, thr: f64) -> SimLeaf {
        SimLeaf {
            stream: StreamId(stream),
            predicate: Predicate::new(WindowOp::Avg, window, cmp, thr),
        }
    }

    fn engine(costs: &[f64]) -> Engine {
        let cat = StreamCatalog::from_costs(costs.iter().copied()).unwrap();
        Engine::new(
            costs.len(),
            MemoryPolicy::ClearEachQuery,
            EnergyModel::from_catalog(&cat),
        )
    }

    #[test]
    fn true_query_shortcircuits_remaining_terms() {
        // stream 0 constant 50: AVG < 70 true. Term 0 true -> stop.
        let q = SimQuery::new(vec![
            vec![leaf(0, 5, Comparator::Lt, 70.0)],
            vec![leaf(1, 4, Comparator::Gt, 100.0)],
        ])
        .unwrap();
        let streams = vec![constant_stream(50.0, 20), constant_stream(50.0, 20)];
        let mut e = engine(&[1.0, 1.0]);
        let s = DnfSchedule::from_order_unchecked(q.leaf_refs());
        let out = e.evaluate(&q, &s, &streams, None);
        assert!(out.value);
        assert_eq!(out.evaluated, 1);
        assert_eq!(out.cost, 5.0);
        assert_eq!(e.items_pulled(), &[5, 0]);
    }

    #[test]
    fn shared_windows_pay_only_missing_items() {
        // Both leaves on stream 0, same term: windows 5 then 8 -> 5 + 3.
        let q = SimQuery::new(vec![vec![
            leaf(0, 5, Comparator::Lt, 70.0),
            leaf(0, 8, Comparator::Lt, 70.0),
        ]])
        .unwrap();
        let streams = vec![constant_stream(50.0, 20)];
        let mut e = engine(&[2.0]);
        let s = DnfSchedule::from_order_unchecked(q.leaf_refs());
        let out = e.evaluate(&q, &s, &streams, None);
        assert!(out.value);
        assert_eq!(e.items_pulled(), &[8]);
        assert_eq!(out.cost, 16.0);
    }

    #[test]
    fn false_leaf_kills_term_and_skips_its_leaves() {
        let q = SimQuery::new(vec![
            vec![
                leaf(0, 2, Comparator::Gt, 100.0),
                leaf(1, 6, Comparator::Lt, 70.0),
            ],
            vec![leaf(1, 3, Comparator::Lt, 70.0)],
        ])
        .unwrap();
        let streams = vec![constant_stream(50.0, 20), constant_stream(50.0, 20)];
        let mut e = engine(&[1.0, 1.0]);
        let s = DnfSchedule::from_order_unchecked(q.leaf_refs());
        let out = e.evaluate(&q, &s, &streams, None);
        // leaf (0,0): avg 50 > 100 false -> term 0 dead, (0,1) skipped.
        // leaf (1,0): true -> query true. Cost = 2 + 3.
        assert!(out.value);
        assert_eq!(out.evaluated, 2);
        assert_eq!(out.cost, 5.0);
    }

    #[test]
    fn retain_policy_reuses_overlapping_windows_across_ticks() {
        let q = SimQuery::new(vec![vec![leaf(0, 5, Comparator::Lt, 70.0)]]).unwrap();
        let cat = StreamCatalog::from_costs([1.0]).unwrap();
        let mut e = Engine::new(1, MemoryPolicy::Retain, EnergyModel::from_catalog(&cat));
        let mut stream = constant_stream(50.0, 10);
        let s = DnfSchedule::from_order_unchecked(q.leaf_refs());
        let out1 = e.evaluate(&q, &s, std::slice::from_ref(&stream), None);
        assert_eq!(out1.cost, 5.0);
        // advance one tick: only 1 new item needed
        let mut rng = StdRng::seed_from_u64(1);
        stream.advance(&mut rng);
        let out2 = e.evaluate(&q, &s, std::slice::from_ref(&stream), None);
        assert_eq!(out2.cost, 1.0);
        assert_eq!(e.total_cost(), 6.0);
        assert_eq!(e.evaluations(), 2);
    }

    #[test]
    fn clear_policy_matches_abstract_model_every_time() {
        let q = SimQuery::new(vec![vec![leaf(0, 5, Comparator::Lt, 70.0)]]).unwrap();
        let mut e = engine(&[1.0]);
        let mut stream = constant_stream(50.0, 10);
        let s = DnfSchedule::from_order_unchecked(q.leaf_refs());
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..3 {
            let out = e.evaluate(&q, &s, std::slice::from_ref(&stream), None);
            assert_eq!(out.cost, 5.0);
            stream.advance(&mut rng);
        }
    }

    #[test]
    fn shared_tick_makes_items_free_for_later_queries() {
        // Two queries reading the same stream: q0 pulls 8 items, q1
        // needs 5 of them.
        let q0 = SimQuery::new(vec![vec![leaf(0, 8, Comparator::Lt, 70.0)]]).unwrap();
        let q1 = SimQuery::new(vec![vec![leaf(0, 5, Comparator::Lt, 70.0)]]).unwrap();
        let streams = vec![constant_stream(50.0, 20)];
        let s0 = DnfSchedule::from_order_unchecked(q0.leaf_refs());
        let s1 = DnfSchedule::from_order_unchecked(q1.leaf_refs());
        let workload = [(&q0, &s0), (&q1, &s1)];

        let mut iso = engine(&[1.0]);
        let outs = iso.evaluate_workload(&workload, &streams, false, None);
        assert_eq!(outs[0].cost, 8.0);
        assert_eq!(outs[1].cost, 5.0, "isolated queries repay the pull");
        assert_eq!(iso.total_cost(), 13.0);

        let mut shared = engine(&[1.0]);
        let outs = shared.evaluate_workload(&workload, &streams, true, None);
        assert_eq!(outs[0].cost, 8.0);
        assert_eq!(outs[1].cost, 0.0, "q0's items are free for q1");
        assert_eq!(shared.total_cost(), 8.0);
        assert_eq!(shared.items_pulled(), &[8], "q1 pulled nothing");
    }

    #[test]
    fn shared_tick_order_changes_who_pays() {
        let big = SimQuery::new(vec![vec![leaf(0, 8, Comparator::Lt, 70.0)]]).unwrap();
        let small = SimQuery::new(vec![vec![leaf(0, 5, Comparator::Lt, 70.0)]]).unwrap();
        let streams = vec![constant_stream(50.0, 20)];
        let sb = DnfSchedule::from_order_unchecked(big.leaf_refs());
        let ss = DnfSchedule::from_order_unchecked(small.leaf_refs());

        // small first: pays 5, then big tops up 3. Total unchanged.
        let mut e = engine(&[1.0]);
        let outs = e.evaluate_workload(&[(&small, &ss), (&big, &sb)], &streams, true, None);
        assert_eq!(outs[0].cost, 5.0);
        assert_eq!(outs[1].cost, 3.0);
        assert_eq!(e.total_cost(), 8.0);
    }

    #[test]
    fn workload_matches_per_query_evaluate_when_isolated() {
        let q0 = SimQuery::new(vec![vec![
            leaf(0, 4, Comparator::Lt, 70.0),
            leaf(1, 2, Comparator::Gt, 100.0),
        ]])
        .unwrap();
        let q1 = SimQuery::new(vec![vec![leaf(1, 3, Comparator::Lt, 70.0)]]).unwrap();
        let streams = vec![constant_stream(50.0, 20), constant_stream(50.0, 20)];
        let s0 = DnfSchedule::from_order_unchecked(q0.leaf_refs());
        let s1 = DnfSchedule::from_order_unchecked(q1.leaf_refs());

        let mut a = engine(&[1.0, 2.0]);
        let outs = a.evaluate_workload(&[(&q0, &s0), (&q1, &s1)], &streams, false, None);
        let mut b = engine(&[1.0, 2.0]);
        let o0 = b.evaluate(&q0, &s0, &streams, None);
        let o1 = b.evaluate(&q1, &s1, &streams, None);
        assert_eq!(outs, vec![o0, o1]);
        assert_eq!(a.total_cost(), b.total_cost());
        assert_eq!(a.evaluations(), 2);

        // ...including under Retain, whose cross-evaluation retention
        // must not be wiped by the non-shared path.
        let cat = StreamCatalog::from_costs([1.0, 2.0]).unwrap();
        let mut a = Engine::new(2, MemoryPolicy::Retain, EnergyModel::from_catalog(&cat));
        let outs = a.evaluate_workload(&[(&q0, &s0), (&q1, &s1)], &streams, false, None);
        let mut b = Engine::new(2, MemoryPolicy::Retain, EnergyModel::from_catalog(&cat));
        let o0 = b.evaluate(&q0, &s0, &streams, None);
        let after_q0 = b.items_pulled()[1];
        let o1 = b.evaluate(&q1, &s1, &streams, None);
        assert_eq!(outs, vec![o0, o1]);
        assert!(
            b.items_pulled()[1] - after_q0 < 3,
            "retained items from q0 serve part of q1's window"
        );
    }

    #[test]
    fn trace_records_every_evaluated_leaf() {
        let q = SimQuery::new(vec![vec![
            leaf(0, 2, Comparator::Lt, 70.0),
            leaf(1, 3, Comparator::Gt, 100.0),
        ]])
        .unwrap();
        let streams = vec![constant_stream(50.0, 10), constant_stream(50.0, 10)];
        let mut e = engine(&[1.0, 1.0]);
        let s = DnfSchedule::from_order_unchecked(q.leaf_refs());
        let mut log = TraceLog::default();
        let out = e.evaluate(&q, &s, &streams, Some(&mut log));
        assert_eq!(out.evaluated, 2);
        assert_eq!(log.len(), 2);
        assert!(log.records()[0].value);
        assert!(!log.records()[1].value);
    }
}
