//! Joint-plan digests: `shared-greedy` must keep producing bit-identical
//! joint plans while its planning loop is optimized.
//!
//! Each digest is an FNV-1a hash over everything a joint plan
//! prescribes: the execution order, every schedule's leaf order, the
//! `to_bits` of every predicted and independent cost, the
//! materialization decisions, and every per-query plan's stamped cost,
//! planner and fingerprints. One flipped bit anywhere changes the
//! digest.
//!
//! The constants were captured from the planner that re-planned every
//! coverage-changed candidate through `Engine::plan`. Two input
//! families are pinned: the generated `workload_instance` workloads at
//! 16/64/128 queries and overlaps 0.3/0.6, and live sets built from
//! churn-generated qlang sources (the daemon's query shapes), each
//! planned with one and with two worker threads.

use paotr_core::leaf::Leaf;
use paotr_core::plan::Engine;
use paotr_core::stream::{StreamCatalog, StreamId};
use paotr_core::tree::DnfTree;
use paotr_gen::churn::{random_query_source, ChurnConfig};
use paotr_gen::workload::{workload_instance, WorkloadConfig};
use paotr_multi::{JointPlan, SharedGreedyPlanner, Workload, WorkloadPlanner};
use paotr_par::ThreadCount;
use rand::prelude::*;

/// FNV-1a over a stream of `u64` words (little-endian bytes).
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn str(&mut self, s: &str) {
        self.word(s.len() as u64);
        for b in s.bytes() {
            self.word(u64::from(b));
        }
    }
}

fn digest(jp: &JointPlan) -> u64 {
    let mut h = Fnv::new();
    h.word(jp.order.len() as u64);
    for &q in &jp.order {
        h.word(q as u64);
    }
    for s in &jp.schedules {
        h.word(s.len() as u64);
        for r in s.order() {
            h.word(r.term as u64);
            h.word(r.leaf as u64);
        }
    }
    for (&p, &i) in jp.predicted_costs.iter().zip(&jp.independent_costs) {
        h.word(p.to_bits());
        h.word(i.to_bits());
    }
    h.word(jp.materialized.len() as u64);
    for m in &jp.materialized {
        h.word(m.stream.0 as u64);
        h.word(u64::from(m.window));
        h.word(u64::from(m.term.readers));
        h.word(m.term.delta.to_bits());
        h.word(m.term.repull_items.to_bits());
        h.word(m.term.horizon.to_bits());
    }
    for p in &jp.plans {
        h.word(p.expected_cost.map_or(u64::MAX, f64::to_bits));
        h.str(&p.planner);
        h.str(&p.body_display());
        h.word(p.query_fingerprint);
        h.word(p.catalog_fingerprint);
    }
    h.0
}

fn plan(workload: &Workload, threads: usize) -> JointPlan {
    let mut planner = SharedGreedyPlanner::sequential();
    planner.threads = ThreadCount::Fixed(threads);
    planner.plan(workload, &Engine::new()).unwrap()
}

/// A live set of `n` churn-generated qlang queries, compiled and merged
/// into one union catalog by stream name (first appearance fixes the
/// id), the way the daemon's registry builds its workload. Stream costs
/// vary by id so the coverage discount steers the re-plans.
fn churn_live_set(n: usize, seed: u64) -> Workload {
    let cfg = ChurnConfig {
        max_live: 48,
        streams: 24,
        max_window: 16,
        ..ChurnConfig::default()
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut catalog = StreamCatalog::new();
    let mut trees = Vec::with_capacity(n);
    while trees.len() < n {
        let source = random_query_source(&cfg, &mut rng);
        let compiled = paotr_qlang::compile_str(&source).unwrap();
        let Some(local) = compiled.tree.as_dnf() else {
            continue;
        };
        let map: Vec<StreamId> = (0..compiled.catalog.len())
            .map(|k| {
                let name = compiled.catalog.name(StreamId(k));
                catalog.find(&name).unwrap_or_else(|| {
                    let id = catalog.len();
                    catalog
                        .add_named(&name, 0.5 + (id * 7 % 11) as f64 * 0.35)
                        .unwrap()
                })
            })
            .collect();
        let terms: Vec<Vec<Leaf>> = (0..local.num_terms())
            .map(|t| {
                local
                    .term(t)
                    .leaves()
                    .iter()
                    .map(|l| Leaf::new(map[l.stream.0], l.items, l.prob).unwrap())
                    .collect()
            })
            .collect();
        trees.push(DnfTree::from_leaves(terms).unwrap());
    }
    Workload::from_trees(trees, catalog).unwrap()
}

#[test]
fn shared_greedy_joint_plans_match_pinned_digests() {
    let golden: [(usize, f64, u64); 6] = [
        (16, 0.3, 0xef78_ca35_5783_c90b),
        (16, 0.6, 0xb405_70ce_2edd_e0a9),
        (64, 0.3, 0xdbf0_afe2_701e_7161),
        (64, 0.6, 0xbe0c_7404_2342_d090),
        (128, 0.3, 0x0897_7bf8_3ff5_a1c0),
        (128, 0.6, 0x616f_0d42_360d_1dd6),
    ];
    for (queries, overlap, want) in golden {
        let (trees, catalog) = workload_instance(WorkloadConfig::with_overlap(queries, overlap), 0);
        let w = Workload::from_trees(trees, catalog).unwrap();
        let d = digest(&plan(&w, 1));
        assert_eq!(d, want, "{queries} queries at overlap {overlap}: {d:#018x}");
    }
}

#[test]
fn churn_live_sets_match_pinned_digests_at_any_thread_count() {
    let golden: [(usize, u64, u64); 2] = [
        (24, 11, 0x9a5d_b87e_fe68_3254),
        (48, 12, 0x27b9_7456_09e4_2786),
    ];
    for (n, seed, want) in golden {
        let w = churn_live_set(n, seed);
        for threads in [1, 2] {
            let d = digest(&plan(&w, threads));
            assert_eq!(
                d, want,
                "{n}-query live set {seed}, {threads} threads: {d:#018x}"
            );
        }
    }
}
