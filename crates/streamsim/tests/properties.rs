//! Property tests for the simulation substrate.

use paotr_core::stream::StreamId;
use proptest::prelude::*;
use std::collections::BTreeSet;
use stream_sim::{Comparator, DeviceMemory, Predicate, WindowOp};

/// Reference model of [`DeviceMemory`]: one `BTreeSet` of held
/// timestamps per stream, with the window arithmetic written out
/// directly.
struct Model {
    held: Vec<BTreeSet<u64>>,
}

impl Model {
    fn window(now: u64, window: u32) -> std::ops::RangeInclusive<u64> {
        now.saturating_sub(u64::from(window) - 1).max(1)..=now
    }

    fn missing(&self, k: usize, now: u64, window: u32) -> u32 {
        if now == 0 {
            return 0;
        }
        let w = Self::window(now, window);
        w.clone().filter(|t| !self.held[k].contains(t)).count() as u32
    }

    fn insert_window(&mut self, k: usize, now: u64, window: u32) {
        if now > 0 {
            self.held[k].extend(Self::window(now, window));
        }
    }

    fn prune(&mut self, k: usize, horizon: u64) {
        self.held[k].retain(|&t| t >= horizon);
    }
}

proptest! {
    /// Device memory: after inserting a window ending at `now`, nothing in
    /// that window is missing, and a *wider* window at the same time is
    /// missing exactly the difference (clipped to items that exist —
    /// timestamps start at 1).
    #[test]
    fn memory_window_accounting(now in 1u64..10_000, w1 in 1u32..50, w2 in 1u32..50) {
        let mut m = DeviceMemory::new(1);
        let k = StreamId(0);
        m.insert_window(k, now, w1);
        prop_assert_eq!(m.missing(k, now, w1), 0);
        let exist = |w: u32| u64::from(w).min(now) as u32;
        if w2 > w1 {
            prop_assert_eq!(m.missing(k, now, w2), exist(w2) - exist(w1));
        } else {
            prop_assert_eq!(m.missing(k, now, w2), 0);
        }
    }

    /// Advancing time by `s` ticks leaves a `w`-window missing exactly
    /// `min(s, w)` items.
    #[test]
    fn memory_shift_accounting(now in 100u64..10_000, w in 1u32..50, s in 0u64..100) {
        let mut m = DeviceMemory::new(1);
        let k = StreamId(0);
        m.insert_window(k, now, w);
        let missing = m.missing(k, now + s, w);
        prop_assert_eq!(u64::from(missing), s.min(u64::from(w)));
    }

    /// Pruning to the relevance horizon never makes a current window
    /// report fewer missing items than an unpruned memory would.
    #[test]
    fn pruning_is_conservative(now in 100u64..5_000, w in 1u32..30) {
        let k = StreamId(0);
        let mut pruned = DeviceMemory::new(1);
        let mut full = DeviceMemory::new(1);
        pruned.insert_window(k, now, w);
        full.insert_window(k, now, w);
        let later = now + 10;
        pruned.prune(k, later.saturating_sub(u64::from(w) - 1));
        prop_assert!(pruned.missing(k, later, w) >= full.missing(k, later, w));
        // ...but for the *relevant* window they agree exactly:
        prop_assert_eq!(pruned.missing(k, later, w), full.missing(k, later, w));
    }

    /// Window operators are within the window's min/max bounds, and AVG
    /// is order-invariant.
    #[test]
    fn operator_bounds(window in prop::collection::vec(-100.0f64..100.0, 1..20)) {
        let lo = window.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = window.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(WindowOp::Min.apply(&window), lo);
        prop_assert_eq!(WindowOp::Max.apply(&window), hi);
        let avg = WindowOp::Avg.apply(&window);
        prop_assert!(avg >= lo - 1e-9 && avg <= hi + 1e-9);
        let mut rev = window.clone();
        rev.reverse();
        prop_assert!((WindowOp::Avg.apply(&rev) - avg).abs() < 1e-9);
    }

    /// Predicates are monotone in their threshold: if `x < t` holds, it
    /// holds for every larger `t`.
    #[test]
    fn predicate_threshold_monotonicity(
        window in prop::collection::vec(-50.0f64..50.0, 1..10),
        t1 in -60.0f64..60.0,
        bump in 0.0f64..20.0,
    ) {
        let w = window.len() as u32;
        let lt1 = Predicate::new(WindowOp::Avg, w, Comparator::Lt, t1);
        let lt2 = Predicate::new(WindowOp::Avg, w, Comparator::Lt, t1 + bump);
        if lt1.eval(&window) {
            prop_assert!(lt2.eval(&window));
        }
        let gt1 = Predicate::new(WindowOp::Max, w, Comparator::Gt, t1 + bump);
        let gt2 = Predicate::new(WindowOp::Max, w, Comparator::Gt, t1);
        if gt1.eval(&window) {
            prop_assert!(gt2.eval(&window));
        }
    }

    /// Model-based check: random `insert_window` / `prune` / `clear`
    /// sequences on two streams, with timestamps free to jump back and
    /// forth, leave the sorted-vector memory answering every `missing`
    /// and `held_count` query exactly like the `BTreeSet` model.
    #[test]
    fn memory_matches_the_btreeset_model(
        ops in prop::collection::vec((0u8..8, 0usize..2, 0u64..120, 1u32..40), 1..80),
    ) {
        let mut mem = DeviceMemory::new(2);
        let mut model = Model { held: vec![BTreeSet::new(); 2] };
        for (op, k, now, w) in ops {
            match op {
                0..=3 => {
                    mem.insert_window(StreamId(k), now, w);
                    model.insert_window(k, now, w);
                }
                4 | 5 => {
                    mem.prune(StreamId(k), now);
                    model.prune(k, now);
                }
                6 => {
                    mem.clear();
                    model.held.iter_mut().for_each(BTreeSet::clear);
                }
                _ => {}
            }
            for j in 0..2 {
                prop_assert_eq!(mem.held_count(StreamId(j)), model.held[j].len());
                for probe in [now, now + 1, now.saturating_sub(7)] {
                    prop_assert_eq!(
                        mem.missing(StreamId(j), probe, w),
                        model.missing(j, probe, w)
                    );
                }
            }
        }
    }
}
