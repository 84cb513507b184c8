//! Simulated data streams.
//!
//! A [`SimStream`] couples a sensor generator with a bounded history ring:
//! the sensor produces one item per tick (on the sensor platform itself —
//! SHIMMER-class devices buffer locally), and the query device *pulls* the
//! most recent `n` items on demand, paying per item. `recent(n)` is the
//! pull interface: it returns the last `n` items, newest first, exactly
//! the "t-th data item" indexing of Section IV-A (the 1st item is the most
//! recent).

use crate::source::SensorSource;
use rand::Rng;
use std::collections::VecDeque;

/// A sensor stream with bounded on-sensor history.
#[derive(Debug, Clone)]
pub struct SimStream {
    source: SensorSource,
    history: VecDeque<f64>,
    capacity: usize,
    produced: u64,
}

impl SimStream {
    /// Creates a stream that retains the last `capacity` items.
    ///
    /// # Panics
    /// Panics when `capacity` is zero.
    pub fn new(source: SensorSource, capacity: usize) -> SimStream {
        assert!(capacity > 0, "streams must retain at least one item");
        SimStream {
            source,
            history: VecDeque::with_capacity(capacity),
            capacity,
            produced: 0,
        }
    }

    /// Produces the next item (one tick of the sensor).
    pub fn advance<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        if self.history.len() == self.capacity {
            self.history.pop_front();
        }
        let v = self.source.next_value(rng);
        self.history.push_back(v);
        self.produced += 1;
    }

    /// Timestamp of the most recent item (items are stamped 1, 2, ...;
    /// 0 means nothing has been produced yet).
    pub fn now(&self) -> u64 {
        self.produced
    }

    /// Produces `n` items.
    pub fn advance_by<R: Rng + ?Sized>(&mut self, n: usize, rng: &mut R) {
        for _ in 0..n {
            self.advance(rng);
        }
    }

    /// Number of items currently buffered.
    pub fn len(&self) -> usize {
        self.history.len()
    }

    /// True when no item has been produced yet.
    pub fn is_empty(&self) -> bool {
        self.history.is_empty()
    }

    /// The last `n` items, newest first (the pull interface).
    ///
    /// Returns `None` when fewer than `n` items exist — predicates on a
    /// cold stream cannot be evaluated yet.
    pub fn recent(&self, n: usize) -> Option<Vec<f64>> {
        let mut window = Vec::new();
        self.recent_into(n, &mut window).then_some(window)
    }

    /// [`SimStream::recent`] into a caller-owned buffer: replaces the
    /// contents of `buf` with the last `n` items, newest first, and
    /// returns true; returns false (leaving `buf` cleared) when fewer
    /// than `n` items exist. Allocates only when `buf` must grow.
    pub fn recent_into(&self, n: usize, buf: &mut Vec<f64>) -> bool {
        buf.clear();
        if self.history.len() < n {
            return false;
        }
        buf.extend(self.history.iter().rev().take(n));
        true
    }

    /// The most recent item, if any.
    pub fn latest(&self) -> Option<f64> {
        self.history.back().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SensorModel;
    use rand::prelude::*;

    fn counting_stream(capacity: usize) -> (SimStream, StdRng) {
        // Sine with zero amplitude = constant; we instead use a walk with
        // zero step to keep values distinguishable? Use Constant and rely
        // on length logic; separate tests use varying sources.
        (
            SimStream::new(SensorSource::new(SensorModel::Constant(1.0)), capacity),
            StdRng::seed_from_u64(1),
        )
    }

    #[test]
    fn ring_buffer_caps_history() {
        let (mut s, mut rng) = counting_stream(3);
        s.advance_by(10, &mut rng);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn recent_returns_newest_first() {
        let mut s = SimStream::new(
            SensorSource::new(SensorModel::Sine {
                offset: 0.0,
                amplitude: 1.0,
                period: 4.0,
                noise: 0.0,
            }),
            8,
        );
        let mut rng = StdRng::seed_from_u64(2);
        s.advance_by(3, &mut rng); // sin(0)=0, sin(pi/2)=1, sin(pi)~0
        let r = s.recent(3).unwrap();
        assert!((r[0] - 0.0).abs() < 1e-9, "newest first: {r:?}");
        assert!((r[1] - 1.0).abs() < 1e-9);
        assert!((r[2] - 0.0).abs() < 1e-9);
    }

    #[test]
    fn recent_into_replaces_the_buffer_with_the_window() {
        let mut s = SimStream::new(
            SensorSource::new(SensorModel::RandomWalk {
                start: 0.0,
                step: 1.0,
                min: -100.0,
                max: 100.0,
            }),
            8,
        );
        let mut rng = StdRng::seed_from_u64(4);
        s.advance_by(6, &mut rng);
        let mut buf = vec![9.0; 10];
        assert!(s.recent_into(4, &mut buf));
        assert_eq!(Some(buf.clone()), s.recent(4));
        assert!(!s.recent_into(7, &mut buf), "only 6 items exist");
        assert!(buf.is_empty());
    }

    #[test]
    fn recent_on_cold_stream_is_none() {
        let (mut s, mut rng) = counting_stream(5);
        assert!(s.recent(1).is_none());
        s.advance(&mut rng);
        assert!(s.recent(1).is_some());
        assert!(s.recent(2).is_none());
    }

    #[test]
    fn latest_tracks_last_item() {
        let (mut s, mut rng) = counting_stream(2);
        assert!(s.latest().is_none());
        s.advance(&mut rng);
        assert_eq!(s.latest(), Some(1.0));
    }

    #[test]
    #[should_panic(expected = "at least one item")]
    fn zero_capacity_rejected() {
        let _ = SimStream::new(SensorSource::new(SensorModel::Constant(0.0)), 0);
    }
}
