//! Device-side item memory.
//!
//! "The device that processes the query acquires data items from streams
//! and holds each data item in memory until that data item is no longer
//! relevant", i.e. older than the maximum time-window used for its stream.
//! [`DeviceMemory`] tracks exactly which absolute items (by production
//! tick) are held per stream, so the engine can compute how many *new*
//! items a pull must pay for — the heart of the shared-streams cost model.

use paotr_core::stream::StreamId;

/// What happens to memory between consecutive query evaluations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MemoryPolicy {
    /// Clear memory before every query evaluation — each evaluation then
    /// matches the paper's single-evaluation cost model exactly.
    #[default]
    ClearEachQuery,
    /// Keep items across evaluations (pruned by the relevance horizon) —
    /// overlapping windows across ticks make later evaluations cheaper,
    /// a realistic extension beyond the paper's model.
    Retain,
    /// Serve pulls from maintained arrangements where one is current
    /// (see `paotr-arrange`), falling back to cleared per-tick memory
    /// for unarranged streams. The scheduler carries the
    /// `ArrangementStore` itself — the policy stays a plain marker so
    /// it remains `Copy` and comparable.
    Arranged,
}

/// Per-stream sets of held item timestamps, each a sorted `Vec<u64>`
/// without duplicates. Unlike tree nodes, a cleared or pruned vector
/// keeps its capacity, so a steady-state tick allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct DeviceMemory {
    held: Vec<Vec<u64>>,
}

impl DeviceMemory {
    /// Creates memory for `n_streams` streams.
    pub fn new(n_streams: usize) -> DeviceMemory {
        DeviceMemory {
            held: vec![Vec::new(); n_streams],
        }
    }

    /// First existing timestamp of a `window`-item request ending at
    /// `now`: items are stamped 1, 2, ..., so requests reaching past the
    /// start of time are clipped to the items that exist.
    fn window_start(now: u64, window: u32) -> u64 {
        now.saturating_sub(u64::from(window) - 1).max(1)
    }

    /// Index range of the held items of `set` within `lo..=hi`.
    fn span(set: &[u64], lo: u64, hi: u64) -> (usize, usize) {
        (
            set.partition_point(|&t| t < lo),
            set.partition_point(|&t| t <= hi),
        )
    }

    /// Number of items of stream `k` that a window of `window` items
    /// ending at timestamp `now` would still need to pull (counting only
    /// items that exist; a window larger than the stream's history is
    /// clipped, matching the engine which never evaluates such windows).
    pub fn missing(&self, k: StreamId, now: u64, window: u32) -> u32 {
        if now == 0 {
            return 0;
        }
        let lo = Self::window_start(now, window);
        let requested = (now - lo + 1) as u32;
        let (a, b) = Self::span(&self.held[k.0], lo, now);
        requested - (b - a) as u32
    }

    /// Records that the window of `window` items ending at `now` has been
    /// fully acquired.
    pub fn insert_window(&mut self, k: StreamId, now: u64, window: u32) {
        if now == 0 {
            return;
        }
        let lo = Self::window_start(now, window);
        let set = &mut self.held[k.0];
        let (a, b) = Self::span(set, lo, now);
        let wanted = (now - lo + 1) as usize;
        if b - a == wanted {
            return;
        }
        // Widen the held run `a..b` to the whole window in place: shift
        // the tail right, then restamp the gap.
        let len = set.len();
        let grow = wanted - (b - a);
        set.resize(len + grow, 0);
        set.copy_within(b..len, b + grow);
        for (slot, t) in set[a..a + wanted].iter_mut().zip(lo..=now) {
            *slot = t;
        }
    }

    /// Drops items of stream `k` older than `horizon` (exclusive).
    pub fn prune(&mut self, k: StreamId, horizon: u64) {
        let set = &mut self.held[k.0];
        let cut = set.partition_point(|&t| t < horizon);
        set.drain(..cut);
    }

    /// Forgets everything (keeping every stream's capacity).
    pub fn clear(&mut self) {
        for set in &mut self.held {
            set.clear();
        }
    }

    /// Number of items currently held for stream `k`.
    pub fn held_count(&self, k: StreamId) -> usize {
        self.held[k.0].len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: StreamId = StreamId(0);

    #[test]
    fn missing_counts_only_window_gaps() {
        let mut m = DeviceMemory::new(1);
        assert_eq!(m.missing(A, 100, 5), 5);
        m.insert_window(A, 100, 5); // holds 96..=100
        assert_eq!(m.missing(A, 100, 5), 0);
        assert_eq!(m.missing(A, 100, 10), 5); // needs 91..=100, has 5
                                              // next tick: window shifts by one
        assert_eq!(m.missing(A, 101, 5), 1);
    }

    #[test]
    fn overlapping_windows_share_items() {
        let mut m = DeviceMemory::new(1);
        m.insert_window(A, 100, 2); // 99, 100
        m.insert_window(A, 100, 6); // 95..=100
        assert_eq!(m.held_count(A), 6);
        assert_eq!(m.missing(A, 100, 6), 0);
    }

    #[test]
    fn prune_drops_stale_items() {
        let mut m = DeviceMemory::new(1);
        m.insert_window(A, 100, 10); // 91..=100
        m.prune(A, 96);
        assert_eq!(m.held_count(A), 5); // 96..=100
        assert_eq!(m.missing(A, 100, 10), 5);
    }

    #[test]
    fn clear_forgets_everything() {
        let mut m = DeviceMemory::new(2);
        m.insert_window(A, 10, 3);
        m.insert_window(StreamId(1), 10, 2);
        m.clear();
        assert_eq!(m.held_count(A), 0);
        assert_eq!(m.held_count(StreamId(1)), 0);
    }

    #[test]
    fn early_timestamps_clip_to_existing_items() {
        let mut m = DeviceMemory::new(1);
        // now = 2 with window 5: only items 1 and 2 exist.
        assert_eq!(m.missing(A, 2, 5), 2);
        m.insert_window(A, 2, 5);
        assert_eq!(m.held_count(A), 2);
        assert_eq!(m.missing(A, 2, 3), 0);
        assert_eq!(m.missing(A, 2, 5), 0);
        // before any item exists, nothing can be missing
        assert_eq!(m.missing(A, 0, 4), 0);
    }
}
