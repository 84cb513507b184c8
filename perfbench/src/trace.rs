//! In-memory spans around calls into each layer, recorded from the
//! benchmark's own code.
//!
//! A span has a name, start and end, the span that caused it, and the
//! request (tick) it belongs to. Durations are aggregated per name for
//! every span; the spans themselves are kept up to a fixed cap and
//! written out when the run ends. A span's self time is its duration
//! minus the time its child spans cover.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// Spans kept for writing out (a few hundred ticks); later spans are
/// aggregated only.
const KEEP: usize = 50_000;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

struct Open {
    id: u64,
    parent: u64,
    name: &'static str,
    start: Instant,
    child_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    next_id: u64,
    request: u64,
    stack: Vec<Open>,
    spans: Vec<Span>,
    aggs: BTreeMap<&'static str, Agg>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: 1,
            request: 0,
            stack: Vec::new(),
            spans: Vec::with_capacity(KEEP),
            aggs: BTreeMap::new(),
        }
    }
}

impl Tracer {
    /// Spans opened from now on belong to `request`.
    pub fn set_request(&mut self, request: u64) {
        self.request = request;
    }

    pub fn enter(&mut self, name: &'static str) {
        let parent = self.stack.last().map_or(0, |o| o.id);
        let id = self.next_id;
        self.next_id += 1;
        self.stack.push(Open {
            id,
            parent,
            name,
            start: Instant::now(),
            child_ns: 0,
        });
    }

    pub fn exit(&mut self) {
        let end = Instant::now();
        let open = self.stack.pop().expect("exit matches an enter");
        let dur = end.duration_since(open.start).as_nanos() as u64;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        let agg = self.aggs.entry(open.name).or_default();
        agg.count += 1;
        agg.total_ns += dur;
        agg.self_ns += dur.saturating_sub(open.child_ns);
        if self.spans.len() < KEEP {
            let start_ns = open.start.duration_since(self.epoch).as_nanos() as u64;
            self.spans.push(Span {
                id: open.id,
                parent: open.parent,
                request: self.request,
                name: open.name,
                start_ns,
                end_ns: start_ns + dur,
            });
        }
    }

    pub fn agg(&self, name: &str) -> Agg {
        self.aggs.get(name).copied().unwrap_or_default()
    }

    /// Writes the kept spans as CSV to `path`, creating its directory.
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,parent,request,name,start_ns,end_ns")?;
        for s in &self.spans {
            writeln!(
                out,
                "{},{},{},{},{},{}",
                s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::default();
        t.enter("tick");
        t.enter("child");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit();
        t.exit();
        let tick = t.agg("tick");
        let child = t.agg("child");
        assert_eq!(tick.count, 1);
        assert!(child.total_ns >= 2_000_000);
        assert!(tick.total_ns >= child.total_ns);
        assert_eq!(tick.self_ns, tick.total_ns - child.total_ns);
        // Spans are stored as they close: the child first.
        assert_eq!(t.spans[1].parent, 0);
        assert_eq!(t.spans[0].parent, t.spans[1].id);
    }
}
