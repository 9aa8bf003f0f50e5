//! The traced run's instruments: an allocation counter and an
//! in-memory span recorder. Spans are recorded around the benchmark's
//! own calls into each crate; nothing inside the program is touched.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// The system allocator, counting allocations while [`count_allocs`]
/// is on. The counters are statistics and publish no other data, so
/// they use relaxed ordering.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter touches no
// allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr` came from this allocator, which hands out
        // `System` blocks; the caller's guarantees pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Switches allocation counting on or off (the traced run only).
pub fn count_allocs(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations counted so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// One timed call: `parent` indexes the span that caused it in the
/// same [`Tracer`]; `req` is the tick number or probe sequence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Layer name, as the per-layer metrics use it.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start: u64,
    /// End, ns since the tracer's origin.
    pub end: u64,
    /// The causing span, if any.
    pub parent: Option<usize>,
    /// Request id.
    pub req: u64,
}

/// An in-memory span log; records nothing while off.
pub struct Tracer {
    origin: Instant,
    on: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose timestamps count from `origin`.
    pub fn new(origin: Instant, on: bool) -> Tracer {
        Tracer {
            origin,
            on,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span from `start` to `end`; returns its index while on.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        req: u64,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let span = Span {
            name,
            start: self.ns(start),
            end: self.ns(end),
            parent,
            req,
        };
        self.spans.push(span);
        Some(self.spans.len() - 1)
    }

    /// Total self time per layer name, in ns.
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        self_times(&self.spans)
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start, s.end, s.req
            )?;
        }
        out.flush()
    }
}

/// A span's self time is its duration minus the part of it its
/// children cover (overlapping children count once).
fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    let mut out = BTreeMap::new();
    for (s, kids) in spans.iter().zip(&mut children) {
        kids.sort_unstable();
        let (mut covered, mut reach) = (0, s.start);
        for &(a, b) in kids.iter() {
            let (a, b) = (a.max(reach), b.min(s.end));
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        *out.entry(s.name).or_insert(0) += (s.end - s.start).saturating_sub(covered);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let span = |name, start, end, parent| Span {
            name,
            start,
            end,
            parent,
            req: 7,
        };
        let spans = [
            span("tick", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 50, Some(0)),  // overlaps a: 10..50 covered once
            span("c", 90, 120, Some(0)), // clipped at the parent's end
            span("a", 200, 210, None),
        ];
        let t = self_times(&spans);
        assert_eq!(t["tick"], 100 - 40 - 10);
        assert_eq!(t["a"], 30 + 10);
        assert_eq!((t["b"], t["c"]), (20, 30));
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let t0 = Instant::now();
        let mut off = Tracer::new(t0, false);
        assert_eq!(off.record("x", t0, t0, None, 0), None);
        let mut on = Tracer::new(t0, true);
        let root = on.record("y", t0, t0, None, 1);
        assert_eq!(on.record("z", t0, t0, root, 1), Some(1));
        assert_eq!(on.spans[1].parent, Some(0));
    }
}
