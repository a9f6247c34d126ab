//! In-memory spans recorded around calls into the program's layers.
//!
//! A span is `(name, start, end, parent)`; spans live in memory for the whole
//! traced run and are written out once, at the end, as a Chrome trace
//! (`chrome://tracing` / Perfetto) so no I/O lands inside a timed region.

use std::fmt::Write as _;
use std::ops::Range;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    pub end_ns: u64,
    /// The simulated device the call ran for, if any.
    pub device: Option<usize>,
}

impl Span {
    pub fn wall_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Thread-safe span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("span recorder poisoned by a panicking traced call")
    }

    /// Run `f` inside a span; `f` receives the span's id to pass on as the
    /// parent of nested calls (possibly on other threads).
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        device: Option<usize>,
        f: impl FnOnce(usize) -> R,
    ) -> R {
        let id = {
            let mut spans = self.lock();
            let id = spans.len();
            spans.push(Span {
                id,
                parent,
                name,
                start_ns: 0,
                end_ns: 0,
                device,
            });
            id
        };
        let start = self.now_ns();
        let out = f(id);
        let end = self.now_ns();
        let mut spans = self.lock();
        spans[id].start_ns = start;
        spans[id].end_ns = end;
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }

    /// Write every span as a Chrome trace (`X` complete events; one track
    /// per simulated device, host calls on track 0).
    pub fn write_chrome_trace(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("{\"traceEvents\": [\n");
        for (i, s) in self.spans().iter().enumerate() {
            let sep = if i == 0 { "" } else { ",\n" };
            let tid = s.device.map_or(0, |d| d + 1);
            let parent = s.parent.map_or(-1, |p| p as i64);
            write!(
                out,
                "{sep}{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {tid}, \
                 \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {}, \"parent\": {parent}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.id
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Summed duration (busy time, over every device) of the spans named `name`.
pub fn busy_s(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::wall_s)
        .sum()
}

/// Number of spans named `name`.
pub fn count(spans: &[Span], name: &str) -> u64 {
    spans.iter().filter(|s| s.name == name).count() as u64
}

/// Summed self time of the spans named `name`: each span's duration minus
/// the part of its interval covered by the union of its children.
pub fn self_s(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| {
            let children: Vec<Range<u64>> = spans
                .iter()
                .filter(|c| c.parent == Some(s.id))
                .map(|c| c.start_ns.max(s.start_ns)..c.end_ns.min(s.end_ns))
                .collect();
            (s.end_ns - s.start_ns - covered_ns(children)) as f64 * 1e-9
        })
        .sum()
}

/// Length of the union of `intervals`.
pub fn covered_ns(mut intervals: Vec<Range<u64>>) -> u64 {
    intervals.retain(|r| r.end > r.start);
    intervals.sort_by_key(|r| r.start);
    let mut total = 0;
    let mut current: Option<Range<u64>> = None;
    for r in intervals {
        match &mut current {
            Some(c) if r.start <= c.end => c.end = c.end.max(r.end),
            _ => {
                if let Some(c) = current.take() {
                    total += c.end - c.start;
                }
                current = Some(r);
            }
        }
    }
    total + current.map_or(0, |c| c.end - c.start)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, name: &'static str, r: Range<u64>) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns: r.start,
            end_ns: r.end,
            device: None,
        }
    }

    #[test]
    fn union_merges_overlaps_and_drops_empty_intervals() {
        assert_eq!(covered_ns(vec![]), 0);
        assert_eq!(covered_ns(vec![0..10, 5..15, 20..25, 30..30]), 20);
        assert_eq!(covered_ns(vec![20..25, 0..10, 10..12]), 17);
    }

    #[test]
    fn self_time_subtracts_parallel_children_once() {
        // Two children on different threads overlap inside the parent.
        let spans = vec![
            span(0, None, "iteration", 0..100),
            span(1, Some(0), "sample", 10..60),
            span(2, Some(0), "sample", 30..80),
            span(3, Some(0), "sync", 85..95),
        ];
        assert!((self_s(&spans, "iteration") - 20e-9).abs() < 1e-15);
        assert!((busy_s(&spans, "sample") - 100e-9).abs() < 1e-15);
        assert_eq!(count(&spans, "sample"), 2);
    }

    #[test]
    fn spans_nest_through_explicit_parents() {
        let tracer = Tracer::new();
        tracer.span("outer", None, None, |outer| {
            std::thread::scope(|s| {
                s.spawn(|| tracer.span("inner", Some(outer), Some(3), |_| ()));
            });
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].device, Some(3));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }
}
