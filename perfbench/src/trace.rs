//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own code around calls into each
//! layer's public functions: name, start, end, the span that caused it,
//! and a request id shared by the spans of one request. They stay in
//! memory until the run ends, when [`Tracer::write`] dumps them with each
//! span's self time (its duration minus the part of it that its child
//! spans cover).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// No parent span.
pub const ROOT: u64 = 0;

#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            next_id: AtomicU64::new(ROOT + 1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a new span and returns its result and wall time in
    /// milliseconds. `f` receives the span id, to parent nested spans. A
    /// span given `ROOT` as its request starts a request of its own: its
    /// id becomes the request id.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: u64,
        request: u64,
        f: impl FnOnce(u64) -> T,
    ) -> (T, f64) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let request = if request == ROOT { id } else { request };
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.spans
            .lock()
            .expect("span list lock poisoned by a panicking recorder")
            .push(SpanRecord {
                id,
                parent,
                request,
                name,
                start_ns,
                end_ns,
            });
        (out, (end_ns - start_ns) as f64 / 1e6)
    }

    pub fn len(&self) -> usize {
        self.spans
            .lock()
            .expect("span list lock poisoned by a panicking recorder")
            .len()
    }

    /// Writes every span with its self time, plus a per-name summary, as
    /// one JSON document.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        let spans = self
            .spans
            .lock()
            .expect("span list lock poisoned by a panicking recorder")
            .clone();
        let self_ns = self_times(&spans);
        let mut summary: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        let mut out = String::from("{\"spans\":[\n");
        for (i, (s, own)) in spans.iter().zip(&self_ns).enumerate() {
            let entry = summary.entry(s.name).or_default();
            entry.0 += 1;
            entry.1 += s.end_ns - s.start_ns;
            entry.2 += own;
            let sep = if i + 1 == spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}{sep}",
                s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns, own
            );
        }
        out.push_str("],\"summary\":{\n");
        for (i, (name, (count, total, own))) in summary.iter().enumerate() {
            let sep = if i + 1 == summary.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "\"{name}\":{{\"count\":{count},\"total_ms\":{},\"self_ms\":{}}}{sep}",
                *total as f64 / 1e6,
                *own as f64 / 1e6
            );
        }
        out.push_str("}}\n");
        std::fs::write(path, out)
    }
}

/// Self time of each span: its duration minus the union of its children's
/// intervals clipped to it. Children may run on other threads and
/// overlap each other; the union counts each covered instant once.
fn self_times(spans: &[SpanRecord]) -> Vec<u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != ROOT) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cursor = s.start_ns;
                for &(start, end) in kids.iter() {
                    let (start, end) = (start.max(cursor), end.min(s.end_ns));
                    if end > start {
                        covered += end - start;
                        cursor = end;
                    }
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            request: 1,
            name: "x",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = [
            span(1, ROOT, 0, 100),
            // Two overlapping children on different threads cover 10..60.
            span(2, 1, 10, 50),
            span(3, 1, 30, 60),
            // A child running past its parent's end is clipped.
            span(4, 1, 90, 120),
        ];
        assert_eq!(self_times(&spans), vec![100 - 50 - 10, 40, 30, 30]);
    }
}
