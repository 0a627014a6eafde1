//! In-memory spans around the public calls the traced run makes.
//!
//! A span is `(name, start, end, parent, request)`: `parent` is the id of
//! the enclosing span (`0` for a root) and `request` the id of the
//! end-to-end operation it belongs to. Roots are the operations a client
//! observes (`op.*`); their children are the layer calls made on the
//! operation's path, or replays of them the benchmark makes on the same
//! inputs right after the operation. Side measurements that are not part
//! of an operation's path (an answer check, a full coverage scan) are roots
//! of their own, named after the layer.
//!
//! Spans are pushed under a mutex — the router's fan-out threads record
//! into the same tracer — and written out as JSON lines at the end of the
//! run.

use std::io::Write;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Span id (`≥ 1`).
    pub id: u32,
    /// Layer call or operation name.
    pub name: &'static str,
    /// Start, ns since origin.
    pub start: u64,
    /// End, ns since origin.
    pub end: u64,
    /// Enclosing span id, `0` for a root.
    pub parent: u32,
    /// The end-to-end operation this span belongs to.
    pub request: u64,
}

impl Span {
    /// Duration in microseconds.
    #[must_use]
    pub fn micros(&self) -> f64 {
        (self.end - self.start) as f64 / 1e3
    }
}

/// An open span; close it with [`Tracer::close`].
#[derive(Debug, Clone, Copy)]
pub struct Open {
    /// The id children name as their parent.
    pub id: u32,
    name: &'static str,
    start: u64,
    parent: u32,
    request: u64,
}

/// The span recorder of one traced run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::with_capacity(1 << 16)),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Nanoseconds since origin of an instant taken elsewhere.
    #[must_use]
    pub fn at(&self, instant: Instant) -> u64 {
        instant.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Open a span now.
    pub fn open(&self, name: &'static str, parent: u32, request: u64) -> Open {
        self.open_at(name, parent, request, self.now())
    }

    /// Open a span that started at `start` (ns since origin) — an
    /// open-loop operation starts at its scheduled send time.
    pub fn open_at(&self, name: &'static str, parent: u32, request: u64, start: u64) -> Open {
        Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            name,
            start,
            parent,
            request,
        }
    }

    /// Close `open` now and keep it; returns its duration in microseconds.
    pub fn close(&self, open: Open) -> f64 {
        let span = Span {
            id: open.id,
            name: open.name,
            start: open.start,
            end: self.now().max(open.start),
            parent: open.parent,
            request: open.request,
        };
        let micros = span.micros();
        self.spans.lock().expect("span buffer poisoned").push(span);
        micros
    }

    /// Run `f` inside a span.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: u32,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.open(name, parent, request);
        let value = f();
        self.close(open);
        value
    }

    /// Every closed span, in close order.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer poisoned").clone()
    }

    /// Durations (µs) of every span named `name`.
    #[must_use]
    pub fn micros_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span buffer poisoned")
            .iter()
            .filter(|s| s.name == name)
            .map(Span::micros)
            .collect()
    }

    /// Median duration (µs) of the spans named `name`, `0` if none.
    #[must_use]
    pub fn median_micros(&self, name: &str) -> f64 {
        crate::median(&self.micros_of(name))
    }

    /// Percentage of root operation time (`op.*` spans) that the
    /// operation's layer spans do not account for:
    /// (Σ root − Σ attributed) ÷ Σ root × 100, signed. A root's attributed
    /// time is the total length of the union of its direct children — both
    /// the layer calls made on its path (the open-loop generator's lag, a
    /// router's shard legs, which overlap and are not double-counted) and
    /// the layer calls the benchmark replays on the same inputs right after
    /// the operation (an engine call, a codec round, a no-op round trip).
    /// A replay is timed on its own, so the residual is a real check that
    /// the layer times add up to the end-to-end time: negative when the
    /// layers, measured alone, took longer than the whole operation.
    #[must_use]
    pub fn unattributed_pct(&self) -> f64 {
        let spans = self.spans();
        let mut children: std::collections::HashMap<u32, Vec<(u64, u64)>> =
            std::collections::HashMap::new();
        for s in &spans {
            if s.parent != 0 {
                children.entry(s.parent).or_default().push((s.start, s.end));
            }
        }
        let (mut total, mut attributed) = (0u64, 0u64);
        for root in spans
            .iter()
            .filter(|s| s.parent == 0 && s.name.starts_with("op."))
        {
            let mut intervals = children.remove(&root.id).unwrap_or_default();
            intervals.sort_unstable();
            let mut cursor = 0u64;
            for (start, end) in intervals {
                let start = start.max(cursor);
                if end > start {
                    attributed += end - start;
                    cursor = end;
                }
            }
            total += root.end - root.start;
        }
        if total == 0 {
            return 0.0;
        }
        (total as f64 - attributed as f64) / total as f64 * 100.0
    }

    /// Write every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Fails when the file cannot be written.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                s.id, s.name, s.start, s.end, s.parent, s.request
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span {
            id,
            name,
            start,
            end,
            parent,
            request: 1,
        }
    }

    #[test]
    fn unattributed_time_merges_overlapping_children() {
        let tracer = Tracer::new();
        tracer.spans.lock().unwrap().extend([
            span(1, "op.top_k", 0, 100, 0),
            // Two concurrent legs covering 10..60.
            span(2, "shard.gains", 10, 40, 1),
            span(3, "shard.gains", 30, 60, 1),
            // A replay after the operation: 20 more.
            span(4, "engine.gains", 120, 140, 1),
            // Side measurements are roots that are not operations.
            span(5, "engine.gains", 0, 1_000, 0),
        ]);
        // Attributed: 50 + 20 = 70 of 100.
        assert!((tracer.unattributed_pct() - 30.0).abs() < 1e-9);
        // Layers that, replayed alone, outlast the operation give a
        // negative residual.
        tracer
            .spans
            .lock()
            .unwrap()
            .push(span(6, "oracle.greedy", 200, 260, 1));
        assert!((tracer.unattributed_pct() + 30.0).abs() < 1e-9);
    }

    #[test]
    fn spans_close_in_order_with_their_parent() {
        let tracer = Tracer::new();
        let root = tracer.open("op.estimate", 0, 7);
        let value = tracer.time("engine.estimate", root.id, 7, || 42);
        tracer.close(root);
        assert_eq!(value, 42);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, spans[1].id);
        assert!(spans[1].start <= spans[0].start && spans[0].end <= spans[1].end);
        assert!(tracer.unattributed_pct().abs() <= 100.0);
    }
}
