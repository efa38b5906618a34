//! Spans recorded in the benchmark's own memory around each call into a
//! layer, written out as JSON lines when the run ends.

use crate::reference::Reference;
use std::io::Write;
use std::time::Instant;

/// Index of a span in its [`Tracer`]; `NONE` when tracing is off or the span
/// has no parent.
pub type SpanId = u32;
pub const NONE: SpanId = u32::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    /// Spans of one request share this identifier.
    pub request: u64,
}

/// One thread's span buffer. Threads share the epoch and are merged with
/// [`Tracer::absorb`].
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// A buffer for another thread, on the same clock.
    pub fn fork(&self) -> Self {
        Self {
            on: self.on,
            epoch: self.epoch,
            spans: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn start(&mut self, name: &'static str, parent: SpanId, request: u64) -> SpanId {
        if !self.on {
            return NONE;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        (self.spans.len() - 1) as SpanId
    }

    pub fn end(&mut self, id: SpanId) {
        if id != NONE {
            self.spans[id as usize].end_ns = self.now_ns();
        }
    }

    /// Name a span after the fact, once the outcome of the call is known.
    pub fn rename(&mut self, id: SpanId, name: &'static str) {
        if id != NONE {
            self.spans[id as usize].name = name;
        }
    }

    /// Time `f` as a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.start(name, parent, request);
        let r = f();
        self.end(id);
        r
    }

    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as SpanId;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NONE {
                s.parent += base;
            }
            s
        }));
    }

    /// Durations of every span called `name`, in reference microseconds.
    pub fn durations_us(&self, name: &str, reference: &Reference) -> Vec<f64> {
        let at = |ns| self.epoch + std::time::Duration::from_nanos(ns);
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| {
                (s.end_ns - s.start_ns) as f64 / 1e3 * reference.speed(at(s.start_ns), at(s.end_ns))
            })
            .collect()
    }

    /// Self time per span: its duration minus what its children cover.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if s.parent != NONE {
                let p = s.parent as usize;
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, own)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let parent = if s.parent == NONE {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_off_records_nothing() {
        let mut t = Tracer::new(true);
        let root = t.start("root", NONE, 7);
        let child = t.start("child", root, 7);
        t.end(child);
        t.end(root);
        t.spans[0].end_ns = t.spans[0].start_ns + 100;
        t.spans[1].start_ns = t.spans[0].start_ns + 10;
        t.spans[1].end_ns = t.spans[1].start_ns + 30;
        assert_eq!(t.self_ns(), vec![70, 30]);

        let mut other = t.fork();
        let r2 = other.start("root", NONE, 8);
        let c2 = other.start("child", r2, 8);
        other.end(c2);
        other.end(r2);
        t.absorb(other);
        assert_eq!(t.spans[3].parent, 2);

        let mut off = Tracer::new(false);
        let id = off.start("x", NONE, 0);
        off.end(id);
        assert_eq!(off.len(), 0);
    }
}
