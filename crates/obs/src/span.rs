//! Nested phase spans with a thread-local trace buffer.
//!
//! `Span::enter("compile")` starts a phase; dropping or `close()`-ing it
//! stops the clock and returns a [`SpanTiming`] carrying both the total
//! duration and the *self* time (total minus time spent in child spans).
//! Spans must close in LIFO order (the natural order for RAII values).
//!
//! Recording is thread-local: a depth stack for self-time accounting and —
//! only when [`set_tracing`]`(true)` — a bounded buffer of [`TraceEvent`]s
//! drained with [`take_events`]. When tracing is off (the default) a closed
//! span costs the stack bookkeeping plus one relaxed atomic load. A
//! [`TraceSink`] collects several threads' buffers under one cap.

use crate::trace::TraceEvent;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Hard cap on the per-thread trace buffer; events past it are counted in
/// [`dropped_events`] instead of growing memory without bound.
const MAX_THREAD_EVENTS: usize = 1 << 16;
/// Events a [`TraceSink`] holds before the front-end drains it; past it
/// events are counted as dropped.
const MAX_SINK_EVENTS: usize = 1 << 16;

static TRACING: AtomicBool = AtomicBool::new(false);
static DROPPED: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// One child-time accumulator per open span.
    static STACK: RefCell<Vec<Duration>> = const { RefCell::new(Vec::new()) };
    static BUFFER: RefCell<Vec<TraceEvent>> = const { RefCell::new(Vec::new()) };
    static CONTEXT: RefCell<(u64, String)> = const { RefCell::new((0, String::new())) };
    /// Time origin for `start_ns`: the first span entered on this thread.
    static EPOCH: Cell<Option<Instant>> = const { Cell::new(None) };
}

/// What closing a span measured.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTiming {
    /// Wall-clock time from enter to close.
    pub total: Duration,
    /// `total` minus time spent in child spans (saturating).
    pub self_time: Duration,
}

/// Globally enable/disable trace-event collection (spans still time either
/// way; this only gates the JSONL buffer).
pub fn set_tracing(on: bool) {
    TRACING.store(on, Ordering::Relaxed);
}

/// Is trace-event collection enabled?
pub fn tracing_enabled() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// Events discarded because a thread buffer hit its cap (process-wide).
pub fn dropped_events() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

/// Tag subsequent spans on this thread with an estimator run id and a
/// query id; both land on every flushed [`TraceEvent`].
pub fn set_context(run: u64, query: &str) {
    CONTEXT.with(|c| *c.borrow_mut() = (run, query.to_string()));
}

/// Reset this thread's span context to `(0, "")`.
pub fn clear_context() {
    CONTEXT.with(|c| *c.borrow_mut() = (0, String::new()));
}

/// Drain this thread's buffered trace events.
pub fn take_events() -> Vec<TraceEvent> {
    BUFFER.with(|b| std::mem::take(&mut *b.borrow_mut()))
}

/// An open phase span (RAII: closes on drop if not closed explicitly).
#[must_use = "a span measures the scope it lives in"]
pub struct Span {
    name: &'static str,
    start: Instant,
    fields: Vec<(&'static str, u64)>,
    closed: bool,
}

impl Span {
    /// Start a span named `name` (a phase from the DESIGN.md taxonomy).
    pub fn enter(name: &'static str) -> Self {
        let start = Instant::now();
        EPOCH.with(|e| {
            if e.get().is_none() {
                e.set(Some(start));
            }
        });
        STACK.with(|s| s.borrow_mut().push(Duration::ZERO));
        Span {
            name,
            start,
            fields: Vec::new(),
            closed: false,
        }
    }

    /// Attach a numeric field (plan count, MEMO entries, …).
    pub fn record(&mut self, key: &'static str, value: u64) {
        self.fields.push((key, value));
    }

    /// Stop the clock and return the measured timing.
    pub fn close(mut self) -> SpanTiming {
        self.finish()
    }

    fn finish(&mut self) -> SpanTiming {
        self.closed = true;
        let total = self.start.elapsed();
        let (child, depth) = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let child = s.pop().unwrap_or(Duration::ZERO);
            if let Some(parent) = s.last_mut() {
                *parent += total;
            }
            (child, s.len())
        });
        let self_time = total.saturating_sub(child);
        if TRACING.load(Ordering::Relaxed) {
            let start_ns = EPOCH.with(|e| {
                e.get()
                    .map_or(Duration::ZERO, |epoch| {
                        self.start.saturating_duration_since(epoch)
                    })
                    .as_nanos() as u64
            });
            let (run, query) = CONTEXT.with(|c| c.borrow().clone());
            BUFFER.with(|b| {
                let mut b = b.borrow_mut();
                if b.len() < MAX_THREAD_EVENTS {
                    b.push(TraceEvent {
                        run,
                        query,
                        phase: self.name.to_string(),
                        depth: depth as u64,
                        start_ns,
                        dur_ns: total.as_nanos() as u64,
                        self_ns: self_time.as_nanos() as u64,
                        fields: self
                            .fields
                            .iter()
                            .map(|(k, v)| (k.to_string(), *v))
                            .collect(),
                    });
                } else {
                    DROPPED.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        SpanTiming { total, self_time }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.closed {
            self.finish();
        }
    }
}

/// A bounded, drop-counting collector for trace events from many threads
/// (service workers, network loops). Each thread moves its own buffer in
/// with [`flush_thread`](Self::flush_thread); a front-end drains the lot
/// with [`take`](Self::take). At most 65,536 events are held; the rest are
/// counted, never stored.
#[derive(Debug)]
pub struct TraceSink {
    cap: usize,
    /// Held events and the count dropped since the last `take`.
    state: Mutex<(Vec<TraceEvent>, u64)>,
}

impl Default for TraceSink {
    fn default() -> Self {
        TraceSink {
            cap: MAX_SINK_EVENTS,
            state: Mutex::default(),
        }
    }
}

impl TraceSink {
    /// Move the calling thread's buffered events in (no-op unless tracing
    /// is on).
    pub fn flush_thread(&self) {
        if tracing_enabled() {
            self.extend(take_events());
        }
    }

    /// Keep as many of `events` as fit under the cap; count the rest.
    fn extend(&self, events: Vec<TraceEvent>) {
        if events.is_empty() {
            return;
        }
        let mut state = self.state.lock().unwrap();
        let room = self.cap.saturating_sub(state.0.len());
        let dropped = events.len().saturating_sub(room);
        state.0.extend(events.into_iter().take(room));
        state.1 += dropped as u64;
    }

    /// Drain: `(events, dropped)` since the last call; both reset.
    pub fn take(&self) -> (Vec<TraceEvent>, u64) {
        let mut state = self.state.lock().unwrap();
        (std::mem::take(&mut state.0), std::mem::take(&mut state.1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_timing_and_trace_flush() {
        set_tracing(true);
        set_context(7, "q1");
        let mut outer = Span::enter("outer");
        outer.record("plans", 11);
        let inner = Span::enter("inner");
        std::thread::sleep(Duration::from_millis(2));
        let it = inner.close();
        let ot = outer.close();
        set_tracing(false);
        clear_context();
        assert!(it.total >= Duration::from_millis(2));
        assert!(ot.total >= it.total);
        assert!(ot.self_time <= ot.total - it.total + Duration::from_millis(1));
        let events = take_events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].phase, "inner");
        assert_eq!(events[0].depth, 1);
        assert_eq!(events[0].run, 7);
        assert_eq!(events[1].phase, "outer");
        assert_eq!(events[1].query, "q1");
        assert_eq!(events[1].fields, vec![("plans".to_string(), 11)]);
        assert!(events[1].start_ns <= events[0].start_ns);
    }

    #[test]
    fn dropped_span_still_accounts_to_parent() {
        let parent = Span::enter("parent");
        {
            let _child = Span::enter("child");
            std::thread::sleep(Duration::from_millis(1));
            // dropped, not closed
        }
        let t = parent.close();
        assert!(t.self_time < t.total, "child drop charged the parent");
    }

    #[test]
    fn sink_cap_is_exact_drops_are_counted_and_take_resets() {
        let event = |i: u64| TraceEvent {
            run: i,
            query: String::new(),
            phase: "p".into(),
            depth: 0,
            start_ns: 0,
            dur_ns: 0,
            self_ns: 0,
            fields: Vec::new(),
        };
        let sink = TraceSink {
            cap: 5,
            ..TraceSink::default()
        };
        sink.extend((0..3).map(event).collect());
        sink.extend((3..9).map(event).collect());
        let (events, dropped) = sink.take();
        assert_eq!(
            events.iter().map(|e| e.run).collect::<Vec<_>>(),
            [0, 1, 2, 3, 4]
        );
        assert_eq!(dropped, 4);
        assert_eq!(sink.take(), (Vec::new(), 0), "take resets both");
        // Room frees up again after a take.
        sink.extend((0..2).map(event).collect());
        assert_eq!(sink.take().0.len(), 2);
    }
}
