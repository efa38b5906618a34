//! Named-instrument registry with Prometheus-text and JSON exposition.
//!
//! Registration (name → instrument) takes a mutex once per handle lookup;
//! recording through the returned `Arc` handles is lock-free. Callers cache
//! handles (in structs or `OnceLock`s), so the mutex is off every hot path.

use crate::metrics::{Counter, Gauge, HistogramSnapshot, LogHistogram, BUCKETS};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

#[derive(Default)]
struct Instruments {
    counters: BTreeMap<String, Arc<Counter>>,
    gauges: BTreeMap<String, Arc<Gauge>>,
    histograms: BTreeMap<String, Arc<LogHistogram>>,
    help: BTreeMap<String, String>,
}

/// Escape a `# HELP` text per the Prometheus exposition format:
/// backslash and newline become `\\` and `\n`.
pub fn escape_help(text: &str) -> String {
    text.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Escape a label value per the Prometheus exposition format:
/// backslash, double-quote and newline become `\\`, `\"` and `\n`.
pub fn escape_label_value(value: &str) -> String {
    value
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// A set of named instruments.
///
/// Each service/component owns its own registry (so tests never share
/// counters); [`global()`] provides the process-wide one used for whole-run
/// exposition (`cote metrics`).
#[derive(Default)]
pub struct Registry {
    inner: Mutex<Instruments>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get-or-register the counter `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut inner = self.inner.lock().unwrap();
        Arc::clone(
            inner
                .counters
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Counter::default())),
        )
    }

    /// Get-or-register the gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut inner = self.inner.lock().unwrap();
        Arc::clone(
            inner
                .gauges
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Gauge::default())),
        )
    }

    /// Get-or-register the histogram `name`.
    pub fn histogram(&self, name: &str) -> Arc<LogHistogram> {
        let mut inner = self.inner.lock().unwrap();
        Arc::clone(
            inner
                .histograms
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(LogHistogram::default())),
        )
    }

    /// Attach a `# HELP` text to instrument `name` (registered or not yet).
    /// Instruments without an explicit description still get a generated
    /// `# HELP` line, so exposition is always complete.
    pub fn describe(&self, name: &str, help: &str) {
        let mut inner = self.inner.lock().unwrap();
        inner.help.insert(name.to_string(), help.to_string());
    }

    /// Get-or-register the counter `name` and attach its `# HELP` text.
    pub fn counter_with_help(&self, name: &str, help: &str) -> Arc<Counter> {
        self.describe(name, help);
        self.counter(name)
    }

    /// Get-or-register the gauge `name` and attach its `# HELP` text.
    pub fn gauge_with_help(&self, name: &str, help: &str) -> Arc<Gauge> {
        self.describe(name, help);
        self.gauge(name)
    }

    /// Get-or-register the histogram `name` and attach its `# HELP` text.
    pub fn histogram_with_help(&self, name: &str, help: &str) -> Arc<LogHistogram> {
        self.describe(name, help);
        self.histogram(name)
    }

    fn help_line(inner: &Instruments, name: &str, kind: &str) -> String {
        let text = inner
            .help
            .get(name)
            .map(|h| escape_help(h))
            .unwrap_or_else(|| format!("cote {kind} {name} (no description registered)"));
        format!("# HELP {name} {text}\n")
    }

    /// Prometheus text exposition: one `# HELP` + `# TYPE` pair per
    /// instrument (help falls back to a generated line when no description
    /// was registered); histogram buckets are cumulative with `le` labels
    /// in seconds; help text and label values are escaped per the format.
    pub fn prometheus_text(&self) -> String {
        let inner = self.inner.lock().unwrap();
        let mut out = String::new();
        for (name, c) in &inner.counters {
            out.push_str(&Self::help_line(&inner, name, "counter"));
            out.push_str(&format!("# TYPE {name} counter\n{name} {}\n", c.get()));
        }
        for (name, g) in &inner.gauges {
            out.push_str(&Self::help_line(&inner, name, "gauge"));
            out.push_str(&format!("# TYPE {name} gauge\n{name} {}\n", g.get()));
        }
        for (name, h) in &inner.histograms {
            let s = h.snapshot();
            out.push_str(&Self::help_line(&inner, name, "histogram"));
            out.push_str(&format!("# TYPE {name} histogram\n"));
            let last = s
                .buckets()
                .iter()
                .rposition(|&c| c > 0)
                .map_or(0, |i| i + 1);
            let mut cum = 0u64;
            for i in 0..last.min(BUCKETS - 1) {
                cum += s.buckets()[i];
                let le = HistogramSnapshot::bucket_bound_nanos(i) as f64 / 1e9;
                let le = escape_label_value(&le.to_string());
                out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cum}\n"));
            }
            out.push_str(&format!(
                "{name}_bucket{{le=\"+Inf\"}} {}\n{name}_sum {}\n{name}_count {}\n",
                s.count(),
                s.sum_nanos() as f64 / 1e9,
                s.count()
            ));
        }
        out
    }

    /// JSON exposition: counters and gauges by value, histograms as
    /// `{count, sum_ns, p50_ns, p95_ns, p99_ns, mean_ns}` summaries.
    pub fn json(&self) -> String {
        let inner = self.inner.lock().unwrap();
        let mut out = String::from("{\"counters\":{");
        for (i, (name, c)) in inner.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{name}\":{}", c.get()));
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, g)) in inner.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{name}\":{}", g.get()));
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in inner.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let s = h.snapshot();
            let (p50, p95, p99) = s.percentiles();
            out.push_str(&format!(
                "\"{name}\":{{\"count\":{},\"sum_ns\":{},\"p50_ns\":{},\"p95_ns\":{},\
                 \"p99_ns\":{},\"mean_ns\":{}}}",
                s.count(),
                s.sum_nanos(),
                p50.as_nanos(),
                p95.as_nanos(),
                p99.as_nanos(),
                s.mean().as_nanos()
            ));
        }
        out.push_str("}}");
        out
    }
}

/// The process-wide registry. Components that want their numbers visible in
/// `cote metrics` (optimizer plan counters, estimator run counters)
/// register here; per-service registries stay
/// independent so concurrent daemons and tests never share instruments.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::default)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn get_or_register_returns_the_same_instrument() {
        let r = Registry::new();
        r.counter("a_total").add(2);
        r.counter("a_total").add(3);
        assert_eq!(r.counter("a_total").get(), 5);
        r.gauge("depth").set(7);
        assert_eq!(r.gauge("depth").get(), 7);
        r.histogram("lat").record(Duration::from_micros(3));
        assert_eq!(r.histogram("lat").count(), 1);
    }

    #[test]
    fn prometheus_text_renders_all_kinds() {
        let r = Registry::new();
        r.counter("requests_total").add(4);
        r.gauge("queue_depth").set(-1);
        r.histogram("latency").record(Duration::from_nanos(700));
        let text = r.prometheus_text();
        assert!(text.contains("# TYPE requests_total counter\nrequests_total 4\n"));
        assert!(text.contains("# TYPE queue_depth gauge\nqueue_depth -1\n"));
        assert!(text.contains("# TYPE latency histogram\n"));
        // Every instrument gets a # HELP line even without a description.
        assert!(text.contains("# HELP requests_total "));
        assert!(text.contains("# HELP queue_depth "));
        assert!(text.contains("# HELP latency "));
        // 700ns lands in bucket [512, 1024): the le="0.000001024" line is
        // the first cumulative bucket reaching 1.
        assert!(
            text.contains("latency_bucket{le=\"0.000001024\"} 1\n"),
            "{text}"
        );
        assert!(text.contains("latency_bucket{le=\"+Inf\"} 1\n"));
        assert!(text.contains("latency_count 1\n"));
    }

    #[test]
    fn json_renders_all_kinds() {
        let r = Registry::new();
        r.counter("hits_total").inc();
        r.histogram("lat").record(Duration::from_micros(10));
        let json = r.json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"hits_total\":1"));
        assert!(json.contains("\"lat\":{\"count\":1"));
        assert!(json.contains("\"gauges\":{}"));
    }

    #[test]
    fn described_instruments_use_their_help_text() {
        let r = Registry::new();
        r.counter_with_help("hits_total", "Cache hits.").inc();
        r.gauge_with_help("depth", "Queue\ndepth \\ now").set(3);
        let text = r.prometheus_text();
        assert!(text.contains("# HELP hits_total Cache hits.\n# TYPE hits_total counter\n"));
        // Newlines and backslashes in help text are escaped.
        assert!(text.contains("# HELP depth Queue\\ndepth \\\\ now\n"));
    }

    #[test]
    fn help_and_type_precede_every_sample() {
        let r = Registry::new();
        r.counter("a_total").inc();
        r.gauge("b").set(1);
        r.histogram("c").record(Duration::from_micros(5));
        let text = r.prometheus_text();
        let mut described = std::collections::BTreeSet::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# HELP ") {
                described.insert(rest.split(' ').next().unwrap().to_string());
            } else if !line.starts_with('#') {
                let family = line
                    .split([' ', '{'])
                    .next()
                    .unwrap()
                    .trim_end_matches("_bucket")
                    .trim_end_matches("_sum")
                    .trim_end_matches("_count");
                assert!(described.contains(family), "sample before HELP: {line}");
            }
        }
    }

    #[test]
    fn escaping_rules() {
        assert_eq!(escape_help("a\\b\nc"), "a\\\\b\\nc");
        assert_eq!(escape_label_value("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_label_value("0.000001024"), "0.000001024");
    }

    #[test]
    fn global_registry_is_shared() {
        let c = global().counter("obs_registry_test_total");
        let before = c.get();
        global().counter("obs_registry_test_total").inc();
        assert_eq!(c.get(), before + 1);
    }
}
