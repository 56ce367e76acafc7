//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around each call into a
//! library layer, kept in memory, reduced to per-layer self times (a span's
//! duration minus the time its direct children cover) and written once, at
//! the end, as Chrome trace-event JSON. A disabled tracer runs the wrapped
//! closures and records nothing, so the untraced run shares the same code.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use serde::value::Value;

/// One recorded interval, in time since the tracer was created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `"tree.fif"`; per-layer metrics are keyed by it.
    pub name: &'static str,
    /// Start, relative to the tracer's origin.
    pub start: Duration,
    /// End, relative to the tracer's origin.
    pub end: Duration,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Index of the instance the span worked on, if any.
    pub instance: Option<usize>,
    /// Scheduler column the span worked on, if any.
    pub scheduler: Option<usize>,
}

impl Span {
    /// Wall-clock length of the span.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recording tracer.
    pub fn new() -> Tracer {
        Tracer {
            enabled: true,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::new()
        }
    }

    /// Time since the tracer's origin.
    pub fn now(&self) -> Duration {
        self.origin.elapsed()
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` nest in it.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        instance: Option<usize>,
        scheduler: Option<usize>,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            instance,
            scheduler,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.now();
        out
    }

    /// Records an already finished interval inside the innermost open span:
    /// used for the scheduling part of a solve, whose length the library
    /// reports itself.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Duration,
        length: Duration,
        instance: Option<usize>,
        scheduler: Option<usize>,
    ) {
        if self.enabled {
            self.spans.push(Span {
                name,
                start,
                end: start + length,
                parent: self.open.last().copied(),
                instance,
                scheduler,
            });
        }
    }

    /// Every recorded span, in the order they were opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Number of spans per name.
    pub fn counts(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name).or_insert(0) += 1;
        }
        out
    }

    /// Summed self time per span name: each span's duration minus the
    /// durations of its direct children (which never overlap, the tracer
    /// being single-threaded).
    pub fn self_times(&self) -> BTreeMap<&'static str, Duration> {
        let mut child_time = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.duration();
            }
        }
        let mut out = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_time) {
            *out.entry(s.name).or_insert(Duration::ZERO) += s.duration().saturating_sub(covered);
        }
        out
    }

    /// Summed duration (self time plus children) per span name.
    pub fn total_times(&self) -> BTreeMap<&'static str, Duration> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name).or_insert(Duration::ZERO) += s.duration();
        }
        out
    }

    /// The spans as a Chrome trace-event document (complete `"X"` events,
    /// microsecond timestamps), loadable in `chrome://tracing` or Perfetto.
    pub fn chrome_json(&self, instances: &[String], schedulers: &[String]) -> Value {
        let micros = |d: Duration| Value::F64(d.as_secs_f64() * 1e6);
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let mut args = Value::object().with("id", Value::U64(id as u64));
                if let Some(p) = s.parent {
                    args.set("parent", Value::U64(p as u64));
                }
                if let Some(name) = s.instance.and_then(|i| instances.get(i)) {
                    args.set("instance", Value::Str(name.clone()));
                }
                if let Some(name) = s.scheduler.and_then(|a| schedulers.get(a)) {
                    args.set("scheduler", Value::Str(name.clone()));
                }
                Value::object()
                    .with("name", Value::Str(s.name.to_string()))
                    .with(
                        "cat",
                        Value::Str(s.name.split('.').next().unwrap_or(s.name).to_string()),
                    )
                    .with("ph", Value::Str("X".to_string()))
                    .with("ts", micros(s.start))
                    .with("dur", micros(s.duration()))
                    .with("pid", Value::U64(1))
                    .with("tid", Value::U64(1))
                    .with("args", args)
            })
            .collect();
        Value::object()
            .with("traceEvents", Value::Array(events))
            .with("displayTimeUnit", Value::Str("ms".to_string()))
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_disabled_records_nothing() {
        let mut t = Tracer::new();
        t.span("outer", None, None, |t| {
            std::thread::sleep(Duration::from_millis(2));
            t.span("inner", Some(0), None, |_| {
                std::thread::sleep(Duration::from_millis(2))
            });
            let now = t.now();
            t.record("reported", now, Duration::from_millis(1), None, Some(0));
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        let own = t.self_times();
        let outer = spans[0].duration();
        let covered = spans[1].duration() + spans[2].duration();
        assert_eq!(own["outer"], outer - covered);
        assert_eq!(own["inner"], spans[1].duration());

        let doc = Value::parse(&t.chrome_json(&["i0".into()], &["s0".into()]).render())
            .expect("the trace parses back");
        let events = doc.get("traceEvents").and_then(Value::as_array).unwrap();
        assert_eq!(events.len(), 3);
        assert_eq!(
            events[1]
                .get("args")
                .unwrap()
                .get("instance")
                .unwrap()
                .as_str(),
            Some("i0")
        );

        let mut off = Tracer::disabled();
        assert_eq!(off.span("outer", None, None, |_| 7), 7);
        assert!(off.spans().is_empty());
    }
}
