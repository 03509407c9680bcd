//! Spans recorded from outside the program, around the calls the
//! benchmark makes into each layer's public functions. They are kept in
//! memory, summarised per layer by self time, and written out at exit as
//! Chrome trace events, which Perfetto opens. With tracing off every
//! method is a no-op apart from running the closure.
//!
//! Each span keeps the host-speed scale in force when it opened (see
//! `host.rs`): summaries are host-normalised, the Chrome trace is not.

use std::fmt::Write as _;
use std::time::Instant;

/// Calls a traced run makes only to attribute time (a recording without
/// recorders, an explicit encode and decode of each log). They are not
/// part of an untraced item, so the traced item time excludes them.
pub const TRACE_ONLY: [&str; 3] = ["sim.bare", "wire.encode", "wire.decode"];

/// The span that delimits one benchmark item.
pub const ITEM: &str = "item";

struct Span {
    name: &'static str,
    /// Index of the enclosing item span.
    item: Option<usize>,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
    scale: f64,
}

/// A span name's layer: the part before the first dot.
pub fn layer(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    fn scaled_ms(&self, ns: u64) -> f64 {
        ns as f64 / 1e6 * self.scale
    }
}

/// Per-name totals: call count, busy self time, and each call's duration.
pub struct SpanStat {
    pub name: &'static str,
    pub calls: usize,
    pub self_ms: f64,
    pub durations_ms: Vec<f64>,
}

pub struct Spans {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    last_ms: f64,
    scale: f64,
}

impl Spans {
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            last_ms: 0.0,
            scale: 1.0,
        }
    }

    /// The host-speed scale for spans opened from now on.
    pub fn set_scale(&mut self, scale: f64) {
        self.scale = scale;
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let parent = self.open.last().copied();
        let item = if name == ITEM {
            Some(self.spans.len())
        } else {
            parent.and_then(|p| self.spans[p].item)
        };
        self.open.push(self.spans.len());
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            item,
            parent,
            start_ns,
            end_ns: start_ns,
            scale: self.scale,
        });
    }

    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let i = self.open.pop().expect("exit matches an enter");
        let end_ns = self.now_ns();
        let span = &mut self.spans[i];
        span.end_ns = end_ns;
        self.last_ms = span.scaled_ms(span.dur_ns());
    }

    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Scaled duration of the span closed most recently (0 with tracing
    /// off).
    pub fn last_ms(&self) -> f64 {
        self.last_ms
    }

    fn child_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns();
            }
        }
        child
    }

    /// Per-name statistics in first-appearance order. Self time is a
    /// span's duration minus the part its children cover.
    pub fn stats(&self) -> Vec<SpanStat> {
        let child = self.child_ns();
        let mut out: Vec<SpanStat> = Vec::new();
        for (s, c) in self.spans.iter().zip(&child) {
            let k = match out.iter().position(|t| t.name == s.name) {
                Some(k) => k,
                None => {
                    out.push(SpanStat {
                        name: s.name,
                        calls: 0,
                        self_ms: 0.0,
                        durations_ms: Vec::new(),
                    });
                    out.len() - 1
                }
            };
            let dur = s.dur_ns();
            out[k].calls += 1;
            out[k].self_ms += s.scaled_ms(dur.saturating_sub(*c));
            out[k].durations_ms.push(s.scaled_ms(dur));
        }
        out
    }

    /// Scaled time covered by spans without a parent.
    pub fn wall_ms(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.scaled_ms(s.dur_ns()))
            .sum()
    }

    /// The share of all items' wall time that their child spans cover
    /// (1.0 when fully covered): the stage times add up to the items'
    /// times unless a stage went untimed.
    pub fn item_coverage(&self) -> f64 {
        let child = self.child_ns();
        let (mut covered, mut wall) = (0u64, 0u64);
        for (i, s) in self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == ITEM)
        {
            covered += child[i];
            wall += s.dur_ns();
        }
        if wall == 0 {
            1.0
        } else {
            covered as f64 / wall as f64
        }
    }

    /// Each item's scaled duration without its [`TRACE_ONLY`] calls, in
    /// milliseconds.
    pub fn item_untraced_ms(&self) -> Vec<f64> {
        let mut extra = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent.filter(|_| TRACE_ONLY.contains(&s.name)) {
                extra[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(extra)
            .filter(|(s, _)| s.name == ITEM)
            .map(|(s, extra)| s.scaled_ms(s.dur_ns().saturating_sub(extra)))
            .collect()
    }

    /// The cost of recording these spans as a share of the time they
    /// cover: their count times the measured cost of one enter and exit.
    pub fn overhead_pct(&self) -> f64 {
        const PROBES: u32 = 10_000;
        let mut probe = Spans::new(true);
        let t = Instant::now();
        for _ in 0..PROBES {
            probe.enter("probe");
            probe.exit();
        }
        let per_span_ns = t.elapsed().as_nanos() as f64 / f64::from(PROBES);
        let covered_ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::dur_ns)
            .sum();
        100.0 * self.spans.len() as f64 * per_span_ns / covered_ns.max(1) as f64
    }

    /// The spans as Chrome trace events (`ph: "X"`, microseconds), one
    /// process and thread, with the layer as the category.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let id = |o: Option<usize>| o.map_or("null".to_string(), |v| v.to_string());
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"item\":{},\"parent\":{}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                layer(s.name),
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                id(s.item),
                id(s.parent),
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_and_item_coverage() {
        let mut s = Spans::new(true);
        s.enter(ITEM);
        s.time("sim.record", || {
            std::thread::sleep(std::time::Duration::from_millis(4))
        });
        s.time("sim.bare", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        s.exit();
        let stats = s.stats();
        let item = &stats[0];
        assert_eq!((item.name, item.calls), (ITEM, 1));
        assert!(item.self_ms < item.durations_ms[0] - 5.9);
        let (coverage, untraced_ms) = (s.item_coverage(), s.item_untraced_ms()[0]);
        assert!(coverage > 0.9 && coverage <= 1.0);
        assert!(untraced_ms < item.durations_ms[0] - 1.9);
        assert!(s.spans.iter().skip(1).all(|sp| sp.item == Some(0)));
        let parsed = relaxreplay::trace::json::parse(&s.chrome_json()).expect("valid JSON");
        assert_eq!(
            parsed
                .get("traceEvents")
                .and_then(|e| e.as_array())
                .map(<[_]>::len),
            Some(3)
        );
    }

    #[test]
    fn off_records_nothing() {
        let mut s = Spans::new(false);
        assert_eq!(s.time("sim.record", || 7), 7);
        assert!(s.stats().is_empty() && s.item_untraced_ms().is_empty());
    }
}
