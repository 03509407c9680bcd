//! Per-run metrics and observability: counter/histogram registries,
//! phase wall-clock timings, and JSONL export.
//!
//! Every figure of the paper is a reduction over run statistics, and every
//! performance PR needs a baseline to measure against; this module gives
//! both a uniform shape. A [`MetricsRegistry`] collects named counters and
//! histograms from all three stat sources (`rr-cpu`
//! [`CoreStats`](rr_cpu::CoreStats), `rr-mem` [`MemStats`](rr_mem::MemStats),
//! `relaxreplay` [`RecorderStats`](relaxreplay::RecorderStats)), a
//! [`PhaseNanos`] records where wall-clock time went
//! (record / patch / replay / verify), and [`MetricsRegistry::to_json`] /
//! [`jsonl_object`] render a machine-readable line the experiment binaries
//! drop next to their CSVs.
//!
//! **Determinism contract:** everything in the registry is derived from
//! simulation state, so two runs of the same job produce identical
//! registries regardless of host load or worker count. Wall-clock phase
//! timings are *not* part of the registry for exactly that reason — they
//! live in [`PhaseNanos`] and are excluded from determinism comparisons.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use relaxreplay::trace::json;

use crate::machine::RunResult;

/// A fixed-bucket histogram (linear bins of `bin_width`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Histogram {
    /// Width of each bin in observation units.
    pub bin_width: u64,
    /// `counts[i]` observations fell in `[i * bin_width, (i+1) * bin_width)`.
    pub counts: Vec<u64>,
}

impl Histogram {
    /// Builds a histogram from pre-binned counts (e.g. the recorder's TRAQ
    /// occupancy bins).
    #[must_use]
    pub fn from_bins(bin_width: u64, counts: Vec<u64>) -> Self {
        Histogram { bin_width, counts }
    }

    /// Records one observation.
    pub fn observe(&mut self, value: u64) {
        if self.bin_width == 0 {
            self.bin_width = 1;
        }
        let bin = (value / self.bin_width) as usize;
        if bin >= self.counts.len() {
            self.counts.resize(bin + 1, 0);
        }
        self.counts[bin] += 1;
    }

    /// Total observations.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The `p`-th percentile (0–100) of the observed distribution, as the
    /// inclusive upper edge of the bin containing that rank — exact for
    /// `bin_width == 1`, conservative (never under-reports) otherwise.
    ///
    /// Returns `None` for an empty histogram or `p` outside `[0, 100]`
    /// rather than a misleading 0; a one-sample histogram returns that
    /// sample's bin for every valid `p`.
    #[must_use]
    pub fn percentile(&self, p: f64) -> Option<u64> {
        if !(0.0..=100.0).contains(&p) {
            return None;
        }
        let total = self.total();
        if total == 0 {
            return None;
        }
        // Nearest-rank definition: the smallest value with at least
        // ceil(p/100 * total) observations at or below it.
        let rank = ((p / 100.0 * total as f64).ceil() as u64).max(1);
        let width = self.bin_width.max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some((i as u64 + 1) * width - 1);
            }
        }
        None
    }

    /// Adds another histogram's counts into this one (bin widths must
    /// match).
    pub fn merge(&mut self, other: &Histogram) {
        if self.counts.is_empty() {
            self.bin_width = other.bin_width;
        }
        assert_eq!(
            self.bin_width, other.bin_width,
            "merging histograms with different bin widths"
        );
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }
}

/// A named registry of counters and histograms describing one run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `value` to the named counter (creating it at zero).
    pub fn add(&mut self, name: &str, value: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += value;
    }

    /// Sets the named counter, replacing any previous value.
    pub fn set(&mut self, name: &str, value: u64) {
        self.counters.insert(name.to_string(), value);
    }

    /// The named counter's value, or 0 if absent.
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Iterates over all counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Records one observation into the named histogram.
    pub fn observe(&mut self, name: &str, value: u64) {
        self.histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram::from_bins(1, Vec::new()))
            .observe(value);
    }

    /// Merges a pre-binned histogram into the named one.
    pub fn merge_histogram(&mut self, name: &str, h: &Histogram) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .merge(h);
    }

    /// The named histogram, if present.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Folds every counter and histogram of `other` into `self`.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, h) in &other.histograms {
            self.merge_histogram(k, h);
        }
    }

    /// Renders the registry as one JSON object:
    /// `{"counters":{..},"histograms":{"name":{"bin_width":w,"counts":[..]}}}`.
    ///
    /// Emission order is deterministic — keys appear in sorted (BTreeMap)
    /// order regardless of insertion or merge order — so JSONL sidecars
    /// diff cleanly across runs. Pinned by
    /// `to_json_is_sorted_and_insertion_order_independent`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{v}", json::escape(k));
        }
        out.push_str("},\"histograms\":{");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{}:{{\"bin_width\":{},\"counts\":[",
                json::escape(k),
                h.bin_width
            );
            for (j, c) in h.counts.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{c}");
            }
            out.push_str("]}");
        }
        out.push_str("}}");
        out
    }
}

/// Wall-clock nanoseconds spent in each phase of one job.
///
/// Host-dependent by nature; kept separate from [`MetricsRegistry`] so
/// determinism comparisons can ignore it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseNanos {
    /// Recording (the cycle-stepped simulation).
    pub record: u64,
    /// Log patching (moving reordered stores back, §3.3.2).
    pub patch: u64,
    /// Replay proper.
    pub replay: u64,
    /// Determinism verification against the recorded execution.
    pub verify: u64,
}

impl PhaseNanos {
    /// Total nanoseconds across all phases.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.record + self.patch + self.replay + self.verify
    }

    /// Renders as a JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"record_ns\":{},\"patch_ns\":{},\"replay_ns\":{},\"verify_ns\":{}}}",
            self.record, self.patch, self.replay, self.verify
        )
    }
}

/// Builds the complete metrics registry for a recorded run: aggregated
/// core, memory and per-variant recorder counters plus the TRAQ occupancy
/// histograms.
#[must_use]
pub fn run_metrics(run: &RunResult) -> MetricsRegistry {
    let mut m = MetricsRegistry::new();
    m.set("sim.cycles", run.cycles);
    m.set("sim.cores", run.core_stats.len() as u64);
    for cs in &run.core_stats {
        for (name, v) in cs.counter_pairs() {
            m.add(&format!("cpu.{name}"), v);
        }
    }
    for (name, v) in run.mem_stats.counter_pairs() {
        m.add(&format!("mem.{name}"), v);
    }
    for variant in &run.variants {
        let label = variant.spec.label();
        for rs in &variant.stats {
            for (name, v) in rs.counter_pairs() {
                m.add(&format!("rec.{label}.{name}"), v);
            }
            m.merge_histogram(
                &format!("rec.{label}.traq_occupancy"),
                &Histogram::from_bins(10, rs.traq_hist.clone()),
            );
        }
        m.set(&format!("rec.{label}.log_bits"), variant.log_bits());
        m.set(
            &format!("rec.{label}.inorder_blocks"),
            variant.inorder_blocks(),
        );
        let mut flat_bytes = 0u64;
        let mut wire_bytes = 0u64;
        for log in &variant.logs {
            m.observe(
                &format!("rec.{label}.intervals_per_core"),
                log.intervals() as u64,
            );
            flat_bytes += log.encode_flat().len() as u64;
            wire_bytes += log.encode().len() as u64;
        }
        m.set(&format!("rec.{label}.flat_bytes"), flat_bytes);
        m.set(&format!("rec.{label}.wire_bytes"), wire_bytes);
        // Chunked-vs-flat size as parts per thousand (smaller = better).
        if let Some(permille) = (wire_bytes * 1000).checked_div(flat_bytes) {
            m.set(&format!("rec.{label}.wire_compression_permille"), permille);
        }
    }
    m
}

/// Renders one JSONL object for a named run: identity fields, determinism-
/// safe metrics, and the host-dependent phase timings.
#[must_use]
pub fn jsonl_object(
    name: &str,
    job: usize,
    metrics: &MetricsRegistry,
    phases: &PhaseNanos,
) -> String {
    format!(
        "{{\"name\":{},\"job\":{job},\"metrics\":{},\"phases\":{}}}",
        json::escape(name),
        metrics.to_json(),
        phases.to_json()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_render() {
        let mut m = MetricsRegistry::new();
        m.add("a", 1);
        m.add("a", 2);
        m.set("b", 7);
        assert_eq!(m.counter("a"), 3);
        assert_eq!(m.counter("missing"), 0);
        let json = m.to_json();
        assert!(json.starts_with('{'), "{json}");
        assert!(json.contains("\"a\":3"), "{json}");
        assert!(json.contains("\"b\":7"), "{json}");
    }

    #[test]
    fn to_json_is_sorted_and_insertion_order_independent() {
        let mut fwd = MetricsRegistry::new();
        for k in ["alpha", "mid", "zeta"] {
            fwd.add(k, 1);
            fwd.observe(&format!("h_{k}"), 5);
        }
        let mut rev = MetricsRegistry::new();
        for k in ["zeta", "mid", "alpha"] {
            rev.observe(&format!("h_{k}"), 5);
            rev.add(k, 1);
        }
        let json = fwd.to_json();
        assert_eq!(
            json,
            rev.to_json(),
            "emission must not depend on insertion order"
        );
        let a = json.find("\"alpha\"").expect("alpha present");
        let m = json.find("\"mid\"").expect("mid present");
        let z = json.find("\"zeta\"").expect("zeta present");
        assert!(a < m && m < z, "counters sorted: {json}");
        let ha = json.find("\"h_alpha\"").expect("h_alpha present");
        let hz = json.find("\"h_zeta\"").expect("h_zeta present");
        assert!(ha < hz, "histograms sorted: {json}");
    }

    #[test]
    fn histograms_bin_and_merge() {
        let mut m = MetricsRegistry::new();
        m.observe("h", 0);
        m.observe("h", 5);
        m.observe("h", 5);
        let h = m.histogram("h").expect("exists");
        assert_eq!(h.counts[0], 1);
        assert_eq!(h.counts[5], 2);
        assert_eq!(h.total(), 3);

        let mut a = Histogram::from_bins(10, vec![1, 2]);
        a.merge(&Histogram::from_bins(10, vec![0, 1, 4]));
        assert_eq!(a.counts, vec![1, 3, 4]);
    }

    #[test]
    fn percentile_handles_degenerate_histograms() {
        // Empty: no rank exists — None, not a misleading 0.
        let empty = Histogram::from_bins(1, vec![]);
        assert_eq!(empty.percentile(50.0), None);
        assert_eq!(empty.percentile(0.0), None);

        // One sample at value 7 (bin width 1): every valid percentile is
        // exactly 7.
        let mut one = Histogram::default();
        one.observe(7);
        for p in [0.0, 1.0, 50.0, 99.9, 100.0] {
            assert_eq!(one.percentile(p), Some(7), "p={p}");
        }

        // Out-of-range p.
        assert_eq!(one.percentile(-1.0), None);
        assert_eq!(one.percentile(100.1), None);
    }

    #[test]
    fn percentile_nearest_rank() {
        // Values 1..=10, bin width 1.
        let mut h = Histogram::default();
        for v in 1..=10 {
            h.observe(v);
        }
        assert_eq!(h.percentile(10.0), Some(1));
        assert_eq!(h.percentile(50.0), Some(5));
        assert_eq!(h.percentile(90.0), Some(9));
        assert_eq!(h.percentile(100.0), Some(10));

        // Wider bins report the containing bin's inclusive upper edge.
        let wide = Histogram::from_bins(10, vec![5, 5]);
        assert_eq!(wide.percentile(50.0), Some(9));
        assert_eq!(wide.percentile(100.0), Some(19));
    }

    #[test]
    fn merge_folds_registries() {
        let mut a = MetricsRegistry::new();
        a.add("x", 1);
        let mut b = MetricsRegistry::new();
        b.add("x", 2);
        b.add("y", 5);
        a.merge(&b);
        assert_eq!(a.counter("x"), 3);
        assert_eq!(a.counter("y"), 5);
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json::escape("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        let line = jsonl_object(
            "a\"b\\c\n",
            0,
            &MetricsRegistry::default(),
            &PhaseNanos::default(),
        );
        assert!(line.starts_with("{\"name\":\"a\\\"b\\\\c\\n\","), "{line}");
    }

    #[test]
    fn phase_json_shape() {
        let p = PhaseNanos {
            record: 1,
            patch: 2,
            replay: 3,
            verify: 4,
        };
        assert_eq!(p.total(), 10);
        assert_eq!(
            p.to_json(),
            "{\"record_ns\":1,\"patch_ns\":2,\"replay_ns\":3,\"verify_ns\":4}"
        );
    }
}
