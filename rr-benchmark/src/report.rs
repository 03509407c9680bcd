//! Metrics derived from one run, the lines printed for it, and
//! `--compare`. Names, units, directions and bounds all come from the
//! repository's `BENCHMARK.json`, compiled in, so it stays the single
//! source of what is reported and how a change is judged.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use relaxreplay::trace::json::{self, Value};

use crate::spans::{layer, SpanStat};
use crate::stats::{median, percentile, quartiles, relative_spread};
use crate::workloads::Outcome;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// End-to-end metrics only: the share of the baseline median by
    /// which the metric may worsen.
    pub bound: Option<f64>,
}

pub struct Spec {
    pub run_seconds: f64,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

fn num(v: &Value) -> Option<f64> {
    match v {
        Value::UInt(n) => Some(*n as f64),
        Value::Num(x) => Some(*x),
        _ => None,
    }
}

impl Spec {
    pub fn load() -> Result<Spec, String> {
        let doc = json::parse(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            let list = doc
                .get(key)
                .and_then(Value::as_array)
                .ok_or_else(|| format!("BENCHMARK.json: no {key} list"))?;
            list.iter()
                .map(|m| {
                    let text = |k: &str| {
                        m.get(k)
                            .and_then(Value::as_str)
                            .map(str::to_string)
                            .ok_or_else(|| format!("BENCHMARK.json: {key} entry without {k}"))
                    };
                    Ok(MetricSpec {
                        name: text("name")?,
                        unit: text("unit")?,
                        lower_is_better: text("better")? == "lower",
                        bound: m.get("bound").and_then(num),
                    })
                })
                .collect()
        };
        Ok(Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(num)
                .ok_or("BENCHMARK.json: no run_seconds")?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}

/// A measured value and how many samples it summarises.
#[derive(Clone, Copy, Debug)]
pub struct Measured {
    pub value: f64,
    pub samples: usize,
}

fn m(value: f64, samples: usize) -> Measured {
    Measured { value, samples }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

pub fn end_to_end(o: &Outcome) -> BTreeMap<&'static str, Measured> {
    let n = o.item_ms.len();
    let d = &o.density;
    BTreeMap::from([
        ("setup_s", m(median(&o.setup_s), o.setup_s.len())),
        ("item_p50_ms", m(median(&o.item_ms), n)),
        ("item_p90_ms", m(percentile(&o.item_ms, 90.0), n)),
        (
            "items_per_s",
            m(median(&o.round_rates), o.round_rates.len()),
        ),
        ("peak_rss_mb", m(o.peak_rss_mb, 1)),
        (
            "log_bits_per_kinstr",
            m(1000.0 * ratio(d.bits, d.instrs), d.recordings),
        ),
    ])
}

pub fn per_layer(o: &Outcome) -> BTreeMap<&'static str, Measured> {
    let stats = o.spans.stats();
    let stat = |name: &str| stats.iter().find(|s| s.name == name);
    let p50 = |name: &str| stat(name).map_or(m(0.0, 0), |s| m(median(&s.durations_ms), s.calls));
    let busy_s = |name: &str| stat(name).map_or(0.0, |s| s.self_ms / 1e3);
    let calls = |name: &str| stat(name).map_or(0, |s| s.calls);
    let work = |k: &str| o.work.get(k).copied().unwrap_or(0.0);
    let mb_per_s = |span: &str| {
        m(
            ratio(work(&format!("{span}.bytes")) / 1e6, busy_s(span)),
            calls(span),
        )
    };
    let untraced_ms = o.spans.item_untraced_ms();
    let recordings = calls("sim.record");
    let mut out = BTreeMap::from([
        ("workloads.build_ms", p50("workloads.build")),
        ("sim.record_ms", p50("sim.record")),
        (
            "sim.minstr_per_s",
            m(
                ratio(work("sim.instrs") / 1e6, busy_s("sim.record")),
                recordings,
            ),
        ),
        (
            "sim.host_ns_per_cycle",
            m(
                ratio(busy_s("sim.record") * 1e9, work("sim.cycles")),
                recordings,
            ),
        ),
        (
            "recorder.overhead_ms",
            m(median(&o.overhead_ms), o.overhead_ms.len()),
        ),
        ("wire.encode_ms", p50("wire.encode")),
        ("wire.decode_ms", p50("wire.decode")),
        ("store.save_mb_per_s", mb_per_s("store.save")),
        ("store.load_mb_per_s", mb_per_s("store.load")),
        ("serve.save_mb_per_s", mb_per_s("serve.save")),
        ("serve.dup_save_mb_per_s", mb_per_s("serve.save_dup")),
        ("serve.fetch_mb_per_s", mb_per_s("serve.fetch")),
        ("replay.patch_ms", p50("replay.patch")),
        ("replay.seq_ms", p50("replay.seq")),
        ("replay.verify_ms", p50("replay.verify")),
        (
            "replay.thr2_speedup",
            m(
                ratio(busy_s("replay.seq"), busy_s("replay.thr2")),
                calls("replay.thr2"),
            ),
        ),
        (
            "trace.item_p50_ms",
            m(median(&untraced_ms), untraced_ms.len()),
        ),
        ("trace.overhead_pct", m(o.spans.overhead_pct(), 1)),
        (
            "trace.coverage_pct",
            m(100.0 * o.spans.item_coverage(), untraced_ms.len()),
        ),
    ]);
    // Exact counts: one deterministic tally over the last set-up and the
    // first round, 0 where a workload does not reach the layer.
    let t = |k: &str| o.tally.get(k).copied().unwrap_or(0.0);
    for k in [
        "sim.cycles",
        "sim.instrs",
        "cpu.squashes",
        "cpu.traq_stall_cycles",
        "mem.l1_misses",
        "mem.snoops_delivered",
        "mem.queue_wait_cycles",
        "recorder.intervals",
        "recorder.reordered",
        "wire.bytes",
        "wire.chunks",
        "serve.blobs",
        "serve.dedup_ratio",
        "replay.modeled_cycles",
        "dag.nodes",
        "dag.critical_path",
    ] {
        out.insert(k, m(t(k), 1));
    }
    out.insert(
        "cpu.ooo_fraction",
        m(ratio(t("cpu.ooo_accesses"), t("cpu.mem_accesses")), 1),
    );
    out.insert("recorder.log_bytes", m(t("recorder.log_bits") / 8.0, 1));
    out.insert(
        "dag.ideal_speedup",
        m(ratio(t("dag.nodes"), t("dag.critical_path")), 1),
    );
    out.insert(
        "serve.chunks_per_save",
        m(ratio(t("serve.chunks"), t("serve.seals")), 1),
    );
    out
}

/// The span summary a traced run prints: self time per span name.
pub fn span_table(stats: &[SpanStat], wall_ms: f64) -> String {
    let mut out = format!(
        "{:<18} {:<10} {:>8} {:>12} {:>11} {:>7}\n",
        "span", "layer", "calls", "self ms", "p50 ms", "self %"
    );
    for s in stats {
        let _ = writeln!(
            out,
            "{:<18} {:<10} {:>8} {:>12.3} {:>11.4} {:>6.2}%",
            s.name,
            layer(s.name),
            s.calls,
            s.self_ms,
            median(&s.durations_ms),
            100.0 * ratio(s.self_ms, wall_ms)
        );
    }
    out
}

/// Picks the metrics `specs` names, in its order.
///
/// # Errors
///
/// A named metric the run did not compute.
pub fn select<'a>(
    specs: &'a [MetricSpec],
    computed: &BTreeMap<&'static str, Measured>,
) -> Result<Vec<(&'a MetricSpec, Measured)>, String> {
    specs
        .iter()
        .map(|s| {
            computed
                .get(s.name.as_str())
                .map(|v| (s, *v))
                .ok_or_else(|| format!("metric {} is not computed", s.name))
        })
        .collect()
}

fn metric_object(selected: &[(&MetricSpec, Measured)], with_samples: bool) -> String {
    let fields: Vec<String> = selected
        .iter()
        .map(|(s, v)| {
            let samples = if with_samples {
                format!(",\"samples\":{}", v.samples)
            } else {
                String::new()
            };
            format!(
                "{}:{{\"value\":{},\"unit\":{}{samples}}}",
                json::escape(&s.name),
                v.value,
                json::escape(&s.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// The result line: the last line of standard output.
pub fn result_line(attempted: u64, failed: u64, selected: &[(&MetricSpec, Measured)]) -> String {
    format!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
        failed == 0,
        metric_object(selected, false)
    )
}

/// One `--out` line: the result plus its workload, seed, mode and the
/// sample count behind each metric.
pub fn out_line(
    workload: &str,
    seed: u64,
    trace: bool,
    attempted: u64,
    failed: u64,
    selected: &[(&MetricSpec, Measured)],
) -> String {
    format!(
        "{{\"workload\":{},\"seed\":{seed},\"trace\":{},\"correct\":{},\"attempted\":{attempted},\
         \"failed\":{failed},\"metrics\":{}}}",
        json::escape(workload),
        u8::from(trace),
        failed == 0,
        metric_object(selected, true)
    )
}

/// Per workload and metric, the values of every untraced run in a file
/// of `--out` lines.
fn read_runs(path: &Path) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = |what: &str| format!("{}:{}: {what}", path.display(), i + 1);
        let run = json::parse(line).map_err(|e| bad(&e))?;
        if run.get("trace").and_then(num) != Some(0.0) {
            continue;
        }
        let workload = run
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| bad("no workload"))?;
        let metrics = run
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or_else(|| bad("no metrics"))?;
        for (name, v) in metrics {
            let value = v
                .get("value")
                .and_then(num)
                .ok_or_else(|| bad("no value"))?;
            out.entry((workload.to_string(), name.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok(out)
}

#[derive(Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

/// Judges `b` against the baseline `a`: unresolved when either side's
/// quartile spread exceeds the bound (unless every run of `b` beats every
/// run of `a`), regressed when `b`'s median is worse by more than the
/// bound, ok otherwise.
pub fn verdict(a: &[f64], b: &[f64], spec: &MetricSpec) -> (Verdict, f64) {
    let bound = spec.bound.unwrap_or(0.0);
    let (ma, mb) = (median(a), median(b));
    let worse = if spec.lower_is_better {
        mb - ma
    } else {
        ma - mb
    };
    let worse = ratio(worse, ma.abs());
    let (a_lo, a_hi) = a
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        });
    let all_better = if spec.lower_is_better {
        b.iter().all(|&x| x < a_lo)
    } else {
        b.iter().all(|&x| x > a_hi)
    };
    let spread = relative_spread(a).max(relative_spread(b));
    let v = if spread > bound && !all_better {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (v, worse)
}

/// `--compare A B`: prints one verdict per workload and end-to-end
/// metric present in both files. Returns whether every verdict is ok.
pub fn compare(spec: &Spec, a: &Path, b: &Path) -> Result<bool, String> {
    let (ra, rb) = (read_runs(a)?, read_runs(b)?);
    let mut all_ok = true;
    let mut any = false;
    println!(
        "{:<10} {:<16} {:<20} {:>12} {:>12} {:>8} {:>8} {:>8} {:>6}",
        "verdict", "workload", "metric", "A median", "B median", "worse", "A iqr", "B iqr", "bound"
    );
    for ((workload, name), va) in &ra {
        let Some(vb) = rb.get(&(workload.clone(), name.clone())) else {
            continue;
        };
        let Some(ms) = spec.end_to_end.iter().find(|s| &s.name == name) else {
            continue;
        };
        any = true;
        let (v, worse) = verdict(va, vb, ms);
        all_ok &= v == Verdict::Ok;
        let iqr = |x: &[f64]| {
            let (q1, q3) = quartiles(x);
            100.0 * ratio(q3 - q1, median(x).abs())
        };
        println!(
            "{:<10} {:<16} {:<20} {:>12.4} {:>12.4} {:>7.2}% {:>7.2}% {:>7.2}% {:>5.0}%",
            format!("{v:?}").to_lowercase(),
            workload,
            name,
            median(va),
            median(vb),
            100.0 * worse,
            iqr(va),
            iqr(vb),
            100.0 * ms.bound.unwrap_or(0.0)
        );
    }
    if !any {
        return Err("no workload and metric appears in both files".to_string());
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> MetricSpec {
        MetricSpec {
            name: "item_p50_ms".into(),
            unit: "ms".into(),
            lower_is_better: true,
            bound: Some(bound),
        }
    }

    #[test]
    fn verdicts() {
        let a = [10.0, 10.1, 9.9, 10.0, 10.05];
        assert_eq!(verdict(&a, &a, &lower(0.1)).0, Verdict::Ok);
        let slow: Vec<f64> = a.iter().map(|x| x * 1.5).collect();
        assert_eq!(verdict(&a, &slow, &lower(0.1)).0, Verdict::Regressed);
        let noisy = [5.0, 10.0, 15.0, 20.0, 8.0];
        assert_eq!(verdict(&a, &noisy, &lower(0.1)).0, Verdict::Unresolved);
        // Noisy but better on every run: resolved in its favour.
        let fast = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(verdict(&a, &fast, &lower(0.1)).0, Verdict::Ok);
    }

    #[test]
    fn the_compiled_in_spec_parses() {
        let spec = Spec::load().expect("BENCHMARK.json parses");
        assert!(spec.run_seconds >= 1.0);
        assert!(spec.end_to_end.iter().all(|m| m.bound.is_some()));
        assert!(spec.end_to_end.iter().any(|m| m.name == "setup_s"));
    }
}
