//! Bench-trajectory comparison: parse two `BENCH_*.json` documents and
//! judge the new one against the old under per-bench regression
//! thresholds.
//!
//! The `rr-bench` binary (`rr-bench compare old.json new.json`) drives
//! this from the CLI and from CI; the logic lives here so the gate is
//! unit-testable without spawning processes. Any schema the bench
//! harnesses emit (`rr-bench/codec/v*`, `rr-bench/replay/v*`) parses, as
//! long as it carries a `benches` array of `{name, median_ns}` rows; the
//! harnesses write theirs with [`bench_json`]. Rows that also carry the
//! simulated `cycles` and `instrs` (`rr-bench/record/v*`) must carry the
//! same ones in both documents: a change may make the simulator faster,
//! never make it simulate something else.

use relaxreplay::trace::json::{self, Value};

/// One parsed bench row: the stable bench name, its median time and, for
/// a simulation, what it simulated.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BenchRow {
    /// Stable bench name (`decode_chunked/10m`, `thr4/large`, …).
    pub name: String,
    /// Median wall-clock nanoseconds.
    pub median_ns: u64,
    /// Simulated cycles, when the row records a simulation.
    pub cycles: Option<u64>,
    /// Simulated instructions, when the row records a simulation.
    pub instrs: Option<u64>,
}

/// A parsed `BENCH_*.json` document.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BenchDoc {
    /// Schema marker (`rr-bench/codec/v2`, …).
    pub schema: String,
    /// Measurement mode (`full` / `smoke`), when recorded.
    pub mode: Option<String>,
    /// Host CPU count, when recorded.
    pub host_cpus: Option<u64>,
    /// The bench rows, in document order.
    pub rows: Vec<BenchRow>,
}

impl BenchDoc {
    /// Finds a row by name.
    #[must_use]
    pub fn row(&self, name: &str) -> Option<&BenchRow> {
        self.rows.iter().find(|r| r.name == name)
    }
}

/// Parses a `BENCH_*.json` document.
///
/// # Errors
///
/// Returns a description of the first structural problem: not JSON, no
/// schema marker, no `benches` array, or a row without a string `name`
/// and numeric `median_ns`.
pub fn parse_bench_json(s: &str) -> Result<BenchDoc, String> {
    let v = json::parse(s)?;
    let schema = v
        .get("schema")
        .and_then(Value::as_str)
        .ok_or("missing \"schema\"")?
        .to_string();
    let mode = v
        .get("mode")
        .and_then(Value::as_str)
        .map(ToString::to_string);
    let host_cpus = v.get("host_cpus").and_then(Value::as_u64);
    let benches = v
        .get("benches")
        .and_then(Value::as_array)
        .ok_or("missing \"benches\" array")?;
    let mut rows = Vec::with_capacity(benches.len());
    for (i, b) in benches.iter().enumerate() {
        let name = b
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("bench {i}: missing string \"name\""))?;
        let median_ns = b
            .get("median_ns")
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("bench {name:?}: missing numeric \"median_ns\""))?;
        rows.push(BenchRow {
            name: name.to_string(),
            median_ns,
            cycles: b.get("cycles").and_then(Value::as_u64),
            instrs: b.get("instrs").and_then(Value::as_u64),
        });
    }
    Ok(BenchDoc {
        schema,
        mode,
        host_cpus,
        rows,
    })
}

/// The host's available parallelism, recorded as every document's
/// `host_cpus` (1 when it cannot be determined).
#[must_use]
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Renders a `BENCH_*.json` document in the shape [`parse_bench_json`]
/// reads: `schema`, `mode` and `host_cpus`, then the fields `header`
/// writes, then the `benches` array whose rows `rows` writes (each an
/// object with at least a string `name` and an integer `median_ns`).
#[must_use]
pub fn bench_json(
    schema: &str,
    mode: &str,
    header: impl FnOnce(&mut json::Obj<'_>),
    rows: impl FnOnce(&mut json::Arr<'_>),
) -> String {
    let mut doc = json::object(|o| {
        o.field("schema", schema)
            .field("mode", mode)
            .field("host_cpus", host_cpus());
        header(o);
        o.array("benches", rows);
    });
    doc.push('\n');
    doc
}

/// Regression thresholds: a default slowdown percentage plus per-bench
/// overrides (first matching override wins).
#[derive(Clone, Debug)]
pub struct Thresholds {
    /// Allowed slowdown in percent when no override matches.
    pub default_pct: f64,
    /// `(bench name, allowed slowdown %)` overrides.
    pub per_bench: Vec<(String, f64)>,
}

impl Default for Thresholds {
    /// 50% — deliberately loose, sized for shared CI runners where
    /// scheduling noise alone moves medians by tens of percent. Tighten
    /// per bench (or via `--threshold`) on quiet hardware.
    fn default() -> Self {
        Thresholds {
            default_pct: 50.0,
            per_bench: Vec::new(),
        }
    }
}

impl Thresholds {
    /// The threshold applying to `name`.
    #[must_use]
    pub fn for_bench(&self, name: &str) -> f64 {
        self.per_bench
            .iter()
            .find(|(n, _)| n == name)
            .map_or(self.default_pct, |(_, pct)| *pct)
    }
}

/// The judged delta of one bench present in both documents.
#[derive(Clone, Debug)]
pub struct Delta {
    /// Bench name.
    pub name: String,
    /// Old median, ns.
    pub old_ns: u64,
    /// New median, ns.
    pub new_ns: u64,
    /// Relative change in percent (positive = slower).
    pub delta_pct: f64,
    /// Threshold applied, percent.
    pub threshold_pct: f64,
    /// Whether the slowdown exceeds the threshold.
    pub regressed: bool,
}

/// The full comparison of two bench documents.
#[derive(Clone, Debug, Default)]
pub struct Comparison {
    /// Deltas for benches present in both documents, in old-document
    /// order.
    pub deltas: Vec<Delta>,
    /// Bench names only in the new document.
    pub added: Vec<String>,
    /// Bench names only in the old document (coverage loss — reported,
    /// not a regression by itself).
    pub removed: Vec<String>,
    /// Set when the documents' modes differ (`full` vs `smoke`): medians
    /// are not comparable across modes, so regressions are judged but
    /// should be read with suspicion.
    pub mode_mismatch: Option<(String, String)>,
    /// One line per simulated counter (`cycles`, `instrs`) that both rows
    /// of a bench carry with different values (`record/ocean: cycles 12239
    /// -> 12240`). Unlike a slow median this is never noise.
    pub counter_changes: Vec<String>,
}

impl Comparison {
    /// Names of the regressed benches.
    #[must_use]
    pub fn regressions(&self) -> Vec<&str> {
        self.deltas
            .iter()
            .filter(|d| d.regressed)
            .map(|d| d.name.as_str())
            .collect()
    }
}

/// Compares `new` against `old`: a bench regresses when its new median
/// exceeds the old by more than its threshold
/// (`new > old × (1 + pct/100)`).
#[must_use]
pub fn compare(old: &BenchDoc, new: &BenchDoc, thresholds: &Thresholds) -> Comparison {
    let mut cmp = Comparison {
        mode_mismatch: match (&old.mode, &new.mode) {
            (Some(a), Some(b)) if a != b => Some((a.clone(), b.clone())),
            _ => None,
        },
        ..Comparison::default()
    };
    for row in &old.rows {
        let Some(new_row) = new.row(&row.name) else {
            cmp.removed.push(row.name.clone());
            continue;
        };
        for (counter, old_n, new_n) in [
            ("cycles", row.cycles, new_row.cycles),
            ("instrs", row.instrs, new_row.instrs),
        ] {
            if let (Some(a), Some(b)) = (old_n, new_n) {
                if a != b {
                    cmp.counter_changes
                        .push(format!("{}: {counter} {a} -> {b}", row.name));
                }
            }
        }
        let threshold_pct = thresholds.for_bench(&row.name);
        let delta_pct = if row.median_ns == 0 {
            0.0
        } else {
            (new_row.median_ns as f64 - row.median_ns as f64) / row.median_ns as f64 * 100.0
        };
        // Integer-exact regression test; the float percentage is display
        // only.
        let limit = row.median_ns as f64 * (1.0 + threshold_pct / 100.0);
        cmp.deltas.push(Delta {
            name: row.name.clone(),
            old_ns: row.median_ns,
            new_ns: new_row.median_ns,
            delta_pct,
            threshold_pct,
            regressed: new_row.median_ns as f64 > limit,
        });
    }
    for row in &new.rows {
        if old.row(&row.name).is_none() {
            cmp.added.push(row.name.clone());
        }
    }
    cmp
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(mode: &str, rows: &[(&str, u64)]) -> BenchDoc {
        BenchDoc {
            schema: "rr-bench/test/v1".into(),
            mode: Some(mode.into()),
            host_cpus: Some(4),
            rows: rows
                .iter()
                .map(|&(name, median_ns)| BenchRow {
                    name: name.into(),
                    median_ns,
                    cycles: None,
                    instrs: None,
                })
                .collect(),
        }
    }

    #[test]
    fn parses_the_checked_in_shape() {
        let s = r#"{
            "schema": "rr-bench/codec/v2",
            "mode": "full",
            "host_cpus": 2,
            "benches": [
                { "name": "decode_chunked/1k", "entries": 1000, "median_ns": 8713, "mb_per_s": 527.4 }
            ]
        }"#;
        let d = parse_bench_json(s).expect("parses");
        assert_eq!(d.schema, "rr-bench/codec/v2");
        assert_eq!(d.mode.as_deref(), Some("full"));
        assert_eq!(d.host_cpus, Some(2));
        assert_eq!(d.row("decode_chunked/1k").expect("row").median_ns, 8713);

        assert!(parse_bench_json("{}").is_err());
        assert!(parse_bench_json("{\"schema\":\"x\"}").is_err());
        assert!(
            parse_bench_json("{\"schema\":\"x\",\"benches\":[{\"name\":\"a\"}]}").is_err(),
            "row without median_ns must fail"
        );
    }

    #[test]
    fn written_documents_parse_back_to_the_same_values() {
        let name = "odd \"name\"\\with\nescapes/é";
        let s = bench_json(
            "rr-bench/test/v1",
            "test",
            |o| {
                o.field("dedup_ratio", json::Fixed(5.52431, 4));
            },
            |rows| {
                rows.object(|r| {
                    r.field("name", name)
                        .field("median_ns", json::Fixed(8713.4, 0))
                        .field("mb_per_s", json::Fixed(f64::NAN, 1));
                })
                .object(|r| {
                    r.field("name", "b").field("median_ns", 7u64);
                });
            },
        );
        assert!(s.ends_with("}\n"), "{s}");
        let d = parse_bench_json(&s).expect("parses");
        let mut want = doc("test", &[(name, 8713), ("b", 7)]);
        want.host_cpus = Some(host_cpus() as u64);
        assert_eq!(d, want);
        let v = json::parse(&s).expect("parses");
        assert_eq!(v.get("dedup_ratio"), Some(&Value::Num(5.5243)));
        let row = &v.get("benches").and_then(Value::as_array).expect("rows")[0];
        assert_eq!(row.get("mb_per_s"), Some(&Value::Null), "NaN is null");
    }

    #[test]
    fn flags_only_regressions_beyond_threshold() {
        let old = doc("full", &[("a", 1000), ("b", 1000), ("gone", 5)]);
        let new = doc("full", &[("a", 1400), ("b", 1600), ("fresh", 7)]);
        let cmp = compare(&old, &new, &Thresholds::default());
        assert_eq!(cmp.regressions(), vec!["b"], "40% ok, 60% regressed");
        assert_eq!(cmp.removed, vec!["gone"]);
        assert_eq!(cmp.added, vec!["fresh"]);
        assert!(cmp.mode_mismatch.is_none());
        let a = &cmp.deltas[0];
        assert!((a.delta_pct - 40.0).abs() < 1e-9, "{}", a.delta_pct);
    }

    #[test]
    fn per_bench_override_beats_default() {
        let old = doc("full", &[("hot", 1000), ("cold", 1000)]);
        let new = doc("full", &[("hot", 1100), ("cold", 1100)]);
        let thr = Thresholds {
            default_pct: 50.0,
            per_bench: vec![("hot".into(), 5.0)],
        };
        let cmp = compare(&old, &new, &thr);
        assert_eq!(cmp.regressions(), vec!["hot"]);
        assert!((thr.for_bench("hot") - 5.0).abs() < f64::EPSILON);
        assert!((thr.for_bench("cold") - 50.0).abs() < f64::EPSILON);
    }

    #[test]
    fn mode_mismatch_is_surfaced() {
        let old = doc("full", &[("a", 100)]);
        let new = doc("smoke", &[("a", 100)]);
        let cmp = compare(&old, &new, &Thresholds::default());
        assert_eq!(cmp.mode_mismatch, Some(("full".into(), "smoke".into())));
    }

    #[test]
    fn a_changed_simulated_counter_is_reported() {
        let parsed = |cycles: u64| {
            parse_bench_json(&format!(
                r#"{{"schema": "rr-bench/record/v1", "benches": [
                    {{"name": "record/ocean", "median_ns": 100, "cycles": {cycles}, "instrs": 900}},
                    {{"name": "plain", "median_ns": 100}}
                ]}}"#
            ))
            .expect("parses")
        };
        let old = parsed(12239);
        assert_eq!(old.rows[0].cycles, Some(12239));
        assert_eq!(old.rows[0].instrs, Some(900));
        assert_eq!(old.rows[1].cycles, None);
        let cmp = compare(&old, &old.clone(), &Thresholds::default());
        assert!(cmp.counter_changes.is_empty());
        let cmp = compare(&old, &parsed(12240), &Thresholds::default());
        assert_eq!(
            cmp.counter_changes,
            vec!["record/ocean: cycles 12239 -> 12240"]
        );
        assert!(cmp.regressions().is_empty(), "the medians are equal");
        // A row that carries no counters on one side is not judged.
        let mut bare = parsed(1);
        bare.rows[0].cycles = None;
        assert!(compare(&old, &bare, &Thresholds::default())
            .counter_changes
            .is_empty());
    }

    #[test]
    fn identical_documents_have_no_regressions() {
        let old = doc("full", &[("a", 1234), ("b", 0)]);
        let cmp = compare(&old, &old.clone(), &Thresholds::default());
        assert!(cmp.regressions().is_empty());
        assert!(cmp.added.is_empty() && cmp.removed.is_empty());
    }
}
