//! One function per paper table/figure, producing printable tables from
//! the recorded runs.

// Variant indices deliberately index several parallel arrays.
#![allow(clippy::needless_range_loop)]

use rr_sim::{JobOutput, MachineConfig};

use crate::report::{f2, pct, Table};

/// Variant indices in every run (see `RecorderSpec::paper_matrix`).
pub const BASE_4K: usize = 0;
/// Opt design, 4K maximum interval.
pub const OPT_4K: usize = 1;
/// Base design, unbounded intervals.
pub const BASE_INF: usize = 2;
/// Opt design, unbounded intervals.
pub const OPT_INF: usize = 3;

const VARIANT_NAMES: [&str; 4] = ["Base-4K", "Opt-4K", "Base-INF", "Opt-INF"];

/// Table 1: the architectural parameters of the simulated machine.
#[must_use]
pub fn table1(cfg: &MachineConfig) -> Table {
    let mut t = Table::new("Table 1: architectural parameters", &["parameter", "value"]);
    let mut kv = |k: &str, v: String| t.row(vec![k.to_string(), v]);
    kv("cores", format!("{}", cfg.num_cores));
    kv(
        "core",
        format!(
            "{}-way out-of-order @ {} GHz",
            cfg.cpu.issue_width, cfg.clock_ghz
        ),
    );
    kv("ROB", format!("{} entries", cfg.cpu.rob_entries));
    kv("Ld/St queue", format!("{} entries", cfg.cpu.lsq_entries));
    kv("Ld/St units", format!("{}", cfg.cpu.ldst_units));
    kv(
        "write buffer",
        format!("{} entries", cfg.cpu.write_buffer_entries),
    );
    kv(
        "L1",
        format!(
            "private, {} KB, {}-way, 32 B lines, {} MSHRs, {}-cycle",
            cfg.mem.l1_bytes / 1024,
            cfg.mem.l1_assoc,
            cfg.mem.l1_mshrs,
            cfg.mem.l1_hit_latency
        ),
    );
    kv(
        "L2",
        format!(
            "shared, {} KB/core, {}-way, {}-cycle",
            cfg.mem.l2_bytes_per_core / 1024,
            cfg.mem.l2_assoc,
            cfg.mem.l2_latency
        ),
    );
    kv("ring", format!("{:?}, 1-cycle hop", cfg.mem.mode));
    kv(
        "memory",
        format!("{}-cycle round-trip from L2", cfg.mem.memory_latency),
    );
    kv("TRAQ", "176 entries".to_string());
    kv(
        "signatures",
        "4 x 256-bit Bloom (H3) per read/write set".to_string(),
    );
    kv("Snoop Table", "2 arrays x 64 x 16-bit counters".to_string());
    t
}

/// Figure 1: fraction of memory-access instructions performed out of
/// program order, split into loads and stores.
#[must_use]
pub fn fig01(runs: &[JobOutput]) -> Table {
    let mut t = Table::new(
        "Figure 1: accesses performed out of program order",
        &["workload", "ooo loads", "ooo stores", "total"],
    );
    let (mut sl, mut ss, mut st) = (0.0, 0.0, 0.0);
    for r in runs {
        let mem: u64 = r.run.core_stats.iter().map(|s| s.mem_instrs()).sum();
        let ol: u64 = r.run.core_stats.iter().map(|s| s.ooo_loads).sum();
        let os: u64 = r.run.core_stats.iter().map(|s| s.ooo_stores).sum();
        let (fl, fs) = (ol as f64 / mem as f64, os as f64 / mem as f64);
        sl += fl;
        ss += fs;
        st += fl + fs;
        t.row(vec![r.name.clone(), pct(fl), pct(fs), pct(fl + fs)]);
    }
    let n = runs.len() as f64;
    t.row(vec![
        "AVERAGE".into(),
        pct(sl / n),
        pct(ss / n),
        pct(st / n),
    ]);
    t
}

/// Figure 9: fraction of memory accesses logged as reordered, for every
/// design × interval-size combination.
#[must_use]
pub fn fig09(runs: &[JobOutput]) -> Table {
    let mut t = Table::new(
        "Figure 9: fraction of accesses logged as reordered",
        &["workload", "Base-4K", "Opt-4K", "Base-INF", "Opt-INF"],
    );
    let mut sums = [0.0; 4];
    for r in runs {
        let f: Vec<f64> = (0..4)
            .map(|v| r.run.variants[v].reordered_fraction())
            .collect();
        for (s, x) in sums.iter_mut().zip(&f) {
            *s += x;
        }
        t.row(vec![
            r.name.clone(),
            pct(f[0]),
            pct(f[1]),
            pct(f[2]),
            pct(f[3]),
        ]);
    }
    let n = runs.len() as f64;
    t.row(vec![
        "AVERAGE".into(),
        pct(sums[0] / n),
        pct(sums[1] / n),
        pct(sums[2] / n),
        pct(sums[3] / n),
    ]);
    t
}

/// Figure 10: number of `InorderBlock` entries, normalized to
/// RelaxReplay_Base at the same interval size.
#[must_use]
pub fn fig10(runs: &[JobOutput]) -> Table {
    let mut t = Table::new(
        "Figure 10: InorderBlock entries, Opt normalized to Base",
        &[
            "workload",
            "Opt/Base (4K)",
            "Opt/Base (INF)",
            "Base-4K IBs",
            "Base-INF IBs",
        ],
    );
    let (mut s4, mut si) = (0.0, 0.0);
    for r in runs {
        let ib = |v: usize| r.run.variants[v].inorder_blocks() as f64;
        let r4 = ib(OPT_4K) / ib(BASE_4K).max(1.0);
        let ri = ib(OPT_INF) / ib(BASE_INF).max(1.0);
        s4 += r4;
        si += ri;
        t.row(vec![
            r.name.clone(),
            f2(r4),
            f2(ri),
            format!("{}", r.run.variants[BASE_4K].inorder_blocks()),
            format!("{}", r.run.variants[BASE_INF].inorder_blocks()),
        ]);
    }
    let n = runs.len() as f64;
    t.row(vec![
        "AVERAGE".into(),
        f2(s4 / n),
        f2(si / n),
        String::new(),
        String::new(),
    ]);
    t
}

/// Figure 11: uncompressed log size in bits per kilo-instruction, plus the
/// implied log bandwidth in MB/s at the simulated clock.
#[must_use]
pub fn fig11(runs: &[JobOutput]) -> Table {
    fig11_titled(
        "Figure 11: log size (bits / kilo-instruction) and rate (MB/s)",
        runs,
    )
}

/// [`fig11`] over the concurrent data-structure corpus: per-shape log
/// sizes for the `.asm` workloads (locks, seqlock, lock-free structures).
#[must_use]
pub fn fig11_corpus(runs: &[JobOutput]) -> Table {
    fig11_titled(
        "Figure 11 (corpus): log size (bits / kilo-instruction) and rate (MB/s)",
        runs,
    )
}

fn fig11_titled(title: &str, runs: &[JobOutput]) -> Table {
    let mut t = Table::new(
        title,
        &[
            "workload",
            "Base-4K",
            "Opt-4K",
            "Base-INF",
            "Opt-INF",
            "Base-4K MB/s",
            "Opt-4K MB/s",
            "Base-INF MB/s",
            "Opt-INF MB/s",
        ],
    );
    let mut sums = [0.0f64; 8];
    for r in runs {
        let mut cells = vec![r.name.clone()];
        for v in 0..4 {
            let b = r.run.variants[v].bits_per_kilo_instr();
            sums[v] += b;
            cells.push(f2(b));
        }
        for v in 0..4 {
            let rate = r.run.log_rate_mbps(v).unwrap_or_default();
            sums[4 + v] += rate;
            cells.push(f2(rate));
        }
        t.row(cells);
    }
    let n = runs.len() as f64;
    let mut avg = vec!["AVERAGE".to_string()];
    for s in sums {
        avg.push(f2(s / n));
    }
    t.row(avg);
    t
}

/// Figure 12: TRAQ utilization (average and peak occupancy of 176 entries)
/// plus the recording-overhead evidence of §5.3 (TRAQ-full stall cycles).
#[must_use]
pub fn fig12(runs: &[JobOutput]) -> Table {
    let mut t = Table::new(
        "Figure 12 / §5.3: TRAQ occupancy and recording overhead",
        &["workload", "avg entries", "peak", "stall cycles", "stall %"],
    );
    for r in runs {
        // TRAQ dynamics are identical across variants; use variant 0.
        let stats = &r.run.variants[BASE_4K].stats;
        let avg = stats.iter().map(|s| s.traq_avg()).sum::<f64>() / stats.len() as f64;
        let peak = stats.iter().map(|s| s.traq_peak).max().unwrap_or(0);
        let stall: u64 = r.run.core_stats.iter().map(|s| s.traq_stall_cycles).sum();
        let cycles = r.run.cycles * r.run.core_stats.len() as u64;
        t.row(vec![
            r.name.clone(),
            f2(avg),
            format!("{peak}"),
            format!("{stall}"),
            pct(stall as f64 / cycles as f64),
        ]);
    }
    t
}

/// Figure 12(b): TRAQ occupancy distribution (bins of 10 entries) for the
/// given workloads.
#[must_use]
pub fn fig12_histogram(runs: &[JobOutput], names: &[&str]) -> Table {
    let bins: Vec<String> = (0..18)
        .map(|b| format!("{}-{}", b * 10, b * 10 + 9))
        .collect();
    let mut headers = vec!["workload"];
    headers.extend(bins.iter().map(String::as_str));
    let mut t = Table::new("Figure 12(b): TRAQ occupancy distribution (%)", &headers);
    for r in runs.iter().filter(|r| names.contains(&r.name.as_str())) {
        let stats = &r.run.variants[BASE_4K].stats;
        let mut hist = [0u64; 18];
        let mut total = 0u64;
        for s in stats {
            for (i, h) in s.traq_hist.iter().take(18).enumerate() {
                hist[i] += h;
                total += h;
            }
        }
        let mut cells = vec![r.name.clone()];
        cells.extend(
            hist.iter()
                .map(|&h| format!("{:.1}", h as f64 * 100.0 / total.max(1) as f64)),
        );
        t.row(cells);
    }
    t
}

/// Figure 13: sequential replay time normalized to the parallel recording
/// time, with the user/OS-cycle split.
#[must_use]
pub fn fig13(runs: &[JobOutput]) -> Table {
    fig13_titled(
        "Figure 13: replay time / recording time (user + OS cycles)",
        runs,
    )
}

/// [`fig13`] over the concurrent data-structure corpus.
#[must_use]
pub fn fig13_corpus(runs: &[JobOutput]) -> Table {
    fig13_titled(
        "Figure 13 (corpus): replay time / recording time (user + OS cycles)",
        runs,
    )
}

fn fig13_titled(title: &str, runs: &[JobOutput]) -> Table {
    let mut t = Table::new(
        title,
        &[
            "workload", "Base-4K", "(os%)", "Opt-4K", "(os%)", "Base-INF", "(os%)", "Opt-INF",
            "(os%)",
        ],
    );
    let mut sums = [0.0f64; 4];
    for r in runs {
        assert!(
            !r.replays.is_empty(),
            "fig13 needs replay outcomes (ExperimentConfig.replay = true)"
        );
        let mut cells = vec![r.name.clone()];
        for v in 0..4 {
            let o = &r.replays[v];
            let ratio = o.total_cycles() as f64 / r.run.cycles as f64;
            let os_share = o.os_cycles as f64 / o.total_cycles() as f64;
            sums[v] += ratio;
            cells.push(format!("{ratio:.2}x"));
            cells.push(format!("{:.0}%", os_share * 100.0));
        }
        t.row(cells);
    }
    let n = runs.len() as f64;
    let mut avg = vec!["AVERAGE".to_string()];
    for s in sums {
        avg.push(format!("{:.2}x", s / n));
        avg.push(String::new());
    }
    t.row(avg);
    t
}

/// Figure 14: scalability — average reordered fraction and log rate as the
/// core count grows, one row per run of consecutive outputs recorded on
/// the same number of cores (`runner::run_scalability`'s order).
#[must_use]
pub fn fig14(outputs: &[JobOutput]) -> Table {
    let mut headers = vec!["cores".to_string()];
    for v in VARIANT_NAMES {
        headers.push(format!("{v} reord"));
    }
    for v in VARIANT_NAMES {
        headers.push(format!("{v} MB/s"));
    }
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut t = Table::new(
        "Figure 14: scalability with core count (workload averages)",
        &header_refs,
    );
    let cores = |o: &JobOutput| o.run.core_stats.len();
    for runs in outputs.chunk_by(|a, b| cores(a) == cores(b)) {
        let n = runs.len() as f64;
        let mut cells = vec![format!("P{}", cores(&runs[0]))];
        for v in 0..4 {
            let avg = runs
                .iter()
                .map(|r| r.run.variants[v].reordered_fraction())
                .sum::<f64>()
                / n;
            cells.push(pct(avg));
        }
        for v in 0..4 {
            let avg = runs
                .iter()
                .map(|r| r.run.log_rate_mbps(v).unwrap_or_default())
                .sum::<f64>()
                / n;
            cells.push(f2(avg));
        }
        t.row(cells);
    }
    t
}

/// End-of-run summary: how well the chunked `.rrlog` wire format compresses
/// each variant's log versus the flat encoding (`rec.*.wire_*` metrics,
/// parts-per-thousand — smaller is better), and where the host wall-clock
/// went per phase (`PhaseNanos`).
#[must_use]
pub fn summary(runs: &[JobOutput]) -> Table {
    let mut t = Table::new(
        "Summary: wire compression (chunked/flat, permille) and host phase times",
        &[
            "workload",
            "Base-4K",
            "Opt-4K",
            "Base-INF",
            "Opt-INF",
            "wire KB",
            "record ms",
            "patch ms",
            "replay ms",
            "verify ms",
        ],
    );
    let mut permille_sums = [0.0f64; 4];
    let mut wire_total = 0u64;
    let mut phase_sums = [0u64; 4];
    for r in runs {
        let mut cells = vec![r.name.clone()];
        for (v, label) in VARIANT_NAMES.iter().enumerate() {
            let permille = r
                .metrics
                .counter(&format!("rec.{label}.wire_compression_permille"));
            permille_sums[v] += permille as f64;
            cells.push(format!("{permille}"));
        }
        let wire: u64 = VARIANT_NAMES
            .iter()
            .map(|label| r.metrics.counter(&format!("rec.{label}.wire_bytes")))
            .sum();
        wire_total += wire;
        cells.push(f2(wire as f64 / 1024.0));
        let phases = [
            r.phases.record,
            r.phases.patch,
            r.phases.replay,
            r.phases.verify,
        ];
        for (sum, ns) in phase_sums.iter_mut().zip(phases) {
            *sum += ns;
            cells.push(f2(ns as f64 / 1e6));
        }
        t.row(cells);
    }
    let n = runs.len() as f64;
    let mut totals = vec!["TOTAL/AVG".to_string()];
    for s in permille_sums {
        totals.push(format!("{:.0}", s / n));
    }
    totals.push(f2(wire_total as f64 / 1024.0));
    for s in phase_sums {
        totals.push(f2(s as f64 / 1e6));
    }
    t.row(totals);
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use relaxreplay::{IntervalLog, IntervalOrdering, LogEntry, RecorderStats};
    use rr_cpu::CoreStats;
    use rr_mem::{CoreId, MemStats};
    use rr_replay::RecordedExecution;
    use rr_sim::{PressureReport, RecorderSpec, RunResult, VariantResult};

    /// A hand-built run: 1000 cycles, `cores` identical cores, four
    /// variants with known stats, so every figure's arithmetic is
    /// checkable by hand.
    fn synthetic_cores(cores: usize) -> JobOutput {
        let specs = RecorderSpec::paper_matrix();
        let variants = specs
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let logs = vec![IntervalLog {
                    core: CoreId::new(0),
                    entries: vec![
                        LogEntry::InorderBlock { instrs: 100 },
                        LogEntry::ReorderedLoad { value: 1 },
                        LogEntry::IntervalFrame {
                            cisn: 0,
                            timestamp: 10,
                        },
                    ],
                }];
                let stats = vec![RecorderStats {
                    counted_loads: 80,
                    counted_stores: 20,
                    counted_instrs: 1000,
                    reordered_loads: (i as u64 + 1) * 2, // 2,4,6,8
                    traq_occupancy_sum: 500,
                    traq_samples: 100,
                    traq_hist: vec![100; 18],
                    traq_peak: 42,
                    ..RecorderStats::default()
                }];
                VariantResult {
                    spec: spec.clone(),
                    logs,
                    stats,
                    ordering: vec![IntervalOrdering::default()],
                }
            })
            .collect();
        JobOutput {
            job: 0,
            name: "synthetic".to_string(),
            metrics: rr_sim::MetricsRegistry::default(),
            phases: rr_sim::PhaseNanos::default(),
            pressure: PressureReport::default(),
            run: RunResult {
                cycles: 1000,
                core_stats: vec![
                    CoreStats {
                        retired: 1000,
                        loads: 80,
                        stores: 20,
                        ooo_loads: 40,
                        ooo_stores: 5,
                        ..CoreStats::default()
                    };
                    cores
                ],
                mem_stats: MemStats::default(),
                recorded: RecordedExecution::default(),
                variants,
                clock_ghz: 2.0,
                trace: None,
            },
            replays: Vec::new(),
        }
    }

    fn synthetic_run() -> JobOutput {
        synthetic_cores(1)
    }

    #[test]
    fn fig01_math() {
        let runs = vec![synthetic_run()];
        let t = fig01(&runs);
        let text = t.render();
        // 40/100 = 40% loads, 5/100 = 5% stores, 45% total.
        assert!(text.contains("40.000%"), "{text}");
        assert!(text.contains("5.000%"), "{text}");
        assert!(text.contains("45.000%"), "{text}");
    }

    #[test]
    fn fig09_math() {
        let runs = vec![synthetic_run()];
        let text = fig09(&runs).render();
        // Variant 0: 2/100 = 2%; variant 3: 8/100 = 8%.
        assert!(text.contains("2.000%"), "{text}");
        assert!(text.contains("8.000%"), "{text}");
    }

    #[test]
    fn fig11_math() {
        let runs = vec![synthetic_run()];
        let text = fig11(&runs).render();
        // Log bits: IB(34) + RL(66) + FRAME(82) = 182 bits over 1000
        // instructions = 182 bits/kinstr.
        assert!(text.contains("182.00"), "{text}");
        // Rate: 182 bits / 1000 cycles @2GHz = 45.5 MB/s.
        assert!(text.contains("45.50"), "{text}");
    }

    #[test]
    fn fig12_math() {
        let runs = vec![synthetic_run()];
        let text = fig12(&runs).render();
        assert!(text.contains("5.00"), "avg occupancy 500/100: {text}");
        assert!(text.contains("42"), "peak: {text}");
    }

    #[test]
    fn summary_reads_wire_metrics_and_phases() {
        let mut run = synthetic_run();
        run.metrics
            .set("rec.Base-4K.wire_compression_permille", 417);
        run.metrics.set("rec.Base-4K.wire_bytes", 2048);
        run.phases.record = 3_000_000;
        let text = summary(&[run]).render();
        assert!(text.contains("417"), "{text}");
        assert!(text.contains("2.00"), "2048 B = 2.00 KB: {text}");
        assert!(text.contains("3.00"), "3 ms of recording: {text}");
    }

    #[test]
    fn fig14_shapes_rows_per_core_count() {
        let outputs = [4, 4, 8].map(synthetic_cores);
        let text = fig14(&outputs).render();
        assert!(text.contains("P4"));
        assert!(text.contains("P8"));
        assert_eq!(
            text.lines().count(),
            5,
            "title, header, rule, two rows:\n{text}"
        );
    }
}
