//! Log-service benches: ingest throughput, dedup and fetch of `rr-serve`
//! over loopback.
//!
//! It records the concurrent data-structure corpus once (automatic sweep
//! workers, no replay — the bench measures the service, not the
//! simulator) and then, [`PASSES`] times over, starts an in-process
//! server on a store in a fresh temp directory and times one pass of
//! each: a cold save of every run, a save of the identical corpus under
//! new run names (every chunk dedups against the cold pass's blobs), and
//! a fetch of one run. Each row's `median_ns` is the median over the
//! passes. It writes `BENCH_serve.json` through the shared
//! `rr_bench::run` harness, then gates the store's dedup ratio (the
//! least over the passes) at [`MIN_DEDUP`]: a lower ratio exits nonzero.
//! Every temp store is removed on every exit path.
//!
//! ```text
//! cargo bench -p rr-bench --bench serve            PASSES passes of each row
//! cargo bench -p rr-bench --bench serve -- --out path/to.json
//! ```

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use relaxreplay::trace::json::Fixed;
use rr_bench::BenchArgs;
use rr_serve::{serve, RemoteStore, ServerConfig, ServerHandle};
use rr_sim::sweep::{run_sweep, ReplayPolicy, SweepJob, SweepReport};
use rr_sim::{MachineConfig, RecorderSpec, RunStore, StoreError};

/// The least dedup ratio the doubled corpus must reach: the second pass
/// stores no new chunk payload, so the store holds about half the
/// logical bytes it was sent.
const MIN_DEDUP: f64 = 1.5;

/// Timed passes per row; each row reports the median.
const PASSES: usize = 5;

/// A temp directory removed when dropped, so every exit path — a failed
/// gate included — cleans it up.
struct TempStore(PathBuf);

impl TempStore {
    fn new(pass: usize) -> Self {
        let dir =
            std::env::temp_dir().join(format!("rr-serve-bench-{}-{pass}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempStore(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempStore {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What one pass measured, or the per-row medians over all passes.
struct Measured {
    cold_bytes: u64,
    cold_ns: u64,
    dup_bytes: u64,
    dup_ns: u64,
    fetch_ns: u64,
    dedup_ratio: f64,
}

fn record_corpus() -> Result<SweepReport, String> {
    let specs = RecorderSpec::paper_matrix();
    let jobs: Vec<SweepJob> = rr_workloads::corpus_suite()
        .into_iter()
        .map(|w| {
            let machine = MachineConfig::splash_default(w.programs.len());
            SweepJob::from_specs(
                w.name,
                w.programs,
                w.initial_mem,
                machine,
                &specs,
                ReplayPolicy::Skip,
            )
        })
        .collect();
    run_sweep(&jobs, 0).map_err(|e| format!("corpus sweep: {e}"))
}

/// Bytes moved by `f` and the nanoseconds it took.
fn timed(f: impl FnOnce() -> Result<u64, StoreError>) -> Result<(u64, u64), String> {
    let t = Instant::now();
    let bytes = f().map_err(|e| e.to_string())?;
    Ok((bytes, t.elapsed().as_nanos() as u64))
}

fn measure(handle: &ServerHandle, report: &SweepReport) -> Result<Measured, String> {
    let remote = RemoteStore::new(handle.addr().to_string());
    // Pass A: cold ingest. Pass B: the identical corpus under fresh run
    // names — every chunk payload dedups against pass A's blobs.
    let (cold_bytes, cold_ns) = timed(|| {
        let mut total = 0;
        for o in &report.outputs {
            total += remote.save_run(&o.name, &o.run)?;
        }
        Ok(total)
    })?;
    let (dup_bytes, dup_ns) = timed(|| {
        let mut total = 0;
        for o in &report.outputs {
            total += remote.save_run(&format!("{}-b", o.name), &o.run)?;
        }
        Ok(total)
    })?;

    let first = &report.outputs[0];
    let t = Instant::now();
    let fetched = remote.load_run(&first.name).map_err(|e| e.to_string())?;
    let fetch_ns = t.elapsed().as_nanos() as u64;
    if fetched.variants.len() != first.run.variants.len() {
        return Err("fetched run lost variants".into());
    }

    let stat = remote.stat_run(&first.name).map_err(|e| e.to_string())?;
    let dedup = stat.dedup.ok_or("remote stat carried no dedup figures")?;
    Ok(Measured {
        cold_bytes,
        cold_ns,
        dup_bytes,
        dup_ns,
        fetch_ns,
        dedup_ratio: dedup.ratio(),
    })
}

fn mb_per_s(bytes: u64, ns: u64) -> f64 {
    if ns == 0 {
        0.0
    } else {
        bytes as f64 / 1.0e6 / (ns as f64 / 1.0e9)
    }
}

fn write_json(args: &BenchArgs, m: &Measured) -> Result<(), String> {
    let ingest = [
        ("ingest/corpus-cold", m.cold_bytes, m.cold_ns),
        ("ingest/corpus-dup", m.dup_bytes, m.dup_ns),
    ];
    args.write(
        "rr-bench/serve/v1",
        |o| {
            o.field("dedup_ratio", Fixed(m.dedup_ratio, 4)).field(
                "ingest_mb_per_s",
                Fixed(mb_per_s(m.cold_bytes, m.cold_ns), 2),
            );
        },
        |rows| {
            for (name, bytes, ns) in ingest {
                rows.object(|r| {
                    r.field("name", name)
                        .field("bytes", bytes)
                        .field("median_ns", ns)
                        .field("mb_per_s", Fixed(mb_per_s(bytes, ns), 2));
                });
            }
            rows.object(|r| {
                r.field("name", "fetch/one-run")
                    .field("median_ns", m.fetch_ns);
            });
        },
    )
}

/// One pass against a server on a fresh temp store; the server stops
/// and the store is removed before it returns.
fn measure_pass(pass: usize, report: &SweepReport) -> Result<Measured, String> {
    let store = TempStore::new(pass);
    let handle =
        serve("127.0.0.1:0", ServerConfig::new(store.path())).map_err(|e| e.to_string())?;
    let measured = measure(&handle, report);
    handle.shutdown();
    measured
}

/// The median of `xs` (the upper one of an even count).
fn median(mut xs: Vec<u64>) -> u64 {
    xs.sort_unstable();
    xs[xs.len() / 2]
}

fn main() -> ExitCode {
    rr_bench::run("serve", &[], |args| {
        let report = record_corpus()?;
        let passes = (0..PASSES)
            .map(|pass| measure_pass(pass, &report))
            .collect::<Result<Vec<_>, _>>()?;
        let row = |f: fn(&Measured) -> u64| median(passes.iter().map(f).collect());
        let m = Measured {
            cold_bytes: passes[0].cold_bytes,
            cold_ns: row(|m| m.cold_ns),
            dup_bytes: passes[0].dup_bytes,
            dup_ns: row(|m| m.dup_ns),
            fetch_ns: row(|m| m.fetch_ns),
            dedup_ratio: passes
                .iter()
                .map(|m| m.dedup_ratio)
                .fold(f64::INFINITY, f64::min),
        };
        println!(
            "ingest {:.1} MB/s cold / {:.1} MB/s dup, dedup {:.2}x (median of {PASSES} passes)",
            mb_per_s(m.cold_bytes, m.cold_ns),
            mb_per_s(m.dup_bytes, m.dup_ns),
            m.dedup_ratio
        );
        write_json(args, &m)?;
        if m.dedup_ratio < MIN_DEDUP {
            return Err(format!(
                "GATE FAILED: dedup ratio {:.2}x below the required {MIN_DEDUP:.2}x",
                m.dedup_ratio
            ));
        }
        Ok(())
    })
}
