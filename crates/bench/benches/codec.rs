//! Wire-codec throughput benches — the evidence behind the fast-path
//! decode work (batched varint decode, sliced CRC32, zero-copy chunk
//! cursor, parallel per-core ingest).
//!
//! It times encode/decode at 1K / 100K / 10M / 100M entries (the 100M
//! stream is generated straight through a `ChunkedWriter` and decoded
//! into a reused output log — the replay engine's steady-state ingest
//! pattern) and pooled ingest (`ordered_pool`) at 1/2/8 workers, writes the
//! results as `BENCH_codec.json` through the shared `rr_bench::run`
//! harness, and — on every invocation — decodes the checked-in sample
//! `.rrlog` (`data/sample_v3.rrlog`) with the fast decoder, the
//! entry-at-a-time `rr-reference` oracle decoder, the probed decoder and
//! the file reader `read_rrlog`, exiting nonzero on any disagreement (the
//! CI `bench-smoke` gate). The `--test` mode also hard-gates the
//! `workers == 1` ingest path: it must cost no more than a plain serial
//! decode loop.
//!
//! ```text
//! cargo bench -p rr-bench --bench codec            full measurement
//! cargo bench -p rr-bench --bench codec -- --test  CI smoke (fast, same JSON)
//! cargo bench -p rr-bench --bench codec -- --out path/to.json
//! cargo bench -p rr-bench --bench codec -- --regen-data  rewrite the sample
//! ```

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use relaxreplay::prof::CodecPhases;
use relaxreplay::trace::json::Fixed;
use relaxreplay::wire::{
    decode_chunked, decode_chunked_into, encode_chunked, read_rrlog, ChunkedWriter, VERSION,
};
use relaxreplay::{IntervalLog, LogEntry, LogSink};
use rr_bench::compare::host_cpus;
use rr_bench::{median_ns, BenchArgs};
use rr_mem::CoreId;
use rr_reference::decode_chunked_reference;
use rr_replay::ordered_pool;

/// Appends step `i` of the synthetic entry mix to `out`: a long inorder
/// run, periodic reordered loads/stores, the odd RMW, one frame per
/// interval — the recorder's real shape.
fn entry_batch(i: u64, out: &mut Vec<LogEntry>) {
    out.clear();
    out.push(LogEntry::InorderBlock {
        instrs: 50 + (i % 100) as u32,
    });
    if i.is_multiple_of(3) {
        out.push(LogEntry::ReorderedLoad {
            value: i.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        });
    }
    if i.is_multiple_of(5) {
        out.push(LogEntry::ReorderedStore {
            addr: (i % 4096) * 8,
            value: i,
            offset: (i % 7) as u32,
        });
    }
    if i.is_multiple_of(17) {
        out.push(LogEntry::ReorderedRmw {
            loaded: i,
            addr: (i % 512) * 8,
            stored: if i.is_multiple_of(2) {
                Some(i + 1)
            } else {
                None
            },
            offset: 1,
        });
    }
    out.push(LogEntry::IntervalFrame {
        cisn: i as u16,
        timestamp: i * 170 + (i % 13),
    });
}

/// A synthetic log with the recorder's real entry mix (see
/// [`entry_batch`]).
fn synthetic_log(core: u8, entries: usize) -> IntervalLog {
    let mut log = IntervalLog::new(CoreId::new(core));
    log.entries.reserve(entries);
    let mut batch = Vec::new();
    let mut i = 0u64;
    while log.entries.len() < entries {
        entry_batch(i, &mut batch);
        log.entries.extend(batch.iter().cloned());
        i += 1;
    }
    log.entries.truncate(entries);
    // Keep the stream well-formed: a log should end on a frame.
    if !matches!(log.entries.last(), Some(LogEntry::IntervalFrame { .. })) {
        log.entries.pop();
        log.entries.push(LogEntry::IntervalFrame {
            cisn: i as u16,
            timestamp: i * 170,
        });
    }
    log
}

/// Encodes the same entry mix straight through a [`ChunkedWriter`]
/// without materializing the input log: at 100M entries the in-memory
/// `Vec<LogEntry>` would cost gigabytes for no measurement value — the
/// bench only needs the wire bytes.
fn synthetic_stream(core: u8, entries: usize) -> Vec<u8> {
    let mut out = Vec::new();
    let mut w = ChunkedWriter::new(&mut out, CoreId::new(core)).expect("Vec writes cannot fail");
    let mut batch = Vec::new();
    // Hold one entry back so the tail can be fixed up to end on a frame,
    // mirroring `synthetic_log`.
    let mut pending: Option<LogEntry> = None;
    let mut emitted = 0usize;
    let mut i = 0u64;
    'gen: while emitted < entries {
        entry_batch(i, &mut batch);
        i += 1;
        for e in &batch {
            if let Some(p) = pending.take() {
                w.emit(&p).expect("Vec writes cannot fail");
            }
            pending = Some(*e);
            emitted += 1;
            if emitted == entries {
                break 'gen;
            }
        }
    }
    let last = pending.expect("entries >= 1");
    if matches!(last, LogEntry::IntervalFrame { .. }) {
        w.emit(&last).expect("Vec writes cannot fail");
    } else {
        w.emit(&LogEntry::IntervalFrame {
            cisn: i as u16,
            timestamp: i * 170,
        })
        .expect("Vec writes cannot fail");
    }
    w.close().expect("Vec writes cannot fail");
    out
}

struct Sample {
    name: String,
    entries: usize,
    bytes: usize,
    median_ns: f64,
    mb_per_s: f64,
    /// `(requested, effective)` worker counts — parallel benches only.
    workers: Option<(usize, usize)>,
    /// Per-phase decode attribution from one profiled pass — decode
    /// benches only.
    phases: Option<CodecPhases>,
}

fn push_sample(out: &mut Vec<Sample>, name: String, entries: usize, bytes: usize, median_ns: f64) {
    let mb_per_s = bytes as f64 / median_ns * 1e9 / 1e6;
    println!("{name:<28} {median_ns:>12.0} ns/iter  {mb_per_s:>9.1} MB/s  ({bytes} B)");
    out.push(Sample {
        name,
        entries,
        bytes,
        median_ns,
        mb_per_s,
        workers: None,
        phases: None,
    });
}

/// Times the steady-state decode of `bytes` — `decode_chunked_into` with
/// a reused output log, the replay engine's actual ingest pattern (a
/// fresh multi-hundred-MB output `Vec` per iteration would measure page
/// faults, not the codec) — then runs one profiled pass for the phase
/// decomposition.
fn bench_decode_row(smoke: bool, out: &mut Vec<Sample>, tag: &str, entries: usize, bytes: &[u8]) {
    let mut reused = IntervalLog::new(CoreId::new(0));
    let ns = median_ns(smoke, || {
        decode_chunked_into(std::hint::black_box(bytes), &mut reused, &mut ()).expect("decodes");
        std::hint::black_box(&reused);
    });
    push_sample(
        out,
        format!("decode_chunked/{tag}"),
        entries,
        bytes.len(),
        ns,
    );
    drop(reused); // keep the profiled pass's peak footprint to one output log
    let mut phases = CodecPhases::default();
    let mut fresh = IntervalLog::new(CoreId::new(0));
    decode_chunked_into(bytes, &mut fresh, &mut phases).expect("decodes");
    std::hint::black_box(&fresh);
    println!("{:<28} {}", format!("  phases/{tag}"), phases.summary());
    out.last_mut().expect("just pushed").phases = Some(phases);
}

fn bench_codec(smoke: bool, out: &mut Vec<Sample>) {
    let sizes: &[(usize, &str)] = if smoke {
        &[(1_000, "1k"), (100_000, "100k")]
    } else {
        &[(1_000, "1k"), (100_000, "100k"), (10_000_000, "10m")]
    };
    for &(entries, tag) in sizes {
        let log = synthetic_log(0, entries);
        let bytes = encode_chunked(&log);
        let ns = median_ns(smoke, || {
            std::hint::black_box(encode_chunked(std::hint::black_box(&log)));
        });
        push_sample(
            out,
            format!("encode_chunked/{tag}"),
            entries,
            bytes.len(),
            ns,
        );
        drop(log);
        bench_decode_row(smoke, out, tag, entries, &bytes);
    }
    // The 100M row — the decode cliff this bench exists to watch. The
    // ~525 MB input stream is generated without materializing an input
    // log; there is no encode row because `encode_chunked` needs one.
    // Runs in `--test` mode too (once through), so CI sees the cliff.
    let entries = 100_000_000usize;
    let bytes = synthetic_stream(0, entries);
    bench_decode_row(smoke, out, "100m", entries, &bytes);
}

fn bench_parallel(smoke: bool, out: &mut Vec<Sample>) -> Result<(), String> {
    let entries = if smoke { 20_000 } else { 400_000 };
    let logs: Vec<Vec<u8>> = (0..8)
        .map(|core| encode_chunked(&synthetic_log(core, entries)))
        .collect();
    let streams: Vec<&[u8]> = logs.iter().map(Vec::as_slice).collect();
    let total: usize = logs.iter().map(Vec::len).sum();
    // Serial baseline for the workers=1 overhead gate below: the same
    // decodes, plain loop, no pool in sight. Collect into a Vec exactly
    // like the pooled decode returns — dropping each log as it
    // decodes would give the baseline a smaller live-memory peak (one log
    // vs eight) and turn the gate into an allocator benchmark.
    let serial_ns = median_ns(smoke, || {
        let decoded: Vec<IntervalLog> = streams
            .iter()
            .map(|s| decode_chunked(std::hint::black_box(s)).expect("decodes"))
            .collect();
        std::hint::black_box(decoded);
    });
    let mut w1_ns = f64::INFINITY;
    for workers in [1usize, 2, 8] {
        let ns = median_ns(smoke, || {
            std::hint::black_box(
                ordered_pool(streams.len(), workers, |i| {
                    decode_chunked(std::hint::black_box(streams[i]))
                })
                .expect("decodes"),
            );
        });
        if workers == 1 {
            w1_ns = ns;
        }
        push_sample(
            out,
            format!("parallel_decode/{workers}"),
            entries * 8,
            total,
            ns,
        );
        // The pool spawns min(workers, streams) threads; the host can only
        // run min(that, cpus) of them at once — recorded so the trajectory
        // is interpretable on 1-cpu CI runners.
        let effective = workers.min(streams.len()).min(host_cpus());
        out.last_mut().expect("just pushed").workers = Some((workers, effective));
    }
    // workers=1 must dispatch inline on the caller thread — the pool once
    // cost tens of percent here. The margin absorbs scheduler noise
    // (smoke mode times a single iteration).
    let limit = if smoke { 2.0 } else { 1.3 };
    if w1_ns > serial_ns * limit {
        return Err(format!(
            "parallel_decode/1 ({w1_ns:.0} ns) exceeds {limit}x the plain serial loop \
             ({serial_ns:.0} ns): the workers=1 ingest path must dispatch inline"
        ));
    }
    Ok(())
}

fn data_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("data")
}

/// Rewrites the checked-in sample log for the current wire version.
fn regen_data() -> std::io::Result<()> {
    let dir = data_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("sample_v{VERSION}.rrlog"));
    std::fs::write(&path, encode_chunked(&synthetic_log(0, 4_000)))?;
    println!("sample log rewritten: {}", path.display());
    Ok(())
}

/// Decodes the checked-in sample with the fast path, the reference
/// decoder, the probed walk and the file reader `read_rrlog`; any
/// disagreement is a codec bug and fails the bench (and CI). Returns the number of samples checked.
fn reference_check() -> Result<usize, String> {
    let path = data_dir().join(format!("sample_v{VERSION}.rrlog"));
    let bytes = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let fast = decode_chunked(&bytes);
    let reference = decode_chunked_reference(&bytes);
    if fast != reference {
        return Err(format!(
            "{}: fast decoder disagrees with the reference decoder\n  fast: {fast:?}\n  ref:  {reference:?}",
            path.display()
        ));
    }
    // A probe must not change what the walk returns — gate its parity
    // too.
    let mut phases = CodecPhases::default();
    let mut log = IntervalLog::new(CoreId::new(0));
    let profiled = decode_chunked_into(&bytes, &mut log, &mut phases).map(|()| log);
    if profiled != fast {
        return Err(format!(
            "{}: profiled decoder disagrees with the fast decoder",
            path.display()
        ));
    }
    // And the file path every tool reads through: `read_rrlog`.
    if read_rrlog(&path) != fast {
        return Err(format!(
            "{}: read_rrlog disagrees with the fast decoder",
            path.display()
        ));
    }
    fast.map_err(|e| format!("{}: sample does not decode: {e}", path.display()))?;
    Ok(1)
}

fn write_json(args: &BenchArgs, samples: &[Sample], checked: usize) -> Result<(), String> {
    args.write(
        "rr-bench/codec/v2",
        |o| {
            o.object("reference_check", |r| {
                r.field("files", checked).field("ok", true);
            });
        },
        |rows| {
            for b in samples {
                rows.object(|r| {
                    r.field("name", &b.name)
                        .field("entries", b.entries)
                        .field("bytes", b.bytes)
                        .field("median_ns", Fixed(b.median_ns, 0))
                        .field("mb_per_s", Fixed(b.mb_per_s, 1));
                    if let Some((requested, effective)) = b.workers {
                        r.field("workers", requested)
                            .field("effective_workers", effective);
                    }
                    if let Some(p) = &b.phases {
                        r.object("phases", |o| p.json_fields(o));
                    }
                });
            }
        },
    )
}

fn main() -> ExitCode {
    rr_bench::run("codec", &["--regen-data"], |args| {
        if args.flag("--regen-data") {
            return regen_data().map_err(|e| format!("regen-data: {e}"));
        }
        let checked = reference_check().map_err(|e| format!("REFERENCE CHECK FAILED: {e}"))?;
        println!("reference check: {checked} sample log(s) decode identically on every decoder");

        let mut samples = Vec::new();
        bench_codec(args.smoke, &mut samples);
        bench_parallel(args.smoke, &mut samples).map_err(|e| format!("GATE FAILED: {e}"))?;
        write_json(args, &samples, checked)
    })
}
