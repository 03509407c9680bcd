//! The host: how fast it runs at the moment, which CPUs this process
//! runs on, and how much memory it has used.
//!
//! Co-tenants on a shared host slow this process by up to a third for
//! seconds to minutes at a time, mostly through contention for caches and
//! memory bandwidth: a loop of pure arithmetic barely notices. A fixed
//! loop of random read-modify-writes over a 2 MiB table slows the same way
//! the simulator does (over four minutes, in windows of eight calls, their
//! times correlated 0.93 and the spread of their ratio was 0.07 against
//! 0.18 for the simulator alone). So the benchmark times that loop before
//! every set-up and every round, and scales each host time measured there
//! by `REFERENCE_MS / loop time`: every time it reports reads as it would
//! on a host where the loop takes [`REFERENCE_MS`].

use std::hint::black_box;
use std::time::Instant;

/// The loop's time on the reference host, in milliseconds.
pub const REFERENCE_MS: f64 = 2.0;

const TABLE_WORDS: usize = 1 << 18;
const STEPS: u64 = 400_000;

pub struct Calibration {
    table: Vec<u64>,
}

impl Calibration {
    pub fn new() -> Self {
        let mut c = Calibration {
            table: vec![0; TABLE_WORDS],
        };
        // The first pass faults the table's pages in; time only later ones.
        c.measure();
        c
    }

    /// Runs the loop once and returns its time in milliseconds.
    pub fn measure(&mut self) -> f64 {
        let t = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..STEPS {
            // xorshift64: a cheap index stream the prefetcher cannot follow.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let j = (x as usize) & (TABLE_WORDS - 1);
            self.table[j] = self.table[j].wrapping_add(x ^ i);
        }
        black_box(&self.table);
        t.elapsed().as_secs_f64() * 1e3
    }
}

#[cfg(target_os = "linux")]
mod sys {
    //! Hand-declared bindings for CPU affinity.
    use std::ffi::c_int;

    /// `cpu_set_t`: one bit per CPU, for up to 1 024 CPUs.
    #[repr(C)]
    pub struct CpuSet(pub [u64; 16]);

    extern "C" {
        pub fn sched_getcpu() -> c_int;
        pub fn sched_setaffinity(pid: c_int, size: usize, mask: *const CpuSet) -> c_int;
    }
}

/// Confines the calling thread, and every thread it starts from now on,
/// to the CPU it runs on now. Returns that CPU, or `None` where the
/// system refuses.
pub fn pin_to_current_cpu() -> Option<usize> {
    #[cfg(target_os = "linux")]
    {
        // SAFETY: `sched_getcpu` takes no arguments. `sched_setaffinity`
        // reads `size` bytes through `mask`, which points to a value of
        // exactly that size that outlives the call; pid 0 is this thread.
        unsafe {
            let cpu = usize::try_from(sys::sched_getcpu())
                .ok()
                .filter(|&c| c < 1024)?;
            let mut set = sys::CpuSet([0; 16]);
            set.0[cpu / 64] |= 1 << (cpu % 64);
            let size = std::mem::size_of::<sys::CpuSet>();
            (sys::sched_setaffinity(0, size, &set) == 0).then_some(cpu)
        }
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// Resets the peak resident set size, so the next reading covers only
/// what follows.
pub fn reset_peak_rss() {
    // Writing 5 to clear_refs resets VmHWM; without it the reading only
    // covers more.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak RSS: /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "peak RSS: no VmHWM line in /proc/self/status".to_string())
}
