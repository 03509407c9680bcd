//! Where the stores go on disk, and when the benchmark may delete files.
//!
//! The stores live inside the checkout. On the development host that is
//! ext4 without a journal. There, creating a file costs about 25 µs in a
//! fresh block group but 110–500 µs in a group where files were deleted
//! earlier: allocating an inode steps over every inode of the group freed
//! in an earlier second, reading each one's deletion time, and it kept
//! doing so for 15 minutes and more. An inode freed in the current second
//! is reused at once. A serve-roundtrip run that deleted each round's
//! store, or that started beside the stores an earlier run deleted,
//! timed the filesystem's history instead of the program: its item p50
//! read 3.3 ms on some runs and 9–17 ms on others. So:
//!
//! - each run's stores go in a block group that proves fast ([`place`]);
//! - within a run, stores are overwritten in place, or deleted only where
//!   the files that replace them are created in the same wall-clock
//!   second ([`second_with`]);
//! - a run keeps far fewer than the ~2 000 live inodes after which ext4
//!   puts new directories in the next block groups, which may be slow.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Files a placement probe creates.
const PROBE_FILES: usize = 100;
/// A placement whose probe creates files at least this fast is kept.
const FAST_US: f64 = 60.0;
/// Placements tried before the fastest one is kept.
const TRIES: usize = 4;

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod sys {
    //! Hand-declared binding for the inode-flags ioctls.
    use std::ffi::{c_int, c_ulong};

    pub const FS_IOC_GETFLAGS: c_ulong = 0x8008_6601;
    pub const FS_IOC_SETFLAGS: c_ulong = 0x4008_6602;
    pub const FS_TOPDIR_FL: c_int = 0x0002_0000;

    extern "C" {
        pub fn ioctl(fd: c_int, request: c_ulong, ...) -> c_int;
    }
}

/// Asks the filesystem to place each directory created in `dir` the way
/// it places top-level ones: in a block group of its own, away from its
/// siblings (ext4's `chattr +T`). Returns whether it agreed; other
/// filesystems refuse.
fn spread_subdirectories(dir: &Path) -> bool {
    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    {
        use std::os::fd::AsRawFd;
        let Ok(f) = fs::File::open(dir) else {
            return false;
        };
        let mut flags: std::ffi::c_int = 0;
        // SAFETY: both requests read or write one int through a pointer
        // to `flags`, which outlives the calls; `f` keeps the descriptor
        // open until it is dropped.
        unsafe {
            if sys::ioctl(f.as_raw_fd(), sys::FS_IOC_GETFLAGS, &mut flags) != 0 {
                return false;
            }
            flags |= sys::FS_TOPDIR_FL;
            sys::ioctl(f.as_raw_fd(), sys::FS_IOC_SETFLAGS, &flags) == 0
        }
    }
    #[cfg(not(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    )))]
    {
        let _ = dir;
        false
    }
}

/// Creates `n` small files in `dir` as the stores write theirs, a
/// temporary file renamed into place, and returns the microseconds each
/// took. The files stay until the run ends.
fn file_create_us(dir: &Path, n: usize) -> Result<f64, String> {
    let io = |e: std::io::Error| format!("{}: {e}", dir.display());
    fs::create_dir_all(dir).map_err(io)?;
    let t = Instant::now();
    for i in 0..n {
        let tmp = dir.join(format!("{i}.tmp"));
        fs::write(&tmp, [0u8; 512]).map_err(io)?;
        fs::rename(&tmp, dir.join(format!("{i}.blob"))).map_err(io)?;
    }
    Ok(t.elapsed().as_secs_f64() * 1e6 / n as f64)
}

/// Where one run keeps its stores.
pub struct Placement {
    pub root: PathBuf,
    /// Microseconds a probe file took to create there.
    pub probe_us: f64,
    /// Every directory tried, `root` among them: delete them all when the
    /// run ends.
    pub tried: Vec<PathBuf>,
    /// Whether the filesystem spreads new directories over block groups;
    /// if not, one try is all there is.
    pub spread: bool,
}

/// Creates a directory `<parent>/<name>-<k>` for one run's stores in a
/// block group where creating files is fast: each try lands in another
/// group, and the first whose probe files take at most [`FAST_US`] each,
/// or else the fastest of [`TRIES`], is kept.
pub fn place(parent: &Path, name: &str) -> Result<Placement, String> {
    let io = |p: &Path, e: std::io::Error| format!("{}: {e}", p.display());
    fs::create_dir_all(parent).map_err(|e| io(parent, e))?;
    let spread = spread_subdirectories(parent);
    let mut tried = Vec::new();
    let mut best: Option<(f64, PathBuf)> = None;
    for k in 0..if spread { TRIES } else { 1 } {
        let dir = parent.join(format!("{name}-{k}"));
        fs::create_dir_all(&dir).map_err(|e| io(&dir, e))?;
        tried.push(dir.clone());
        let us = file_create_us(&dir.join("probe"), PROBE_FILES)?;
        if best.as_ref().is_none_or(|(b, _)| us < *b) {
            best = Some((us, dir));
        }
        if us <= FAST_US {
            break;
        }
    }
    let (probe_us, root) = best.expect("at least one try");
    Ok(Placement {
        root,
        probe_us,
        tried,
        spread,
    })
}

/// The wall-clock second, as the filesystem stamps a deletion.
pub fn wall_second() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs())
}

/// How far into a second the kernel's clock for deletion times may lag
/// the wall clock: it advances on timer ticks.
const TICK_SLACK: Duration = Duration::from_millis(20);

/// Waits, if the wall-clock second has less than `need` left, until just
/// after the next one starts. Deleting files and creating as many within
/// `need` of the return then reuses every inode the deletion freed.
pub fn second_with(need: Duration) {
    let into = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(Duration::ZERO, |d| {
            Duration::from_nanos(d.subsec_nanos().into())
        });
    if into < TICK_SLACK || into + need + TICK_SLACK > Duration::from_secs(1) {
        std::thread::sleep((Duration::from_secs(1) + TICK_SLACK).saturating_sub(into));
    }
}
