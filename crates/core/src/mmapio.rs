//! Zero-copy file access for multi-GB `.rrlog` streams: a read-only
//! `mmap` wrapper with a plain-read fallback.
//!
//! The in-memory chunked decoder ([`decode_chunked`](crate::wire::decode_chunked))
//! is the codec fast path, but staging a multi-GB log through
//! `std::fs::read` first copies every byte into a heap buffer and commits
//! that much RSS before decoding starts. [`MappedBytes`] maps the file
//! instead, so the kernel pages bytes in on demand and the page cache is
//! shared across concurrent readers — the decoder walks the file as one
//! `&[u8]` either way.
//!
//! Fallback rules (in order):
//!
//! 1. Empty files are served from an empty heap buffer — POSIX `mmap`
//!    rejects zero-length mappings.
//! 2. On non-Unix targets, or if the `mmap` syscall fails for any reason
//!    (file on a filesystem without mmap support, address-space
//!    exhaustion), the file is read into a heap buffer. Behaviour is
//!    identical either way; only residency and copy cost differ.
//!
//! No external crates: the two syscalls are declared directly and the
//! mapping is `munmap`ped on drop. The mapping is `PROT_READ |
//! MAP_PRIVATE`, so the underlying file is never written through it.

// The one module allowed to use unsafe: the syscall FFI and the view of
// the mapping, each with its invariants documented inline.
#![allow(unsafe_code)]

use std::fs::File;
use std::path::Path;

use crate::wire::WireError;

#[cfg(unix)]
mod sys {
    //! Minimal hand-declared bindings for read-only file mappings.
    //! `PROT_READ` and `MAP_PRIVATE` have the same values on every Unix
    //! we target (Linux, macOS, the BSDs).

    pub const PROT_READ: i32 = 1;
    pub const MAP_PRIVATE: i32 = 2;

    extern "C" {
        pub fn mmap(
            addr: *mut core::ffi::c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut core::ffi::c_void;
        pub fn munmap(addr: *mut core::ffi::c_void, len: usize) -> i32;
    }
}

/// A read-only `mmap` of an entire file. Unmapped on drop.
#[cfg(unix)]
#[derive(Debug)]
pub struct MappedFile {
    ptr: *const u8,
    len: usize,
}

#[cfg(unix)]
impl MappedFile {
    /// Maps `file` (which must be non-empty) read-only in its entirety.
    ///
    /// # Errors
    ///
    /// [`WireError::Io`] if the metadata query or the `mmap` syscall
    /// fails — callers fall back to a plain read.
    pub fn map(file: &File) -> Result<Self, WireError> {
        use std::os::unix::io::AsRawFd;
        let len = usize::try_from(file.metadata()?.len())
            .map_err(|_| WireError::Io("file exceeds the address space".to_string()))?;
        if len == 0 {
            return Err(WireError::Io("cannot mmap an empty file".to_string()));
        }
        // SAFETY: a fresh read-only private mapping of `len` bytes backed
        // by an open fd; we only ever read through it and unmap on drop.
        let ptr = unsafe {
            sys::mmap(
                core::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        // MAP_FAILED is (void*)-1.
        if ptr.is_null() || ptr as isize == -1 {
            return Err(WireError::Io(format!(
                "mmap of {len} bytes failed: {}",
                std::io::Error::last_os_error()
            )));
        }
        Ok(MappedFile {
            ptr: ptr.cast::<u8>().cast_const(),
            len,
        })
    }

    /// The mapped bytes.
    #[must_use]
    pub fn as_slice(&self) -> &[u8] {
        // SAFETY: the mapping is valid for `len` bytes until drop. A
        // concurrent truncation of the underlying file could fault reads
        // past the new EOF; `.rrlog` files are write-once, and the same
        // hazard exists for any reader of a file being rewritten.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

#[cfg(unix)]
impl Drop for MappedFile {
    fn drop(&mut self) {
        // SAFETY: `ptr`/`len` came from a successful mmap and are unmapped
        // exactly once. Failure is ignorable: the mapping dies with the
        // process anyway.
        unsafe {
            let _ = sys::munmap(self.ptr.cast_mut().cast(), self.len);
        }
    }
}

// SAFETY: the mapping is read-only and the raw pointer is never aliased
// mutably; sending or sharing it across threads is as safe as sharing a
// `&[u8]` (the parallel ingest path decodes one mapping from many
// workers).
#[cfg(unix)]
unsafe impl Send for MappedFile {}
#[cfg(unix)]
unsafe impl Sync for MappedFile {}

/// A whole file as contiguous bytes: memory-mapped where possible, heap
/// read otherwise. Dereferences to `&[u8]`, so every in-memory decoder
/// accepts it directly.
#[derive(Debug)]
pub enum MappedBytes {
    /// A live read-only mapping (Unix, non-empty file, mmap succeeded).
    #[cfg(unix)]
    Mapped(MappedFile),
    /// Heap fallback: empty files, non-Unix targets, or mmap failure.
    Heap(Vec<u8>),
}

impl MappedBytes {
    /// Opens `path` for zero-copy reading, applying the module-level
    /// fallback rules.
    ///
    /// # Errors
    ///
    /// [`WireError::Io`] if the file cannot be opened or read at all
    /// (mmap failure alone falls back to a plain read instead).
    pub fn open(path: &Path) -> Result<Self, WireError> {
        #[cfg(unix)]
        {
            if let Ok(file) = File::open(path) {
                if let Ok(mapped) = MappedFile::map(&file) {
                    return Ok(MappedBytes::Mapped(mapped));
                }
            }
            // Fall through: open error surfaces from fs::read with the
            // path-appropriate message; empty files land here by design.
        }
        Ok(MappedBytes::Heap(std::fs::read(path)?))
    }

    /// The file contents.
    #[must_use]
    pub fn as_slice(&self) -> &[u8] {
        match self {
            #[cfg(unix)]
            MappedBytes::Mapped(m) => m.as_slice(),
            MappedBytes::Heap(v) => v,
        }
    }

    /// Whether the bytes come from a live mapping (false = heap fallback).
    #[must_use]
    pub fn is_mapped(&self) -> bool {
        match self {
            #[cfg(unix)]
            MappedBytes::Mapped(_) => true,
            MappedBytes::Heap(_) => false,
        }
    }
}

impl std::ops::Deref for MappedBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for MappedBytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::{IntervalLog, LogEntry};
    use crate::wire::{self, read_rrlog};
    use rr_mem::CoreId;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("rr_mmapio_test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir.join(name)
    }

    fn sample_log() -> IntervalLog {
        let mut log = IntervalLog::new(CoreId::new(5));
        for i in 0..500u64 {
            log.entries.push(LogEntry::InorderBlock {
                instrs: 1 + (i % 13) as u32,
            });
            if i % 3 == 0 {
                log.entries.push(LogEntry::ReorderedLoad { value: i * 7 });
            }
            log.entries.push(LogEntry::IntervalFrame {
                cisn: (i % 100) as u16,
                timestamp: i * 211,
            });
        }
        log
    }

    #[test]
    fn mapped_bytes_match_fs_read() {
        let path = temp_path("bytes.rrlog");
        let log = sample_log();
        std::fs::write(&path, log.encode()).expect("writes");
        let mapped = MappedBytes::open(&path).expect("opens");
        assert_eq!(&*mapped, std::fs::read(&path).expect("reads").as_slice());
        #[cfg(unix)]
        assert!(mapped.is_mapped(), "non-empty file on unix maps");
    }

    #[test]
    fn empty_file_uses_heap_fallback() {
        let path = temp_path("empty.rrlog");
        std::fs::write(&path, b"").expect("writes");
        let mapped = MappedBytes::open(&path).expect("opens");
        assert!(!mapped.is_mapped());
        assert!(mapped.is_empty());
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let path = temp_path("does-not-exist.rrlog");
        let _ = std::fs::remove_file(&path);
        assert!(matches!(MappedBytes::open(&path), Err(WireError::Io(_))));
    }

    #[test]
    fn mapped_source_streams_the_whole_log() {
        let path = temp_path("source.rrlog");
        let log = sample_log();
        std::fs::write(&path, log.encode()).expect("writes");
        let mapped = MappedBytes::open(&path).expect("opens");
        assert_eq!(wire::parse_header(&mapped), Ok((log.core, wire::VERSION)));
        assert_eq!(wire::decode_chunked(&mapped), Ok(log));
    }

    #[test]
    fn mapped_source_surfaces_corruption_like_the_memory_decoder() {
        let path = temp_path("corrupt.rrlog");
        let log = sample_log();
        let mut bytes = wire::encode_chunked_with(&log, 64);
        // Flip a payload byte in a middle chunk.
        let (_, map, _) = wire::chunk_map(&bytes).expect("header");
        assert!(map.len() >= 3);
        bytes[map[1].offset + 4] ^= 0x20;
        std::fs::write(&path, &bytes).expect("writes");

        let want = wire::decode_chunked(&bytes);
        assert!(matches!(want, Err(WireError::CrcMismatch { chunk: 1, .. })));
        assert_eq!(read_rrlog(&path), want);
    }
}
