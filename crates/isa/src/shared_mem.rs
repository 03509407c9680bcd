//! A concurrently shareable memory image for multithreaded replay.
//!
//! [`SharedMem`] holds the same sparse word-granular address space as
//! [`MemImage`], but safe to access from many replay workers at once: the
//! page table is sharded behind mutexes (taken only on a worker's *first*
//! touch of a page), and the words themselves are atomics, so steady-state
//! loads/stores/RMWs are lock-free. Workers access memory through a
//! [`SharedMemHandle`] (one per worker), which caches page pointers so
//! repeat touches of a page never revisit the shard locks. Images are
//! converted to and from a [`MemImage`] a whole page at a time.
//!
//! Word atomicity is exactly the write-atomicity property RelaxReplay
//! relies on (paper §3.2, Observation 1). Cross-interval ordering is *not*
//! this type's job: the replay engine only runs two intervals concurrently
//! when the recorded partial order says they do not communicate, and its
//! ready-queue lock establishes happens-before between a completed
//! interval's stores and its dependents' loads.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::mem_image::{zero_page, PageMap, PAGE_WORDS};
use crate::{MemImage, Memory, WORD_BYTES};

/// Page-table shards. Plenty relative to any realistic worker count, so
/// first-touch lock contention is negligible.
const SHARDS: usize = 128;

type Page = Arc<[AtomicU64; PAGE_WORDS]>;

fn new_page() -> Page {
    Arc::new(std::array::from_fn(|_| AtomicU64::new(0)))
}

fn shard_of(page_no: u64) -> usize {
    (page_no % SHARDS as u64) as usize
}

fn split(addr: u64) -> (u64, usize) {
    assert!(
        addr.is_multiple_of(WORD_BYTES),
        "unaligned memory access at {addr:#x}"
    );
    let word = addr / WORD_BYTES;
    (
        word / PAGE_WORDS as u64,
        (word % PAGE_WORDS as u64) as usize,
    )
}

/// A sparse memory image that many threads can read and write at once.
///
/// Construct one from an initial [`MemImage`], hand a [`SharedMemHandle`]
/// to each worker ([`SharedMem::handle`]), and collect the final state
/// back into a [`MemImage`] with [`SharedMem::to_image`].
#[derive(Debug)]
pub struct SharedMem {
    shards: Vec<Mutex<PageMap<Page>>>,
}

impl Default for SharedMem {
    fn default() -> Self {
        Self::new()
    }
}

impl SharedMem {
    /// Creates an empty (all-zero) shared image.
    #[must_use]
    pub fn new() -> Self {
        SharedMem {
            shards: (0..SHARDS).map(|_| Mutex::default()).collect(),
        }
    }

    /// Creates a shared image holding the same contents as `img`: one
    /// page-table insert per page that holds a non-zero word.
    #[must_use]
    pub fn from_image(img: &MemImage) -> Self {
        let mut mem = Self::new();
        for (page_no, words) in img.pages() {
            if !zero_page(words) {
                let page: Page = Arc::new(std::array::from_fn(|i| AtomicU64::new(words[i])));
                mem.shards[shard_of(page_no)]
                    .get_mut()
                    .expect("shared-memory shard poisoned")
                    .insert(page_no, page);
            }
        }
        mem
    }

    /// Snapshots the current contents into a [`MemImage`], copying each
    /// page that holds a non-zero word.
    ///
    /// Callers are responsible for quiescence: the snapshot locks one shard
    /// at a time, so words written concurrently with the snapshot may or
    /// may not be included.
    #[must_use]
    pub fn to_image(&self) -> MemImage {
        let mut img = MemImage::new();
        for shard in &self.shards {
            let pages = shard.lock().expect("shared-memory shard poisoned");
            for (&page_no, page) in pages.iter() {
                let words: [u64; PAGE_WORDS] =
                    std::array::from_fn(|i| page[i].load(Ordering::Acquire));
                if !zero_page(&words) {
                    img.insert_page(page_no, Box::new(words));
                }
            }
        }
        img
    }

    /// A worker-local access handle with its own page-pointer cache.
    #[must_use]
    pub fn handle(&self) -> SharedMemHandle<'_> {
        SharedMemHandle {
            mem: self,
            cache: PageMap::default(),
        }
    }

    fn page(&self, page_no: u64) -> Page {
        let mut pages = self.shards[shard_of(page_no)]
            .lock()
            .expect("shared-memory shard poisoned");
        pages.entry(page_no).or_insert_with(new_page).clone()
    }
}

/// One worker's view of a [`SharedMem`]; implements [`Memory`] so an
/// [`Interp`](crate::Interp) can execute directly against shared memory.
#[derive(Debug)]
pub struct SharedMemHandle<'m> {
    mem: &'m SharedMem,
    cache: PageMap<Page>,
}

impl SharedMemHandle<'_> {
    fn page(&mut self, page_no: u64) -> &Page {
        self.cache
            .entry(page_no)
            .or_insert_with(|| self.mem.page(page_no))
    }
}

impl Memory for SharedMemHandle<'_> {
    fn load(&mut self, addr: u64) -> u64 {
        let (page_no, idx) = split(addr);
        self.page(page_no)[idx].load(Ordering::Acquire)
    }

    fn store(&mut self, addr: u64, value: u64) {
        let (page_no, idx) = split(addr);
        self.page(page_no)[idx].store(value, Ordering::Release);
    }

    fn rmw(&mut self, addr: u64, mut f: impl FnMut(u64) -> Option<u64>) -> u64 {
        let (page_no, idx) = split(addr);
        let word = &self.page(page_no)[idx];
        let mut old = word.load(Ordering::Acquire);
        loop {
            match f(old) {
                None => return old,
                Some(new) => {
                    match word.compare_exchange_weak(old, new, Ordering::AcqRel, Ordering::Acquire)
                    {
                        Ok(_) => return old,
                        Err(actual) => old = actual,
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn image_round_trip() {
        let mut img = MemImage::new();
        img.store(0x100, 7);
        img.store(1 << 40, u64::MAX);
        let shared = SharedMem::from_image(&img);
        let mut h = shared.handle();
        assert_eq!(h.load(0x100), 7);
        assert_eq!(h.load(1 << 40), u64::MAX);
        assert_eq!(h.load(0x108), 0, "unwritten memory reads zero");
        h.store(0x108, 9);
        drop(h);
        let back = shared.to_image();
        img.store(0x108, 9);
        assert!(back.contents_eq(&img));
    }

    #[test]
    fn rmw_matches_mem_image_semantics() {
        let shared = SharedMem::new();
        let mut h = shared.handle();
        h.store(16, 5);
        let old = h.rmw(16, |v| (v == 5).then_some(9));
        assert_eq!(old, 5);
        assert_eq!(h.load(16), 9);
        let old = h.rmw(16, |v| (v == 5).then_some(1));
        assert_eq!(old, 9);
        assert_eq!(h.load(16), 9, "failed CAS must not write");
    }

    #[test]
    fn concurrent_fetch_adds_never_lose_updates() {
        let shared = SharedMem::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let mut h = shared.handle();
                    for _ in 0..1000 {
                        h.rmw(0x40, |v| Some(v.wrapping_add(1)));
                    }
                });
            }
        });
        assert_eq!(shared.handle().load(0x40), 4000);
    }

    #[test]
    fn default_is_usable() {
        let shared = SharedMem::default();
        let mut h = shared.handle();
        h.store(0x40, 3);
        assert_eq!(h.load(0x40), 3);
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn unaligned_access_panics() {
        let shared = SharedMem::new();
        let _ = shared.handle().load(3);
    }
}
