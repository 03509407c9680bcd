use std::collections::HashMap;

use crate::{RandomIdState, WORD_BYTES};

/// Words per page of the sparse memory image (4 KiB pages). Shared with
/// the concurrently shareable image in `shared_mem`, so the two address
/// spaces tile identically.
pub(crate) const PAGE_WORDS: usize = 512;

/// A page table: page number → page. Keyed multiply-shift hashing, since
/// replayed store addresses and ground-truth cells come from files.
pub(crate) type PageMap<P> = HashMap<u64, P, RandomIdState>;

/// Whether every word of a page is zero: such a page equals a missing one.
pub(crate) fn zero_page(words: &[u64; PAGE_WORDS]) -> bool {
    words.iter().all(|&v| v == 0)
}

/// A sparse, word-granular memory image.
///
/// This is the *functional* shared memory of the simulated machine: the
/// timing/coherence model in `rr-mem` decides *when* an access performs,
/// while the values live here. Write atomicity (the property RelaxReplay
/// relies on, paper §3.2 Observation 1) is modeled by applying each store to
/// this single image exactly at its perform time.
///
/// Addresses are byte addresses; all accesses must be aligned to
/// [`WORD_BYTES`]. Unwritten memory reads as zero.
///
/// ```
/// use rr_isa::MemImage;
/// let mut mem = MemImage::new();
/// assert_eq!(mem.load(0x1000), 0);
/// mem.store(0x1000, 0xdead_beef);
/// assert_eq!(mem.load(0x1000), 0xdead_beef);
/// ```
#[derive(Clone, Debug, Default)]
pub struct MemImage {
    pages: PageMap<Box<[u64; PAGE_WORDS]>>,
}

impl MemImage {
    /// Creates an empty (all-zero) memory image.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
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

    /// Reads the word at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not aligned to [`WORD_BYTES`].
    #[must_use]
    pub fn load(&self, addr: u64) -> u64 {
        let (page, idx) = Self::split(addr);
        self.pages.get(&page).map_or(0, |p| p[idx])
    }

    /// Writes the word at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not aligned to [`WORD_BYTES`].
    pub fn store(&mut self, addr: u64, value: u64) {
        let (page, idx) = Self::split(addr);
        self.pages
            .entry(page)
            .or_insert_with(|| Box::new([0; PAGE_WORDS]))[idx] = value;
    }

    /// Atomically performs a read-modify-write, returning the old value.
    ///
    /// `f` maps the old value to `Some(new)` (store `new`) or `None`
    /// (leave memory unchanged, as in a failed compare-and-swap).
    pub fn rmw(&mut self, addr: u64, f: impl FnOnce(u64) -> Option<u64>) -> u64 {
        let old = self.load(addr);
        if let Some(new) = f(old) {
            self.store(addr, new);
        }
        old
    }

    /// Iterates over the non-zero words in address order, as
    /// `(addr, value)`.
    ///
    /// Sorts the page numbers, not the words: pages are walked in order
    /// and each page's words are already in address order.
    pub fn words(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let mut pages: Vec<_> = self.pages.iter().collect();
        pages.sort_unstable_by_key(|&(&page, _)| page);
        pages.into_iter().flat_map(|(page, words)| {
            let base = page * PAGE_WORDS as u64 * WORD_BYTES;
            words
                .iter()
                .enumerate()
                .filter(|&(_, &v)| v != 0)
                .map(move |(i, &v)| (base + i as u64 * WORD_BYTES, v))
        })
    }

    /// Number of pages the image holds, including pages that were touched
    /// but hold only zeros.
    #[must_use]
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// The pages the image holds, in no particular order.
    pub(crate) fn pages(&self) -> impl Iterator<Item = (u64, &[u64; PAGE_WORDS])> + '_ {
        self.pages.iter().map(|(&page, words)| (page, &**words))
    }

    /// Installs a whole page, replacing any page already at `page`.
    pub(crate) fn insert_page(&mut self, page: u64, words: Box<[u64; PAGE_WORDS]>) {
        self.pages.insert(page, words);
    }

    /// Returns a canonical digest of the memory contents, suitable for
    /// equality comparison between a recorded and a replayed execution.
    ///
    /// Zero-valued words are excluded, so images that differ only in which
    /// pages were touched compare equal.
    #[must_use]
    pub fn digest(&self) -> u64 {
        // FNV-1a over (addr, value) pairs in address order.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for (a, v) in self.words() {
            for b in a.to_le_bytes().into_iter().chain(v.to_le_bytes()) {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        }
        h
    }

    /// Returns `true` when both images hold identical contents
    /// (ignoring zero-valued words).
    ///
    /// Compares page by page; a page missing on one side equals an
    /// all-zero page.
    #[must_use]
    pub fn contents_eq(&self, other: &MemImage) -> bool {
        self.pages.iter().all(|(page, words)| {
            other
                .pages
                .get(page)
                .map_or_else(|| zero_page(words), |theirs| words == theirs)
        }) && other
            .pages
            .iter()
            .all(|(page, words)| self.pages.contains_key(page) || zero_page(words))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_zero() {
        let mem = MemImage::new();
        assert_eq!(mem.load(0), 0);
        assert_eq!(mem.load(8 * PAGE_WORDS as u64 * 17), 0);
    }

    #[test]
    fn store_load_round_trip() {
        let mut mem = MemImage::new();
        mem.store(0, 1);
        mem.store(8, 2);
        mem.store(1 << 40, 3);
        assert_eq!(mem.load(0), 1);
        assert_eq!(mem.load(8), 2);
        assert_eq!(mem.load(1 << 40), 3);
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn unaligned_access_panics() {
        let _ = MemImage::new().load(3);
    }

    #[test]
    fn rmw_cas_success_and_failure() {
        let mut mem = MemImage::new();
        mem.store(16, 5);
        let old = mem.rmw(16, |v| (v == 5).then_some(9));
        assert_eq!(old, 5);
        assert_eq!(mem.load(16), 9);
        let old = mem.rmw(16, |v| (v == 5).then_some(1));
        assert_eq!(old, 9);
        assert_eq!(mem.load(16), 9, "failed CAS must not write");
    }

    #[test]
    fn digest_ignores_zero_words_and_page_touch() {
        let mut a = MemImage::new();
        let mut b = MemImage::new();
        a.store(64, 7);
        b.store(64, 7);
        b.store(1 << 30, 0); // touches a page but stores zero
        assert_eq!(a.digest(), b.digest());
        assert!(a.contents_eq(&b));
        b.store(72, 1);
        assert_ne!(a.digest(), b.digest());
        assert!(!a.contents_eq(&b));
    }

    #[test]
    fn words_are_non_zero_and_in_address_order() {
        let mut mem = MemImage::new();
        mem.store(1 << 40, 3);
        mem.store(16, 0);
        mem.store(8, 42);
        mem.store(0, 1);
        let found: Vec<_> = mem.words().collect();
        assert_eq!(found, vec![(0, 1), (8, 42), (1 << 40, 3)]);
        assert_eq!(mem.page_count(), 2);
    }

    #[test]
    fn fresh_images_get_different_page_hash_keys() {
        use std::hash::BuildHasher;
        let (a, b) = (MemImage::new(), MemImage::new());
        assert_ne!(
            a.pages.hasher().hash_one(1u64),
            b.pages.hasher().hash_one(1u64)
        );
    }
}
