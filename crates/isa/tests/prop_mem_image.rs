//! Property tests for the page-wise memory image: page-by-page comparison,
//! the digest and whole-page `SharedMem` conversion agree with word-level
//! oracles kept here — a shadow map of every store, its non-zero words
//! collected in address order.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use rr_isa::{MemImage, SharedMem};

/// Base of the high address range the stores also hit.
const HIGH: u64 = 1 << 40;
const PAGE_BYTES: u64 = 4096;

/// Word-aligned addresses on four pages near 0 and four near `1 << 40`.
fn addr() -> impl Strategy<Value = u64> {
    (any::<bool>(), 0u64..4, 0u64..512)
        .prop_map(|(high, page, word)| (if high { HIGH } else { 0 }) + page * PAGE_BYTES + word * 8)
}

/// Zero often, so pages that hold only zeros and words overwritten back
/// to zero both occur.
fn value() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), 1u64..4, any::<u64>()]
}

fn stores() -> impl Strategy<Value = Vec<(u64, u64)>> {
    proptest::collection::vec((addr(), value()), 0..40)
}

/// Applies `stores` to an image and to its word-level shadow.
fn build(stores: &[(u64, u64)]) -> (MemImage, BTreeMap<u64, u64>) {
    let mut mem = MemImage::new();
    let mut shadow = BTreeMap::new();
    for &(a, v) in stores {
        mem.store(a, v);
        shadow.insert(a, v);
    }
    (mem, shadow)
}

/// The collect-sort-compare oracle's view: non-zero words, address order.
fn nonzero(shadow: &BTreeMap<u64, u64>) -> Vec<(u64, u64)> {
    shadow
        .iter()
        .filter(|&(_, &v)| v != 0)
        .map(|(&a, &v)| (a, v))
        .collect()
}

/// FNV-1a over `(addr, value)` pairs, as the word-sorted digest computed.
fn fnv(pairs: &[(u64, u64)]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &(a, v) in pairs {
        for b in a.to_le_bytes().into_iter().chain(v.to_le_bytes()) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

proptest! {
    #[test]
    fn contents_eq_matches_the_word_oracle(
        common in stores(),
        only_a in stores(),
        only_b in stores(),
        perturb in any::<bool>(),
    ) {
        // Shared stores, then (sometimes) stores of each side's own.
        let a_stores: Vec<_> = common.iter().chain(if perturb { &only_a[..] } else { &[] }).copied().collect();
        let b_stores: Vec<_> = common.iter().chain(if perturb { &only_b[..] } else { &[] }).copied().collect();
        let (a, sa) = build(&a_stores);
        let (b, sb) = build(&b_stores);
        let oracle = nonzero(&sa) == nonzero(&sb);
        prop_assert_eq!(a.contents_eq(&b), oracle);
        prop_assert_eq!(b.contents_eq(&a), oracle);
        prop_assert!(a.contents_eq(&a));
    }

    #[test]
    fn words_and_digest_match_the_word_oracle(stores in stores()) {
        let (mem, shadow) = build(&stores);
        let words = nonzero(&shadow);
        prop_assert_eq!(mem.words().collect::<Vec<_>>(), words.clone());
        prop_assert_eq!(mem.digest(), fnv(&words));
    }

    #[test]
    fn shared_mem_round_trip_copies_exactly_the_non_zero_pages(stores in stores()) {
        let (mem, shadow) = build(&stores);
        let back = SharedMem::from_image(&mem).to_image();
        prop_assert!(back.contents_eq(&mem));
        let pages: BTreeSet<u64> = nonzero(&shadow).iter().map(|&(a, _)| a / PAGE_BYTES).collect();
        // Every non-zero page is present (contents_eq), and nothing else.
        prop_assert_eq!(back.page_count(), pages.len());
        prop_assert_eq!(back.digest(), mem.digest());
    }
}

/// Digests of three fixed images, computed by the word-sorted digest
/// before it walked pages: the value of `digest` must never move.
#[test]
fn digest_constants_are_pinned() {
    let empty = MemImage::new();
    let mut sparse = MemImage::new();
    sparse.store(0x8, 300);
    sparse.store(0x1000, u64::MAX);
    sparse.store(HIGH, 3);
    sparse.store(HIGH + 8, 0);
    let mut dense = MemImage::new();
    for i in 0..3000u64 {
        dense.store(i * 24, i.wrapping_mul(0x9e37_79b9_7f4a_7c15) % 7);
        dense.store(HIGH + i * 8, i);
    }
    assert_eq!(empty.digest(), 0xcbf2_9ce4_8422_2325);
    assert_eq!(sparse.digest(), 0xeb82_ced1_2ab5_2a1a);
    assert_eq!(dense.digest(), 0x78b2_60fb_20df_ecf1);
}
