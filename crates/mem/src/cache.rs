use crate::LineAddr;

#[derive(Clone, Debug)]
struct Way<T> {
    line: LineAddr,
    payload: T,
    last_used: u64,
}

/// A generic set-associative cache with true-LRU replacement, used for both
/// the per-core L1s (payload = [`MesiState`](crate::MesiState)) and the
/// shared L2 (payload = `()`).
///
/// A cache pays only for the sets a run fills. Building one allocates
/// nothing; the first insert allocates the per-set slot index, and a set
/// claims its block of `assoc` ways in one flat way store the first time
/// it is filled. So a short run on a machine with a large L2 costs what it
/// touches, not what the L2 could hold.
///
/// ```
/// use rr_mem::{LineAddr, SetAssocCache};
/// let mut c: SetAssocCache<u32> = SetAssocCache::new(2, 2);
/// let l = LineAddr::from_line_number(5);
/// assert!(c.get(l).is_none());
/// assert!(c.insert(l, 7).is_none());
/// assert_eq!(c.get(l), Some(&7));
/// ```
#[derive(Clone, Debug)]
pub struct SetAssocCache<T> {
    num_sets: usize,
    assoc: usize,
    /// `block_of[set]`: 1 + the index of the set's block of ways, or 0
    /// while the set has never been filled. Empty until the first insert.
    block_of: Vec<u32>,
    /// `fill[block]`: ways in use in the block. They are the prefix
    /// `ways[block * assoc..][..fill[block]]`, in the order a per-set
    /// `Vec` with `push` and `swap_remove` would keep them.
    fill: Vec<usize>,
    /// Every claimed block's `assoc` ways, block after block; the ways past
    /// a block's fill are `None`.
    ways: Vec<Option<Way<T>>>,
    len: usize,
    clock: u64,
}

impl<T> SetAssocCache<T> {
    /// Creates a cache with `num_sets` sets of `assoc` ways each.
    ///
    /// # Panics
    ///
    /// Panics if `num_sets` is not a power of two or `assoc` is zero.
    #[must_use]
    pub fn new(num_sets: usize, assoc: usize) -> Self {
        assert!(
            num_sets.is_power_of_two(),
            "num_sets must be a power of two"
        );
        assert!(assoc > 0, "associativity must be positive");
        SetAssocCache {
            num_sets,
            assoc,
            block_of: Vec::new(),
            fill: Vec::new(),
            ways: Vec::new(),
            len: 0,
            clock: 0,
        }
    }

    fn set_index(&self, line: LineAddr) -> usize {
        (line.line_number() as usize) & (self.num_sets - 1)
    }

    /// The block holding `line`'s set, if the set was ever filled.
    fn block(&self, line: LineAddr) -> Option<usize> {
        let slot = *self.block_of.get(self.set_index(line))?;
        (slot as usize).checked_sub(1)
    }

    /// The resident ways of `block`.
    fn resident(&self, block: usize) -> std::ops::Range<usize> {
        let start = block * self.assoc;
        start..start + self.fill[block]
    }

    /// Looks up a line, updating LRU recency on hit.
    pub fn get(&mut self, line: LineAddr) -> Option<&T> {
        self.get_mut(line).map(|p| &*p)
    }

    /// Looks up a line mutably, updating LRU recency on hit.
    pub fn get_mut(&mut self, line: LineAddr) -> Option<&mut T> {
        self.clock += 1;
        let clock = self.clock;
        let ways = self.resident(self.block(line)?);
        self.ways[ways]
            .iter_mut()
            .flatten()
            .find(|w| w.line == line)
            .map(|w| {
                w.last_used = clock;
                &mut w.payload
            })
    }

    /// Looks up a line without touching LRU state (for snoops and
    /// invariant checks).
    #[must_use]
    pub fn peek(&self, line: LineAddr) -> Option<&T> {
        let ways = self.resident(self.block(line)?);
        self.ways[ways]
            .iter()
            .flatten()
            .find(|w| w.line == line)
            .map(|w| &w.payload)
    }

    /// Whether the line is present.
    #[must_use]
    pub fn contains(&self, line: LineAddr) -> bool {
        self.peek(line).is_some()
    }

    /// The block of `line`'s set, claiming one for a set never filled.
    fn claim(&mut self, line: LineAddr) -> usize {
        if self.block_of.is_empty() {
            self.block_of = vec![0; self.num_sets];
        }
        let set = self.set_index(line);
        if let Some(block) = (self.block_of[set] as usize).checked_sub(1) {
            return block;
        }
        let block = self.fill.len();
        self.fill.push(0);
        self.ways.resize_with(self.ways.len() + self.assoc, || None);
        self.block_of[set] = u32::try_from(block + 1).expect("fewer than 2^32 sets");
        block
    }

    /// Inserts a line, evicting the LRU way of a full set.
    ///
    /// Returns the evicted `(line, payload)`, if any. Inserting a line that
    /// is already present replaces its payload (no eviction).
    pub fn insert(&mut self, line: LineAddr, payload: T) -> Option<(LineAddr, T)> {
        self.clock += 1;
        let clock = self.clock;
        let block = self.claim(line);
        let ways = self.resident(block);
        let set = &mut self.ways[ways.clone()];
        if let Some(w) = set.iter_mut().flatten().find(|w| w.line == line) {
            w.payload = payload;
            w.last_used = clock;
            return None;
        }
        let new_way = Way {
            line,
            payload,
            last_used: clock,
        };
        if set.len() < self.assoc {
            self.ways[ways.end] = Some(new_way);
            self.fill[block] += 1;
            self.len += 1;
            return None;
        }
        let victim = set
            .iter_mut()
            .min_by_key(|w| w.as_ref().map_or(0, |w| w.last_used))
            .expect("full set has a victim");
        let victim = victim.replace(new_way).expect("resident way");
        Some((victim.line, victim.payload))
    }

    /// Removes a line, returning its payload if it was present.
    pub fn remove(&mut self, line: LineAddr) -> Option<T> {
        let block = self.block(line)?;
        let ways = self.resident(block);
        let pos = self.ways[ways.clone()]
            .iter()
            .position(|w| w.as_ref().is_some_and(|w| w.line == line))?;
        // `swap_remove`: the set's last way moves into the freed one.
        let last = ways.end - 1;
        self.ways.swap(ways.start + pos, last);
        self.fill[block] -= 1;
        self.len -= 1;
        self.ways[last].take().map(|w| w.payload)
    }

    /// Iterates over all resident `(line, payload)` pairs, in no
    /// particular order.
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, &T)> + '_ {
        (0..self.fill.len())
            .flat_map(|b| self.ways[self.resident(b)].iter().flatten())
            .map(|w| (w.line, &w.payload))
    }

    /// Number of resident lines.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: u64) -> LineAddr {
        LineAddr::from_line_number(n)
    }

    #[test]
    fn insert_get_remove() {
        let mut c: SetAssocCache<u32> = SetAssocCache::new(4, 2);
        assert!(c.insert(line(1), 10).is_none());
        assert_eq!(c.get(line(1)), Some(&10));
        assert_eq!(c.remove(line(1)), Some(10));
        assert!(c.get(line(1)).is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        // One set (sets=1) of 2 ways: lines 0,1,2 all map to set 0.
        let mut c: SetAssocCache<u32> = SetAssocCache::new(1, 2);
        c.insert(line(0), 0);
        c.insert(line(1), 1);
        c.get(line(0)); // make line 1 the LRU
        let evicted = c.insert(line(2), 2).expect("must evict");
        assert_eq!(evicted, (line(1), 1));
        assert!(c.contains(line(0)));
        assert!(c.contains(line(2)));
    }

    #[test]
    fn reinsert_updates_payload_without_eviction() {
        let mut c: SetAssocCache<u32> = SetAssocCache::new(1, 1);
        c.insert(line(7), 1);
        assert!(c.insert(line(7), 2).is_none());
        assert_eq!(c.peek(line(7)), Some(&2));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn sets_isolate_conflicts() {
        // 2 sets: even lines to set 0, odd to set 1.
        let mut c: SetAssocCache<u32> = SetAssocCache::new(2, 1);
        c.insert(line(0), 0);
        c.insert(line(1), 1);
        assert_eq!(c.len(), 2, "different sets must not conflict");
        let ev = c.insert(line(2), 2).expect("same-set eviction");
        assert_eq!(ev.0, line(0));
    }

    #[test]
    fn peek_does_not_disturb_lru() {
        let mut c: SetAssocCache<u32> = SetAssocCache::new(1, 2);
        c.insert(line(0), 0);
        c.insert(line(1), 1);
        let _ = c.peek(line(0)); // must NOT refresh line 0
        let evicted = c.insert(line(2), 2).expect("must evict");
        assert_eq!(evicted.0, line(0));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_rejected() {
        let _: SetAssocCache<()> = SetAssocCache::new(3, 1);
    }
}
