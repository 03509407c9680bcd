use core::fmt;

/// Bytes per cache line (Table 1: 32 B lines).
pub const LINE_BYTES: u64 = 32;

/// Identifier of a core/processor in the simulated machine.
///
/// ```
/// use rr_mem::CoreId;
/// let c = CoreId::new(3);
/// assert_eq!(c.index(), 3);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CoreId(u8);

impl CoreId {
    /// Creates a core identifier.
    #[must_use]
    pub fn new(index: u8) -> Self {
        CoreId(index)
    }

    /// Returns the zero-based core index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

impl fmt::Debug for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// A set of cores: one bit per possible [`CoreId`], so building, copying
/// and testing one never allocates.
///
/// ```
/// use rr_mem::{CoreId, CoreSet};
/// let mut s = CoreSet::default();
/// s.insert(CoreId::new(3));
/// assert!(s.contains(&CoreId::new(3)) && !s.contains(&CoreId::new(0)));
/// s.remove(CoreId::new(3));
/// assert_eq!(s, CoreSet::default());
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoreSet([u64; 4]);

impl CoreSet {
    /// Adds `core`.
    pub fn insert(&mut self, core: CoreId) {
        self.0[usize::from(core.0 / 64)] |= 1 << (core.0 % 64);
    }

    /// Removes `core`.
    pub fn remove(&mut self, core: CoreId) {
        self.0[usize::from(core.0 / 64)] &= !(1 << (core.0 % 64));
    }

    /// Whether `core` is in the set.
    #[must_use]
    pub fn contains(&self, core: &CoreId) -> bool {
        self.0[usize::from(core.0 / 64)] & (1 << (core.0 % 64)) != 0
    }
}

/// A cache-line address: a byte address with the line offset stripped.
///
/// Conflict detection throughout RelaxReplay (signatures, Snoop Table,
/// interval termination) happens at line granularity, exactly as in the
/// paper ("conflicting access to the same (line) address", §3.2).
///
/// ```
/// use rr_mem::LineAddr;
/// let a = LineAddr::containing(0x105);
/// let b = LineAddr::containing(0x11f);
/// assert_eq!(a, b); // same 32-byte line
/// assert_eq!(a.base_addr(), 0x100);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LineAddr(u64);

impl LineAddr {
    /// Returns the line containing byte address `addr`.
    #[must_use]
    pub fn containing(addr: u64) -> Self {
        LineAddr(addr / LINE_BYTES)
    }

    /// Creates a line address directly from a line number.
    #[must_use]
    pub fn from_line_number(n: u64) -> Self {
        LineAddr(n)
    }

    /// Returns the line number (byte address divided by the line size).
    #[must_use]
    pub fn line_number(self) -> u64 {
        self.0
    }

    /// Returns the byte address of the first byte in the line.
    #[must_use]
    pub fn base_addr(self) -> u64 {
        self.0 * LINE_BYTES
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{:#x}", self.base_addr())
    }
}

impl fmt::Debug for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{:#x}", self.base_addr())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_rounding() {
        assert_eq!(LineAddr::containing(0), LineAddr::containing(31));
        assert_ne!(LineAddr::containing(31), LineAddr::containing(32));
        assert_eq!(LineAddr::containing(64).base_addr(), 64);
        assert_eq!(LineAddr::containing(65).base_addr(), 64);
    }

    #[test]
    fn line_number_round_trip() {
        let l = LineAddr::from_line_number(17);
        assert_eq!(l.line_number(), 17);
        assert_eq!(l.base_addr(), 17 * LINE_BYTES);
    }

    #[test]
    fn ids_display() {
        assert_eq!(CoreId::new(2).to_string(), "P2");
        assert_eq!(LineAddr::containing(32).to_string(), "L0x20");
    }
}
