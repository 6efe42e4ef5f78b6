//! Process identifiers and compact process sets.
//!
//! The paper's system is `Π = {p1, …, pn}`. We index processes from `0`
//! internally and display them as `p0, p1, …` to keep arithmetic simple;
//! nothing in the algorithms depends on 1-based indexing.

use std::fmt;

/// Identifier of a process in the system `Π = {p0, …, p(n-1)}`.
///
/// `ProcessId` is a cheap copyable newtype over the process index. Process
/// ids are totally ordered; several algorithms in this workspace (for
/// example the leader election of `LeaderEcho` in the
/// `indulgent-consensus` crate) rely on that order.
///
/// # Examples
///
/// ```
/// use indulgent_model::ProcessId;
///
/// let p = ProcessId::new(3);
/// assert_eq!(p.index(), 3);
/// assert_eq!(p.to_string(), "p3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcessId(usize);

impl ProcessId {
    /// Creates a process id from a raw index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= ProcessSet::MAX_PROCESSES`; sets of processes are
    /// stored as fixed-width bitmasks.
    #[must_use]
    pub fn new(index: usize) -> Self {
        assert!(
            index < ProcessSet::MAX_PROCESSES,
            "process index {index} exceeds the supported maximum of {}",
            ProcessSet::MAX_PROCESSES
        );
        ProcessId(index)
    }

    /// Returns the raw index of this process.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl From<ProcessId> for usize {
    fn from(id: ProcessId) -> usize {
        id.0
    }
}

/// A set of processes, stored as a bitmask.
///
/// `ProcessSet` is the representation used for the paper's `Halt` sets
/// (processes involved in suspicions) as well as for delivery bookkeeping in
/// the simulator. It supports at most [`ProcessSet::MAX_PROCESSES`]
/// processes, far beyond any configuration the experiments exercise.
///
/// # Examples
///
/// ```
/// use indulgent_model::{ProcessId, ProcessSet};
///
/// let mut halt = ProcessSet::empty();
/// halt.insert(ProcessId::new(1));
/// halt.insert(ProcessId::new(4));
/// assert_eq!(halt.len(), 2);
/// assert!(halt.contains(ProcessId::new(4)));
/// assert!(!halt.contains(ProcessId::new(0)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ProcessSet(u64);

impl ProcessSet {
    /// Maximum number of processes representable in a `ProcessSet`.
    pub const MAX_PROCESSES: usize = 64;

    /// Creates an empty set.
    ///
    /// # Examples
    ///
    /// ```
    /// use indulgent_model::ProcessSet;
    /// assert!(ProcessSet::empty().is_empty());
    /// ```
    #[must_use]
    pub fn empty() -> Self {
        ProcessSet(0)
    }

    /// Creates the full set `{p0, …, p(n-1)}`.
    ///
    /// # Panics
    ///
    /// Panics if `n > ProcessSet::MAX_PROCESSES`.
    #[must_use]
    pub fn full(n: usize) -> Self {
        assert!(n <= Self::MAX_PROCESSES, "at most {} processes supported", Self::MAX_PROCESSES);
        if n == Self::MAX_PROCESSES {
            ProcessSet(u64::MAX)
        } else {
            ProcessSet((1u64 << n) - 1)
        }
    }

    /// Builds a set from an iterator of process ids.
    #[must_use]
    pub fn from_ids<I: IntoIterator<Item = ProcessId>>(ids: I) -> Self {
        let mut s = Self::empty();
        for id in ids {
            s.insert(id);
        }
        s
    }

    /// Returns `true` if the set has no members.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of processes in the set.
    #[must_use]
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Returns `true` if `id` is a member.
    #[must_use]
    pub fn contains(self, id: ProcessId) -> bool {
        self.0 & (1 << id.index()) != 0
    }

    /// Inserts `id`; returns `true` if it was newly inserted.
    pub fn insert(&mut self, id: ProcessId) -> bool {
        let was = self.contains(id);
        self.0 |= 1 << id.index();
        !was
    }

    /// Removes `id`; returns `true` if it was present.
    pub fn remove(&mut self, id: ProcessId) -> bool {
        let was = self.contains(id);
        self.0 &= !(1 << id.index());
        was
    }

    /// Set union.
    #[must_use]
    pub fn union(self, other: ProcessSet) -> ProcessSet {
        ProcessSet(self.0 | other.0)
    }

    /// Set intersection.
    #[must_use]
    pub fn intersection(self, other: ProcessSet) -> ProcessSet {
        ProcessSet(self.0 & other.0)
    }

    /// Set difference `self \ other`.
    #[must_use]
    pub fn difference(self, other: ProcessSet) -> ProcessSet {
        ProcessSet(self.0 & !other.0)
    }

    /// Complement with respect to the universe `{p0, …, p(n-1)}`.
    #[must_use]
    pub fn complement(self, n: usize) -> ProcessSet {
        Self::full(n).difference(self)
    }

    /// Returns `true` if `self ⊆ other`.
    #[must_use]
    pub fn is_subset(self, other: ProcessSet) -> bool {
        self.0 & !other.0 == 0
    }

    /// Iterates over members in increasing id order.
    pub fn iter(self) -> Iter {
        Iter { bits: self.0 }
    }

    /// The smallest member, if any. Used by leader-based algorithms that
    /// elect the minimum-id alive process.
    #[must_use]
    pub fn min(self) -> Option<ProcessId> {
        if self.0 == 0 {
            None
        } else {
            Some(ProcessId(self.0.trailing_zeros() as usize))
        }
    }
}

impl fmt::Display for ProcessSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for id in self.iter() {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{id}")?;
            first = false;
        }
        write!(f, "}}")
    }
}

impl FromIterator<ProcessId> for ProcessSet {
    fn from_iter<I: IntoIterator<Item = ProcessId>>(iter: I) -> Self {
        Self::from_ids(iter)
    }
}

impl Extend<ProcessId> for ProcessSet {
    fn extend<I: IntoIterator<Item = ProcessId>>(&mut self, iter: I) {
        for id in iter {
            self.insert(id);
        }
    }
}

impl IntoIterator for ProcessSet {
    type Item = ProcessId;
    type IntoIter = Iter;

    fn into_iter(self) -> Iter {
        self.iter()
    }
}

/// Iterator over the members of a [`ProcessSet`] in increasing id order.
#[derive(Debug, Clone)]
pub struct Iter {
    bits: u64,
}

impl Iterator for Iter {
    type Item = ProcessId;

    fn next(&mut self) -> Option<ProcessId> {
        if self.bits == 0 {
            None
        } else {
            let idx = self.bits.trailing_zeros() as usize;
            self.bits &= self.bits - 1;
            Some(ProcessId(idx))
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.bits.count_ones() as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for Iter {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_display_and_index() {
        let p = ProcessId::new(7);
        assert_eq!(p.index(), 7);
        assert_eq!(p.to_string(), "p7");
        assert_eq!(usize::from(p), 7);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn id_out_of_range_panics() {
        let _ = ProcessId::new(64);
    }

    #[test]
    fn empty_and_full() {
        assert!(ProcessSet::empty().is_empty());
        assert_eq!(ProcessSet::full(5).len(), 5);
        assert_eq!(ProcessSet::full(64).len(), 64);
        assert_eq!(ProcessSet::full(0).len(), 0);
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = ProcessSet::empty();
        assert!(s.insert(ProcessId::new(3)));
        assert!(!s.insert(ProcessId::new(3)));
        assert!(s.contains(ProcessId::new(3)));
        assert!(s.remove(ProcessId::new(3)));
        assert!(!s.remove(ProcessId::new(3)));
        assert!(s.is_empty());
    }

    #[test]
    fn set_algebra() {
        let a = ProcessSet::from_ids([0, 1, 2].map(ProcessId::new));
        let b = ProcessSet::from_ids([2, 3].map(ProcessId::new));
        assert_eq!(a.union(b).len(), 4);
        assert_eq!(a.intersection(b).len(), 1);
        assert_eq!(a.difference(b).len(), 2);
        assert!(a.intersection(b).is_subset(a));
        assert_eq!(a.complement(4), ProcessSet::from_ids([ProcessId::new(3)]));
    }

    #[test]
    fn iteration_order_is_ascending() {
        let s = ProcessSet::from_ids([5, 1, 3].map(ProcessId::new));
        let ids: Vec<usize> = s.iter().map(ProcessId::index).collect();
        assert_eq!(ids, vec![1, 3, 5]);
        assert_eq!(s.iter().len(), 3);
    }

    #[test]
    fn min_member() {
        assert_eq!(ProcessSet::empty().min(), None);
        let s = ProcessSet::from_ids([4, 2].map(ProcessId::new));
        assert_eq!(s.min(), Some(ProcessId::new(2)));
    }

    #[test]
    fn display_format() {
        let s = ProcessSet::from_ids([0, 2].map(ProcessId::new));
        assert_eq!(s.to_string(), "{p0, p2}");
        assert_eq!(ProcessSet::empty().to_string(), "{}");
    }

    #[test]
    fn collect_and_extend() {
        let s: ProcessSet = [0, 1].map(ProcessId::new).into_iter().collect();
        assert_eq!(s.len(), 2);
        let mut s2 = s;
        s2.extend([ProcessId::new(5)]);
        assert_eq!(s2.len(), 3);
    }
}
