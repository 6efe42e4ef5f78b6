//! Round numbers.
//!
//! Computation in both SCS and ES proceeds in rounds with increasing round
//! numbers starting from 1 (paper, Sect. 1.2).

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A round number, starting at 1.
///
/// # Examples
///
/// ```
/// use indulgent_model::Round;
///
/// let r = Round::FIRST;
/// assert_eq!(r.get(), 1);
/// assert_eq!((r + 2).get(), 3);
/// assert_eq!((r + 2) - r, 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Round(u32);

impl Round {
    /// The first round of every run.
    pub const FIRST: Round = Round(1);

    /// Creates a round from its number.
    ///
    /// # Panics
    ///
    /// Panics if `round == 0`; rounds are 1-based.
    #[must_use]
    pub fn new(round: u32) -> Self {
        assert!(round >= 1, "round numbers start at 1");
        Round(round)
    }

    /// The round number as an integer.
    #[must_use]
    pub fn get(self) -> u32 {
        self.0
    }

    /// The next round.
    #[must_use]
    pub fn next(self) -> Round {
        Round(self.0 + 1)
    }

    /// The previous round, or `None` for the first round.
    #[must_use]
    pub fn prev(self) -> Option<Round> {
        if self.0 > 1 {
            Some(Round(self.0 - 1))
        } else {
            None
        }
    }
}

impl fmt::Display for Round {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "round {}", self.0)
    }
}

impl Add<u32> for Round {
    type Output = Round;

    fn add(self, rhs: u32) -> Round {
        Round(self.0 + rhs)
    }
}

impl AddAssign<u32> for Round {
    fn add_assign(&mut self, rhs: u32) {
        self.0 += rhs;
    }
}

impl Sub<Round> for Round {
    type Output = u32;

    /// Number of rounds from `rhs` to `self`.
    ///
    /// # Panics
    ///
    /// Panics if `rhs > self`.
    fn sub(self, rhs: Round) -> u32 {
        self.0.checked_sub(rhs.0).expect("round subtraction underflow")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        assert_eq!(Round::FIRST.get(), 1);
        assert_eq!(Round::new(5).get(), 5);
    }

    #[test]
    #[should_panic(expected = "start at 1")]
    fn round_zero_panics() {
        let _ = Round::new(0);
    }

    #[test]
    fn next_prev() {
        assert_eq!(Round::FIRST.next(), Round::new(2));
        assert_eq!(Round::new(2).prev(), Some(Round::FIRST));
        assert_eq!(Round::FIRST.prev(), None);
    }

    #[test]
    fn arithmetic() {
        let mut r = Round::FIRST;
        r += 3;
        assert_eq!(r, Round::new(4));
        assert_eq!(r + 1, Round::new(5));
        assert_eq!(Round::new(7) - Round::new(4), 3);
    }

    #[test]
    fn ordering() {
        assert!(Round::FIRST < Round::new(2));
    }

    #[test]
    fn display() {
        assert_eq!(Round::new(4).to_string(), "round 4");
    }
}
