//! System configuration: number of processes `n` and resilience `t`.

use std::fmt;

use crate::process::{ProcessId, ProcessSet};

/// Resilience regime a configuration must satisfy.
///
/// The paper's results hold in different regimes:
///
/// * the lower bound and `A_{t+2}` need `0 < t < n/2` ([`Resilience::Majority`]),
/// * `A_{f+2}` needs `t < n/3` ([`Resilience::Third`]),
/// * SCS algorithms such as FloodSet only need `t ≤ n - 2`
///   ([`Resilience::Synchronous`]) for the `t + 1` bound to be meaningful.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Resilience {
    /// `0 < t < n/2`: a majority of processes is correct. Required by every
    /// indulgent algorithm (Chandra–Toueg), and by the paper's lower bound.
    Majority,
    /// `t < n/3`: more than two thirds of processes are correct. Required by
    /// the `A_{f+2}` algorithm of Sect. 6.
    Third,
    /// `t ≤ n - 2`: the classic requirement for the `t + 1` round lower
    /// bound in the synchronous model.
    Synchronous,
}

/// Validated system configuration `(n, t)`.
///
/// `n` is the total number of processes and `t` the maximum number that may
/// crash. Constructors validate the resilience regime so that algorithms can
/// assume their preconditions hold.
///
/// # Examples
///
/// ```
/// use indulgent_model::SystemConfig;
///
/// let cfg = SystemConfig::majority(5, 2)?;
/// assert_eq!(cfg.n(), 5);
/// assert_eq!(cfg.t(), 2);
/// assert_eq!(cfg.quorum(), 3); // n - t
/// # Ok::<(), indulgent_model::ConfigError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SystemConfig {
    n: usize,
    t: usize,
}

impl SystemConfig {
    /// Creates a configuration in the `0 < t < n/2` regime (the paper's
    /// standing assumption for indulgent consensus, `n ≥ 3`).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `n < 3`, `t == 0`, `2t ≥ n`, or `n`
    /// exceeds [`ProcessSet::MAX_PROCESSES`].
    pub fn majority(n: usize, t: usize) -> Result<Self, ConfigError> {
        Self::validated(n, t, Resilience::Majority)
    }

    /// Creates a configuration in the `t < n/3` regime required by
    /// `A_{f+2}` (Sect. 6 of the paper).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `t == 0` is fine here but `3t ≥ n`, `n < 3`,
    /// or `n` exceeds [`ProcessSet::MAX_PROCESSES`].
    pub fn third(n: usize, t: usize) -> Result<Self, ConfigError> {
        Self::validated(n, t, Resilience::Third)
    }

    /// Creates a configuration for the synchronous model (`t ≤ n - 2`).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `t + 2 > n`, `n < 2`, or `n` exceeds
    /// [`ProcessSet::MAX_PROCESSES`].
    pub fn synchronous(n: usize, t: usize) -> Result<Self, ConfigError> {
        Self::validated(n, t, Resilience::Synchronous)
    }

    /// Creates a configuration validated against `regime`.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when the pair `(n, t)` violates the regime.
    pub fn validated(n: usize, t: usize, regime: Resilience) -> Result<Self, ConfigError> {
        if n > ProcessSet::MAX_PROCESSES {
            return Err(ConfigError::TooManyProcesses { n });
        }
        match regime {
            Resilience::Majority => {
                if n < 3 {
                    return Err(ConfigError::TooFewProcesses { n, min: 3 });
                }
                if t == 0 {
                    return Err(ConfigError::ZeroResilience);
                }
                if 2 * t >= n {
                    return Err(ConfigError::NoMajority { n, t });
                }
            }
            Resilience::Third => {
                if n < 3 {
                    return Err(ConfigError::TooFewProcesses { n, min: 3 });
                }
                if 3 * t >= n {
                    return Err(ConfigError::NoTwoThirds { n, t });
                }
            }
            Resilience::Synchronous => {
                if n < 2 {
                    return Err(ConfigError::TooFewProcesses { n, min: 2 });
                }
                if t + 2 > n {
                    return Err(ConfigError::SynchronousResilience { n, t });
                }
            }
        }
        Ok(SystemConfig { n, t })
    }

    /// Total number of processes.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Maximum number of processes that may crash.
    #[must_use]
    pub fn t(&self) -> usize {
        self.t
    }

    /// The delivery quorum `n - t`: in ES every process completing a round
    /// receives round-`k` messages from at least this many processes.
    #[must_use]
    pub fn quorum(&self) -> usize {
        self.n - self.t
    }

    /// `n - 2t`, the adoption threshold used by `A_{f+2}` when `t < n/3`.
    #[must_use]
    pub fn small_quorum(&self) -> usize {
        self.n - 2 * self.t
    }

    /// All process ids `p0 … p(n-1)`.
    pub fn processes(&self) -> impl ExactSizeIterator<Item = ProcessId> {
        (0..self.n).map(ProcessId::new)
    }

    /// The full process set.
    #[must_use]
    pub fn all(&self) -> ProcessSet {
        ProcessSet::full(self.n)
    }

    /// Returns `true` if `id` names a process of this system.
    #[must_use]
    pub fn contains(&self, id: ProcessId) -> bool {
        id.index() < self.n
    }
}

impl fmt::Display for SystemConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n={}, t={}", self.n, self.t)
    }
}

/// Error produced when a `(n, t)` pair violates a resilience regime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// More processes requested than [`ProcessSet`] can represent.
    TooManyProcesses {
        /// Requested number of processes.
        n: usize,
    },
    /// Fewer processes than the regime requires.
    TooFewProcesses {
        /// Requested number of processes.
        n: usize,
        /// Minimum allowed.
        min: usize,
    },
    /// `t == 0` requested for an indulgent configuration; the paper excludes
    /// it (decision is possible in round 1).
    ZeroResilience,
    /// `2t ≥ n`: no indulgent consensus exists (Chandra & Toueg).
    NoMajority {
        /// Number of processes.
        n: usize,
        /// Requested resilience.
        t: usize,
    },
    /// `3t ≥ n`: the `A_{f+2}` algorithm is not applicable.
    NoTwoThirds {
        /// Number of processes.
        n: usize,
        /// Requested resilience.
        t: usize,
    },
    /// `t + 2 > n`: the synchronous `t + 1` bound needs `t ≤ n - 2`.
    SynchronousResilience {
        /// Number of processes.
        n: usize,
        /// Requested resilience.
        t: usize,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::TooManyProcesses { n } => {
                write!(
                    f,
                    "{n} processes exceed the supported maximum of {}",
                    ProcessSet::MAX_PROCESSES
                )
            }
            ConfigError::TooFewProcesses { n, min } => {
                write!(f, "{n} processes are fewer than the required minimum of {min}")
            }
            ConfigError::ZeroResilience => {
                write!(f, "t = 0 is excluded: processes can decide in the very first round")
            }
            ConfigError::NoMajority { n, t } => {
                write!(f, "t = {t} with n = {n} violates t < n/2; indulgent consensus requires a correct majority")
            }
            ConfigError::NoTwoThirds { n, t } => {
                write!(f, "t = {t} with n = {n} violates t < n/3 required by A_f+2")
            }
            ConfigError::SynchronousResilience { n, t } => {
                write!(
                    f,
                    "t = {t} with n = {n} violates t <= n - 2 required in the synchronous model"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn majority_accepts_valid() {
        let cfg = SystemConfig::majority(5, 2).unwrap();
        assert_eq!(cfg.n(), 5);
        assert_eq!(cfg.t(), 2);
        assert_eq!(cfg.quorum(), 3);
        assert_eq!(cfg.small_quorum(), 1);
        assert_eq!(cfg.processes().len(), 5);
        assert_eq!(cfg.all().len(), 5);
        assert!(cfg.contains(ProcessId::new(4)));
        assert!(!cfg.contains(ProcessId::new(5)));
    }

    #[test]
    fn majority_rejects_half() {
        assert_eq!(SystemConfig::majority(4, 2), Err(ConfigError::NoMajority { n: 4, t: 2 }));
    }

    #[test]
    fn majority_rejects_zero_t() {
        assert_eq!(SystemConfig::majority(3, 0), Err(ConfigError::ZeroResilience));
    }

    #[test]
    fn majority_rejects_tiny_system() {
        assert_eq!(
            SystemConfig::majority(2, 1),
            Err(ConfigError::TooFewProcesses { n: 2, min: 3 })
        );
    }

    #[test]
    fn third_regime() {
        assert!(SystemConfig::third(4, 1).is_ok());
        assert!(SystemConfig::third(7, 2).is_ok());
        assert_eq!(SystemConfig::third(6, 2), Err(ConfigError::NoTwoThirds { n: 6, t: 2 }));
        // t = 0 is allowed for A_f+2 (f ranges over 0..=t).
        assert!(SystemConfig::third(3, 0).is_ok());
    }

    #[test]
    fn synchronous_regime() {
        assert!(SystemConfig::synchronous(3, 1).is_ok());
        assert!(SystemConfig::synchronous(4, 2).is_ok());
        assert_eq!(
            SystemConfig::synchronous(3, 2),
            Err(ConfigError::SynchronousResilience { n: 3, t: 2 })
        );
    }

    #[test]
    fn too_many_processes() {
        assert_eq!(SystemConfig::majority(65, 1), Err(ConfigError::TooManyProcesses { n: 65 }));
    }

    #[test]
    fn error_messages_are_lowercase_and_nonempty() {
        for err in [
            ConfigError::TooManyProcesses { n: 65 },
            ConfigError::TooFewProcesses { n: 1, min: 3 },
            ConfigError::ZeroResilience,
            ConfigError::NoMajority { n: 4, t: 2 },
            ConfigError::NoTwoThirds { n: 6, t: 2 },
            ConfigError::SynchronousResilience { n: 3, t: 2 },
        ] {
            let msg = err.to_string();
            assert!(!msg.is_empty());
            assert!(
                msg.chars().next().unwrap().is_lowercase() || msg.starts_with(char::is_numeric)
            );
        }
    }

    #[test]
    fn display() {
        let cfg = SystemConfig::majority(5, 2).unwrap();
        assert_eq!(cfg.to_string(), "n=5, t=2");
    }
}
