//! Proposal and decision values.

use std::fmt;

/// A consensus proposal/decision value.
///
/// The paper assumes the set of proposal values in a run is totally ordered
/// (algorithm assumption 4, Sect. 3): the `A_{t+2}` algorithm repeatedly
/// takes minima of estimate values, and the failure-free optimization decides
/// on "the minimum of all proposed values". A `u64` newtype provides that
/// order directly; a process can encode "value tagged with its index" by
/// packing the tag into the integer.
///
/// # Examples
///
/// ```
/// use indulgent_model::Value;
///
/// let v = Value::new(42);
/// assert_eq!(v.get(), 42);
/// assert!(Value::ZERO < Value::ONE);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Value(u64);

impl Value {
    /// The binary-consensus value `0`.
    pub const ZERO: Value = Value(0);
    /// The binary-consensus value `1`.
    pub const ONE: Value = Value(1);

    /// Creates a value.
    #[must_use]
    pub fn new(v: u64) -> Self {
        Value(v)
    }

    /// The underlying integer.
    #[must_use]
    pub fn get(self) -> u64 {
        self.0
    }

    /// Creates the binary value for a boolean (`false → 0`, `true → 1`).
    #[must_use]
    pub fn binary(b: bool) -> Self {
        if b {
            Value::ONE
        } else {
            Value::ZERO
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value(v)
    }
}

impl From<Value> for u64 {
    fn from(v: Value) -> u64 {
        v.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_numeric() {
        assert!(Value::new(3) < Value::new(10));
        assert_eq!(Value::ZERO, Value::new(0));
        assert_eq!(Value::ONE, Value::new(1));
    }

    #[test]
    fn binary_helper() {
        assert_eq!(Value::binary(false), Value::ZERO);
        assert_eq!(Value::binary(true), Value::ONE);
    }

    #[test]
    fn conversions() {
        let v: Value = 9u64.into();
        assert_eq!(u64::from(v), 9);
        assert_eq!(v.to_string(), "9");
    }
}
