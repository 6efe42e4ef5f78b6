//! Client commands, batches and replicated-log entries.
//!
//! The one-shot consensus machinery of this workspace decides a single
//! [`Value`] per run. The `indulgent-log` crate chains such instances into
//! a *replicated log*: clients submit [`Command`]s, a frontend groups them
//! into [`Batch`]es, and each consensus instance decides which batch
//! occupies the next log slot. This module fixes the vocabulary those
//! layers share, mirroring how [`crate::ProcessId`] / [`crate::Round`] fix
//! the one-shot vocabulary.
//!
//! A batch is identified by a [`BatchId`] that doubles as the consensus
//! proposal for the slot ([`BatchId::as_value`]): batch *ordering* is
//! agreed on through consensus, while batch *content* travels on a
//! dissemination side channel (in this workspace, a shared registry — the
//! split mirrors generalized-consensus designs that separate payload
//! dissemination from sequencing). Lower ids are older batches, so
//! min-estimate algorithms such as `A_{t+2}` prefer the oldest outstanding
//! work; the reserved [`BatchId::NOOP`] is the *largest* id and therefore
//! wins a slot only when nothing real was proposed.

use std::fmt;

use crate::value::Value;

/// Identifier of a client command, unique within a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CommandId(pub u64);

impl fmt::Display for CommandId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// Identifier of a client *session* talking to the replicated service.
///
/// Where [`CommandId`] names a command inside one workload, a `ClientId`
/// names the session that submitted it: the networked service layer
/// (`indulgent-server`) keys its exactly-once bookkeeping by
/// `(ClientId, RequestId)`, so a client that retries a request — on the
/// same connection or after reconnecting — is recognized and answered
/// with the original acknowledgement instead of a second apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ClientId(pub u64);

impl fmt::Display for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "client{}", self.0)
    }
}

/// Per-client monotonic request number.
///
/// A client session assigns strictly increasing `RequestId`s to its
/// requests; the pair `(ClientId, RequestId)` is the service-wide
/// exactly-once key. Ids need not be dense — only monotonic — so a
/// client may skip numbers, but reusing one *is* the retry protocol:
/// the service deduplicates it against the decided log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RequestId(pub u64);

impl RequestId {
    /// The next request id in the session's monotonic sequence.
    #[must_use]
    pub fn next(self) -> RequestId {
        RequestId(self.0 + 1)
    }
}

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A client command: an opaque payload tagged with a unique id.
///
/// The payload is a `u64` for the same reason [`Value`] is: the
/// reproduction needs ordering and equality, not serialization of real
/// application state. A key-value store encodes `(key, value)` pairs into
/// the integer (see the `replicated_kv` example).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Command {
    /// Unique command id (assigned at submission).
    pub id: CommandId,
    /// Opaque application payload.
    pub payload: u64,
}

/// Identifier of a batch of commands; doubles as the consensus proposal
/// for a log slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BatchId(pub u64);

impl BatchId {
    /// The reserved "no batch" proposal: a replica with an empty queue
    /// proposes `NOOP`. It is the maximum id, so min-based decisions pick
    /// it only when *every* proposal was a no-op.
    pub const NOOP: BatchId = BatchId(u64::MAX);

    /// Encodes the id as a consensus proposal.
    #[must_use]
    pub fn as_value(self) -> Value {
        Value::new(self.0)
    }

    /// Decodes a decided consensus value back into a batch id.
    #[must_use]
    pub fn from_value(v: Value) -> Self {
        BatchId(v.get())
    }

    /// Returns `true` for the reserved no-op id.
    #[must_use]
    pub fn is_noop(self) -> bool {
        self == Self::NOOP
    }
}

impl fmt::Display for BatchId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_noop() {
            write!(f, "b⊥")
        } else {
            write!(f, "b{}", self.0)
        }
    }
}

/// A batch of client commands proposed for one log slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Batch {
    /// The batch id (monotonic per frontend; older batches have lower ids).
    pub id: BatchId,
    /// The commands in submission order.
    pub commands: Vec<Command>,
}

/// What a replica applied at one log slot after deciding it.
///
/// The decided value of the slot's consensus instance is recorded
/// verbatim; the entry then classifies it: a fresh batch is `Applied`, the
/// reserved no-op id is `Noop`, and a batch id already applied at an
/// earlier slot is `Duplicate` (apply-time deduplication — the safety net
/// that keeps at-most-once semantics even if a proposer re-proposes a
/// chosen batch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppliedEntry {
    /// The batch was applied at this slot (first occurrence).
    Applied(BatchId),
    /// The slot decided the reserved no-op proposal.
    Noop,
    /// The slot decided a batch already applied at an earlier slot.
    Duplicate(BatchId),
}

impl AppliedEntry {
    /// The batch applied at this slot, if any.
    #[must_use]
    pub fn applied(self) -> Option<BatchId> {
        match self {
            AppliedEntry::Applied(b) => Some(b),
            AppliedEntry::Noop | AppliedEntry::Duplicate(_) => None,
        }
    }

    /// The raw decided batch id (`NOOP` for no-op slots).
    #[must_use]
    pub fn decided(self) -> BatchId {
        match self {
            AppliedEntry::Applied(b) | AppliedEntry::Duplicate(b) => b,
            AppliedEntry::Noop => BatchId::NOOP,
        }
    }
}

impl fmt::Display for AppliedEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AppliedEntry::Applied(b) => write!(f, "{b}"),
            AppliedEntry::Noop => write!(f, "noop"),
            AppliedEntry::Duplicate(b) => write!(f, "dup({b})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_id_value_round_trip() {
        let b = BatchId(42);
        assert_eq!(BatchId::from_value(b.as_value()), b);
        assert!(!b.is_noop());
        assert!(BatchId::NOOP.is_noop());
        assert_eq!(BatchId::from_value(BatchId::NOOP.as_value()), BatchId::NOOP);
    }

    #[test]
    fn noop_is_the_maximum_id() {
        // Min-based decisions must prefer any real batch over the no-op.
        assert!(BatchId(u64::MAX - 1) < BatchId::NOOP);
        assert!(BatchId(0).as_value() < BatchId::NOOP.as_value());
    }

    #[test]
    fn applied_entry_accessors() {
        assert_eq!(AppliedEntry::Applied(BatchId(3)).applied(), Some(BatchId(3)));
        assert_eq!(AppliedEntry::Duplicate(BatchId(3)).applied(), None);
        assert_eq!(AppliedEntry::Noop.applied(), None);
        assert_eq!(AppliedEntry::Noop.decided(), BatchId::NOOP);
        assert_eq!(AppliedEntry::Duplicate(BatchId(3)).decided(), BatchId(3));
    }

    #[test]
    fn request_ids_are_monotonic() {
        let r = RequestId(3);
        assert_eq!(r.next(), RequestId(4));
        assert!(r < r.next());
        assert_eq!(RequestId::default(), RequestId(0));
    }

    #[test]
    fn display_formats() {
        assert_eq!(CommandId(7).to_string(), "c7");
        assert_eq!(ClientId(7).to_string(), "client7");
        assert_eq!(RequestId(7).to_string(), "r7");
        assert_eq!(BatchId(7).to_string(), "b7");
        assert_eq!(BatchId::NOOP.to_string(), "b⊥");
        assert_eq!(AppliedEntry::Applied(BatchId(1)).to_string(), "b1");
        assert_eq!(AppliedEntry::Duplicate(BatchId(1)).to_string(), "dup(b1)");
        assert_eq!(AppliedEntry::Noop.to_string(), "noop");
    }
}
