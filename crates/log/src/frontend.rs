//! The client frontend: command intake, batching, and batch dissemination.
//!
//! Clients submit [`Command`]s one at a time; the frontend groups them
//! into fixed-size [`Batch`]es and assigns each sealed batch a *home
//! replica* (round-robin) — the replica that will propose it for log
//! slots until it is chosen. Batch ids are monotonic, so the id order is
//! the submission order and min-estimate consensus naturally prefers the
//! oldest outstanding batch.
//!
//! The frontend also plays the role of the *dissemination layer*: batch
//! content is recorded in an in-process registry keyed by [`BatchId`],
//! while only the id travels through consensus. Real deployments ship the
//! payload on a separate dissemination path and sequence cheap references
//! through agreement (the design generalized-consensus systems use to
//! keep the ordering path thin); an in-process registry is the honest
//! single-machine reduction of that split — consensus *validity*
//! guarantees every decided id was proposed by some replica, hence was
//! registered here first.

use std::collections::VecDeque;

use indulgent_model::{Batch, BatchId, Command, CommandId};

/// How sealed batches are distributed to proposer queues.
///
/// The intake policy models where clients connect:
///
/// * `RoundRobin` — clients spread across replicas; batches contend for
///   slots (a losing proposal is re-proposed once its slot settles).
///   Richest behavior for chaos testing, but a fixed instance budget may
///   leave late batches uncommitted.
/// * `Leader(r)` — all clients talk to replica `r`, which proposes
///   batches in id order; other replicas propose no-ops. One batch
///   commits per slot, zero contention.
/// * `Shared` — clients broadcast to every replica (every queue holds
///   every batch), so all replicas propose the *same* batch for the same
///   slot. Zero contention, and no batch is stranded when its proposer
///   crashes; majority-selection algorithms such as `A_{f+2}` need this
///   mode to commit real work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntakePolicy {
    /// Home replica `batch_id % n`.
    RoundRobin,
    /// All batches home at one replica.
    Leader(usize),
    /// Every replica queues every batch.
    Shared,
}

/// Command intake and batch dissemination for one log workload.
#[derive(Debug, Clone)]
pub struct ClientFrontend {
    n: usize,
    batch_size: usize,
    intake: IntakePolicy,
    open: Vec<Command>,
    next_batch: u64,
    next_command: u64,
    /// Sealed batches, dense: `batches[i].id == BatchId(i)`.
    batches: Vec<Batch>,
    /// Outstanding batch ids per home replica, oldest first.
    queues: Vec<VecDeque<BatchId>>,
    /// Live-intake cursor: sealed batches below this id have been handed
    /// out via [`ClientFrontend::pop_sealed`].
    sealed_cursor: u64,
}

impl ClientFrontend {
    /// Creates a frontend for `n` replicas sealing batches of
    /// `batch_size` commands, with round-robin intake.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size == 0`.
    #[must_use]
    pub fn new(n: usize, batch_size: usize) -> Self {
        assert!(batch_size > 0, "batches hold at least one command");
        ClientFrontend {
            n,
            batch_size,
            intake: IntakePolicy::RoundRobin,
            open: Vec::with_capacity(batch_size),
            next_batch: 0,
            next_command: 0,
            batches: Vec::new(),
            queues: vec![VecDeque::new(); n],
            sealed_cursor: 0,
        }
    }

    /// Sets the intake policy. Must be called before submitting commands.
    ///
    /// # Panics
    ///
    /// Panics if batches were already sealed, or if a `Leader` index is
    /// out of range.
    #[must_use]
    pub fn with_intake(mut self, intake: IntakePolicy) -> Self {
        assert_eq!(self.next_batch, 0, "intake policy must be set before submission");
        if let IntakePolicy::Leader(l) = intake {
            assert!(l < self.n, "leader index out of range");
        }
        self.intake = intake;
        self
    }

    /// Submits one command; returns its id. Seals the open batch when it
    /// reaches the batch size.
    pub fn submit(&mut self, payload: u64) -> CommandId {
        let id = CommandId(self.next_command);
        self.next_command += 1;
        self.open.push(Command { id, payload });
        if self.open.len() == self.batch_size {
            self.seal();
        }
        id
    }

    /// Submits a whole workload and seals any trailing partial batch.
    pub fn submit_all<I: IntoIterator<Item = u64>>(&mut self, payloads: I) {
        for p in payloads {
            self.submit(p);
        }
        self.flush();
    }

    /// Seals the open batch even if it is not full (no-op when empty).
    pub fn flush(&mut self) {
        if !self.open.is_empty() {
            self.seal();
        }
    }

    fn seal(&mut self) {
        let id = BatchId(self.next_batch);
        self.next_batch += 1;
        let commands = std::mem::take(&mut self.open);
        self.open = Vec::with_capacity(self.batch_size);
        match self.intake {
            IntakePolicy::RoundRobin => {
                self.queues[(id.0 % self.n as u64) as usize].push_back(id);
            }
            IntakePolicy::Leader(l) => self.queues[l].push_back(id),
            IntakePolicy::Shared => {
                for q in &mut self.queues {
                    q.push_back(id);
                }
            }
        }
        self.batches.push(Batch { id, commands });
    }

    /// Number of replicas this frontend feeds.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Total commands submitted.
    #[must_use]
    pub fn commands_submitted(&self) -> u64 {
        self.next_command
    }

    /// Total batches sealed.
    #[must_use]
    pub fn batches_sealed(&self) -> u64 {
        self.next_batch
    }

    /// The content of a sealed batch (the dissemination-layer lookup).
    #[must_use]
    pub fn batch(&self, id: BatchId) -> Option<&Batch> {
        self.batches.get(usize::try_from(id.0).ok()?)
    }

    /// The outstanding batch ids per home replica, oldest first — the
    /// proposal queues the log driver starts from.
    #[must_use]
    pub fn take_queues(&mut self) -> Vec<VecDeque<BatchId>> {
        std::mem::replace(&mut self.queues, vec![VecDeque::new(); self.n])
    }

    /// Live-intake cursor: hands out the oldest sealed batch not yet
    /// popped, or `None` when intake has caught up with sealing.
    ///
    /// This is the intake path of a caller that proposes batches in seal
    /// order as they become available, independent of the per-replica
    /// policy queues a [`LogDriver`](crate::LogDriver) workload starts
    /// from (the benchmark's batching-cost drive is one). The cursor never
    /// hands a batch out twice.
    pub fn pop_sealed(&mut self) -> Option<BatchId> {
        if self.sealed_cursor < self.next_batch {
            let id = BatchId(self.sealed_cursor);
            self.sealed_cursor += 1;
            Some(id)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batching_seals_at_size_and_assigns_homes_round_robin() {
        let mut f = ClientFrontend::new(3, 2);
        f.submit_all(0..10);
        assert_eq!(f.commands_submitted(), 10);
        assert_eq!(f.batches_sealed(), 5); // 10 commands / size 2
        let queues = f.take_queues();
        // Batch b -> home b % 3.
        assert_eq!(queues[0].iter().copied().collect::<Vec<_>>(), [BatchId(0), BatchId(3)]);
        assert_eq!(queues[1].iter().copied().collect::<Vec<_>>(), [BatchId(1), BatchId(4)]);
        assert_eq!(queues[2].iter().copied().collect::<Vec<_>>(), [BatchId(2)]);
    }

    #[test]
    fn flush_seals_partial_batches() {
        let mut f = ClientFrontend::new(2, 4);
        f.submit(7);
        assert_eq!(f.batches_sealed(), 0);
        f.flush();
        assert_eq!(f.batches_sealed(), 1);
        let b = f.batch(BatchId(0)).unwrap();
        assert_eq!(b.commands.len(), 1);
        assert_eq!(b.commands[0].payload, 7);
        // Double flush is a no-op.
        f.flush();
        assert_eq!(f.batches_sealed(), 1);
    }

    #[test]
    fn live_intake_cursor_tracks_sealing() {
        let mut f = ClientFrontend::new(2, 2).with_intake(IntakePolicy::Shared);
        assert_eq!(f.pop_sealed(), None);
        f.submit(1);
        assert_eq!(f.pop_sealed(), None, "open batches are not handed out");
        f.submit(2); // seals batch 0
        assert_eq!(f.pop_sealed(), Some(BatchId(0)));
        assert_eq!(f.pop_sealed(), None, "a batch pops exactly once");
        f.submit(3);
        f.flush(); // seals the partial batch 1
        assert_eq!(f.pop_sealed(), Some(BatchId(1)));
        assert_eq!(f.pop_sealed(), None);
    }

    #[test]
    fn linger_sealed_partial_batches_pop_in_order() {
        // A live service seals partial batches via flush (the linger
        // timer); the cursor must interleave full and partial seals in
        // seal order without skipping or repeating.
        let mut f = ClientFrontend::new(3, 3).with_intake(IntakePolicy::Shared);
        f.submit(1);
        f.flush(); // partial batch 0 (1 command)
        f.submit(2);
        f.submit(3);
        f.submit(4); // full batch 1
        f.submit(5);
        f.flush(); // partial batch 2
        assert_eq!(f.pop_sealed(), Some(BatchId(0)));
        assert_eq!(f.batch(BatchId(0)).unwrap().commands.len(), 1);
        assert_eq!(f.pop_sealed(), Some(BatchId(1)));
        assert_eq!(f.batch(BatchId(1)).unwrap().commands.len(), 3);
        assert_eq!(f.pop_sealed(), Some(BatchId(2)));
        assert_eq!(f.pop_sealed(), None);
    }

    #[test]
    fn command_ids_are_dense_and_unique() {
        let mut f = ClientFrontend::new(2, 3);
        let ids: Vec<CommandId> = (0..7).map(|p| f.submit(p)).collect();
        f.flush();
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(id.0, i as u64);
        }
        // Every command sits in exactly one batch.
        let mut seen = std::collections::HashSet::new();
        for b in 0..f.batches_sealed() {
            for c in &f.batch(BatchId(b)).unwrap().commands {
                assert!(seen.insert(c.id), "{} appears twice", c.id);
            }
        }
        assert_eq!(seen.len(), 7);
    }
}
