//! The per-receiver mailbox both substrates keep their pending messages
//! in.

use crate::message::DeliveredMsg;

/// Per-receiver mailbox: a flat ring of message buffers keyed by the
/// offset of a message's *arrival round* from the round the receiver is
/// executing.
///
/// `slots[(head + offset) % slots.len()]` holds the messages arriving
/// `offset` rounds from now; offset 0 is the round being executed. A
/// substrate pushes each message at its arrival offset, drains the due
/// slot in the receive phase, and [`advance`](RingMailbox::advance)s the
/// ring by one slot per round. The ring grows only when an arrival lies
/// beyond its current span, after which the same buffers are recycled
/// round after round: the steady state allocates nothing.
///
/// What the arrival round is belongs to the substrate. The simulator
/// reads it off the schedule (a delayed message arrives in a later
/// round). The wall-clock runtime keys a message by the round it was
/// sent in, or the receiver's current round if that has passed (a late
/// message joins the next receive phase).
///
/// # Examples
///
/// ```
/// use indulgent_model::{DeliveredMsg, ProcessId, RingMailbox, Round};
///
/// let mut ring = RingMailbox::new();
/// let msg = |r: u32| DeliveredMsg { sender: ProcessId::new(0), sent_round: Round::new(r), msg: r };
/// ring.slot_mut(0).push(msg(1)); // due now
/// ring.slot_mut(2).push(msg(3)); // due two rounds from now
/// assert_eq!(ring.due().len(), 1);
/// ring.due_mut().clear();
/// ring.advance();
/// assert!(ring.due_is_empty());
/// ring.advance();
/// assert_eq!(ring.due()[0].msg, 3);
/// ```
#[derive(Debug)]
pub struct RingMailbox<M> {
    slots: Vec<Vec<DeliveredMsg<M>>>,
    head: usize,
}

impl<M> Default for RingMailbox<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> RingMailbox<M> {
    /// An empty one-slot ring (the footprint of a delay-free run).
    #[must_use]
    pub fn new() -> Self {
        RingMailbox { slots: vec![Vec::new()], head: 0 }
    }

    /// The buffer for messages arriving `offset` rounds from the round
    /// being executed, growing the ring if the offset reaches beyond it.
    pub fn slot_mut(&mut self, offset: usize) -> &mut Vec<DeliveredMsg<M>> {
        if offset >= self.slots.len() {
            self.grow(offset + 1);
        }
        let len = self.slots.len();
        &mut self.slots[(self.head + offset) % len]
    }

    /// Whether anything is due in the round being executed.
    #[must_use]
    pub fn due_is_empty(&self) -> bool {
        self.slots[self.head].is_empty()
    }

    /// The messages due in the round being executed.
    #[must_use]
    pub fn due(&self) -> &[DeliveredMsg<M>] {
        &self.slots[self.head]
    }

    /// The buffer due in the round being executed.
    pub fn due_mut(&mut self) -> &mut Vec<DeliveredMsg<M>> {
        let head = self.head;
        &mut self.slots[head]
    }

    /// Rotates the ring by one round. Anything left in the due slot is
    /// dropped (in the simulator: messages addressed to a receiver that
    /// crashed before their arrival round), so the buffer is clean for
    /// its next lap.
    pub fn advance(&mut self) {
        self.slots[self.head].clear();
        self.head = (self.head + 1) % self.slots.len();
    }

    /// Empties every slot, keeping the ring's span and each buffer's
    /// capacity: the multi-shot instance reset, after which the next
    /// instance starts with clean mailboxes but a warm ring.
    pub fn clear_all(&mut self) {
        for slot in &mut self.slots {
            slot.clear();
        }
        self.head = 0;
    }

    /// Re-bases the ring at `head = 0` with at least `min_slots` slots,
    /// preserving every buffer (and its capacity) at its logical offset.
    fn grow(&mut self, min_slots: usize) {
        let new_len = min_slots.next_power_of_two().max(4);
        let old_len = self.slots.len();
        let mut slots = Vec::with_capacity(new_len);
        for i in 0..old_len {
            slots.push(std::mem::take(&mut self.slots[(self.head + i) % old_len]));
        }
        slots.resize_with(new_len, Vec::new);
        self.slots = slots;
        self.head = 0;
    }
}

impl<M: Clone> Clone for RingMailbox<M> {
    fn clone(&self) -> Self {
        RingMailbox { slots: self.slots.clone(), head: self.head }
    }

    /// Mirrors `source`'s physical layout while reusing `self`'s existing
    /// buffers: the simulator's incremental sweep recycles fork snapshots
    /// through this, so the per-slot `Vec`s (and their message payloads'
    /// buffers) are rewritten in place instead of reallocated.
    fn clone_from(&mut self, source: &Self) {
        if self.slots.len() != source.slots.len() {
            // Rare: the rings grew apart between snapshots. Keep as many
            // existing buffers as possible and adopt the source layout.
            self.slots.resize_with(source.slots.len(), Vec::new);
        }
        self.head = source.head;
        for (dst, src) in self.slots.iter_mut().zip(&source.slots) {
            dst.clone_from(src);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ProcessId, Round};

    fn msg(round: u32) -> DeliveredMsg<u32> {
        DeliveredMsg { sender: ProcessId::new(0), sent_round: Round::new(round), msg: round }
    }

    #[test]
    fn growth_keeps_every_message_at_its_offset() {
        let mut ring = RingMailbox::new();
        ring.slot_mut(0).push(msg(1));
        ring.advance();
        ring.slot_mut(0).push(msg(2));
        // Offset 5 forces a re-base while the head is off slot 0.
        ring.slot_mut(5).push(msg(7));
        assert_eq!(ring.due().iter().map(|m| m.msg).collect::<Vec<_>>(), [2]);
        for _ in 0..5 {
            ring.advance();
        }
        assert_eq!(ring.due().iter().map(|m| m.msg).collect::<Vec<_>>(), [7]);
    }

    #[test]
    fn clear_all_empties_every_slot_and_rewinds() {
        let mut ring = RingMailbox::new();
        ring.slot_mut(3).push(msg(4));
        ring.advance();
        ring.clear_all();
        for _ in 0..4 {
            assert!(ring.due_is_empty());
            ring.advance();
        }
    }

    #[test]
    fn clone_from_adopts_the_source_layout() {
        let mut source = RingMailbox::new();
        source.slot_mut(2).push(msg(3));
        source.advance();
        let mut copy = RingMailbox::new();
        copy.clone_from(&source);
        copy.advance();
        assert_eq!(copy.due()[0].msg, 3);
    }
}
