//! Adversary schedules: a complete, deterministic description of one run.
//!
//! A run of the paper's models is fully determined by the algorithm, the
//! proposals, and the *adversary's choices*: who crashes when, which of the
//! crash-round messages are delivered / delayed / lost, and which messages
//! are delayed during the asynchronous prefix. A [`Schedule`] captures those
//! choices; [`Schedule::validate`] checks them against the constraints of
//! the chosen model (SCS or ES) so that only legal runs can be executed.

use std::collections::BTreeMap;
use std::fmt;

use indulgent_model::{ProcessId, ProcessSet, Round, SystemConfig};

/// Which round-based model a schedule belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Synchronous crash-stop model: messages are received in the round they
    /// are sent, except that a subset of the messages sent by a process in
    /// its crash round may be lost.
    Scs,
    /// Eventually synchronous model: messages may additionally be delayed,
    /// subject to t-resilience, reliable channels and eventual synchrony.
    Es,
}

/// The fate of one (round, sender → receiver) message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MessageFate {
    /// Delivered in the round it was sent (the default).
    #[default]
    Deliver,
    /// Delivered in the given later round.
    Delay(Round),
    /// Never delivered.
    Lose,
}

/// A complete adversary schedule for one run.
///
/// Build schedules with [`ScheduleBuilder`](crate::ScheduleBuilder), the
/// random generators in [`random`](crate::random), or the serial-run
/// enumerator in [`serial`](crate::serial).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    config: SystemConfig,
    kind: ModelKind,
    /// Per-process crash round; `None` = correct.
    crash_rounds: Vec<Option<Round>>,
    /// Non-default message fates, keyed by (round, sender, receiver).
    overrides: BTreeMap<(u32, usize, usize), MessageFate>,
    /// The eventual-synchrony round `K`: from this round on, delivery is
    /// synchronous. `K = 1` makes the run synchronous.
    sync_from: Round,
    /// Bit `k` set (for rounds `k <= 63`) when round `k` has a crash or a
    /// fate override. Derived from the fields above at construction; the
    /// executor's per-round clean test is one mask probe instead of a
    /// crash-vector scan plus an ordered-map seek (rounds `>= 64` fall
    /// back to the scan). A schedule is never persisted or sent, so the
    /// field has no byte form to keep in step with the others.
    dirty_rounds: u64,
    /// Bit `k` set (for rounds `k <= 63`) when round `k` has at least one
    /// fate override — the O(1) front door of the per-sender override
    /// lookup.
    override_rounds: u64,
}

impl Schedule {
    /// A fully synchronous failure-free run (`K = 1`, no crashes).
    #[must_use]
    pub fn failure_free(config: SystemConfig, kind: ModelKind) -> Self {
        Schedule {
            config,
            kind,
            crash_rounds: vec![None; config.n()],
            overrides: BTreeMap::new(),
            sync_from: Round::FIRST,
            dirty_rounds: 0,
            override_rounds: 0,
        }
    }

    pub(crate) fn from_parts(
        config: SystemConfig,
        kind: ModelKind,
        crash_rounds: Vec<Option<Round>>,
        overrides: BTreeMap<(u32, usize, usize), MessageFate>,
        sync_from: Round,
    ) -> Self {
        let mut dirty_rounds = 0u64;
        let mut override_rounds = 0u64;
        for r in crash_rounds.iter().flatten() {
            if r.get() < 64 {
                dirty_rounds |= 1 << r.get();
            }
        }
        for &(r, _, _) in overrides.keys() {
            if r < 64 {
                override_rounds |= 1 << r;
            }
        }
        dirty_rounds |= override_rounds;
        Schedule { config, kind, crash_rounds, overrides, sync_from, dirty_rounds, override_rounds }
    }

    /// The system configuration this schedule was built for.
    #[must_use]
    pub fn config(&self) -> SystemConfig {
        self.config
    }

    /// The model this schedule belongs to.
    #[must_use]
    pub fn kind(&self) -> ModelKind {
        self.kind
    }

    /// The eventual-synchrony round `K`.
    #[must_use]
    pub fn sync_from(&self) -> Round {
        self.sync_from
    }

    /// Returns `true` if this is a *synchronous* run (`K = 1`).
    #[must_use]
    pub fn is_synchronous(&self) -> bool {
        self.sync_from == Round::FIRST
    }

    /// The crash round of `p`, or `None` if `p` is correct in this run.
    #[must_use]
    pub fn crash_round(&self, p: ProcessId) -> Option<Round> {
        self.crash_rounds.get(p.index()).copied().flatten()
    }

    /// The set of faulty processes (those that crash at some round).
    #[must_use]
    pub fn faulty(&self) -> ProcessSet {
        self.config.processes().filter(|p| self.crash_round(*p).is_some()).collect()
    }

    /// Number of crashes in the schedule.
    #[must_use]
    pub fn crash_count(&self) -> usize {
        self.faulty().len()
    }

    /// Returns `true` if `p` is alive *entering* round `k` (it may still
    /// crash during `k`).
    #[must_use]
    pub fn alive_entering(&self, p: ProcessId, k: Round) -> bool {
        match self.crash_round(p) {
            None => true,
            Some(r) => r >= k,
        }
    }

    /// Returns `true` if `p` completes round `k` (alive entering `k` and not
    /// crashing in `k`).
    #[must_use]
    pub fn completes(&self, p: ProcessId, k: Round) -> bool {
        match self.crash_round(p) {
            None => true,
            Some(r) => r > k,
        }
    }

    /// Returns `true` when round `k` is *clean*: no process crashes in `k`
    /// and no message sent in `k` has a non-default fate, i.e. every
    /// process alive entering `k` completes it and every copy of every
    /// message is delivered in `k` itself.
    ///
    /// Clean rounds are the executor's shared-broadcast fast path: all
    /// completing receivers observe the identical message multiset, so one
    /// pooled delivery serves every receiver. In serial schedules every
    /// round other than the (at most `t`) crash rounds is clean, which is
    /// what makes the fast path the steady state of exhaustive sweeps.
    ///
    /// One bitmask probe for rounds `< 64`; O(n) crash scan plus one
    /// ordered-map seek beyond the mask. Allocation-free either way.
    #[must_use]
    pub fn round_is_clean(&self, k: Round) -> bool {
        if k.get() < 64 {
            return self.dirty_rounds & (1 << k.get()) == 0;
        }
        self.crash_rounds.iter().all(|r| *r != Some(k))
            && self
                .overrides
                .range((k.get(), 0, 0)..=(k.get(), usize::MAX, usize::MAX))
                .next()
                .is_none()
    }

    /// Returns `true` when some message sent by `sender` in round `k` has
    /// a non-default fate. One bitmask probe when the round has no
    /// override at all, one ordered-map seek otherwise; the executor uses
    /// it to skip the per-receiver [`fate`](Schedule::fate) lookups for
    /// the senders of a dirty round that broadcast normally (in a serial
    /// schedule that is everyone but the round's crash victim).
    #[must_use]
    pub fn sender_has_overrides(&self, k: Round, sender: ProcessId) -> bool {
        if k.get() < 64 && self.override_rounds & (1 << k.get()) == 0 {
            return false;
        }
        self.overrides
            .range((k.get(), sender.index(), 0)..=(k.get(), sender.index(), usize::MAX))
            .next()
            .is_some()
    }

    /// The fate of the message sent by `sender` to `receiver` in round `k`.
    ///
    /// Self-addressed messages are always delivered in the same round.
    /// Rounds without any override answer in O(1) off the round bitmask.
    #[must_use]
    pub fn fate(&self, k: Round, sender: ProcessId, receiver: ProcessId) -> MessageFate {
        if sender == receiver || (k.get() < 64 && self.override_rounds & (1 << k.get()) == 0) {
            return MessageFate::Deliver;
        }
        self.overrides
            .get(&(k.get(), sender.index(), receiver.index()))
            .copied()
            .unwrap_or_default()
    }

    /// Iterates over all non-default message fates.
    pub fn overrides(
        &self,
    ) -> impl Iterator<Item = (Round, ProcessId, ProcessId, MessageFate)> + '_ {
        self.overrides
            .iter()
            .map(|(&(r, s, d), &f)| (Round::new(r), ProcessId::new(s), ProcessId::new(d), f))
    }

    /// A stable 64-bit fingerprint of the schedule's content (FNV-1a over
    /// kind, crash rounds, message fates and the synchrony round).
    ///
    /// Equal schedules have equal fingerprints; distinct schedules collide
    /// with probability `~2^-64`. The sweep engine's tests use fingerprints
    /// to compare the schedule sets visited by different enumeration
    /// strategies without materializing every schedule.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut mix = |x: u64| {
            for byte in x.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(PRIME);
            }
        };
        mix(match self.kind {
            ModelKind::Scs => 1,
            ModelKind::Es => 2,
        });
        mix(self.config.n() as u64);
        mix(self.config.t() as u64);
        for crash in &self.crash_rounds {
            mix(crash.map_or(0, |r| u64::from(r.get())));
        }
        for (&(r, s, d), &fate) in &self.overrides {
            mix(u64::from(r));
            mix(s as u64);
            mix(d as u64);
            mix(match fate {
                MessageFate::Deliver => 1,
                MessageFate::Lose => 2,
                MessageFate::Delay(a) => 3 | (u64::from(a.get()) << 8),
            });
        }
        mix(u64::from(self.sync_from.get()));
        h
    }

    /// Validates the schedule against the model constraints, considering
    /// rounds `1..=horizon`.
    ///
    /// The checks are:
    ///
    /// 1. at most `t` crashes;
    /// 2. non-default fates only on meaningful edges (no self edges, sender
    ///    alive in that round);
    /// 3. `Lose` only where the model allows: in the sender's crash round,
    ///    or (ES, before `K`) when the sender or the receiver is faulty
    ///    (reliable channels protect correct→correct messages only);
    /// 4. `Delay` only in ES, only to a strictly later round, and only
    ///    before `K` or in the sender's crash round (the paper's footnote 5:
    ///    crash-round messages may be delayed arbitrarily even in
    ///    synchronous runs);
    /// 5. t-resilience (ES): every process completing round `k` receives at
    ///    least `n - t` round-`k` messages in round `k`.
    ///
    /// # Errors
    ///
    /// Returns the first violated [`ScheduleError`].
    pub fn validate(&self, horizon: u32) -> Result<(), ScheduleError> {
        let n = self.config.n();
        let t = self.config.t();
        if self.crash_count() > t {
            return Err(ScheduleError::TooManyCrashes { crashes: self.crash_count(), t });
        }
        for (&(k, s, d), &fate) in &self.overrides {
            if k == 0 || k > horizon {
                return Err(ScheduleError::RoundOutOfRange { round: k, horizon });
            }
            if s >= n || d >= n {
                return Err(ScheduleError::UnknownProcess { index: s.max(d) });
            }
            if s == d {
                return Err(ScheduleError::SelfEdge { process: ProcessId::new(s) });
            }
            let round = Round::new(k);
            let sender = ProcessId::new(s);
            let receiver = ProcessId::new(d);
            if !self.alive_entering(sender, round) {
                return Err(ScheduleError::DeadSender { sender, round });
            }
            let sender_crashes_now = self.crash_round(sender) == Some(round);
            match fate {
                MessageFate::Deliver => {}
                MessageFate::Lose => {
                    let sender_faulty = self.crash_round(sender).is_some();
                    let receiver_faulty = self.crash_round(receiver).is_some();
                    let async_period = self.kind == ModelKind::Es && round < self.sync_from;
                    let allowed =
                        sender_crashes_now || (async_period && (sender_faulty || receiver_faulty));
                    if !allowed {
                        return Err(ScheduleError::IllegalLoss { sender, receiver, round });
                    }
                }
                MessageFate::Delay(arrival) => {
                    if self.kind == ModelKind::Scs {
                        return Err(ScheduleError::DelayInScs { sender, receiver, round });
                    }
                    if arrival <= round {
                        return Err(ScheduleError::DelayNotFuture { round, arrival });
                    }
                    let allowed = round < self.sync_from || sender_crashes_now;
                    if !allowed {
                        return Err(ScheduleError::DelayAfterSync { sender, receiver, round });
                    }
                }
            }
        }
        if self.kind == ModelKind::Es {
            self.check_t_resilience(horizon)?;
        }
        Ok(())
    }

    fn check_t_resilience(&self, horizon: u32) -> Result<(), ScheduleError> {
        let quorum = self.config.quorum();
        for k in 1..=horizon {
            let round = Round::new(k);
            for receiver in self.config.processes() {
                if !self.completes(receiver, round) {
                    continue;
                }
                let delivered = self
                    .config
                    .processes()
                    .filter(|&s| {
                        self.alive_entering(s, round)
                            && self.fate(round, s, receiver) == MessageFate::Deliver
                    })
                    .count();
                if delivered < quorum {
                    return Err(ScheduleError::NotTResilient {
                        receiver,
                        round,
                        delivered,
                        quorum,
                    });
                }
            }
        }
        Ok(())
    }
}

/// Error produced when a schedule violates the model constraints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleError {
    /// More crashes scheduled than the resilience `t` allows.
    TooManyCrashes {
        /// Scheduled crashes.
        crashes: usize,
        /// Allowed maximum.
        t: usize,
    },
    /// A fate override references a round outside `1..=horizon`.
    RoundOutOfRange {
        /// The offending round number.
        round: u32,
        /// The validation horizon.
        horizon: u32,
    },
    /// A fate override references a process outside the system.
    UnknownProcess {
        /// The offending index.
        index: usize,
    },
    /// A fate override on a self-addressed message (always delivered).
    SelfEdge {
        /// The process.
        process: ProcessId,
    },
    /// A fate override for a sender that has already crashed.
    DeadSender {
        /// The crashed sender.
        sender: ProcessId,
        /// The round of the override.
        round: Round,
    },
    /// A message loss the model does not permit.
    IllegalLoss {
        /// Sender of the lost message.
        sender: ProcessId,
        /// Intended receiver.
        receiver: ProcessId,
        /// Round of the message.
        round: Round,
    },
    /// A delay scheduled in the synchronous crash-stop model.
    DelayInScs {
        /// Sender of the delayed message.
        sender: ProcessId,
        /// Intended receiver.
        receiver: ProcessId,
        /// Round of the message.
        round: Round,
    },
    /// A delay whose arrival round is not in the future.
    DelayNotFuture {
        /// Round of the message.
        round: Round,
        /// Scheduled arrival.
        arrival: Round,
    },
    /// A delay scheduled after the eventual-synchrony round `K` for a
    /// non-crashing sender.
    DelayAfterSync {
        /// Sender of the delayed message.
        sender: ProcessId,
        /// Intended receiver.
        receiver: ProcessId,
        /// Round of the message.
        round: Round,
    },
    /// A process completing a round receives fewer than `n - t` current
    /// messages.
    NotTResilient {
        /// The under-supplied receiver.
        receiver: ProcessId,
        /// The round.
        round: Round,
        /// Current-round messages delivered.
        delivered: usize,
        /// Required minimum (`n - t`).
        quorum: usize,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::TooManyCrashes { crashes, t } => {
                write!(f, "{crashes} crashes scheduled but resilience allows at most {t}")
            }
            ScheduleError::RoundOutOfRange { round, horizon } => {
                write!(f, "fate override at round {round} outside 1..={horizon}")
            }
            ScheduleError::UnknownProcess { index } => {
                write!(f, "fate override references unknown process index {index}")
            }
            ScheduleError::SelfEdge { process } => {
                write!(f, "fate override on self-addressed message of {process}")
            }
            ScheduleError::DeadSender { sender, round } => {
                write!(f, "fate override for {sender} at {round} but it crashed earlier")
            }
            ScheduleError::IllegalLoss { sender, receiver, round } => {
                write!(f, "message {sender} -> {receiver} at {round} cannot be lost in this model")
            }
            ScheduleError::DelayInScs { sender, receiver, round } => {
                write!(f, "message {sender} -> {receiver} at {round} cannot be delayed in SCS")
            }
            ScheduleError::DelayNotFuture { round, arrival } => {
                write!(f, "delay at {round} must arrive strictly later, got {arrival}")
            }
            ScheduleError::DelayAfterSync { sender, receiver, round } => {
                write!(
                    f,
                    "message {sender} -> {receiver} at {round} cannot be delayed after the synchrony round"
                )
            }
            ScheduleError::NotTResilient { receiver, round, delivered, quorum } => {
                write!(
                    f,
                    "{receiver} completing {round} receives only {delivered} current messages, needs {quorum}"
                )
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SystemConfig {
        SystemConfig::majority(5, 2).unwrap()
    }

    #[test]
    fn failure_free_is_valid_and_synchronous() {
        let s = Schedule::failure_free(cfg(), ModelKind::Es);
        assert!(s.validate(10).is_ok());
        assert!(s.is_synchronous());
        assert_eq!(s.crash_count(), 0);
        assert_eq!(s.faulty(), ProcessSet::empty());
    }

    #[test]
    fn fate_defaults_to_deliver_and_self_always_delivers() {
        let s = Schedule::failure_free(cfg(), ModelKind::Es);
        let p0 = ProcessId::new(0);
        let p1 = ProcessId::new(1);
        assert_eq!(s.fate(Round::FIRST, p0, p1), MessageFate::Deliver);
        assert_eq!(s.fate(Round::FIRST, p0, p0), MessageFate::Deliver);
    }

    #[test]
    fn too_many_crashes_rejected() {
        let s = Schedule::from_parts(
            cfg(),
            ModelKind::Es,
            vec![Some(Round::FIRST), Some(Round::FIRST), Some(Round::FIRST), None, None],
            BTreeMap::new(),
            Round::FIRST,
        );
        assert_eq!(s.validate(5), Err(ScheduleError::TooManyCrashes { crashes: 3, t: 2 }));
    }

    #[test]
    fn loss_outside_crash_round_rejected_in_sync_run() {
        let mut overrides = BTreeMap::new();
        overrides.insert((1, 0, 1), MessageFate::Lose);
        let s = Schedule::from_parts(cfg(), ModelKind::Es, vec![None; 5], overrides, Round::FIRST);
        assert!(matches!(s.validate(5), Err(ScheduleError::IllegalLoss { .. })));
    }

    #[test]
    fn loss_in_crash_round_accepted() {
        let mut overrides = BTreeMap::new();
        overrides.insert((2, 0, 1), MessageFate::Lose);
        let s = Schedule::from_parts(
            cfg(),
            ModelKind::Es,
            vec![Some(Round::new(2)), None, None, None, None],
            overrides,
            Round::FIRST,
        );
        assert!(s.validate(5).is_ok());
    }

    #[test]
    fn delay_rejected_in_scs() {
        let mut overrides = BTreeMap::new();
        overrides.insert((1, 0, 1), MessageFate::Delay(Round::new(3)));
        let s = Schedule::from_parts(
            cfg(),
            ModelKind::Scs,
            vec![Some(Round::FIRST), None, None, None, None],
            overrides,
            Round::FIRST,
        );
        assert!(matches!(s.validate(5), Err(ScheduleError::DelayInScs { .. })));
    }

    #[test]
    fn delay_allowed_in_async_prefix() {
        let mut overrides = BTreeMap::new();
        overrides.insert((1, 0, 1), MessageFate::Delay(Round::new(3)));
        let s = Schedule::from_parts(cfg(), ModelKind::Es, vec![None; 5], overrides, Round::new(4));
        assert!(s.validate(5).is_ok());
    }

    #[test]
    fn delay_after_sync_rejected_for_live_sender() {
        let mut overrides = BTreeMap::new();
        overrides.insert((4, 0, 1), MessageFate::Delay(Round::new(6)));
        let s = Schedule::from_parts(cfg(), ModelKind::Es, vec![None; 5], overrides, Round::new(2));
        assert!(matches!(s.validate(6), Err(ScheduleError::DelayAfterSync { .. })));
    }

    #[test]
    fn crash_round_delay_allowed_even_in_synchronous_run() {
        // Paper footnote 5: crash-round messages may be delayed arbitrarily
        // even in synchronous runs of ES.
        let mut overrides = BTreeMap::new();
        overrides.insert((2, 0, 1), MessageFate::Delay(Round::new(5)));
        let s = Schedule::from_parts(
            cfg(),
            ModelKind::Es,
            vec![Some(Round::new(2)), None, None, None, None],
            overrides,
            Round::FIRST,
        );
        assert!(s.validate(6).is_ok());
        assert!(s.is_synchronous());
    }

    #[test]
    fn delay_must_be_future() {
        let mut overrides = BTreeMap::new();
        overrides.insert((3, 0, 1), MessageFate::Delay(Round::new(3)));
        let s = Schedule::from_parts(cfg(), ModelKind::Es, vec![None; 5], overrides, Round::new(9));
        assert!(matches!(s.validate(5), Err(ScheduleError::DelayNotFuture { .. })));
    }

    #[test]
    fn t_resilience_violation_detected() {
        // n=5, t=2, quorum 3: a receiver with 3 of its 4 peers' messages
        // delayed sees only 2 current messages (incl. its own).
        let mut overrides = BTreeMap::new();
        for s in 1..=3 {
            overrides.insert((1, s, 0), MessageFate::Delay(Round::new(2)));
        }
        let s = Schedule::from_parts(cfg(), ModelKind::Es, vec![None; 5], overrides, Round::new(3));
        assert!(matches!(s.validate(3), Err(ScheduleError::NotTResilient { delivered: 2, .. })));
    }

    #[test]
    fn t_resilience_boundary_accepted() {
        // Delaying exactly 2 (= t) messages keeps the quorum intact.
        let mut overrides = BTreeMap::new();
        for s in 1..=2 {
            overrides.insert((1, s, 0), MessageFate::Delay(Round::new(2)));
        }
        let s = Schedule::from_parts(cfg(), ModelKind::Es, vec![None; 5], overrides, Round::new(3));
        assert!(s.validate(3).is_ok());
    }

    #[test]
    fn crashing_receiver_exempt_from_t_resilience() {
        // p0 crashes in round 1, so it need not receive a quorum there.
        let mut overrides = BTreeMap::new();
        for s in 1..=3 {
            overrides.insert((1, s, 0), MessageFate::Delay(Round::new(2)));
        }
        let s = Schedule::from_parts(
            cfg(),
            ModelKind::Es,
            vec![Some(Round::FIRST), None, None, None, None],
            overrides,
            Round::new(3),
        );
        // The overrides now target a receiver that crashes in round 1; the
        // senders are alive, so the schedule is valid.
        assert!(s.validate(3).is_ok());
    }

    #[test]
    fn alive_and_completes() {
        let s = Schedule::from_parts(
            cfg(),
            ModelKind::Es,
            vec![Some(Round::new(2)), None, None, None, None],
            BTreeMap::new(),
            Round::FIRST,
        );
        let p0 = ProcessId::new(0);
        assert!(s.alive_entering(p0, Round::FIRST));
        assert!(s.alive_entering(p0, Round::new(2)));
        assert!(!s.alive_entering(p0, Round::new(3)));
        assert!(s.completes(p0, Round::FIRST));
        assert!(!s.completes(p0, Round::new(2)));
    }

    #[test]
    fn dead_sender_override_rejected() {
        let mut overrides = BTreeMap::new();
        overrides.insert((3, 0, 1), MessageFate::Lose);
        let s = Schedule::from_parts(
            cfg(),
            ModelKind::Es,
            vec![Some(Round::FIRST), None, None, None, None],
            overrides,
            Round::FIRST,
        );
        assert!(matches!(s.validate(5), Err(ScheduleError::DeadSender { .. })));
    }

    #[test]
    fn self_edge_override_rejected() {
        let mut overrides = BTreeMap::new();
        overrides.insert((1, 0, 0), MessageFate::Lose);
        let s = Schedule::from_parts(cfg(), ModelKind::Es, vec![None; 5], overrides, Round::FIRST);
        assert!(matches!(s.validate(5), Err(ScheduleError::SelfEdge { .. })));
    }

    #[test]
    fn round_cleanliness_tracks_crashes_and_overrides() {
        let mut overrides = BTreeMap::new();
        overrides.insert((2, 0, 1), MessageFate::Lose);
        let s = Schedule::from_parts(
            cfg(),
            ModelKind::Es,
            vec![Some(Round::new(2)), None, None, Some(Round::new(4)), None],
            overrides,
            Round::FIRST,
        );
        assert!(s.round_is_clean(Round::FIRST));
        assert!(!s.round_is_clean(Round::new(2))); // crash + override
        assert!(s.round_is_clean(Round::new(3)));
        assert!(!s.round_is_clean(Round::new(4))); // crash only
        assert!(s.round_is_clean(Round::new(5)));
        // A pure-override round (no crash) is dirty too.
        let mut overrides = BTreeMap::new();
        overrides.insert((3, 1, 2), MessageFate::Delay(Round::new(5)));
        let s = Schedule::from_parts(cfg(), ModelKind::Es, vec![None; 5], overrides, Round::new(4));
        assert!(!s.round_is_clean(Round::new(3)));
        assert!(s.round_is_clean(Round::new(2)));
    }

    #[test]
    fn error_display_nonempty() {
        let err = ScheduleError::TooManyCrashes { crashes: 3, t: 2 };
        assert!(!err.to_string().is_empty());
    }
}
