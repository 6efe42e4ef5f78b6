//! Leader leases: the time-based quorum promise that lets the engine
//! answer `Get`s without sequencing them through the log.
//!
//! # The protocol
//!
//! The leader (the engine's driver thread) holds a **lease** — a promise
//! from a quorum of replicas that, until a per-grant expiry, they will
//! not grant a *newer* lease to anyone else. While a quorum of grants is
//! unexpired (with a safety [`LeaseConfig::margin`] against clock skew),
//! no other leader incarnation can commit a write the holder has not
//! applied, so the holder's applied store *is* the linearizable state:
//! a `Get` can be answered locally at a **read index** equal to the
//! applied frontier, without occupying a slot — see
//! [`Outcome::Read`](crate::proto::Outcome::Read) for the linearization
//! rule.
//!
//! The fallback ladder when the lease is suspect, expiring, or
//! mid-epoch:
//!
//! 1. **lease read** — lease healthy: answer from the applied store;
//! 2. **quorum read** — lease unhealthy: probe the replicas
//!    ([`LeaseFrame::Attest`]); a quorum of [`LeaseFrame::Vouch`]es that
//!    the lease epoch is still their newest promise re-certifies
//!    freshness for this one read;
//! 3. **sequenced read** — no quorum vouches: the read falls back into
//!    the log and occupies a slot, exactly the pre-lease behavior (and
//!    the `--reads log` escape hatch pins every read here).
//!
//! # Epochs and crash recovery
//!
//! Every lease carries an epoch, monotonic per service data
//! directory *across restarts*: booting the engine loads the stored
//! epoch, **burns `epoch + 1` to disk before serving anything**
//! ([`store_epoch`] goes through the same atomic write-fsync-rename as
//! the snapshot, in [`crate::wal`]), and only then acquires a lease
//! under the new epoch. A
//! `kill -9`'d leader therefore can never resume serving fast reads
//! under its old epoch: its next incarnation's first act is to
//! invalidate it. Replicas track the newest epoch they have promised
//! ([`ReplicaLeaseAgent`]) and deny anything older.
//!
//! Fast-read responses are cached for retry idempotence but are *not*
//! WAL-durable: reads mutate nothing, so a client retrying a read across
//! a server crash re-executes it at a read index at least as new as the
//! original — still linearizable, just possibly a fresher value.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::wal::{load_checked, store_checked, EPOCH_FILE};

/// The leader-lease protocol messages, passed as values between the
/// holder and the replica agents (they never cross a socket).
///
/// `Acquire`/`Grant`/`Deny` establish and renew the lease; `Attest`/
/// `Vouch` are the quorum-read fallback's freshness probe (a replica
/// vouches that the named `(holder, epoch)` lease is still the newest
/// promise it has made).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeaseFrame {
    /// The would-be leader asks a replica to grant (or renew) its lease.
    Acquire {
        /// The requesting leader incarnation.
        holder: u64,
        /// The lease epoch being acquired.
        epoch: u64,
        /// Lease duration in microseconds, measured from the grant.
        ttl_micros: u64,
    },
    /// The replica granted the lease for the frame's TTL.
    Grant {
        /// The granting replica.
        replica: u32,
        /// The epoch granted (echoed).
        epoch: u64,
    },
    /// The replica refused: it already promised a newer lease.
    Deny {
        /// The refusing replica.
        replica: u32,
        /// The newest epoch the replica has promised.
        promised: u64,
    },
    /// Quorum-read probe: is `(holder, epoch)` still your newest promise?
    Attest {
        /// The probing leader incarnation.
        holder: u64,
        /// The epoch being attested.
        epoch: u64,
    },
    /// Reply to [`LeaseFrame::Attest`].
    Vouch {
        /// The vouching replica.
        replica: u32,
        /// The epoch attested (echoed).
        epoch: u64,
        /// Whether the lease is still the replica's newest promise.
        valid: bool,
    },
}

/// How the engine answers `Get`s (the `--reads` flag).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReadPath {
    /// Every read is sequenced through the log (the pre-lease behavior;
    /// `--reads log`).
    #[default]
    Sequenced,
    /// Reads are answered from the applied store while the lease is
    /// healthy, falling down the ladder otherwise (`--reads lease`).
    Lease,
}

impl ReadPath {
    /// The `LeaseStatus::mode` wire encoding.
    #[must_use]
    pub fn as_wire(self) -> u8 {
        match self {
            ReadPath::Sequenced => 0,
            ReadPath::Lease => 2,
        }
    }

    /// The read path whose [`as_wire`](ReadPath::as_wire) is `mode`, if
    /// any: the inverse the `LeaseStatus` decoder and display use. Byte
    /// 1 is unassigned, so it is refused like any unknown byte and
    /// `Lease` keeps byte 2 on the wire.
    pub(crate) fn from_wire(mode: u8) -> Option<Self> {
        [ReadPath::Sequenced, ReadPath::Lease].into_iter().find(|path| path.as_wire() == mode)
    }
}

/// Lease timing knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaseConfig {
    /// How long one grant lasts, measured at the *holder* from send
    /// time (conservative: the replica measures from receipt).
    pub ttl: Duration,
    /// How often the holder renews (well inside `ttl` so transient
    /// scheduling hiccups don't drop the lease).
    pub renew_every: Duration,
    /// Safety margin: a grant within `margin` of expiry no longer
    /// counts toward read health, absorbing clock-rate skew.
    pub margin: Duration,
}

impl Default for LeaseConfig {
    fn default() -> Self {
        let ttl = Duration::from_secs(2);
        LeaseConfig { ttl, renew_every: ttl / 4, margin: ttl / 8 }
    }
}

impl LeaseConfig {
    /// Overrides the grant TTL, rescaling the renew cadence and margin
    /// to the default ttl/4 and ttl/8 proportions.
    #[must_use]
    pub fn with_ttl(mut self, ttl: Duration) -> Self {
        self.ttl = ttl;
        self.renew_every = ttl / 4;
        self.margin = ttl / 8;
        self
    }

    /// Overrides the renew cadence (tests use a long cadence to force
    /// the lease to lapse and exercise the fallback ladder).
    #[must_use]
    pub fn with_renew_every(mut self, renew_every: Duration) -> Self {
        self.renew_every = renew_every;
        self
    }
}

indulgent_obs::metric_family! {
    /// The `lease_agent` metric family: how this process's replica lease
    /// agents answered, summed across all shards and agents. The
    /// grant/deny and valid/invalid-vouch ratios are the protocol-level
    /// view of lease health — a deny or an invalid vouch is a replica
    /// refusing to underwrite a stale leader.
    struct LeaseMetrics = "lease_agent" {
        grants,
        denials,
        vouches_valid,
        vouches_invalid,
    }
    fn lease_metrics();
}

/// A replica's half of the lease protocol: the newest promise it has
/// made, and the refusal of anything older.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaLeaseAgent {
    replica: u32,
    /// The newest epoch this replica has promised (0 = never granted).
    promised: u64,
    /// The incarnation holding the promised epoch.
    holder: u64,
    /// When the current grant lapses.
    expires_at: Option<Instant>,
}

impl ReplicaLeaseAgent {
    /// A fresh agent that has never granted a lease.
    #[must_use]
    pub fn new(replica: u32) -> Self {
        ReplicaLeaseAgent { replica, promised: 0, holder: 0, expires_at: None }
    }

    /// The newest epoch this replica has promised.
    #[must_use]
    pub fn promised(&self) -> u64 {
        self.promised
    }

    /// Handles one holder-to-replica lease frame, returning the reply.
    /// Reply frames (`Grant`/`Deny`/`Vouch`) addressed *to* an agent are
    /// a protocol error, refused with `None`.
    pub fn handle(&mut self, frame: &LeaseFrame, now: Instant) -> Option<LeaseFrame> {
        match *frame {
            LeaseFrame::Acquire { holder, epoch, ttl_micros } => {
                // Grant a newer epoch, or renew the exact lease already
                // held; anything older is refused with the promise that
                // outbid it.
                if epoch > self.promised || (epoch == self.promised && holder == self.holder) {
                    self.promised = epoch;
                    self.holder = holder;
                    self.expires_at = Some(now + Duration::from_micros(ttl_micros));
                    lease_metrics().grants.incr();
                    Some(LeaseFrame::Grant { replica: self.replica, epoch })
                } else {
                    lease_metrics().denials.incr();
                    Some(LeaseFrame::Deny { replica: self.replica, promised: self.promised })
                }
            }
            LeaseFrame::Attest { holder, epoch } => {
                let valid = self.promised == epoch && self.holder == holder;
                let m = lease_metrics();
                if valid {
                    m.vouches_valid.incr();
                } else {
                    m.vouches_invalid.incr();
                }
                Some(LeaseFrame::Vouch { replica: self.replica, epoch, valid })
            }
            LeaseFrame::Grant { .. } | LeaseFrame::Deny { .. } | LeaseFrame::Vouch { .. } => None,
        }
    }
}

/// The holder's half: outstanding grants and the health rule.
#[derive(Debug)]
pub struct LeaderLease {
    epoch: u64,
    holder: u64,
    config: LeaseConfig,
    /// Per-replica grant expiry (measured from *our* send time, the
    /// conservative end).
    grants: Vec<Option<Instant>>,
    quorum: usize,
    last_acquire: Option<Instant>,
}

impl LeaderLease {
    /// A new holder incarnation serving `epoch` over `n` replicas.
    #[must_use]
    pub fn new(epoch: u64, holder: u64, n: usize, quorum: usize, config: LeaseConfig) -> Self {
        LeaderLease { epoch, holder, config, grants: vec![None; n], quorum, last_acquire: None }
    }

    /// The epoch this incarnation serves under.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The holder incarnation id.
    #[must_use]
    pub fn holder(&self) -> u64 {
        self.holder
    }

    /// The [`LeaseFrame::Acquire`] every replica is sent, recording `now`
    /// as the conservative grant base for every reply that comes back.
    pub fn acquire(&mut self, now: Instant) -> LeaseFrame {
        self.last_acquire = Some(now);
        LeaseFrame::Acquire {
            holder: self.holder,
            epoch: self.epoch,
            ttl_micros: u64::try_from(self.config.ttl.as_micros()).unwrap_or(u64::MAX),
        }
    }

    /// Absorbs one replica reply to the latest acquire round.
    pub fn absorb(&mut self, frame: &LeaseFrame) {
        match *frame {
            LeaseFrame::Grant { replica, epoch } if epoch == self.epoch => {
                let Some(sent) = self.last_acquire else { return };
                if let Some(g) = self.grants.get_mut(replica as usize) {
                    *g = Some(sent + self.config.ttl);
                }
            }
            LeaseFrame::Deny { replica, .. } => {
                if let Some(g) = self.grants.get_mut(replica as usize) {
                    *g = None;
                }
            }
            _ => {}
        }
    }

    /// Grants that are still comfortably inside their TTL (the margin
    /// absorbs clock-rate skew).
    #[must_use]
    pub fn healthy_grants(&self, now: Instant) -> usize {
        self.grants
            .iter()
            .flatten()
            .filter(|&&expiry| {
                expiry.checked_duration_since(now).is_some_and(|left| left > self.config.margin)
            })
            .count()
    }

    /// Grants held, healthy or not.
    #[must_use]
    pub fn grant_count(&self) -> usize {
        self.grants.iter().flatten().count()
    }

    /// Whether a fast read is allowed right now: a quorum of healthy
    /// grants.
    #[must_use]
    pub fn read_allowed(&self, now: Instant) -> bool {
        self.healthy_grants(now) >= self.quorum
    }

    /// Whether a renewal round is due.
    #[must_use]
    pub fn renew_due(&self, now: Instant) -> bool {
        match self.last_acquire {
            Some(at) => now.duration_since(at) >= self.config.renew_every,
            None => true,
        }
    }

    /// The [`LeaseFrame::Attest`] every replica is sent — the quorum-read
    /// freshness probe.
    #[must_use]
    pub fn attest(&self) -> LeaseFrame {
        LeaseFrame::Attest { holder: self.holder, epoch: self.epoch }
    }
}

/// Loads the stored lease epoch from `dir` (`0` if none was ever
/// burned; a corrupt file is an error, not a silent reset — resetting
/// would let a stale incarnation reuse a granted epoch).
pub fn load_epoch(dir: &Path) -> io::Result<u64> {
    Ok(load_checked(&dir.join(EPOCH_FILE))?.unwrap_or(0))
}

/// Durably burns `epoch` into `dir` (atomic temp-write + fsync + rename,
/// the snapshot idiom). Must complete before the incarnation serves
/// anything under `epoch`.
pub fn store_epoch(dir: &Path, epoch: u64) -> io::Result<()> {
    store_checked(&dir.join(EPOCH_FILE), &epoch)
}

/// A process-unique holder incarnation id (pid in the high bits, a
/// per-process counter in the low), so two incarnations never collide
/// even within one test process.
#[must_use]
pub fn fresh_holder() -> u64 {
    static COUNTER: AtomicU64 = AtomicU64::new(1);
    (u64::from(std::process::id()) << 32) | COUNTER.fetch_add(1, Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lease(epoch: u64, holder: u64, config: LeaseConfig) -> LeaderLease {
        LeaderLease::new(epoch, holder, 5, 3, config)
    }

    fn acquire_all(
        lease: &mut LeaderLease,
        agents: &mut [ReplicaLeaseAgent],
        now: Instant,
    ) -> usize {
        let frame = lease.acquire(now);
        let mut granted = 0;
        for agent in agents {
            let reply = agent.handle(&frame, now).unwrap();
            if matches!(reply, LeaseFrame::Grant { .. }) {
                granted += 1;
            }
            lease.absorb(&reply);
        }
        granted
    }

    #[test]
    fn quorum_grant_enables_reads_until_expiry() {
        let config = LeaseConfig::default().with_ttl(Duration::from_millis(80));
        let mut agents: Vec<_> = (0..5).map(ReplicaLeaseAgent::new).collect();
        let mut lease = lease(1, 10, config);
        let t0 = Instant::now();
        assert!(!lease.read_allowed(t0), "no grants yet");
        assert_eq!(acquire_all(&mut lease, &mut agents, t0), 5);
        assert!(lease.read_allowed(t0));
        assert_eq!(lease.grant_count(), 5);
        // Past the margin boundary the grants stop counting.
        let late = t0 + config.ttl - config.margin;
        assert!(!lease.read_allowed(late));
    }

    #[test]
    fn newer_epoch_outbids_and_old_holder_is_denied() {
        let config = LeaseConfig::default();
        let mut agents: Vec<_> = (0..5).map(ReplicaLeaseAgent::new).collect();
        let t0 = Instant::now();
        let mut old = lease(1, 10, config);
        assert_eq!(acquire_all(&mut old, &mut agents, t0), 5);
        // A new incarnation with a burned epoch 2 takes over.
        let mut new = lease(2, 11, config);
        assert_eq!(acquire_all(&mut new, &mut agents, t0), 5);
        // The old holder's renewals are denied and clear its grants.
        assert_eq!(acquire_all(&mut old, &mut agents, t0), 0);
        assert_eq!(old.grant_count(), 0);
        assert!(!old.read_allowed(t0));
        assert!(new.read_allowed(t0));
    }

    #[test]
    fn same_epoch_renewal_extends_only_for_the_holder() {
        let mut agent = ReplicaLeaseAgent::new(0);
        let t0 = Instant::now();
        let grant = agent
            .handle(&LeaseFrame::Acquire { holder: 10, epoch: 1, ttl_micros: 50_000 }, t0)
            .unwrap();
        assert!(matches!(grant, LeaseFrame::Grant { .. }));
        // Same epoch, same holder: renewal granted.
        let renew = agent
            .handle(&LeaseFrame::Acquire { holder: 10, epoch: 1, ttl_micros: 50_000 }, t0)
            .unwrap();
        assert!(matches!(renew, LeaseFrame::Grant { .. }));
        // Same epoch, different holder: denied.
        let steal = agent
            .handle(&LeaseFrame::Acquire { holder: 11, epoch: 1, ttl_micros: 50_000 }, t0)
            .unwrap();
        assert!(matches!(steal, LeaseFrame::Deny { promised: 1, .. }));
    }

    #[test]
    fn attest_vouches_only_for_the_current_promise() {
        let mut agent = ReplicaLeaseAgent::new(3);
        let t0 = Instant::now();
        agent.handle(&LeaseFrame::Acquire { holder: 10, epoch: 2, ttl_micros: 1_000 }, t0).unwrap();
        let vouch = |agent: &mut ReplicaLeaseAgent, holder, epoch| match agent
            .handle(&LeaseFrame::Attest { holder, epoch }, t0)
            .unwrap()
        {
            LeaseFrame::Vouch { valid, .. } => valid,
            f => panic!("expected vouch, got {f:?}"),
        };
        assert!(vouch(&mut agent, 10, 2));
        assert!(!vouch(&mut agent, 10, 1), "stale epoch must not be vouched");
        assert!(!vouch(&mut agent, 11, 2), "wrong holder must not be vouched");
    }

    #[test]
    fn reply_frames_to_an_agent_are_rejected() {
        let mut agent = ReplicaLeaseAgent::new(0);
        let t0 = Instant::now();
        for frame in [
            LeaseFrame::Grant { replica: 1, epoch: 1 },
            LeaseFrame::Deny { replica: 1, promised: 1 },
            LeaseFrame::Vouch { replica: 1, epoch: 1, valid: true },
        ] {
            assert!(agent.handle(&frame, t0).is_none());
        }
    }

    #[test]
    fn renewal_cadence() {
        let config = LeaseConfig::default()
            .with_ttl(Duration::from_millis(100))
            .with_renew_every(Duration::from_millis(25));
        let mut l = lease(1, 10, config);
        let t0 = Instant::now();
        assert!(l.renew_due(t0), "never acquired: due immediately");
        let _ = l.acquire(t0);
        assert!(!l.renew_due(t0 + Duration::from_millis(10)));
        assert!(l.renew_due(t0 + Duration::from_millis(25)));
    }

    #[test]
    fn epoch_file_round_trips_and_rejects_corruption() {
        let dir = std::env::temp_dir().join(format!("indulgent-lease-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(load_epoch(&dir).unwrap(), 0, "missing file reads as epoch 0");
        store_epoch(&dir, 7).unwrap();
        assert_eq!(load_epoch(&dir).unwrap(), 7);
        store_epoch(&dir, 8).unwrap();
        assert_eq!(load_epoch(&dir).unwrap(), 8);
        // Corruption is an error, not a silent reset to 0.
        std::fs::write(dir.join(EPOCH_FILE), [0xffu8; 12]).unwrap();
        assert!(load_epoch(&dir).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fresh_holders_are_unique() {
        assert_ne!(fresh_holder(), fresh_holder());
    }
}
