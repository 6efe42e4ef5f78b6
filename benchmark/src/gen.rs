//! The load generator: a seeded op stream, one pipelined TCP connection
//! driven by a paced sender thread and a blocking receiver thread, the
//! client-side correctness gate, and the per-window statistics.
//!
//! It does not use `PipeClient`: that client polls acks through a 1 ms
//! `SO_RCVTIMEO`, which the kernel rounds up to a jiffy (4 ms at
//! `HZ=250`), so its latencies are its own poll interval. Here the
//! sender sleeps to each request's due time (`thread::sleep` is
//! hrtimer-backed) and the receiver blocks in `read` with no timeout.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use indulgent_model::{ClientId, RequestId};
use indulgent_server::wire::encode_frame;
use indulgent_server::{FrameDecoder, KvOp, Outcome, Request, Response};

use crate::spec::{ACK_DEADLINE, KEYS};
use crate::stats::{percentile, process_cpu, splitmix64, thread_cpu, Cpu};

/// The session every generated request belongs to.
pub const CLIENT: ClientId = ClientId(1);

/// The op stream: a pure function of `(seed, request index)`. The first
/// [`KEYS`] requests write every key once (the preload); after that the
/// key is uniform over the keyspace and the value comes from the hash.
/// The wire has no variable-size payload, so request size is not a
/// dimension.
#[derive(Debug, Clone, Copy)]
pub struct OpStream {
    pub seed: u64,
    /// Percent of post-preload requests that are `Get`s.
    pub read_pct: u64,
}

impl OpStream {
    #[must_use]
    pub fn op(&self, index: u64) -> KvOp {
        let h = splitmix64(self.seed ^ splitmix64(index));
        let value = (h >> 32) as u32;
        if index < KEYS {
            return KvOp::Put { key: index as u16, value };
        }
        let key = (h % KEYS) as u16;
        if (h >> 16) % 100 < self.read_pct {
            KvOp::Get { key }
        } else {
            KvOp::Put { key, value }
        }
    }

    #[must_use]
    pub fn request(&self, index: u64) -> Request {
        Request { client: CLIENT, request: RequestId(index), op: self.op(index) }
    }

    /// Appends request `index` as one wire frame.
    pub fn frame(&self, index: u64, out: &mut Vec<u8>) {
        encode_frame(&self.request(index).encode(), out);
    }
}

/// Time as the paced sender sees it, so a test can stall it.
pub trait Clock {
    /// Nanoseconds since the phase began.
    fn now(&self) -> u64;
    fn sleep_until(&self, ns: u64);
}

/// The wall clock, counted from a phase's start.
#[derive(Debug, Clone, Copy)]
pub struct WallClock(pub Instant);

impl Clock for WallClock {
    fn now(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).expect("a phase is shorter than 584 years")
    }

    fn sleep_until(&self, ns: u64) {
        std::thread::sleep(Duration::from_nanos(ns.saturating_sub(self.now())));
    }
}

/// When open-loop request `k` of a phase is due: `k / rate` after its
/// start, whatever happened to the requests before it.
#[must_use]
pub fn due_ns(rate: u64, k: u64) -> u64 {
    u64::try_from(u128::from(k) * 1_000_000_000 / u128::from(rate)).expect("due time fits u64")
}

/// The open-loop sender: sleeps to each due time and writes, in one
/// `write`, every request that has come due. Returns each request's
/// send stamp; `progress` tells the gate how many requests exist.
pub fn send_open<W: Write, C: Clock>(
    w: &mut W,
    clock: &C,
    ops: &OpStream,
    first: u64,
    rate: u64,
    total: u64,
    progress: &AtomicU64,
) -> std::io::Result<Vec<u64>> {
    let mut sent = Vec::with_capacity(total as usize);
    let mut buf = Vec::new();
    let mut k = 0;
    while k < total {
        let mut now = clock.now();
        if now < due_ns(rate, k) {
            clock.sleep_until(due_ns(rate, k));
            now = clock.now();
        }
        buf.clear();
        while k < total && due_ns(rate, k) <= now {
            ops.frame(first + k, &mut buf);
            sent.push(now);
            k += 1;
        }
        progress.store(k, Ordering::Release);
        w.write_all(&buf)?;
    }
    Ok(sent)
}

/// The closed-loop sender: keeps `window` requests outstanding, one
/// credit returned per ack, until `end` or until `budget` requests are
/// out. The last request is sent after `total` announces the final
/// count, so the receiver always sees an ack after the announcement.
fn send_closed(
    w: &mut TcpStream,
    epoch: Instant,
    ops: &OpStream,
    first: u64,
    (window, end, budget): (u64, Duration, u64),
    credits: &mpsc::Receiver<u64>,
    (progress, total): (&AtomicU64, &AtomicU64),
) -> std::io::Result<Vec<u64>> {
    let clock = WallClock(epoch);
    let end = u64::try_from(end.as_nanos()).unwrap_or(u64::MAX);
    let mut sent: Vec<u64> = Vec::new();
    let mut buf = Vec::new();
    let mut credit = window;
    loop {
        let now = clock.now();
        let left = budget - 1 - sent.len() as u64;
        if now >= end || left == 0 {
            break;
        }
        if credit == 0 {
            match credits.recv_timeout(Duration::from_nanos(end - now)) {
                Ok(n) => credit += n,
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
            continue;
        }
        credit += credits.try_iter().sum::<u64>();
        let n = credit.min(left);
        buf.clear();
        for _ in 0..n {
            ops.frame(first + sent.len() as u64, &mut buf);
            sent.push(now);
        }
        progress.store(sent.len() as u64, Ordering::Release);
        w.write_all(&buf)?;
        credit -= n;
    }
    progress.store(sent.len() as u64 + 1, Ordering::Release);
    total.store(sent.len() as u64 + 1, Ordering::SeqCst);
    buf.clear();
    ops.frame(first + sent.len() as u64, &mut buf);
    sent.push(clock.now());
    w.write_all(&buf)?;
    Ok(sent)
}

/// A send or ack stamp that never happened.
pub const NEVER: u64 = u64::MAX;

/// The client-side correctness gate of one connection: every ack names
/// a request that was sent and not yet acked, carries the outcome kind
/// its op calls for, and the `(shard, slot)` / read-index points a
/// connection sees never go backwards within a shard.
#[derive(Debug)]
pub struct AckGate {
    ops: OpStream,
    /// First request index of the current phase.
    first: u64,
    /// Ack stamp per request of the current phase ([`NEVER`] = unacked).
    acked_ns: Vec<u64>,
    acked: u64,
    /// Newest linearization point seen, per shard; outlives phases.
    last_point: Vec<u64>,
    /// What the gate refused (the first few), transport errors included.
    pub violations: Vec<String>,
    /// Acks in arrival order, kept for the traced run's replays.
    keep: bool,
    pub kept: Vec<Response>,
}

impl AckGate {
    #[must_use]
    pub fn new(ops: OpStream) -> Self {
        AckGate {
            ops,
            first: 0,
            acked_ns: Vec::new(),
            acked: 0,
            last_point: Vec::new(),
            violations: Vec::new(),
            keep: false,
            kept: Vec::new(),
        }
    }

    /// Whether to keep the acks that follow (kept ones are dropped).
    pub fn keep(&mut self, keep: bool) {
        self.keep = keep;
        self.kept.clear();
    }

    fn begin(&mut self, first: u64) {
        self.first = first;
        self.acked_ns.clear();
        self.acked = 0;
    }

    /// Checks one ack that arrived at `now`, when `sent` requests of the
    /// phase had been handed to the socket.
    pub fn accept(&mut self, resp: &Response, now: u64, sent: u64) {
        let Some(idx) = resp.request.0.checked_sub(self.first).filter(|&i| i < sent) else {
            return self
                .violation(format!("ack for {}, which this phase never sent", resp.request));
        };
        let idx = idx as usize;
        if idx >= self.acked_ns.len() {
            self.acked_ns.resize(idx + 1, NEVER);
        }
        if self.acked_ns[idx] != NEVER {
            return self.violation(format!("{} acked twice", resp.request));
        }
        let kind_matches = matches!(
            (self.ops.op(resp.request.0), resp.outcome),
            (KvOp::Put { .. }, Outcome::Put { .. })
                | (KvOp::Get { .. }, Outcome::Get { .. } | Outcome::Read { .. })
        );
        if !kind_matches {
            return self.violation(format!("{} answered with {:?}", resp.request, resp.outcome));
        }
        let shard = resp.shard as usize;
        if shard >= self.last_point.len() {
            self.last_point.resize(shard + 1, 0);
        }
        let point = resp.outcome.slot();
        if point < self.last_point[shard] {
            return self.violation(format!(
                "shard {shard} went backwards: point {point} after {}",
                self.last_point[shard]
            ));
        }
        self.last_point[shard] = point;
        self.acked_ns[idx] = now;
        self.acked += 1;
        if self.keep {
            self.kept.push(*resp);
        }
    }

    fn violation(&mut self, what: String) {
        if self.violations.len() < 8 {
            self.violations.push(what);
        }
    }
}

/// How a phase offers load.
#[derive(Debug, Clone, Copy)]
pub enum Pace {
    /// Request `k` is due at `k / rate`, whatever the service does.
    Open { rate: u64 },
    /// `window` requests outstanding; at most `budget` requests in all.
    Closed { window: u64, budget: u64 },
}

/// Everything one phase observed, stamps in nanoseconds since its start.
#[derive(Debug)]
pub struct PhaseRun {
    pub pace: Pace,
    /// Index of the phase's first request on its connection.
    pub first: u64,
    pub sent_ns: Vec<u64>,
    /// Ack stamp per sent request ([`NEVER`] = unacked at the deadline).
    pub acked_ns: Vec<u64>,
    /// Process CPU spent while the phase ran.
    pub cpu: Cpu,
    /// Of that, the sender and receiver threads' seconds.
    pub client_cpu_s: f64,
}

impl PhaseRun {
    /// When request `k` was due: its schedule slot in an open loop, its
    /// send stamp in a closed loop (a closed loop cannot fall behind).
    #[must_use]
    pub fn due(&self, k: usize) -> u64 {
        match self.pace {
            Pace::Open { rate } => due_ns(rate, k as u64),
            Pace::Closed { .. } => self.sent_ns[k],
        }
    }

    #[must_use]
    pub fn acked(&self) -> u64 {
        self.acked_ns.iter().filter(|&&a| a != NEVER).count() as u64
    }

    /// When the last ack arrived (0 if none did).
    #[must_use]
    pub fn last_ack(&self) -> u64 {
        self.acked_ns.iter().copied().filter(|&a| a != NEVER).max().unwrap_or(0)
    }

    #[must_use]
    pub fn unacked(&self) -> u64 {
        self.sent_ns.len() as u64 - self.acked()
    }
}

/// One window's statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct WindowStat {
    /// Requests the window offered.
    pub offered: u64,
    /// Of those, acked before the window closed.
    pub acked_inside: u64,
    /// Acks per second of window.
    pub cps: f64,
    /// `ack − due` of its requests.
    pub lat_p50_ms: f64,
    pub lat_p99_ms: f64,
    /// `send − due` of its requests.
    pub lag_p50_us: f64,
    pub lag_p99_us: f64,
    /// Process CPU over the window ÷ requests acked, generator included.
    pub cpu_us_per_op: f64,
}

/// Reduces a one-window phase of length `len`. A request unacked at the
/// deadline has no latency sample; the caller counts it as failed, and
/// here it misses `acked_inside`.
#[must_use]
pub fn window_stat(run: &PhaseRun, len: Duration) -> WindowStat {
    let len_ns = u64::try_from(len.as_nanos()).expect("window fits u64");
    let (mut lat, mut lag) = (Vec::new(), Vec::new());
    let mut acked_inside = 0;
    for k in 0..run.sent_ns.len() {
        let (due, acked) = (run.due(k), run.acked_ns[k]);
        lag.push(run.sent_ns[k].saturating_sub(due) as f64 / 1e3);
        if acked != NEVER {
            lat.push(acked.saturating_sub(due) as f64 / 1e6);
            acked_inside += u64::from(acked <= len_ns);
        }
    }
    WindowStat {
        offered: run.sent_ns.len() as u64,
        acked_inside,
        cps: acked_inside as f64 / len.as_secs_f64(),
        lat_p50_ms: percentile(&mut lat, 0.50),
        lat_p99_ms: percentile(&mut lat, 0.99),
        lag_p50_us: percentile(&mut lag, 0.50),
        lag_p99_us: percentile(&mut lag, 0.99),
        cpu_us_per_op: run.cpu.busy * 1e6 / lat.len().max(1) as f64,
    }
}

/// One pipelined connection and its gate.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    pub ops: OpStream,
    /// Index of the next request this connection sends.
    pub next: u64,
    pub gate: AckGate,
    /// Requests sent and acked over the connection's life.
    pub attempted: u64,
    pub acked: u64,
}

impl Conn {
    pub fn connect(addr: SocketAddr, ops: OpStream) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| format!("set_nodelay: {e}"))?;
        Ok(Conn { stream, ops, next: 0, gate: AckGate::new(ops), attempted: 0, acked: 0 })
    }

    /// Runs one phase for `duration` (a closed loop may end sooner, on
    /// its budget) and returns its stamps. Two named threads, joined
    /// before this returns; a request unacked [`ACK_DEADLINE`] after the
    /// phase should have ended stays [`NEVER`].
    pub fn run_phase(&mut self, pace: Pace, duration: Duration) -> Result<PhaseRun, String> {
        let first = self.next;
        let ops = self.ops;
        // Open loop: the count is fixed by the schedule. Closed loop:
        // the sender announces it when it stops.
        let total = AtomicU64::new(match pace {
            Pace::Open { rate } => (u128::from(rate) * duration.as_nanos() / 1_000_000_000) as u64,
            Pace::Closed { .. } => u64::MAX,
        });
        let progress = AtomicU64::new(0);
        let (credit_tx, credit_rx) = mpsc::channel::<u64>();
        let (done_tx, done_rx) = mpsc::channel::<()>();
        self.gate.begin(first);
        let gate = &mut self.gate;
        let mut wr = self.stream.try_clone().map_err(|e| format!("clone socket: {e}"))?;
        let mut rd = self.stream.try_clone().map_err(|e| format!("clone socket: {e}"))?;
        let watchdog = &self.stream;
        let (progress, total) = (&progress, &total);
        let cpu0 = process_cpu();
        let epoch = Instant::now();

        let ((sent, sender_cpu), receiver_cpu) = std::thread::scope(|scope| {
            let sender = std::thread::Builder::new()
                .name("bench-sender".into())
                .spawn_scoped(scope, move || {
                    let sent = match pace {
                        Pace::Open { rate } => send_open(
                            &mut wr,
                            &WallClock(epoch),
                            &ops,
                            first,
                            rate,
                            total.load(Ordering::SeqCst),
                            progress,
                        ),
                        Pace::Closed { window, budget } => send_closed(
                            &mut wr,
                            epoch,
                            &ops,
                            first,
                            (window, duration, budget),
                            &credit_rx,
                            (progress, total),
                        ),
                    };
                    (sent, thread_cpu())
                })
                .expect("spawn sender thread");
            let receiver = std::thread::Builder::new()
                .name("bench-receiver".into())
                .spawn_scoped(scope, move || {
                    receive(&mut rd, epoch, gate, (progress, total), &credit_tx);
                    let _ = done_tx.send(());
                    thread_cpu()
                })
                .expect("spawn receiver thread");
            // The receiver blocks without a timeout; if acks stop
            // coming, closing the socket is what wakes it.
            if done_rx.recv_timeout(duration + ACK_DEADLINE).is_err() {
                let _ = watchdog.shutdown(Shutdown::Both);
            }
            (
                sender.join().expect("sender thread panicked"),
                receiver.join().expect("receiver thread panicked"),
            )
        });
        let cpu = process_cpu() - cpu0;
        let sent_ns = sent.map_err(|e| format!("send failed: {e}"))?;
        let mut acked_ns = std::mem::take(&mut self.gate.acked_ns);
        acked_ns.resize(sent_ns.len(), NEVER);
        self.next += sent_ns.len() as u64;
        self.attempted += sent_ns.len() as u64;
        self.acked += self.gate.acked;
        Ok(PhaseRun {
            pace,
            first,
            sent_ns,
            acked_ns,
            cpu,
            client_cpu_s: sender_cpu + receiver_cpu,
        })
    }

    /// One request, one ack: the recovery probe.
    pub fn call(&mut self) -> Result<(), String> {
        let run = self.run_phase(Pace::Closed { window: 1, budget: 1 }, ACK_DEADLINE)?;
        if run.unacked() == 0 {
            Ok(())
        } else {
            Err("no ack for the probe request".into())
        }
    }
}

/// The blocking receiver: reads until every announced request is acked
/// or the connection ends (whatever is then outstanding stays unacked).
/// A frame that does not decode is a gate violation.
fn receive(
    rd: &mut TcpStream,
    epoch: Instant,
    gate: &mut AckGate,
    (progress, total): (&AtomicU64, &AtomicU64),
    credits: &mpsc::Sender<u64>,
) {
    let clock = WallClock(epoch);
    let mut decoder = FrameDecoder::new();
    let mut chunk = vec![0u8; 64 * 1024];
    while gate.acked < total.load(Ordering::SeqCst) {
        let n = match rd.read(&mut chunk) {
            Ok(0) | Err(_) => return,
            Ok(n) => n,
        };
        let now = clock.now();
        let sent = progress.load(Ordering::Acquire);
        decoder.feed(&chunk[..n]);
        let before = gate.acked;
        loop {
            match decoder.next_frame().map(|f| f.map(|f| Response::decode(&f))) {
                Ok(None) => break,
                Ok(Some(Ok(resp))) => gate.accept(&resp, now, sent),
                Ok(Some(Err(e))) => return gate.violation(format!("undecodable ack: {e}")),
                Err(e) => return gate.violation(format!("bad frame: {e}")),
            }
        }
        // The sender may already be gone (open loop, or past its end).
        let _ = credits.send(gate.acked - before);
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use super::*;

    const OPS: OpStream = OpStream { seed: 7, read_pct: 50 };

    fn stream_bytes(ops: &OpStream, n: u64) -> Vec<u8> {
        let mut out = Vec::new();
        (0..n).for_each(|k| ops.frame(k, &mut out));
        out
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let n = KEYS + 2000;
        assert_eq!(stream_bytes(&OPS, n), stream_bytes(&OPS, n));
        assert_ne!(stream_bytes(&OPS, n), stream_bytes(&OpStream { seed: 8, ..OPS }, n));
    }

    #[test]
    fn preload_writes_every_key_then_the_mix_holds() {
        for k in 0..KEYS {
            assert!(matches!(OPS.op(k), KvOp::Put { key, .. } if u64::from(key) == k));
        }
        let gets = (KEYS..KEYS + 10_000).filter(|&k| matches!(OPS.op(k), KvOp::Get { .. })).count();
        assert!((4_700..=5_300).contains(&gets), "{gets} gets of 10 000 at 50 %");
        assert!((KEYS..KEYS + 10_000).all(|k| u64::from(OPS.op(k).key()) < KEYS));
    }

    /// A clock that overshoots one chosen sleep by `stall` nanoseconds.
    struct StallingClock {
        now: Cell<u64>,
        stall_at: u64,
        stall: u64,
    }

    impl Clock for StallingClock {
        fn now(&self) -> u64 {
            self.now.get()
        }

        fn sleep_until(&self, ns: u64) {
            self.now.set(if ns == self.stall_at { ns + self.stall } else { ns });
        }
    }

    #[test]
    fn a_generator_stall_is_charged_to_the_requests_it_delays() {
        // 1 000 requests/s: one per millisecond. The sender oversleeps
        // request 3 by 5 ms, so requests 3..=8 all leave at 8 ms.
        let clock = StallingClock { now: Cell::new(0), stall_at: 3_000_000, stall: 5_000_000 };
        let mut sink = Vec::new();
        let sent_ns = send_open(&mut sink, &clock, &OPS, 0, 1000, 10, &AtomicU64::new(0)).unwrap();
        assert_eq!(sink, stream_bytes(&OPS, 10), "every request goes out once, in order");
        assert_eq!(&sent_ns[2..6], &[2_000_000, 8_000_000, 8_000_000, 8_000_000]);

        // The service answers each request 100 µs after it was sent.
        let acked_ns = sent_ns.iter().map(|s| s + 100_000).collect();
        let run = PhaseRun {
            pace: Pace::Open { rate: 1000 },
            first: 0,
            sent_ns,
            acked_ns,
            cpu: Cpu::default(),
            client_cpu_s: 0.0,
        };
        let w = window_stat(&run, Duration::from_millis(20));
        assert_eq!(w.offered, 10);
        assert_eq!(w.acked_inside, 10);
        // Latency runs from the due time: request 3 was due at 3 ms and
        // acked at 8.1 ms. Measured from the send it would read 0.1 ms.
        assert!((w.lat_p99_ms - 5.1).abs() < 1e-9, "p99 {}", w.lat_p99_ms);
        assert!((w.lag_p99_us - 5000.0).abs() < 1e-9, "lag p99 {}", w.lag_p99_us);
        assert!((w.lat_p50_ms - 0.1).abs() < 1e-9, "p50 {}", w.lat_p50_ms);
    }

    #[test]
    fn a_window_counts_backlog_and_throughput() {
        // A 10 ms window at 1 000/s: one request is acked after the
        // window closed, one never.
        let sent_ns: Vec<u64> = (0..10).map(|k| due_ns(1000, k)).collect();
        let mut acked_ns: Vec<u64> = sent_ns.iter().map(|s| s + 500_000).collect();
        acked_ns[9] = 12_000_000;
        acked_ns[5] = NEVER;
        let run = PhaseRun {
            pace: Pace::Open { rate: 1000 },
            first: 0,
            sent_ns,
            acked_ns,
            cpu: Cpu::default(),
            client_cpu_s: 0.0,
        };
        assert_eq!((run.acked(), run.unacked(), run.last_ack()), (9, 1, 12_000_000));
        let w = window_stat(&run, Duration::from_millis(10));
        assert_eq!((w.offered, w.acked_inside), (10, 8));
        assert!((w.cps - 800.0).abs() < 1e-6);
    }

    fn ack(request: u64, shard: u32, outcome: Outcome) -> Response {
        Response { request: RequestId(request), shard, outcome }
    }

    /// The outcome the op stream's request `k` should get at `slot`.
    fn honest(k: u64, slot: u64) -> Outcome {
        match OPS.op(k) {
            KvOp::Put { .. } => Outcome::Put { slot },
            KvOp::Get { .. } => Outcome::Read { index: slot, value: None },
        }
    }

    #[test]
    fn gate_passes_an_honest_run_and_fails_each_corruption() {
        let mut gate = AckGate::new(OPS);
        gate.keep(true);
        gate.begin(KEYS);
        for k in 0..50 {
            gate.accept(&ack(KEYS + k, 0, honest(KEYS + k, 10 + k / 8)), k, 100);
        }
        assert!(gate.violations.is_empty(), "{:?}", gate.violations);
        assert_eq!((gate.acked, gate.kept.len()), (50, 50));

        // Each corrupted ack, on its own, trips the gate.
        let corrupt = [
            ("acked twice", ack(KEYS + 3, 0, honest(KEYS + 3, 99))),
            ("never sent", ack(5, 0, Outcome::Put { slot: 99 })),
            ("never sent", ack(KEYS + 100, 0, honest(KEYS + 100, 99))),
            ("went backwards", ack(KEYS + 60, 0, honest(KEYS + 60, 2))),
            (
                "answered with",
                ack(
                    KEYS + 61,
                    0,
                    match OPS.op(KEYS + 61) {
                        KvOp::Put { .. } => Outcome::Get { slot: 99, value: None },
                        KvOp::Get { .. } => Outcome::Put { slot: 99 },
                    },
                ),
            ),
        ];
        for (what, bad) in corrupt {
            let before = gate.violations.len();
            gate.accept(&bad, 1000, 100);
            assert_eq!(gate.violations.len(), before + 1, "{what}");
            assert!(gate.violations[before].contains(what), "{}", gate.violations[before]);
        }
        assert_eq!(gate.acked, 50, "a refused ack is not counted");
        // Shards keep independent slot spaces.
        gate.accept(&ack(KEYS + 62, 1, honest(KEYS + 62, 0)), 1001, 100);
        assert_eq!(gate.acked, 51);
    }
}
