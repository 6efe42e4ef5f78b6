//! Allocation-regression guard for the round engine.
//!
//! The executor's steady state is advertised as allocation-free: flat
//! ring mailboxes, pooled deliveries and the shared-broadcast fast path
//! mean that once the buffers are warm, [`RunState::step`] touches the
//! heap zero times per round. This test binary installs a counting
//! global allocator and asserts exactly that — any future change that
//! sneaks a per-round `Vec`, `BTreeMap` node or payload box back into
//! the hot loop fails here before it shows up as a throughput
//! regression in `BENCH_sweep.json`.
//!
//! The counter is thread-local, so the harness's own threads don't
//! perturb the measurement; this file deliberately contains few tests
//! (each runs on its own thread with its own tally). The wall-clock
//! runtime steps its instances on the caller's thread, so the same
//! counter sees a whole runtime instance; its case also checks that
//! every replica did step there.
//!
//! [`RunState::step`]: indulgent_sim::RunState

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use indulgent_consensus::{AtPlus2, RotatingCoordinator};
use indulgent_model::{Delivery, ProcessId, Round, RoundProcess, Step, SystemConfig, Value};
use indulgent_runtime::{InstanceSpec, Session};
use indulgent_sim::{MessageFate, ModelKind, RunState, Schedule, ScheduleBuilder};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Sends of [`OnThisThread`] automatons made on this thread.
    static SENDS_HERE: Cell<u64> = const { Cell::new(0) };
}

/// Sends of [`OnThisThread`] automatons made on any thread.
static SENDS: AtomicU64 = AtomicU64::new(0);

/// Counts this thread's heap acquisitions (alloc/realloc); frees are not
/// counted — dropping into a warm buffer is fine, acquiring is not.
struct CountingAllocator;

fn bump() {
    // `try_with` so allocations during TLS teardown stay safe.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: delegates every operation to `System` unchanged; the wrapper
// only increments a thread-local counter.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Allocations performed by `f` on this thread.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// Flooding probe that never decides — keeps the run live so steady-state
/// rounds can be measured indefinitely.
#[derive(Debug, Clone)]
struct Flood {
    est: Value,
}

impl RoundProcess for Flood {
    type Msg = Value;

    fn send(&mut self, _round: Round) -> Value {
        self.est
    }

    fn deliver(&mut self, _round: Round, delivery: &Delivery<Value>) -> Step {
        for m in delivery.current() {
            self.est = self.est.min(m.msg);
        }
        Step::Continue
    }
}

fn props(n: usize) -> Vec<Value> {
    (0..n).map(|i| Value::new(i as u64 + 1)).collect()
}

#[test]
fn steady_state_step_is_allocation_free_on_failure_free_schedule() {
    let config = SystemConfig::majority(5, 2).unwrap();
    let schedule = Schedule::failure_free(config, ModelKind::Es);
    let proposals = props(5);
    let factory = |_i: usize, v: Value| Flood { est: v };
    let mut state = RunState::new(&factory, &proposals, 5).unwrap();

    // Warm-up: the first rounds grow the pooled delivery and ring buffers
    // to their working size.
    state.run_to(&schedule, 3);

    let allocs = allocations_in(|| {
        for _ in 0..100 {
            state.step(&schedule);
        }
    });
    assert_eq!(allocs, 0, "steady-state step must not allocate on the shared-broadcast fast path");
    assert_eq!(state.rounds_executed(), 103);
}

#[test]
fn steady_state_step_is_allocation_free_after_crashes() {
    // Crash rounds take the general path (which may warm new buffers);
    // the post-crash-horizon tail of the run — the steady state of every
    // serial schedule — must be allocation-free again.
    let config = SystemConfig::majority(5, 2).unwrap();
    let schedule = ScheduleBuilder::new(config, ModelKind::Es)
        .crash_delivering_only(ProcessId::new(1), Round::new(1), [ProcessId::new(0)])
        .crash_before_send(ProcessId::new(3), Round::new(2))
        .build(200)
        .unwrap();
    let proposals = props(5);
    let factory = |_i: usize, v: Value| Flood { est: v };
    let mut state = RunState::new(&factory, &proposals, 5).unwrap();
    state.run_to(&schedule, 4);

    let allocs = allocations_in(|| {
        for _ in 0..100 {
            state.step(&schedule);
        }
    });
    assert_eq!(allocs, 0, "post-crash steady state must not allocate");
}

#[test]
fn steady_state_step_with_metrics_recording_is_allocation_free() {
    // The observability layer's promise: recording into the obs registry
    // costs zero heap on the hot path. Drive warm steps exactly as the
    // instrumented engines do — bump counters and record stage latencies
    // around every round — and require the tally to stay at zero.
    // Registration (`engine_counters`'s first call, `register_family`)
    // allocates, so it happens in the warm-up.
    use indulgent_obs::{Counter, Histogram};
    use indulgent_sim::stats::engine_counters;

    let config = SystemConfig::majority(5, 2).unwrap();
    let schedule = Schedule::failure_free(config, ModelKind::Es);
    let proposals = props(5);
    let factory = |_i: usize, v: Value| Flood { est: v };
    let mut state = RunState::new(&factory, &proposals, 5).unwrap();
    state.run_to(&schedule, 3);

    let counter = Counter::new();
    let latency = Histogram::new();
    let warm = engine_counters(); // registration allocates; do it now
    let allocs = allocations_in(|| {
        for i in 0..100u64 {
            state.step(&schedule);
            counter.add(i);
            latency.record(i * 1_000);
            let _ = warm.snapshot();
        }
        let _ = latency.snapshot();
    });
    assert_eq!(allocs, 0, "metrics recording must stay off the heap on the warm path");
    assert_eq!(counter.get(), 99 * 100 / 2);
    assert_eq!(latency.snapshot().count, 100);
}

#[test]
fn at_plus2_phase1_steps_are_allocation_free_when_warm() {
    // The dominant algorithm itself must not allocate per round either:
    // Phase 1 of A_{t+2} (flood ESTIMATE, update Halt/est) over a clean
    // round runs entirely in pooled buffers. Warm up with round 1, then
    // measure the remaining Phase 1 rounds (t = 4 stretches Phase 1 to
    // round 5).
    let config = SystemConfig::majority(9, 4).unwrap();
    let factory = move |i: usize, v: Value| {
        let id = ProcessId::new(i);
        AtPlus2::new(config, id, v, RotatingCoordinator::new(config, id))
    };
    let schedule = Schedule::failure_free(config, ModelKind::Es);
    let proposals = props(9);
    let mut state = RunState::new(&factory, &proposals, 9).unwrap();
    state.step(&schedule); // warm-up: round 1

    let allocs = allocations_in(|| {
        state.run_to(&schedule, 4); // rounds 2..=4, all Phase 1
    });
    assert_eq!(allocs, 0, "warm Phase 1 rounds of A_t+2 must not allocate");
    assert_eq!(state.rounds_executed(), 4);
}

#[test]
fn request_and_response_codecs_allocate_only_the_frame() {
    // Every command costs one request decode and one response encode on
    // the server (and the reverse on the client): encoding allocates the
    // frame once, sized up front, and decoding touches the heap not at all.
    use indulgent_model::{ClientId, RequestId};
    use indulgent_server::{KvOp, Outcome, Request, Response};

    for op in [KvOp::Put { key: 7, value: u32::MAX }, KvOp::Get { key: 7 }] {
        let request = Request { client: ClientId(1), request: RequestId(2), op };
        let mut bytes = Vec::new();
        assert_eq!(allocations_in(|| bytes = request.encode()), 1, "{op:?} encode");
        let allocs = allocations_in(|| assert_eq!(Request::decode(&bytes), Ok(request)));
        assert_eq!(allocs, 0, "{op:?} decode");
    }
    for outcome in [
        Outcome::Put { slot: 3 },
        Outcome::Get { slot: 3, value: None },
        Outcome::Get { slot: 3, value: Some(9) },
        Outcome::Read { index: 3, value: Some(9) },
    ] {
        let response = Response { request: RequestId(2), shard: 1, outcome };
        let mut bytes = Vec::new();
        assert_eq!(allocations_in(|| bytes = response.encode()), 1, "{outcome:?} encode");
        let allocs = allocations_in(|| assert_eq!(Response::decode(&bytes), Ok(response)));
        assert_eq!(allocs, 0, "{outcome:?} decode");
    }
}

/// `A_{t+2}` that counts its sends, per thread and in all: a send counted
/// in all but not on the test's thread ran somewhere else.
#[derive(Debug, Clone)]
struct OnThisThread(AtPlus2<RotatingCoordinator>);

impl RoundProcess for OnThisThread {
    type Msg = <AtPlus2<RotatingCoordinator> as RoundProcess>::Msg;

    fn send(&mut self, round: Round) -> Self::Msg {
        SENDS.fetch_add(1, Ordering::Relaxed);
        SENDS_HERE.with(|c| c.set(c.get() + 1));
        self.0.send(round)
    }

    fn deliver(&mut self, round: Round, delivery: &Delivery<Self::Msg>) -> Step {
        self.0.deliver(round, delivery)
    }
}

#[test]
fn warm_runtime_session_instance_is_allocation_free() {
    // A warm recycling session over instant links: a start reuses a
    // retired instance's replicas, mailboxes and vectors, and the caller's
    // `n` `next_result`s step the whole instance through one pooled
    // delivery. Warm-up fills the pools, the result queue and the rings.
    const INSTANCES: u64 = 200;
    let config = SystemConfig::majority(5, 2).unwrap();
    let n = config.n();
    let build = move |i: usize, v: Value| {
        let id = ProcessId::new(i);
        OnThisThread(
            AtPlus2::new(config, id, v, RotatingCoordinator::new(config, id))
                .with_failure_free_optimization(),
        )
    };
    let reset = |_i: usize, p: &mut OnThisThread, v: Value| p.0.reset_instance(v);
    let mut session = Session::with_recycler(config, Duration::from_millis(2), build, reset);
    let spec = InstanceSpec::synchronous(config);
    let mut proposals = vec![Value::ZERO; n];
    let mut run = |session: &mut Session<OnThisThread>, instances: u64| {
        for i in 0..instances {
            proposals.fill(Value::new(i));
            let instance = session.start_instance_recycled(&proposals, &spec);
            for _ in 0..n {
                let r = session.next_result();
                assert_eq!(r.instance, instance);
                assert_eq!(r.decision.expect("failure-free replicas decide").value, Value::new(i));
            }
        }
    };
    run(&mut session, 10);

    let (sends, here) = (SENDS.load(Ordering::Relaxed), SENDS_HERE.with(Cell::get));
    let allocs = allocations_in(|| run(&mut session, INSTANCES));
    let sends = SENDS.load(Ordering::Relaxed) - sends;
    let here = SENDS_HERE.with(Cell::get) - here;
    assert!(sends >= 2 * n as u64 * INSTANCES, "{sends} sends: every replica sends in rounds 1-2");
    assert_eq!(here, sends, "every replica steps on the caller's thread");
    assert_eq!(allocs, 0, "{allocs} allocations in {INSTANCES} warm instances");
}

#[test]
fn warm_session_replaying_crashes_and_lost_messages_is_allocation_free() {
    // A crash schedule with `Lose` overrides, shared by every start the
    // way the log's session runner shares a compiled schedule: p1 crashes
    // in round 1 reaching p0 only, and p3 crashes before sending round 2.
    // A start points the retired instance at the shared schedule; copying
    // it would clone the overrides' `BTreeMap`, an allocation per start.
    const INSTANCES: u64 = 100;
    let config = SystemConfig::majority(5, 2).unwrap();
    let n = config.n();
    let schedule = ScheduleBuilder::new(config, ModelKind::Es)
        .crash_delivering_only(ProcessId::new(1), Round::new(1), [ProcessId::new(0)])
        .crash_before_send(ProcessId::new(3), Round::new(2))
        .build(200)
        .unwrap();
    assert!(schedule.overrides().any(|o| o.3 == MessageFate::Lose), "{schedule:?}");
    let spec = InstanceSpec::replaying(schedule);
    let build = move |i: usize, v: Value| {
        let id = ProcessId::new(i);
        AtPlus2::new(config, id, v, RotatingCoordinator::new(config, id))
    };
    let reset = |_i: usize, p: &mut AtPlus2<RotatingCoordinator>, v: Value| p.reset_instance(v);
    let mut session = Session::with_recycler(config, Duration::from_millis(2), build, reset);
    let mut proposals = vec![Value::ZERO; n];
    let mut run = |session: &mut Session<AtPlus2<RotatingCoordinator>>, instances: u64| {
        for i in 0..instances {
            proposals.fill(Value::new(i));
            let instance = session.start_instance_recycled(&proposals, &spec);
            let mut decided = 0;
            for _ in 0..n {
                let r = session.next_result();
                assert_eq!(r.instance, instance);
                decided += usize::from(r.decision.is_some());
            }
            assert_eq!(decided, n - 2, "the three survivors decide");
        }
    };
    run(&mut session, 10);

    let allocs = allocations_in(|| run(&mut session, INSTANCES));
    assert_eq!(allocs, 0, "{allocs} allocations in {INSTANCES} warm crash-schedule instances");
}
