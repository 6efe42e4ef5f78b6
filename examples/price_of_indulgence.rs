//! The paper's headline, in one program: consensus costs `t + 1` rounds in
//! the synchronous model but `t + 2` in the eventually synchronous model —
//! *the price of indulgence is one round* — and the best previously known
//! indulgent algorithm paid `2t + 2`.
//!
//! ```text
//! cargo run --example price_of_indulgence
//! ```

use indulgent_checker::worst_case_decision_round;
use indulgent_consensus::{AtPlus2, CoordinatorEcho, FloodSet, RotatingCoordinator};
use indulgent_model::{ProcessId, Round, SystemConfig, Value};
use indulgent_sim::{run_schedule, ModelKind, ScheduleBuilder};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let proposals: Vec<Value> = [5u64, 3, 8, 1].map(Value::new).to_vec();

    // Synchronous model, n = 4, t = 1: FloodSet decides at t + 1 = 2 in
    // every serial run — exhaustively checked.
    let scs = SystemConfig::synchronous(4, 1)?;
    let floodset = move |_i: usize, v: Value| FloodSet::new(scs, v);
    let scs_report = worst_case_decision_round(&floodset, scs, ModelKind::Scs, &proposals, 2, 10)?;
    println!(
        "SCS  (n=4, t=1): FloodSet worst case over {} serial runs: round {}",
        scs_report.runs,
        scs_report.worst_round.get()
    );

    // Eventually synchronous model, same n and t: A_{t+2} needs t + 2 = 3 —
    // also exhaustively checked, and provably unimprovable (Proposition 1).
    let es = SystemConfig::majority(4, 1)?;
    let at_plus2 = move |i: usize, v: Value| {
        let id = ProcessId::new(i);
        AtPlus2::new(es, id, v, RotatingCoordinator::new(es, id))
    };
    let es_report = worst_case_decision_round(&at_plus2, es, ModelKind::Es, &proposals, 3, 30)?;
    println!(
        "ES   (n=4, t=1): A_t+2    worst case over {} serial runs: round {}",
        es_report.runs,
        es_report.worst_round.get()
    );
    println!(
        "price of indulgence: {} round(s)\n",
        es_report.worst_round.get() - scs_report.worst_round.get()
    );

    // And what the state of the art paid before this paper: a Hurfin-Raynal
    // style algorithm loses two rounds per crashed coordinator. With t
    // coordinators crashing back to back: 2t + 2.
    for t in [1usize, 2, 3] {
        let n = 2 * t + 1;
        let cfg = SystemConfig::majority(n, t)?;
        let props: Vec<Value> = (0..n).map(|i| Value::new(i as u64 + 1)).collect();
        let mut b = ScheduleBuilder::new(cfg, ModelKind::Es);
        for p in 0..t {
            b = b.crash_before_send(ProcessId::new(p), Round::new(2 * p as u32 + 1));
        }
        let schedule = b.build(40)?;
        let hr = move |i: usize, v: Value| CoordinatorEcho::new(cfg, ProcessId::new(i), v);
        let outcome = run_schedule(&hr, &props, &schedule, 40).expect("one proposal per process");
        outcome.check_consensus()?;
        println!(
            "HR-style baseline (n={n}, t={t}): adversarial synchronous run decides at round {} \
             (2t+2={}), A_t+2 at {}",
            outcome.global_decision_round().expect("decided").get(),
            2 * t + 2,
            t + 2,
        );
    }
    Ok(())
}
