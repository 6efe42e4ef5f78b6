//! E1 — the `t + 2` lower bound (Proposition 1), exhaustively.
//!
//! Sweeps every serial synchronous run of `A_{t+2}` and the HR-style
//! baseline for small `(n, t)`, reporting the exact worst-case global
//! decision round, together with the bivalency witnesses of the proof
//! (Lemmas 3–4): a bivalent initial configuration and bivalence surviving
//! to round `t - 1`.
//!
//! The table stops at `(5, 2)`, which stays snappy. The `(7, 2)` row
//! (~518k serial runs for `A_{t+2}`, ~1.3M for the baseline) is recorded
//! in the README; the `t + 2` bound at `(7, 2)` is pinned by the
//! integration test `exhaustive_n7_t2_sweep_confirms_t_plus_2`.

use indulgent_bench::experiments::lower_bound_table;
use indulgent_bench::render_table;
use indulgent_checker::decision_round_census;
use indulgent_consensus::{AtPlus2, CoordinatorEcho, RotatingCoordinator};
use indulgent_model::{ProcessId, SystemConfig, Value};
use indulgent_sim::ModelKind;

fn main() {
    let rows = lower_bound_table(&[(3, 1), (4, 1), (5, 2)]);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.n.to_string(),
                r.t.to_string(),
                r.algorithm.to_string(),
                r.runs.to_string(),
                r.worst_round.to_string(),
                format!("t+2={}", r.bound),
                if r.bivalent_initial { "yes" } else { "no" }.into(),
                if r.bivalent_at_t_minus_1 { "yes" } else { "no" }.into(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "E1 — worst-case global decision round over ALL serial synchronous runs (Prop. 1)",
            &["n", "t", "algorithm", "runs", "worst", "bound", "bivalent C0", "bivalent t-1"],
            &table,
        )
    );
    println!("Every ES algorithm's worst case is >= t + 2; A_t+2 attains it exactly.");

    // Decision-round census over the (5, 2) serial-run space: A_t+2 is a
    // single bar at t + 2 while the baseline spreads up to 2t + 2.
    let config = SystemConfig::majority(5, 2).expect("valid config");
    let props: Vec<Value> = (0..5).map(|i| Value::new(i as u64 + 1)).collect();
    let at = move |i: usize, v: Value| {
        let id = ProcessId::new(i);
        AtPlus2::new(config, id, v, RotatingCoordinator::new(config, id))
    };
    let census = decision_round_census(&at, config, ModelKind::Es, &props, 4, 40)
        .expect("A_t+2 satisfies consensus");
    println!("\nA_t+2 decision-round census over {} serial runs (n=5, t=2):", census.runs);
    for (round, count) in &census.counts {
        println!("  round {round}: {count} runs");
    }
    let hr = move |i: usize, v: Value| CoordinatorEcho::new(config, ProcessId::new(i), v);
    let census = decision_round_census(&hr, config, ModelKind::Es, &props, 6, 40)
        .expect("CoordinatorEcho satisfies consensus");
    println!("HR-style decision-round census over {} serial runs:", census.runs);
    for (round, count) in &census.counts {
        println!("  round {round}: {count} runs");
    }
}
