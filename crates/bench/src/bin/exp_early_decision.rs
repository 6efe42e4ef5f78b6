//! E7 — early decision in synchronous runs (paper Sect. 6): the `f + 2`
//! lower bound for runs with at most `f` crashes. `A_{t+2}` pays `t + 2`
//! regardless of the actual `f` (early-decision tightness for
//! `n/3 <= t < n/2` was open at publication; \[5\] later closed it);
//! `A_{f+2}` already achieves `f + 2` when `t < n/3`.

use indulgent_bench::experiments::early_decision_table;
use indulgent_bench::render_table;

fn main() {
    let rows = early_decision_table(300);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.f.to_string(),
                r.at_plus2.to_string(),
                r.af_plus2.to_string(),
                r.early_scs.to_string(),
                r.bound.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "E7 — early decision with f actual crashes (synchronous runs)",
            &[
                "f",
                "A_t+2 (n=5,t=2)",
                "A_f+2 (n=7,t=2)",
                "EarlyFloodSet SCS (n=5,t=2)",
                "bound f+2"
            ],
            &table,
        )
    );
    println!("A_t+2 always pays t + 2 = 4; A_f+2 tracks the f + 2 early-decision bound,");
    println!("and the SCS algorithm meets min(f + 2, t + 1) — one round cheaper at f = t.");
}
