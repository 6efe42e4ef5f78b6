//! E6 — fast eventual decision (paper Fig. 5, Lemma 15): once a run
//! becomes synchronous after round `k` with `f` later crashes, `A_{f+2}`
//! decides by `k + f + 2` while the leader-based AMR baseline may need
//! `k + 2f + 2`.

use indulgent_bench::experiments::eventual_decision_table;
use indulgent_bench::render_table;

fn main() {
    let rows = eventual_decision_table(&[0, 2, 4, 6], &[0, 1, 2], 50);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.k.to_string(),
                r.f.to_string(),
                r.af_plus2.to_string(),
                r.af_bound.to_string(),
                r.amr.to_string(),
                r.amr_bound.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "E6 — decision round after stabilization (n=7, t=2): A_f+2 vs leader-based AMR",
            &["k", "f", "A_f+2", "k+f+2", "AMR", "k+2f+2"],
            &table,
        )
    );
    println!("A_f+2 meets k+f+2; AMR pays ~2 rounds per crashed leader (k+2f+2).");
}
