//! E8 — the price of indulgence, head to head (paper Sect. 1.3):
//! FloodSet's exhaustive `t + 1` worst case in the synchronous model
//! against `A_{t+2}`'s exhaustive `t + 2` in ES, plus the executable
//! witness that deciding at round `t` in SCS violates agreement.

use indulgent_bench::experiments::scs_contrast_table;
use indulgent_bench::render_table;

fn main() {
    let rows = scs_contrast_table(&[(3, 1), (4, 1), (4, 2), (5, 2)]);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.n.to_string(),
                r.t.to_string(),
                r.floodset_scs.to_string(),
                r.at_plus2_es.map_or("n/a".into(), |v| v.to_string()),
                r.at_plus2_es.map_or("n/a".into(), |v| (v - r.floodset_scs).to_string()),
                if r.truncated_violates { "caught" } else { "MISSED" }.into(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "E8 — SCS (FloodSet, t+1) vs ES (A_t+2, t+2): the price is one round",
            &["n", "t", "SCS worst", "ES worst", "price", "t-round variant"],
            &table,
        )
    );
    println!("ES column is n/a where t >= n/2: indulgent consensus does not exist there,");
    println!("while SCS tolerates up to t = n - 2 — the resilience price of indulgence.");
}
