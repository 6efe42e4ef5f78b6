//! E9 — decision latency versus the eventual-synchrony round `K`:
//! synchronous runs decide at `t + 2`; the longer the asynchronous prefix,
//! the later the (fallback) decision — but safety never budges.

use indulgent_bench::experiments::asynchrony_table;
use indulgent_bench::render_table;

fn main() {
    let rows = asynchrony_table(&[1, 2, 3, 5, 7, 9], 200);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.k.to_string(),
                format!("{:.2}", r.mean_round),
                r.p50.to_string(),
                r.p99.to_string(),
                r.max_round.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "E9 — A_t+2 (n=5, t=2) decision round vs synchrony round K",
            &["K", "mean round", "p50", "p99", "max round"],
            &table,
        )
    );
    println!("K = 1 is the synchronous case (t + 2 = 4); latency grows with the prefix.");
}
