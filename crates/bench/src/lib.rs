//! Experiment harness regenerating every claim of the paper.
//!
//! The paper is theoretical: its "evaluation" is a set of proven bounds and
//! five figures. Each function in [`experiments`] regenerates one of them
//! as a table of measured rows, and one `exp_*` binary prints each table:
//!
//! | experiment | binary |
//! |---|---|
//! | E1 — the `t + 2` lower bound | `exp_lower_bound` |
//! | E2 — `A_{t+2}`'s fast decision | `exp_fast_decision` |
//! | E3 — the headline baseline comparison | `exp_baseline_comparison` |
//! | E4 — the `A_◇S` variant | `exp_diamond_s` |
//! | E5 — the failure-free optimization | `exp_failure_free` |
//! | E6 — fast eventual decision | `exp_eventual_decision` |
//! | E7 — early decision | `exp_early_decision` |
//! | E8 — the SCS contrast | `exp_scs_contrast` |
//! | E9 — latency versus the synchrony round `K` | `exp_asynchrony` |
//!
//! The tests in [`experiments`] check every table's shape at small
//! parameters. The one bench, `cargo bench --bench sweep_throughput`,
//! times the checker's exhaustive sweep and writes `BENCH_sweep.json`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod stats;

use indulgent_sim::SweepBackend;

/// Parses the common `--threads N` CLI flag of the `exp_*` binaries into a
/// sweep backend: no flag or `--threads 1` is serial, `--threads N` a
/// pooled parallel sweep.
///
/// # Panics
///
/// Panics with a usage message if `--threads` is present without a valid
/// positive integer.
pub fn sweep_backend_from_args<I: Iterator<Item = String>>(mut args: I) -> SweepBackend {
    while let Some(arg) = args.next() {
        if arg == "--threads" {
            let threads: usize = args
                .next()
                .and_then(|v| v.parse().ok())
                .filter(|&v| v >= 1)
                .expect("usage: --threads N (N >= 1)");
            return if threads == 1 {
                SweepBackend::Serial
            } else {
                SweepBackend::parallel(threads)
            };
        }
    }
    SweepBackend::Serial
}

/// Renders a table: a header line, a separator, and one line per row.
///
/// Purely cosmetic (fixed-width columns sized to content); used by all the
/// `exp_*` binaries.
#[must_use]
pub fn render_table(title: &str, header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = header.iter().map(|s| (*s).to_owned()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_table_aligns_columns() {
        let s = render_table(
            "T",
            &["a", "bbbb"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        assert!(s.contains("T\n"));
        assert!(s.lines().count() >= 4);
    }

    fn backend_of(args: &[&str]) -> SweepBackend {
        sweep_backend_from_args(args.iter().map(|a| (*a).to_owned()))
    }

    #[test]
    fn threads_flag_selects_the_backend() {
        assert_eq!(backend_of(&[]), SweepBackend::Serial);
        assert_eq!(backend_of(&["--other"]), SweepBackend::Serial);
        assert_eq!(backend_of(&["--threads", "1"]), SweepBackend::Serial);
        assert_eq!(backend_of(&["--threads", "3"]), SweepBackend::parallel(3));
    }

    #[test]
    fn bad_threads_flag_panics_with_the_usage() {
        for args in [&["--threads", "0"][..], &["--threads", "x"], &["--threads"]] {
            let panic = std::panic::catch_unwind(|| backend_of(args)).expect_err("must panic");
            let message = panic.downcast_ref::<String>().map(String::as_str).unwrap_or_default();
            assert!(message.contains("usage: --threads N (N >= 1)"), "{args:?}: {message}");
        }
    }
}
