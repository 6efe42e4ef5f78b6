//! The traced run's span tree: workload → phase → window → one row per
//! request. Spans are recorded from the benchmark's own files, around
//! its calls into the service; they stay in memory and are written to
//! `benchmark/out/trace-<workload>.json` when the workload ends.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::gen::{PhaseRun, NEVER};

/// A span: a name, an interval in microseconds since the workload began,
/// and the spans it caused. A window span also carries its requests.
#[derive(Debug, Default)]
pub struct Span {
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
    /// Counts taken at this span's boundaries (scrapes, CPU seconds).
    pub counts: Vec<(String, f64)>,
    pub children: Vec<Span>,
    /// `[request id, due, sent, acked]`, microseconds since the workload
    /// began (`acked` = -1 for a request that was never acked). The
    /// request's parent is this span.
    pub requests: Vec<[f64; 4]>,
}

impl Span {
    #[must_use]
    pub fn new(name: impl Into<String>, epoch: Instant, start: Instant, end: Instant) -> Self {
        Span {
            name: name.into(),
            start_us: (start - epoch).as_secs_f64() * 1e6,
            end_us: (end - epoch).as_secs_f64() * 1e6,
            ..Span::default()
        }
    }

    pub fn count(&mut self, name: impl Into<String>, value: f64) {
        self.counts.push((name.into(), value));
    }

    /// Builds the span of a one-window phase that began at `start`: the
    /// phase, its window, and under the window one row per request.
    #[must_use]
    pub fn phase(
        name: &str,
        epoch: Instant,
        start: Instant,
        run: &PhaseRun,
        window: Duration,
    ) -> Self {
        let base_us = (start - epoch).as_secs_f64() * 1e6;
        let interval = |name: String| Span {
            name,
            start_us: base_us,
            end_us: base_us + window.as_secs_f64() * 1e6,
            ..Span::default()
        };
        let mut phase = interval(name.into());
        phase.count("process_cpu_s", run.cpu.busy);
        phase.count("process_user_cpu_s", run.cpu.user);
        phase.count("process_sys_cpu_s", run.cpu.sys);
        phase.count("client_threads_cpu_s", run.client_cpu_s);
        let mut requests = interval(format!("{name}.window"));
        let us = |ns: u64| base_us + ns as f64 / 1e3;
        requests.requests = (0..run.sent_ns.len())
            .map(|k| {
                let acked = run.acked_ns[k];
                [
                    (run.first + k as u64) as f64,
                    us(run.due(k)),
                    us(run.sent_ns[k]),
                    if acked == NEVER { -1.0 } else { us(acked) },
                ]
            })
            .collect();
        phase.children.push(requests);
        phase
    }

    fn write(&self, out: &mut String, depth: usize) {
        let pad = "  ".repeat(depth);
        let _ = write!(
            out,
            "{pad}{{\"name\": \"{}\", \"start_us\": {:.1}, \"end_us\": {:.1}",
            self.name, self.start_us, self.end_us
        );
        if !self.counts.is_empty() {
            let counts: Vec<String> =
                self.counts.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
            let _ = write!(out, ", \"counts\": {{{}}}", counts.join(", "));
        }
        if !self.requests.is_empty() {
            out.push_str(", \"requests\": [");
            for (i, r) in self.requests.iter().enumerate() {
                let sep = if i == 0 { "" } else { "," };
                let _ = write!(out, "{sep}[{},{:.1},{:.1},{:.1}]", r[0], r[1], r[2], r[3]);
            }
            out.push(']');
        }
        if !self.children.is_empty() {
            out.push_str(", \"children\": [\n");
            for (i, c) in self.children.iter().enumerate() {
                c.write(out, depth + 1);
                out.push_str(if i + 1 == self.children.len() { "\n" } else { ",\n" });
            }
            let _ = write!(out, "{pad}]");
        }
        out.push('}');
    }
}

/// `benchmark/out`, where traces and scratch directories live.
#[must_use]
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Writes the workload's span tree; returns the file's path.
pub fn write_trace(workload: &str, seed: u64, root: &Span) -> Result<PathBuf, String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{workload}.json"));
    let mut out = format!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"claim\": null, \
         \"request_row\": [\"id\", \"due_us\", \"sent_us\", \"acked_us\"], \"root\":\n"
    );
    root.write(&mut out, 1);
    out.push_str("\n}\n");
    std::fs::write(&path, out).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Pace;

    #[test]
    fn request_rows_hang_under_their_window() {
        let epoch = Instant::now();
        let run = PhaseRun {
            pace: Pace::Open { rate: 1000 },
            first: 100,
            sent_ns: vec![0, 1_000_000, 2_100_000, 3_000_000],
            acked_ns: vec![500_000, 1_500_000, NEVER, 3_500_000],
            cpu: crate::stats::Cpu::default(),
            client_cpu_s: 0.0,
        };
        let phase = Span::phase("lo", epoch, epoch, &run, Duration::from_millis(4));
        assert_eq!(phase.children.len(), 1);
        assert_eq!(phase.children[0].requests.len(), 4);
        assert_eq!(phase.children[0].requests[2], [102.0, 2000.0, 2100.0, -1.0]);
        let mut json = String::new();
        phase.write(&mut json, 0);
        assert!(json.contains("\"name\": \"lo.window\""));
        assert!(json.contains("[103,3000.0,3000.0,3500.0]"));
    }
}
