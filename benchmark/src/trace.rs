//! Benchmark-side spans around the public calls into each layer.
//!
//! Spans live in memory (one mutex-guarded list, shared by the pool
//! workers a layer call fans out to) and are reduced to per-layer metrics
//! when the traced run ends. A layer's metric is the summed duration of its
//! spans, so concurrent spans (the λ-sweep points) add up as busy time.
//!
//! The program's own telemetry is switched on for the traced run: the
//! pool's busy and queue-wait statistics and the `gemm` leaf spans come
//! from there.

use pcount_telemetry::{HistogramCounts, TraceSnapshot};
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// One closed span, in seconds since the tracer started.
#[derive(Clone, Copy)]
struct Span {
    name: &'static str,
    start: f64,
    end: f64,
}

/// The span recorder of one traced run.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    gemm: Mutex<GemmTally>,
    busy_ns_start: u64,
    queue_wait_start: HistogramCounts,
}

impl Tracer {
    /// Switches the program's telemetry on and starts the traced window.
    pub fn start() -> Self {
        pcount_telemetry::set_enabled(true);
        let pool = pcount_runtime::current().utilization();
        Self {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            gemm: Mutex::new(GemmTally::default()),
            busy_ns_start: pool.worker_busy_ns.iter().sum(),
            queue_wait_start: pcount_telemetry::histogram("pool/queue_wait_ns").counts(),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.spans
            .lock()
            .expect("span list lock")
            .push(Span { name, start, end });
        out
    }

    /// Runs `f` inside a span named `name` and tallies the `gemm` calls
    /// the program recorded meanwhile. Call it only around work nothing
    /// else runs concurrently with.
    pub fn segment<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start_ns = pcount_telemetry::now_ns();
        let out = self.span(name, f);
        self.gemm
            .lock()
            .expect("gemm tally lock")
            .close_window(start_ns);
        out
    }

    /// Summed duration of every span named `name`, in seconds.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .lock()
            .expect("span list lock")
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .sum()
    }

    /// Reduces the traced window so far into the pool and coverage
    /// metrics: `runtime.busy_share`, `runtime.queue_wait_p99_us`,
    /// `tensor.gemm_calls` and `trace_uncovered_share`.
    pub fn finish(&self) -> BTreeMap<&'static str, f64> {
        let window = self.now();
        let pool = pcount_runtime::current().utilization();
        let busy_ns: u64 = pool.worker_busy_ns.iter().sum();
        let busy_s = busy_ns.saturating_sub(self.busy_ns_start) as f64 / 1e9;
        let queue_wait =
            pcount_telemetry::histogram("pool/queue_wait_ns").summary_since(&self.queue_wait_start);
        let mut out = BTreeMap::new();
        out.insert("runtime.busy_share", busy_s / (pool.width as f64 * window));
        out.insert("runtime.queue_wait_p99_us", queue_wait.p99 as f64 / 1e3);
        out.insert(
            "tensor.gemm_calls",
            self.gemm.lock().expect("gemm tally lock").calls.round(),
        );
        out.insert("trace_uncovered_share", 1.0 - self.covered() / window);
        pcount_telemetry::set_enabled(false);
        out
    }

    /// Seconds of the traced window covered by at least one span.
    fn covered(&self) -> f64 {
        let mut spans = self.spans.lock().expect("span list lock").clone();
        spans.sort_by(|a, b| a.start.partial_cmp(&b.start).expect("finite"));
        let mut covered = 0.0;
        let mut reach = f64::NEG_INFINITY;
        for s in spans {
            if s.end <= reach {
                continue;
            }
            covered += s.end - s.start.max(reach);
            reach = s.end;
        }
        covered
    }
}

/// Counts the program's `gemm` spans window by window.
///
/// Each thread keeps its spans in a bounded ring that overwrites its
/// oldest events when full. A window's count is exact while no ring
/// wrapped inside it. When one did, the events that thread lost in the
/// window are split between `gemm` and other spans in the proportion its
/// retained events of the same window show.
#[derive(Default)]
struct GemmTally {
    /// Events each thread had recorded at the end of the last window.
    recorded: BTreeMap<usize, u64>,
    calls: f64,
}

impl GemmTally {
    fn close_window(&mut self, start_ns: u64) {
        let snapshot = TraceSnapshot::capture();
        let mut retained: BTreeMap<usize, (u64, u64, u64)> = BTreeMap::new();
        for &(tid, ev) in &snapshot.spans {
            let entry = retained.entry(tid).or_default();
            entry.0 += 1;
            if ev.start_ns >= start_ns {
                entry.1 += 1;
                if ev.name == "gemm" {
                    entry.2 += 1;
                }
            }
        }
        for &(tid, overwritten) in &snapshot.dropped {
            retained.entry(tid).or_default().0 += overwritten;
        }
        for (tid, (total, in_window, gemm)) in retained {
            let before = self.recorded.insert(tid, total).unwrap_or(0);
            let lost = total.saturating_sub(before).saturating_sub(in_window);
            let mut calls = gemm as f64;
            if lost > 0 && in_window > 0 {
                calls += lost as f64 * gemm as f64 / in_window as f64;
            }
            self.calls += calls;
        }
    }
}
