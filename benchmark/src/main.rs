//! End-to-end benchmark of the MAUPITI reproduction.
//!
//! ```text
//! maupiti-benchmark --workload <paper_flow|fleet_serve|fleet_storm> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload on a worker pool pinned to the host's
//! available parallelism. The last line of standard output is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`; the line before
//! it carries the host metadata.
//!
//! * `--trace 0` measures the end-to-end metrics with all telemetry off.
//! * `--trace 1` repeats the untraced measurement, then runs the same
//!   work again with the benchmark's own spans around the public call
//!   into each layer (and the program's existing telemetry switched on),
//!   and reports the per-layer metrics, the tracing overhead and the share
//!   of traced wall time no span covers.
//!
//! Every workload prints every metric name of `BENCHMARK.json`. A layer a
//! workload never calls reads 0 on it. Any failed output check makes the
//! run print `"correct": false` and exit with code 1.

mod fleet;
mod flow;
mod probe;
mod trace;

use std::collections::BTreeMap;
use std::time::Instant;

/// End-to-end metrics, `(name, unit)`, in `BENCHMARK.json` order.
const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("frames_per_s", "frames/s"),
    ("p99_ms", "ms"),
    ("served_share", "ratio"),
];

/// Per-layer metrics, `(name, unit)`, in `BENCHMARK.json` order.
const PER_LAYER: &[(&str, &str)] = &[
    ("front_best_bas", "ratio"),
    ("front_min_bytes", "B"),
    ("front_min_energy_uj", "uJ"),
    ("dataset.generate_s", "s"),
    ("nn.seed_train_s", "s"),
    ("nas.search_s", "s"),
    ("core.fold_train_s", "s"),
    ("core.baseline_s", "s"),
    ("kernels.deploy_sweep_s", "s"),
    ("tensor.gemm_calls", "count"),
    ("runtime.busy_share", "ratio"),
    ("runtime.queue_wait_p99_us", "us"),
    ("fleet.setup_s", "s"),
    ("fleet.run_s", "s"),
    ("isa.host_us_per_inference", "us"),
    ("isa.host_mips", "MIPS"),
    ("isa.cycles_per_inference", "cycles"),
    ("isa.instret_per_inference", "count"),
    ("isa.mem_stall_cycles", "cycles"),
    ("isa.fused_iterations", "count"),
    ("quant.forward_int_us", "us"),
    ("resilience.attempts_per_admitted", "ratio"),
    ("fleet.shed", "count"),
    ("fleet.downsampled", "count"),
    ("fleet.quarantined_frames", "count"),
    ("fleet.crash_lost", "count"),
    ("fleet.rerouted", "count"),
    ("fleet.queue_depth_p99", "count"),
    ("trace_overhead_share", "ratio"),
    ("trace_uncovered_share", "ratio"),
];

/// Seed of a run that names none: the paper flow's own dataset seed.
const DEFAULT_SEED: u64 = 2024;

/// Parsed command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed: every generated input derives from it.
    pub seed: u64,
    /// Measuring time budget of the repeated parts, in seconds.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Operations the measured work attempted.
    pub attempted: u64,
    /// Attempted operations that panicked instead of returning.
    pub failed: u64,
    /// Output checks, `(description, passed)`.
    pub checks: Vec<(String, bool)>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// The paper's comparative claims, `(name, held)`, one entry per flow
    /// batch: reported, not gated.
    pub claims: Vec<(&'static str, bool)>,
}

impl Outcome {
    /// Records one output check.
    pub fn check(&mut self, what: impl Into<String>, passed: bool) {
        self.checks.push((what.into(), passed));
    }

    /// Records whether one of the paper's claims held.
    pub fn claim(&mut self, name: &'static str, held: bool) {
        self.claims.push((name, held));
    }

    /// Records one metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

/// Median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0..=100) of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// Runs `f` `reps` times and returns the median wall time in seconds and
/// the last result.
pub fn median_time<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        last = Some(f());
        times.push(t.elapsed().as_secs_f64());
    }
    (median(&times), last.expect("at least one repetition"))
}

/// `n` distinct-ish frame indices below `len`, drawn from `seed`.
pub fn sample_indices(len: usize, n: usize, seed: u64) -> Vec<usize> {
    let mut rng = pcount_tensor::SplitMix64::new(seed ^ 0x5EED_F4A3_E5A3_9CE1);
    (0..n)
        .map(|_| (rng.next_u64() % len as u64) as usize)
        .collect()
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(DEFAULT_SEED),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn json_string(s: &str) -> String {
    let clean: String = s
        .chars()
        .filter(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
        .take(64)
        .collect();
    format!("\"{clean}\"")
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("maupiti-benchmark: {err}");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let pool = pcount_runtime::Pool::new(nproc);
    let run = |f: fn(&Args) -> Outcome| pcount_runtime::install(&pool, || f(&args));
    let mut outcome = match args.workload.as_str() {
        "paper_flow" => run(flow::run),
        "fleet_serve" => run(fleet::run_serve),
        "fleet_storm" => run(fleet::run_storm),
        other => {
            eprintln!("maupiti-benchmark: unknown workload {other}");
            std::process::exit(2);
        }
    };
    outcome.set("peak_rss_mb", peak_rss_mb());

    let git_rev = std::env::var("GIT_REV").unwrap_or_else(|_| "unknown".into());
    println!(
        "{{\"host\": {{\"nproc\": {nproc}, \"pool_width\": {}, \"git_rev\": {}, \
         \"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}}}}}",
        pool.handle().width(),
        json_string(&git_rev),
        json_string(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );

    let names = if args.trace { PER_LAYER } else { END_TO_END };
    for &(name, _) in names {
        let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
        outcome.check(format!("{name} is finite"), value.is_finite());
        if !args.trace {
            outcome.check(format!("{name} is measured and non-zero"), value != 0.0);
        }
    }
    if !outcome.claims.is_empty() {
        let mut held: BTreeMap<&str, Vec<bool>> = BTreeMap::new();
        for &(name, h) in &outcome.claims {
            held.entry(name).or_default().push(h);
        }
        let claims: Vec<String> = held
            .iter()
            .map(|(name, h)| format!("\"{name}\": {h:?}"))
            .collect();
        println!("{{\"claims\": {{{}}}}}", claims.join(", "));
    }
    let mut correct = true;
    for (what, passed) in &outcome.checks {
        if !passed {
            correct = false;
            eprintln!("CHECK FAILED: {what}");
        }
    }
    let metrics: Vec<String> = names
        .iter()
        .map(|&(name, unit)| {
            let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    // A failed check means the measured operations produced wrong
    // output, so none of them counts as done.
    let failed = if correct {
        outcome.failed
    } else {
        outcome.attempted
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
