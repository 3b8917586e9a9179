//! Training-engine throughput: GEMM-backed vs naive nested-loop
//! convolution in images/second (forward + backward, the QAT/NAS hot
//! path), serial vs pool-parallel GEMM wall-clock on the
//! `pcount-runtime` worker pool, and serial vs parallel per-fold NAS
//! training wall-clock through `pcount_core::FoldTrainJob`.
//!
//! The bench prints an explicit summary
//! (conv speedup vs the 3x acceptance target, GEMM parallel scaling vs
//! the 1.7x 4-thread floor, fold-scaling efficiency vs the 0.7 target
//! on 4-core-or-wider hosts) and writes the numbers to `BENCH_train.json` at the
//! workspace root so the perf trajectory stays machine-readable across
//! PRs.
//!
//! `BENCH_SMOKE=1` (used by CI) skips the wall-clock assertions and
//! shrinks every measurement window — the GEMM-vs-naive equivalence
//! checks, the parallel-GEMM bit-identity tripwire and the thread-count
//! determinism check still run in full, so training engine regressions
//! fail fast without timing noise.

use pcount_core::FoldTrainJob;
use pcount_dataset::{DatasetConfig, IrDataset};
use pcount_nn::{CnnConfig, Conv2d, Layer, TrainConfig};
use pcount_quant::{Precision, PrecisionAssignment, QatConfig};
use pcount_runtime::{install, Pool};
use pcount_tensor::{gemm, gemm_splits_columns, GemmScratch, SplitMix64, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// Worker threads used for the parallel-fold measurement.
const PARALLEL_THREADS: usize = 4;

/// Pool width used for the parallel-GEMM scaling measurement.
const GEMM_THREADS: usize = 4;

fn smoke_mode() -> bool {
    std::env::var("BENCH_SMOKE")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Per-measurement wall-clock budget in seconds.
fn measure_secs() -> f64 {
    if smoke_mode() {
        0.02
    } else {
        1.0
    }
}

/// The convolution workload: conv2 of the paper's scaled-down seed (the
/// widest layer of the deployed CNNs) on a training-sized batch.
struct ConvWorkload {
    conv: Conv2d,
    weight: Tensor,
    x: Tensor,
    batch: usize,
}

impl ConvWorkload {
    fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let batch = 64;
        let conv = Conv2d::new(16, 24, 3, 1, 1, &mut rng);
        let weight = conv.weight.clone();
        let x = Tensor::randn(&[batch, 16, 8, 8], 1.0, &mut rng);
        Self {
            conv,
            weight,
            x,
            batch,
        }
    }

    /// One GEMM-path training step (forward + backward).
    fn step_gemm(&mut self) {
        self.conv.zero_grad();
        let y = self.conv.forward_with_weight(&self.x, &self.weight);
        black_box(self.conv.backward_with_weight(&y, &self.weight));
    }

    /// One naive-path training step (forward + backward).
    fn step_naive(&mut self) {
        self.conv.zero_grad();
        let y = self.conv.forward_naive_with_weight(&self.x, &self.weight);
        black_box(self.conv.backward_naive_with_weight(&y, &self.weight));
    }
}

/// Sustained images/second of a forward+backward step function.
fn measure_images_per_s(mut step: impl FnMut(), batch: usize) -> f64 {
    step(); // warmup
    let budget = measure_secs();
    let start = Instant::now();
    let mut iters = 0u64;
    loop {
        step();
        iters += 1;
        if start.elapsed().as_secs_f64() >= budget {
            break;
        }
    }
    (iters * batch as u64) as f64 / start.elapsed().as_secs_f64()
}

/// Holds the GEMM conv path to the naive reference on the bench workload;
/// this is the timing-independent engine-regression tripwire that also
/// runs in smoke mode.
fn check_conv_equivalence() {
    let mut w = ConvWorkload::new(11);
    w.conv.zero_grad();
    let y_gemm = w.conv.forward_with_weight(&w.x, &w.weight);
    let gx_gemm = w.conv.backward_with_weight(&y_gemm, &w.weight);
    let wg_gemm = w.conv.weight_grad.clone();
    w.conv.zero_grad();
    let y_naive = w.conv.forward_naive_with_weight(&w.x, &w.weight);
    let gx_naive = w.conv.backward_naive_with_weight(&y_naive, &w.weight);
    for (what, got, want) in [
        ("forward", &y_gemm, &y_naive),
        ("input grad", &gx_gemm, &gx_naive),
        ("weight grad", &wg_gemm, &w.conv.weight_grad),
    ] {
        assert_eq!(got.shape(), want.shape());
        for (i, (&g, &n)) in got.data().iter().zip(want.data().iter()).enumerate() {
            assert!(
                (g - n).abs() <= 1e-4 * 1.0f32.max(n.abs()),
                "conv {what} diverged from naive reference at {i}: {g} vs {n}"
            );
        }
    }
}

/// The GEMM workload for the pool-scaling measurement: a paper-scale-ish
/// product (wider than any single conv in the flow so the column split
/// has room to scale) that comfortably crosses the parallel threshold.
struct GemmWorkload {
    m: usize,
    n: usize,
    k: usize,
    a: Vec<f32>,
    b: Vec<f32>,
}

impl GemmWorkload {
    fn new(seed: u64) -> Self {
        let (m, n, k) = (256, 768, 256);
        assert!(
            gemm_splits_columns(m, n, k),
            "bench workload must take the parallel path on multi-core pools"
        );
        let mut rng = SplitMix64::new(seed);
        let rand = |len: usize, rng: &mut SplitMix64| -> Vec<f32> {
            (0..len).map(|_| rng.next_f32() * 2.0 - 1.0).collect()
        };
        let a = rand(m * k, &mut rng);
        let b = rand(k * n, &mut rng);
        Self { m, n, k, a, b }
    }

    /// One product under the installed pool, into `c`.
    fn run(&self, c: &mut [f32]) {
        gemm(
            &mut GemmScratch::default(),
            false,
            false,
            self.m,
            self.n,
            self.k,
            &self.a,
            &self.b,
            c,
            false,
        );
    }
}

/// Asserts the pool-parallel GEMM is bit-identical to the serial sweep
/// for 1 / 2 / 4 workers on the bench workload. This is the
/// timing-independent engine-regression tripwire; it always runs, smoke
/// mode included.
fn check_gemm_parallel_bit_identity(w: &GemmWorkload) -> bool {
    let run_with = |width: usize| {
        let pool = Pool::new(width);
        let mut c = vec![0.0f32; w.m * w.n];
        install(&pool, || w.run(&mut c));
        c
    };
    let serial = run_with(1);
    for width in [2, 4] {
        let parallel = run_with(width);
        for (i, (&s, &p)) in serial.iter().zip(parallel.iter()).enumerate() {
            assert_eq!(
                s.to_bits(),
                p.to_bits(),
                "parallel GEMM (width {width}) diverged from serial at element {i}: {p} vs {s}"
            );
        }
    }
    true
}

/// Sustained wall-clock of the bench GEMM under a pool of `width`
/// workers, in products/second.
fn measure_gemm_products_per_s(w: &GemmWorkload, width: usize) -> f64 {
    let pool = Pool::new(width);
    let mut c = vec![0.0f32; w.m * w.n];
    install(&pool, || {
        w.run(&mut c); // warmup (spins the workers up)
        let budget = measure_secs();
        let start = Instant::now();
        let mut iters = 0u64;
        loop {
            w.run(black_box(&mut c));
            iters += 1;
            if start.elapsed().as_secs_f64() >= budget {
                break;
            }
        }
        iters as f64 / start.elapsed().as_secs_f64()
    })
}

/// The per-fold training workload measured for scaling: the quick-flow
/// architecture across every leave-one-session-out fold of the tiny
/// dataset.
struct FoldWorkload {
    dataset: IrDataset,
    network: pcount_nn::Sequential,
    arch: CnnConfig,
    train: TrainConfig,
    qat: QatConfig,
    assignments: Vec<PrecisionAssignment>,
}

impl FoldWorkload {
    fn new(epochs: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(5);
        let dataset = IrDataset::generate(&DatasetConfig::tiny(), 5);
        let arch = CnnConfig::seed().with_channels(6, 6, 12);
        let network = arch.build(&mut rng);
        Self {
            dataset,
            network,
            arch,
            train: TrainConfig {
                epochs,
                batch_size: 64,
                learning_rate: 2e-3,
                weight_decay: 0.0,
                verbose: false,
            },
            qat: QatConfig {
                epochs: 1,
                batch_size: 64,
                learning_rate: 5e-4,
                verbose: false,
            },
            assignments: vec![
                PrecisionAssignment::uniform(Precision::Int8),
                PrecisionAssignment::new([
                    Precision::Int8,
                    Precision::Int4,
                    Precision::Int4,
                    Precision::Int8,
                ]),
            ],
        }
    }

    fn job<'a>(&'a self, folds: &'a [pcount_dataset::CvFold]) -> FoldTrainJob<'a> {
        FoldTrainJob {
            arch: self.arch,
            network: &self.network,
            dataset: &self.dataset,
            folds,
            train: &self.train,
            qat: &self.qat,
            assignments: &self.assignments,
            majority_window: 5,
            rng_seed: 7,
            lambda_index: 0,
        }
    }
}

/// Asserts the fold job returns identical results for every thread count
/// (the per-fold derived-seed determinism contract). Runs in smoke mode.
fn check_fold_determinism() {
    let workload = FoldWorkload::new(1);
    let folds: Vec<_> = workload
        .dataset
        .leave_one_session_out()
        .into_iter()
        .take(2)
        .collect();
    let job = workload.job(&folds);
    let serial = job.run(1);
    let parallel = job.run(PARALLEL_THREADS);
    assert_eq!(serial.len(), parallel.len());
    for (a, b) in serial.iter().zip(parallel.iter()) {
        assert_eq!(
            a.fp32_bas, b.fp32_bas,
            "fold training must be deterministic"
        );
        for (ca, cb) in a.candidates.iter().zip(b.candidates.iter()) {
            assert_eq!(ca.bas, cb.bas, "QAT must be deterministic");
            assert_eq!(ca.bas_majority, cb.bas_majority);
        }
    }
}

fn write_bench_json(lines: &[(&str, String)]) {
    let body: Vec<String> = lines
        .iter()
        .map(|(k, v)| format!("  \"{k}\": {v}"))
        .collect();
    let json = format!("{{\n{}\n}}\n", body.join(",\n"));
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_train.json");
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("warning: could not write {path}: {e}");
    } else {
        println!("wrote {path}");
    }
}

fn main() {
    let smoke = smoke_mode();

    check_conv_equivalence();
    check_fold_determinism();
    let gemm_workload = GemmWorkload::new(13);
    let gemm_bit_identical = check_gemm_parallel_bit_identity(&gemm_workload);

    // --- GEMM vs naive conv images/s ------------------------------------
    let mut w = ConvWorkload::new(3);
    let batch = w.batch;
    let ips_naive = measure_images_per_s(|| w.step_naive(), batch);
    let ips_gemm = measure_images_per_s(|| w.step_gemm(), batch);
    let conv_speedup = ips_gemm / ips_naive;

    // --- Serial vs pool-parallel GEMM -----------------------------------
    let gemm_serial_pps = measure_gemm_products_per_s(&gemm_workload, 1);
    let gemm_parallel_pps = measure_gemm_products_per_s(&gemm_workload, GEMM_THREADS);
    let gemm_parallel_speedup = gemm_parallel_pps / gemm_serial_pps;

    // --- Serial vs parallel fold wall-clock -----------------------------
    let workload = FoldWorkload::new(if smoke { 1 } else { 8 });
    let folds = workload.dataset.leave_one_session_out();
    let folds: Vec<_> = if smoke {
        folds.into_iter().take(2).collect()
    } else {
        folds
    };
    let job = workload.job(&folds);
    let fold_workers = PARALLEL_THREADS.min(folds.len());
    let start = Instant::now();
    black_box(job.run(1));
    let fold_serial_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    black_box(job.run(PARALLEL_THREADS));
    let fold_parallel_s = start.elapsed().as_secs_f64();
    let fold_scaling = fold_serial_s / fold_parallel_s;
    let fold_efficiency = fold_scaling / fold_workers as f64;
    let host_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    println!("train_throughput summary (training engine):");
    println!("  conv naive:            {ips_naive:>10.2e} images/s (fwd+bwd, batch {batch})");
    println!("  conv GEMM:             {ips_gemm:>10.2e} images/s");
    println!("  conv speedup:          {conv_speedup:.2}x (acceptance target: >= 3x)");
    println!(
        "  GEMM {}x{}x{}:      serial {gemm_serial_pps:.1}/s vs pool x{GEMM_THREADS} \
         {gemm_parallel_pps:.1}/s",
        gemm_workload.m, gemm_workload.k, gemm_workload.n
    );
    println!(
        "  GEMM parallel scaling: {gemm_parallel_speedup:.2}x at {GEMM_THREADS} workers \
         (floor >= 1.7x on >= 4-core hosts; bit-identical: {gemm_bit_identical})"
    );
    println!(
        "  fold training:         serial {fold_serial_s:.2}s vs parallel x{fold_workers} {fold_parallel_s:.2}s ({} folds)",
        folds.len()
    );
    println!(
        "  fold scaling:          {fold_scaling:.2}x, efficiency {fold_efficiency:.2} \
         (target >= 0.7 on >= 4-core hosts; {host_threads} host threads)"
    );

    // --- Instrumented pool-utilization capture --------------------------
    // Runs after every timed window so enabling telemetry cannot perturb
    // the measurements above; one pooled GEMM with recording on yields the
    // per-worker task/busy breakdown for the report.
    let pool_utilization = {
        pcount_telemetry::set_enabled(true);
        let pool = Pool::new(GEMM_THREADS);
        let mut c = vec![0.0f32; gemm_workload.m * gemm_workload.n];
        install(&pool, || gemm_workload.run(&mut c));
        let util = pool.handle().utilization();
        pcount_telemetry::set_enabled(false);
        util
    };

    write_bench_json(&[
        ("bench", "\"train_throughput\"".into()),
        (
            "mode",
            format!("\"{}\"", if smoke { "smoke" } else { "full" }),
        ),
        ("host", pcount_bench::host_metadata_json(smoke)),
        ("host_threads", host_threads.to_string()),
        ("conv_batch", batch.to_string()),
        ("images_per_s_naive", format!("{ips_naive:.3e}")),
        ("images_per_s_gemm", format!("{ips_gemm:.3e}")),
        ("conv_speedup", format!("{conv_speedup:.3}")),
        ("gemm_threads", GEMM_THREADS.to_string()),
        (
            "gemm_parallel_speedup",
            format!("{gemm_parallel_speedup:.3}"),
        ),
        (
            "gemm_parallel_bit_identical",
            gemm_bit_identical.to_string(),
        ),
        ("fold_count", folds.len().to_string()),
        ("fold_workers", fold_workers.to_string()),
        ("fold_serial_s", format!("{fold_serial_s:.3}")),
        ("fold_parallel_s", format!("{fold_parallel_s:.3}")),
        ("fold_scaling", format!("{fold_scaling:.3}")),
        ("fold_efficiency", format!("{fold_efficiency:.3}")),
        ("pool_utilization", pool_utilization.to_json()),
    ]);

    if smoke {
        println!("BENCH_SMOKE=1: wall-clock assertions skipped");
        return;
    }
    // The GEMM path measures well above the 3x acceptance target on an
    // idle host; the hard guard sits lower because both operands are
    // wall-clock measurements on a possibly loaded machine. A reading
    // under 3x on a quiet machine is a real regression.
    assert!(
        conv_speedup >= 2.0,
        "GEMM conv regressed to {conv_speedup:.2}x the naive reference"
    );
    // Parallel GEMM needs real cores: on a >= 4-core host the NR-aligned
    // column split across 4 pool workers must deliver at least 1.7x over
    // the serial sweep (acceptance target; measured well above on idle
    // multi-core hosts, floor leaves room for wall-clock noise).
    if host_threads >= GEMM_THREADS {
        assert!(
            gemm_parallel_speedup >= 1.7,
            "pool-parallel GEMM scaled only {gemm_parallel_speedup:.2}x \
             at {GEMM_THREADS} workers"
        );
    }
    // Fold scaling needs real cores: on a >= 4-core host the parallel fold
    // loop must deliver most of the linear speedup (0.7 efficiency
    // acceptance target, floor below for wall-clock noise).
    if host_threads >= PARALLEL_THREADS {
        assert!(
            fold_efficiency >= 0.5,
            "parallel fold training efficiency dropped to {fold_efficiency:.2} \
             at {fold_workers} workers"
        );
    }
}
