//! Simulator throughput: `ExecMode::Simple` vs `ExecMode::BlockCached`
//! and serial vs pooled-parallel batch evaluation, in instructions/second
//! on the deployed CNN workload (the program every Table-I / Fig. 5–7
//! measurement funnels through).
//!
//! The bench prints an explicit instructions-per-second summary (engine
//! speedup under both memory models, fusion speedup, parallel scaling),
//! the Flat-vs-Maupiti
//! memory-hierarchy cycle delta with its stall breakdown, a trace-cache
//! profile of the hottest superblocks (with the per-trace memory-stall
//! column), and writes the numbers to `BENCH_isa.json` at the workspace
//! root so the perf trajectory stays machine-readable across PRs.
//!
//! `BENCH_SMOKE=1` (used by CI) shrinks every measurement window to a
//! handful of iterations and skips the wall-clock assertions — the
//! bit-identity checks across engines, memory models, fusion on/off and
//! thread counts still run, so engine regressions fail fast without
//! timing noise.

use pcount_bench::demo_int8_model;
use pcount_kernels::{hot_blocks_json, Deployment, ExecMode, MemoryModel, Target};
use pcount_quant::QuantizedCnn;
use pcount_tensor::Tensor;
use std::hint::black_box;
use std::time::Instant;

/// Worker threads used for the parallel-batch measurement.
const PARALLEL_THREADS: usize = 4;

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

fn deployment_with_mode(model: &QuantizedCnn, mode: ExecMode) -> Deployment {
    deployment_with(model, mode, MemoryModel::Flat)
}

fn deployment_with(model: &QuantizedCnn, mode: ExecMode, mem: MemoryModel) -> Deployment {
    let mut deployment = Deployment::new(model, Target::Maupiti).expect("deploy");
    deployment.set_exec_mode(mode);
    deployment.set_memory_model(mem);
    deployment
}

/// Measures sustained simulated instructions/second of the serial
/// per-frame path.
fn measure_ips(deployment: &Deployment, frame: &[f32]) -> f64 {
    let per_frame = deployment.run_frame(frame).expect("warmup").instructions;
    let budget = measure_secs();
    let start = Instant::now();
    let mut frames = 0u64;
    loop {
        black_box(deployment.run_frame(black_box(frame)).expect("run"));
        frames += 1;
        if start.elapsed().as_secs_f64() >= budget {
            break;
        }
    }
    (frames * per_frame) as f64 / start.elapsed().as_secs_f64()
}

/// Measures sustained simulated instructions/second of the pooled batch
/// path at the given thread count.
fn measure_batch_ips(deployment: &Deployment, batch: &Tensor, threads: usize) -> f64 {
    let pool = deployment.make_pool(threads).expect("pool");
    // Retired instruction counts are data-dependent (requant clamps,
    // pooling comparisons), so sum the real per-frame counts of the
    // warmup batch instead of extrapolating from one frame.
    let per_batch: u64 = deployment
        .run_batch(batch, &pool)
        .expect("warmup")
        .iter()
        .map(|r| r.instructions)
        .sum();
    let budget = measure_secs();
    let start = Instant::now();
    let mut batches = 0u64;
    loop {
        black_box(
            deployment
                .run_batch(black_box(batch), &pool)
                .expect("batch"),
        );
        batches += 1;
        if start.elapsed().as_secs_f64() >= budget {
            break;
        }
    }
    (batches * per_batch) as f64 / start.elapsed().as_secs_f64()
}

/// Asserts bit-identical logits/instret across every execution strategy;
/// this is the timing-independent engine-regression tripwire that also
/// runs in smoke mode.
fn check_bit_identity(model: &QuantizedCnn, batch: &Tensor) {
    let n = batch.shape()[0];
    let simple = deployment_with_mode(model, ExecMode::Simple);
    let cached = deployment_with_mode(model, ExecMode::BlockCached);
    let mut nofusion = deployment_with_mode(model, ExecMode::BlockCached);
    nofusion.set_macro_fusion(false);
    let mut maupiti_nofusion =
        deployment_with(model, ExecMode::BlockCached, MemoryModel::maupiti());
    maupiti_nofusion.set_macro_fusion(false);
    let serial: Vec<_> = (0..n)
        .map(|i| {
            cached
                .run_frame(&batch.data()[i * 64..(i + 1) * 64])
                .expect("serial frame")
        })
        .collect();
    let pool = cached.make_pool(PARALLEL_THREADS).expect("pool");
    let parallel = cached.run_batch(batch, &pool).expect("parallel batch");
    assert_eq!(parallel, serial, "parallel batch must be bit-identical");
    let maupiti_simple = deployment_with(model, ExecMode::Simple, MemoryModel::maupiti());
    let maupiti_cached = deployment_with(model, ExecMode::BlockCached, MemoryModel::maupiti());
    for (i, run) in serial.iter().enumerate() {
        let frame = &batch.data()[i * 64..(i + 1) * 64];
        let rs = simple.run_frame(frame).expect("simple frame");
        assert_eq!(*run, rs, "engines diverged (frame {i})");
        // Flat is the default model and must stay free of memory stalls.
        assert_eq!(run.mem, Default::default(), "Flat charged stalls");
        // The Maupiti hierarchy keeps architectural results bit-identical,
        // charges strictly more cycles (exactly its stall breakdown), and
        // both engines agree on the whole run.
        let rm = maupiti_cached.run_frame(frame).expect("maupiti frame");
        let rms = maupiti_simple.run_frame(frame).expect("maupiti simple");
        assert_eq!(rm.logits, run.logits, "memory model changed logits");
        assert_eq!(rm.instructions, run.instructions);
        assert_eq!(rm.cycles, run.cycles + rm.mem.stall_cycles());
        assert!(rm.mem.fetch_misses > 0, "CNN branches must miss");
        assert_eq!(rm, rms, "engines diverged under the maupiti model");
        // Macro-op fusion must be invisible down to the stall breakdowns
        // under both memory models (the serial runs above all had fusion
        // enabled — its default).
        let rnf = nofusion.run_frame(frame).expect("no-fusion frame");
        assert_eq!(*run, rnf, "macro-op fusion perturbed the run (frame {i})");
        let rmnf = maupiti_nofusion
            .run_frame(frame)
            .expect("maupiti no-fusion frame");
        assert_eq!(
            rm, rmnf,
            "macro-op fusion perturbed the maupiti run (frame {i})"
        );
    }
}

fn write_bench_json(lines: &[(&str, String)]) {
    let body: Vec<String> = lines
        .iter()
        .map(|(k, v)| format!("  \"{k}\": {v}"))
        .collect();
    let json = format!("{{\n{}\n}}\n", body.join(",\n"));
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_isa.json");
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("warning: could not write {path}: {e}");
    } else {
        println!("wrote {path}");
    }
}

fn main() {
    let smoke = smoke_mode();
    let (model, x) = demo_int8_model(7);
    let frame: Vec<f32> = x.data()[0..64].to_vec();
    let batch_n = if smoke { 8 } else { 32 };
    let batch = Tensor::from_vec(x.data()[..batch_n * 64].to_vec(), &[batch_n, 1, 8, 8]);

    check_bit_identity(&model, &batch);

    let simple = deployment_with_mode(&model, ExecMode::Simple);
    let cached = deployment_with_mode(&model, ExecMode::BlockCached);
    let mut nofusion = deployment_with_mode(&model, ExecMode::BlockCached);
    nofusion.set_macro_fusion(false);
    let maupiti_simple = deployment_with(&model, ExecMode::Simple, MemoryModel::maupiti());
    let maupiti_cached = deployment_with(&model, ExecMode::BlockCached, MemoryModel::maupiti());
    let ips_simple = measure_ips(&simple, &frame);
    let ips_cached = measure_ips(&cached, &frame);
    let ips_nofusion = measure_ips(&nofusion, &frame);
    let ips_maupiti_simple = measure_ips(&maupiti_simple, &frame);
    let ips_maupiti_cached = measure_ips(&maupiti_cached, &frame);
    let ips_parallel = measure_batch_ips(&cached, &batch, PARALLEL_THREADS);
    let speedup = ips_cached / ips_simple;
    let speedup_maupiti = ips_maupiti_cached / ips_maupiti_simple;
    let fusion_speedup = ips_cached / ips_nofusion;
    let scaling = ips_parallel / ips_cached;
    let host_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    // Flat-vs-Maupiti cycle delta of one inference: how much the modelled
    // memory hierarchy costs over the ideal memories of the flat model.
    let run_flat = cached.run_frame(&frame).expect("flat run");
    let run_maupiti = maupiti_cached.run_frame(&frame).expect("maupiti run");
    let cycle_delta = run_maupiti.cycles as f64 / run_flat.cycles as f64;

    println!("isa_throughput summary (deployed CNN, MAUPITI target):");
    println!("  simple:                  {ips_simple:>10.2e} instructions/s");
    println!("  block_cached:            {ips_cached:>10.2e} instructions/s");
    println!("  parallel x{PARALLEL_THREADS}:             {ips_parallel:>10.2e} instructions/s");
    println!("  engine speedup:          {speedup:.2}x (acceptance target: >= 5x)");
    println!("  engine speedup (maupiti mem model): {speedup_maupiti:.2}x");
    println!(
        "  fusion speedup:          {fusion_speedup:.3}x (macro-op fused loops vs per-instruction)"
    );
    println!("  parallel scaling:        {scaling:.2}x at {PARALLEL_THREADS} threads ({host_threads} host threads)");
    println!(
        "  memory hierarchy:        flat {} cycles -> maupiti {} cycles/inference ({:.3}x, \
         {} imem stall + {} dmem stall)",
        run_flat.cycles,
        run_maupiti.cycles,
        cycle_delta,
        run_maupiti.mem.imem_stall_cycles,
        run_maupiti.mem.dmem_stall_cycles,
    );

    println!("hottest superblock traces (one inference, maupiti mem model):");
    let hot_blocks = maupiti_cached.hottest_blocks(&frame, 8).expect("profile");
    for h in &hot_blocks {
        println!(
            "  pc {:#07x}: {:>9} executions, {:>10} instructions, {:>8} mem-stall cycles, fused {} ({} entries, {} iterations)",
            h.entry_pc,
            h.executions,
            h.instructions,
            h.mem_stall_cycles,
            h.fused_kind.unwrap_or("-"),
            h.fused_entries,
            h.fused_iterations,
        );
    }

    // Per-pattern fusion hit counts over one inference.
    let fusion_profile = cached.fusion_profile(&frame).expect("fusion profile");
    println!("macro-op fusion hits (one inference):");
    for (kind, entries, iterations) in &fusion_profile {
        println!("  {kind:>13}: {entries:>6} fused entries, {iterations:>8} loop iterations");
    }
    assert!(
        fusion_profile
            .iter()
            .any(|&(kind, _, iters)| kind == "mac_sdotp8" && iters > 0),
        "the SDOTP channel loops must run through the fused path"
    );
    let fusion_hits_json = format!(
        "{{{}}}",
        fusion_profile
            .iter()
            .map(|(kind, entries, iterations)| format!(
                "\"{kind}\": {{\"entries\": {entries}, \"iterations\": {iterations}}}"
            ))
            .collect::<Vec<_>>()
            .join(", ")
    );

    write_bench_json(&[
        ("bench", "\"isa_throughput\"".into()),
        (
            "mode",
            format!("\"{}\"", if smoke { "smoke" } else { "full" }),
        ),
        ("host", pcount_bench::host_metadata_json(smoke)),
        ("host_threads", host_threads.to_string()),
        ("parallel_threads", PARALLEL_THREADS.to_string()),
        ("ips_simple", format!("{ips_simple:.3e}")),
        ("ips_block_cached", format!("{ips_cached:.3e}")),
        (
            "ips_simple_maupiti_mem",
            format!("{ips_maupiti_simple:.3e}"),
        ),
        (
            "ips_block_cached_maupiti_mem",
            format!("{ips_maupiti_cached:.3e}"),
        ),
        ("ips_parallel", format!("{ips_parallel:.3e}")),
        ("engine_speedup", format!("{speedup:.3}")),
        (
            "engine_speedup_maupiti_mem",
            format!("{speedup_maupiti:.3}"),
        ),
        ("ips_block_cached_nofusion", format!("{ips_nofusion:.3e}")),
        ("fusion_speedup", format!("{fusion_speedup:.3}")),
        ("fusion_hits", fusion_hits_json),
        ("parallel_scaling", format!("{scaling:.3}")),
        ("cycles_per_inference_flat", run_flat.cycles.to_string()),
        (
            "cycles_per_inference_maupiti",
            run_maupiti.cycles.to_string(),
        ),
        ("maupiti_cycle_delta", format!("{cycle_delta:.4}")),
        (
            "maupiti_imem_stall_cycles",
            run_maupiti.mem.imem_stall_cycles.to_string(),
        ),
        (
            "maupiti_dmem_stall_cycles",
            run_maupiti.mem.dmem_stall_cycles.to_string(),
        ),
        ("hot_blocks", hot_blocks_json(&hot_blocks)),
    ]);

    if smoke {
        println!("BENCH_SMOKE=1: wall-clock assertions skipped");
        return;
    }
    // The engine measures ~7x on an idle host; the hard guard sits lower
    // because both operands are independent wall-clock measurements and a
    // loaded machine can perturb them by tens of percent. A reading under
    // the 5x target on a quiet machine is a real regression.
    assert!(
        speedup >= 3.0,
        "block-cached engine regressed to {speedup:.2}x the reference interpreter"
    );
    // The per-trace memory-model charging must keep the engine fast under
    // the Maupiti hierarchy too — the summaries exist precisely so the
    // model is paid once per trace, not once per instruction.
    assert!(
        speedup_maupiti >= 3.0,
        "block-cached engine under the maupiti memory model regressed to \
         {speedup_maupiti:.2}x the reference interpreter"
    );
    // Macro-op fusion exists to be a perf win: the fused MAC/memset/copy
    // loops must beat per-instruction dispatch by a clear margin on the
    // deployed CNN. Measured well above 1.5x on an idle host; the floor
    // sits at 1.2x to absorb wall-clock noise on loaded machines.
    assert!(
        fusion_speedup >= 1.2,
        "macro-op fusion regressed to {fusion_speedup:.3}x over per-instruction dispatch"
    );
    // Batch scaling needs real cores; on a >= 4-thread host the pooled
    // path must deliver the acceptance target.
    if host_threads >= PARALLEL_THREADS {
        assert!(
            scaling >= 2.5,
            "parallel batch scaled only {scaling:.2}x at {PARALLEL_THREADS} threads"
        );
    }
}
