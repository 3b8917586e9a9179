//! Layer probes on one deployed model: the ISA engine through
//! `Deployment::run_batch` and `fusion_profile`, and the golden integer
//! model through `QuantizedCnn::forward_int`, on the same frames.

use crate::trace::Tracer;
use crate::{median_time, Outcome};
use pcount_kernels::{Deployment, InferenceRun};
use pcount_quant::QuantizedCnn;
use pcount_tensor::Tensor;

/// Timed repetitions of each probe; the median is reported.
const PROBE_REPS: usize = 3;

/// One frame of a `[N, 1, 8, 8]` batch.
pub fn frame(x: &Tensor, i: usize) -> &[f32] {
    let size: usize = x.shape()[1..].iter().product();
    &x.data()[i * size..(i + 1) * size]
}

/// The simulator's and the golden integer model's logits on every frame
/// of `x`, compared.
pub fn logits_match(deployment: &Deployment, model: &QuantizedCnn, x: &Tensor) -> bool {
    let threads = pcount_runtime::current().width();
    let pool = deployment.make_pool(threads).expect("warm-up frame runs");
    let runs = deployment.run_batch(x, &pool).expect("probe frames run");
    runs.iter()
        .enumerate()
        .all(|(i, run)| run.logits == model.forward_int(&model.quantize_input(frame(x, i))))
}

/// Times the ISA engine and `forward_int` on `x` and records the `isa.*`
/// and `quant.*` layer metrics.
pub fn layers(
    tracer: &Tracer,
    out: &mut Outcome,
    deployment: &Deployment,
    model: &QuantizedCnn,
    x: &Tensor,
) {
    let n = x.shape()[0];
    let threads = pcount_runtime::current().width();
    let pool = tracer.span("isa.make_pool", || {
        deployment.make_pool(threads).expect("warm-up frame runs")
    });
    let (engine_s, runs): (f64, Vec<InferenceRun>) = tracer.span("isa.run_batch", || {
        median_time(PROBE_REPS, || {
            deployment.run_batch(x, &pool).expect("probe frames run")
        })
    });
    let inputs: Vec<Vec<i8>> = (0..n).map(|i| model.quantize_input(frame(x, i))).collect();
    let (golden_s, logits) = tracer.span("quant.forward_int", || {
        median_time(PROBE_REPS, || {
            inputs
                .iter()
                .map(|q| model.forward_int(q))
                .collect::<Vec<_>>()
        })
    });
    out.check(
        "forward_int logits equal the simulator's on the probe frames",
        runs.iter().zip(&logits).all(|(run, l)| &run.logits == l),
    );
    let fused = tracer.span("isa.fusion_profile", || {
        deployment
            .fusion_profile(frame(x, 0))
            .expect("probe frame runs")
    });

    let nf = n as f64;
    let instructions: u64 = runs.iter().map(|r| r.instructions).sum();
    out.set("isa.host_us_per_inference", engine_s * 1e6 / nf);
    out.set("isa.host_mips", instructions as f64 / (engine_s * 1e6));
    out.set(
        "isa.cycles_per_inference",
        runs.iter().map(|r| r.cycles).sum::<u64>() as f64 / nf,
    );
    out.set("isa.instret_per_inference", instructions as f64 / nf);
    out.set(
        "isa.mem_stall_cycles",
        runs.iter().map(|r| r.mem.stall_cycles()).sum::<u64>() as f64 / nf,
    );
    out.set(
        "isa.fused_iterations",
        fused.iter().map(|&(_, _, iters)| iters).sum::<u64>() as f64,
    );
    out.set("quant.forward_int_us", golden_s * 1e6 / nf);
}
