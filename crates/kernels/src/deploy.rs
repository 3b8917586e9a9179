//! Deployment of a quantised CNN onto the instruction-set simulator.

use crate::asm::Assembler;
use crate::kernels::{emit_conv3x3, emit_fc, emit_maxpool2x2, KernelVariant, OutputFormat};
use crate::layout::MemoryPlan;
use crate::pool::CpuPool;
use pcount_isa::{reg, Cpu, ExecMode, HotBlock, MemStats, MemoryModel, PipelineStats, SimError};
use pcount_quant::QuantizedCnn;
use pcount_tensor::Tensor;
use std::collections::HashMap;
use std::fmt;

/// The execution target of a deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Target {
    /// The MAUPITI core: IBEX pipeline plus the SDOTP SIMD extension.
    Maupiti,
    /// A vanilla IBEX core without custom instructions (scalar kernels).
    Ibex,
}

impl Target {
    /// Whether kernels may use the SDOTP instructions.
    pub fn uses_simd(self) -> bool {
        matches!(self, Target::Maupiti)
    }
}

impl fmt::Display for Target {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Target::Maupiti => write!(f, "MAUPITI"),
            Target::Ibex => write!(f, "IBEX"),
        }
    }
}

/// Error building a deployment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeployError {
    /// The generated program does not fit the instruction memory.
    CodeTooLarge {
        /// Program size in bytes.
        code_bytes: usize,
        /// Instruction memory size in bytes.
        imem_bytes: usize,
    },
    /// Weights plus buffers do not fit the data memory.
    DataTooLarge {
        /// Required data bytes.
        data_bytes: usize,
        /// Data memory size in bytes.
        dmem_bytes: usize,
    },
    /// Internal assembly error (undefined label).
    Assembly(String),
}

impl fmt::Display for DeployError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeployError::CodeTooLarge {
                code_bytes,
                imem_bytes,
            } => write!(
                f,
                "code of {code_bytes} B exceeds {imem_bytes} B of instruction memory"
            ),
            DeployError::DataTooLarge {
                data_bytes,
                dmem_bytes,
            } => write!(
                f,
                "data of {data_bytes} B exceeds {dmem_bytes} B of data memory"
            ),
            DeployError::Assembly(msg) => write!(f, "assembly error: {msg}"),
        }
    }
}

impl std::error::Error for DeployError {}

/// Result of one inference on the simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InferenceRun {
    /// Raw 32-bit logits.
    pub logits: Vec<i32>,
    /// Predicted class (argmax of the logits).
    pub prediction: usize,
    /// Cycles consumed by this inference.
    pub cycles: u64,
    /// Instructions retired by this inference.
    pub instructions: u64,
    /// SDOTP instructions executed (0 on the vanilla IBEX target).
    pub sdotp: u64,
    /// Pipeline stall/flush counters of this inference (identical under
    /// every [`ExecMode`]).
    pub pipeline: PipelineStats,
    /// Memory-hierarchy stall breakdown of this inference (all zero under
    /// [`MemoryModel::Flat`]).
    pub mem: MemStats,
}

/// Static footprint and per-inference cost of a deployed model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeploymentReport {
    /// Program size in bytes.
    pub code_bytes: usize,
    /// Data memory usage in bytes (weights, buffers, input, logits).
    pub data_bytes: usize,
    /// Weight/bias bytes only.
    pub weight_bytes: usize,
    /// Cycles per inference (measured on a sample frame).
    pub cycles: u64,
    /// Instructions per inference.
    pub instructions: u64,
    /// SDOTP instructions per inference.
    pub sdotp: u64,
    /// Memory-hierarchy stall breakdown per inference (all zero under
    /// the default [`MemoryModel::Flat`]).
    pub mem: MemStats,
    /// Pipeline stall/flush counters per inference (identical under
    /// every [`ExecMode`]).
    pub pipeline: PipelineStats,
}

/// Default per-inference watchdog budget, in retired instructions: any
/// frame that has not halted after this many instructions is aborted with
/// [`SimError::Timeout`]. Far above any healthy inference (the deployed
/// CNNs retire well under a million instructions per frame); the
/// resilience layer passes reduced budgets through
/// [`Deployment::run_frame_with_budget`] to model injected stalls.
pub const INSTRUCTION_BUDGET: u64 = 50_000_000;

/// A quantised model compiled for a target and loaded into a simulated
/// MAUPITI/IBEX memory system, ready to run inferences.
#[derive(Debug, Clone)]
pub struct Deployment {
    target: Target,
    model: QuantizedCnn,
    plan: MemoryPlan,
    code_bytes: usize,
    base_cpu: Cpu,
}

impl Deployment {
    /// Compiles `model` for `target` with MAUPITI's 16 KB + 16 KB memories.
    ///
    /// # Errors
    ///
    /// Returns [`DeployError`] if the program or the data image does not
    /// fit the on-chip memories.
    pub fn new(model: &QuantizedCnn, target: Target) -> Result<Self, DeployError> {
        Self::with_memory(model, target, 16 * 1024, 16 * 1024)
    }

    /// Compiles `model` with explicit memory sizes.
    ///
    /// # Errors
    ///
    /// Returns [`DeployError`] if the program or data image does not fit.
    pub fn with_memory(
        model: &QuantizedCnn,
        target: Target,
        imem_bytes: usize,
        dmem_bytes: usize,
    ) -> Result<Self, DeployError> {
        let plan = MemoryPlan::new(model);
        if plan.total_bytes > dmem_bytes {
            return Err(DeployError::DataTooLarge {
                data_bytes: plan.total_bytes,
                dmem_bytes,
            });
        }
        let program = build_program(model, &plan, target).map_err(DeployError::Assembly)?;
        let code_bytes = program.len() * 4;
        if code_bytes > imem_bytes {
            return Err(DeployError::CodeTooLarge {
                code_bytes,
                imem_bytes,
            });
        }
        // Deployments run on the block-cached engine: the program image is
        // fixed, so every inference after the first dispatches fully
        // pre-decoded blocks (the cache is shared across the per-frame CPU
        // clones). Use `set_exec_mode` to fall back to the reference
        // interpreter, e.g. for cross-checking.
        let mut cpu = Cpu::new(imem_bytes, dmem_bytes).with_exec_mode(ExecMode::BlockCached);
        cpu.load_program(&program)
            .map_err(|e| DeployError::Assembly(e.to_string()))?;
        cpu.mem.write_dmem(plan.weight_addr[0], &plan.weight_image);
        Ok(Self {
            target,
            model: model.clone(),
            plan,
            code_bytes,
            base_cpu: cpu,
        })
    }

    /// The deployment target.
    pub fn target(&self) -> Target {
        self.target
    }

    /// The simulator engine inferences run on (block-cached by default).
    pub fn exec_mode(&self) -> ExecMode {
        self.base_cpu.exec_mode()
    }

    /// Selects the simulator engine used by subsequent inferences. The
    /// engines differ only in speed: every [`InferenceRun`] field,
    /// cycles and stall counters included, is identical under both.
    pub fn set_exec_mode(&mut self, mode: ExecMode) {
        self.base_cpu.set_exec_mode(mode);
    }

    /// The memory-hierarchy model inferences are charged through (the
    /// flat ideal-memory model by default, which charges nothing beyond
    /// the pipeline model).
    pub fn memory_model(&self) -> MemoryModel {
        self.base_cpu.memory_model()
    }

    /// Selects the memory-hierarchy model used by subsequent inferences.
    /// Logits, predictions and instruction counts are identical under
    /// every model — only cycles and the stall breakdown change.
    pub fn set_memory_model(&mut self, model: MemoryModel) {
        self.base_cpu.set_memory_model(model);
    }

    /// The memory plan (addresses and sizes in data memory).
    pub fn plan(&self) -> &MemoryPlan {
        &self.plan
    }

    /// Program size in bytes.
    pub fn code_size_bytes(&self) -> usize {
        self.code_bytes
    }

    /// Data memory usage in bytes.
    pub fn data_size_bytes(&self) -> usize {
        self.plan.total_bytes
    }

    /// Weight/bias bytes in data memory.
    pub fn weight_bytes(&self) -> usize {
        self.plan.weight_bytes
    }

    /// Whether the block-cached engine lowers recognised loop idioms
    /// (SDOTP MAC reductions, memset/memcpy/strided copies) to fused
    /// host-level loops.
    pub fn macro_fusion(&self) -> bool {
        self.base_cpu.macro_fusion()
    }

    /// Enables or disables macro-op fusion on the simulator engine
    /// (enabled by default; architectural results, instruction counts
    /// and cycle accounting are identical either way). Used by the
    /// throughput bench to measure the fusion speedup.
    pub fn set_macro_fusion(&mut self, enabled: bool) {
        self.base_cpu.set_macro_fusion(enabled);
    }

    /// Runs one inference on an ambient-normalised 8x8 frame.
    ///
    /// # Errors
    ///
    /// Propagates simulator faults (which indicate a code-generation bug).
    pub fn run_frame(&self, frame: &[f32]) -> Result<InferenceRun, SimError> {
        self.run_frame_on(&mut self.base_cpu.clone(), frame)
    }

    /// Runs one inference on the given pristine CPU clone, leaving the
    /// post-inference state (trace, profile counters) on `cpu`.
    ///
    /// When telemetry is enabled, every attempt bumps the
    /// `deploy/frames` counter and records its host wall time into the
    /// `deploy/frame_latency_ns` histogram; faults additionally bump
    /// `deploy/frame_faults`. The simulated results themselves are
    /// unaffected.
    fn run_frame_on(&self, cpu: &mut Cpu, frame: &[f32]) -> Result<InferenceRun, SimError> {
        self.run_frame_with_budget(cpu, frame, INSTRUCTION_BUDGET)
    }

    /// Runs one inference on `cpu` with an explicit watchdog budget of
    /// `max_instructions` — the per-frame cycle-limit seam the resilience
    /// layer supervises streams through. The default path
    /// ([`Deployment::run_frame`], [`Deployment::run_batch`]) uses
    /// [`INSTRUCTION_BUDGET`]; a reduced budget aborts a (injected or
    /// real) runaway inference with [`SimError::Timeout`] instead of
    /// hanging the stream.
    ///
    /// The caller owns `cpu` and its post-run state: after an `Ok` the
    /// CPU is halted at the end of the program; after a fault it holds a
    /// torn memory image and a mid-program PC and must be re-warmed (see
    /// `Cpu::restore_from` / `CpuPool::quarantine`) before reuse.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Timeout`] when the budget is exhausted, or any
    /// fault raised by the simulated program.
    pub fn run_frame_with_budget(
        &self,
        cpu: &mut Cpu,
        frame: &[f32],
        max_instructions: u64,
    ) -> Result<InferenceRun, SimError> {
        if !pcount_telemetry::enabled() {
            return self.run_frame_inner(cpu, frame, max_instructions);
        }
        let start = pcount_telemetry::now_ns();
        let result = self.run_frame_inner(cpu, frame, max_instructions);
        frame_latency_histogram().record(pcount_telemetry::now_ns() - start);
        pcount_telemetry::counter("deploy/frames").add(1);
        if result.is_err() {
            pcount_telemetry::counter("deploy/frame_faults").add(1);
        }
        result
    }

    /// The uninstrumented inference body of [`Deployment::run_frame_on`].
    fn run_frame_inner(
        &self,
        cpu: &mut Cpu,
        frame: &[f32],
        max_instructions: u64,
    ) -> Result<InferenceRun, SimError> {
        let input = self.plan.pack_input(&self.model, frame);
        cpu.mem.write_dmem(self.plan.input_addr, &input);
        let summary = cpu.run(max_instructions)?;
        let mut logits = Vec::with_capacity(self.model.config.num_classes);
        for i in 0..self.model.config.num_classes {
            let bytes = cpu.mem.read_dmem(self.plan.logits_addr + 4 * i as u32, 4);
            logits.push(i32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]));
        }
        let prediction = logits
            .iter()
            .enumerate()
            .max_by_key(|(i, &v)| (v, std::cmp::Reverse(*i)))
            .map(|(i, _)| i)
            .unwrap_or(0);
        Ok(InferenceRun {
            logits,
            prediction,
            cycles: summary.cycles,
            instructions: summary.instructions,
            sdotp: cpu.trace.sdotp_count(),
            pipeline: cpu.pipeline_stats(),
            mem: cpu.mem_stats(),
        })
    }

    /// Builds a pool of `threads` warmed CPUs (`0` = auto) for
    /// [`Deployment::run_batch`]. The warmup inference (on an all-zero
    /// frame) decodes and publishes every superblock of the deployed
    /// program into the shared cache, so pooled CPUs never decode on the
    /// batch path.
    ///
    /// # Errors
    ///
    /// Propagates simulator faults from the warmup inference.
    pub fn make_pool(&self, threads: usize) -> Result<CpuPool, SimError> {
        let pixels = self.plan.geometry.h * self.plan.geometry.h;
        self.run_frame(&vec![0.0; pixels])?;
        Ok(CpuPool::from_base(&self.base_cpu, threads))
    }

    /// Runs one inference per frame of a `[N, 1, 8, 8]` batch across the
    /// pool's threads, returning the runs in frame order.
    ///
    /// Results are bit-identical to a serial [`Deployment::run_frame`]
    /// loop — logits, predictions, cycles and instruction counts —
    /// regardless of the pool size: every frame's inference is
    /// independent, and each worker writes into its own contiguous slice
    /// of the output.
    ///
    /// # Errors
    ///
    /// Every frame is evaluated (faults no longer make a worker's range
    /// short-circuit), each fault bumps the `deploy/frame_faults`
    /// telemetry counter, and the error returned is the fault of the
    /// **lowest** faulting frame index — identical to what a serial
    /// [`Deployment::run_frame`] loop would hit first.
    pub fn run_batch(&self, x: &Tensor, pool: &CpuPool) -> Result<Vec<InferenceRun>, SimError> {
        self.run_batch_with_budgets(x, pool, |_| INSTRUCTION_BUDGET)
    }

    /// [`Deployment::run_batch`] with a per-frame watchdog budget:
    /// `budget_of(i)` is the instruction limit of frame `i`. This is the
    /// seam the resilience layer and the fault-ordering tests use to make
    /// *specific* frames of a pooled batch time out deterministically;
    /// the error semantics are identical to `run_batch` (every frame is
    /// evaluated, every fault is counted, the lowest-index fault is
    /// returned).
    ///
    /// # Errors
    ///
    /// Returns the fault of the lowest faulting frame index, if any.
    pub fn run_batch_with_budgets<F>(
        &self,
        x: &Tensor,
        pool: &CpuPool,
        budget_of: F,
    ) -> Result<Vec<InferenceRun>, SimError>
    where
        F: Fn(usize) -> u64 + Sync,
    {
        let _span = pcount_telemetry::span("deploy/run_batch");
        let n = x.shape()[0];
        let pixels: usize = x.shape()[1..].iter().product();
        let data = x.data();
        let frame = |i: usize| &data[i * pixels..(i + 1) * pixels];
        let collect = |runs: Vec<Result<InferenceRun, SimError>>| {
            // First (lowest-index) fault wins, after every frame ran and
            // was counted — exactly the serial loop's error, without its
            // short-circuit hiding later faults from the fault counter.
            runs.into_iter().collect::<Result<Vec<_>, _>>()
        };
        if pool.threads() <= 1 || n <= 1 {
            return collect(
                (0..n)
                    .map(|i| {
                        self.run_frame_with_budget(
                            &mut self.base_cpu.clone(),
                            frame(i),
                            budget_of(i),
                        )
                    })
                    .collect(),
            );
        }
        // One contiguous frame range per pooled CPU, run as jobs on the
        // persistent runtime pool (no threads are spawned per batch).
        // Ranges are concatenated in order, so the flattened run list is
        // frame-ordered.
        let chunk = n.div_ceil(pool.threads());
        let ranges = n.div_ceil(chunk);
        let results = pcount_runtime::current().map_limited(ranges, pool.threads(), |w| {
            let cpu = pool.cpu(w);
            (w * chunk..((w + 1) * chunk).min(n))
                .map(|i| self.run_frame_with_budget(&mut cpu.clone(), frame(i), budget_of(i)))
                .collect::<Vec<Result<InferenceRun, SimError>>>()
        });
        collect(results.into_iter().flatten().collect())
    }

    /// Predicts classes for a `[N, 1, 8, 8]` batch of raw frames,
    /// evaluating frames in parallel across `threads` workers (`0` =
    /// auto). Predictions are identical to the serial path for any thread
    /// count.
    ///
    /// # Errors
    ///
    /// Propagates simulator faults.
    pub fn predict_batch_with_threads(
        &self,
        x: &Tensor,
        threads: usize,
    ) -> Result<Vec<usize>, SimError> {
        let pool = CpuPool::from_base(
            &self.base_cpu,
            crate::pool::resolve_cpu_pool_threads(threads).min(x.shape()[0].max(1)),
        );
        Ok(self
            .run_batch(x, &pool)?
            .into_iter()
            .map(|r| r.prediction)
            .collect())
    }

    /// Predicts classes for a `[N, 1, 8, 8]` batch of raw frames using
    /// the host's available parallelism.
    ///
    /// # Errors
    ///
    /// Propagates simulator faults.
    pub fn predict_batch(&self, x: &Tensor) -> Result<Vec<usize>, SimError> {
        self.predict_batch_with_threads(x, 0)
    }

    /// Trace-cache profile: runs one inference on `frame` and returns the
    /// `n` hottest superblock traces by retired instructions. The
    /// profiling run always uses [`ExecMode::BlockCached`] (the per-trace
    /// counters only exist there), regardless of the deployment's
    /// configured engine.
    ///
    /// # Errors
    ///
    /// Propagates simulator faults.
    pub fn hottest_blocks(&self, frame: &[f32], n: usize) -> Result<Vec<HotBlock>, SimError> {
        let mut cpu = self.base_cpu.clone();
        cpu.set_exec_mode(ExecMode::BlockCached);
        self.run_frame_on(&mut cpu, frame)?;
        Ok(cpu.hottest_blocks(n))
    }

    /// Runs one inference on `frame` under [`ExecMode::BlockCached`] and
    /// returns the aggregated macro-op fusion profile: one `(pattern
    /// name, fused trace entries, fused loop iterations)` triple per
    /// recognised loop idiom, sorted by pattern name. Empty when fusion
    /// is disabled on this deployment.
    ///
    /// # Errors
    ///
    /// Propagates simulator faults.
    pub fn fusion_profile(&self, frame: &[f32]) -> Result<Vec<(&'static str, u64, u64)>, SimError> {
        let mut cpu = self.base_cpu.clone();
        cpu.set_exec_mode(ExecMode::BlockCached);
        self.run_frame_on(&mut cpu, frame)?;
        Ok(cpu.fusion_profile())
    }

    /// Builds a static + dynamic cost report using `frame` as the sample
    /// input for the cycle measurement.
    ///
    /// # Errors
    ///
    /// Propagates simulator faults.
    pub fn report(&self, frame: &[f32]) -> Result<DeploymentReport, SimError> {
        let run = self.run_frame(frame)?;
        Ok(DeploymentReport {
            code_bytes: self.code_bytes,
            data_bytes: self.data_size_bytes(),
            weight_bytes: self.weight_bytes(),
            cycles: run.cycles,
            instructions: run.instructions,
            sdotp: run.sdotp,
            mem: run.mem,
            pipeline: run.pipeline,
        })
    }
}

/// Cached handle of the per-frame inference latency histogram (avoids
/// taking the registry lock on every frame).
fn frame_latency_histogram() -> &'static pcount_telemetry::Histogram {
    static HANDLE: std::sync::OnceLock<&'static pcount_telemetry::Histogram> =
        std::sync::OnceLock::new();
    HANDLE.get_or_init(|| pcount_telemetry::histogram("deploy/frame_latency_ns"))
}

/// Builds the complete program: per-layer call sequence followed by the
/// (deduplicated) kernel bodies.
fn build_program(
    model: &QuantizedCnn,
    plan: &MemoryPlan,
    target: Target,
) -> Result<Vec<pcount_isa::Instr>, String> {
    let p = model.assignment.layers();
    let geo = &plan.geometry;
    let simd = target.uses_simd();
    let mut asm = Assembler::new();

    // Kernel labels, deduplicated by variant.
    let mut conv_kernels: HashMap<String, KernelVariant> = HashMap::new();
    let mut fc_kernels: HashMap<String, KernelVariant> = HashMap::new();
    let conv_label = |v: KernelVariant| format!("conv3x3_{}", v.suffix());
    let fc_label = |v: KernelVariant| format!("fc_{}", v.suffix());

    let conv1_variant = KernelVariant {
        input: p[0],
        output: OutputFormat::Packed(p[1]),
        simd,
    };
    let conv2_variant = KernelVariant {
        input: p[1],
        output: OutputFormat::Packed(p[2]),
        simd,
    };
    let fc1_variant = KernelVariant {
        input: p[2],
        output: OutputFormat::Packed(p[3]),
        simd,
    };
    let fc2_variant = KernelVariant {
        input: p[3],
        output: OutputFormat::Raw32,
        simd,
    };
    conv_kernels.insert(conv_label(conv1_variant), conv1_variant);
    conv_kernels.insert(conv_label(conv2_variant), conv2_variant);
    fc_kernels.insert(fc_label(fc1_variant), fc1_variant);
    fc_kernels.insert(fc_label(fc2_variant), fc2_variant);
    let pool_label = "maxpool2x2".to_string();

    let rq_mult = |i: usize| model.layers[i].requant.map(|r| r.mult).unwrap_or(0);

    // Layer 1: conv1 from the input buffer into buffer A.
    asm.li(reg::A0, plan.input_addr as i32);
    asm.li(reg::A1, plan.weight_addr[0] as i32);
    asm.li(reg::A2, plan.bias_addr[0] as i32);
    asm.li(reg::A3, plan.buf_a_addr as i32);
    asm.li(reg::A4, geo.h as i32);
    asm.li(reg::A5, p[0].storage_bytes(geo.cin_pad) as i32);
    asm.li(reg::A6, geo.c1 as i32);
    asm.li(reg::A7, geo.c1_pad as i32);
    asm.li(reg::S2, rq_mult(0));
    asm.li(reg::S3, p[1].qmax());
    asm.call(conv_label(conv1_variant));

    // Max pool: buffer A -> buffer B.
    asm.li(reg::A0, plan.buf_a_addr as i32);
    asm.li(reg::A1, plan.buf_b_addr as i32);
    asm.li(reg::A4, geo.h as i32);
    asm.li(reg::A5, geo.c1_pad as i32);
    asm.call(&pool_label);

    // Layer 2: conv2 from buffer B into buffer A.
    asm.li(reg::A0, plan.buf_b_addr as i32);
    asm.li(reg::A1, plan.weight_addr[1] as i32);
    asm.li(reg::A2, plan.bias_addr[1] as i32);
    asm.li(reg::A3, plan.buf_a_addr as i32);
    asm.li(reg::A4, geo.pooled as i32);
    asm.li(reg::A5, p[1].storage_bytes(geo.c1_pad) as i32);
    asm.li(reg::A6, geo.c2 as i32);
    asm.li(reg::A7, geo.c2_pad as i32);
    asm.li(reg::S2, rq_mult(1));
    asm.li(reg::S3, p[2].qmax());
    asm.call(conv_label(conv2_variant));

    // Layer 3: fc1 from buffer A into buffer B.
    asm.li(reg::A0, plan.buf_a_addr as i32);
    asm.li(reg::A1, plan.weight_addr[2] as i32);
    asm.li(reg::A2, plan.bias_addr[2] as i32);
    asm.li(reg::A3, plan.buf_b_addr as i32);
    asm.li(reg::A4, geo.f1 as i32);
    asm.li(
        reg::A5,
        p[2].storage_bytes(geo.pooled * geo.pooled * geo.c2_pad) as i32,
    );
    asm.li(reg::S2, rq_mult(2));
    asm.li(reg::S3, p[3].qmax());
    asm.call(fc_label(fc1_variant));

    // Layer 4: fc2 from buffer B into the logits.
    asm.li(reg::A0, plan.buf_b_addr as i32);
    asm.li(reg::A1, plan.weight_addr[3] as i32);
    asm.li(reg::A2, plan.bias_addr[3] as i32);
    asm.li(reg::A3, plan.logits_addr as i32);
    asm.li(reg::A4, geo.classes as i32);
    asm.li(reg::A5, p[3].storage_bytes(geo.f1_pad) as i32);
    asm.li(reg::S2, 0);
    asm.li(reg::S3, 0);
    asm.call(fc_label(fc2_variant));
    asm.ebreak();

    // Kernel bodies (shared across layers that use the same variant).
    for (label, variant) in &conv_kernels {
        emit_conv3x3(&mut asm, label, *variant);
    }
    for (label, variant) in &fc_kernels {
        emit_fc(&mut asm, label, *variant);
    }
    emit_maxpool2x2(&mut asm, &pool_label, p[1]);

    asm.assemble()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcount_nn::{CnnConfig, TrainConfig};
    use pcount_quant::{
        fold_sequential, qat_finetune, Precision, PrecisionAssignment, QatCnn, QatConfig,
    };
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn toy_dataset(n: usize, rng: &mut StdRng) -> (Tensor, Vec<usize>) {
        let mut x = Tensor::zeros(&[n, 1, 8, 8]);
        let mut y = Vec::with_capacity(n);
        for i in 0..n {
            let class = rng.gen_range(0..4usize);
            let (cy, cx) = [(2, 2), (2, 6), (6, 2), (6, 6)][class];
            for dy in 0..2usize {
                for dx in 0..2usize {
                    x.set(&[i, 0, cy + dy - 1, cx + dx - 1], 3.0);
                }
            }
            for h in 0..8 {
                for w in 0..8 {
                    let v = x.at(&[i, 0, h, w]) + rng.gen_range(-0.2..0.2);
                    x.set(&[i, 0, h, w], v);
                }
            }
            y.push(class);
        }
        (x, y)
    }

    fn quantized_model(
        assignment: PrecisionAssignment,
        rng: &mut StdRng,
    ) -> (QuantizedCnn, Tensor) {
        let (x, y) = toy_dataset(120, rng);
        let cfg = CnnConfig::seed().with_channels(5, 6, 10);
        let mut net = cfg.build(rng);
        let tc = TrainConfig {
            epochs: 5,
            batch_size: 32,
            learning_rate: 3e-3,
            weight_decay: 0.0,
            verbose: false,
        };
        let _ = pcount_nn::train_classifier(&mut net, &x, &y, &tc, rng);
        let folded = fold_sequential(cfg, &net).expect("fold");
        let mut qat = QatCnn::from_folded(&folded, assignment);
        let qc = QatConfig {
            epochs: 2,
            batch_size: 32,
            learning_rate: 5e-4,
            verbose: false,
        };
        let _ = qat_finetune(&mut qat, &x, &y, &qc, rng);
        (QuantizedCnn::from_qat(&qat), x)
    }

    fn check_bit_exact(assignment: PrecisionAssignment, target: Target, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (model, x) = quantized_model(assignment, &mut rng);
        let deployment = Deployment::new(&model, target).expect("deploy");
        let pixels = 64usize;
        for i in 0..10 {
            let frame = &x.data()[i * pixels..(i + 1) * pixels];
            let run = deployment.run_frame(frame).expect("run");
            let golden = model.forward_int(&model.quantize_input(frame));
            assert_eq!(
                run.logits, golden,
                "deployed logits differ from the integer golden model \
                 (frame {i}, {assignment}, {target})"
            );
        }
    }

    #[test]
    fn maupiti_int8_matches_golden_model_bit_exactly() {
        check_bit_exact(
            PrecisionAssignment::uniform(Precision::Int8),
            Target::Maupiti,
            0,
        );
    }

    #[test]
    fn ibex_int8_matches_golden_model_bit_exactly() {
        check_bit_exact(
            PrecisionAssignment::uniform(Precision::Int8),
            Target::Ibex,
            1,
        );
    }

    #[test]
    fn maupiti_mixed_8444_matches_golden_model() {
        check_bit_exact(
            PrecisionAssignment::new([
                Precision::Int8,
                Precision::Int4,
                Precision::Int4,
                Precision::Int4,
            ]),
            Target::Maupiti,
            2,
        );
    }

    #[test]
    fn ibex_mixed_8448_matches_golden_model() {
        check_bit_exact(
            PrecisionAssignment::new([
                Precision::Int8,
                Precision::Int4,
                Precision::Int4,
                Precision::Int8,
            ]),
            Target::Ibex,
            3,
        );
    }

    #[test]
    fn block_cached_engine_matches_simple_engine_bit_exactly() {
        let mut rng = StdRng::seed_from_u64(8);
        let (model, x) = quantized_model(PrecisionAssignment::uniform(Precision::Int8), &mut rng);
        for target in [Target::Maupiti, Target::Ibex] {
            let cached = Deployment::new(&model, target).expect("deploy");
            assert_eq!(cached.exec_mode(), ExecMode::BlockCached);
            let mut simple = cached.clone();
            simple.set_exec_mode(ExecMode::Simple);
            for i in 0..5 {
                let frame = &x.data()[i * 64..(i + 1) * 64];
                let rc = cached.run_frame(frame).expect("cached run");
                let rs = simple.run_frame(frame).expect("simple run");
                // Logits, cycles, instret, SDOTPs, pipeline and memory
                // stats: the engines differ only in speed.
                assert_eq!(rc, rs, "{target} frame {i}");
            }
        }
    }

    #[test]
    fn parallel_batch_matches_serial_bit_exactly_in_both_exec_modes() {
        let mut rng = StdRng::seed_from_u64(9);
        let (model, x) = quantized_model(PrecisionAssignment::uniform(Precision::Int8), &mut rng);
        let n = 12usize;
        let batch = Tensor::from_vec(x.data()[..n * 64].to_vec(), &[n, 1, 8, 8]);
        for mode in [ExecMode::BlockCached, ExecMode::Simple] {
            let mut deployment = Deployment::new(&model, Target::Maupiti).expect("deploy");
            deployment.set_exec_mode(mode);
            let serial: Vec<InferenceRun> = (0..n)
                .map(|i| {
                    deployment
                        .run_frame(&batch.data()[i * 64..(i + 1) * 64])
                        .expect("serial run")
                })
                .collect();
            for threads in [1usize, 3, 4] {
                let pool = deployment.make_pool(threads).expect("pool");
                assert_eq!(pool.threads(), threads);
                let parallel = deployment.run_batch(&batch, &pool).expect("batch");
                // Bit-identical: logits, prediction, cycles, instret and
                // sdotp all compare equal, in frame order.
                assert_eq!(parallel, serial, "{mode:?} with {threads} threads");
            }
            let serial_preds: Vec<usize> = serial.iter().map(|r| r.prediction).collect();
            assert_eq!(
                deployment.predict_batch(&batch).expect("predict"),
                serial_preds,
                "{mode:?} predict_batch"
            );
            assert_eq!(
                deployment
                    .predict_batch_with_threads(&batch, 4)
                    .expect("predict"),
                serial_preds,
            );
        }
    }

    #[test]
    fn hottest_blocks_report_covers_the_inference() {
        let mut rng = StdRng::seed_from_u64(10);
        let (model, x) = quantized_model(PrecisionAssignment::uniform(Precision::Int8), &mut rng);
        let deployment = Deployment::new(&model, Target::Maupiti).expect("deploy");
        let frame = &x.data()[0..64];
        let run = deployment.run_frame(frame).expect("run");
        let hot = deployment.hottest_blocks(frame, 5).expect("profile");
        assert!(!hot.is_empty());
        assert!(hot.len() <= 5);
        assert!(hot[0].executions > 0);
        // The top traces dominate the kernel inner loops: together they
        // must account for a large share of the retired instructions.
        let top_instrs: u64 = hot.iter().map(|h| h.instructions).sum();
        assert!(
            top_instrs * 2 > run.instructions,
            "top-5 traces cover under half the inference ({top_instrs} of {})",
            run.instructions
        );
    }

    #[test]
    fn maupiti_uses_sdotp_and_ibex_does_not() {
        let mut rng = StdRng::seed_from_u64(4);
        let (model, x) = quantized_model(PrecisionAssignment::uniform(Precision::Int8), &mut rng);
        let frame = &x.data()[0..64];
        let maupiti = Deployment::new(&model, Target::Maupiti).unwrap();
        let ibex = Deployment::new(&model, Target::Ibex).unwrap();
        let run_m = maupiti.run_frame(frame).unwrap();
        let run_i = ibex.run_frame(frame).unwrap();
        assert!(run_m.sdotp > 0);
        assert_eq!(run_i.sdotp, 0);
        assert_eq!(run_m.logits, run_i.logits);
        assert!(
            run_m.cycles < run_i.cycles,
            "SDOTP kernels should be faster ({} vs {})",
            run_m.cycles,
            run_i.cycles
        );
    }

    #[test]
    fn int4_weights_shrink_the_data_footprint() {
        let mut rng = StdRng::seed_from_u64(5);
        let (m8, _) = quantized_model(PrecisionAssignment::uniform(Precision::Int8), &mut rng);
        let mut rng = StdRng::seed_from_u64(5);
        let (m4, _) = quantized_model(
            PrecisionAssignment::new([
                Precision::Int8,
                Precision::Int4,
                Precision::Int4,
                Precision::Int4,
            ]),
            &mut rng,
        );
        let d8 = Deployment::new(&m8, Target::Maupiti).unwrap();
        let d4 = Deployment::new(&m4, Target::Maupiti).unwrap();
        assert!(d4.weight_bytes() < d8.weight_bytes());
    }

    #[test]
    fn code_and_data_fit_the_chip_for_small_models() {
        let mut rng = StdRng::seed_from_u64(6);
        let (model, x) = quantized_model(PrecisionAssignment::uniform(Precision::Int8), &mut rng);
        let d = Deployment::new(&model, Target::Maupiti).unwrap();
        let report = d.report(&x.data()[0..64]).unwrap();
        assert!(report.code_bytes <= 16 * 1024);
        assert!(report.data_bytes <= 16 * 1024);
        assert!(report.cycles > 0);
        assert!(report.instructions > 0);
    }

    #[test]
    fn oversized_models_are_rejected() {
        let mut rng = StdRng::seed_from_u64(7);
        let (x, y) = toy_dataset(40, &mut rng);
        // The full seed network has ~76k parameters: far beyond 16 KB.
        let cfg = CnnConfig::seed();
        let mut net = cfg.build(&mut rng);
        let tc = TrainConfig {
            epochs: 1,
            batch_size: 32,
            learning_rate: 1e-3,
            weight_decay: 0.0,
            verbose: false,
        };
        let _ = pcount_nn::train_classifier(&mut net, &x, &y, &tc, &mut rng);
        let folded = fold_sequential(cfg, &net).unwrap();
        let qat = QatCnn::from_folded(&folded, PrecisionAssignment::uniform(Precision::Int8));
        let model = QuantizedCnn::from_qat(&qat);
        assert!(matches!(
            Deployment::new(&model, Target::Maupiti),
            Err(DeployError::DataTooLarge { .. })
        ));
    }
}
